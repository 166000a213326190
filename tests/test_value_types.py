"""Fan, TDivisor, CDivisor and RationalFunction are namedtuples.

Each hashes and prints as its namedtuple, equals any equal instance, checks
its fields in its constructor and takes canonical fields unchecked through
_make; the tuple operators a type does not define raise TypeError.
"""

from fractions import Fraction

import pytest

from toricurve.curve import INFINITY, CDivisor, CurvePoint, RationalFunction
from toricurve.fan import Fan, MalformedFan, dumps_json, preset
from toricurve.intersect import TDivisor

P3_REPR = ("Fan(rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), "
           "max_cones=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)), name='p3')")


def half():
    return CurvePoint(Fraction(1, 2))


def examples():
    """One instance of each type with its fields and its repr."""
    d = CDivisor(((CurvePoint(2), 1), (INFINITY, 2), (half(), -3)))
    f = RationalFunction(Fraction(3, 2), ((2, 1), (Fraction(-1, 3), -2)))
    return [
        (preset("p3"), (preset("p3").rays, preset("p3").max_cones, "p3"), P3_REPR),
        (TDivisor([1, -2, 3]), ((1, -2, 3),), "TDivisor(coeffs=(1, -2, 3))"),
        (d, (((half(), -3), (CurvePoint(2), 1), (INFINITY, 2)),),
         "CDivisor(entries=((1/2, -3), (2, 1), (inf, 2)))"),
        (f, (Fraction(3, 2), ((Fraction(-1, 3), -2), (Fraction(2), 1))),
         "RationalFunction(constant=Fraction(3, 2), "
         "factors=((Fraction(-1, 3), -2), (Fraction(2, 1), 1)))"),
    ]


@pytest.mark.parametrize("index", range(4), ids=["Fan", "TDivisor", "CDivisor", "RationalFunction"])
def test_hash_repr_and_equality_are_the_namedtuples(index):
    x, fields, text = examples()[index]
    assert tuple(x) == fields and x == fields  # a tuple of its fields
    assert hash(x) == hash(tuple(x)) == hash(fields)
    assert repr(x) == text
    y = examples()[index][0]
    assert y is not x and y == x and hash(y) == hash(x)
    assert {x: 1}[y] == 1
    assert type(x)._make(fields) == x


def test_separately_built_equal_instances_are_equal():
    p3 = preset("p3")
    assert Fan([list(r) for r in p3.rays], [c[::-1] for c in p3.max_cones], "p3") == p3
    assert Fan(p3.rays, p3.max_cones) != p3  # the name is a field
    assert TDivisor(iter((0, 1, 0, 0))) == TDivisor((0, 1, 0, 0))
    d = CDivisor.of({Fraction(1, 2): -3, 2: 1})
    assert CDivisor(((CurvePoint(2), 1), (half(), -3))) == d
    assert CDivisor.of({2: 2, Fraction(1, 2): -3}) + CDivisor.of({2: -1}) == d
    f = RationalFunction.of(Fraction(3, 2), {2: 1, Fraction(-1, 3): -2})
    g = RationalFunction(Fraction(3), ((Fraction(-1, 3), -1),)) * RationalFunction.of(
        Fraction(1, 2), ((2, 1), (Fraction(-1, 3), -1)))
    assert f == g and f is not g


def test_make_takes_fields_as_they_are():
    # no sort, no repeat or zero check, no int check: the caller's fields are canonical
    fan = Fan._make((((1, 0, 0), (1, 0, 0)), ((2, 1, 0),), 7))
    assert fan.rays == ((1, 0, 0), (1, 0, 0)) and fan.max_cones == ((2, 1, 0),) and fan.name == 7
    assert TDivisor._make(((1, 2.5),)).coeffs == (1, 2.5)
    entries = ((CurvePoint(2), 0), (half(), 1), (half(), 1))
    assert CDivisor._make((entries,)).entries is entries
    factors = ((Fraction(2), 1), (Fraction(1), 0))
    f = RationalFunction._make((Fraction(0), factors))
    assert f.constant == 0 and f.factors is factors
    with pytest.raises(TypeError):
        TDivisor._make(((1,), (2,)))  # one field


def test_constructors_still_check_their_fields():
    with pytest.raises(MalformedFan, match="duplicate rays"):
        Fan(((1, 0, 0), (1, 0, 0)), ())
    with pytest.raises(MalformedFan, match="duplicate maximal cones"):
        Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2), (2, 1, 0)))
    with pytest.raises(MalformedFan, match="ray entries must be ints"):
        Fan(((1, 0, 0.5),), ())
    for bad in ((1, 0.5), (1, True), (1, "2")):
        with pytest.raises(ValueError, match="divisor coefficients must be ints"):
            TDivisor(bad)
    with pytest.raises(ValueError, match="divisor points must be distinct"):
        CDivisor(((half(), 1), (CurvePoint(Fraction(2, 4)), 2)))
    with pytest.raises(ValueError, match="zero multiplicities are not stored"):
        CDivisor(((half(), 0),))
    with pytest.raises(ValueError, match="the zero function is not representable"):
        RationalFunction(0, ((1, 1),))
    with pytest.raises(ValueError, match="the zero function is not representable"):
        RationalFunction.one().scale(0)
    with pytest.raises(ValueError, match="factor roots must be distinct"):
        RationalFunction(1, ((Fraction(1, 2), 1), (Fraction(2, 4), -1)))
    with pytest.raises(ValueError, match="zero exponents are not stored"):
        RationalFunction(1, ((3, 0),))


def guarded():
    """(name, operation) for each tuple operator a type does not define, and
    for a foreign operand of an operator it does define."""
    p3, D = preset("p3"), TDivisor((1, 2))
    d, f = CDivisor.of({2: 1}), RationalFunction.of(1, {2: 1})
    return [
        ("fan + fan", lambda: p3 + p3), ("fan + ()", lambda: p3 + ()),
        ("() + fan", lambda: () + p3), ("fan * 2", lambda: p3 * 2), ("2 * fan", lambda: 2 * p3),
        ("D + D", lambda: D + D), ("D + ()", lambda: D + ()), ("() + D", lambda: () + D),
        ("D * 2", lambda: D * 2), ("2 * D", lambda: 2 * D),
        ("() + d", lambda: () + d), ("d + 1", lambda: d + 1), ("d + (1,)", lambda: d + (1,)),
        ("d * 2", lambda: d * 2), ("2 * d", lambda: 2 * d), ("d * d", lambda: d * d),
        ("f + f", lambda: f + f), ("f + ()", lambda: f + ()), ("() + f", lambda: () + f),
        ("2 * f", lambda: 2 * f), ("f * 2", lambda: f * 2), ("f * (1, 2)", lambda: f * (1, 2)),
    ]


@pytest.mark.parametrize("name, op", guarded(), ids=[name for name, _ in guarded()])
def test_tuple_operators_a_type_does_not_define_raise(name, op):
    with pytest.raises(TypeError):
        op()


def test_the_operators_a_type_defines_are_its_own():
    d = CDivisor.of({2: 1, Fraction(1, 2): -1})
    assert d + d == d.scale(2) and -d == d.scale(-1)
    f = RationalFunction.of(Fraction(2), {1: 1, 3: -2})
    assert f * f == f ** 2 and (f * f.inverse()) == RationalFunction.one()


def test_a_curve_point_equals_no_number():
    # CurvePoint.__eq__ answers NotImplemented to a foreign operand, so
    # Python falls back to identity
    assert CurvePoint(1) != 1
    assert CurvePoint(Fraction(1, 2)) != Fraction(1, 2)
    assert CurvePoint() != None  # noqa: E711, the operator is what is tested


def test_integer_parts_is_cached_on_the_instance():
    f = RationalFunction.of(Fraction(2), {Fraction(1, 2): 2, 3: -1})
    assert f.integer_parts is f.integer_parts and "integer_parts" in vars(f)
    assert f.integer_parts == ((4, -4, 1), (1, -3))
    assert RationalFunction._make(tuple(f)).integer_parts == f.integer_parts


def test_dumps_json_writes_an_instance_as_a_list_of_its_fields():
    # no writer hands one in; json's fallback takes it as the tuple it is
    assert dumps_json({"D": TDivisor((1, 2))}) == '{\n  "D": [\n    [\n      1,\n      2\n    ]\n  ]\n}'
