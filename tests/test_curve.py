"""Genus-zero function field arithmetic against direct sympy evaluation."""

import random
from fractions import Fraction

import pytest
import sympy

from toricurve.curve import (
    CDivisor,
    CurvePoint,
    INFINITY,
    NotDegreeZero,
    POLE,
    ProjectiveLine,
    RationalFunction,
    evaluate_with_derivative,
    principal_function,
    sample_divisor,
)

_t = sympy.Symbol("t")


def to_sympy(f: RationalFunction):
    expr = sympy.Rational(f.constant.numerator, f.constant.denominator)
    for root, exp in f.factors:
        expr *= (_t - sympy.Rational(root.numerator, root.denominator)) ** exp
    return sympy.cancel(sympy.together(expr))


def sympy_value_and_derivative(expr, point: CurvePoint):
    """Exact evaluation in the local coordinate, POLE when undefined."""
    if point.is_infinity:
        s = sympy.Symbol("s")
        expr = sympy.cancel(expr.subs(_t, 1 / s))
        at = sympy.Integer(0)
        var = s
    else:
        at = sympy.Rational(point.finite.numerator, point.finite.denominator)
        var = _t
    num, den = sympy.fraction(expr)
    if den.subs(var, at) == 0:
        return POLE
    value = sympy.Rational(expr.subs(var, at))
    deriv = sympy.Rational(sympy.diff(expr, var).subs(var, at))
    return (
        Fraction(int(value.p), int(value.q)),
        Fraction(int(deriv.p), int(deriv.q)),
    )


def random_function(rng) -> RationalFunction:
    constant = rng.choice(
        [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3)]
    )
    roots = rng.sample([Fraction(n, d) for n in range(-4, 5) for d in (1, 2)], rng.randint(1, 3))
    factors = {}
    for r in roots:
        e = rng.choice([-2, -1, 1, 2])
        factors[r] = e
    return RationalFunction.of(constant, factors)


def test_curve_point_basics():
    p = CurvePoint(Fraction(1, 2))
    assert not p.is_infinity
    assert INFINITY.is_infinity
    assert CurvePoint() == INFINITY
    assert sorted([INFINITY, p], key=lambda q: q.sort_key())[0] == p
    assert repr(INFINITY) == "inf"


def test_cdivisor_accumulates_and_drops_zeros():
    p, q = CurvePoint(1), CurvePoint(2)
    d = CDivisor.of([(p, 1), (q, 2), (p, -1)])
    assert d.entries == ((q, 2),)
    assert d.degree == 2
    assert not d.is_reduced
    assert d.support() == frozenset({q})
    multiplicities = dict(d.entries)
    assert multiplicities.get(q, 0) == 2 and multiplicities.get(p, 0) == 0
    assert (d + (-d)).entries == ()
    assert d.scale(3).degree == 6


def test_principal_function_two_points():
    a, b = CurvePoint(2), CurvePoint(5)
    f = principal_function(CDivisor.of([(a, 1), (b, -1)]))
    assert f.constant == 1
    assert f.factors == ((Fraction(2), 1), (Fraction(5), -1))


def test_principal_function_with_infinity():
    # 2(1) - (0) - (inf) gives (t-1)^2 / t
    d = CDivisor.of([(CurvePoint(1), 2), (CurvePoint(0), -1), (INFINITY, -1)])
    f = principal_function(d)
    assert f.factors == ((Fraction(0), -1), (Fraction(1), 2))
    assert f.order_at_infinity == -1
    assert f.divisor() == d


def test_principal_function_requires_degree_zero():
    with pytest.raises(NotDegreeZero):
        principal_function(CDivisor.of([(CurvePoint(0), 1)]))


def test_principal_round_trip_random():
    rng = random.Random(41)
    for _ in range(30):
        points = rng.sample(range(-6, 7), rng.randint(2, 4))
        entries = [(CurvePoint(p), rng.choice([-2, -1, 1, 2])) for p in points]
        total = sum(e for _, e in entries)
        entries.append((INFINITY, -total))
        d = CDivisor.of(entries)
        if d.degree != 0:
            continue
        assert principal_function(d).divisor() == d


def test_function_multiplication_adds_divisors():
    rng = random.Random(42)
    for _ in range(30):
        f, g = random_function(rng), random_function(rng)
        assert (f * g).divisor() == f.divisor() + g.divisor()
        assert f.inverse().divisor() == -f.divisor()
        assert (f ** 3).divisor() == f.divisor().scale(3)


def test_evaluate_goldens():
    # (t-1)^2 / t
    f = RationalFunction.of(1, {Fraction(1): 2, Fraction(0): -1})
    assert evaluate_with_derivative(f, CurvePoint(2)) == (Fraction(1, 2), Fraction(3, 4))
    assert evaluate_with_derivative(f, CurvePoint(0)) is POLE
    assert evaluate_with_derivative(f, INFINITY) is POLE
    assert f.order_at_infinity == -1
    g = RationalFunction.of(1, {Fraction(3): 1, Fraction(7): -1})
    assert evaluate_with_derivative(g, CurvePoint(7)) is POLE
    assert evaluate_with_derivative(g, CurvePoint(3)) == (Fraction(0), Fraction(1, -4))


def test_evaluate_matches_sympy():
    """Value and derivative agree with symbolic differentiation everywhere."""
    rng = random.Random(43)
    for _ in range(40):
        f = random_function(rng)
        expr = to_sympy(f)
        points = [CurvePoint(Fraction(n, 2)) for n in range(-4, 5)]
        points.append(INFINITY)
        for p in rng.sample(points, 4):
            got = evaluate_with_derivative(f, p)
            want = sympy_value_and_derivative(expr, p)
            assert got == want or (got is POLE and want is POLE)


def test_order_bookkeeping():
    f = RationalFunction.of(Fraction(5), {Fraction(2): 3, Fraction(1): -1})
    assert f.order_at(CurvePoint(2)) == 3
    assert f.order_at(CurvePoint(1)) == -1
    assert f.order_at(CurvePoint(9)) == 0
    assert f.order_at(INFINITY) == -2
    assert f.order_at_infinity == -2


def test_sample_divisor_goldens():
    assert sample_divisor(0, 7).entries == ()
    avoid = {CurvePoint(0), INFINITY}
    taken = {(0, 1), (1, 0)}
    d = sample_divisor(3, 11, set(taken))
    assert d.degree == 3
    assert d.is_reduced
    assert len(d.support()) == 3
    assert not (d.support() & avoid)
    assert sample_divisor(3, 11, taken) == d
    assert taken == {(0, 1), (1, 0)} | {p._reduced for p in d.support()}
    # the points themselves, which fix the candidate stream (splitmix64 over
    # the 241 x 4 grid) apart from any replay digest
    assert [str(p) for p, _ in d.entries] == ["-28", "-14", "109/3"]
    assert [str(p) for p, _ in sample_divisor(5, 2024).entries] == [
        "-91", "-105/4", "-5/2", "7/3", "38"
    ]
    assert [str(p) for p, _ in sample_divisor(4, 7).entries] == ["11/2", "53/2", "28", "30"]
    # avoiding two of those four draws two more
    taken = {(11, 2), (28, 1), (-1, 2), (1, 0)}
    assert [str(p) for p, _ in sample_divisor(4, 7, taken).entries] == [
        "-111/2", "53/2", "30", "83/2"
    ]


def test_sample_divisor_determinism_and_spread():
    rng = random.Random(44)
    seen = set()
    for _ in range(25):
        seed = rng.randrange(2**32)
        degree = rng.randint(1, 5)
        avoid = {CurvePoint(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))}
        taken = {p._reduced for p in avoid}
        d = sample_divisor(degree, seed, set(taken))
        assert d == sample_divisor(degree, seed, set(taken))
        assert d.degree == degree and d.is_reduced
        assert not (d.support() & avoid)
        seen.add(d.entries)
    assert len(seen) > 15  # different seeds nearly always differ


def test_projective_line_facade():
    line = ProjectiveLine()
    d = line.sample_divisor(2, 3)
    assert d == sample_divisor(2, 3)
    f = principal_function(d + CDivisor.of([(INFINITY, -2)]))
    for p, _ in d.entries:
        assert evaluate_with_derivative(f, p)[0] == 0


def test_sample_divisor_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        sample_divisor(-1, 0)


def test_rational_function_rejects_zero_constant():
    with pytest.raises(ValueError):
        RationalFunction.of(0, {Fraction(1): 1})
