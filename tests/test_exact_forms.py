"""The fast exact forms against their straightforward references in oracles.py.

Divisors and factored functions canonicalise in one sort by an int-led key
and merge exponents in one dict keyed by (num, den); character functions
are built in one merge; N and D, and the immersion numerator N' D - N D',
are multiplied as dense int lists; the inverse of a unimodular 3 x 3 matrix
takes its rows from cross products of its columns.  Each must give exactly what the plain
construction gives: the same tuples, the same equality and hash, the same
errors.  Rationals reach denominators of 10^6, and a small pool makes
points repeat, merge and cancel; equal values arrive as int, str and
Fraction.

The witness re-checks run in ints too: factored functions are evaluated
with their derivatives by homogeneous products, a rational point enters a
polynomial over Z scaled by its denominator's power, and the congruence
re-check is an exact division over Z, all on int lists and rows.  Each
must agree with the Fraction evaluator and the substitutions over Q it
replaced.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import ring

from oracles import (
    DivisorReference,
    FunctionReference,
    congruence_collision_qq,
    epsilon_by_powers,
    evaluate_by_fractions,
    integer_parts_by_ring_products,
    matmul,
    unimodular_inverse_by_minors,
)
from toricurve import poly, verify
from toricurve.curve import (
    INFINITY,
    POLE,
    CDivisor,
    CurvePoint,
    RationalFunction,
    evaluate,
    evaluate_with_derivative,
)
from toricurve.embed import epsilon_function
from toricurve.intlinalg import NotUnimodular, det, unimodular_inverse

F = Fraction
_ZSU = ring("s,u", ZZ)[0]
_ZS, _ZU, _ZT = (ring(x, ZZ)[1] for x in "sut")

# derandomized, so the suite is a deterministic gate; widen max_examples
# locally to search harder
PROPERTY = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
wide = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))
rationals = st.one_of(small, wide)


@st.composite
def spelled(draw, value):
    """value as a Fraction, a str, or an int when it is one."""
    forms = [value, str(value)] + ([int(value)] if value.denominator == 1 else [])
    return draw(st.sampled_from(forms))


@st.composite
def pools(draw, with_infinity):
    """A few distinct values, None standing for infinity."""
    values = draw(st.lists(rationals, min_size=1, max_size=5, unique=True))
    if with_infinity and draw(st.booleans()):
        values.append(None)
    return values


@st.composite
def merge_items(draw, with_infinity, as_points):
    """(key, n) items over a small pool: keys repeat, merge and may cancel."""
    pool = draw(pools(with_infinity))
    items = []
    for _ in range(draw(st.integers(0, 8))):
        value, n = draw(st.sampled_from(pool)), draw(st.integers(-3, 3))
        if value is None:
            key = INFINITY
        elif as_points and draw(st.booleans()):
            key = CurvePoint(value)
        else:
            key = draw(spelled(value))
        items.append((key, n))
        if draw(st.integers(0, 3)) == 0:
            items.append((key, -n))  # cancels to zero
    return items


@st.composite
def direct_entries(draw, with_infinity):
    """Constructor input that may repeat a value or carry a zero."""
    pool = draw(pools(with_infinity))
    return [
        (draw(st.sampled_from(pool)), draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(0, 6)))
    ]


@st.composite
def functions(draw, roots=rationals):
    factors = draw(st.dictionaries(roots, st.sampled_from((-3, -2, -1, 1, 2, 3)), max_size=6))
    constant = draw(rationals.filter(bool))
    return RationalFunction.of(constant, factors)


@st.composite
def families(draw, count):
    """count functions whose roots come from one small pool, so they share roots."""
    pool = draw(st.lists(rationals, min_size=1, max_size=6, unique=True))
    return tuple(draw(functions(st.sampled_from(pool))) for _ in range(count))


def outcome(build, *args):
    """What build(*args) gives, or the message of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def same_function(new, ref):
    if isinstance(ref, str):
        assert new == ref
        return
    assert (new.constant, new.factors) == (ref.constant, ref.factors)
    assert all(type(r) is Fraction for r, _ in new.factors)
    assert type(new.constant) is Fraction
    assert hash(new) == hash(ref)
    assert new == RationalFunction(ref.constant, ref.factors)


@PROPERTY
@given(rationals, small)
def test_equal_points_from_int_str_and_fraction_are_one_point(value, other):
    forms = [value, str(value)] + ([int(value)] if value.denominator == 1 else [])
    points = [CurvePoint(x) for x in forms] + [CurvePoint(value)]
    assert all(p == points[0] and hash(p) == hash(points[0]) for p in points)
    assert len({*points, INFINITY}) == 2
    assert all(type(p.finite) is Fraction for p in points)
    assert (CurvePoint(other) == points[0]) == (other == value)


@PROPERTY
@given(merge_items(with_infinity=True, as_points=True))
def test_divisor_merges_match_the_reference(items):
    new, ref = CDivisor.of(items), DivisorReference.of(items)
    assert new.entries == ref.entries
    assert hash(new) == hash(ref)
    assert new == CDivisor(ref.entries) == CDivisor(tuple(reversed(ref.entries)))
    assert new + (-new) == CDivisor(())


@PROPERTY
@given(direct_entries(with_infinity=True))
def test_divisor_constructor_matches_the_reference(values):
    entries = tuple((CurvePoint(v), m) for v, m in values)
    new, ref = outcome(CDivisor, entries), outcome(DivisorReference, entries)
    if isinstance(ref, str):
        assert new == ref
    else:
        assert new.entries == ref.entries and hash(new) == hash(ref)


@PROPERTY
@given(st.one_of(rationals, st.just(F(0))).flatmap(spelled),
       merge_items(with_infinity=False, as_points=False))
def test_function_merges_match_the_reference(constant, items):
    same_function(outcome(RationalFunction.of, constant, items),
                  outcome(FunctionReference.of, constant, items))


@PROPERTY
@given(st.one_of(rationals, st.just(F(0))), direct_entries(with_infinity=False),
       st.booleans())
def test_function_constructor_matches_the_reference(constant, values, as_ints):
    factors = tuple(
        (int(r) if as_ints and r.denominator == 1 else r, e) for r, e in values
    )
    same_function(outcome(RationalFunction, constant, factors),
                  outcome(FunctionReference, constant, factors))


@PROPERTY
@given(families(2), st.integers(-3, 3))
def test_products_powers_and_divisors_match_the_reference(pair, k):
    f, g = pair
    rf, rg = (FunctionReference(h.constant, h.factors) for h in (f, g))
    same_function(f * g, rf * rg)
    same_function(f ** k, rf ** k)
    same_function(f.inverse(), rf.inverse())
    assert f.divisor().entries == rf.divisor().entries


@PROPERTY
@given(families(3), st.tuples(*[st.integers(-3, 3)] * 3))
def test_epsilon_function_is_the_product_of_powers(epsilon, m):
    new = epsilon_function(SimpleNamespace(epsilon=epsilon), m)
    same_function(new, epsilon_by_powers(epsilon, m))


@PROPERTY
@given(functions())
def test_integer_parts_are_the_ring_products_in_both_rings(f):
    for x in (_ZU, _ZT):
        want = integer_parts_by_ring_products(f, x)
        assert f.integer_parts == tuple(tuple(p.to_dense()) for p in want)


@PROPERTY
@given(functions())
def test_derivative_numerator_from_the_int_lists_is_the_ring_one(f):
    """The Bezoutian's diagonal Q(t, t), which chart_immersive reads, is N' D - N D'."""
    t = _ZT
    N, D = integer_parts_by_ring_products(f, t)
    w = t.ring.from_dense(poly._diagonal(poly._bezoutian(*f.integer_parts, {})))
    assert w == N.diff(t) * D - N * D.diff(t)


@st.composite
def evaluation_cases(draw):
    """A factored function and a point: one of its roots spelled another
    way (a pole, or a zero of order 1 to 3), the point at infinity with the
    function's order there set to -1, 0, 1 or 2, or any rational."""
    f = draw(functions())
    kind = draw(st.sampled_from(("root", "infinity", "free")))
    if kind == "infinity":
        order = draw(st.sampled_from((-1, 0, 1, 2)))
        e = -order - sum(e for _, e in f.factors)
        if e:
            fresh = draw(rationals.filter(lambda r: f.order_at(CurvePoint(r)) == 0))
            f = f * RationalFunction.of(1, {fresh: e})
        assert f.order_at_infinity == order
        return f, INFINITY
    if kind == "root" and f.factors:
        root = draw(st.sampled_from(f.factors))[0]
        return f, CurvePoint(draw(spelled(root)))
    return f, CurvePoint(draw(rationals))


@PROPERTY
@given(evaluation_cases())
def test_integer_evaluation_matches_the_fraction_reference(case):
    f, p = case
    want = evaluate_by_fractions(f, p)
    got = evaluate_with_derivative(f, p)
    if want is POLE:
        assert got is POLE
        assert evaluate(f, p) is None
    else:
        assert got == want
        assert all(type(x) is Fraction for x in got)
        value = evaluate(f, p)
        assert value == want[0] and type(value) is Fraction


_QSU = ring("s,u", QQ)[0]


@st.composite
def bivariate(draw):
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                 st.integers(-50, 50).filter(bool), min_size=1, max_size=8))
    return _ZSU.from_dict(terms)


@PROPERTY
@given(bivariate(), rationals, st.sampled_from((0, 1)))
def test_specialisation_is_the_substitution_over_q_times_a_denominator_power(p, x, var):
    target = (_ZU, _ZS)[var].ring  # the ring of the other variable
    got = poly._at(poly._ints(p), var, x)
    want = p.set_ring(_QSU).subs(_QSU.gens[var], QQ(x.numerator, x.denominator))
    assert all(type(c) is int for c in got) and got[:1] != [0]  # an int list, trimmed
    assert target.from_dense(got).as_expr() == (want * x.denominator ** p.degree(var)).as_expr()


@st.composite
def congruence_cases(draw):
    """Coordinates as (N, D) int tuples, a point s0 and a primitive mu in
    Z[u]: half the time an irreducible factor of N(u) D(s0) - N(s0) D(u) for
    the first coordinate, so that coordinate's congruence holds, else random.
    Roots and s0 with denominators make mu non-monic."""
    fs = draw(st.lists(functions(small), min_size=1, max_size=3))
    NDs = [f.integer_parts for f in fs]
    s0 = draw(small)
    x = QQ(s0.numerator, s0.denominator)
    Qu = ring("u", QQ)[0]
    N, D = (Qu.from_dense(p) for p in NDs[0])
    h = (N * D(x) - N(x) * D).clear_denoms()[1].set_ring(_ZU.ring)
    factors = [] if h.is_ground else [mu for mu, _ in h.factor_list()[1]]
    if factors and draw(st.booleans()):
        return NDs, s0, draw(st.sampled_from(factors)), True
    lead = draw(st.integers(-6, 6).filter(bool))
    mu = _ZU.ring.from_dense([lead] + draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3)))
    return NDs, s0, mu.primitive()[1], False


@PROPERTY
@given(congruence_cases())
def test_congruence_over_z_matches_the_congruence_over_q(case):
    NDs, s0, mu, planted = case
    in_zu = [tuple(map(_ZU.ring.from_dense, nd)) for nd in NDs]
    mu_ints = [int(c) for c in mu.to_dense()]
    assert verify._congruence_collision(NDs, s0, mu_ints) == congruence_collision_qq(
        in_zu, s0, mu.set_ring(_QSU)
    )
    if planted:
        assert verify._congruence_collision(NDs[:1], s0, mu_ints)


@st.composite
def recheck_cases(draw):
    """One to three factored functions and points c, s0 and u0.

    Each function is random or invariant under t -> 2c - t, times (t - c)^k
    for k in -1..3, so at c it has a pole, a simple or a multiple zero, or,
    when invariant, a zero derivative with a nonzero value.  s0 is c plus a
    small step, a root of one of the functions, or any rational; u0 is
    2c - s0 half the time, where an invariant function takes s0's value.
    Poles below t give the int denominators their sign changes."""
    c = draw(small)

    def invariant():
        factors = {}
        for d, e in draw(st.dictionaries(small.filter(bool), st.sampled_from((-2, -1, 1, 2)),
                                         max_size=3)).items():
            factors[c + d] = factors[c - d] = e
        return RationalFunction.of(draw(small.filter(bool)), factors)

    fs = []
    for _ in range(draw(st.integers(1, 3))):
        f = invariant() if draw(st.booleans()) else draw(functions(small))
        k = draw(st.sampled_from((0, 0, -1, 1, 2, 3)))
        fs.append(f * RationalFunction.of(1, {c: k}) if k else f)
    kind = draw(st.sampled_from(("step", "root", "free")))
    roots = [r for f in fs for r, _ in f.factors]
    if kind == "root" and roots:
        s0 = draw(st.sampled_from(roots))
    else:
        s0 = c + draw(small) if kind == "step" else draw(rationals)
    u0 = 2 * c - s0 if draw(st.booleans()) else draw(small)
    return fs, c, s0, u0


def _fraction_values(fs, point):
    return [evaluate_by_fractions(f, point) for f in fs]


@PROPERTY
@given(recheck_cases())
@example(([RationalFunction.of(2, {1: 1, -1: 1}), RationalFunction.of(1, {F(1, 2): -1})],
          F(0), F(1, 3), F(-1, 3)))
def test_the_collision_recheck_matches_the_fraction_reference(case):
    """Equal finite values at s0 and u0 for every function, compared as
    unreduced int pairs, exactly when the Fraction values are equal."""
    fs, _, s0, u0 = case
    vs, vu = _fraction_values(fs, CurvePoint(s0)), _fraction_values(fs, CurvePoint(u0))
    want = all(a is not POLE and b is not POLE and a[0] == b[0] for a, b in zip(vs, vu))
    assert verify._collision_holds(fs, s0, u0) == want


@PROPERTY
@given(recheck_cases())
# t (t - 1)(t + 1) at 0: a simple zero where the other factors' log-derivative vanishes
@example(([RationalFunction.of(1, {0: 1, 1: 1, -1: 1})], F(0), F(0), F(0)))
@example(([RationalFunction.of(F(-3, 2), {F(1, 2): 2, F(5, 2): -1})], F(1, 2), F(3), F(-2)))
def test_the_tangent_recheck_matches_the_fraction_reference(case):
    """Regular with a zero derivative at every function, from the order of
    the zero and the log-derivative's numerator, exactly when the Fraction
    derivatives all vanish; at c, s0 and the point at infinity."""
    fs, c, s0, _ = case
    for t0, point in ((c, CurvePoint(c)), (s0, CurvePoint(s0)), (INFINITY, INFINITY)):
        want = all(v is not POLE and v[1] == 0 for v in _fraction_values(fs, point))
        assert verify._tangent_at(fs, t0) == want, t0


@st.composite
def square_matrices(draw):
    """A unimodular matrix from elementary row operations, or one that is not."""
    n = draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            k = draw(st.integers(-4, 4))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    if draw(st.booleans()) and draw(st.booleans()):  # det 0 or +-k for k >= 2
        i, k = draw(st.integers(0, n - 1)), draw(st.sampled_from((0, 2, -3)))
        rows[i] = [k * x for x in rows[i]]
    return rows


@PROPERTY
@given(square_matrices())
def test_unimodular_inverse_matches_the_minor_by_minor_adjugate(B):
    got = outcome(unimodular_inverse, B)
    if len(B) != 3:  # the package works in rank 3 only
        assert got == f"ValueError: matrix is {len(B)} x {len(B)}, not 3 x 3"
        return
    want = outcome(unimodular_inverse_by_minors, B)
    assert got == want
    if isinstance(got, tuple):
        eye = [[int(i == j) for j in range(len(B))] for i in range(len(B))]
        assert matmul(got, B) == eye == matmul(B, got)
    else:
        assert got.startswith("ValueError: determinant is")


def test_unimodular_inverse_matches_the_minors_on_3x3_draws():
    """Unimodular draws, det 0 and det +-k, each well represented."""
    rng, seen = random.Random(23), {"unimodular": 0, "det 0": 0, "det +-k": 0}
    for _ in range(600):
        rows = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(rng.randint(0, 10)):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-5, 5)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        i, j, k = rng.sample(range(3), 3)
        kind = rng.randrange(4)
        if kind == 0:  # det 0: row i in the span of the other two
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        elif kind == 1:  # mostly det +-k for k >= 2
            rows[i] = [rng.randint(-6, 6) for _ in range(3)]
        got, want = outcome(unimodular_inverse, rows), outcome(unimodular_inverse_by_minors, rows)
        assert got == want, rows
        d = det(rows)
        seen["unimodular" if abs(d) == 1 else "det 0" if d == 0 else "det +-k"] += 1
        if abs(d) == 1:
            eye = [[int(i == j) for j in range(3)] for i in range(3)]
            assert matmul(got, rows) == eye == matmul(rows, got)
    assert min(seen.values()) >= 30, seen


def test_unimodular_inverse_rejects_a_matrix_that_is_not_square():
    with pytest.raises(NotUnimodular, match="not square"):
        unimodular_inverse([[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("build, message", [
    (lambda: CDivisor(((CurvePoint(1), 1), (CurvePoint("2/2"), 2))),
     "divisor points must be distinct"),
    (lambda: CDivisor(((INFINITY, 1), (CurvePoint(None), -1))), "divisor points must be distinct"),
    (lambda: CDivisor(((CurvePoint(1), 0),)), "zero multiplicities are not stored"),
    (lambda: RationalFunction(F(1), ((F(1, 2), 1), (F(2, 4), -1))), "factor roots must be distinct"),
    (lambda: RationalFunction(F(1), ((1, 1), (F(1), 1))), "factor roots must be distinct"),
    (lambda: RationalFunction(F(1), ((F(3), 0),)), "zero exponents are not stored"),
    (lambda: RationalFunction(0, ()), "the zero function is not representable"),
    (lambda: RationalFunction.of("0/5", {F(1): 1}), "the zero function is not representable"),
    (lambda: RationalFunction(F(1), ((F(3), 1),)).scale(0), "the zero function is not representable"),
])
def test_every_constructor_check_still_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()
