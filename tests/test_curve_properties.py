"""The curve layer's int-pair paths against the point-by-point references.

The sampler runs splitmix64 inline, dedups candidates on reduced (num, den)
int pairs, sorts the kept pairs by value and builds a CurvePoint only for a
point it keeps, leaving the reference's set of taken points; principal
functions and the order-preserving operations (negation, scaling, inverse,
powers, divisors) build their result without sorting it again;
check_theorem_conditions compares each eps_i's factors with the finite
entries of its pairing combination, and its order at infinity with the
combination's multiplicity there, as canonical tuples.  Each must give
what the references in oracles.py give: equal objects with their entries in
the same order, and the same failure tuples in the same order.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    conditions_by_divisors,
    pairing_divisor_by_points,
    principal_function_by_rebuild,
    sample_divisor_by_points,
)
from toricurve.curve import (
    INFINITY,
    CDivisor,
    CurvePoint,
    NotDegreeZero,
    RationalFunction,
    pairing_divisor,
    principal_function,
    sample_divisor,
)
from toricurve.embed import (
    build_embedding_data,
    check_theorem_conditions,
    pairing_matrix,
)
from toricurve.fan import preset, primitive_collections
from toricurve.intersect import find_ample, xi_vector

F = Fraction

# derandomized, so the suite is a deterministic gate; widen max_examples
# locally to search harder
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# the sampler's own grid, so avoided points really are candidates, and wide
# rationals, which never are
grid = st.builds(F, st.integers(-120, 120), st.integers(1, 4))
wide = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))
# a point to avoid as the sampler takes it: a reduced (num, den), infinity (1, 0)
avoided = st.one_of(grid, wide).map(lambda x: (x.numerator, x.denominator)) | st.just((1, 0))


def point(pair) -> CurvePoint:
    return INFINITY if pair == (1, 0) else CurvePoint(F(*pair))


def same_divisor(new, ref):
    assert type(new.entries) is tuple
    assert new.entries == ref.entries
    assert hash(new) == hash(ref)
    for p, _ in new.entries:
        assert p.is_infinity or type(p.finite) is Fraction
        twin = CurvePoint(p.finite)
        assert p == twin and hash(p) == hash(twin) and p.sort_key() == twin.sort_key()


def same_function(new, ref):
    assert type(new.constant) is Fraction and type(new.factors) is tuple
    assert (new.constant, new.factors) == (ref.constant, ref.factors)
    assert all(type(r) is Fraction for r, _ in new.factors)
    assert hash(new) == hash(ref)


def pairs(points) -> set:
    return {p._reduced for p in points}


@PROPERTY
@given(st.integers(0, 600), st.integers(-2**70, 2**70), st.lists(avoided, max_size=12))
@example(600, 0, [])
@example(600, 5, [(1, 0), (0, 1), (1, 2), (-120, 1), (-119, 4)])
@example(0, 3, [(1, 0), (1, 7), (10**30, 3)])
@example(40, 9, [(1, 0), (1, 7), (10**30, 3), (-10**30, 3), (7, 2)])
@example(639, 1, [(1, 0), (1, 7), (10**30, 3), (0, 1), (1, 4)])
def test_the_sampler_matches_the_reference(degree, seed, avoid):
    # 12 avoided points and 600 draws stay inside the 641-point pool; so do
    # the two grid points avoided beside 639 draws
    taken, ref_taken = set(avoid), {point(p) for p in avoid}
    new = sample_divisor(degree, seed, taken)
    same_divisor(new, sample_divisor_by_points(degree, seed, ref_taken))
    assert new.degree == degree and new.is_reduced
    assert taken == pairs(ref_taken) == set(avoid) | pairs(new.support())


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -5])
def test_641_draws_exhaust_the_grid_in_value_order(seed):
    """The candidates reduce to 641 distinct points, every one of which a
    long enough stream reaches; a draw of all of them lists them by value."""
    grid_points = sorted({F(n, d) for n in range(-120, 121) for d in range(1, 5)})
    assert len(grid_points) == 641
    new = sample_divisor(641, seed)
    assert [p.finite for p, _ in new.entries] == grid_points
    same_divisor(new, sample_divisor_by_points(641, seed))


@PROPERTY
@given(st.lists(st.integers(1, 70), min_size=1, max_size=8), st.integers(0, 2**64))
def test_a_chain_of_draws_avoiding_each_other_matches_the_reference(degrees, seed):
    """Each divisor avoids the points before it, through one growing set of
    reduced pairs as build_embedding_data shares it, and the reference's
    through a set of points; a copy of the pairs draws the same divisor."""
    taken, ref_taken, drawn = set(), set(), set()
    for rho, degree in enumerate(degrees):
        again = set(taken)
        new = sample_divisor(degree, seed + rho, taken)
        same_divisor(new, sample_divisor_by_points(degree, seed + rho, ref_taken))
        same_divisor(sample_divisor(degree, seed + rho, again), new)
        drawn |= new.support()
        assert taken == again == pairs(ref_taken) == pairs(drawn)


@st.composite
def divisors(draw, values=st.one_of(grid, wide), with_infinity=True):
    """A divisor of distinct points with nonzero multiplicities."""
    points = [CurvePoint(v) for v in draw(st.lists(values, max_size=6, unique=True))]
    if with_infinity and draw(st.booleans()):
        points.append(INFINITY)
    return CDivisor(tuple((p, draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))) for p in points))


@st.composite
def degree_zero_divisors(draw):
    d = draw(divisors(with_infinity=False))
    if d.degree and draw(st.booleans()):  # balance at infinity, or leave it
        d = d + CDivisor(((INFINITY, -d.degree),))
    return d


@PROPERTY
@given(degree_zero_divisors())
def test_principal_function_matches_the_reference(d):
    if d.degree:
        for build in (principal_function, principal_function_by_rebuild):
            with pytest.raises(NotDegreeZero):
                build(d)
        return
    f = principal_function(d)
    same_function(f, principal_function_by_rebuild(d))
    assert f == RationalFunction(f.constant, f.factors)


@PROPERTY
@given(st.lists(divisors(values=st.builds(F, st.integers(-4, 4), st.integers(1, 2))),
                min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_pairing_divisor_matches_the_reference(ds, coeffs):
    """Divisors over a small pool, so entries merge and cancel across rays."""
    same_divisor(pairing_divisor(ds, coeffs), pairing_divisor_by_points(ds, coeffs))


@PROPERTY
@given(divisors(), st.integers(-3, 3), st.one_of(wide, st.just(F(0))), st.integers(-3, 3))
def test_order_preserving_operations_match_the_canonicalising_constructors(d, k, c, n):
    same_divisor(-d, CDivisor(tuple((p, -m) for p, m in reversed(d.entries))))
    same_divisor(d.scale(k), CDivisor.of([(p, k * m) for p, m in reversed(d.entries)]))
    finite = tuple((p.finite, m) for p, m in d.entries if not p.is_infinity)
    f = RationalFunction(F(7, 3), finite)
    same_function(f.inverse(), RationalFunction(F(3, 7), tuple((r, -e) for r, e in finite[::-1])))
    same_function(f ** n, RationalFunction.of(F(7, 3) ** n, [(r, n * e) for r, e in finite]))
    entries = [(CurvePoint(r), e) for r, e in finite] + [(INFINITY, f.order_at_infinity)]
    same_divisor(f.divisor(), CDivisor.of(entries[::-1]))
    if c:
        same_function(f.scale(c), RationalFunction(F(7, 3) * c, finite[::-1]))
    else:
        with pytest.raises(ValueError, match="zero function"):
            f.scale(c)


def _pipeline(name, seed):
    fan = preset(name)
    ample = find_ample(fan)
    return build_embedding_data(fan, ample, xi_vector(fan, ample), seed)


def _with_divisor(data, rho, extra):
    divisors = list(data.divisors)
    divisors[rho] = divisors[rho] + CDivisor(extra)
    return data._replace(divisors=tuple(divisors))


def _tampered(name, seed):
    """(kind, data) pairs: untouched data, and data set to fail each way."""
    data = _pipeline(name, seed)
    coll = primitive_collections(data.fan)[0]
    a = pairing_matrix(data.fan)
    z = CurvePoint(F(1, 1000 + seed))  # no sampled point: the grid's denominators are 1-4
    shared = data
    for rho in coll:
        shared = _with_divisor(shared, rho, ((z, 1),))
    i, rho = next((i, rho) for i in range(3) for rho in range(data.fan.n_rays) if a[i][rho])
    bent = list(data.epsilon)
    bent[i] = bent[i] * RationalFunction(F(2), ((z.finite, 1), (F(-1, 999), -1)))
    return [
        ("passes", data),
        ("scaled", data._replace(epsilon=tuple(f.scale(F(-5, 2)) for f in data.epsilon))),
        ("shared", shared),  # a primitive collection meets, and the pairings move
        ("bent", data._replace(epsilon=tuple(bent))),  # div eps_i is off at two points
        ("infinity", _with_divisor(data, rho, ((INFINITY, 1),))),  # off at infinity only
        ("swapped", data._replace(epsilon=data.epsilon[1::-1] + data.epsilon[2:])),
        ("doubled", _with_divisor(data, rho, tuple((p, 1) for p, _ in data.divisors[rho].entries))),
    ], (z, i, rho, coll, a)


@pytest.mark.parametrize("name", ["p3", "p1p1p1", "bl-p3-point"])
@pytest.mark.parametrize("seed", [0, 3])
def test_conditions_reports_match_the_reference_on_tampered_data(name, seed):
    cases, (z, i, rho, coll, a) = _tampered(name, seed)
    reports = {}
    for kind, data in cases:
        report = check_theorem_conditions(data)
        assert report == conditions_by_divisors(data), kind
        reports[kind] = report
    assert reports["passes"].passed and reports["scaled"].passed
    assert reports["shared"].disjointness_failures[0] == (coll, (z,))
    assert [j for j, _ in reports["bent"].divisor_failures] == [i]
    assert reports["infinity"].divisor_failures == tuple(
        (j, ((INFINITY, -a[j][rho]),)) for j in range(3) if a[j][rho]
    )
    assert not reports["infinity"].disjointness_failures
    assert [j for j, _ in reports["swapped"].divisor_failures] == [0, 1]
    assert not reports["doubled"].passed
