"""Property tests for fan validation and the pairing divisors.

The integer cone-separation test inside `fan.validate` is checked against
the margin-1 Fraction feasibility oracle on cone pairs drawn from a small
box, with shared rays, coplanar triples and repeated directions.  Random
star-subdivision chains in random lattice bases must stay smooth and
complete with the Euler counts and every wall relation.  On the same
chains, the ample divisor found must be ample with every wall degree
positive in the quotient-ring oracle, both degree vectors must be positive
kernel vectors of the ray matrix, and on chains of up to six rays the
built embedding's chart transitions must agree.  The one-pass pairing
divisor must equal the incremental sum it replaced.  `validate` must give
the same report, issues in the same order, as the pairwise separation scan
its sheet-count certificate stands in for, on small fans, chains and chains
with one mutation each; on the same three kinds of fan, valid or not, the
primitive collections read off the edges must equal the subset loops.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from oracles import (
    ChowOracle, cones_meet_in_face_lp, primitive_collections_by_subsets, transition_mismatches,
    validate_by_pair_scan,
)
from test_fan import wall_relation_holds
from toricurve.curve import CDivisor, CurvePoint
from toricurve.embed import build_embedding_data, chart_maps, pairing_divisor
from toricurve.fan import (
    Fan, MalformedFan, _cones_intersect_in_face, preset, primitive_collections, star_subdivision,
    validate, walls,
)
from toricurve.intersect import find_ample, is_ample, xi_vector

# derandomized, so the suite is a deterministic gate; widen max_examples
# locally to search harder
PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

box = st.tuples(*[st.integers(-2, 2)] * 3)


@st.composite
def ray_pools(draw):
    """Distinct vectors from the box plus multiples and sums of earlier ones."""
    rays = draw(st.lists(box, min_size=4, max_size=6, unique=True))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rays)), draw(st.sampled_from(rays))
        kind = draw(st.sampled_from(("multiple", "sum", "difference")))
        if kind == "multiple":  # a repeated direction
            k = draw(st.sampled_from((-2, -1, 2)))
            new = tuple(k * x for x in a)
        elif kind == "sum":  # coplanar with a and b
            new = tuple(x + y for x, y in zip(a, b))
        else:
            new = tuple(x - y for x, y in zip(a, b))
        if new not in rays:
            rays.append(new)
    return rays


@st.composite
def cone_pairs(draw):
    """A fan of two cones sharing 0, 1 or 2 rays."""
    rays = draw(ray_pools())
    n = len(rays)
    ca = draw(st.permutations(range(n)))[:3]
    shared = draw(st.integers(max(0, 6 - n), 2))
    others = [i for i in draw(st.permutations(range(n))) if i not in ca]
    cb = ca[:shared] + others[: 3 - shared]
    return Fan(tuple(rays), (tuple(ca), tuple(cb)))


@st.composite
def small_fans(draw):
    """Up to six cones on a ray pool: mostly invalid, some overlapping."""
    rays = draw(ray_pools())
    triples = [(i, j, k) for i in range(len(rays)) for j in range(i + 1, len(rays))
               for k in range(j + 1, len(rays))]
    cones = draw(st.lists(st.sampled_from(triples), min_size=2, max_size=6, unique=True))
    return Fan(tuple(rays), tuple(cones))


@PROPERTY
@given(cone_pairs())
def test_integer_separation_agrees_with_the_margin_one_oracle(fan):
    ca, cb = fan.max_cones
    assert _cones_intersect_in_face(fan, ca, cb) == cones_meet_in_face_lp(fan.rays, ca, cb)


@PROPERTY
@given(small_fans())
def test_bad_cone_pairs_match_the_oracle(fan):
    cones = fan.max_cones
    expected = [
        ("bad_cone_intersection", a, b)
        for a in range(len(cones))
        for b in range(a + 1, len(cones))
        if not cones_meet_in_face_lp(fan.rays, cones[a], cones[b])
    ]
    got = [i for i in validate(fan).issues if i[0] == "bad_cone_intersection"]
    assert got == expected


ELEMENTARY = st.tuples(
    st.sampled_from(((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))),
    st.sampled_from((-2, -1, 1, 2)),
)


def change_basis(fan, steps):
    """Apply x_i += k * x_j to every ray, one elementary step at a time."""
    rays = [list(r) for r in fan.rays]
    for (i, j), k in steps:
        for r in rays:
            r[i] += k * r[j]
    return Fan(tuple(tuple(r) for r in rays), fan.max_cones, fan.name)


@st.composite
def chains(draw, max_rays=10):
    fan = preset(draw(st.sampled_from(("p3", "p1p1p1", "bl-p3-point"))))
    fan = change_basis(fan, draw(st.lists(ELEMENTARY, max_size=4)))
    for _ in range(draw(st.integers(0, min(4, max_rays - fan.n_rays)))):
        fan = star_subdivision(fan, draw(st.sampled_from(fan.max_cones)))
    return fan


@PROPERTY
@given(chains())
def test_subdivision_chains_in_random_bases_stay_valid(fan):
    report = validate(fan)
    assert report.ok, report.issues
    r, e, c = report.counts
    assert r - e + c == 2
    assert c == 2 * r - 4
    assert all(wall_relation_holds(fan, w) for w in walls(fan))


@st.composite
def mutated_chains(draw):
    """A chain with one ray perturbed by +-1 or +-2 in one coordinate, negated,
    swapped with another or replaced by a sum of two rays; or with a cone
    dropped or an extra cone added."""
    fan = draw(chains())
    rays, cones, n = list(fan.rays), list(fan.max_cones), fan.n_rays
    r, s, t = draw(st.permutations(range(n)))[:3]
    kind = draw(st.sampled_from(("perturb", "negate", "swap", "sum", "drop", "extra")))
    if kind == "perturb":
        ray = list(rays[r])
        ray[draw(st.integers(0, 2))] += draw(st.sampled_from((-2, -1, 1, 2)))
        rays[r] = tuple(ray)
    elif kind == "negate":
        rays[r] = tuple(-x for x in rays[r])
    elif kind == "swap":
        rays[r], rays[s] = rays[s], rays[r]
    elif kind == "sum":
        rays[r] = tuple(x + y for x, y in zip(rays[s], rays[t]))
    elif kind == "drop":
        cones.pop(draw(st.integers(0, len(cones) - 1)))
    else:
        cones.append((r, s, t))
    try:
        return Fan(tuple(rays), tuple(cones))
    except MalformedFan:  # a duplicate ray or cone
        reject()


@PROPERTY
@given(st.one_of(small_fans(), chains()))
def test_validate_equals_the_pair_scan(fan):
    assert validate(fan) == validate_by_pair_scan(fan)


@settings(PROPERTY, max_examples=400)
@given(mutated_chains())
def test_validate_equals_the_pair_scan_on_mutated_chains(fan):
    assert validate(fan) == validate_by_pair_scan(fan)


@settings(PROPERTY, max_examples=300)
@given(st.one_of(small_fans(), chains(), mutated_chains()))
def test_primitive_collections_equal_the_subset_loops(fan):
    assert primitive_collections(fan) == primitive_collections_by_subsets(fan)


def unit(n, j):
    return [int(k == j) for k in range(n)]


@settings(PROPERTY, max_examples=25)
@given(chains())
def test_the_ample_divisor_found_is_positive_on_every_wall_curve(fan):
    ample = find_ample(fan)
    assert is_ample(fan, ample)
    oracle = ChowOracle(fan.rays, fan.max_cones)
    n = fan.n_rays
    for w in walls(fan):
        assert oracle.triple_product(ample.coeffs, unit(n, w.i), unit(n, w.j)) > 0


@PROPERTY
@given(chains())
def test_both_degree_vectors_are_positive_kernel_vectors(fan):
    for xi in (xi_vector(fan, find_ample(fan)), xi_vector(fan, None, method="kernel")):
        assert all(x > 0 for x in xi.values)
        assert all(sum(x * ray[c] for x, ray in zip(xi.values, fan.rays)) == 0 for c in range(3))


@settings(PROPERTY, max_examples=40)
@given(chains(max_rays=6), st.sampled_from(("intersection", "kernel")), st.integers(0, 2**16))
def test_embeddings_of_small_chains_glue_across_charts(fan, method, seed):
    ample = find_ample(fan)
    data = build_embedding_data(fan, ample, xi_vector(fan, ample, method), seed)
    assert transition_mismatches(data, chart_maps(data), 30, seed) == []


points = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
divisors = st.dictionaries(points, st.integers(-2, 3).filter(bool), max_size=4).map(
    lambda d: CDivisor.of({CurvePoint(p): m for p, m in d.items()})
)


@PROPERTY
@given(st.lists(divisors, min_size=1, max_size=6).flatmap(
    lambda ds: st.tuples(st.just(ds), st.lists(st.integers(-3, 3), min_size=len(ds),
                                               max_size=len(ds)))))
def test_pairing_divisor_equals_the_incremental_sum(case):
    ds, coeffs = case
    combo = CDivisor(())
    for k, d in zip(coeffs, ds):
        if k:
            combo = combo + d.scale(k)
    assert pairing_divisor(ds, coeffs) == combo
