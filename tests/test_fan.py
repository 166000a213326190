"""Fan validation, walls, subdivisions and serialization."""

import random

import pytest

from conftest import FIXTURES, in_basis, ladder_fan
from oracles import primitive_collections_by_subsets, triple_intersection, validate_by_pair_scan
from toricurve import fan as fan_module
from toricurve.fan import (
    FAN_CACHE_SIZE,
    ConeNotInFan,
    Fan,
    MalformedFan,
    NotComplete,
    UnknownPreset,
    _pair_census,
    dual_basis,
    dumps_fan,
    fan_from_dict,
    load_fan,
    loads_fan,
    preset,
    primitive_collections,
    star_subdivision,
    validate,
    walls,
)
from toricurve.intlinalg import NotUnimodular, cross, dot


def wall_relation_holds(fan, wall):
    ni, nj = fan.rays[wall.i], fan.rays[wall.j]
    nk, nl = fan.rays[wall.third_a], fan.rays[wall.third_b]
    return all(
        nk[t] + nl[t] + wall.a * ni[t] + wall.b * nj[t] == 0 for t in range(3)
    )


def random_subdivision_chain(fan, rng, max_rays):
    while fan.n_rays < max_rays:
        fan = star_subdivision(fan, rng.choice(fan.max_cones))
    return fan


def test_preset_p3(p3):
    assert p3.rays == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    report = validate(p3)
    assert report.ok
    assert report.counts == (4, 6, 4)
    assert report.issues == ()


def test_preset_p1p1p1(p1p1p1):
    assert p1p1p1.rays == (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    )
    report = validate(p1p1p1)
    assert report.ok
    assert report.counts == (6, 12, 8)


def test_preset_bl_p3_point(blp3):
    assert blp3.rays[4] == (1, 1, 1)
    report = validate(blp3)
    assert report.ok
    assert report.counts == (5, 9, 6)


def test_preset_unknown():
    with pytest.raises(UnknownPreset):
        preset("p2")


def test_validate_non_primitive_ray(p3):
    rays = ((2, 0, 0),) + p3.rays[1:]
    fan = Fan(rays, p3.max_cones)
    report = validate(fan)
    assert not report.smooth
    assert ("non_primitive_ray", 0) in report.issues


def test_validate_non_unimodular_cone():
    rays = ((1, 0, 0), (1, 2, 0), (0, 0, 1))
    fan = Fan(rays, ((0, 1, 2),))
    report = validate(fan)
    assert not report.smooth
    assert ("cone_not_unimodular", 0) in report.issues


def test_validate_deleted_cone_leaves_three_open_walls(p3):
    fan = Fan(p3.rays, p3.max_cones[:-1])
    report = validate(fan)
    assert report.smooth
    assert not report.complete
    open_walls = [i for i in report.issues if i[0] == "open_wall"]
    assert len(open_walls) == 3
    assert all(i[2] == 1 for i in open_walls)
    with pytest.raises(NotComplete):
        walls(fan)


def test_validate_overlapping_cones():
    # two maximal cones overlapping in a full-dimensional region
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    fan = Fan(rays, ((0, 1, 2), (0, 1, 3)))
    report = validate(fan)
    assert not report.complete
    assert any(i[0] == "bad_cone_intersection" for i in report.issues)


def test_walls_refuses_cones_on_the_same_side():
    # (1,1,1) has coordinate +1, not -1, along e3 in the basis (e1, e2, e3)
    fan = Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), ((0, 1, 2), (0, 1, 3)))
    with pytest.raises(MalformedFan, match=r"cones at wall \(0, 1\) do not lie on opposite sides"):
        walls(fan)


def test_validate_reports_a_ray_in_no_cone(p3):
    # every wall still has two cones, so only the ray census catches it
    fan = Fan(p3.rays + ((1, 1, 1),), p3.max_cones)
    report = validate(fan)
    assert report.smooth and not report.complete
    assert report.issues == (("unused_ray", 4),)
    with pytest.raises(NotComplete):
        triple_intersection(fan, 4, 4, 4)


def test_validate_empty_fan():
    report = validate(Fan(((1, 0, 0),), ()))
    assert not report.complete
    assert ("no_cones",) in report.issues


def test_validate_rejects_the_double_cover_by_its_sheet_count_alone(double_cover):
    # (a)-(c) hold: every wall has two cones, on opposite sides (walls checks that)
    assert all(len(owners) == 2 for owners in _pair_census(double_cover).values())
    assert len(walls(double_cover)) == 21
    report = validate(double_cover)
    assert (report.smooth, report.complete, report.counts) == (True, False, (9, 21, 14))
    assert len(report.issues) == 28
    assert {i[0] for i in report.issues} == {"bad_cone_intersection"}
    assert report.issues[0] == ("bad_cone_intersection", 0, 6)


@pytest.fixture
def no_pair_scan(monkeypatch):
    """find_point calls from fan.py, the pair scan's only route to an answer."""
    calls = []
    real_find_point = fan_module.find_point

    def find_point(constraints, n_vars):
        calls.append(n_vars)
        return real_find_point(constraints, n_vars)

    monkeypatch.setattr(fan_module, "find_point", find_point)
    return calls


def test_validate_accepts_a_fan_whose_first_probe_is_a_ray(probe_on_wall, no_pair_scan):
    # (1, 3, 7), the first of the fixed probes validate once tried, is ray 0 and so
    # on three wall planes; the sheet count still decides, with no pair scan
    rays = probe_on_wall.rays
    normals = [cross(rays[i], rays[j]) for i, j in _pair_census(probe_on_wall)]
    ray = rays[0]
    assert ray == (1, 3, 7) and sum(dot(normal, ray) == 0 for normal in normals) == 3
    report = validate(Fan(probe_on_wall.rays, probe_on_wall.max_cones, "probe on wall"))
    assert report.ok and report.issues == ()
    assert no_pair_scan == []


@pytest.fixture
def double_cover_probe_on_edge(double_cover):
    """The double cover in a basis that sends N + r_0, on an edge of one sheet
    and inside a cone of the other, to (1, 3, 7), the first of the fixed
    probes validate once tried: were that probe taken, its open count would
    be 1."""
    return in_basis(double_cover, ((1, 3, 6), (0, 1, 0), (0, 0, 1)))


@pytest.mark.parametrize("name", ["p3", "p1p1p1", "blp3", "nonprojective", "double_cover",
                                  "double_cover_probe_on_edge", "probe_on_wall"])
def test_validate_equals_the_pair_scan_on_the_named_fans(request, name):
    fan = request.getfixturevalue(name)
    assert validate(fan) == validate_by_pair_scan(fan)


def test_valid_fans_never_reach_the_pair_scan(no_pair_scan):
    """The sheet count decides every valid fan, with no pair scan: presets,
    ladders and fans in lattice bases with large entries, none of them in
    validate's cache."""
    shears = (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
              ((1, 0, 0), (1000, 1, 0), (-999, 12345, 1)),
              ((1, 10**12, 0), (0, 1, 0), (3**40, -(7**25), 1)))
    bases = [preset(name) for name in ("p3", "p1p1p1", "bl-p3-point")]
    bases += [ladder_fan(rays) for rays in range(5, 13)]
    for base in bases:
        for columns in shears:
            fan = in_basis(base, columns)
            assert validate(Fan(fan.rays, fan.max_cones, "sheet count")).ok
    assert no_pair_scan == []


def test_wall_goldens_p1p1p1(p1p1p1):
    by_pair = {(w.i, w.j): w for w in walls(p1p1p1)}
    w = by_pair[(0, 2)]  # <e1, e2> between <e1,e2,e3> and <e1,e2,-e3>
    assert (w.a, w.b) == (0, 0)
    assert {w.third_a, w.third_b} == {4, 5}
    assert {w.cone_a, w.cone_b} == {(0, 2, 4), (0, 2, 5)}


def test_wall_goldens_p3(p3):
    by_pair = {(w.i, w.j): w for w in walls(p3)}
    assert (by_pair[(0, 1)].a, by_pair[(0, 1)].b) == (1, 1)
    assert len(by_pair) == 6
    assert all((w.a, w.b) == (1, 1) for w in by_pair.values())


def test_wall_goldens_blowup(blp3):
    by_pair = {(w.i, w.j): w for w in walls(blp3)}
    w = by_pair[(0, 4)]  # <e1, (1,1,1)>, third rays e2 and e3
    assert {w.third_a, w.third_b} == {1, 2}
    assert (w.a, w.b) == (1, -1)
    w2 = by_pair[(0, 1)]  # old <e1,e2> wall now pairs (-1,-1,-1) with (1,1,1)
    assert {w2.third_a, w2.third_b} == {3, 4}
    assert (w2.a, w2.b) == (0, 0)


def test_wall_relations_hold_everywhere():
    rng = random.Random(12)
    for name in ("p3", "p1p1p1", "bl-p3-point"):
        fan = preset(name)
        for _ in range(3):
            for w in walls(fan):
                assert wall_relation_holds(fan, w)
            fan = star_subdivision(fan, rng.choice(fan.max_cones))


def test_primitive_collections_goldens(p3, p1p1p1, blp3):
    assert primitive_collections(p3) == ((0, 1, 2, 3),)
    assert primitive_collections(p1p1p1) == ((0, 1), (2, 3), (4, 5))
    assert primitive_collections(blp3) == ((3, 4), (0, 1, 2))


def test_primitive_collections_equal_the_subset_loops():
    """The presets, the Random(7) ladder from 4 to 14 rays, and p3 with one of
    its cones left out, where one 4-set has three of its four triples as cones."""
    fans = [preset(n) for n in ("p3", "p1p1p1", "bl-p3-point")]
    fans += [ladder_fan(rays) for rays in range(4, 15)]
    cones = preset("p3").max_cones
    fans += [Fan(preset("p3").rays, cones[:t] + cones[t + 1:]) for t in range(4)]
    for fan in fans:
        assert primitive_collections(fan) == primitive_collections_by_subsets(fan), fan


def test_primitive_collections_are_minimal_nonfaces():
    """Each collection spans no cone while all proper subsets do."""
    rng = random.Random(13)
    fans = [preset(n) for n in ("p3", "p1p1p1", "bl-p3-point")]
    fans.append(random_subdivision_chain(preset("p3"), rng, 7))
    for fan in fans:
        faces = {c for cone in fan.max_cones for c in _subsets(cone)}
        for coll in primitive_collections(fan):
            assert coll not in faces
            for drop in range(len(coll)):
                sub = coll[:drop] + coll[drop + 1:]
                assert sub in faces


def _subsets(cone):
    i, j, k = cone
    return {(i,), (j,), (k,), (i, j), (i, k), (j, k), (i, j, k)}


def test_star_subdivision_once(p3, blp3):
    sub = star_subdivision(p3, (0, 1, 2))
    assert sub.rays == p3.rays + ((1, 1, 1),)
    assert sub.n_rays == 5
    assert len(sub.max_cones) == 6
    assert validate(sub).ok
    assert sub.rays == blp3.rays and sub.max_cones == blp3.max_cones


def test_star_subdivision_twice(p3):
    sub = star_subdivision(star_subdivision(p3, (0, 1, 2)), (0, 1, 3))
    assert sub.n_rays == 6
    assert len(sub.max_cones) == 8
    assert validate(sub).ok


def test_star_subdivision_unknown_cone(p3):
    with pytest.raises(ConeNotInFan):
        star_subdivision(p3, (0, 1, 9))
    with pytest.raises(ConeNotInFan):
        star_subdivision(star_subdivision(p3, (0, 1, 2)), (0, 1, 2))


def test_star_subdivision_chains_stay_valid():
    """Smoothness, completeness and Euler counts survive random chains."""
    rng = random.Random(14)
    for name in ("p3", "p1p1p1", "bl-p3-point"):
        fan = random_subdivision_chain(preset(name), rng, 10)
        report = validate(fan)
        assert report.ok
        r, f2, f3 = report.counts
        assert f3 == 2 * r - 4
        assert f2 == 3 * r - 6


def test_caches_keyed_by_fan_stay_at_their_bound(p3):
    """More fans than the bound leave every Fan-keyed cache exactly full."""
    for k in range(FAN_CACHE_SIZE + 5):
        # the shear x += k*y is unimodular, so each fan is new and valid,
        # with two new rays
        rays = tuple((x + k * y, y, z) for x, y, z in p3.rays)
        fan = Fan(rays, p3.max_cones)
        assert validate(fan).ok
        primitive_collections(fan)
        for rho in range(fan.n_rays):
            assert triple_intersection(fan, rho, rho, rho) == 1
    caches = (validate, walls, fan_module._dual_bases)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == FAN_CACHE_SIZE
        assert info.currsize == FAN_CACHE_SIZE


def test_dual_basis_pairs_to_the_identity_and_is_inverted_once(blp3):
    for cone in blp3.max_cones:
        duals = dual_basis(blp3, cone)
        assert [[sum(a * b for a, b in zip(m, blp3.rays[rho])) for rho in cone]
                for m in duals] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert dual_basis(Fan(blp3.rays, blp3.max_cones, blp3.name), cone) is duals


def test_dual_basis_of_a_cone_of_index_two_raises_at_every_use():
    fan = Fan(((1, 0, 0), (0, 1, 0), (1, 1, 2)), ((0, 1, 2),))
    for _ in range(2):
        with pytest.raises(NotUnimodular, match="determinant is 2"):
            dual_basis(fan, (0, 1, 2))


def test_validate_is_computed_once_per_fan(p3):
    fan = Fan(tuple((x, y + 7 * z, z) for x, y, z in p3.rays), p3.max_cones)
    before = validate.cache_info()
    assert validate(fan) is validate(Fan(fan.rays, fan.max_cones))
    after = validate.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_fan_constructor_rejections(p3):
    with pytest.raises(MalformedFan):
        Fan(((1, 0, 0), (1, 0, 0), (0, 1, 0)), ((0, 1, 2),))
    with pytest.raises(MalformedFan):
        Fan(p3.rays, ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(MalformedFan):
        Fan(p3.rays, ((0, 1, 1),))
    with pytest.raises(MalformedFan):
        Fan(p3.rays, ((0, 1, 7),))
    with pytest.raises(MalformedFan):
        Fan(p3.rays, ((0, 1),))
    with pytest.raises(MalformedFan):
        Fan(((1, 0),), ())
    with pytest.raises(MalformedFan, match="ray entries must be ints"):
        Fan(((1, 0, 0.5),), ())
    with pytest.raises(MalformedFan, match="cone indices must be ints"):
        Fan(p3.rays, ((0, 1, 2.0),))
    with pytest.raises(MalformedFan, match="name must be a string"):
        Fan(p3.rays, p3.max_cones, 5)


def test_cone_order_is_normalized(p3):
    fan = Fan(p3.rays, ((2, 1, 0), (3, 1, 0), (3, 2, 0), (3, 2, 1)))
    assert fan.max_cones == p3.max_cones


def test_serialization_round_trip(p3, p1p1p1, blp3, nonprojective):
    for fan in (p3, p1p1p1, blp3, nonprojective):
        text = dumps_fan(fan)
        again = loads_fan(text)
        assert again == fan
        assert dumps_fan(again) == text


def test_load_fixture_file(nonprojective):
    fan = load_fan(FIXTURES / "nonprojective.fan")
    assert fan == nonprojective
    assert validate(fan).ok
    assert fan.n_rays == 7


def test_strict_parsing_errors():
    with pytest.raises(MalformedFan):
        loads_fan("not json")
    with pytest.raises(MalformedFan):
        fan_from_dict({"rays": [[1, 0, 0]], "cones": []})  # missing name
    with pytest.raises(MalformedFan):
        fan_from_dict(
            {"name": "x", "rays": [[1, 0, 0]], "cones": [], "extra": 1}
        )
    with pytest.raises(MalformedFan):
        fan_from_dict({"name": "x", "rays": [[1, 0]], "cones": []})
    with pytest.raises(MalformedFan):
        fan_from_dict({"name": "x", "rays": "nope", "cones": []})
    with pytest.raises(MalformedFan, match="fan document must be an object"):
        loads_fan("[]")


@pytest.mark.parametrize("rays, cones, message", [
    ([[1, 0]], [], "ray must be a triple of ints, got [1, 0]"),
    ([[1, 0, True]], [], "ray entries must be ints, got [1, 0, True]"),
    ([[1, 0, 0], [1, 0, 0]], [], "duplicate rays"),
    ([[1, 0, 0]], [[0, 1]], "cone must be an index triple, got (0, 1)"),
    ([[1, 0, 0]], [[0, 1, "a"]], "cone indices must be ints, got (0, 1, 'a')"),
    ([[1, 0, 0]], [[0, 1, 9]], "cone index out of range: (0, 1, 9)"),
    ([[1, 0, 0], [0, 1, 0]], [[0, 1, 1]], "cone repeats a ray: (0, 1, 1)"),
    ([[1, 0, 0]], [None], "cone must be an index triple, got None"),
])
def test_fan_from_dict_refuses_with_the_constructors_messages(rays, cones, message):
    # the arrays go to Fan as they are; a cone array is named as the tuple it becomes
    with pytest.raises(MalformedFan) as info:
        fan_from_dict({"name": "x", "rays": rays, "cones": cones})
    assert str(info.value) == message


def test_fan_from_dict_takes_json_arrays(p3):
    doc = {"name": "p3", "rays": [list(r) for r in p3.rays],
           "cones": [list(reversed(c)) for c in p3.max_cones]}
    assert fan_from_dict(doc) == p3
