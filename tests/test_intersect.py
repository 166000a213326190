"""Intersection numbers, ampleness and degree vectors against the quotient-ring oracle."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given

from conftest import ladder_fan
from oracles import (
    ChowOracle,
    farkas_refutes,
    is_ample_by_characters,
    kernel_xi_by_fractions,
    self_triple_by_canonical_character,
    triple_intersection,
    unit_divisor,
    wall_coefficients_by_inversion,
)
from test_fan import random_subdivision_chain
from test_fan_properties import PROPERTY, chains, change_basis
from toricurve import feasibility, intersect
from toricurve.fan import Fan, preset, ray_matrix, star_subdivision, walls
from toricurve.feasibility import verify_infeasibility_certificate
from toricurve.intlinalg import integer_kernel_basis
from toricurve.intersect import (
    NoPositiveKernel,
    NotAmple,
    NotProjective,
    TDivisor,
    _mixed_degrees,
    find_ample,
    is_ample,
    triple_product,
    wall_curve_degree,
    xi_vector,
)

_ORACLES = {}


def oracle_for(fan):
    if fan.name not in _ORACLES:
        _ORACLES[fan.name] = ChowOracle(fan.rays, fan.max_cones)
    return _ORACLES[fan.name]


def principal_coeffs(fan, m):
    """Coefficients of the divisor of the character m."""
    return [sum(m[c] * ray[c] for c in range(3)) for ray in fan.rays]


def test_wall_degree_goldens(p3, p1p1p1):
    by_pair = {(w.i, w.j): w for w in walls(p1p1p1)}
    w = by_pair[(0, 2)]  # <e1, e2>
    assert wall_curve_degree(p1p1p1, w, unit_divisor(p1p1p1, 4)) == 1
    assert wall_curve_degree(p1p1p1, w, unit_divisor(p1p1p1, 0)) == 0
    w3 = {(w.i, w.j): w for w in walls(p3)}[(0, 1)]
    assert wall_curve_degree(p3, w3, unit_divisor(p3, 0)) == 1


def test_wall_degree_matches_oracle():
    """Every wall degree is the Chow product of the two spanning divisors."""
    for name in ("p3", "p1p1p1", "bl-p3-point"):
        fan = preset(name)
        oracle = oracle_for(fan)
        n = fan.n_rays
        for w in walls(fan):
            for rho in range(n):
                got = wall_curve_degree(fan, w, unit_divisor(fan, rho))
                units = (unit_divisor(fan, x).coeffs for x in (w.i, w.j, rho))
                assert got == oracle.triple_product(*units)


def test_triple_goldens(p3, p1p1p1, blp3):
    assert triple_intersection(p3, 0, 1, 2) == 1
    assert triple_intersection(p3, 0, 0, 0) == 1
    assert triple_intersection(p1p1p1, 0, 1, 2) == 0  # e1, -e1 never meet
    assert triple_intersection(p1p1p1, 0, 2, 4) == 1
    assert triple_intersection(p1p1p1, 0, 0, 2) == 0
    assert triple_intersection(blp3, 4, 4, 4) == 1  # exceptional divisor cubed


def test_all_triples_match_oracle():
    for name in ("p3", "p1p1p1", "bl-p3-point"):
        fan = preset(name)
        oracle = oracle_for(fan)
        n = fan.n_rays
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    assert triple_intersection(fan, i, j, k) == oracle.triple(i, j, k)


def test_triple_symmetry(blp3):
    rng = random.Random(21)
    for _ in range(20):
        i, j, k = (rng.randrange(blp3.n_rays) for _ in range(3))
        base = triple_intersection(blp3, i, j, k)
        order = [i, j, k]
        rng.shuffle(order)
        assert triple_intersection(blp3, *order) == base


def test_triple_product_trilinear_matches_oracle(blp3):
    rng = random.Random(22)
    oracle = oracle_for(blp3)
    n = blp3.n_rays
    for _ in range(10):
        cs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(3)]
        got = triple_product(blp3, *(TDivisor(tuple(c)) for c in cs))
        assert got == oracle.triple_product(*cs)


def test_linear_equivalence_invariance():
    """Adding the divisor of a character never changes a triple product."""
    rng = random.Random(23)
    for name in ("p3", "p1p1p1", "bl-p3-point"):
        fan = preset(name)
        n = fan.n_rays
        for _ in range(8):
            ds = [TDivisor(tuple(rng.randint(-2, 2) for _ in range(n))) for _ in range(3)]
            base = triple_product(fan, *ds)
            m = tuple(rng.randint(-2, 2) for _ in range(3))
            shift = TDivisor(tuple(principal_coeffs(fan, m)))
            moved = triple_product(
                fan, TDivisor(tuple(a + b for a, b in zip(ds[0].coeffs, shift.coeffs))),
                ds[1], ds[2])
            assert moved == base


def test_is_ample_goldens(p3, p1p1p1):
    assert is_ample(p3, unit_divisor(p3, 0))
    assert not is_ample(p3, TDivisor(tuple(-c for c in unit_divisor(p3, 0).coeffs)))
    assert not is_ample(p1p1p1, unit_divisor(p1p1p1, 0))  # nef only
    anticanonical = TDivisor(tuple([1] * 6))
    assert is_ample(p1p1p1, anticanonical)


def sheared_chains(rng, count):
    """The presets, then `count` star-subdivision chains of them up to nine
    rays, in lattice bases made of up to four shears by +-1 or +-2."""
    names = ("p3", "p1p1p1", "bl-p3-point")
    fans = [preset(name) for name in names]
    for _ in range(count):
        fan = preset(rng.choice(names))
        steps = [
            (tuple(rng.sample(range(3), 2)), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, 4))
        ]
        fan = change_basis(fan, steps)
        fans.append(random_subdivision_chain(fan, rng, rng.randint(fan.n_rays, 9)))
    return fans


def test_ample_iff_positive_wall_degrees():
    """Positive wall degrees must coincide with strict convexity of the
    support function, computed from cone characters, on random divisors and
    on small perturbations of an ample one."""
    rng = random.Random(24)
    verdicts = {True: 0, False: 0}
    for fan in sheared_chains(rng, 20):
        n = fan.n_rays
        ample = [2 * c for c in find_ample(fan).coeffs]
        for _ in range(12):
            d = TDivisor(tuple(rng.randint(-2, 3) for _ in range(n)))
            near = TDivisor(tuple(c + rng.randint(-1, 1) for c in ample))
            for divisor in (d, near):
                verdict = is_ample(fan, divisor)
                assert verdict == is_ample_by_characters(fan, divisor.coeffs), divisor
                verdicts[verdict] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_wall_coefficients_match_one_inversion_per_wall():
    for fan in sheared_chains(random.Random(26), 20):
        got = {(w.i, w.j): (w.a, w.b) for w in walls(fan)}
        assert got == wall_coefficients_by_inversion(fan), fan


def test_find_ample_deterministic_goldens(p3, p1p1p1, blp3):
    assert find_ample(p3).coeffs == (0, 0, 0, 1)
    assert find_ample(p1p1p1).coeffs == (0, 1, 0, 1, 0, 1)
    assert find_ample(blp3).coeffs == (0, 0, 2, 0, 1)
    for fan in (p3, p1p1p1, blp3):
        assert is_ample(fan, find_ample(fan))


def test_find_ample_on_subdivisions():
    rng = random.Random(25)
    fan = preset("p3")
    for _ in range(3):
        fan = star_subdivision(fan, rng.choice(fan.max_cones))
        assert is_ample(fan, find_ample(fan))


def test_not_projective_fixture(nonprojective):
    """The twisted fixture is smooth and complete yet admits no ample divisor."""
    with pytest.raises(NotProjective) as err:
        find_ample(nonprojective)
    exc = err.value
    n_vars = len(exc.constraints[0][0])
    assert verify_infeasibility_certificate(exc.constraints, exc.certificate, n_vars)
    assert farkas_refutes(exc.constraints, exc.certificate, n_vars)


def test_xi_intersection_goldens(p3, p1p1p1, blp3):
    assert xi_vector(p3, unit_divisor(p3, 0)).values == (1, 1, 1, 1)
    total = TDivisor(tuple([1] * 6))
    assert xi_vector(p1p1p1, total).values == (8, 8, 8, 8, 8, 8)
    two_h_minus_e = TDivisor((0, 0, 0, 2, -1))
    assert xi_vector(blp3, two_h_minus_e).values == (3, 3, 3, 4, 1)


def test_xi_matches_oracle_degree_vector():
    """The golden degree vectors re-derive through the quotient ring."""
    cases = [
        ("p3", (1, 0, 0, 0), (1, 1, 1, 1)),
        ("p1p1p1", (1, 1, 1, 1, 1, 1), (8, 8, 8, 8, 8, 8)),
        ("bl-p3-point", (0, 0, 0, 2, -1), (3, 3, 3, 4, 1)),
    ]
    for name, coeffs, frozen in cases:
        fan = preset(name)
        oracle = oracle_for(fan)
        expansion = oracle.degree_vector(list(coeffs))
        assert expansion == tuple(Fraction(v) for v in frozen)
        assert xi_vector(fan, TDivisor(coeffs)).values == frozen


@pytest.mark.parametrize("rays", range(6, 13))
def test_xi_reads_the_square_off_the_wall_degrees(rays):
    """The wall-degree pass gives A . B . V_j for the ample divisor and for
    divisors that are not ample: the same for (A, B) as for (B, A), zero
    against every principal divisor, and up to 8 rays the quotient ring's
    value."""
    fan = ladder_fan(rays)
    rng = random.Random(rays)
    ample = find_ample(fan)
    oracle = ChowOracle(fan.rays, fan.max_cones) if rays <= 8 else None  # fan.name repeats

    def draw():
        return TDivisor(tuple(rng.randint(-3, 3) for _ in range(rays)))

    for A, B in ((ample, ample), (ample, draw()), (draw(), draw())):
        got = _mixed_degrees(fan, A, B)
        assert got == _mixed_degrees(fan, B, A)
        assert all(sum(a * v for a, v in zip(row, got)) == 0 for row in ray_matrix(fan))
        if oracle:
            want = tuple(oracle.triple_product(A.coeffs, B.coeffs, unit_divisor(fan, j).coeffs)
                         for j in range(rays))
            assert got == want
    assert xi_vector(fan, ample).values == _mixed_degrees(fan, ample, ample)


def test_xi_kernel_goldens(p3, p1p1p1, blp3):
    assert xi_vector(p3, None, method="kernel").values == (1, 1, 1, 1)
    assert xi_vector(p1p1p1, None, method="kernel").values == (1, 1, 1, 1, 1, 1)
    assert xi_vector(blp3, None, method="kernel").values == (1, 1, 1, 2, 1)


def kernel_fans():
    return [preset(n) for n in ("p3", "p1p1p1", "bl-p3-point")] + [
        ladder_fan(rays) for rays in range(5, 13)]


def spy_minimize(monkeypatch):
    """Record the optimum y of every minimize call xi_vector makes."""
    ys = []

    def spy(*args):
        optimum, y = feasibility.minimize(*args)
        ys.append(y)
        return optimum, y
    monkeypatch.setattr(intersect, "minimize", spy)
    return ys


def test_xi_kernel_scaling_equals_the_fraction_sums(monkeypatch):
    ys = spy_minimize(monkeypatch)
    for fan in kernel_fans():
        values = xi_vector(fan, None, method="kernel").values
        basis = integer_kernel_basis(ray_matrix(fan))
        assert values == kernel_xi_by_fractions(basis, ys[-1], fan.n_rays)


def test_xi_kernel_scaling_divides_out_a_common_factor(monkeypatch):
    """A tripled kernel basis makes minimize return y / 3: y is fractional,
    den, the lcm of its denominators, is 3, and every sum shares the factor 3
    with den, so only the gcd division gives the degrees back."""
    for fan in kernel_fans():
        want = xi_vector(fan, None, method="kernel").values
        basis = [tuple(3 * x for x in vec) for vec in integer_kernel_basis(ray_matrix(fan))]
        with monkeypatch.context() as patch:
            patch.setattr(intersect, "integer_kernel_basis", lambda rows: basis)
            ys = spy_minimize(patch)
            got = xi_vector(fan, None, method="kernel").values
        den = lcm(*(f.denominator for f in ys[-1]))
        sums = [int(sum(vec[j] * f * den for vec, f in zip(basis, ys[-1])))
                for j in range(fan.n_rays)]
        assert den > 1 and gcd(den, *sums) > 1, fan  # the branch the gcd serves ran
        assert got == want == kernel_xi_by_fractions(basis, ys[-1], fan.n_rays)


def test_xi_kernel_on_the_twelve_ray_ladder():
    """p3 star-subdivided at cones drawn by random.Random(7), up to 12 rays."""
    fan, rng = preset("p3"), random.Random(7)
    while fan.n_rays < 12:
        fan = star_subdivision(fan, rng.choice(fan.max_cones))
    xi = xi_vector(fan, None, method="kernel")
    assert xi.values == (1, 12, 6, 7, 1, 1, 1, 1, 1, 1, 1, 1)


def test_row_cap_lets_the_twelve_and_fourteen_ray_ladders_through():
    """At the real MAX_FM_ROWS the kernel degrees are the ones found without
    a cap (the 14-ray fan peaks at 22,912 rows in one level)."""
    assert feasibility.MAX_FM_ROWS == 200_000
    assert xi_vector(ladder_fan(12), None, method="kernel").values == (
        1, 12, 6, 7, 1, 1, 1, 1, 1, 1, 1, 1)
    assert xi_vector(ladder_fan(14), None, method="kernel").values == (
        1, 21, 9, 11, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)


def test_row_cap_aborts_the_twelve_ray_ladder(monkeypatch):
    """Its kernel minimization peaks at 8,494 rows in one level; a cap of
    1,000 stops it, typed, inside that level."""
    monkeypatch.setattr(feasibility, "MAX_FM_ROWS", 1000)
    with pytest.raises(feasibility.EliminationOverflow) as err:
        xi_vector(ladder_fan(12), None, method="kernel")
    assert err.value.rows == 1001
    assert 0 <= err.value.var < 12
    assert f"x_{err.value.var}" in str(err.value)


def test_xi_is_positive_kernel_vector():
    rng = random.Random(26)
    for name in ("p3", "p1p1p1", "bl-p3-point"):
        fan = preset(name)
        for method in ("intersection", "kernel"):
            ample = find_ample(fan) if method == "intersection" else None
            xi = xi_vector(fan, ample, method=method)
            assert min(xi.values) >= 1
            assert xi.method == method
            for c in range(3):
                assert sum(
                    xi.values[j] * fan.rays[j][c] for j in range(fan.n_rays)
                ) == 0
        sub = star_subdivision(fan, rng.choice(fan.max_cones))
        assert min(xi_vector(sub, find_ample(sub)).values) >= 1


def test_xi_requires_ample(p3, p1p1p1):
    with pytest.raises(NotAmple):
        xi_vector(p3, None)
    with pytest.raises(NotAmple):
        xi_vector(p1p1p1, unit_divisor(p1p1p1, 0))


def test_xi_kernel_rejects_injective_matrix():
    fan = Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
    with pytest.raises(NoPositiveKernel):
        xi_vector(fan, None, method="kernel")


def test_divisor_arithmetic(p3):
    d = TDivisor(tuple(a + 3 * b for a, b in zip(unit_divisor(p3, 0).coeffs,
                                                 unit_divisor(p3, 1).coeffs)))
    assert d.coeffs == (1, 3, 0, 0)
    assert TDivisor(tuple(-c for c in d.coeffs)).coeffs == (-1, -3, 0, 0)
    assert TDivisor((0,) * p3.n_rays).coeffs == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        triple_product(p3, d, d, TDivisor((1, 0, 0)))


@pytest.mark.parametrize("call, error", [
    (lambda p3: TDivisor((1, 0.5, 0, 0)), ValueError),
    (lambda p3: triple_intersection(p3, 0, 1, 4), ValueError),
    (lambda p3: is_ample(p3, TDivisor((1, 0, 0))), ValueError),
    (lambda p3: xi_vector(p3, None, method="bogus"), ValueError),
    # every ray in the half-space x + y + z > 0: a kernel, but no positive vector in it
    (lambda p3: xi_vector(Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)), ((0, 1, 2),)),
                          None, method="kernel"), NoPositiveKernel),
], ids=["non-int-coefficient", "ray-index-out-of-range", "divisor-length",
        "unknown-xi-method", "kernel-in-a-half-space"])
def test_intersect_input_checks(p3, call, error):
    with pytest.raises(error) as err:
        call(p3)
    assert err.type is error


@PROPERTY
@given(chains())
def test_self_intersections_do_not_depend_on_the_character(fan):
    """A cone's dual basis gives the same V_rho^3 as the canonical character:
    the two shifts of V_rho differ by a principal divisor."""
    for rho in range(fan.n_rays):
        assert triple_intersection(fan, rho, rho, rho) == self_triple_by_canonical_character(
            fan, rho
        )
