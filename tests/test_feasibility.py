"""Exact rational feasibility and optimization against planted and enumerated answers.

The int-row elimination is also compared with the Fraction-row reference in
`oracles` on random small systems: the same points and optima, the same
verdicts, and certificates with the same support up to one positive factor.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import farkas_refutes, fm_find_point, fm_minimize
from test_fan_properties import PROPERTY
from toricurve.feasibility import (
    Infeasible,
    Unbounded,
    find_point,
    minimize,
    verify_infeasibility_certificate,
)


def satisfies(constraints, point):
    return all(
        sum(Fraction(c) * x for c, x in zip(coeffs, point)) >= rhs
        for coeffs, rhs in constraints
    )


def test_find_point_interval():
    # 1 <= x <= 3
    constraints = [((1,), 1), ((-1,), -3)]
    point = find_point(constraints, 1)
    assert satisfies(constraints, point)


def test_find_point_two_vars():
    constraints = [((1, 0), 2), ((0, 1), -1), ((-1, -1), -10), ((1, -1), 0)]
    point = find_point(constraints, 2)
    assert satisfies(constraints, point)


def test_find_point_free_variable_defaults_to_zero():
    # y is unconstrained; the deterministic fallback pins it at 0
    point = find_point([((1, 0), 5)], 2)
    assert point[1] == 0 and point[0] >= 5


def test_infeasible_opposite_bounds():
    constraints = [((1,), 1), ((-1,), 0)]  # x >= 1 and x <= 0
    with pytest.raises(Infeasible) as err:
        find_point(constraints, 1)
    cert = err.value.certificate
    assert verify_infeasibility_certificate(constraints, cert, 1)
    assert farkas_refutes(constraints, cert, 1)


def test_minimize_corner():
    value, point = minimize((1, 1), [((1, 0), 1), ((0, 1), 2)], 2)
    assert value == 3
    assert point == [1, 2]


def test_minimize_unbounded():
    with pytest.raises(Unbounded):
        minimize((1,), [((-1,), -3)], 1)  # minimize x with only x <= 3


def test_minimize_infeasible():
    with pytest.raises(Infeasible):
        minimize((1, 1), [((1, 0), 1), ((-1, 0), 0)], 2)


def test_random_feasible_systems():
    """Systems built around a planted point stay solvable."""
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 4)
        star = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        constraints = []
        for _ in range(rng.randint(1, 7)):
            coeffs = tuple(rng.randint(-4, 4) for _ in range(n))
            value = sum(c * x for c, x in zip(coeffs, star))
            constraints.append((coeffs, value - rng.randint(0, 3)))
        point = find_point(constraints, n)
        assert satisfies(constraints, point)


def test_random_infeasible_certificates():
    """A planted contradiction must always be refuted with valid multipliers."""
    rng = random.Random(32)
    for _ in range(50):
        n = rng.randint(1, 4)
        coeffs = tuple(rng.randint(-4, 4) for _ in range(n))
        b = rng.randint(-3, 3)
        constraints = [(coeffs, b), (tuple(-c for c in coeffs), 1 - b)]
        for _ in range(rng.randint(0, 4)):
            extra = tuple(rng.randint(-4, 4) for _ in range(n))
            constraints.append((extra, -rng.randint(5, 9) - sum(abs(c) * 5 for c in extra)))
        rng.shuffle(constraints)
        with pytest.raises(Infeasible) as err:
            find_point(constraints, n)
        cert = err.value.certificate
        assert verify_infeasibility_certificate(constraints, cert, n)
        assert farkas_refutes(constraints, cert, n)


def test_certificate_verifier_rejects_junk():
    constraints = [((1,), 1), ((-1,), 0)]
    assert not verify_infeasibility_certificate(constraints, {0: Fraction(1)}, 1)
    assert not verify_infeasibility_certificate(
        constraints, {0: Fraction(-1), 1: Fraction(-1)}, 1
    )


def test_minimize_matches_vertex_enumeration():
    """2-var LPs: optimum must agree with brute force over basic points."""
    rng = random.Random(33)
    box = [((1, 0), -5), ((-1, 0), -5), ((0, 1), -5), ((0, -1), -5)]
    for _ in range(30):
        constraints = list(box)
        for _ in range(3):
            coeffs = (rng.randint(-3, 3), rng.randint(-3, 3))
            if coeffs == (0, 0):
                continue
            point = (rng.randint(-2, 2), rng.randint(-2, 2))
            constraints.append((coeffs, sum(c * p for c, p in zip(coeffs, point))))
        objective = (rng.randint(-3, 3), rng.randint(-3, 3))
        try:
            value, point = minimize(objective, constraints, 2)
        except Infeasible:
            continue
        assert satisfies(constraints, point)
        # enumerate all pairwise line intersections as candidate optima
        best = None
        for i in range(len(constraints)):
            for j in range(i + 1, len(constraints)):
                (a1, b1), r1 = constraints[i]
                (a2, b2), r2 = constraints[j]
                det = a1 * b2 - a2 * b1
                if det == 0:
                    continue
                x = Fraction(r1 * b2 - r2 * b1, det)
                y = Fraction(a1 * r2 - a2 * r1, det)
                if satisfies(constraints, (x, y)):
                    cand = objective[0] * x + objective[1] * y
                    best = cand if best is None else min(best, cand)
        assert best is not None
        assert value == best

coefficient = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)


@st.composite
def systems(draw, max_vars, max_rows):
    """Random rows, sometimes with the negation of one row pushed past it."""
    n = draw(st.integers(1, max_vars))
    row = st.tuples(st.tuples(*[coefficient] * n), coefficient)
    constraints = draw(st.lists(row, min_size=1, max_size=max_rows))
    if len(constraints) < max_rows and draw(st.booleans()):
        coeffs, rhs = draw(st.sampled_from(constraints))
        gap = draw(st.integers(1, 3))
        constraints.append((tuple(-c for c in coeffs), gap - rhs))
    return n, constraints


def outcome(solve, *args):
    try:
        return "solved", solve(*args)
    except Infeasible as exc:
        return "infeasible", exc.certificate
    except Unbounded:
        return "unbounded", None


def assert_same_refutation(got, want, constraints, n_vars):
    assert set(got) == set(want)
    assert len({got[k] / want[k] for k in got}) == 1
    for cert in (got, want):
        assert verify_infeasibility_certificate(constraints, cert, n_vars)
        assert farkas_refutes(constraints, cert, n_vars)


@PROPERTY
@given(systems(max_vars=4, max_rows=7))
def test_find_point_matches_the_fraction_reference(system):
    n, constraints = system
    got = outcome(find_point, constraints, n)
    want = outcome(fm_find_point, constraints, n)
    assert got[0] == want[0]
    if got[0] == "infeasible":
        assert_same_refutation(got[1], want[1], constraints, n)
    else:
        assert got == want
        assert satisfies(constraints, got[1])


@PROPERTY
@given(systems(max_vars=3, max_rows=5), st.data())
def test_minimize_matches_the_fraction_reference(system, data):
    n, constraints = system
    objective = data.draw(st.tuples(*[coefficient] * n))
    got = outcome(minimize, objective, constraints, n)
    want = outcome(fm_minimize, objective, constraints, n)
    assert got[0] == want[0]
    if got[0] == "infeasible":
        # indices past the constraints name the two rows that pin z to the objective
        pinned = [(tuple(c) + (0,), rhs) for c, rhs in constraints]
        pinned += [(tuple(-c for c in objective) + (1,), 0), (tuple(objective) + (-1,), 0)]
        assert_same_refutation(got[1], want[1], pinned, n + 1)
    else:
        assert got == want
