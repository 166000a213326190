"""Exact rational feasibility and optimization against planted and enumerated answers.

The int-row elimination is also compared with the Fraction-row reference in
`oracles` on random small systems: the same points and optima, the same
verdicts, and certificates with the same support up to one positive factor.
A table of refutations pins certificates exactly, multipliers included, and
back-substitution's branches are pinned point by point.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import farkas_refutes, fm_find_point, fm_minimize
from test_fan_properties import PROPERTY
from toricurve import feasibility
from toricurve.feasibility import (
    EliminationOverflow,
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


@pytest.mark.parametrize("call, message", [
    (lambda: find_point([((1, 0), 1)], 1), "constraint arity mismatch"),
    (lambda: minimize((1, 0), [((1,), 1)], 1), "objective arity mismatch"),
], ids=["constraint-width", "objective-width"])
def test_arity_mismatches_are_refused(call, message):
    with pytest.raises(ValueError, match=message) as err:
        call()
    assert err.type is ValueError


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


Q = Fraction

# (objective or None for find_point, constraints, n_vars, certificate), each
# certificate exactly as the elimination with provenance columns returns it
EXACT_REFUTATIONS = {
    # the first variable-free input with a positive right-hand side, times its scale
    "input": (None, [((1, 0), 0), ((0, 0), Q(1, 3)), ((0, 0), 2)], 2, {1: 3}),
    # eliminating x_2 first pairs row 1 with row 2 before row 3
    "first level": (
        None, [((1, 0, 0), 0), ((0, 0, 2), 3), ((0, 0, -3), -1), ((0, 0, -1), 0)], 3,
        {1: 3, 2: 2}),
    "first level, made primitive": (None, [((0, 2), 1), ((0, -2), 1)], 2, {0: 1, 1: 1}),
    "middle level": (
        None, [((1, 0, 0), 0), ((0, 2, 1), 1), ((0, 0, -1), 0), ((0, -3, 0), 0)], 3,
        {1: 3, 2: 3, 3: 2}),
    "last level": (
        None, [((2, 0), 0), ((-3, 1), -1), ((-1, -1), 2), ((0, 1), -5)], 2,
        {0: 2, 1: 1, 2: 1}),
    "last level, fractions": (
        None,
        [((Q(1, 2), 1, 0), Q(1, 3)), ((0, -1, Q(2, 3)), 0), ((0, 0, -1), Q(1, 4)),
         ((-1, 0, 0), 0)],
        3, {0: 6, 1: 6, 2: 4, 3: 3}),
    "last level, four variables": (
        None,
        [((-1, 0, 0, 0), 0), ((2, 1, 0, 0), 1), ((0, -1, 3, 0), 0), ((0, 0, -3, 2), 1),
         ((-1, 0, 0, -2), 0)],
        4, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}),
    "minimize": ((1, -1), [((1, 0), 1), ((0, 1), 0), ((-1, -2), 0)], 2, {0: 1, 1: 2, 2: 1}),
    # indices 5 and 6 are the two rows that pin z to the objective
    "minimize, z rows": (
        (-1, 2, 2),
        [((-1, 1, -2), 0), ((0, 1, 1), 0), ((-2, -2, 2), -1), ((-2, -2, 1), 2),
         ((2, 1, 0), 1)],
        3, {0: 2, 2: 1, 3: 2, 4: 4, 5: 1, 6: 1}),
    "minimize, z rows, fractions": (
        (2, 1, -1),
        [((1, -2, 2), 1), ((-2, 0, -1), -2), ((-1, 2, 2), 2), ((0, -1, -1), 1),
         ((0, 2, 1), Q(1, 2))],
        3, {0: 1, 2: 1, 3: 8, 4: 4, 5: 2, 6: 2}),
}


@pytest.mark.parametrize("name", EXACT_REFUTATIONS)
def test_refutations_return_the_exact_certificate(name):
    objective, constraints, n, want = EXACT_REFUTATIONS[name]
    with pytest.raises(Infeasible) as err:
        if objective is None:
            find_point(constraints, n)
        else:
            minimize(objective, constraints, n)
    got = err.value.certificate
    assert got == want
    assert all(type(v) is Fraction for v in got.values())


def test_the_row_cap_stops_at_a_pinned_level(monkeypatch):
    """The levels hold 9, 11, 25 and 103 rows; a cap of 25 stops eliminating x_1."""
    rng = random.Random(3)
    constraints = [(tuple(rng.randint(-3, 3) for _ in range(4)), rng.randint(-5, 0))
                   for _ in range(9)]
    monkeypatch.setattr(feasibility, "MAX_FM_ROWS", 25)
    with pytest.raises(EliminationOverflow) as err:
        find_point(constraints, 4)
    assert (err.value.var, err.value.rows) == (1, 26)


BRANCHES = {
    # only upper bounds: the tightest one, whichever comes first
    "upper bounds": (find_point, ([((-1,), -5), ((-1,), -3)], 1), [3]),
    "upper bounds, reversed": (find_point, ([((-1,), -3), ((-1,), -5)], 1), [3]),
    "upper bound after x_0": (find_point, ([((2, -1), -7), ((0, 1), 1)], 2), [-3, 1]),
    "free variable": (find_point, ([((0, 1), 2)], 2), [0, 2]),
    "lo == hi": (find_point, ([((3,), 2), ((-3,), -2)], 1), [Q(2, 3)]),
    # x_1's bound reads x_0 = 1/2 over the common denominator
    "common denominator": (find_point, ([((2, 0), 1), ((-1, 3), 0)], 2), [Q(1, 2), Q(1, 6)]),
    "common denominator, twice": (
        find_point, ([((3, 0, 0), 1), ((0, 2, 0), 1), ((-1, -1, 5), 0)], 3),
        [Q(1, 3), Q(1, 2), Q(1, 6)]),
    # a fractional z starts the back-substitution
    "fractional z": (minimize, ((2,), [((3,), 1)], 1), (Q(2, 3), [Q(1, 3)])),
    "fractional z, two variables": (
        minimize, ((1, 1), [((2, 0), 1), ((0, 3), 1)], 2), (Q(5, 6), [Q(1, 2), Q(1, 3)])),
    "fractional z, x_1 at its bound": (
        minimize, ((1, 2), [((4, 1), 1), ((1, 0), 0), ((0, 1), 0)], 2), (Q(1, 4), [Q(1, 4), 0])),
}


@pytest.mark.parametrize("name", BRANCHES)
def test_back_substitution_branches(name):
    solve, args, want = BRANCHES[name]
    got = solve(*args)
    assert got == want
    point = got if solve is find_point else got[1]
    assert all(type(x) is Fraction for x in point)


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
