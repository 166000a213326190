"""Exact linear feasibility and minimization over the rationals.

Fourier-Motzkin elimination on systems of inequalities sum_i c_i x_i >= rhs,
with all arithmetic in Fraction.  Infeasible systems come with a Farkas
certificate: nonnegative multipliers on the original rows that combine to the
contradiction 0 >= positive.  find_point and minimize serve the ample search.
homogeneous_feasible decides strict homogeneous systems (fan validation's
cone separation) by Fourier-Motzkin over int, with no certificate and no
back-substitution.  Worst-case exponential, fine at fan scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class Unbounded(Exception):
    """The objective has no finite minimum on the feasible region."""


class Infeasible(Exception):
    """No point satisfies the constraints.

    certificate maps original row indices to nonnegative multipliers whose
    combination has zero coefficients and positive right-hand side.
    """

    def __init__(self, certificate: dict[int, Fraction]):
        super().__init__("infeasible linear system")
        self.certificate = certificate


@dataclass(frozen=True)
class _Row:
    coeffs: tuple[Fraction, ...]
    rhs: Fraction
    combo: tuple[tuple[int, Fraction], ...]  # provenance over original rows


def _normalize(coeffs, rhs, combo):
    scale = None
    for c in coeffs:
        if c:
            scale = 1 / abs(c)
            break
    if scale is None or scale == 1:
        return _Row(tuple(coeffs), rhs, combo)
    return _Row(
        tuple(c * scale for c in coeffs),
        rhs * scale,
        tuple((i, lam * scale) for i, lam in combo),
    )


def _merge_combo(c1, c2, s1: Fraction, s2: Fraction):
    acc: dict[int, Fraction] = {}
    for i, lam in c1:
        acc[i] = acc.get(i, Fraction(0)) + s1 * lam
    for i, lam in c2:
        acc[i] = acc.get(i, Fraction(0)) + s2 * lam
    return tuple(sorted(acc.items()))


def _make_rows(constraints, n_vars: int) -> list[_Row]:
    rows = []
    for idx, (coeffs, rhs) in enumerate(constraints):
        if len(coeffs) != n_vars:
            raise ValueError("constraint arity mismatch")
        rows.append(
            _Row(
                tuple(Fraction(c) for c in coeffs),
                Fraction(rhs),
                ((idx, Fraction(1)),),
            )
        )
    return rows


def _check_constants(rows: list[_Row]):
    """Drop variable-free rows; a positive rhs among them is a contradiction."""
    kept = []
    for row in rows:
        if any(row.coeffs):
            kept.append(row)
        elif row.rhs > 0:
            raise Infeasible(dict(row.combo))
    return kept


def _eliminate(rows: list[_Row], var: int) -> list[_Row]:
    lowers, uppers, keeps = [], [], []
    for row in rows:
        c = row.coeffs[var]
        if c > 0:
            lowers.append(row)
        elif c < 0:
            uppers.append(row)
        else:
            keeps.append(row)
    out = list(keeps)
    seen = {(r.coeffs, r.rhs) for r in keeps}
    for lo in lowers:
        a = lo.coeffs[var]
        for up in uppers:
            b = up.coeffs[var]  # b < 0: combine with weights -b, a > 0
            coeffs = tuple(
                -b * x + a * y for x, y in zip(lo.coeffs, up.coeffs)
            )
            rhs = -b * lo.rhs + a * up.rhs
            row = _normalize(coeffs, rhs, _merge_combo(lo.combo, up.combo, -b, a))
            key = (row.coeffs, row.rhs)
            if key not in seen:
                seen.add(key)
                out.append(row)
    return _check_constants(out)


def _back_substitute(levels, order, assignment: dict[int, Fraction]):
    for var in reversed(order):
        lo, hi = None, None
        for row in levels[var]:
            c = row.coeffs[var]
            if not c:
                continue
            rest = row.rhs - sum(
                row.coeffs[k] * assignment[k]
                for k in range(len(row.coeffs))
                if k != var and row.coeffs[k]
            )
            bound = rest / c
            if c > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None:
            value = lo
        elif hi is not None:
            value = hi
        else:
            value = Fraction(0)
        assert lo is None or hi is None or lo <= hi
        assignment[var] = value
    return assignment


def find_point(constraints, n_vars: int) -> list[Fraction]:
    """A rational point satisfying every constraint, or raise Infeasible.

    constraints: iterable of (coeffs, rhs) meaning sum coeffs[i]*x_i >= rhs.
    Deterministic: elimination from the last variable down, back-substitution
    picks the tightest lower bound when there is one.
    """
    rows = _check_constants(_make_rows(constraints, n_vars))
    order = list(range(n_vars - 1, -1, -1))
    levels = {}
    for var in order:
        levels[var] = rows
        rows = _eliminate(rows, var)
    assignment = _back_substitute(levels, order, {})
    return [assignment[k] for k in range(n_vars)]


def minimize(objective, constraints, n_vars: int):
    """Minimize sum objective[i]*x_i subject to the constraints.

    Returns (optimum, point).  Raises Infeasible or Unbounded.  The optimum
    is attained exactly: a slack variable z is pinned to the objective by a
    pair of inequalities and every x is eliminated, leaving bounds on z.
    """
    obj = tuple(Fraction(c) for c in objective)
    if len(obj) != n_vars:
        raise ValueError("objective arity mismatch")
    ext = []
    for coeffs, rhs in constraints:
        ext.append((tuple(Fraction(c) for c in coeffs) + (Fraction(0),), rhs))
    # z - obj.x >= 0 and obj.x - z >= 0 pin z == obj.x
    ext.append((tuple(-c for c in obj) + (Fraction(1),), Fraction(0)))
    ext.append((obj + (Fraction(-1),), Fraction(0)))

    rows = _check_constants(_make_rows(ext, n_vars + 1))
    order = list(range(n_vars - 1, -1, -1))  # z (index n_vars) survives
    levels = {}
    for var in order:
        levels[var] = rows
        rows = _eliminate(rows, var)

    lo = None
    for row in rows:
        c = row.coeffs[n_vars]
        assert c, "variable-free rows are filtered during elimination"
        bound = row.rhs / c
        if c > 0:
            lo = bound if lo is None else max(lo, bound)
    if lo is None:
        raise Unbounded()
    assignment = _back_substitute(levels, order, {n_vars: lo})
    point = [assignment[k] for k in range(n_vars)]
    value = sum(c * x for c, x in zip(obj, point))
    assert value == lo
    return value, point


def homogeneous_feasible(rows, n_vars: int) -> bool:
    """Whether some x satisfies every row: coeffs . x > 0 if strict, else >= 0.

    rows: iterable of (coeffs, strict) with int coefficients.  Homogeneous
    Fourier-Motzkin over int: a row with a positive and one with a negative
    coefficient on the eliminated variable combine with positive integer
    multipliers, divided by the gcd, strict if either parent is; a strict row
    with no variables left is the contradiction 0 > 0.
    """
    work = {(tuple(c), bool(s)) for c, s in rows}
    for var in range(n_vars - 1, -1, -1):
        lowers = [r for r in work if r[0][var] > 0]
        uppers = [r for r in work if r[0][var] < 0]
        work = {r for r in work if not r[0][var]}
        for lo, lo_strict in lowers:
            for up, up_strict in uppers:
                a, b = lo[var], -up[var]
                coeffs = tuple(b * x + a * y for x, y in zip(lo, up))
                g = math.gcd(*coeffs)
                if g > 1:
                    coeffs = tuple(x // g for x in coeffs)
                work.add((coeffs, lo_strict or up_strict))
    return not any(strict for _, strict in work)


def verify_infeasibility_certificate(constraints, certificate, n_vars: int) -> bool:
    """Independent check that the multipliers prove infeasibility."""
    total = [Fraction(0)] * n_vars
    rhs_total = Fraction(0)
    for idx, lam in certificate.items():
        if lam < 0:
            return False
        coeffs, rhs = constraints[idx]
        for k in range(n_vars):
            total[k] += lam * Fraction(coeffs[k])
        rhs_total += lam * Fraction(rhs)
    return all(t == 0 for t in total) and rhs_total > 0
