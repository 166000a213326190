"""Exact linear feasibility and minimization over the rationals.

One Fourier-Motzkin elimination (Schrijver, Theory of Linear and Integer
Programming, 1986, §12.2) serves find_point (the ample search and fan
validation's cone separation) and minimize.  A constraint
sum_i c_i x_i >= rhs is one int row (c_0..c_{w-1}, rhs), scaled by the lcm of
its denominators; combined rows are divided by the gcd of their entries.
Only a system found infeasible is eliminated again, with provenance columns
p_0..p_{m-1}, each row's multiplier on the m inputs: its rows differ from
the first pass's by positive factors, so every decision repeats, and the p
part of the row 0 >= positive is the Farkas certificate.  Back-substitution
keeps one common denominator.  Worst-case exponential, fine at fan scale; an
elimination level that would hold more than MAX_FM_ROWS rows raises
EliminationOverflow instead of taking all memory.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction


MAX_FM_ROWS = 200_000  # rows one elimination level may hold


class EliminationOverflow(RuntimeError):
    """Eliminating one variable would leave more than MAX_FM_ROWS rows."""

    def __init__(self, var: int, rows: int):
        super().__init__(
            f"eliminating x_{var} left more than {MAX_FM_ROWS} rows ({rows})"
        )
        self.var = var
        self.rows = rows


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


def _primitive(values) -> tuple[int, ...]:
    g = math.gcd(*values)
    return tuple(values) if g == 1 else tuple(x // g for x in values)


def _eliminate(rows, var: int, width: int):
    """The rows without x_var, then each lower/upper pair combined and made
    primitive, unless its half-space is already there or it has no variables;
    a combination 0 >= positive refutes the system, and a row past
    MAX_FM_ROWS raises EliminationOverflow."""
    lowers, uppers, out = [], [], []
    for row in rows:
        (lowers if row[var] > 0 else uppers if row[var] < 0 else out).append(row)
    seen = {_primitive(row[:width + 1]) for row in out}
    for lo in lowers:
        a = lo[var]
        for up in uppers:
            b = -up[var]  # b > 0: combine with weights b and a
            row = [b * x + a * y for x, y in zip(lo, up)]
            if any(row[:width]):
                key = _primitive(row[:width + 1])
                if key in seen:
                    continue
                seen.add(key)
                out.append(key if len(row) == width + 1 else _primitive(row))
                if len(out) > MAX_FM_ROWS:
                    raise EliminationOverflow(var, len(out))
            elif row[width] > 0:
                row = _primitive(row)
                raise Infeasible({i: Fraction(p) for i, p in enumerate(row[width + 1:]) if p})
    return out


def _fourier_motzkin(constraints, width: int, n_elim: int, provenance: bool = False):
    """Eliminate x_{n_elim-1} down to x_0 from the constraints' int rows.

    Returns (levels, rows): levels[k] holds the rows just before x_k was
    eliminated, rows what is left.  Variable-free inputs are dropped or refute.
    The provenance columns come only in the second pass over a refuted system.
    """
    constraints = list(constraints)
    if any(len(coeffs) != width for coeffs, _ in constraints):
        raise ValueError("constraint arity mismatch")
    rows, m = [], len(constraints)
    for idx, (coeffs, rhs) in enumerate(constraints):
        row, scale = (*coeffs, rhs), 1
        if not all(type(v) is int for v in row):
            values = [Fraction(v) for v in row]
            scale = math.lcm(*(v.denominator for v in values))
            row = tuple(v.numerator * (scale // v.denominator) for v in values)
        if any(row[:width]):
            rows.append(row + (0,) * idx + (scale,) + (0,) * (m - 1 - idx) if provenance else row)
        elif row[width] > 0:
            raise Infeasible({idx: Fraction(scale)})
    levels = []
    try:
        for var in range(n_elim - 1, -1, -1):
            levels.append(rows)
            rows = _eliminate(rows, var, width)
    except Infeasible:
        if provenance:
            raise
    else:
        levels.reverse()
        return levels, rows
    return _fourier_motzkin(constraints, width, n_elim, provenance=True)


def _back_substitute(levels, width: int, nums: list[int], den: int) -> list[Fraction]:
    """Fix x_0, x_1, ... in turn: tightest lower bound, else upper bound, else 0.

    The values fixed so far, and on entry those fixed beforehand, are
    nums[k] / den, so each bound is an int fraction p / q, q > 0 for a lower
    bound and q < 0 for an upper one, and bounds compare by cross-multiplying.
    """
    point = []
    for var, rows in enumerate(levels):
        lo, hi = None, None
        for row in rows:
            c = row[var]
            if not c:
                continue
            p, q = row[width] * den - sum(map(operator.mul, row, nums)), c * den
            if c > 0:
                if lo is None or p * lo[1] > lo[0] * q:
                    lo = p, q
            elif hi is None or p * hi[1] < hi[0] * q:
                hi = p, q
        assert lo is None or hi is None or lo[0] * hi[1] >= hi[0] * lo[1]
        value = Fraction(*(lo or hi or (0, 1)))
        scale = value.denominator // math.gcd(den, value.denominator)
        if scale > 1:
            den, nums = den * scale, [x * scale for x in nums]
        nums[var] = value.numerator * (den // value.denominator)
        point.append(value)
    return point


def find_point(constraints, n_vars: int) -> list[Fraction]:
    """A rational point satisfying every constraint, or raise Infeasible.

    constraints: iterable of (coeffs, rhs) meaning sum coeffs[i]*x_i >= rhs.
    Deterministic: elimination from the last variable down, back-substitution
    picks the tightest lower bound when there is one.
    """
    levels, _ = _fourier_motzkin(constraints, n_vars, n_vars)
    return _back_substitute(levels, n_vars, [0] * n_vars, 1)


def minimize(objective, constraints, n_vars: int):
    """Minimize sum objective[i]*x_i subject to the constraints.

    Returns (optimum, point).  Raises Infeasible or Unbounded.  The optimum
    is attained exactly: a last variable z is pinned to the objective by a
    pair of inequalities and every x is eliminated; z's tightest lower bound
    is the optimum, and back-substitution starts from it.
    """
    obj = tuple(c if type(c) is int else Fraction(c) for c in objective)
    if len(obj) != n_vars:
        raise ValueError("objective arity mismatch")
    ext = [(tuple(coeffs) + (0,), rhs) for coeffs, rhs in constraints]
    # z - obj.x >= 0 and obj.x - z >= 0 pin z == obj.x
    ext += [(tuple(-c for c in obj) + (1,), 0), (obj + (-1,), 0)]
    levels, rows = _fourier_motzkin(ext, n_vars + 1, n_vars)
    bounds = [Fraction(row[n_vars + 1], row[n_vars]) for row in rows if row[n_vars] > 0]
    if not bounds:
        raise Unbounded()
    lo = max(bounds)
    point = _back_substitute(levels, n_vars + 1, [0] * n_vars + [lo.numerator], lo.denominator)
    value = sum(c * x for c, x in zip(obj, point))
    assert value == lo
    return value, point


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
