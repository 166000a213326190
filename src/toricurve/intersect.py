"""Intersection numbers, ampleness and positive kernel vectors on toric 3-folds.

Divisors are integer coefficient vectors over the fan's rays.  Everything
here reads the one wall relation, Wall.terms: a divisor is ample iff its
degree on every wall curve is positive, find_ample solves those degrees as
linear inequalities, and all triple intersection numbers reduce to wall
degrees.  Nothing is ever rounded.
"""
from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from typing import NamedTuple

from .fan import Fan, NotComplete, Wall, _is_int, dual_basis, ray_matrix, walls
from .feasibility import Infeasible, find_point, minimize
from .intlinalg import dot, integer_kernel_basis


class NotAmple(ValueError):
    """The given divisor is not ample (strict positivity fails somewhere)."""


class NotProjective(ValueError):
    """The fan admits no ample divisor; carries a Farkas certificate."""

    def __init__(self, message: str, certificate=None, constraints=None):
        super().__init__(message)
        self.certificate = certificate or {}
        self.constraints = constraints or []


class NoPositiveKernel(ValueError):
    """No strictly positive integer vector in the ray matrix kernel."""


class TDivisor(namedtuple("TDivisor", "coeffs")):
    """Toric divisor sum_rho coeffs[rho] * V_rho."""

    __add__ = __radd__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(cls, coeffs: tuple[int, ...]) -> "TDivisor":
        coeffs = tuple(coeffs)
        if not all(map(_is_int, coeffs)):
            raise ValueError("divisor coefficients must be ints")
        return super().__new__(cls, coeffs)


class XiVector(NamedTuple):
    """Strictly positive integer degrees, one per ray, in the ray matrix kernel."""

    values: tuple[int, ...]
    method: str


def wall_curve_degree(fan: Fan, wall: Wall, divisor: TDivisor) -> int:
    """Degree of O(divisor) on the curve dual to the wall.

    Restriction along the wall relation n_k + n_l + a n_i + b n_j = 0 gives
    deg = c_k + c_l + a c_i + b c_j.
    """
    return sum(w * divisor.coeffs[rho] for rho, w in wall.terms)


def triple_product(fan: Fan, d1: TDivisor, d2: TDivisor, d3: TDivisor) -> int:
    """d1 . d2 . d3 as an exact integer: V_i . V_j . V_k for unit divisors."""
    for d in (d1, d2, d3):
        if len(d.coeffs) != fan.n_rays:
            raise ValueError("divisor length does not match fan")
    return sum(c * x for c, x in zip(d3.coeffs, _mixed_degrees(fan, d1, d2)))


def _mixed_degrees(fan: Fan, A: TDivisor, B: TDivisor) -> tuple[int, ...]:
    """A . B . V_rho for every ray rho, B = sum_rho b_rho V_rho, from the wall
    degrees of A.

    On the wall <n_i, n_j> with A-degree d, A . V_i . V_j = d.  div(chi^m) =
    sum_sigma <m, n_sigma> V_sigma is principal (Fulton, §5.1), so for any m_j
    with <m_j, n_j> = -1, V_j ~ sum_{i != j} <m_j, n_i> V_i and A . V_j^2 sums
    <m_j, n_i> d over j's walls.  Minus the row for j of the dual basis of a
    maximal cone containing j is such an m_j.  So each wall adds
    d (b_i + b_j <m_j, n_i>) to A . B . V_j, and symmetrically to A . B . V_i.
    """
    ms = []
    for rho in range(fan.n_rays):
        cone = next((c for c in fan.max_cones if rho in c), None)
        if cone is None:
            raise NotComplete(f"ray {rho} lies in no maximal cone")
        ms.append([-x for x in dual_basis(fan, cone)[cone.index(rho)]])
    b, out = B.coeffs, [0] * fan.n_rays
    for wall in walls(fan):
        d = wall_curve_degree(fan, wall, A)
        for s, t in ((wall.i, wall.j), (wall.j, wall.i)):
            out[s] += d * (b[t] + b[s] * dot(ms[s], fan.rays[t]))
    return tuple(out)


def is_ample(fan: Fan, divisor: TDivisor) -> bool:
    """Positive degree on every wall curve, the torus-invariant curves of a
    smooth complete fan (Fulton, §3.4).

    This is strict convexity of the support function across every wall:
    the wall relation turns the support-function inequality into the wall
    degree.
    """
    if len(divisor.coeffs) != fan.n_rays:
        raise ValueError("divisor length does not match fan")
    return all(wall_curve_degree(fan, wall, divisor) > 0 for wall in walls(fan))


def _wall_inequalities(fan: Fan, gauge) -> tuple[list, list[int]]:
    """Wall positivity as linear forms over the non-gauge coefficients.

    Each row is wall_curve_degree as a linear form, with the gauge rays'
    variables dropped.
    """
    free = [rho for rho in range(fan.n_rays) if rho not in gauge]
    pos = {rho: t for t, rho in enumerate(free)}
    rows = []
    for wall in walls(fan):
        coeffs = [0] * len(free)
        for rho, weight in wall.terms:
            if rho in pos:
                coeffs[pos[rho]] += weight
        rows.append((tuple(coeffs), 1))
    return rows, free


def find_ample(fan: Fan) -> TDivisor:
    """Deterministic ample divisor, or NotProjective with a Farkas certificate.

    Divisors differing by div(m) give the same geometry, so the three rays of
    the first maximal cone are gauge-fixed to coefficient zero.  Margin 1 is
    exact: the system is homogeneous, so strict feasibility scales.
    """
    gauge = fan.max_cones[0]
    rows, free = _wall_inequalities(fan, gauge)
    try:
        point = find_point(rows, len(free))
    except Infeasible as exc:
        raise NotProjective(
            "no ample divisor exists: wall positivity is infeasible",
            certificate=exc.certificate,
            constraints=rows,
        ) from exc
    scale = lcm(*(f.denominator for f in point)) if point else 1
    coeffs = [0] * fan.n_rays
    for rho, value in zip(free, point):
        scaled = value * scale
        assert scaled.denominator == 1
        coeffs[rho] = int(scaled)
    result = TDivisor(tuple(coeffs))
    assert is_ample(fan, result)
    return result


XI_METHODS = ("intersection", "kernel")


def xi_vector(fan: Fan, ample: TDivisor | None, method: str = "intersection") -> XiVector:
    """Strictly positive integer kernel vector of the ray matrix, by one of
    XI_METHODS.

    intersection: degrees of the rays' divisors against the square of an
    ample divisor.  kernel: exact feasibility over the integer kernel basis,
    minimizing the coefficient sum, scaled back to integers.
    """
    if method not in XI_METHODS:
        raise ValueError(f"unknown method {method!r}")
    A = ray_matrix(fan)
    if method == "intersection":
        if ample is None or not is_ample(fan, ample):
            raise NotAmple("intersection method needs an ample divisor")
        values = _mixed_degrees(fan, ample, ample)
    else:
        basis = integer_kernel_basis(A)
        if not basis:
            raise NoPositiveKernel("ray matrix has trivial kernel")
        rows = [(tuple(vec[j] for vec in basis), 1) for j in range(fan.n_rays)]
        objective = tuple(sum(vec) for vec in basis)
        try:
            _, y = minimize(objective, rows, len(basis))
        except Infeasible as exc:
            raise NoPositiveKernel("no positive combination of kernel basis") from exc
        # v / den = sum_t y_t basis_t over one common denominator of y; dividing
        # v by gcd(den, v) scales the sum by the lcm of its reduced denominators
        den = lcm(*(f.denominator for f in y))
        ys = [f.numerator * (den // f.denominator) for f in y]
        v = [sum(vec[j] * yt for vec, yt in zip(basis, ys)) for j in range(fan.n_rays)]
        g = gcd(den, *v)
        values = tuple(x // g for x in v)

    if min(values) <= 0:
        raise NoPositiveKernel(f"derived degrees are not strictly positive: {values}")
    assert all(sum(a * v for a, v in zip(row, values)) == 0 for row in A)
    return XiVector(values, method)
