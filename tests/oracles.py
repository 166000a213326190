"""Independent cross-checks used to pin expected values in the tests.

Everything here recomputes results through a different route than the
package: brute-force enumeration, quotient-ring normal forms via sympy
Groebner bases, plain Fraction arithmetic (evaluation of factored
functions and derivatives factor by factor, in place of the integer
homogeneous evaluation; congruences by substitution over Q in place of the
homogeneous test over Z), margin-1 Fraction feasibility in
place of the integer cone-separation test, the pairwise separation scan in
place of validate's sheet-count certificate, Fourier-Motzkin over Fraction
rows with sparse provenance dicts in place of the int rows of
`feasibility`, the divided cross differences built over Q by product
and exact division in place of the integer Bezoutian, and the
collision-with-infinity polynomial built from N and D in place of the
Bezoutian's top row; the collisions with infinity and the tangent points
searched chart by chart, each from the gcd of the chart's own top rows or
diagonals, in place of certify's one torus pass per curve.  The straightforward
forms of the package's fast paths live here too: divisors and factored
functions canonicalised by a set and a Fraction sort, character functions
as products of powers, the sampler with a CurvePoint per candidate,
principal functions checked by rebuilding their divisor, and the morphism
conditions compared as whole divisors, N and D as ring products, the inverse of a
unimodular matrix minor by minor, the primitive collections by looping
over every 2-, 3- and 4-subset of rays, kernel xi scaled by the lcm of the
reduced denominators of Fraction sums, each wall's coefficients from one such
inverse per wall, ampleness as strict convexity of the support function
over cone characters, the integer kernel basis as the V kernel
columns of a full Smith normal form (U, S, V, divisibility pass included)
in place of the package's single sweep, the self-intersection V_rho^3 from a
canonical character (Smith form plus a Hermite reduction) and the Groebner
fallback's basis from `sympy.groebner` on expressions, resultants from
sympy's subresultant PRS and, sign included, the Sylvester determinant
over Z[u], the coprimality test mod 2^61 - 1 as the subresultant PRS over Z on
every pair, reduced mod q, in place of the exact small-degree resultant and
the remainder sequence mod q, gcds and
factorizations from sympy's ring in place of the
package's GCDHEU on ints and closed-form factors, and factoring before
dropping excluded roots.  So
do the random smoke scans: collision search on random pairs of points and
chart gluing on random characters.  Tests compare package output against these oracles,
never the other way around.  Two helpers here are not oracles but test-only
views of the package: `unit_divisor` (V_rho) and `triple_intersection`, entry
k of `intersect._mixed_degrees` for two unit divisors.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import sympy
from sympy.polys.domains import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from toricurve import verify
from toricurve.curve import (
    _MASK,
    INFINITY,
    POLE,
    CDivisor,
    CurvePoint,
    NotDegreeZero,
    RationalFunction,
    _mix,
    evaluate,
)
from toricurve.embed import ConditionsReport, pairing_matrix
from toricurve.fan import (
    Fan, ValidationReport, _cones_intersect_in_face, _pair_census, cone_matrix, is_primitive,
    primitive_collections,
)
from toricurve.feasibility import Infeasible, Unbounded
from toricurve.intersect import TDivisor, _mixed_degrees
from toricurve.intlinalg import NotUnimodular, det
from toricurve.poly import (
    _Q_BITS, _bezoutian, _common_factor, _diagonal, _divides, _str, _trim,
)
from toricurve.verify import CheckResult

_QSU, _QS, _QU = ring("s,u", QQ)


def evaluate_by_fractions(f, p: CurvePoint):
    """(f(p), f'(p)) by Fraction arithmetic factor by factor, or POLE: the
    reference for the package's integer homogeneous evaluation.

    At infinity the local coordinate is s = 1/t and the derivative is taken
    in s, so an order-m zero at infinity reports (0, 0) for m > 1.
    """
    if p.is_infinity:
        m = f.order_at_infinity
        if m < 0:
            return POLE
        # g(s) = f(1/s) = c * s^m * prod (1 - a_i s)^{e_i}
        if m > 1:
            return Fraction(0), Fraction(0)
        if m == 1:
            return Fraction(0), f.constant
        value = f.constant
        deriv = -f.constant * sum(Fraction(e) * r for r, e in f.factors)
        return value, deriv

    t = p.finite
    here = 0
    for r, e in f.factors:
        if r == t:
            here = e
            break
    if here < 0:
        return POLE
    if here > 1:
        return Fraction(0), Fraction(0)
    rest = f.constant
    for r, e in f.factors:
        if r != t:
            rest *= (t - r) ** e
    if here == 1:
        return Fraction(0), rest
    log_deriv = sum(Fraction(e, 1) / (t - r) for r, e in f.factors)
    return rest, rest * log_deriv


def congruence_collision_qq(NDs, s0: Fraction, mu) -> bool:
    """The congruence re-check over Q, the reference for the package's test
    over Z: N_i(u) D_i(s0) - N_i(s0) D_i(u) = 0 mod mu(u) in Q[u], for N_i,
    D_i in Z[u] and mu in Q[s, u] free of s, by substitution in Q[s, u]."""
    x = QQ(s0.numerator, s0.denominator)
    NDs = [(N.set_ring(_QSU), D.set_ring(_QSU)) for N, D in NDs]
    return all(not (N * D.subs(_QU, x) - N.subs(_QU, x) * D).rem(mu) for N, D in NDs)


def kernel_vectors_brute_force(rows, bound):
    """All nonzero integer kernel vectors with entries in [-bound, bound]."""
    n = len(rows[0])
    out = []
    for vec in product(range(-bound, bound + 1), repeat=n):
        if all(v == 0 for v in vec):
            continue
        if all(sum(r[k] * vec[k] for k in range(n)) == 0 for r in rows):
            out.append(vec)
    return out


def farkas_refutes(constraints, multipliers, n_vars):
    """Plain-Fraction check that nonnegative multipliers refute the system.

    Each constraint reads coeffs . x >= rhs; a combination with all-zero
    coefficients and positive right-hand side is a contradiction.
    """
    total = [Fraction(0)] * n_vars
    rhs = Fraction(0)
    for idx, lam in multipliers.items():
        lam = Fraction(lam)
        if lam < 0:
            return False
        coeffs, bound = constraints[idx]
        for k in range(n_vars):
            total[k] += lam * Fraction(coeffs[k])
        rhs += lam * Fraction(bound)
    return all(t == 0 for t in total) and rhs > 0


@dataclass(frozen=True)
class _FMRow:
    coeffs: tuple[Fraction, ...]
    rhs: Fraction
    combo: tuple[tuple[int, Fraction], ...]  # provenance over original rows


def _fm_normalize(coeffs, rhs, combo):
    scale = None
    for c in coeffs:
        if c:
            scale = 1 / abs(c)
            break
    if scale is None or scale == 1:
        return _FMRow(tuple(coeffs), rhs, combo)
    return _FMRow(
        tuple(c * scale for c in coeffs),
        rhs * scale,
        tuple((i, lam * scale) for i, lam in combo),
    )


def _fm_merge_combo(c1, c2, s1: Fraction, s2: Fraction):
    acc: dict[int, Fraction] = {}
    for i, lam in c1:
        acc[i] = acc.get(i, Fraction(0)) + s1 * lam
    for i, lam in c2:
        acc[i] = acc.get(i, Fraction(0)) + s2 * lam
    return tuple(sorted(acc.items()))


def _fm_make_rows(constraints, n_vars: int) -> list[_FMRow]:
    rows = []
    for idx, (coeffs, rhs) in enumerate(constraints):
        if len(coeffs) != n_vars:
            raise ValueError("constraint arity mismatch")
        rows.append(
            _FMRow(
                tuple(Fraction(c) for c in coeffs),
                Fraction(rhs),
                ((idx, Fraction(1)),),
            )
        )
    return rows


def _fm_check_constants(rows: list[_FMRow]):
    """Drop variable-free rows; a positive rhs among them is a contradiction."""
    kept = []
    for row in rows:
        if any(row.coeffs):
            kept.append(row)
        elif row.rhs > 0:
            raise Infeasible(dict(row.combo))
    return kept


def _fm_eliminate(rows: list[_FMRow], var: int) -> list[_FMRow]:
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
            combo = _fm_merge_combo(lo.combo, up.combo, -b, a)
            row = _fm_normalize(coeffs, rhs, combo)
            key = (row.coeffs, row.rhs)
            if key not in seen:
                seen.add(key)
                out.append(row)
    return _fm_check_constants(out)


def _fm_back_substitute(levels, order, assignment: dict[int, Fraction]):
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


def fm_find_point(constraints, n_vars: int) -> list[Fraction]:
    """feasibility.find_point's reference: Fraction rows with sparse provenance.

    Each row is scaled so its first nonzero coefficient is +-1, and each
    combination merges the parents' multiplier dicts.
    """
    rows = _fm_check_constants(_fm_make_rows(constraints, n_vars))
    order = list(range(n_vars - 1, -1, -1))
    levels = {}
    for var in order:
        levels[var] = rows
        rows = _fm_eliminate(rows, var)
    assignment = _fm_back_substitute(levels, order, {})
    return [assignment[k] for k in range(n_vars)]


def fm_minimize(objective, constraints, n_vars: int):
    """feasibility.minimize's reference, with its own elimination loop.

    A slack variable z is pinned to the objective by a pair of inequalities
    and every x is eliminated, leaving bounds on z.
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

    rows = _fm_check_constants(_fm_make_rows(ext, n_vars + 1))
    order = list(range(n_vars - 1, -1, -1))  # z (index n_vars) survives
    levels = {}
    for var in order:
        levels[var] = rows
        rows = _fm_eliminate(rows, var)

    lo = None
    for row in rows:
        c = row.coeffs[n_vars]
        assert c, "variable-free rows are filtered during elimination"
        bound = row.rhs / c
        if c > 0:
            lo = bound if lo is None else max(lo, bound)
    if lo is None:
        raise Unbounded()
    assignment = _fm_back_substitute(levels, order, {n_vars: lo})
    point = [assignment[k] for k in range(n_vars)]
    value = sum(c * x for c, x in zip(obj, point))
    assert value == lo
    return value, point


def cones_meet_in_face_lp(rays, ca, cb):
    """Margin-1 Fraction feasibility route to fan.validate's cone separation.

    Some m vanishes on the shared rays, has m . a >= 1 on the other rays of
    ca and m . b <= -1 on the other rays of cb; strictness is
    scale-invariant, so margin 1 decides the strict system exactly.
    """
    common = set(ca) & set(cb)
    constraints = []
    for idx in ca:
        ray = rays[idx]
        if idx in common:
            constraints.append((ray, 0))
            constraints.append((tuple(-x for x in ray), 0))
        else:
            constraints.append((ray, 1))
    for idx in cb:
        if idx not in common:
            constraints.append((tuple(-x for x in rays[idx]), 1))
    try:
        fm_find_point(constraints, 3)
        return True
    except Infeasible:
        return False


def validate_by_pair_scan(fan: Fan) -> ValidationReport:
    """fan.validate as it was before the sheet-count certificate, unmemoised:
    every pair of maximal cones goes through the Fourier-Motzkin separation
    test.  The body is kept verbatim.
    """
    issues: list[tuple] = []
    for idx, ray in enumerate(fan.rays):
        if not is_primitive(ray):
            issues.append(("non_primitive_ray", idx))
    for idx, cone in enumerate(fan.max_cones):
        if abs(det(cone_matrix(fan, cone))) != 1:
            issues.append(("cone_not_unimodular", idx))
    smooth = not issues

    census = _pair_census(fan)
    complete = bool(fan.max_cones)
    if not fan.max_cones:
        issues.append(("no_cones",))
    for pair, owners in sorted(census.items()):
        if len(owners) != 2:
            complete = False
            issues.append(("open_wall", pair, len(owners)))
    for a in range(len(fan.max_cones)):
        for b in range(a + 1, len(fan.max_cones)):
            if not _cones_intersect_in_face(fan, fan.max_cones[a], fan.max_cones[b]):
                complete = False
                issues.append(("bad_cone_intersection", a, b))
    if fan.max_cones:
        used = {idx for cone in fan.max_cones for idx in cone}
        for idx in range(fan.n_rays):
            if idx not in used:
                complete = False
                issues.append(("unused_ray", idx))
    counts = (len(fan.rays), len(census), len(fan.max_cones))
    return ValidationReport(smooth, complete, counts, tuple(issues))


def cross_quotients_qq(coords):
    """Q_i = (F_i G_i(u) - F_i(u) G_i) / (s - u) in Q[s, u], one per coordinate.

    F_i = c_i prod (s - a)^e over the zeros and G_i = prod (s - a)^-e over
    the poles, with the rational roots a and the constant c_i as given;
    F_i(u), G_i(u) by composition, the quotient by exact division.
    """
    out = []
    for f in coords:
        F, G = _QSU(QQ(f.constant.numerator, f.constant.denominator)), _QSU.one
        for a, e in f.factors:
            lin = _QS - QQ(a.numerator, a.denominator)
            if e > 0:
                F *= lin ** e
            else:
                G *= lin ** -e
        Fu, Gu = F.compose(_QS, _QU), G.compose(_QS, _QU)
        out.append((F * Gu - Fu * G).exquo(_QS - _QU))
    return out


def infinity_collision_poly(N, D) -> list:
    """h = lc(D) N - n_d D for int tuples N, D, top degree first, with
    deg N <= deg D = d and n_d the coefficient of t^d in N: N / D takes
    its value at infinity exactly where h vanishes.  An int list without
    leading zeros, built from N and D where the certifier reads -h off the
    Bezoutian's top row."""
    pad = len(D) - len(N)
    n_d = 0 if pad else N[0]
    h = [D[0] * a - n_d * b for a, b in zip((0,) * pad + tuple(N), D)]
    while h and not h[0]:
        h = h[1:]
    return h


def residuals_qq(coords):
    """The cross quotients divided by their monic gcd over Q, when it is not constant."""
    qs = cross_quotients_qq(coords)
    g = qs[0]
    for q in qs[1:]:
        g = g.gcd(q)
    return qs if g.is_ground else [q.exquo(g) for q in qs]


class ChowOracle:
    """Degree-3 products in the rational quotient ring of a smooth complete fan.

    The ring is Q[x_rho] modulo the products over ray sets spanning no cone
    and the three linear relations sum_rho n_rho[c] * x_rho.  Its top graded
    piece is one-dimensional and every maximal cone's monomial represents the
    unit of the degree map, so a triple product is the proportionality factor
    between normal forms.  This expands linear equivalence mechanically and
    shares no code with the package's wall-relation reduction.
    """

    def __init__(self, rays, max_cones):
        self.n = len(rays)
        self.xs = sympy.symbols(f"x0:{self.n}")
        cone_sets = [frozenset(c) for c in max_cones]
        gens = []
        for size in (2, 3):
            for sub in combinations(range(self.n), size):
                if not any(frozenset(sub) <= c for c in cone_sets):
                    expr = sympy.Integer(1)
                    for i in sub:
                        expr *= self.xs[i]
                    gens.append(expr)
        for c in range(3):
            lin = sum(rays[i][c] * self.xs[i] for i in range(self.n))
            gens.append(sympy.expand(lin))
        self.basis = sympy.groebner(gens, *self.xs, order="grevlex")
        self.ref = self._normal_form(max_cones[0])
        assert self.ref != 0, "a maximal cone monomial cannot vanish"
        for cone in max_cones[1:]:
            assert sympy.expand(self._normal_form(cone) - self.ref) == 0
        self._cache = {}

    def _normal_form(self, triple):
        i, j, k = triple
        mono = self.xs[i] * self.xs[j] * self.xs[k]
        return sympy.expand(self.basis.reduce(mono)[1])

    def triple(self, i, j, k):
        key = tuple(sorted((i, j, k)))
        if key in self._cache:
            return self._cache[key]
        nf = self._normal_form(key)
        if nf == 0:
            value = Fraction(0)
        else:
            q = sympy.cancel(nf / self.ref)
            assert q.is_Rational, "degree-3 classes must be proportional"
            value = Fraction(int(q.p), int(q.q))
        self._cache[key] = value
        return value

    def triple_product(self, c1, c2, c3):
        """Trilinear expansion of a product of three divisor classes."""
        total = Fraction(0)
        for i in range(self.n):
            if not c1[i]:
                continue
            for j in range(self.n):
                if not c2[j]:
                    continue
                for k in range(self.n):
                    if not c3[k]:
                        continue
                    term = self.triple(i, j, k)
                    if term:
                        total += Fraction(c1[i]) * c2[j] * c3[k] * term
        return total

    def degree_vector(self, coeffs):
        """Squared class against each ray divisor, as exact Fractions."""
        out = []
        for j in range(self.n):
            unit = [0] * self.n
            unit[j] = 1
            out.append(self.triple_product(coeffs, coeffs, unit))
        return tuple(out)


def _point_order(p: CurvePoint):
    return (1, Fraction(0)) if p.finite is None else (0, p.finite)


@dataclass(frozen=True)
class DivisorReference:
    """CDivisor canonicalised the plain way: a set for repeats, a Fraction sort."""

    entries: tuple

    def __post_init__(self) -> None:
        pts = [p for p, _ in self.entries]
        if len(set(pts)) != len(pts):
            raise ValueError("divisor points must be distinct")
        if any(m == 0 for _, m in self.entries):
            raise ValueError("zero multiplicities are not stored")
        canon = tuple(sorted(self.entries, key=lambda e: _point_order(e[0])))
        object.__setattr__(self, "entries", canon)

    @classmethod
    def of(cls, mapping) -> "DivisorReference":
        items = mapping.items() if isinstance(mapping, dict) else mapping
        acc = {}
        for p, m in items:
            if not isinstance(p, CurvePoint):
                p = CurvePoint(p)
            acc[p] = acc.get(p, 0) + m
        return cls(tuple((p, m) for p, m in acc.items() if m))


@dataclass(frozen=True)
class FunctionReference:
    """RationalFunction canonicalised the plain way, Fraction(x) on every value."""

    constant: Fraction
    factors: tuple

    def __post_init__(self) -> None:
        c = Fraction(self.constant)
        if c == 0:
            raise ValueError("the zero function is not representable")
        roots = [r for r, _ in self.factors]
        if len(set(roots)) != len(roots):
            raise ValueError("factor roots must be distinct")
        if any(e == 0 for _, e in self.factors):
            raise ValueError("zero exponents are not stored")
        canon = tuple(
            sorted(((Fraction(r), e) for r, e in self.factors), key=lambda f: f[0])
        )
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "factors", canon)

    @classmethod
    def of(cls, constant, factors) -> "FunctionReference":
        items = factors.items() if isinstance(factors, dict) else factors
        acc = {}
        for r, e in items:
            r = Fraction(r)
            acc[r] = acc.get(r, 0) + e
        return cls(Fraction(constant), tuple((r, e) for r, e in acc.items() if e))

    def divisor(self) -> DivisorReference:
        entries = [(CurvePoint(r), e) for r, e in self.factors]
        o = -sum(e for _, e in self.factors)
        if o:
            entries.append((INFINITY, o))
        return DivisorReference.of(entries)

    def __mul__(self, other: "FunctionReference") -> "FunctionReference":
        return FunctionReference.of(
            self.constant * other.constant, self.factors + other.factors
        )

    def inverse(self) -> "FunctionReference":
        return FunctionReference(1 / self.constant, tuple((r, -e) for r, e in self.factors))

    def __pow__(self, k: int) -> "FunctionReference":
        if k == 0:
            return FunctionReference(Fraction(1), ())
        return FunctionReference(self.constant ** k, tuple((r, k * e) for r, e in self.factors))


def epsilon_by_powers(epsilon, m) -> FunctionReference:
    """prod eps_i^{m_i} as a running product of powers, each step canonicalised."""
    out = FunctionReference(Fraction(1), ())
    for f, k in zip(epsilon, m):
        if k:
            out = out * (FunctionReference(f.constant, f.factors) ** k)
    return out


def _hash_rational(seed: int, counter: int) -> Fraction:
    """The sampler's candidate stream, one Fraction per counter."""
    h = _mix((_mix(seed & _MASK) + counter) & _MASK)
    return Fraction((h % 241) - 120, 1 + ((h >> 32) % 4))


def sample_divisor_by_points(degree: int, seed: int, taken=None) -> CDivisor:
    """The sampler as a CurvePoint per candidate, checked against a set of
    CurvePoints, the chosen points canonicalised by CDivisor's own sort.
    `taken`, a set of CurvePoints, is avoided and gains those drawn."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    taken = set() if taken is None else taken
    chosen = []
    counter = 0
    while len(chosen) < degree:
        candidate = CurvePoint(_hash_rational(seed, counter))
        counter += 1
        if candidate in taken:
            continue
        taken.add(candidate)
        chosen.append(candidate)
        if counter > 100000:
            raise RuntimeError("candidate stream exhausted")
    return CDivisor(tuple((p, 1) for p in chosen))


def divisor_by_points(f) -> CDivisor:
    """div f with every entry through CDivisor's canonicalising constructor."""
    entries = [(CurvePoint(r), e) for r, e in f.factors]
    o = -sum(e for _, e in f.factors)
    if o:
        entries.append((INFINITY, o))
    return CDivisor(tuple(entries))


def principal_function_by_rebuild(divisor: CDivisor) -> RationalFunction:
    """The function through RationalFunction's canonicalising constructor,
    checked by rebuilding its divisor."""
    if divisor.degree != 0:
        raise NotDegreeZero(f"divisor has degree {divisor.degree}")
    factors = tuple((p.finite, m) for p, m in divisor.entries if not p.is_infinity)
    f = RationalFunction(Fraction(1), factors)
    assert divisor_by_points(f) == divisor
    return f


def pairing_divisor_by_points(divisors, coeffs) -> CDivisor:
    """sum_rho coeffs[rho] * D_rho summed in a dict keyed by CurvePoint."""
    return CDivisor.of(
        (p, k * m) for k, d in zip(coeffs, divisors) if k for p, m in d.entries
    )


def conditions_by_divisors(data) -> ConditionsReport:
    """The morphism conditions with one support per collection member and
    div eps_i compared with the pairing combination as whole CDivisors."""
    disjoint_failures = []
    for coll in primitive_collections(data.fan):
        shared = frozenset.intersection(*(data.divisors[rho].support() for rho in coll))
        if shared:
            pts = tuple(sorted(shared, key=lambda p: p.sort_key()))
            disjoint_failures.append((coll, pts))
    a = pairing_matrix(data.fan)
    divisor_failures = []
    for i in range(3):
        expected = pairing_divisor_by_points(data.divisors, a[i])
        actual = divisor_by_points(data.epsilon[i])
        if actual != expected:
            diff = actual + (-expected)
            divisor_failures.append((i, tuple(diff.entries)))
    return ConditionsReport(tuple(disjoint_failures), tuple(divisor_failures))


def integer_parts_by_ring_products(f, x):
    """N and D as ring products of the factors (den * x - num)^e, one at a time."""
    num, den = x.ring.one, x.ring.one
    for r, e in f.factors:
        lin = r.denominator * x - r.numerator
        if e > 0:
            num *= lin ** e
        else:
            den *= lin ** -e
    return num, den


def primitive_collections_by_subsets(fan):
    """Every 2-, 3- and 4-subset of rays tested in turn: the reference for
    `fan.primitive_collections`, which reads the collections off the edges."""
    cones = frozenset(fan.max_cones)
    pairs = frozenset(_pair_census(fan))
    n = fan.n_rays
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in pairs:
                out.append((i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in pairs:
                continue
            for k in range(j + 1, n):
                if (i, k) in pairs and (j, k) in pairs and (i, j, k) not in cones:
                    out.append((i, j, k))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    triples = ((i, j, k), (i, j, l), (i, k, l), (j, k, l))
                    if all(t in cones for t in triples):
                        out.append((i, j, k, l))
    return tuple(sorted(out, key=lambda c: (len(c), c)))


def kernel_xi_by_fractions(basis, y, n_rays):
    """sum_t y_t basis_t as Fractions, scaled by the lcm of their reduced
    denominators: the reference for kernel `intersect.xi_vector`, which puts
    y over one denominator and divides by a gcd."""
    rat = [sum(Fraction(vec[j]) * y[t] for t, vec in enumerate(basis)) for j in range(n_rays)]
    scale = lcm(*(f.denominator for f in rat))
    return tuple(int(f * scale) for f in rat)


def unimodular_inverse_by_minors(rows):
    """The adjugate built from one determinant per minor, as row tuples."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NotUnimodular("matrix is not square")
    d = det(rows)
    if d not in (1, -1):
        raise NotUnimodular(f"determinant is {d}, not +-1")

    def minor(i: int, j: int):
        return [[rows[a][b] for b in range(n) if b != j] for a in range(n) if a != i]

    return tuple(
        tuple(d * ((-1) ** (i + j)) * det(minor(j, i)) for j in range(n)) for i in range(n)
    )


def _adjacent_cones(fan):
    """(i, j, cone_a, k, l) for each pair of maximal cones sharing the face
    <n_i, n_j>, with n_k the third ray of cone_a and n_l of the other."""
    out = []
    for ca, cb in combinations(fan.max_cones, 2):
        common = sorted(set(ca) & set(cb))
        if len(common) == 2:
            (k,), (l,) = set(ca) - set(common), set(cb) - set(common)
            out.append((*common, ca, k, l))
    return out


def _columns(fan, cone):
    return [[fan.rays[rho][t] for rho in cone] for t in range(3)]


def wall_coefficients_by_inversion(fan):
    """{(i, j): (a, b)} with n_k + n_l + a n_i + b n_j = 0, from inverting the
    matrix of (n_i, n_j, n_k) once per wall: the reference for `fan.walls`,
    which reads the dual basis of cone_a that it caches per cone."""
    out = {}
    for i, j, _, k, l in _adjacent_cones(fan):
        inverse = unimodular_inverse_by_minors(_columns(fan, (i, j, k)))
        alpha, beta, gamma = (sum(x * y for x, y in zip(row, fan.rays[l])) for row in inverse)
        assert gamma == -1
        out[(i, j)] = (-alpha, -beta)
    return out


def is_ample_by_characters(fan, coeffs):
    """Strict convexity of the support function across every wall: the
    reference for `intersect.is_ample`, which reads wall degrees.

    Crossing each wall once suffices: the characters of adjacent cones agree
    on the wall, so their difference is a multiple of the wall's defining
    functional and the strict inequality is symmetric in the two sides.  The
    character m of cone_a, <m, n_rho> = -c_rho on its rays, is
    -sum_t c_(rho_t) m_t over the cone's dual basis m_t.
    """
    for _, _, ca, _, l in _adjacent_cones(fan):
        duals = unimodular_inverse_by_minors(_columns(fan, ca))
        m = [-sum(coeffs[rho] * d[t] for rho, d in zip(ca, duals)) for t in range(3)]
        if sum(a * b for a, b in zip(m, fan.rays[l])) <= -coeffs[l]:
            return False
    return True


def matmul(a, b):
    """Plain product of two matrices given as int rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def smith_normal_form(rows):
    """(U, S, V) with U A V == S, U and V unimodular, S diagonal, d_k | d_{k+1}.

    The reference for `intlinalg.integer_kernel_basis`: the kernel basis is
    V's columns past the rank.  Pivot rule: smallest absolute value among
    nonzero entries of the working submatrix, ties broken by lowest
    (row, col); with the fixed sweep order the output is deterministic.
    """
    r, c = len(rows), len(rows[0]) if rows else 0
    if r == 0 or c == 0:
        raise ValueError("matrix must be nonempty")
    m = [list(row) for row in rows]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]
    nmin = min(r, c)

    def swap_rows(i1: int, i2: int) -> None:
        m[i1], m[i2] = m[i2], m[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1: int, j2: int) -> None:
        for row in m:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def negate_row(i: int) -> None:
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    def submul_row(dst: int, src: int, q: int) -> None:
        m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def submul_col(dst: int, src: int, q: int) -> None:
        for row in m:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def diagonalize() -> None:
        k = 0
        while k < nmin:
            best = None
            for i in range(k, r):
                for j in range(k, c):
                    a = abs(m[i][j])
                    if a and (best is None or a < best[0]):
                        best = (a, i, j)
            if best is None:
                break
            _, pi, pj = best
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            if m[k][k] < 0:
                negate_row(k)
            for i in range(k + 1, r):
                q = m[i][k] // m[k][k]
                if q:
                    submul_row(i, k, q)
            if any(m[i][k] for i in range(k + 1, r)):
                continue  # a remainder < pivot appeared; re-pick pivot
            for j in range(k + 1, c):
                q = m[k][j] // m[k][k]
                if q:
                    submul_col(j, k, q)
            if any(m[k][j] for j in range(k + 1, c)):
                continue
            k += 1

    diagonalize()
    while True:
        d = [m[k][k] for k in range(nmin)]
        viol = next(
            ((k, l) for k in range(nmin) for l in range(k + 1, nmin)
             if d[k] and d[l] % d[k] != 0),
            None,
        )
        if viol is None:
            break
        k, l = viol
        submul_col(k, l, -1)  # pull d_l into column k, then re-reduce
        diagonalize()

    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert matmul(matmul(u, rows), v) == m
    return u, m, v


def kernel_basis_by_smith_form(rows):
    """V's columns past the rank of the Smith form, in column order."""
    _, s, v = smith_normal_form(rows)
    nmin = min(len(s), len(v))
    return [
        tuple(row[j] for row in v) for j in range(len(v)) if j >= nmin or s[j][j] == 0
    ]


def _hnf_rows(rows):
    """Row echelon lattice basis with positive pivots, entries above reduced."""
    work = [list(r) for r in rows if any(r)]
    m = len(work)
    n = len(work[0]) if m else 0
    r = 0
    for col in range(n):
        while True:
            nz = [i for i in range(r, m) if work[i][col]]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(work[i][col]))
            for i in nz:
                if i != piv:
                    q = work[i][col] // work[piv][col]
                    work[i] = [x - q * y for x, y in zip(work[i], work[piv])]
        nz = [i for i in range(r, m) if work[i][col]]
        if not nz:
            continue
        work[r], work[nz[0]] = work[nz[0]], work[r]
        if work[r][col] < 0:
            work[r] = [-x for x in work[r]]
        for i in range(r):
            q = work[i][col] // work[r][col]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
    return [tuple(row) for row in work[:r]]


def character_pairing_neg_one(ray):
    """Canonical character m with <m, ray> = -1 for a primitive ray.

    Particular solution from the Smith form of the ray as a column, then the
    canonical representative modulo the rank-2 sublattice pairing to zero.
    """
    u_rows, s, v = smith_normal_form([[x] for x in ray])
    assert s[0][0] == 1, f"ray {ray} is not primitive"
    v = v[0][0]
    m = [-v * x for x in u_rows[0]]
    for row in _hnf_rows([tuple(u_rows[1]), tuple(u_rows[2])]):
        p = next(i for i, x in enumerate(row) if x)
        q = m[p] // row[p]
        m = [x - q * y for x, y in zip(m, row)]
    assert sum(a * b for a, b in zip(m, ray)) == -1
    return tuple(m)


def unit_divisor(fan, rho):
    """V_rho as a TDivisor."""
    return TDivisor(tuple(1 if t == rho else 0 for t in range(fan.n_rays)))


def triple_intersection(fan, i, j, k):
    """V_i . V_j . V_k as an exact integer: entry k of the package's one wall pass."""
    for idx in (i, j, k):
        if not 0 <= idx < fan.n_rays:
            raise ValueError(f"ray index out of range: {idx}")
    return _mixed_degrees(fan, unit_divisor(fan, i), unit_divisor(fan, j))[k]


def self_triple_by_canonical_character(fan, rho):
    """V_rho^3 = sum_{sigma != rho} <m, n_sigma> V_rho^2 V_sigma for the canonical m."""
    m = character_pairing_neg_one(fan.rays[rho])
    return sum(
        sum(a * b for a, b in zip(m, fan.rays[other])) * triple_intersection(fan, rho, rho, other)
        for other in range(fan.n_rays)
        if other != rho
    )


def groebner_by_expr(polys, gens_ring):
    """The Groebner fallback's reference: `sympy.groebner` on expressions.

    sympy converts the inputs back to polynomials and picks Z or Q from
    their coefficients.  Returns the lex basis over the generators of
    `gens_ring` as expressions, and the domain sympy picked.
    """
    gb = sympy.groebner([p.as_expr() for p in polys], *gens_ring.symbols, order="lex")
    return list(gb.exprs), gb.domain


def resultant_by_prs(f, g):
    """Res_s(f, g) for f, g in Z[s, u] by sympy's subresultant PRS, the
    reference for the package's evaluation-interpolation resultant; its sign
    can differ from the Sylvester determinant's.  For f, g in one variable
    it is the integer Res(f, g) up to sign."""
    return f.resultant(g)


def resultant_by_sylvester(f, g):
    """Res_s(f, g) for f, g in Z[s, u] of positive degree in s: the
    determinant of the Sylvester matrix over Z[u] by DomainMatrix, the
    reference for the sign that the subresultant PRS does not fix."""
    zu = ring("u", ZZ)[0]
    n, m = f.degree(0), g.degree(0)
    coeffs = [[zu({(j,): c for (i, j), c in p.items() if i == k}) for k in range(d, -1, -1)]
              for p, d in ((f, n), (g, m))]
    rows = [[zu.zero] * i + coeffs[0] + [zu.zero] * (m - 1 - i) for i in range(m)]
    rows += [[zu.zero] * i + coeffs[1] + [zu.zero] * (n - 1 - i) for i in range(n)]
    return DomainMatrix(rows, (n + m, n + m), zu.to_domain()).det()


def coprime_by_remainders_mod_q(polys) -> bool:
    """poly._coprime's reference: on every pair of polys (int lists, top
    degree first) whose leading coefficients q = 2^61 - 1 does not divide,
    Res over Z by sympy's subresultant PRS, reduced mod q.  It shares no
    code with the package's closed form or its remainder sequence mod q."""
    q = (1 << _Q_BITS) - 1
    zt = ring("t", ZZ)[0]
    pairs = ((f, g) for f, g in combinations(polys, 2) if f[0] % q and g[0] % q)
    return any(resultant_by_prs(zt.from_dense(f), zt.from_dense(g)) % q for f, g in pairs)


def gcd_by_ring(polys):
    """The gcd of nonzero polys by sympy's ring gcd, pairwise from the left
    and stopping at a constant as `poly._gcd_all` does: the reference for
    its GCDHEU on ints, and a gcd over Q as well as over Z.

    The result's leading coefficient is made positive: sympy's heugcd keeps
    the sign of an input when it recovers the gcd through a cofactor, as it
    does for gcd(f, f) with f = -(2^61 - 1) t^2 + 5.
    """
    g = polys[0]
    for p in polys[1:]:
        if g.is_ground:
            break
        g = g.gcd(p)
    return -g if g.LC < 0 else g


def factor_list_by_ring(p) -> list:
    """p's (factor, multiplicity) pairs from sympy's ring factor_list, sorted
    by the printed pair: the reference for `poly._factor`'s closed forms
    and for the rational roots `poly._rational_roots` finds."""
    return sorted(p.factor_list()[1], key=lambda fm: f"({fm[0]}, {fm[1]})")


def str_by_expr(p) -> str:
    """p printed as a sympy expression, the reference for the ring's own str
    that witness strings use."""
    return str(p.as_expr())


def factor_key_by_expr(item) -> str:
    """The key certificates sort (factor, multiplicity) lists by: the pair
    printed with the factor as a sympy expression."""
    return str((item[0].as_expr(), item[1]))


def roots_and_factors_by_filter(p, excluded):
    """Factor p, a polynomial in one variable of any ring, in that ring, then
    drop the excluded roots: the package strips them first instead, then
    finds the rational roots without factoring.

    Returns the rational roots off `excluded` and the factors of degree >= 2,
    sorted as certificates list them.
    """
    roots, higher = [], []
    for mu, m in p.factor_list()[1]:
        if max(map(sum, mu.itermonoms())) == 1:
            root = Fraction(int(-mu.coeff(1)), int(mu.LC))
            if root not in excluded:
                roots.append((root, m))
        else:
            higher.append((mu, m))
    roots.sort(key=lambda rm: f"({rm[0]}, {rm[1]})")
    higher.sort(key=factor_key_by_expr)
    return [r for r, _ in roots], [mu for mu, _ in higher]


def brute_force_pair_scan(data, charts, pairs_per_chart, seed):
    """Random pair sampling that must not find collisions a certificate missed."""
    collisions = []
    for idx, chart in enumerate(charts):
        stream_seed = seed * 1000003 + idx
        counter = 0
        done = 0
        while done < pairs_per_chart and counter < 100000:
            a = CurvePoint(_hash_rational(stream_seed, counter))
            b = CurvePoint(_hash_rational(stream_seed, counter + 1))
            counter += 2
            if a == b or a.finite in chart.excluded or b.finite in chart.excluded:
                continue
            done += 1
            if all(
                evaluate_by_fractions(f, a)[0] == evaluate_by_fractions(f, b)[0]
                for f in chart.coords
            ):
                collisions.append((chart.cone, a, b))
    return collisions


def _mix_index(seed, counter, n):
    h = _hash_rational(seed ^ 0x5BF03635, counter)
    return (h.numerator + 120 * h.denominator) % n


def transition_mismatches(data, charts, n_points, seed):
    """Spot-check that chart transitions are consistent Laurent monomials.

    For chart pairs and characters m in both dual cones, the monomial in
    either chart's coordinates must evaluate identically.  Returns observed
    mismatches (expected empty).
    """
    forbidden = set()
    for d in data.divisors:
        forbidden |= {p.finite for p in d.support()}
    mismatches = []
    counter = 0
    checked = 0
    while checked < n_points and counter < 10000 * max(n_points, 1):
        ca = charts[_mix_index(seed, counter, len(charts))]
        cb = charts[_mix_index(seed, counter + 1, len(charts))]
        exps = [int(_hash_rational(seed, counter + 2 + t) * 4) % 3 for t in range(3)]
        counter += 8
        m = tuple(sum(exps[t] * ca.duals[t][c] for t in range(3)) for c in range(3))
        rays_b = [data.fan.rays[rho] for rho in cb.cone]
        weights = [sum(m[c] * ray[c] for c in range(3)) for ray in rays_b]
        if any(w < 0 for w in weights):
            continue  # m is not regular on the second chart
        point = _hash_rational(seed, counter)
        counter += 1
        if point in forbidden:
            continue
        value_a = Fraction(1)
        for t in range(3):
            if exps[t]:
                value_a *= evaluate_by_fractions(ca.coords[t], CurvePoint(point))[0] ** exps[t]
        value_b = Fraction(1)
        for t in range(3):
            if weights[t]:
                value_b *= evaluate_by_fractions(cb.coords[t], CurvePoint(point))[0] ** weights[t]
        if value_a != value_b:
            mismatches.append((ca.cone, cb.cone, m, point, value_a, value_b))
        checked += 1
    return mismatches


# --- the per-chart searches the torus pass replaced ---------------------------

def _by_certificate_order(witnesses) -> list:
    return sorted(witnesses, key=lambda w: json.dumps(w, sort_keys=True))


def infinity_collisions_by_chart(chart) -> list:
    """The collisions with the point at infinity of one chart, as
    chart_injective found them before the torus pass: the zeros of the gcd
    of the chart's own Bezoutians' top rows, its excluded points stripped,
    each rational root re-checked by evaluation and each factor of degree
    >= 2 by dividing every top row; none when a coordinate has a pole
    there."""
    coords = [f for f in chart.coords if f.factors]
    excluded_fr = chart.excluded
    inf_values = [evaluate(f, INFINITY) for f in coords]
    if not coords or None in inf_values:
        return []
    tops = [_trim(_bezoutian(*f.integer_parts, {})[0]) for f in coords]
    return _by_certificate_order(verify._zero_witnesses(
        _common_factor(tops, "u", excluded_fr),
        "u",
        excluded_fr,
        lambda u0: all(evaluate(f, CurvePoint(u0)) == c for f, c in zip(coords, inf_values))
        and {"kind": "collision-with-infinity", "u": str(u0), "verified": "evaluation"},
        lambda mu: all(_divides(mu, p) for p in tops) and {
            "kind": "collision-with-infinity-conjugate", "poly": _str(mu, "u"),
            "verified": "congruence"},
    ))


def chart_immersive_by_chart(chart) -> CheckResult:
    """chart_immersive as it was before the torus pass: the zeros of the gcd
    of the chart's own diagonals N_i' D_i - N_i D_i', its excluded points
    stripped, each rational one re-checked by _tangent_at and each factor of
    degree >= 2 by dividing every diagonal; then infinity by _tangent_at."""
    coords = chart.coords
    excluded_fr = chart.excluded
    w_polys = [_diagonal(_bezoutian(*f.integer_parts, {})) for f in coords if f.factors]

    def at_point(t0):
        return verify._tangent_at(coords, t0) and {
            "kind": "tangent-point", "t": str(t0), "verified": "evaluation"}

    if not w_polys:  # every coordinate is constant, so tangent everywhere
        witnesses = list(filter(None, [at_point(next(verify._rational_candidates(excluded_fr)))]))
    else:
        witnesses = list(verify._zero_witnesses(
            _common_factor(w_polys, "t", excluded_fr),
            "t",
            excluded_fr,
            at_point,
            lambda mu: all(_divides(mu, w) for w in w_polys)
            and {"kind": "tangent-conjugate", "poly": _str(mu, "t"), "verified": "congruence"},
        ))
    if verify._tangent_at(coords, INFINITY):
        witnesses.append({"kind": "tangent-infinity", "verified": "evaluation"})
    witnesses = _by_certificate_order(witnesses)
    return CheckResult(not witnesses, "derivative-gcd", tuple(witnesses))
