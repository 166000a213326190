"""Exact certification that embedding data is a closed immersion.

Per chart, each coordinate is f_i = K_i N_i / D_i with integer polynomials
N_i, D_i (one factor den * t - num per root num / den) and a rational K_i
that no collision or zero depends on.  Injectivity is decided on pairs: the
Bezoutians Q_i = (N_i(s) D_i(u) - N_i(u) D_i(s)) / (s - u), built from the
coefficients, have any common factor dispatched by factoring, and the
residual system is decided by pairwise resultants eliminating s, with a
Groebner saturation fallback.  Each Q_i is symmetric in s and u, so the
residuals are symmetric up to sign and eliminating u would only swap the
variables: one direction suffices.  The collisions with the point at
infinity are the common zeros of the Q_i's top rows in s, the tangent points
those of their diagonals Q_i(t, t) = N_i' D_i - N_i D_i' (differentiate
(s - u) Q_i in s at s = u = t), with a derivative check at infinity.

certify asks those two once per curve, on the torus T = P^1 minus S, S
every divisor's support: on T the coordinates are characters chi^m and any
chart's are a Z-basis of M, so a point of T is tangent or collides with
infinity in one chart exactly when in every chart (Fulton, Introduction to
Toric Varieties, 1993, 3.1; Cox, Little and Schenck, Toric Varieties,
2011, Thm 3.2.6).  The first chart that asks builds that torus pass and
keeps it in certify's memo (_torus): a chart's excluded points and its
coordinates' zeros and poles are S.  A point p of S on a chart is a zero
of order mult_p(D_rho) of some coordinate: it never collides with
infinity, and is tangent only if no coordinate has a simple zero there.
A constant coordinate separates no points and adds no derivative zero.
A chart's excluded points, the points of its off-cone D_rho, which
embed.chart_maps builds and verify reads as given, are a frozenset of
Fractions.  No D_rho holds infinity (certify refuses one), so infinity is
on every chart's domain.

Every witness is re-checked exactly, in ints, in its chart's coordinates.
Each gcd a search computes is read by _zero_witnesses, excluded roots
stripped first, in one order: rational roots, then irreducible factors of
degree >= 2.  A rational witness is re-checked by evaluating the factored
coordinates homogeneously at num / den, an algebraic one by a congruence
modulo its primitive factor over Z.  A rational point num / den enters a
polynomial p over Z as den^n p(num / den), n p's degree in that variable,
never by substitution over Q.

The quick pass takes the pairwise resultants cheapest first and stops
after two when a stripped candidate is constant or the two are proved
coprime.  The arithmetic on int lists and rows, every exact division of
rows and sympy's included, is poly's.

certify hands back a Certificate of ChartRecords, and certificate.json is
their fields, as dumps_certificate writes them.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import NamedTuple

from .curve import (
    CDivisor,
    CurvePoint,
    INFINITY,
    POLE,
    evaluate,
    evaluate_ints,
    evaluate_with_derivative,
)
from .embed import ChartMap, EmbeddingData, chart_maps, check_theorem_conditions, refuse_infinity
from .fan import dumps_json
from .poly import (
    _MERSENNE_EXPONENTS, _at, _bezoutian, _common_factor, _coprime, _divides, _eliminant,
    _diagonal, _exquo_su, _factor, _gcd_all, _homogeneous, _lc, _print_sorted, _rational_roots,
    _res_interpolated, _res_kronecker, _str, _strip, _total_degree, _trim,
)

DEFAULT_DEGREE_CAP = 512


class DegreeOverflow(RuntimeError):
    """A polynomial elimination step would exceed the degree cap."""

    def __init__(self, cone, estimate: int, cap: int, what: str = "elimination degree estimate"):
        super().__init__(f"chart {cone}: {what} {estimate} exceeds cap {cap}")
        self.cone = cone
        self.estimate = estimate
        self.cap = cap


class CheckResult(NamedTuple):
    ok: bool
    method: str
    witnesses: tuple = ()


class ChartRecord(NamedTuple):
    cone: tuple[int, int, int]
    injective: bool
    immersive: bool
    injectivity_method: str
    witnesses: tuple = ()


class Certificate(NamedTuple):
    charts: tuple[ChartRecord, ...]
    pullback_ok: bool
    pullback_witnesses: tuple
    embedded: bool

    @property
    def verdict_vector(self) -> tuple:
        return tuple(
            (r.cone, r.injective, r.immersive) for r in self.charts
        ) + (("pullback", self.pullback_ok),)


def _zero_witnesses(g, gens: str, excluded_fr, at_root, at_factor):
    """The re-checked witnesses on the zeros of g, lazily, in certificate order.

    g is a gcd the caller computed, an int list in the variable gens; None
    or a constant has no zeros.  Its rational roots off the excluded points
    come first, then the irreducible factors of degree >= 2 of what
    _rational_roots leaves, factored only when the iterator reaches them.
    at_root(x) and at_factor(mu) re-check one exactly and return its
    witness, or a false value when the check fails.
    """
    if g is None or len(g) == 1:
        return
    roots, rest = _rational_roots(g, excluded_fr)
    yield from filter(None, map(at_root, roots))
    if len(rest) > 1:
        higher = _print_sorted(_factor(rest), lambda mu: _str(mu, gens))
        yield from filter(None, (at_factor(mu) for mu, _ in higher))


def _rational_candidates(excluded_fr=()):
    """0, 1, -1, ..., 59, -59, then 1/2, -1/2, ..., 117/2, -117/2, lazily,
    the excluded points left out."""
    halves = (Fraction(2 * k - 1, 2) for k in range(1, 60))
    signed = chain.from_iterable((x, -x) for x in chain(map(Fraction, range(1, 60)), halves))
    return (x for x in chain([Fraction(0)], signed) if x not in excluded_fr)


def _collision_holds(coords, s0: Fraction, u0: Fraction) -> bool:
    """Direct re-check by evaluation, independent of the elimination
    machinery: every coordinate is finite at s0 and u0 with equal values,
    the unreduced (num, den) pairs of evaluate_ints compared crosswise."""
    a, b, c, d = s0.numerator, s0.denominator, u0.numerator, u0.denominator
    for f in coords:
        vs, vu = evaluate_ints(f, a, b), evaluate_ints(f, c, d)
        if vs is POLE or vu is POLE or vs[1] * vu[2] != vu[1] * vs[2]:
            return False
    return True


def _congruence_collision(NDs, s0: Fraction, mu: list) -> bool:
    """Check p_i(s0) = p_i(alpha) for every root alpha of mu(u), exactly.

    N_i(u) D_i(s0) - N_i(s0) D_i(u) = 0 mod mu(u) states the collision in
    Q[u]/(mu).  With s0 = a / b and n = max(deg N_i, deg D_i), the ints
    N^ = b^n N_i(s0) and D^ = b^n D_i(s0) make N_i D^ - N^ D_i, b^n times
    that polynomial, one over Z; mu (an int list) is primitive, so by
    Gauss's lemma it divides it in Q[u] exactly when it divides it over Z.
    N_i and D_i are int tuples.
    """
    a, b = s0.numerator, s0.denominator
    for N, D in NDs:
        n = max(len(N), len(D))
        N, D = ((0,) * (n - len(p)) + p for p in (N, D))
        Nh, Dh = _homogeneous(N, a, b), _homogeneous(D, a, b)
        if not _divides(mu, [nk * Dh - Nh * dk for nk, dk in zip(N, D)]):
            return False
    return True


def _collisions_at(coords, NDs, rows, var: int, x0: Fraction, excluded_fr):
    """The re-checked collisions (x0, y), lazily: rows in Z[s, u] vanish at
    every collision, x0 goes in place of s (var 0) or u (var 1), and each y
    is a zero of the gcd of what is left, an int list in the other variable.
    A rational y != x0 is re-checked by evaluation, an irreducible factor
    by _congruence_collision."""
    gens = "su"[1 - var]
    specialized = [q for q in (_at(r, var, x0) for r in rows) if q]
    assert specialized, "all coordinates degenerate at a candidate"
    return _zero_witnesses(
        _gcd_all(specialized),
        gens,
        excluded_fr,
        lambda y: y != x0 and _collision_holds(coords, x0, y) and {
            "kind": "collision-pair", "s": str(min(x0, y)), "u": str(max(x0, y)),
            "verified": "evaluation"},
        lambda mu: _congruence_collision(NDs, x0, mu) and {
            "kind": "collision-conjugate", "s": str(x0), "partner_poly": _str(mu, gens),
            "verified": "congruence"},
    )


def _witness_from_curve(coords, NDs, factor, excluded_fr):
    """A verified collision witness on the zero curve of a common factor
    (rows in Z[s, u]), irreducible and of positive degree in u (see
    _finite_finite), so s - s0 divides it for no s0: the first over the
    rational candidates s0, else the curve itself."""
    found = (next(_collisions_at(coords, NDs, [factor], 0, s0, excluded_fr), None)
             for s0 in _rational_candidates(excluded_fr))
    return next(filter(None, found), {"kind": "collision-curve", "poly": _str(factor, "s,u"),
                                      "verified": "common-factor-division"})


def _partner_witnesses(coords, NDs, residual, p, excluded_fr):
    """(every verified collision whose second coordinate u0 is a rational
    root of p off the excluded points, what _rational_roots leaves of p).

    p is an int list in u; the residuals are rows in Z[s, u]."""
    roots, rest = _rational_roots(p, excluded_fr)
    at = (_collisions_at(coords, NDs, residual, 1, u0, excluded_fr) for u0 in roots)
    return list(chain.from_iterable(at)), rest


def _degree_estimate(chart: ChartMap) -> int:
    """max 2 deg f_i deg f_j over pairs of coordinates, each deg f_i read off its
    exponents before N_i, D_i are expanded; DegreeOverflow past the cap."""
    degs = [max(sum(e for _, e in f.factors if e > 0), sum(-e for _, e in f.factors if e < 0))
            for f in chart.coords]
    est = max(2 * a * b for a, b in combinations(degs, 2))
    if est > DEFAULT_DEGREE_CAP:
        raise DegreeOverflow(chart.cone, est, DEFAULT_DEGREE_CAP)
    return est


def _torus(chart: ChartMap, memo: dict) -> tuple:
    """The torus pass, built by the first chart that asks and kept in its
    memo under _torus: the common zeros off S of the Q_i's top rows and of
    their diagonals, (x, None) per rational root, (None, mu) per factor, and
    whether infinity is tangent.  S is the chart's excluded points and its
    coordinates' zeros and poles, for a chart of chart_maps every divisor's
    support, so every chart that certify hands the memo reads the same pass."""
    if _torus not in memo:
        funcs = [f for f in chart.coords if f.factors]  # a constant one adds no condition
        s_fr = chart.excluded.union(r for f in funcs for r, _ in f.factors)
        Qs = [_bezoutian(*f.integer_parts, memo) for f in funcs]

        def zeros(gens, polys):
            g = _common_factor(polys, gens, s_fr) if polys else None
            return tuple(_zero_witnesses(g, gens, s_fr, lambda x: (x, None), lambda mu: (None, mu)))

        memo[_torus] = (zeros("u", [_trim(q[0]) for q in Qs]),
                        zeros("t", [_diagonal(q) for q in Qs]), _tangent_at(funcs, INFINITY))
    return memo[_torus]


def _rechecked(zeros, at_root, at_factor) -> list:
    """The witnesses at_root and at_factor give for zeros as _torus gives them."""
    return list(filter(None, (at_root(x) if mu is None else at_factor(mu) for x, mu in zeros)))


def chart_injective(chart: ChartMap, memo=None) -> CheckResult:
    """Decide injectivity of the chart coordinates off the excluded points."""
    memo = {} if memo is None else memo  # see certify
    _degree_estimate(chart)
    coords = [f for f in chart.coords if f.factors]  # a constant one separates no points
    if not coords:  # every two points collide
        s0, u0 = sorted(islice(_rational_candidates(chart.excluded), 2))
        witnesses = [{"kind": "collision-pair", "s": str(s0), "u": str(u0),
                      "verified": "evaluation"}] if _collision_holds(chart.coords, s0, u0) else []
        return CheckResult(not witnesses, "factor", tuple(witnesses))
    NDs = [f.integer_parts for f in coords]
    witnesses: list[dict] = []

    # the Bezoutians Q_i, rows in s
    Qs = [_bezoutian(N, D, memo) for N, D in NDs]

    # collisions with the point at infinity, which every chart's domain
    # holds: p_i(u) = p_i(inf) for all i.  Skipped when some coordinate has
    # a pole there; else deg N_i <= deg D_i = d, and the s^d coefficient of
    # (s - u) Q_i is n_d D_i(u) - lc(D_i) N_i(u), n_d the coefficient of u^d
    # in N_i.  That vanishes exactly where p_i(u) = p_i(inf), and is nonzero
    # since f_i is not constant, so it is Q_i's top row; its sign moves no
    # gcd, root, factor or divisibility the witnesses read.  Off S they are
    # the torus pass's; on S, zeros of a coordinate that vanishes at infinity.
    inf_values = [evaluate(f, INFINITY) for f in coords]
    if None not in inf_values:
        in_s = {r for f, c in zip(coords, inf_values) if not c for r, e in f.factors if e > 0}
        witnesses.extend(_rechecked(
            _torus(chart, memo)[0] + tuple((x, None) for x in in_s - chart.excluded),
            lambda u0: all(evaluate(f, CurvePoint(u0)) == c for f, c in zip(coords, inf_values))
            and {"kind": "collision-with-infinity", "u": str(u0), "verified": "evaluation"},
            lambda mu: all(_divides(mu, _trim(q[0])) for q in Qs) and {
                "kind": "collision-with-infinity-conjugate", "poly": _str(mu, "u"),
                "verified": "congruence"},
        ))

    # finite-finite collisions
    method = "linear"
    if not all(len(q) == 1 for q in Qs):  # a constant Q has one row
        if any(len(q) == 1 for q in Qs):
            method = "resultant"  # some coordinate separates every pair
        else:
            method = _finite_finite(chart, coords, NDs, Qs, chart.excluded, witnesses, memo)

    witnesses.sort(key=lambda w: json.dumps(w, sort_keys=True))
    return CheckResult(not witnesses, method, tuple(witnesses))


def _finite_finite(chart, coords, NDs, Qs, excluded_fr, witnesses, memo):
    """Dispatch shared factors, then decide the residual system.

    Every Q_i and residual has degree below deg N_i, D_i in s and in u, so
    _degree_estimate bounds each pairwise resultant here.  The
    Q_i, their gcd, its factors and the residuals are s-coefficient rows;
    the gcd and the residuals are symmetric up to sign, so one row means a
    constant.  The residuals are the Q_i / g, each by poly's _exquo_su,
    which reads a Q_i that is an integer multiple of g without dividing.

    Every irreducible factor of g = gcd(Q_i) has positive degree in s and
    in u and is not s - u, so each one is a curve of collisions off the
    diagonal.  A factor free of u, with a root e, would give Q_i(e, u) = 0,
    that is N_i(u) D_i(e) = N_i(e) D_i(u) for every i; a factor s - u would
    give Q_i(s, s) = N_i' D_i - N_i D_i' = 0.  Either makes f_i constant,
    since N_i and D_i share no root; g is symmetric up to sign, so no factor
    is free of s either.
    """
    g = _common_factor(Qs, "s,u", excluded_fr)
    shared = g is not None and len(g) > 1
    residual = Qs
    if shared:
        for factor, _mult in _print_sorted(_factor(g), lambda f: _str(f, "s,u")):
            witnesses.append(_witness_from_curve(coords, NDs, factor, excluded_fr))
        residual = [_exquo_su(q, g) for q in Qs]
        if any(len(r) == 1 for r in residual):
            return "factor"

    # quick pass: a constant candidate gcd, excluded roots stripped, proves
    # the residual system has no common zeros off the excluded points.  The
    # residuals are symmetric in s and u up to sign, so eliminating u would
    # give these candidates in s: it cannot close a chart this pass leaves
    # open.
    cands = _candidate_polys(residual, excluded_fr, chart.cone, memo)
    if cands is _EMPTY:
        return "resultant"
    if cands is not None:
        du = _gcd_all(cands)
        if len(du) == 1:
            return "resultant"
        # candidate roots in the u direction, partners recovered by univariate gcd
        partners, rest = _partner_witnesses(coords, NDs, residual, du, excluded_fr)
        witnesses.extend(partners)
        if partners or len(rest) == 1:
            return "resultant"  # every candidate dispatched, or a collision found

    # Groebner saturation decides the rest exactly
    bezout = 1
    for r in residual:
        bezout *= max(1, _total_degree(r))
    if bezout > DEFAULT_DEGREE_CAP:
        raise DegreeOverflow(chart.cone, bezout, DEFAULT_DEGREE_CAP)
    # the scales fix the form elimination_poly prints in (see _eliminant): the
    # pinned one, built from F = c N / lc(N), G = D / lc(D) (c the
    # coordinate's constant) and a monic gcd
    lc_g = _lc(g) if shared else 1
    scales = [f.constant * lc_g / (N[0] * D[0]) for f, (N, D) in zip(coords, NDs)]
    eliminant = _eliminant(residual, scales, excluded_fr)
    if eliminant is None:
        return "groebner"
    cleared, text = eliminant
    partners, _rest = _partner_witnesses(coords, NDs, residual, cleared, excluded_fr)
    witnesses.extend(partners or [
        {
            "kind": "collision-system",
            "elimination_poly": text,
            "verified": "groebner-saturation",
        }
    ])
    return "groebner"


_EMPTY = object()  # sentinel: the system certainly has no common zeros


def _candidate_polys(residual, excluded_fr, cone, memo):
    """Pairwise resultants in s, polynomials in u that vanish at every residual
    common zero, with the factors of the excluded points stripped: int lists
    for residuals given as s-coefficient rows.

    Pairs go cheapest first by D = deg_s f deg_u g + deg_s g deg_u f, which
    is 2 deg_s f deg_s g for residuals symmetric up to sign: the residuals
    in ascending degree give that order.  Returns _EMPTY as soon as some
    pair's stripped resultant is a nonzero constant (that pair alone has no
    common zeros off the excluded points) or two candidates are proved
    coprime, so no third resultant follows two coprime ones; None when no
    candidate source exists (every pairwise resultant vanishes identically).
    The candidates returned are not proved coprime.  Each residual is
    nonconstant and symmetric up to sign, so it involves s.
    """
    cands = []
    for f, g in combinations(sorted(residual, key=len), 2):
        res = _resultant(f, g, cone, memo)
        if res != [0]:
            res = _strip(res, excluded_fr)
            if len(res) == 1:
                return _EMPTY
            cands.append(res)
            if _coprime(cands):
                return _EMPTY
    return cands or None


def _resultant(F, G, cone, memo: dict) -> list:
    """Res_s(f, g), the Sylvester determinant, for f, g in Z[s, u] of positive
    degree in s given as s-coefficient rows F, G: an int list in u, top
    degree first, [0] if it vanishes.

    Each Sylvester row's entries have 1-norms summing to |f|_1 or |g|_1, so
    |f|_1^deg_s g |g|_1^deg_s f bounds every coefficient of Res; `need` is
    twice that (and past the last point a block can reach).  A need past
    the last Mersenne prime 2^k - 1 of the table raises DegreeOverflow.

    Res has degree at most D = deg_s f deg_u g + deg_s g deg_u f in u.  It
    is exact by _res_kronecker when min(deg_s f, deg_s g) <= 2, else by
    _res_interpolated modulo the first Mersenne prime p > need.

    The memo (see certify) holds one Res per pair up to sign and order, by
    Res(a F, b G) = a^deg_s G b^deg_s F Res(F, G) = (-1)^(deg_s F deg_s G)
    Res(b G, a F); the bound is the same for all of them.
    """
    # keyed by F and G made positive in their first nonzero coefficient
    a, b = (1 if _lc(P) > 0 else -1 for P in (F, G))
    A, B = (tuple(tuple(c * x for x in r) for r in P) for c, P in ((a, F), (b, G)))
    sign = a ** (len(G) - 1) * b ** (len(F) - 1)
    if B < A:
        A, B, sign = B, A, sign * (-1) ** ((len(F) - 1) * (len(G) - 1))
    if (A, B) in memo:
        return [sign * c for c in memo[A, B]]
    n, m = len(F) - 1, len(G) - 1
    du_f, du_g = len(F[0]) - 1, len(G[0]) - 1
    degree = n * du_g + m * du_f
    norm_f = sum(abs(a) for row in F for a in row)
    norm_g = sum(abs(a) for row in G for a in row)
    # p > 2 |f|_1^m |g|_1^n >= 2 |f|_1, 2 |g|_1 keeps the leading
    # coefficients nonzero mod p, so at most deg_u f + deg_u g points fail,
    # each ending one block
    need = max(2 * norm_f**m * norm_g**n, (du_f + du_g + 1) * (degree + 1))
    k = next((k for k in _MERSENNE_EXPONENTS if (1 << k) - 1 > need), None)
    if k is None:
        raise DegreeOverflow(
            cone, need.bit_length(), _MERSENNE_EXPONENTS[-1], "resultant modulus bits"
        )
    if min(n, m) <= 2:
        res = _res_kronecker(F, G, need)
    else:
        res = _res_interpolated(F, G, degree, k)
    memo[A, B] = [sign * c for c in res]
    return res


def _tangent_at(coords, t0) -> bool:
    """Every coordinate is regular at t0, INFINITY or a rational, with zero
    derivative there.  At a finite t0, f' vanishes at a zero of order > 1,
    never at a simple one, and elsewhere where ln does (see evaluate_ints)."""
    if t0 is INFINITY:
        values = (evaluate_with_derivative(f, t0) for f in coords)
        return all(v is not POLE and not v[1] for v in values)
    values = (evaluate_ints(f, t0.numerator, t0.denominator, True) for f in coords)
    return all(v is not POLE and v[0] != 1 and (v[0] or not v[3]) for v in values)


def chart_immersive(chart: ChartMap, memo=None) -> CheckResult:
    """No common zero of all coordinate derivatives on the chart domain: the
    torus pass's candidates and the zeros of order > 1, re-checked here."""
    coords = chart.coords
    memo = {} if memo is None else memo
    _, tangents, infinity_tangent = _torus(chart, memo)
    in_s = {r for f in coords for r, e in f.factors if e > 1}
    if in_s or all(not f.factors for f in coords):  # all constant: tangent everywhere
        in_s = in_s - chart.excluded if in_s else {next(_rational_candidates(chart.excluded))}
    witnesses = _rechecked(
        tangents + tuple((t0, None) for t0 in in_s),
        lambda t0: _tangent_at(coords, t0) and {
            "kind": "tangent-point", "t": str(t0), "verified": "evaluation"},
        lambda mu: all(_divides(mu, _diagonal(_bezoutian(*f.integer_parts, memo)))
                       for f in coords if f.factors)
        and {"kind": "tangent-conjugate", "poly": _str(mu, "t"), "verified": "congruence"},
    )
    if infinity_tangent and _tangent_at(coords, INFINITY):
        witnesses.append({"kind": "tangent-infinity", "verified": "evaluation"})
    witnesses.sort(key=lambda w: json.dumps(w, sort_keys=True))
    return CheckResult(not witnesses, "derivative-gcd", tuple(witnesses))


def pullback_check(data: EmbeddingData, charts) -> CheckResult:
    """Zero divisors of chart coordinates must be the sampled divisors, reduced.

    Both sides are canonical tuples, compared as they stand: a coordinate's
    (root, e) zeros off the excluded points, in its factors' order, and
    D_rho's (point, m) entries, in the same order.  The excluded points are
    read once per chart as (num, den) pairs: ints hash faster than
    Fractions.  A divisor is built only for a mismatch witness.
    """
    witnesses: list[dict] = []
    for chart in charts:
        excluded = {(x.numerator, x.denominator) for x in chart.excluded}
        for f, rho in zip(chart.coords, chart.cone):
            zeros = tuple((r, e) for r, e in f.factors
                          if e > 0 and (r.numerator, r.denominator) not in excluded)
            expected = data.divisors[rho]
            if zeros != tuple((p.finite, m) for p, m in expected.entries):
                diff = CDivisor.of(zeros) + (-expected)
                witnesses.append({"kind": "pullback-mismatch", "cone": list(chart.cone),
                                  "ray": rho, "difference": [[str(p), m] for p, m in diff.entries]})
            elif not expected.is_reduced:
                bad = [str(p) for p, m in expected.entries if m != 1]
                witnesses.append({"kind": "pullback-not-reduced", "cone": list(chart.cone),
                                  "ray": rho, "points": bad})
    witnesses.sort(key=lambda w: json.dumps(w, sort_keys=True))
    return CheckResult(not witnesses, "exact-divisor", tuple(witnesses))


def certify(data: EmbeddingData) -> Certificate:
    """Full certification across every chart plus the pullback check; the
    charts share Bezoutians, resultants and the torus pass the first of them
    builds (_torus) through one memo, for this call only."""
    conditions = check_theorem_conditions(data)
    if not conditions.passed:
        raise ValueError(
            "morphism conditions fail; nothing to certify: "
            f"{conditions.disjointness_failures + conditions.divisor_failures}"
        )
    for rho, d in enumerate(data.divisors):
        refuse_infinity(rho, d)
    charts = chart_maps(data)
    for chart in charts:  # an oversized chart stops the call before any elimination
        _degree_estimate(chart)
    records, memo = [], {}
    for chart in charts:
        inj = chart_injective(chart, memo)
        imm = chart_immersive(chart, memo)
        records.append(
            ChartRecord(
                cone=chart.cone,
                injective=inj.ok,
                immersive=imm.ok,
                injectivity_method=inj.method,
                witnesses=inj.witnesses + imm.witnesses,
            )
        )
    pull = pullback_check(data, charts)
    embedded = all(r.injective and r.immersive for r in records) and pull.ok
    return Certificate(tuple(records), pull.ok, pull.witnesses, embedded)



def certificate_to_dict(cert: Certificate) -> dict:
    """certificate.json's object: the fields of the certificate and of each chart record."""
    return {**cert._asdict(), "charts": [r._asdict() for r in cert.charts]}


def dumps_certificate(cert: Certificate) -> str:
    return dumps_json(certificate_to_dict(cert), sort_keys=True) + "\n"
