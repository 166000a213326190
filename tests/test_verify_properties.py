"""Property tests for the chart certifier on small random charts.

Each coordinate is c * prod (t - a)^e with one to three factors and roots
a in [-5, 5] with denominators up to 3.  Every witness the certifier
returns is re-checked here, independently of `toricurve.verify`: rational
witnesses by Fraction evaluation, algebraic ones by `sympy.rem`
congruences.  In the other direction, a brute-force scan over a grid of
small rationals (and the point at infinity) must never find a collision or
a shared derivative zero on a chart the certifier passed.

Two properties pin the integer elimination core against the construction
over Q in `oracles.py`: the Bezoutian of a coordinate is its divided cross
difference up to a constant and symmetric in s and u, and eliminating u
from a pair of residuals gives the resultant in s with the variables
swapped, up to sign, so one elimination direction suffices.  A third pins
the Groebner fallback's ring call against `sympy.groebner` on the same
inputs as expressions.  Two more pin the certification quick pass: the
evaluation-interpolation resultant equals sympy's subresultant PRS up to
sign, and factoring with the excluded roots stripped first gives the roots
and factors that factoring in full and then dropping the excluded roots
gives.  Two pin the per-certify memo: a resultant read back for F and G
up to sign and order carries the Sylvester determinant's sign, and the
Bezoutian of (D, N) is the negated Bezoutian of (N, D).  One pins the
identity the collision check at infinity reads: the Bezoutian's top row,
leading zeros trimmed, is the negated polynomial the oracle builds from N
and D, for deg N = deg D, deg N < deg D and a constant N.  Four pin the
exact small-degree resultants: the closed form against the Sylvester
determinant over Z, for degrees 0 to 5 with one at most 2; _resultant
against it on the Kronecker path and on the modular one; _coprime's
verdict against the subresultant PRS over Z, reduced mod q, on every
pair; and a spy that lets _newton run only under a pair whose degrees in
s both exceed 2.  Two pin the coprimality certificate modulo q = 2^61 - 1: it never
proves a pair coprime whose gcd over Z is nonconstant, whether the pair
lives in one variable or is made of symmetric Bezoutians, and it is
inconclusive whenever q divides a leading coefficient.  The rest pin the
int lists and rows of `toricurve.poly` against sympy's ring: GCDHEU on planted
common factors, with and without its sympy fallback, and its candidate made
primitive; the normal form of a gcd operand, _split and _lc, against the
ring's primitive() and LC on int lists and padded or unpadded rows; the
closed-form roots and factors in one variable at degree 1 and 2 and in
Z[s, u] at degree 1 in s; the Bezoutian's rows as the s-coefficients of the
polynomial they stand for; the printer against the ring's str; the
exact division on rows against the ring's exquo and rem; and the p-adic
root search against factor_list, on repeated roots, excluded points,
leading coefficients and roots past 200 bits and quartics with no root.
Two pin the torus pass against the per-chart searches it replaced, kept in
`oracles.py`: chart by chart, certify's collisions with infinity and
tangent witnesses are those the chart's own gcds give, on presets,
ladders, involution-invariant data, non-reduced divisors, two rays of one
cone sharing a point and empty divisors; and so are those of a chart
checked on its own, with zeros or poles at infinity, infinity excluded,
poles left in the domain, constant coordinates and cusps.
"""

from fractions import Fraction
from itertools import combinations, product
from unittest.mock import patch

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.groebnertools import groebner
from sympy.polys.polyconfig import using
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.rings import PolyElement, ring

from conftest import ladder_fan
from negative_fixtures import doubled_point_data
from oracles import (
    chart_immersive_by_chart,
    coprime_by_remainders_mod_q,
    cross_quotients_qq,
    factor_key_by_expr,
    factor_list_by_ring,
    gcd_by_ring,
    groebner_by_expr,
    infinity_collision_poly,
    infinity_collisions_by_chart,
    resultant_by_prs,
    resultant_by_sylvester,
    roots_and_factors_by_filter,
    str_by_expr,
)
from toricurve import poly, verify
from test_replay_golden import INVOLUTIONS, involution_data
from toricurve.curve import CDivisor, RationalFunction, pairing_divisor, principal_function
from toricurve.embed import (
    ChartMap, EmbeddingData, build_embedding_data, chart_maps, pairing_matrix,
)
from toricurve.fan import preset, star_subdivision
from toricurve.intersect import XiVector, find_ample, xi_vector
from toricurve.verify import DegreeOverflow, certify, chart_immersive, chart_injective

F = Fraction
IDENTITY_DUALS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
T, S, U = sympy.symbols("t s u")
GRID = sorted({F(n, d) for n in range(-12, 13) for d in (1, 2, 3, 4)})
INF = "inf"
# the rings of one variable the tests build polynomials in; the package holds
# polynomials as int lists and s-coefficient rows
Z_S, Z_U, Z_T = (ring(x, ZZ)[0] for x in "sut")

roots = st.builds(F, st.integers(-5, 5), st.integers(1, 3))
exponents = st.sampled_from((-2, -1, 1, 2))
constants = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def coordinates(draw):
    factors = draw(st.dictionaries(roots, exponents, min_size=1, max_size=3))
    return RationalFunction.of(draw(constants), factors)


@st.composite
def invariant_coordinates(draw, centre):
    """A coordinate invariant under t -> 2 * centre - t."""
    factors = {}
    for a, e in draw(st.dictionaries(roots, exponents, min_size=1, max_size=2)).items():
        b = 2 * centre - a
        if a == b or factors.get(a) or factors.get(b):
            continue
        factors[a] = factors[b] = e
    assume(factors)
    return RationalFunction.of(draw(constants), factors)


@st.composite
def planted_coordinates(draw, s0, u0):
    """A coordinate c * P(t) * (t - x) with x solved so that it agrees at s0 and u0."""
    free = draw(st.dictionaries(roots.filter(lambda a: a not in (s0, u0)), exponents,
                                max_size=2))
    p = RationalFunction.of(draw(constants), free)
    ps, pu = value(p, s0), value(p, u0)
    if ps == pu:
        return p if free else p * RationalFunction.of(1, {s0 + u0: 2})
    x = (pu * u0 - ps * s0) / (pu - ps)
    return p * RationalFunction.of(1, {x: 1})


@st.composite
def charts(draw):
    """Random charts; in some, coordinates respect a reflection or agree at
    one planted pair of points, so collisions occur."""
    mode = draw(st.sampled_from(("random", "reflection", "planted")))
    if mode == "random":
        coords = [draw(coordinates()) for _ in range(3)]
    elif mode == "reflection":
        centre = draw(st.sampled_from((F(0), F(1, 2), F(1))))
        invariant = draw(st.integers(1, 3))
        coords = [draw(invariant_coordinates(centre)) for _ in range(invariant)]
        coords += [draw(coordinates()) for _ in range(3 - invariant)]
    else:
        s0, u0 = draw(st.lists(roots, min_size=2, max_size=2, unique=True))
        coords = [draw(planted_coordinates(s0, u0)) for _ in range(3)]
    coords = draw(st.permutations(coords))
    assume(all(f.factors for f in coords))
    poles = {r for f in coords for r, e in f.factors if e < 0}
    extra = draw(st.lists(st.sampled_from(GRID), max_size=2))
    return ChartMap((0, 1, 2), IDENTITY_DUALS, tuple(coords), frozenset(poles | set(extra)))


# --- independent evaluation --------------------------------------------------

def value(f: RationalFunction, p):
    """f(p) as a Fraction, or None at a pole; p is a Fraction or INF."""
    if p == INF:
        order = -sum(e for _, e in f.factors)
        if order < 0:
            return None
        return f.constant if order == 0 else F(0)
    out = f.constant
    for a, e in f.factors:
        if a == p and e < 0:
            return None
        out *= (p - a) ** e
    return out


def expr(f: RationalFunction, x):
    num, den = sympy.Rational(f.constant.numerator, f.constant.denominator), sympy.Integer(1)
    for a, e in f.factors:
        lin = x - sympy.Rational(a.numerator, a.denominator)
        if e > 0:
            num *= lin ** e
        else:
            den *= lin ** -e
    return sympy.expand(num), sympy.expand(den)


def derivative_vanishes(f: RationalFunction, p) -> bool:
    """f'(p) == 0 at a point of the domain, at infinity in the parameter 1/t."""
    if p == INF:
        x = sympy.Symbol("x")
        num, den = expr(f, 1 / x)
        return sympy.cancel(sympy.diff(num / den, x)).subs(x, 0) == 0
    order = dict(f.factors).get(p, 0)
    if order:
        return order > 1
    # f'/f = sum e / (t - a) away from the roots
    return sum(F(e) / (p - a) for a, e in f.factors) == 0


def domain(chart):
    points = [p for p in GRID if p not in chart.excluded
              and all(value(f, p) is not None for f in chart.coords)]
    if all(value(f, INF) is not None for f in chart.coords):
        points.append(INF)
    return points


def congruent(poly_text, pairs):
    """Every (A, B) in pairs satisfies A == B modulo the witness polynomial."""
    mu = sympy.sympify(poly_text)
    (x,) = mu.free_symbols
    assert sympy.degree(mu, x) >= 2
    return all(
        sympy.rem(sympy.expand(a.subs(T, x) - b.subs(T, x)), mu, x) == 0 for a, b in pairs
    )


# --- witness re-checks -----------------------------------------------------------

def cross_difference(f: RationalFunction):
    """num(s) den(u) - num(u) den(s), expanded."""
    num, den = expr(f, T)
    return sympy.expand(num.subs(T, S) * den.subs(T, U) - num.subs(T, U) * den.subs(T, S))


def recheck_injectivity_witness(chart, w):
    excluded = chart.excluded
    kind = w["kind"]
    if kind == "collision-pair":
        s0, u0 = F(w["s"]), F(w["u"])
        assert s0 != u0 and s0 not in excluded and u0 not in excluded
        for f in chart.coords:
            assert value(f, s0) is not None and value(f, s0) == value(f, u0)
    elif kind == "collision-with-infinity":
        u0 = F(w["u"])
        assert u0 not in excluded
        for f in chart.coords:
            assert value(f, INF) is not None and value(f, u0) == value(f, INF)
    elif kind == "collision-conjugate":
        s0 = F(w["s"])
        assert s0 not in excluded
        pairs = []
        for f in chart.coords:
            num, den = expr(f, T)
            v = value(f, s0)
            assert v is not None
            pairs.append((num, sympy.Rational(v.numerator, v.denominator) * den))
        assert congruent(w["partner_poly"], pairs)
    elif kind == "collision-with-infinity-conjugate":
        pairs = []
        for f in chart.coords:
            num, den = expr(f, T)
            v = value(f, INF)
            pairs.append((num, sympy.Rational(v.numerator, v.denominator) * den))
        assert congruent(w["poly"], pairs)
    elif kind == "collision-curve":
        curve = sympy.sympify(w["poly"])
        for f in chart.coords:
            assert sympy.reduced(cross_difference(f), [curve], S, U)[1] == 0
    elif kind == "collision-system":
        # every pairwise resultant of the divided cross differences vanishes
        # on the roots of the elimination polynomial
        elim = sympy.sympify(w["elimination_poly"])
        qs = [sympy.quo(cross_difference(f), S - U, S, U) for f in chart.coords]
        for i in range(3):
            for j in range(i + 1, 3):
                res = sympy.resultant(qs[i], qs[j], S)
                assert sympy.rem(sympy.expand(res), elim, U) == 0
    else:
        raise AssertionError(f"unexpected witness kind {kind}")


def recheck_immersion_witness(chart, w):
    excluded = chart.excluded
    kind = w["kind"]
    if kind == "tangent-point":
        t0 = F(w["t"])
        assert t0 not in excluded
        for f in chart.coords:
            assert value(f, t0) is not None and derivative_vanishes(f, t0)
    elif kind == "tangent-infinity":
        for f in chart.coords:
            assert value(f, INF) is not None and derivative_vanishes(f, INF)
    elif kind == "tangent-conjugate":
        pairs = []
        for f in chart.coords:
            num, den = expr(f, T)
            pairs.append((sympy.diff(num, T) * den, num * sympy.diff(den, T)))
        assert congruent(w["poly"], pairs)
    else:
        raise AssertionError(f"unexpected witness kind {kind}")


def injective_or_skip(chart):
    try:
        return chart_injective(chart)
    except DegreeOverflow:
        assume(False)


# derandomized, so the suite is a deterministic gate; widen max_examples
# locally to search harder
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@PROPERTY
@given(charts())
def test_injectivity_witnesses_recheck_and_grid_collisions_are_caught(chart):
    result = injective_or_skip(chart)
    assert result.ok == (not result.witnesses)
    for w in result.witnesses:
        recheck_injectivity_witness(chart, w)
    points = domain(chart)
    values = {p: tuple(value(f, p) for f in chart.coords) for p in points}
    seen = {}
    for p in points:
        if values[p] in seen:
            assert not result.ok, (seen[values[p]], p)
            return
        seen[values[p]] = p


@PROPERTY
@given(charts())
def test_immersion_witnesses_recheck_and_grid_tangencies_are_caught(chart):
    result = chart_immersive(chart)
    assert result.ok == (not result.witnesses)
    for w in result.witnesses:
        recheck_immersion_witness(chart, w)
    for p in domain(chart):
        if all(derivative_vanishes(f, p) for f in chart.coords):
            assert not result.ok, p
            return


def swapped(p):
    """p(u, s) for p in a ring with generators s, u."""
    return p.ring.from_dict({(j, i): c for (i, j), c in p.items()})


@PROPERTY
@given(coordinates())
def test_bezoutian_is_the_divided_cross_difference_and_symmetric(f):
    q = poly._in_ring(poly._bezoutian(*f.integer_parts, {}))
    (reference,) = cross_quotients_qq([f])
    q_over_q = q.set_ring(reference.ring)
    assert q_over_q * reference.LC == reference * q_over_q.LC
    assert swapped(q) == q


def as_ints(p):
    """p, an element of a ring over Z, as the package holds it: an int list
    in one variable, s-coefficient rows in Z[s, u], [] for zero."""
    return poly._ints(p) if p else []


def residuals_in_ring(chart):
    """The chart's Bezoutians, divided by their gcd when it is not constant,
    as rows, then as elements of Z[s, u]; none of them constant."""
    qs = [poly._bezoutian(*f.integer_parts, {}) for f in chart.coords]
    assume(not any(len(q) == 1 for q in qs))  # symmetric: one row is a constant
    g = poly._gcd_all(qs)
    residual = [poly._in_ring(r) for r in (qs if len(g) == 1 else
                                           [poly._exquo_su(q, g) for q in qs])]
    assume(not any(r.is_ground for r in residual))
    return residual


@PROPERTY
@given(charts())
def test_eliminating_u_swaps_the_variables_of_the_resultant_in_s(chart):
    residual = residuals_in_ring(chart)
    by_u = ring("u,s", ZZ)[0]  # the resultant eliminates the first generator
    for f, h in combinations(residual, 2):
        in_s = f.resultant(h)
        in_u = f.set_ring(by_u).resultant(h.set_ring(by_u))
        assert in_s.ring.from_dict(dict(in_u)) in (in_s, -in_s)


@st.composite
def shared_factor_coordinates(draw):
    """Three coordinates whose Bezoutians share a factor: all invariant under
    one reflection, or (f, f, f), or (f, f^2, f^3)."""
    mode = draw(st.sampled_from(("reflection", "same", "powers")))
    if mode == "reflection":
        centre = draw(st.sampled_from((F(0), F(1, 2), F(1))))
        return [draw(invariant_coordinates(centre)) for _ in range(3)]
    f = draw(coordinates())
    return [f, f, f] if mode == "same" else [f, f**2, f**3]


@PROPERTY
@given(shared_factor_coordinates())
def test_every_factor_of_the_bezoutians_gcd_is_a_curve_off_the_diagonal(coords):
    """Each irreducible factor of gcd(Q_i) has positive degree in s and in
    u and is not s - u, as _finite_finite relies on: a factor free of u, or
    s - u, would make some coordinate constant."""
    qs = [poly._bezoutian(*f.integer_parts, {}) for f in coords]
    assume(all(len(q) > 1 for q in qs))  # symmetric: one row is a constant
    g = poly._gcd_all(qs)
    assume(len(g) > 1)
    for factor, _ in poly._factor(g):
        assert len(factor) > 1  # positive degree in s
        assert any(len(poly._trim(row)) > 1 for row in factor)  # and in u
        assert factor not in ([[0, 1], [-1, 0]], [[0, -1], [1, 0]])  # not s - u


def expr_groebner(polys, gens_ring):
    """The fallback's basis through sympy.groebner, in the ring sympy picked."""
    exprs, domain = groebner_by_expr(polys, gens_ring)
    picked = gens_ring.clone(domain=domain)
    return [picked(e) for e in exprs]


@st.composite
def integral_or_rational_charts(draw):
    """charts(), and in half the draws the same shape with integer roots,
    constants and excluded points, so the fallback's basis is over Z as well
    as over Q."""
    chart = draw(charts())
    if draw(st.booleans()):
        return chart
    coords = tuple(
        RationalFunction.of(f.constant.numerator, [(a.numerator, e) for a, e in f.factors])
        for f in chart.coords
    )
    assume(all(f.factors for f in coords))
    excluded = {F(p.numerator) for p in chart.excluded}
    excluded |= {r for f in coords for r, e in f.factors if e < 0}
    return ChartMap((0, 1, 2), IDENTITY_DUALS, coords, frozenset(excluded))


@settings(PROPERTY, max_examples=30)
@given(integral_or_rational_charts())
def test_ring_groebner_fallback_matches_sympy_groebner_on_expressions(chart):
    """Forced into the fallback (no resultant candidates), the ring call and
    sympy.groebner on the inputs as expressions pick the same domain, print
    the same basis and give the same method and witnesses."""
    calls = []

    def ring_groebner(polys, gens_ring):
        basis = groebner(polys, gens_ring)
        calls.append((polys, gens_ring, basis))
        return basis

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_candidate_polys", lambda *a: None)
        mp.setattr(poly, "groebner", ring_groebner)
        got = injective_or_skip(chart)
        assume(calls)  # the chart reached the fallback
        mp.setattr(poly, "groebner", expr_groebner)
        want = injective_or_skip(chart)
    polys, gens_ring, basis = calls[0]
    exprs, domain = groebner_by_expr(polys, gens_ring)
    assert domain == gens_ring.domain
    assert [str(p.as_expr()) for p in basis] == [str(e) for e in exprs]
    assert (got.method, got.witnesses) == (want.method, want.witnesses)


# --- the quick pass: resultants and excluded-root stripping ----------------------

_ZSU, _ZS, _ZU = ring("s,u", ZZ)


@st.composite
def s_u_polys(draw, heights):
    """A polynomial in Z[s, u] of degree 1 to 4 in s and at most 4 in u."""
    h = draw(heights)
    n, d = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, n), st.integers(0, d)), st.integers(-h, h), max_size=8,
    ))
    lead = draw(st.dictionaries(st.integers(0, d), st.integers(-h, h).filter(bool),
                                min_size=1, max_size=3))
    terms.update(((n, j), c) for j, c in lead.items())
    return _ZSU.from_dict(terms)


@st.composite
def resultant_pairs(draw):
    """Pairs in Z[s, u] of positive degree in s; in some, a leading
    coefficient in s vanishes at small u = 0, 1, 2, ..., the pair shares a
    factor (a zero resultant) or neither involves u (a constant one)."""
    heights = st.sampled_from((1, 3, 30, 10**6, 10**18))
    f, g = draw(s_u_polys(heights)), draw(s_u_polys(heights))
    mode = draw(st.sampled_from(("random", "vanishing-lead", "shared", "constant")))
    if mode == "vanishing-lead":
        roots = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
        n = f.degree(0)
        lead = _ZSU.one
        for c in roots:
            lead *= _ZU - c
        f = f - _ZSU({(n, j): c for (i, j), c in f.items() if i == n}) + lead * _ZS**n
    elif mode == "shared":
        h = draw(s_u_polys(st.just(5)))
        f, g = f * h, g * h
    elif mode == "constant":
        f, g = (p.ring.from_dict({(i, 0): c for (i, j), c in p.items() if j == 0} or {(1, 0): 1})
                for p in (f, g))
    assume(f.degree(0) >= 1 and g.degree(0) >= 1)
    return f, g


def assert_resultant_matches_prs(f, g):
    got = Z_U.from_dense(
        verify._resultant(poly._ints(f), poly._ints(g), (0, 1, 2), {}))
    want = resultant_by_prs(f, g)
    assert got in (want, -want)


@settings(PROPERTY, max_examples=200)
@given(resultant_pairs())
def test_resultant_matches_the_subresultant_prs_up_to_sign(pair):
    assert_resultant_matches_prs(*pair)


@PROPERTY
@given(charts())
def test_resultant_of_chart_residuals_matches_the_subresultant_prs(chart):
    for f, h in combinations(residuals_in_ring(chart), 2):
        assert_resultant_matches_prs(f, h)


@st.composite
def sign_rule_pairs(draw):
    """Two polynomials in Z[s, u] of degree 1 to 3 in s and at most 2 in u,
    with coefficients in [-5, 5]."""
    def poly():
        n, d = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, d)), st.integers(-5, 5), max_size=6))
        terms[n, draw(st.integers(0, d))] = draw(st.integers(-5, 5).filter(bool))
        return _ZSU.from_dict(terms)

    return poly(), poly()


@settings(PROPERTY, max_examples=100)
@given(sign_rule_pairs())
@example((_ZS * _ZU - 2, -_ZS**3 + _ZU))  # odd times odd: a swap flips the sign
@example((_ZS**2 - _ZU, 2 * _ZS + _ZU + 1))  # -F flips the sign, -G keeps it
def test_one_memo_entry_serves_a_resultant_up_to_sign_and_order(pair):
    """Res(a F, b G) = a^deg_s G b^deg_s F Res(F, G) = (-1)^(deg_s F deg_s G)
    Res(b G, a F): after the first call every sign choice and order is read
    from the same memo entry, and each equals the Sylvester determinant."""
    f, g = pair
    memo = {}
    for a, b in product((1, -1), repeat=2):
        for x, y in ((a * f, b * g), (b * g, a * f)):
            got = verify._resultant(poly._ints(x), poly._ints(y),
                                    (0, 1, 2), memo)
            want = resultant_by_sylvester(x, y)
            assert Z_U.from_dense(got) == want
            assert want in (resultant_by_prs(x, y), -resultant_by_prs(x, y))
    assert len(memo) == 1


@PROPERTY
@given(coordinates())
def test_the_bezoutian_of_d_and_n_is_the_negated_bezoutian_of_n_and_d(f):
    """Q(D, N) = -Q(N, D), computed or read from the memo entry of (N, D)."""
    N, D = f.integer_parts
    q = poly._bezoutian(N, D, {})
    negated = [[-a for a in r] for r in q]
    assert poly._bezoutian(D, N, {}) == negated
    memo = {}
    assert poly._bezoutian(N, D, memo) == q
    assert poly._bezoutian(D, N, memo) == negated
    assert poly._bezoutian(N, D, memo) == q


def int_polys(degree):
    """Int lists of the given degree, top degree first, small coefficients."""
    return st.lists(st.integers(-6, 6), min_size=degree + 1, max_size=degree + 1).filter(
        lambda c: c[0])


@st.composite
def numerators_and_denominators(draw):
    """Int tuples N and D, top degree first, with 0 <= deg N <= deg D <= 5."""
    d = draw(st.integers(1, 5))
    N = draw(int_polys(draw(st.integers(0, d))))
    return tuple(N), tuple(draw(int_polys(d)))


@PROPERTY
@given(numerators_and_denominators())
@example(((3, -1, 2), (1, 0, 4)))  # deg N = deg D
@example(((2, 5), (1, 0, 0, -1)))  # deg N < deg D
@example(((7,), (2, 0, 1)))  # a constant N: the top row has a leading zero
def test_the_bezoutians_top_row_is_the_negated_infinity_polynomial(nd):
    """With deg N <= deg D, the top row in s of the Bezoutian of (N, D) is
    -h, h = lc(D) N - n_d D: chart_injective reads its collisions with the
    point at infinity off the Bezoutians it builds anyway."""
    N, D = nd
    h = infinity_collision_poly(N, D)
    assume(h)  # N proportional to D: the Bezoutian is zero
    assert poly._trim(poly._bezoutian(N, D, {})[0]) == [-a for a in h]


# the variables of the int lists _zero_witnesses receives: u for the
# resultants, the gcd of the Bezoutians' top rows (collisions with infinity),
# the witness searches in u and the Groebner eliminant
# cleared of denominators, s for the partner searches, t for the immersion gcd
ONE_VARIABLE = (Z_U, Z_S, Z_T)


@st.composite
def one_variable_polys(draw):
    """A product of linear factors at points of a small pool, some of them
    excluded and some repeated, of at most two more factors of degree 2 to 3,
    and of a constant, in a ring from ONE_VARIABLE; and the excluded
    points."""
    gens_ring = draw(st.sampled_from(ONE_VARIABLE))
    (var,) = gens_ring.gens
    pool = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
    excluded = draw(st.sets(pool, max_size=6))
    p = gens_ring.one * draw(st.integers(1, 12))
    for a, m in draw(st.dictionaries(pool | st.sampled_from(sorted(excluded) or [F(0)]),
                                     st.integers(1, 3), max_size=5)).items():
        p *= (a.denominator * var - a.numerator) ** m
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=2, max_size=3))
        p *= var ** (len(coeffs) + 1) + sum(c * var**i for i, c in enumerate(coeffs))
    assume(not p.is_ground)
    return p, excluded


@settings(PROPERTY, max_examples=200)
@given(one_variable_polys())
def test_stripping_before_factoring_matches_factoring_then_filtering(case):
    p, excluded = case
    gens = str(p.ring.symbols[0])
    read = list(verify._zero_witnesses(as_ints(p), gens, excluded, lambda x: ("root", x),
                                       lambda mu: ("factor", mu)))
    roots = [x for kind, x in read if kind == "root"]
    higher = [mu for kind, mu in read if kind == "factor"]
    assert read == [("root", x) for x in roots] + [("factor", mu) for mu in higher]
    want_roots, want_higher = roots_and_factors_by_filter(p, excluded)
    assert roots == want_roots
    assert [{type(c) for c in mu} for mu in higher] == [{int}] * len(want_higher)
    assert [p.ring.from_dense(mu) for mu in higher] == want_higher
    assert [poly._str(mu, gens) for mu in higher] == [str_by_expr(mu) for mu in want_higher]


# --- witness strings: the ring's own str against sympy's Expr ------------------

# the rings whose elements a witness prints: factors and partners in Z[s],
# Z[u] and Z[t], curves of collisions in Z[s, u]
PRINTED = (Z_S, Z_U, Z_T, _ZSU)
coefficients = st.sampled_from((0, 1, -1, 2, -36, 10**6)) | st.integers(-50, 50)


@st.composite
def positive_polys(draw, gens_ring, degree=3):
    """A nonzero polynomial in gens_ring with a positive leading coefficient:
    signed coefficients, some of them +-1, and missing terms."""
    monoms = st.tuples(*[st.integers(0, degree)] * gens_ring.ngens)
    terms = draw(st.dictionaries(monoms, coefficients, min_size=1, max_size=6))
    p = gens_ring.from_dict({m: c for m, c in terms.items() if c})
    assume(p)
    return p if p.LC > 0 else -p


@settings(PROPERTY, max_examples=200)
@given(st.data())
def test_ring_str_of_factors_over_z_is_the_expr_str_in_the_same_order(data):
    """Witness strings are str(p) for factors over Z, which factor_list gives
    with positive leading coefficients; lists of them sort by "(p, m)"."""
    gens_ring = data.draw(st.sampled_from(PRINTED))
    gens = ",".join(map(str, gens_ring.symbols))
    degree = 2 if gens_ring.ngens == 2 else 3
    polys = data.draw(st.lists(positive_polys(gens_ring, degree), min_size=1, max_size=3))
    product = gens_ring.one
    for p in polys:
        assert poly._str(as_ints(p), gens) == str(p) == str_by_expr(p)
        product *= p
    items = product.factor_list()[1]
    assert [poly._str(as_ints(mu), gens) for mu, _ in items] == [str_by_expr(mu) for mu, _ in items]
    got = poly._print_sorted([(as_ints(mu), m) for mu, m in items],
                             lambda mu: poly._str(mu, gens))
    assert got == [(as_ints(mu), m) for mu, m in sorted(items, key=factor_key_by_expr)]


@st.composite
def eliminants(draw):
    """A Groebner eliminant: a polynomial in u alone of the lex ring in y, s,
    u over Q (fractions, numerators or denominators of 1, zero terms) or,
    with integer coefficients, over Z; positive leading coefficient."""
    poly._sympy()  # binds the rings
    gens_ring = draw(st.sampled_from((poly._GQ, poly._GZ)))
    dens = st.just(1) if gens_ring.domain == ZZ else st.sampled_from((1, 2, 3, 36, 1000))
    coeffs = draw(st.lists(st.builds(F, coefficients, dens), min_size=1, max_size=6))
    p = gens_ring.from_dict({(0, 0, k): QQ(c.numerator, c.denominator)
                             for k, c in enumerate(coeffs) if c})
    assume(p)
    return p if p.LC > 0 else -p


@settings(PROPERTY, max_examples=200)
@given(eliminants(), st.sets(st.builds(F, st.integers(-6, 6), st.integers(1, 3)), max_size=4))
def test_eliminant_prints_as_expr_and_clears_into_z_with_the_same_roots(p, excluded):
    assert poly._eliminant_str(p) == str_by_expr(p)
    if not p.is_ground:
        cleared = p.clear_denoms()[1].set_ring(Z_U)
        roots, _ = poly._rational_roots(as_ints(cleared), excluded)
        assert roots == roots_and_factors_by_filter(p, excluded)[0]


_Q = (1 << poly._Q_BITS) - 1  # the modulus of the coprimality certificate


def z_polys(draw, var, min_degree=0):
    """A polynomial in var of degree min_degree + 1 to 5 with small
    coefficients and, three times in eight, a leading coefficient that is a
    multiple of q."""
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=min_degree + 1, max_size=5))
    lead = draw(st.sampled_from((1, -2, 3, _Q, 2 * _Q, -_Q, 5, 7)))
    return sum((c * var**i for i, c in enumerate(coeffs)), lead * var ** len(coeffs))


@st.composite
def univariate_families(draw):
    """Two or three nonzero polynomials in Z[t]; in most a planted common
    factor of positive degree, which may be an excluded point's linear
    factor or have a leading coefficient divisible by q; and excluded points."""
    (t,) = Z_T.gens
    excluded = draw(st.sets(st.builds(F, st.integers(-4, 4), st.integers(1, 3)), max_size=3))
    polys = [z_polys(draw, t) for _ in range(draw(st.integers(2, 3)))]
    plant = draw(st.sampled_from(("none", "random", "excluded", "q-lead")))
    if plant == "random":
        h = z_polys(draw, t, 1)
    elif plant == "excluded" and excluded:
        e = draw(st.sampled_from(sorted(excluded)))
        h = (e.denominator * t - e.numerator) ** draw(st.integers(1, 2))
    elif plant == "q-lead":
        h = _Q * t + draw(st.integers(-9, 9).filter(bool))
    else:
        h = t.ring.one
    return [p * h for p in polys], excluded


@settings(PROPERTY, max_examples=300)
@given(univariate_families())
def test_a_one_variable_certificate_never_hides_a_shared_zero(case):
    polys, excluded = case
    got = poly._common_factor([as_ints(p) for p in polys], "t", excluded)
    want = gcd_by_ring(polys)
    # None only when nothing is shared off the excluded points, else the Z gcd
    assert got == as_ints(want) or (got is None and (
        want.is_ground or roots_and_factors_by_filter(want, excluded) == ([], [])))
    for f, g in combinations(polys, 2):
        lists = [as_ints(f), as_ints(g)]
        if f.LC % _Q == 0 or g.LC % _Q == 0:
            assert not poly._coprime(lists), "a leading coefficient vanishes mod q"
        if not gcd_by_ring([f, g]).is_ground:
            assert not poly._coprime(lists), "coprime mod q with a nonconstant Z gcd"


@st.composite
def bezoutian_families(draw):
    """Two or three Bezoutians Q_i, as rows, of coordinates N_i / D_i in Z[u]; in most,
    every N_i and D_i share a planted root, whose factor's leading
    coefficient is a multiple of q a quarter of the time; and excluded
    points among the first values of u the test may pick."""
    (u,) = Z_U.gens
    root = draw(st.builds(F, st.integers(-4, 4), st.integers(1, 3)))
    plant = draw(st.sampled_from(("none", "root", "root", "q-lead")))
    factor = {"none": u.ring.one,
              "root": root.denominator * u - root.numerator,
              "q-lead": _Q * u - root.numerator}[plant]
    qs = []
    for _ in range(draw(st.integers(2, 3))):
        N, D = z_polys(draw, u), z_polys(draw, u)
        q = poly._bezoutian(*(tuple((p * factor).to_dense()) for p in (N, D)), {})
        assume(len(q) > 1)  # neither zero nor constant
        qs.append(q)
    return qs, draw(st.sets(st.integers(0, 3).map(F), max_size=2)), plant != "none"


@settings(PROPERTY, max_examples=200)
@given(bezoutian_families())
def test_bezoutians_with_a_shared_root_never_pass_the_bivariate_certificate(case):
    qs, excluded, planted = case
    want = gcd_by_ring([poly._in_ring(q) for q in qs])
    got = poly._common_factor(qs, "s,u", excluded)
    assert not (planted and want.is_ground)
    assert got == as_ints(want) or (got is None and want.is_ground)


# --- exact small-degree resultants by Kronecker substitution -------------------


def sylvester_of_lists(f, g):
    """The Sylvester determinant over Z of int lists f, g, top degree first,
    by the oracle on the same polynomials in s alone."""
    f, g = (_ZSU.from_dict({(len(p) - 1 - i, 0): c for i, c in enumerate(p) if c}) for p in (f, g))
    return resultant_by_sylvester(f, g)


@st.composite
def small_degree_pairs(draw):
    """Int lists f, g with nonzero leading coefficients, one of degree 0 to
    2 and the other 0 to 5, in either order; coefficients small or past
    2^64 and of either sign, and in some a planted common root."""
    h = draw(st.sampled_from((3, 50, 2**70)))
    coef = st.integers(-h, h)
    (t,) = Z_T.gens

    def poly(d):
        return Z_T.from_dense([draw(coef.filter(bool))] + draw(st.lists(coef, min_size=d, max_size=d)))

    f, g = poly(draw(st.integers(0, 2))), poly(draw(st.integers(0, 5)))
    if f.degree() < 2 and g.degree() < 5 and draw(st.booleans()):
        root = draw(st.builds(F, st.integers(-4, 4), st.integers(1, 3)))
        f, g = (p * (root.denominator * t - root.numerator) for p in (f, g))
    pair = [as_ints(f), as_ints(g)]
    return pair[::-1] if draw(st.booleans()) else pair


@settings(PROPERTY, max_examples=300)
@given(small_degree_pairs())
@example([[2, 0, 2], [1, 0, 1, 5]])  # r1 = 0: 4 g = 20 mod f
@example([[3, -5, -2], [1, -1, -1, -2]])  # r = 0: the common root 2
@example([[-2, 1, -3], [-1, 4, 0, 7, -5]])  # negative leading coefficients
@example([[5, 0, 1, 3], [2, 7]])  # swapped, 3 * 1 odd: the sign flips
@example([[1, 0, 1, 3, 4], [-3, 1, 2]])  # swapped, 4 * 2 even
@example([[-7], [2, 0, 0, 1]])  # a constant: (-7)^3
@example([[4], [9]])  # two constants: the empty determinant
def test_small_resultants_are_the_sylvester_determinant(pair):
    f, g = pair
    assert poly._res_small(f, g) == sylvester_of_lists(f, g)


def test_small_resultants_refuse_two_degrees_past_two():
    assert poly._res_small([1, 0, 0, 1], [1, 2, 3, 4]) is None
    assert poly._res_small([1, 2, 3], [1, 0, 0, 0, 0, 0, 1]) is not None


@settings(PROPERTY, max_examples=200)
@given(resultant_pairs())
@example((_ZS**3 * _ZU + _ZS - 2, _ZS**4 - _ZU**2 * _ZS**3 + 3))  # 3 x 4: modulo p
@example((_ZS**3 - _ZU, 2 * _ZS**3 + _ZS * _ZU**2 - 1))  # 3 x 3: modulo p
@example((7 * _ZS, _ZS + 1000))  # Res = 7000 against the bound 7 * 1001
@example((_ZU**2 * _ZS**2 - _ZU, -(_ZU**2) * _ZS**4 + _ZS - 1))  # 2 x 4
def test_resultant_is_the_sylvester_determinant_on_both_paths(pair):
    """deg_s 1 to 4 on each side: Kronecker substitution when one is at most
    2, evaluation and interpolation modulo p when both are past 2."""
    f, g = pair
    got = verify._resultant(poly._ints(f), poly._ints(g), (0, 1, 2), {})
    assert Z_U.from_dense(got) == resultant_by_sylvester(f, g)


@st.composite
def coprime_families(draw):
    """Two to four int lists of degree 0 to 6 with nonzero leading
    coefficients; small coefficients, coefficients near multiples of q, and
    leading coefficients divisible by q."""
    coef = st.one_of(st.integers(-9, 9), st.integers(-3, 3).map(lambda k: k * _Q + 1),
                     st.integers(-2**80, 2**80))
    lead = st.one_of(coef.filter(bool), st.sampled_from((_Q, -2 * _Q)))
    return [[draw(lead)] + draw(st.lists(coef, max_size=6)) for _ in range(draw(st.integers(2, 4)))]


@settings(PROPERTY, max_examples=300)
@given(coprime_families())
@example([[1, 0], [1, -_Q]])  # Res(t, t - q) = -q: nonzero, yet 0 mod q
@example([[_Q, 1], [1, 0, 5]])  # q | lc: the only pair is skipped
@example([[_Q, 1], [1, 0, 5], [2, 3]])  # the skipped pair, then two that decide
@example([[1, 2, 3, 4, 5], [1, 0, 0, 0, 1], [3, 1]])  # degrees 4 x 4 go modulo q
def test_coprime_gives_the_verdict_of_the_remainder_sequences_mod_q(polys):
    assert poly._coprime(polys) == coprime_by_remainders_mod_q(polys)
    if len(polys) == 2 and (polys[0][0] % _Q == 0 or polys[1][0] % _Q == 0):
        assert not poly._coprime(polys)


def chain_fan(*cones):
    fan = preset("p3")
    for cone in cones:
        fan = star_subdivision(fan, cone)
    return fan


@pytest.mark.parametrize("fan, method, interpolations", [
    (preset("p3"), "intersection", 0),
    (preset("p1p1p1"), "intersection", 0),
    (preset("bl-p3-point"), "intersection", 0),
    (ladder_fan(6), "kernel", 0),
    (ladder_fan(7), "kernel", 3),  # (0, 3, 4) 3 x 3, (0, 3, 6) 4 x 6 twice
    (ladder_fan(8), "kernel", 4),  # (0, 3, 4) 3 x 4, (0, 3, 6) 4 x 6 and 4 x 7; the
    # 3 x 4 pairs of (0, 1, 7) are read from the memo
    (chain_fan((0, 1, 2), (0, 1, 3)), "kernel", 0),
    (chain_fan((0, 1, 2), (0, 1, 3), (1, 2, 3)), "kernel", 0),
    (chain_fan((0, 1, 2), (0, 1, 3), (1, 2, 3), (2, 3, 6)), "kernel", 0),
], ids=["p3", "p1p1p1", "bl-p3-point", "ladder6", "ladder7", "ladder8",
        "chain6", "chain7", "chain8"])
def test_only_resultants_of_two_degrees_past_two_interpolate(monkeypatch, fan, method,
                                                             interpolations):
    """Certifying runs _newton once per pairwise resultant whose degrees in
    s both exceed 2, and never on the presets, the 6-ray ladder or the p3
    chains of 6 to 8 rays: each of their resultants has a side of degree at
    most 2 and is taken exactly by Kronecker substitution."""
    shapes, interpolated = [], []
    real_resultant, real_newton = verify._resultant, poly._newton

    def resultant(F, G, cone, memo):
        shapes.append((len(F) - 1, len(G) - 1))
        try:
            return real_resultant(F, G, cone, memo)
        finally:
            shapes.pop()

    # each spy patches the module whose globals resolve the call
    monkeypatch.setattr(verify, "_resultant", resultant)
    monkeypatch.setattr(poly, "_newton", lambda *args: interpolated.append(shapes[-1])
                        or real_newton(*args))
    ample = find_ample(fan)
    xi = xi_vector(fan, ample if method == "intersection" else None, method=method)
    assert verify.certify(build_embedding_data(fan, None, xi, 0)).embedded
    assert len(interpolated) == interpolations
    assert all(min(shape) > 2 for shape in interpolated)


# --- gcds and small factorizations in ints against sympy's ring ---------------


@st.composite
def gcd_families(draw):
    """Two or three nonzero polynomials in Z[t] or Z[s, u], each times a
    signed integer content, in most with a planted common factor: a random
    one, a linear one with leading coefficient q, or (in Z[s, u]) a common
    factor the Bezoutians of symmetric charts share; the rest are coprime
    as a rule."""
    gens_ring = draw(st.sampled_from((Z_T, _ZSU)))
    if gens_ring.ngens == 1:
        (t,) = gens_ring.gens
        polys = [z_polys(draw, t) for _ in range(draw(st.integers(2, 3)))]
        planted = (gens_ring.one, z_polys(draw, t, 1), _Q * t - draw(st.integers(-9, 9)))
    else:
        s, u = gens_ring.gens
        polys = [draw(positive_polys(gens_ring, 2)) for _ in range(draw(st.integers(2, 3)))]
        a = draw(st.integers(-9, 9))
        planted = (gens_ring.one, draw(positive_polys(gens_ring, 2)), _Q * u - a,
                   s + u, s * u - 2, s + u - 1, 2 * s * u - a * (s + u) + 3)
    h = draw(st.sampled_from(planted))
    contents = st.sampled_from((1, -1, 2, -3, 6, -12))
    shared = draw(contents)
    return [p * h * shared * draw(contents) for p in polys]


_T = Z_T.gens[0]
# neither operand's primitive part divides the other, so the division test
# leaves these to GCDHEU in Z[t], and with tries = 0 to sympy's gcd, and to
# sympy's gcd straight away in Z[s, u]
NO_DIVISION = ([6 * (_T + 1) * (_T - 2), -4 * (_T + 1) * (_T + 3)],
               [(_ZS + _ZU) * (_ZS * _ZU - 2), 3 * (_ZS + _ZU) * (_ZS + _ZU - 1)])


@pytest.mark.parametrize("tries", [poly._HEU_TRIES, 0])
@settings(PROPERTY, max_examples=200)
@given(gcd_families())
# at the first xi = 31 the value of the first input divides the second's,
# so only the division of the second input refuses GCDHEU's candidate
# t + 1; the pair in Z[s, u] goes from the division test to sympy
@example([_T + 1, _T + 33])
@example([_ZS + _ZU, _ZS + 2 * _ZU - 31])
@example([-_ZSU.one, _ZSU.one])  # a negative constant first: the gcd stops there, made positive
@example([Z_T(-3), _T + 2])
# the lower operand's primitive part divides the other: negative and
# non-unit contents, a constant second operand, proportional operands, and
# operands in Z[s, u] whose rows differ in width
@example([-6 * (_T + 1) * (_T - 2), 4 * (_T + 1)])
@example([10 * (_T**2 - 2), -4 * _T**2 + 8])
@example([6 * _T**2 + 2, Z_T(-4)])
@example([-6 * (_ZS + _ZU) * (_ZS * _ZU - 2), -9 * (_ZS + _ZU)])
@example([6 * _ZS * _ZU + 2, _ZSU(-4)])
@example([-3 * (_ZS * _ZU - 2) * (_ZS + _ZU), 6 * (_ZS * _ZU - 2) * (_ZS + _ZU)])
@example([(2 * _ZS + _ZU) * (_ZS**2 + _ZU**3), -4 * _ZS - 2 * _ZU])
@example([(_ZS + _ZU**3) * (_ZS**2 + 1), 2 * _ZS + 2 * _ZU**3])
@example(NO_DIVISION[0])
@example(NO_DIVISION[1])
def test_gcds_in_ints_equal_the_ring_gcd(tries, polys):
    """With tries = 0 every pair the division test leaves goes to sympy's
    gcd, the fallback."""
    with patch.object(poly, "_HEU_TRIES", tries):
        assert poly._gcd_all([as_ints(p) for p in polys]) == as_ints(gcd_by_ring(polys))


@pytest.mark.parametrize("tries", [poly._HEU_TRIES, 0])
@pytest.mark.parametrize("polys", NO_DIVISION, ids=["Z[t]", "Z[s, u]"])
def test_a_gcd_the_division_leaves_reaches_gcdheu_and_then_sympy(tries, polys):
    """In Z[t] GCDHEU answers with its tries, and with none sympy's gcd
    does; in Z[s, u] sympy's gcd answers straight after the division."""
    two = polys[0].ring.ngens == 2
    with patch.object(poly, "_HEU_TRIES", tries), \
            patch.object(poly, "_heu_gcd", wraps=poly._heu_gcd) as gcdheu, \
            patch.object(poly, "_in_ring", wraps=poly._in_ring) as to_sympy:
        assert poly._gcd(*map(as_ints, polys)) == as_ints(gcd_by_ring(polys))
    assert gcdheu.call_count == (0 if two else 1)
    assert to_sympy.called == (two or tries == 0)


@pytest.mark.parametrize("polys", NO_DIVISION, ids=["Z[t]", "Z[s, u]"])
def test_the_sympy_gcd_answers_when_its_heuristic_fails(polys):
    """_gcd's last resort is the ring's dmp_inner_gcd, whose subresultant
    PRS answers where heugcd gives up: with no GCDHEU of the package's own,
    USE_HEU_GCD off, and the heugcd that PolyElement.gcd runs alone made to
    raise HeuristicGCDFailed, the gcd is still the ring's."""
    want = as_ints(gcd_by_ring(polys))

    def gives_up(f, g):
        raise HeuristicGCDFailed("no luck")

    with using(USE_HEU_GCD=False), patch.object(poly, "_HEU_TRIES", 0), \
            patch("sympy.polys.rings.heugcd", gives_up):
        assert poly._gcd(*map(as_ints, polys)) == want


def test_the_division_test_returns_rows_in_normal_form():
    """Rows of unequal width, the top one unpadded, give the gcd as _ints
    rows, each deg_u + 1 wide: gcd(contents) times the lower operand's
    primitive part with a positive leading coefficient."""
    lower = [[2], [0, 2, 2]]  # 2 s + 2 u + 2
    other = poly._ints(poly._in_ring(lower) * (3 * _ZS - 3 * _ZU))  # content 6
    assert poly._gcd(other, lower) == [[0, 2], [2, 2]]
    assert poly._gcd([[-4], [-4, -4]], other) == [[0, 2], [2, 2]]
    assert poly._gcd(other, [[-9], [0, -9, -9]]) == [[0, 3], [3, 3]]


def test_gcdheu_makes_its_candidate_primitive():
    """At the first xi the integer gcd of the values can carry a factor
    the polynomials' gcd does not: (t + 1)^2 and (t + 1)(t + 3) at xi = 33
    give 2 * 34, whose digits 2t + 2 divide neither.  Made primitive, the
    candidate is the gcd at that first xi."""
    with patch.object(poly, "_HEU_TRIES", 1):
        assert poly._heu_gcd([1, 2, 1], [1, 4, 3]) == [1, 1]


@st.composite
def split_inputs(draw):
    """A nonzero polynomial over Z times a signed content, some of them not
    units, with either sign in front: an int list, or s-rows, a single row
    (a polynomial in u alone) some of the time, given with k leading zero
    columns and, some of the time, with its top row unpadded."""
    gens_ring = draw(st.sampled_from((Z_T, _ZSU, _ZSU)))
    p = draw(positive_polys(gens_ring))
    if gens_ring.ngens == 2 and draw(st.booleans()):
        p = _ZSU.from_dict({(0, j): c for (_, j), c in p.items()})
    p *= draw(st.sampled_from((1, -1, 2, -3, 6, -12, -2**70)))
    rows = as_ints(p)
    if gens_ring.ngens == 2:
        k = draw(st.integers(0, 2))
        rows = [[0] * k + r for r in rows]
        if draw(st.booleans()):
            rows[0] = poly._trim(rows[0])
    return p, rows


@PROPERTY
@given(split_inputs())
@example((-6 * _ZU**2 + 4, [[0, -6, 0, 4]]))  # u alone, a leading zero column
@example((-2 * _ZS * _ZU + 4 * _ZU**2, [[-2, 0], [0, 4, 0, 0]]))  # top row unpadded
def test_split_and_lc_are_the_rings_primitive_and_lc(case):
    """poly._split is the ring's primitive() with the sign moved so that the
    primitive part leads positive, its rows in _ints form, and poly._lc the
    ring's LC, however the rows are padded."""
    p, rows = case
    content, primitive = p.primitive()
    sign = 1 if p.LC > 0 else -1
    assert poly._lc(rows) == p.LC
    assert poly._split(rows) == (sign * content, as_ints(sign * primitive))


@PROPERTY
@given(coordinates())
def test_bezoutian_rows_are_the_s_coefficients_of_their_polynomial(f):
    """Top s-degree first, no zero top row, each row deg_u + 1 wide."""
    rows = poly._bezoutian(*f.integer_parts, {})
    assert poly._ints(poly._in_ring(rows)) == rows


@st.composite
def small_factor_inputs(draw):
    """A signed content times: in one variable, one or two linear factors
    den x - num (a square discriminant, a double root) or a random
    quadratic (mostly not); in Z[s, u], A(u) s + B(u), times a factor h(u)
    that is 1 half of the time; and whether sympy may be left to answer:
    only when A, B and h leave an s-content that is not an integer."""
    gens_ring = draw(st.sampled_from(ONE_VARIABLE + (_ZSU,)))
    c = draw(st.sampled_from((1, -1, 2, -3, 6, -12)))
    small = st.integers(-6, 6)
    if gens_ring.ngens == 1:
        (x,) = gens_ring.gens
        kind = draw(st.sampled_from(("linear", "split", "double", "quadratic")))
        linear = st.builds(lambda n, d: d * x - n, small, st.integers(1, 4))
        if kind == "linear":
            p = draw(linear)
        elif kind == "split":
            p = draw(linear) * draw(linear)
        elif kind == "double":
            p = draw(linear) ** 2
        else:
            p = draw(st.integers(1, 5)) * x**2 + draw(small) * x + draw(small)
        return c * p, False
    s, u = gens_ring.gens
    a, b = (sum((draw(small) * u**i for i in range(draw(st.integers(1, 3)))), gens_ring.zero)
            for _ in range(2))
    assume(a)
    h = draw(st.sampled_from((gens_ring.one, gens_ring.one, u, u - 2, 2 * u + 1)))
    return c * h * (a * s + b), not gcd_by_ring([h * a, h * b] if b else [h * a]).is_ground


@settings(PROPERTY, max_examples=300)
@given(small_factor_inputs())
# the s-content test for degree 1 in s, a _gcd of the two rows: a zero lower
# row (p = c h A s) with a constant and a nonconstant content, a nonconstant
# h(u), and a negative c with a constant content
@example((-6 * 5 * _ZS, False))
@example((2 * (_ZU - 2) * (3 * _ZU + 1) * _ZS, True))
@example((-3 * (_ZU - 2) * ((2 * _ZU + 1) * _ZS + _ZU + 4), True))
@example((-6 * (2 * _ZS + 4 * _ZU - 6), False))
def test_closed_form_factors_equal_the_ring_factor_list(case):
    p, sympy_may_answer = case
    calls = []
    real = PolyElement.factor_list
    with patch.object(PolyElement, "factor_list", lambda q: calls.append(q) or real(q)):
        if p.ring.ngens == 1:
            # rational roots by closed forms, then what is left of degree 2
            roots, rest = poly._rational_roots(as_ints(p), ())
            factors = [(p.ring.from_dense(mu), m) for mu, m in
                       (poly._factor(rest) if len(rest) > 1 else [])]
            factors += [(lin, multiplicity(p, lin)) for lin in
                        (p.ring.from_dense([x.denominator, -x.numerator]) for x in roots)]
        else:
            factors = [(poly._in_ring(f), m) for f, m in poly._factor(as_ints(p))]
        got = sorted(factors, key=lambda fm: f"({fm[0]}, {fm[1]})")
    assert got == factor_list_by_ring(p)
    assert sympy_may_answer or not calls


def multiplicity(p, factor) -> int:
    """How often factor divides p, by the ring's remainder."""
    m = 0
    while not p.rem(factor):
        p, m = p.exquo(factor), m + 1
    return m


# --- int lists and rows against sympy's ring: printing, division, roots -------

wide_coefficients = coefficients | st.integers(-2**210, 2**210)


@st.composite
def printable_polys(draw):
    """Any polynomial over Z in one of PRINTED: zero, constants, missing
    terms, coefficients +-1 and past 200 bits, either sign in front."""
    gens_ring = draw(st.sampled_from(PRINTED))
    monoms = st.tuples(*[st.integers(0, 5)] * gens_ring.ngens)
    terms = draw(st.dictionaries(monoms, wide_coefficients, max_size=7))
    return gens_ring.from_dict({m: c for m, c in terms.items() if c})


@settings(PROPERTY, max_examples=300)
@given(printable_polys())
def test_the_printer_on_int_lists_and_rows_is_the_ring_str(p):
    assert poly._str(as_ints(p), ",".join(map(str, p.ring.symbols))) == str(p)


@st.composite
def division_pairs(draw):
    """F and G in Z[s, u], G nonzero and of degree 0 in s some of the time:
    F = G H (zero when H is), F = k G for a nonzero k in [-9, 9] (plus,
    some of the time, one stray term below the top row, so the top rows
    still agree), F = G H plus one stray term, an unrelated F, or an F
    whose image under s -> x^w, u -> x, w = deg_u F + 1, is a multiple of
    G's, which G need not divide."""
    heights = st.sampled_from((1, 5, 10**20))
    G = draw(s_u_polys(heights))
    shape = draw(st.sampled_from(("s", "s", "u alone", "constant")))
    if shape == "u alone":
        G = _ZSU.from_dict({(0, j): c for (i, j), c in G.items() if i == G.degree(0)})
    elif shape == "constant":
        G = _ZSU(draw(st.sampled_from((1, -1, 3, 10**20))))
    H = draw(s_u_polys(heights)) * draw(st.sampled_from((1, 0, -2)))
    mode = draw(st.sampled_from(("exact", "exact", "scalar", "stray", "unrelated", "image")))
    if mode == "exact":
        return G * H, G
    if mode == "scalar":
        F = G * draw(st.integers(-9, 9).filter(bool))
        if G.degree(0) > 0 and draw(st.booleans()):
            i, j = draw(st.integers(0, G.degree(0) - 1)), draw(st.integers(0, 4))
            F += _ZS**i * _ZU**j * draw(st.integers(1, 9))
        return F, G
    if mode == "image":
        w = G.degree(1) + 1 + draw(st.integers(0, 2))
        image = Z_T.from_dict({(i * w + j,): c for (i, j), c in G.items()})
        image *= Z_T.from_dense(draw(st.lists(st.integers(-5, 5), min_size=1, max_size=6)))
        return _ZSU.from_dict({divmod(k, w): c for (k,), c in image.items()}), G
    if mode == "stray":
        i, j, c = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 9))
        return G * H + _ZS**i * _ZU**j * c, G
    return draw(s_u_polys(heights)), G


@settings(PROPERTY, max_examples=300)
@given(division_pairs())
@example((_ZS - 1, _ZU + 1))  # s - 1 maps to x^2 - 1 = (x + 1)(x - 1), but u + 1 does not divide it
# F = -4 G, G's top row [3, 1, 0] unpadded: the scalar multiple, read off without dividing
@example((-4 * ((3 * _ZU**2 + _ZU) * _ZS + _ZU - 2), (3 * _ZU**2 + _ZU) * _ZS + _ZU - 2))
# the same F plus 5: the top rows still agree, so the shortcut must compare every row
@example((-4 * ((3 * _ZU**2 + _ZU) * _ZS + _ZU - 2) + 5, (3 * _ZU**2 + _ZU) * _ZS + _ZU - 2))
def test_division_on_rows_is_the_ring_division(pair):
    F, G = pair
    got = poly._exquo_su(as_ints(F), as_ints(G))
    if F.rem(G):
        assert got is None
    else:
        assert got == as_ints(F.exquo(G))


@st.composite
def root_search_inputs(draw):
    """A signed content, up to 200 bits, times linear factors den x - num,
    some repeated, some at excluded points, with roots past 200 bits some
    of the time; times a part with no rational root: an irreducible
    quadratic or cubic, a quartic that splits into two irreducible
    quadratics, or a quadratic with a 200-bit coefficient.  And the
    excluded points."""
    (x,) = Z_U.gens
    small = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
    huge = st.builds(F, st.integers(-2**210, 2**210), st.integers(1, 2**205))
    roots = draw(st.dictionaries(small | huge, st.integers(1, 3), max_size=4))
    excluded = set(draw(st.lists(st.sampled_from(sorted(roots) or [F(0)]), max_size=2)))
    excluded |= draw(st.sets(small, max_size=2))
    p = Z_U.one * draw(st.sampled_from((1, -1, 6, -35, 2**201 + 1)))
    for a, m in roots.items():
        p *= (a.denominator * x - a.numerator) ** m
    k = draw(st.integers(1, 30))
    p *= draw(st.sampled_from((
        Z_U.one,
        2 * x**2 + 2 * x + k,  # discriminant 4 - 8k < 0
        x**3 + x + 2 * k - 1,  # an integer root would make r^3 + r odd
        (x**2 + k) * (x**2 + 2),  # two irreducible quadratics, no root
        (x**2 - 2) * (3 * x**2 - 1),
        x**2 + 2**200 + k,
    )))
    assume(not p.is_ground)
    return p, excluded


@settings(PROPERTY, max_examples=200)
@given(root_search_inputs())
def test_root_search_matches_the_ring_factor_list(case):
    """The rational roots off the excluded points are the ring's, in the
    same order, and what is left is, up to a constant, the product of the
    ring's factors of degree >= 2."""
    p, excluded = case
    roots, rest = poly._rational_roots(as_ints(p), excluded)
    assert roots == roots_and_factors_by_filter(p, excluded)[0]
    left = Z_U.one
    for mu, m in factor_list_by_ring(p):
        if mu.degree() >= 2:
            left *= mu**m
    assert Z_U.from_dense(rest).primitive()[1] in (left, -left)


@pytest.mark.parametrize("c", [[6, -4], [-6, 4], [4, 6], [-3, -12]])
def test_a_linear_root_is_read_as_the_horner_strip_reads_it(c):
    """6x - 4 and its kin: the closed form gives the root and what is left
    that _strip, with its Horner test per excluded point, gives, whether
    the root is excluded or not."""
    x = F(-c[1], c[0])
    left = poly._strip(c, {x})
    linear = x.denominator * Z_U.gens[0] - x.numerator
    assert len(left) == 1 and left[0] * linear == Z_U.from_dense(c)
    assert poly._rational_roots(c, {x, x + 1}) == ([], left)
    assert poly._rational_roots(c, {x + 1}) == ([x], left)
    assert poly._rational_roots(c, set()) == ([x], left)


# --- the torus pass against the per-chart searches it replaced -----------------

INFINITY_KINDS = ("collision-with-infinity", "collision-with-infinity-conjugate")


def curve_data(divisors, fan_name="p3", xi=(1, 1, 1, 1)):
    """Embedding data on a preset whose eps_i are the principal functions of
    the pairing combinations of the given divisors (lists of (point, mult))."""
    fan = preset(fan_name)
    divisors = tuple(CDivisor.of([(F(x), m) for x, m in d]) for d in divisors)
    a = pairing_matrix(fan)
    epsilon = tuple(principal_function(pairing_divisor(divisors, a[i])) for i in range(3))
    return EmbeddingData(fan, None, XiVector(xi, "kernel"), divisors, epsilon, (F(1),) * 3)


def pipeline(fan, method, seed=0):
    ample = find_ample(fan)
    return build_embedding_data(
        fan, ample, xi_vector(fan, ample if method == "intersection" else None, method=method),
        seed)


TORUS_DATA = {
    **{f"{name}/{seed}": (lambda name=name, seed=seed: pipeline(preset(name), "intersection",
                                                                 seed))
       for name in ("p3", "p1p1p1", "bl-p3-point") for seed in (0, 1)},
    "ladder-6-intersection": lambda: pipeline(ladder_fan(6), "intersection"),
    **{f"ladder-{rays}-kernel": (lambda rays=rays: pipeline(ladder_fan(rays), "kernel"))
       for rays in (6, 7, 8, 9)},
    **{f"involution/{label}": (lambda args=args: involution_data(*args))
       for label, args in INVOLUTIONS.items()},
    "doubled-point": doubled_point_data,
    # D_0 = 2 * {1}, and D_1 holds 5 three times: no coordinate has a simple
    # zero at 5 on the charts of ray 1
    "non-reduced": lambda: curve_data([[(1, 2), (2, 1)], [(5, 3)], [(3, 1), (4, 2)],
                                       [(6, 1), (7, 1), (8, 1)]], xi=(3, 3, 3, 3)),
    # rays 0 and 1 span a cone of p3 and share the point 1
    "shared-in-a-cone": lambda: curve_data([[(1, 1), (2, 1)], [(1, 1), (3, 1)],
                                            [(4, 1), (5, 1)], [(6, 1), (7, 1)]], xi=(2,) * 4),
    "empty": lambda: curve_data([[]] * 4),
    "constant-coordinate": lambda: curve_data([[(1, 1)], [(2, 1)], [(3, 1)], [(1, 1)]]),
}


@pytest.mark.parametrize("label", sorted(TORUS_DATA))
def test_certify_finds_what_the_per_chart_searches_found(label):
    """Per chart, certify's collisions with infinity and its tangent
    witnesses are those the chart's own gcds give, excluded points
    stripped: on presets and ladders, on involution-invariant data, on
    non-reduced divisors, on two rays of one cone sharing a point, and on
    empty divisors, where coordinates are constant."""
    data = TORUS_DATA[label]()
    charts = chart_maps(data)
    cert = certify(data)
    for record, chart in zip(cert.charts, charts):
        at_infinity = [w for w in record.witnesses if w["kind"] in INFINITY_KINDS]
        assert at_infinity == infinity_collisions_by_chart(chart), chart.cone
        tangents = tuple(w for w in record.witnesses if w["kind"].startswith("tangent"))
        imm = chart_immersive_by_chart(chart)
        assert (record.immersive, tangents) == (imm.ok, imm.witnesses), chart.cone


@st.composite
def hand_charts(draw):
    """Charts whose coordinates may have a zero or a pole at infinity or be
    constant, whose excluded points may leave poles out; in some every coordinate has a zero of order 2 or 3 at one point,
    a cusp, and in some the coordinates share a zero at infinity and at one
    finite point."""
    mode = draw(st.sampled_from(("random", "cusp", "zero-at-infinity")))
    coords = [draw(coordinates()) for _ in range(3)]
    if mode == "cusp":
        r = draw(roots)
        coords = [RationalFunction.of(f.constant, dict(f.factors) | {r: draw(st.sampled_from(
            (2, 3)))}) for f in coords]
    elif mode == "zero-at-infinity":
        r = draw(roots)
        coords = [RationalFunction.of(f.constant, {a: -abs(e) for a, e in f.factors if a != r}
                                      | {r + 1: -2, r: 1}) for f in coords]
    if draw(st.booleans()):
        coords[draw(st.integers(0, 2))] = RationalFunction.of(draw(constants), {})
    poles = sorted({r for f in coords for r, e in f.factors if e < 0})
    kept = draw(st.lists(st.sampled_from(poles), unique=True)) if poles else []
    extra = draw(st.lists(st.sampled_from(GRID), max_size=2))
    excluded = frozenset(set(poles) - set(kept) | set(extra))
    return ChartMap((0, 1, 2), IDENTITY_DUALS, tuple(coords), excluded)


@PROPERTY
@given(hand_charts())
@example(ChartMap((0, 1, 2), IDENTITY_DUALS, (
    RationalFunction.of(1, {F(1): 1, F(2): -1, F(3): -1}),
    RationalFunction.of(1, {F(1): 2, F(2): -1, F(3): -1, F(4): -1}),
    RationalFunction.of(1, {F(1): 1, F(2): -2})), frozenset({F(2)})))
def test_a_direct_chart_call_finds_what_the_per_chart_searches_found(chart):
    """A chart checked on its own builds its torus pass from its own
    coordinates, S its excluded points and their zeros and poles, and finds
    the collisions with infinity and the tangents its own gcds give.  In the
    example every coordinate vanishes at 1 and at infinity, so 1 collides
    with infinity, a point of S the pass strips."""
    assert chart_immersive(chart) == chart_immersive_by_chart(chart)
    poles = {r for f in chart.coords for r, e in f.factors if e < 0}
    if poles <= chart.excluded:
        got = [w for w in chart_injective(chart).witnesses if w["kind"] in INFINITY_KINDS]
        assert got == infinity_collisions_by_chart(chart)
