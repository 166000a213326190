"""Exact polynomial arithmetic over Z for the chart certifier in verify.

Polynomials are int lists, top degree first, and a polynomial in Z[s, u]
is the rows of its coefficients in s (_ints), on clean and refuting charts
alike.  Either has one normal form, _split: a content signed as the
leading coefficient (_lc), and a primitive part that leads positive.
_gcd, GCDHEU's one caller, tries one exact division by the lower
operand's primitive part (in Z[s, u] by long division on rows, in
Z[u][s]); then, in one variable, GCDHEU on both primitive parts in ints,
a candidate accepted once it divides exactly; then sympy, which a gcd in
Z[s, u] reaches straight from the division; gcd(contents) multiplies the
result.
Rational roots in one variable come from closed forms up to degree 2 and,
above, from p-adic lifting of the roots modulo a small prime, each
accepted only once it evaluates to zero exactly; what is left once they
are divided out is irreducible at degree 2 or 3.  A factor of degree 1 in
s whose s-content, a _gcd, is an integer is irreducible.  sympy is
imported on first use (_sympy) for three things only: a gcd that the
division leaves in Z[s, u] or that six evaluation points fail in one
variable, factor_list of what is left at degree >= 4 in one variable or
past the closed form in Z[s, u], and the Groebner fallback; no other
module holds a sympy object.
Factors come out primitive with positive leading coefficient, as over Q.
Resultants are this module's own: exact by a closed form over Z with a
side of degree at most 2 in the eliminated variable (_res_small, and in
Z[s, u] _res_kronecker), else modulo one Mersenne prime past a proven
coefficient bound (_res_interpolated).  No polynomial is factored with an
excluded point's root in it: each excluded factor den * x - num is divided
out first.  No gcd is computed when a nonzero resultant modulo
q = 2^61 - 1, the table's first prime, proves two of its inputs coprime
(inputs in one variable stripped first, the Bezoutians taken at one value
of u); only an inconclusive test computes the gcd.  The Groebner fallback
runs in a lex ring in y, s, u, over Z when every input coefficient is an
integer and over Q otherwise; no other polynomial is over Q, and its
eliminant is cleared into Z[u] before its rational roots are sought.
Witness strings print from int lists and rows (_str) as sympy's ring
prints them, which for these polynomials is what sympy's Expr would print;
the eliminant is the ring's own str over Q.  A list of factors is printed
to sort it only when it holds two or more.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, count
from math import gcd, isqrt


@cache
def _sympy() -> None:
    """Import sympy and bind its rings and Groebner basis as this module's
    globals: _Z, _zu, _GQ, _GZ, QQ and groebner.

    Only the Groebner fallback, a gcd the division leaves in Z[s, u] or
    GCDHEU gives up on in one variable, and a factorization in Z[s, u] or
    of degree >= 4 in one variable need a ring.
    """
    global _Z, _zu, _GQ, _GZ, QQ, groebner
    from sympy.polys import domains, groebnertools
    from sympy.polys.rings import ring

    QQ, groebner = domains.QQ, groebnertools.groebner
    _Z = ring("s,u", domains.ZZ)[0]
    _zu = ring("u", domains.ZZ)[1]  # also the ring the eliminant is cleared into
    _GQ = ring("y,s,u", QQ)[0]  # lex, for the Groebner fallback
    _GZ = _GQ.clone(domain=domains.ZZ)


# exponents k of Mersenne primes 2^k - 1, each proven prime by the
# Lucas-Lehmer test; the resultant modulus is the first one past its bound
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
)
_Q_BITS = _MERSENNE_EXPONENTS[0]  # q = 2^61 - 1, the modulus of _coprime


def _qq(x: Fraction):
    return QQ(x.numerator, x.denominator)


def _bezoutian(N, D, memo: dict) -> list:
    """(N(s) D(u) - N(u) D(s)) / (s - u) in Z[s, u], for N and D int
    tuples, top degree first, as its _ints rows ([] for zero).

    With N = sum a_i u^i, D = sum b_i u^i and c_ik = a_i b_k - a_k b_i,
    (s - u) Q = sum c_ik s^i u^k gives q_pk = c_(p+1)k + q_(p+1)(k-1),
    filled row by row from the top.  Q is symmetric, so deg_u Q = deg_s Q.
    The memo (see verify.certify) holds Q under (N, D) and -Q under (D, N).
    """
    if (N, D) in memo:
        return memo[N, D]
    n = max(len(N), len(D)) - 1
    a, b = (list(p[::-1]) + [0] * (n + 1 - len(p)) for p in (N, D))
    rows = []
    row = [0] * n  # q_(p+1)k, zero above the top row
    for p in reversed(range(n)):
        ap, bp = a[p + 1], b[p + 1]
        row = [ap * b[k] - a[k] * bp + (row[k - 1] if k else 0) for k in range(n)]
        if rows or any(row):
            rows.append(row)
    Q = [r[len(rows) - 1::-1] for r in rows]
    memo[N, D], memo[D, N] = Q, [[-a for a in r] for r in Q]
    return Q


def _diagonal(Q: list) -> list:
    """Q(t, t) = N' D - N D', trimmed, for Q the Bezoutian of N and D (square
    rows): differentiate (s - u) Q = N(s) D(u) - N(u) D(s) in s at s = u = t."""
    w = [0] * (2 * len(Q) - 1)
    for i, row in enumerate(Q):
        for j, a in enumerate(row):
            w[i + j] += a
    return _trim(w)


def _in_ring(p):
    """p, an int list or s-coefficient rows (each an int list in u, top
    degree first, of any length), as an element of sympy's Z[u] or Z[s, u]."""
    _sympy()
    if not isinstance(p[0], list):
        return _zu.ring.from_dense(p)
    n = len(p) - 1
    return _Z.from_dict({(n - i, len(r) - 1 - j): a
                         for i, r in enumerate(p) for j, a in enumerate(r) if a})


def _ints(h) -> list:
    """h, an element of sympy's Z[u] or Z[s, u], as an int list or, in
    Z[s, u], as its coefficients in s, top degree first, each an int list
    of length deg_u h + 1 in u, top degree first."""
    if h.ring.ngens == 1:
        return [int(a) for a in h.to_dense()]
    width = h.degree(1) + 1
    rows = [[0] * width for _ in range(h.degree(0) + 1)]
    for (i, j), a in h.iterterms():
        rows[-1 - i][-1 - j] = int(a)
    return rows


def _rows(R: list) -> list:
    """R, s-coefficient rows of int lists in u of any length with a nonzero
    top row, in the form _ints gives: each row deg_u + 1 wide ([] for
    zero)."""
    R = [_trim(r) for r in R]
    width = max(map(len, R), default=0)
    return [[0] * (width - len(r)) + r for r in R]


def _total_degree(rows) -> int:
    n = len(rows) - 1
    return max(n - i + len(r) - 1 - j for i, r in enumerate(rows) for j, a in enumerate(r) if a)


def _str(p: list, gens: str) -> str:
    """str(p) for p as an element of sympy's ring over Z: an int list in the
    variable gens ("s", "u" or "t") or, for gens = "s,u", rows in Z[s, u].

    Terms in lex order, each c*s**i*u**j with c left out when it is +-1,
    joined by " + " and " - "; a leading minus is "-", zero is "0".
    """
    if gens == "s,u":
        terms = [(a, (("s", len(p) - 1 - i), ("u", len(r) - 1 - j)))
                 for i, r in enumerate(p) for j, a in enumerate(r) if a]
    else:
        terms = [(a, ((gens, len(p) - 1 - j),)) for j, a in enumerate(p) if a]
    text = ""
    for a, monomial in terms:
        factors = [x if k == 1 else f"{x}**{k}" for x, k in monomial if k]
        if abs(a) != 1 or not factors:
            factors.insert(0, str(abs(a)))
        text += (" - " if a < 0 else " + ") + "*".join(factors)
    return text[3:] if text.startswith(" + ") else "-" + text[3:] if text else "0"


def _gcd_all(polys):
    """The gcd of nonzero polys (all int lists or all rows) by _gcd,
    pairwise from the left, stopping at a constant, made positive; a single
    poly comes back as given, whatever its sign."""
    g = polys[0]
    for p in polys[1:]:
        if len(g) == 1 and not (isinstance(g[0], list) and len(g[0]) > 1):
            return [[abs(g[0][0])]] if isinstance(g[0], list) else [abs(g[0])]
        g = _gcd(g, p)
    return g


def _gcd(f, g):
    """gcd(f, g) over Z for nonzero int lists in one variable (no leading
    zero) or rows in Z[s, u] (no zero top row): gcd(contents) times the
    primitive gcd with a positive leading coefficient, rows as _rows.

    GCDHEU's one caller.  First _split the lower operand (in s, for rows):
    if its primitive part p divides the other exactly, p is the primitive
    gcd (Gauss's lemma).  Else _split the other too; in one variable GCDHEU
    (_heu_gcd; Char, Geddes & Gonnet, J. Symbolic Comput. 7(1), 1989)
    takes both primitive parts.  Rows in Z[s, u], and a pair _HEU_TRIES
    values of xi all fail, go to sympy's ring: dmp_inner_gcd, which runs
    the same heuristic and, when that fails, the subresultant PRS, so it
    always answers; its gcd is _split.  gcd(contents) multiplies the result
    once, here.
    """
    two = isinstance(f[0], list)
    hi, lo = (g, f) if len(f) < len(g) else (f, g)
    c, p = _split(lo)
    c = gcd(c, *chain(*hi)) if two else gcd(c, *hi)
    if (_exquo_su if two else _exquo)(hi, p) is None:
        q = _split(hi)[1]
        h = None if two else _heu_gcd(q, p)
        if h is None:  # sympy's GCDHEU, then its subresultant PRS
            q, p = _in_ring(q), _in_ring(p)
            h = _split(_ints(q.ring.dmp_inner_gcd(q, p)[0]))[1]
        p = h
    return [[c * a for a in r] for r in p] if two else [c * a for a in p]


def _lc(p):
    """The leading coefficient of an int list with no leading zero, or of
    rows in Z[s, u] with a nonzero top row: the top row's first nonzero."""
    return next(filter(None, p[0])) if isinstance(p[0], list) else p[0]


def _split(p) -> tuple:
    """(c, q) with p = c q, for p as in _lc: c the content of p with the
    sign of _lc(p), so q is primitive with a positive leading coefficient;
    rows come back in _rows form."""
    two = isinstance(p[0], list)
    c = gcd(*chain(*p)) if two else gcd(*p)
    c = c if _lc(p) > 0 else -c
    return (c, _rows([[a // c for a in r] for r in p])) if two else (c, [a // c for a in p])


_HEU_TRIES = 6  # values of xi before a gcd goes to sympy, as in sympy's heugcd


def _heu_gcd(f: list, g: list) -> list | None:
    """gcd(f, g) over Z for primitive int lists with positive leading
    coefficients, top degree first, as an int list in the same form; None
    when GCDHEU fails.  Only _gcd calls it.

    f and g are evaluated at xi = 2 min(|f|_inf, |g|_inf) + 29 and up, and
    the symmetric xi-adic digits of the integer gcd of the two values make
    the candidate, made primitive.  Once xi > 1 + 2 min(|f|_inf, |g|_inf),
    a primitive candidate that divides both is their gcd (the GCDHEU
    theorem of the paper cited in _gcd); the division is exact over Z, so
    an accepted result is proved.
    """
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(_HEU_TRIES):
        h = _split(_digits(gcd(_homogeneous(f, xi, 1), _homogeneous(g, xi, 1)), xi))[1]
        if _divides(h, f) and _divides(h, g):
            return h
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011  # sympy's heugcd schedule
    return None


def _digits(v: int, xi: int) -> list:
    """The symmetric xi-adic digits of v, top first: the int list h with
    every |h_k| <= xi / 2 and h(xi) = v ([] for v = 0)."""
    out = []
    while v:
        d = v % xi
        if d > xi >> 1:
            d -= xi
        out.append(d)
        v = (v - d) // xi
    return out[::-1]


def _trim(c: list) -> list:
    """c without its leading zeros ([] when c is zero)."""
    i = 0
    while i < len(c) and not c[i]:
        i += 1
    return c[i:]


def _exquo(f: list, h: list) -> list | None:
    """f / h over Z for int lists top first, h with a nonzero leading
    coefficient: long division with every quotient digit exact; None when h
    does not divide f ([] for f zero)."""
    m = len(h) - 1
    r = _trim(f)
    if len(r) <= m:
        return None if r else []
    q = []
    for i in range(len(r) - m):
        d, rest = divmod(r[i], h[0])
        if rest:
            return None
        q.append(d)
        if d:
            for j in range(1, m + 1):
                r[i + j] -= d * h[j]
    return None if any(r[len(r) - m:]) else q


def _divides(h: list, f: list) -> bool:
    """Whether h divides f over Z (see _exquo)."""
    return _exquo(f, h) is not None


def _exquo_su(F: list, G: list) -> list | None:
    """F / G as rows for rows F, G in Z[s, u] with nonzero top rows, or F
    zero; None when G does not divide F ([] for F zero).

    First a scalar multiple: F = k G row for row, k = _lc(F) // _lc(G),
    gives [[k]] with no division.  Else s -> x^w, u -> x, w the width of
    F's rows (so deg_u F < w), maps Z[s, u] into Z[x]: a ring map, one to
    one on polynomials of degree < w in u.  So G divides F exactly when
    _exquo divides G's image into F's with a quotient whose every block of
    w coefficients, a row of F / G, has degree below w - deg_u G.
    """
    w, dg = max(map(len, F), default=0), max(map(len, G)) - 1
    if not F or dg >= w:
        return None if F else []
    k = _lc(F) // _lc(G)
    if len(F) == len(G) and F == [[k * a for a in r] for r in G]:
        return [[k]]

    def image(R):
        return _trim([a for r in R for a in [0] * (w - len(r)) + r])

    q = _exquo(image(F), image(G))
    if q is None:
        return None
    q = [0] * (-len(q) % w) + q
    Q = [q[i:i + w] for i in range(0, len(q), w)]
    return None if any(any(r[:dg]) for r in Q) else _rows(Q)


def _factor(p) -> list:
    """p.factor_list()[1], up to order, as int lists or rows, for p
    nonconstant: rows in Z[s, u], or an int list in one variable with no
    rational root.

    In one variable such a p of degree 2 or 3 is irreducible.  In Z[s, u]
    a p of degree 1 in s whose s-coefficients have an integer gcd in Z[u]
    has an irreducible primitive part, by Gauss's lemma.  The rest goes to
    sympy's factor_list.
    """
    two = isinstance(p[0], list)
    if not two and len(p) <= 4:
        return [(_split(p)[1], 1)]
    if two and len(p) == 2:
        a, b = (_trim(row) for row in p)
        s_content = _gcd(a, b) if b else a  # gcd of the s-coefficients in Z[u]
        if len(s_content) == 1:
            return [(_split(p)[1], 1)]
    return [(_ints(f), m) for f, m in _in_ring(p).factor_list()[1]]


def _coprime(polys: list) -> bool:
    """Whether a nonzero resultant mod q = 2^61 - 1 proves some pair of polys
    (int lists, top degree first) coprime over Z; False is inconclusive.

    When q divides neither leading coefficient, reduction mod q keeps both
    degrees, so it maps the Sylvester matrix entrywise and Res(f mod q,
    g mod q) = Res(f, g) mod q (Collins, J. ACM 18(4), 1971; Brown, J. ACM
    18(4), 1971): a nonzero value makes gcd(f, g) constant.  Other pairs are
    skipped.  Res(f, g) is _res_small's exact integer when a degree is at
    most 2, else a remainder sequence mod q.
    """
    q = (1 << _Q_BITS) - 1
    for f, g in combinations(polys, 2):
        if f[0] % q and g[0] % q:
            r = _res_small(f, g)
            if r is None:
                r = _resultants_mod([([a % q for a in f], [a % q for a in g])], _Q_BITS)[0]
            if r % q:
                return True
    return False


def _res_small(f: list, g: list) -> int | None:
    """Res(f, g), the Sylvester determinant over Z, for int lists top degree
    first with nonzero leading coefficients, when min(deg f, deg g) <= 2;
    None otherwise.

    Res(g, f) = (-1)^(n m) Res(f, g) puts the lower degree n first; then,
    with a = lc(f) and m = deg g, Res(f, g) = a^m prod g(alpha) over f's roots.
    A constant gives a^m; a linear a x + b gives a^m g(-b / a), by
    homogeneous Horner.  For a x^2 + b x + c the pseudo-remainder
    a^(m-1) g mod f = r1 x + r0 makes Res = a^(2-m) prod (r1 alpha + r0)
    = (a r0^2 - b r0 r1 + c r1^2) / a^(m-1), exactly; r1 = 0 and r = 0 are
    the cases r0^2 / a^(m-2) and 0 of the same formula.
    """
    n, m = len(f) - 1, len(g) - 1
    if n > m:
        r = _res_small(g, f)
        return -r if r and n * m & 1 else r
    if n > 2:
        return None
    a = f[0]
    if n < 2:
        return a**m if n == 0 else _homogeneous(g, -f[1], a)
    b, c = f[1], f[2]
    r = list(g)
    for t in range(m - 1):  # one pseudo-division step, times a, per degree
        lead = r[t]
        r[t + 1], r[t + 2] = a * r[t + 1] - lead * b, a * r[t + 2] - lead * c
        for j in range(t + 3, m + 1):
            r[j] *= a
    r1, r0 = r[-2], r[-1]
    return ((a * r0 - b * r1) * r0 + c * r1 * r1) // a ** (m - 1)


def _common_factor(polys, gens: str, excluded_fr):
    """gcd(polys) over Z for nonzero polys, or None when it is proved
    needless: polys in one variable share no zero off the excluded points,
    or polys in Z[s, u] no factor.

    polys are int lists, top degree first with no leading zero, in the
    variable gens ("u" or "t"), or _ints rows for gens = "s,u".
    Polys in one variable are stripped of the excluded points' factors and
    handed to _coprime.  Polys in Z[s, u], symmetric in s and u, are tested
    at u = a, the first integer a >= 0 off the excluded points (where the
    Bezoutians share zeros even on a clean chart) at which q divides no
    lc_s: a common factor h with deg_s h > 0 keeps its degree there, so
    every Res_s(Q_i(s, a), Q_j(s, a)) would vanish mod q, and the gcd of
    symmetric polynomials is symmetric up to sign, so deg_u h = deg_s h.
    Otherwise _gcd_all of polys, in their own form.
    """
    if gens != "s,u":
        if _coprime([_strip(p, excluded_fr) for p in polys]):
            return None
        return _gcd_all(polys)
    q = (1 << _Q_BITS) - 1
    # unless q divides every coefficient of some lc_s, one of these a fits
    points = (a for a in range(sum(len(r[0]) for r in polys) + len(excluded_fr))
              if a not in excluded_fr)
    a = next((a for a in points if all(_homogeneous(r[0], a, 1) % q for r in polys)), None)
    if a is not None and _coprime([[_homogeneous(row, a, 1) for row in r] for r in polys]):
        return None
    return _gcd_all(polys)


def _print_sorted(items: list, show=str) -> list:
    """(x, multiplicity) pairs in certificate order, sorted by the printed
    pair "(x, m)", x printed by show; one item is left unprinted."""
    if len(items) > 1:
        items.sort(key=lambda xm: f"({show(xm[0])}, {xm[1]})")
    return items


def _homogeneous(c: list, num: int, den: int) -> int:
    """den^n c(num / den) = sum c_k num^(n-k) den^k for ints c, top degree
    first, n = len(c) - 1, by homogeneous Horner."""
    v, w = 0, 1
    for a in c:
        v, w = v * num + a * w, w * den
    return v


def _strip(c: list, excluded_fr) -> list:
    """c (ints, top degree first, nonzero) with the factor den * x - num of
    every excluded point num / den divided out as often as it divides.

    Each point is tested by homogeneous Horner before a division, which is
    then exact.
    """
    for e in excluded_fr:
        num, den = e.numerator, e.denominator
        while len(c) > 1:
            if _homogeneous(c, num, den):
                break
            q = [c[0] // den]
            for a in c[1:-1]:
                q.append((a + num * q[-1]) // den)
            c = q
    return c


def _rational_roots(c: list, excluded_fr) -> tuple[list, list]:
    """The rational roots of c, a nonconstant int list, that are not
    excluded points, in certificate order; and what is left of c once the
    factor den * x - num of every excluded point and of every root is
    divided out as often as it divides.

    Linear and quadratic c have closed forms: a x + b has the one root
    num / den = -b / a, with no strip, and leaves a / den; a x^2 + b x + k
    has rational roots exactly when its discriminant is a square r^2,
    (-b +- r) / 2a.  Higher degrees go to _lifted_roots.
    """
    if len(c) == 2:
        x = Fraction(-c[1], c[0])
        return [] if x in excluded_fr else [x], [c[0] // x.denominator]
    c = _strip(c, excluded_fr)
    found = ()
    if len(c) == 2:
        found = (Fraction(-c[1], c[0]),)
    elif len(c) == 3:
        a, b, k = c
        disc = b * b - 4 * a * k
        r = isqrt(disc) if disc >= 0 else -1
        if r * r == disc:
            found = {Fraction(-b + r, 2 * a), Fraction(-b - r, 2 * a)}
    elif len(c) > 3:
        found = _lifted_roots(c)
    roots = []
    for x in found:
        n = len(c)
        c = _strip(c, (x,))
        roots.append((x, n - len(c)))
    return [x for x, _ in _print_sorted(roots)], c


def _lifted_roots(c: list) -> list:
    """The rational roots of c, an int list of degree >= 3, by p-adic
    lifting (Loos, SIAM J. Comput. 12(2), 1983).

    f = c / gcd(c, c') is c's squarefree part by GCDHEU.  p is the first
    prime not dividing lc(f) at whose roots mod p f' does not vanish, as at
    any p dividing neither lc(f) nor disc(f).  A root num / den of f has
    den | lc(f), so it reduces to a simple root mod p, which Newton's
    iteration lifts uniquely mod m = p^(2^k) until m > 2 (|lc| + max |f_i|),
    twice Cauchy's bound on |lc num / den|: lc num / den is the symmetric
    residue of lc r mod m.  A candidate counts once den^n f(num / den) = 0.
    """
    def derivative(p):
        return [(len(p) - 1 - i) * a for i, a in enumerate(p[:-1])]
    f = _split(_exquo(c, _gcd(c, derivative(c))))[1]
    df = derivative(f)
    lc = f[0]
    bound = 2 * (lc + max(map(abs, f[1:])))

    def zeros(p):
        return [x for x in range(p) if not _homogeneous(f, x, 1) % p]

    p = next(p for p in count(2) if lc % p and all(p % q for q in range(2, isqrt(p) + 1))
             and all(_homogeneous(df, x, 1) % p for x in zeros(p)))
    out = []
    for r in zeros(p):
        m = p
        while m <= bound:
            m *= m
            r = (r - _homogeneous(f, r, 1) * pow(_homogeneous(df, r, 1), -1, m)) % m
        v = lc * r % m
        x = Fraction(v - m if v > m >> 1 else v, lc)
        if not _homogeneous(f, x.numerator, x.denominator):
            out.append(x)
    return out


def _at(p: list, var: int, x: Fraction) -> list:
    """den^n p(num / den) for rows p in Z[s, u], x = num / den substituted
    for the variable of index `var` (0 for s, 1 for u), n = p's degree in
    it: an int list in the other variable ([] for zero)."""
    lines = zip(*p) if var == 0 else p  # the coefficients of each power of the other
    return _trim([_homogeneous(c, x.numerator, x.denominator) for c in lines])


def _saturation_poly(excluded_fr):
    """1 - y (s - u) prod (s - e)(u - e) over the excluded points e."""
    y, s, u = _GQ.gens
    h = s - u
    for e in sorted(excluded_fr):
        h *= (s - _qq(e)) * (u - _qq(e))
    return 1 - y * h


def _eliminant(residual, scales, excluded_fr):
    """The Groebner basis of the residuals (rows), each times its Fraction
    scale, and _saturation_poly: None when it is [1], else its member in u
    alone cleared into Z[u] as an int list, and that member's text, which
    depends on the basis being over Z when every input coefficient is an
    integer, else over Q (the rule sympy.groebner applies to expressions)."""
    gens = [_in_ring(r).set_ring(_GQ) * _qq(c) for r, c in zip(residual, scales)]
    gens.append(_saturation_poly(excluded_fr))
    if all(QQ.denom(c) == 1 for p in gens for c in p.itercoeffs()):
        gens = [p.set_ring(_GZ) for p in gens]
    gb = groebner(gens, gens[0].ring)
    if gb == [1]:
        return None
    elim_u = [p for p in gb if p.degree(0) <= 0 and p.degree(1) <= 0]  # free of y, s
    assert elim_u, "saturated zero-dimensional ideal has a univariate member"
    elim = elim_u[0]
    return _ints(elim.clear_denoms()[1].set_ring(_zu.ring)), _eliminant_str(elim)


def _eliminant_str(p) -> str:
    """str(p) with each a/b*u**k written a*u**k/b (u**k/b for a = 1), as
    sympy's Expr prints p over Q when its leading coefficient is positive."""
    return re.sub(r"\b(?:1|(\d+))/(\d+)\*(\S+)",
                  lambda m: f"{m[1] + '*' if m[1] else ''}{m[3]}/{m[2]}", str(p))


def _res_kronecker(F, G, need: int) -> list:
    """verify._resultant by Kronecker substitution (von zur Gathen & Gerhard,
    Modern Computer Algebra, 8.4): each row is taken at u = X =
    2^bitlen(need) > need >= 2 |f|_1, 2 |g|_1, Res of the two integer
    polynomials in s exactly (_res_small), and Res(X) read back as symmetric
    X-adic digits.  A nonzero polynomial with coefficients below X / 2 in
    absolute value is nonzero at X, its top term outweighing the rest, so
    lc_s keeps the degrees in s and Res commutes with u = X; the
    coefficients of Res are below X / 2 too, so they are its digits.
    """
    X = 1 << need.bit_length()
    v = _res_small([_homogeneous(r, X, 1) for r in F], [_homogeneous(r, X, 1) for r in G])
    return _digits(v, X) or [0]


def _res_interpolated(F, G, degree: int, k: int) -> list:
    """verify._resultant modulo p = 2^k - 1 past its bound (Collins, J. ACM
    18(4), 1971; von zur Gathen & Gerhard, ch. 6): Res, of degree at most
    `degree` in u, is taken at degree + 1 consecutive integers u, the first
    block from 0 up on which no lc_s vanishes mod p, by a remainder sequence
    mod p, then interpolated by Newton and lifted to (-p/2, p/2), exactly.
    """
    p = (1 << k) - 1
    x0 = x = 0
    while x - x0 <= degree:
        if not _homogeneous(F[0], x, 1) % p or not _homogeneous(G[0], x, 1) % p:
            x0 = x + 1
        x += 1
    pairs = [
        ([_homogeneous(row, x, 1) % p for row in F], [_homogeneous(row, x, 1) % p for row in G])
        for x in range(x0, x)
    ]
    half = p >> 1
    coeffs = [c - p if c > half else c for c in _newton(x0, _resultants_mod(pairs, k), k)]
    return _trim(coeffs) or [0]


# Arithmetic mod a Mersenne prime p = 2^k - 1 folds a product z as
# (z & p) + (z >> k), since 2^k = 1 mod p, then takes % p of that (k+1)-bit
# value: both steps linear in the size of z.


def _resultants_mod(pairs: list, k: int) -> list:
    """Res(a, b) mod p = 2^k - 1 for each (a, b) in pairs, coefficient lists
    in [0, p), top first, with nonzero leading coefficients.

    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) with
    r = a mod b, down to a constant b, whose Res(a, b) is b^deg a.  The
    pairs' remainder sequences run side by side, so one inversion (by
    Montgomery's trick) serves one step of every pair.
    """
    p = (1 << k) - 1
    out = [0] * len(pairs)
    live = [(i, a, b, 1) for i, (a, b) in enumerate(pairs)]
    while live:
        invs = _inverses([b[0] for _, _, b, _ in live], k)
        step = []
        for (i, a, b, res), inv in zip(live, invs):
            n, m = len(a) - 1, len(b) - 1
            if not m:
                out[i] = res * pow(b[0], n, p) % p
                continue
            r = a
            if n >= m:
                r = list(a)
                for t in range(n - m + 1):
                    q = r[t] * inv
                    q = ((q & p) + (q >> k)) % p
                    if q:
                        for j in range(1, m + 1):
                            z = r[t + j] - q * b[j]
                            r[t + j] = ((z & p) + (z >> k)) % p
                r = r[n - m + 1:]
                while r and not r[0]:
                    del r[0]
                if not r:
                    continue  # out[i] stays 0
            for _ in range(n - len(r) + 1):
                res = res * b[0]
                res = ((res & p) + (res >> k)) % p
            if n & m & 1:
                res = p - res
            step.append((i, b, r, res))
        live = step
    return out


def _inverses(values: list, k: int) -> list:
    """The inverses mod p = 2^k - 1 of nonzero values, with one pow."""
    p = (1 << k) - 1
    prefix = [1]
    for v in values:
        z = prefix[-1] * v
        prefix.append(((z & p) + (z >> k)) % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        z = inv * prefix[i]
        out[i] = ((z & p) + (z >> k)) % p
        z = inv * values[i]
        inv = ((z & p) + (z >> k)) % p
    return out


def _newton(x0: int, ys: list, k: int) -> list:
    """The polynomial mod p = 2^k - 1 of degree < len(ys) through
    (x0 + i, ys[i]), top degree first, x0 + len(ys) <= p.

    On consecutive points the divided differences are forward differences
    over j!, so the interpolant is sum_j (Delta^j y_0 / j!) prod_(i<j)
    (u - x0 - i): subtractions, one inversion of (len(ys) - 1)! and one
    multiplication per coefficient.
    """
    p = (1 << k) - 1
    diffs, row = [ys[0]], ys
    for _ in range(len(ys) - 1):
        row = [b - a for a, b in zip(row, row[1:])]
        diffs.append(row[0])
    fact = 1
    for j in range(2, len(ys)):
        fact = fact * j % p
    inv = pow(fact, -1, p)  # 1 / j!, from j = len(ys) - 1 down
    for j in range(len(ys) - 1, -1, -1):
        z = diffs[j] % p * inv
        diffs[j] = ((z & p) + (z >> k)) % p
        inv = inv * j % p
    poly = [diffs[-1]]
    for j in range(len(ys) - 2, -1, -1):
        x = x0 + j
        poly = [poly[0]] + [(b - x * a) % p for a, b in zip(poly, poly[1:])] + [(diffs[j] - x * poly[-1]) % p]
    return poly

