"""Exact function-field arithmetic on the projective line over Q.

Points are rationals or the point at infinity; divisors are finite formal
sums; rational functions are kept factored as c * prod (t - a_i)^{e_i}, so
divisors, products and inverses are exact and evaluation never loses the
multiplicity information.

Each exact operation is done once.  A point hashes once, from its reduced
numerator and denominator.  Divisors and functions canonicalise in one sort
by the exact key ((num << 32) // den, value): the first entry is a plain
int, the Fraction comparison only breaks its ties, and equal points land
side by side, so the same pass finds repeats.  Products sum exponents in
one dict keyed by (num, den), and no Fraction is rebuilt from a Fraction;
the one sum of divisors, pairing_divisor, is one sort of the D_rho's
scaled entries.  Evaluation is homogeneous and in ints, in one loop
(evaluate_ints): at t = a / b each factor r = rn / rd contributes the int
d = a rd - rn b, the value and the log-derivative accumulate as unreduced
int numerators and denominators, and a result is the only Fraction built.
Negation, scaling, inverses, powers, div f and principal functions keep
their input's order and skip the sort.  The
sampler runs splitmix64 inline on plain ints, checks candidates as
reduced (num, den) pairs against the one set of pairs it is given to avoid,
sorts the pairs it keeps once by the int key, and builds each kept
CurvePoint from its pair with no second reduction.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property


class NotDegreeZero(ValueError):
    """principal_function needs a degree-zero divisor."""


# what evaluate_with_derivative returns at a pole, as evaluate does: a value, not an error
POLE = None


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _order(r: Fraction) -> tuple:
    """Exact sort key of a rational: a fast int, with r itself for ties."""
    return (r.numerator << 32) // r.denominator, r


_INFINITY_ORDER = (math.inf, 0)  # after every finite point


def _canonical(keyed: list, repeated: str, zero: str) -> tuple:
    """(value, n) pairs in key order from (key, value, n) triples.

    Equal values have equal keys and sort side by side, so one sort both
    orders the pairs and exposes repeats.
    """
    keyed.sort()
    if any(a[0] == b[0] for a, b in zip(keyed, keyed[1:])):
        raise ValueError(repeated)
    if not all(n for _, _, n in keyed):
        raise ValueError(zero)
    return tuple((x, n) for _, x, n in keyed)


class CurvePoint:
    """A rational point of the line: CurvePoint(x) for a rational x, CurvePoint() at infinity."""

    __slots__ = ("finite", "_reduced", "_order", "_hash")

    def __init__(self, finite=None) -> None:
        if finite is None:  # 1/0 in these coordinates, which no finite point reduces to
            self._reduced, self._order = (1, 0), _INFINITY_ORDER
        else:
            finite = _fraction(finite)
            self._reduced, self._order = (finite.numerator, finite.denominator), _order(finite)
        self.finite = finite
        self._hash = hash(self._reduced)

    @property
    def is_infinity(self) -> bool:
        return self.finite is None

    def sort_key(self):
        return self._order

    def __eq__(self, other) -> bool:
        if other.__class__ is not CurvePoint:
            return NotImplemented
        return self._reduced == other._reduced

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "inf" if self.finite is None else str(self.finite)


INFINITY = CurvePoint()


class CDivisor(namedtuple("CDivisor", "entries")):
    """Formal sum of points with nonzero integer multiplicities; _make takes
    canonical entries as they are."""

    __radd__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(cls, entries: tuple[tuple[CurvePoint, int], ...]) -> "CDivisor":
        return super().__new__(cls, _canonical(
            [(p._order, p, m) for p, m in entries],
            "divisor points must be distinct",
            "zero multiplicities are not stored",
        ))

    @classmethod
    def of(cls, mapping) -> "CDivisor":
        items = mapping.items() if isinstance(mapping, dict) else mapping
        acc: dict[CurvePoint, int] = {}
        for p, m in items:
            if not isinstance(p, CurvePoint):
                p = CurvePoint(p)
            acc[p] = acc.get(p, 0) + m
        return cls(tuple((p, m) for p, m in acc.items() if m))

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def at_infinity(self) -> int:
        """The multiplicity at infinity, which sorts last."""
        e = self.entries
        return e[-1][1] if e and e[-1][0].is_infinity else 0

    @property
    def is_reduced(self) -> bool:
        return all(m == 1 for _, m in self.entries)

    def support(self) -> frozenset[CurvePoint]:
        return frozenset(p for p, _ in self.entries)

    def __add__(self, other: "CDivisor") -> "CDivisor":
        if not isinstance(other, CDivisor):
            return NotImplemented
        return CDivisor.of(self.entries + other.entries)

    def __neg__(self) -> "CDivisor":
        return CDivisor._make((tuple((p, -m) for p, m in self.entries),))

    def scale(self, k: int) -> "CDivisor":
        if k == 0:
            return CDivisor(())
        return CDivisor._make((tuple((p, k * m) for p, m in self.entries),))


def pairing_divisor(divisors, coeffs) -> CDivisor:
    """sum_rho coeffs[rho] * D_rho.

    Each D_rho is sorted, so one sort of the scaled entries merges the runs;
    equal points land side by side, their multiplicities are summed and
    zeros dropped.
    """
    scaled = [(p, k * m) for k, d in zip(coeffs, divisors) if k for p, m in d.entries]
    scaled.sort(key=lambda e: e[0]._order)
    entries = []
    for p, m in scaled:
        if entries and entries[-1][0]._reduced == p._reduced:
            m += entries.pop()[1]
        entries.append((p, m))
    return CDivisor._make((tuple(e for e in entries if e[1]),))


class RationalFunction(namedtuple("RationalFunction", "constant factors")):
    """c * prod (t - root)^exp with distinct rational roots and c != 0; _make
    takes a canonical (constant, factors) as it is.

    Not slotted: the instance dict caches integer_parts and an inverse's source.
    """

    __add__ = __radd__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(cls, constant: Fraction,
                factors: tuple[tuple[Fraction, int], ...]) -> "RationalFunction":
        constant = _fraction(constant)
        if not constant:
            raise ValueError("the zero function is not representable")
        keyed = []
        for r, e in factors:
            r = _fraction(r)
            keyed.append((_order(r), r, e))
        return super().__new__(cls, constant, _canonical(
            keyed, "factor roots must be distinct", "zero exponents are not stored"
        ))

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(Fraction(1), ())

    @classmethod
    def of(cls, constant, factors) -> "RationalFunction":
        """c * prod (t - r)^e with the exponents of equal roots summed."""
        items = factors.items() if isinstance(factors, dict) else factors
        acc: dict[tuple[int, int], list] = {}
        for r, e in items:
            r = _fraction(r)
            key = r.numerator, r.denominator
            merged = acc.get(key)
            if merged is None:
                acc[key] = [r, e]
            else:
                merged[1] += e
        return cls(constant, tuple((r, e) for r, e in acc.values() if e))

    @cached_property
    def integer_parts(self) -> tuple[tuple, tuple]:
        """Int coefficients of N and D, top degree first, with f = K N / D
        for a rational K: one factor den * t - num per root num / den, built
        once per function and its inverse."""
        if "_inverse_of" in vars(self):
            return self._inverse_of.integer_parts[::-1]
        parts = [[1], [1]]  # N, D
        for r, e in self.factors:
            for _ in range(abs(e)):
                p = parts[e < 0]
                a, b = r.denominator, -r.numerator
                parts[e < 0] = [a * p[0]] + [a * c + b * q for c, q in zip(p[1:], p)] + [b * p[-1]]
        return tuple(parts[0]), tuple(parts[1])

    @property
    def order_at_infinity(self) -> int:
        return -sum(e for _, e in self.factors)

    def order_at(self, p: CurvePoint) -> int:
        if p.is_infinity:
            return self.order_at_infinity
        for r, e in self.factors:
            if r == p.finite:
                return e
        return 0

    def divisor(self) -> CDivisor:
        entries = [(CurvePoint(r), e) for r, e in self.factors]
        o = self.order_at_infinity
        if o:
            entries.append((INFINITY, o))
        return CDivisor._make((tuple(entries),))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction.of(
            self.constant * other.constant, self.factors + other.factors
        )

    def inverse(self) -> "RationalFunction":
        """1 / f, whose integer_parts are f's, swapped, expanded once for both."""
        inverse = self._make((1 / self.constant, tuple((r, -e) for r, e in self.factors)))
        inverse._inverse_of = self
        return inverse

    def __pow__(self, k: int) -> "RationalFunction":
        if k == 0:
            return RationalFunction.one()
        factors = tuple((r, k * e) for r, e in self.factors)
        return RationalFunction._make((self.constant ** k, factors))

    def scale(self, c) -> "RationalFunction":
        c = self.constant * _fraction(c)
        if not c:
            raise ValueError("the zero function is not representable")
        return RationalFunction._make((c, self.factors))


def principal_function(divisor: CDivisor) -> RationalFunction:
    """The monic-normalized function with the given degree-zero divisor.

    Finite points become factors, already in order; the multiplicity at
    infinity is forced to minus the finite total, which is exactly the
    degree-zero condition.
    """
    if divisor.degree != 0:
        raise NotDegreeZero(f"divisor has degree {divisor.degree}")
    at_infinity = divisor.at_infinity
    entries = divisor.entries[:-1] if at_infinity else divisor.entries
    factors = tuple((p.finite, m) for p, m in entries)
    return RationalFunction._make((Fraction(1), factors))


def evaluate_ints(f: RationalFunction, a: int, b: int, log: bool = False):
    """f at t = a / b (b > 0) in ints: POLE, or (m, num, den, ln, ld) with m
    the order of f's zero at t (0 off its zeros), no pair reduced.

    Each factor r = rn / rd that does not vanish contributes (t - r)^e =
    (a rd - rn b)^e / (b rd)^e to f = num / den and, with `log`, e / (t - r)
    = b e rd / d (d = a rd - rn b) to ln / ld, so f'/f = b ln / ld.  At a
    zero the loop stops with num = 0, unless `log` and m = 1: then it goes
    on, and num / den is the product of the other factors, f'(t).
    """
    num, den = f.constant.numerator, f.constant.denominator
    ln, ld, m = 0, 1, 0
    for r, e in f.factors:
        rn, rd = r.numerator, r.denominator
        d = a * rd - rn * b
        if not d:  # t is this root: roots are distinct, so no other factor vanishes
            if e < 0:
                return POLE
            if e > 1 or not log:
                return e, 0, 1, 0, 1
            m = 1
            continue
        if e > 0:
            num *= d ** e
            den *= (b * rd) ** e
        else:
            num *= (b * rd) ** -e
            den *= d ** -e
        if log:
            ln, ld = ln * d + e * rd * ld, ld * d
    return m, num, den, ln, ld


def evaluate(f: RationalFunction, p: CurvePoint):
    """f(p) as an exact rational, or None at a pole: at a finite p, one
    Fraction built from evaluate_ints."""
    if p.is_infinity:
        m = f.order_at_infinity
        if m < 0:
            return None
        return f.constant if m == 0 else Fraction(0)
    v = evaluate_ints(f, *p._reduced)
    return None if v is POLE else Fraction(v[1], v[2])


def evaluate_with_derivative(f: RationalFunction, p: CurvePoint):
    """(f(p), f'(p)) as exact rationals, or POLE.

    At infinity the local coordinate is s = 1/t and the derivative is taken
    in s, so an order-m zero at infinity reports (0, 0) for m > 1.  At a
    finite p the two Fractions are built from evaluate_ints.
    """
    if p.is_infinity:
        m = f.order_at_infinity
        if m < 0:
            return POLE
        # g(s) = f(1/s) = c * s^m * prod (1 - a_i s)^{e_i}
        if m > 1:
            return Fraction(0), Fraction(0)
        c = f.constant
        if m == 1:
            return Fraction(0), c
        # g'(0) = -c sum e_i a_i, the sum as sn / sd
        sn, sd = 0, 1
        for r, e in f.factors:
            rn, rd = r.numerator, r.denominator
            sn, sd = sn * rd + e * rn * sd, sd * rd
        return c, Fraction(-c.numerator * sn, c.denominator * sd)

    a, b = p._reduced
    v = evaluate_ints(f, a, b, True)
    if v is POLE:
        return POLE
    m, num, den, ln, ld = v
    if m:  # f' is the product of the other factors at a simple zero, else 0
        return Fraction(0), Fraction(num, den)
    return Fraction(num, den), Fraction(num * b * ln, den * ld)


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment


def _mix(z: int) -> int:
    """splitmix64 avalanche; deterministic across platforms."""
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def sample_divisor(degree: int, seed: int, taken=None) -> CDivisor:
    """Reduced degree-`degree` divisor of fresh finite points.

    Deterministic in (degree, seed, taken): candidate `counter` is
    (h % 241 - 120) / (1 + (h >> 32) % 4) with h the splitmix64 hash of
    mix(seed) + counter; a point in `taken`, drawn ones included, is skipped.
    The hash runs inline: its increment is added once, to mix(seed), and each
    candidate costs its two multiply-xorshift rounds.  Candidates are compared
    as reduced (num, den) int pairs; a kept pair is keyed by (num << 32) // den,
    exact on the grid, whose distinct values are at least 1/12 apart.  The kept
    pairs are sorted once, and each becomes a CurvePoint whose Fraction is
    built from the pair with no second gcd.  `taken` is a set of reduced
    (num, den) pairs, infinity (1, 0), and gains the pairs drawn, so draws
    that share it give disjoint divisors.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    taken = set() if taken is None else taken
    z0 = (_mix(seed & _MASK) + _GAMMA) & _MASK
    chosen: list[tuple[int, tuple[int, int]]] = []
    counter = 0
    while len(chosen) < degree:
        z = (z0 + counter) & _MASK
        counter += 1
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        h = z ^ (z >> 31)
        num, den = h % 241 - 120, 1 + (h >> 32) % 4
        g = math.gcd(num, den)
        pair = num // g, den // g
        if pair in taken:
            continue
        taken.add(pair)
        chosen.append(((pair[0] << 32) // pair[1], pair))
        if counter > 100000:
            raise RuntimeError("candidate stream exhausted")
    chosen.sort()
    entries = []
    for key, pair in chosen:
        # the fields CurvePoint(Fraction(*pair)) would set, from the reduced pair
        r = object.__new__(Fraction)
        r._numerator, r._denominator = pair
        p = object.__new__(CurvePoint)
        p.finite, p._reduced, p._order, p._hash = r, pair, (key, r), hash(pair)
        entries.append((p, 1))
    return CDivisor._make((tuple(entries),))


class ProjectiveLine:
    """The genus-zero curve every embedding here is built on.

    Its sampler, sample_divisor with the same taken pairs, stays a method
    because pipebench/tracing.py wraps it by this class attribute.
    """

    def sample_divisor(self, degree: int, seed: int, taken=None) -> CDivisor:
        return sample_divisor(degree, seed, taken)
