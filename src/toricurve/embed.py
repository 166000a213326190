"""Assemble embedding data: divisors, the character homomorphism, charts.

An embedding candidate is a tuple of reduced pairwise-disjoint divisors
D_rho of degrees xi_rho plus the three functions eps_i = torus_i * f_i with
div(f_i) = sum_rho <m_i, n_rho> D_rho.  Charts expose the candidate in the
coordinates dual to each maximal cone.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .curve import (
    CDivisor,
    CurvePoint,
    ProjectiveLine,
    RationalFunction,
    has_divisor,
    principal_function,
)
from .fan import Fan, dual_basis, fan_from_dict, fan_to_dict, primitive_collections, validate
from .fan import _is_int, dumps_json, ray_matrix as pairing_matrix  # a[i][rho] = <m_i, n_rho>
from .intersect import TDivisor, XiVector

Vec3 = tuple[int, int, int]


class XiMismatch(ValueError):
    """The degree vector does not fit the fan (kernel or positivity fails)."""


class BadEmbeddingFile(ValueError):
    """Embedding data file does not match the expected structure."""


class DivisorAtInfinity(ValueError):
    """A D_rho holds the point at infinity, which no chart or file can carry."""

    def __init__(self, rho: int):
        super().__init__(f"D_{rho} holds the point at infinity")
        self.ray = rho


def refuse_infinity(rho: int, d: CDivisor) -> None:
    """Raise DivisorAtInfinity if D_rho holds the point at infinity."""
    if d.at_infinity:
        raise DivisorAtInfinity(rho)


class EmbeddingData(NamedTuple):
    fan: Fan
    ample: TDivisor | None
    xi: XiVector
    divisors: tuple[CDivisor, ...]
    epsilon: tuple[RationalFunction, RationalFunction, RationalFunction]
    torus: tuple[Fraction, Fraction, Fraction]


class ChartMap(NamedTuple):
    """Coordinates of the candidate on the affine chart of one maximal cone."""

    cone: tuple[int, int, int]
    duals: tuple[Vec3, Vec3, Vec3]
    coords: tuple[RationalFunction, RationalFunction, RationalFunction]
    excluded: frozenset[Fraction]  # the points of the D_rho with rho off the cone, all finite


class ConditionsReport(NamedTuple):
    """Outcome of the two morphism conditions, with witnesses on failure."""

    disjointness_failures: tuple[tuple, ...]
    divisor_failures: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.disjointness_failures and not self.divisor_failures


def _check_xi(fan: Fan, xi: XiVector) -> None:
    if len(xi.values) != fan.n_rays:
        raise XiMismatch("degree vector length does not match the fan")
    if any(v <= 0 for v in xi.values):
        raise XiMismatch(f"degrees must be strictly positive: {xi.values}")
    for t in range(3):
        total = sum(ray[t] * v for ray, v in zip(fan.rays, xi.values))
        if total != 0:
            raise XiMismatch(
                f"degrees are not in the ray matrix kernel: coordinate {t} sums to {total}"
            )


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


def build_embedding_data(
    fan: Fan,
    ample: TDivisor | None,
    xi: XiVector,
    seed: int,
    torus=(1, 1, 1),
) -> EmbeddingData:
    """Sample disjoint divisors and build the character functions.

    Sampling is a single seeded stream: each divisor avoids every point
    chosen before it, which is exactly global pairwise disjointness.
    """
    report = validate(fan)
    if not report.ok:
        raise ValueError(f"fan must be smooth and complete: {report.issues}")
    _check_xi(fan, xi)
    torus_f = tuple(Fraction(x) for x in torus)
    if len(torus_f) != 3 or any(x == 0 for x in torus_f):
        raise ValueError("torus element must be three nonzero rationals")
    curve = ProjectiveLine()

    taken: set[tuple[int, int]] = set()  # reduced (num, den) of every point drawn so far
    divisors = [curve.sample_divisor(xi.values[rho], seed + rho, taken=taken)
                for rho in range(fan.n_rays)]

    a = pairing_matrix(fan)
    epsilon = []
    for i in range(3):
        combo = pairing_divisor(divisors, a[i])  # degree 0: xi is in the kernel
        epsilon.append(principal_function(combo).scale(torus_f[i]))

    return EmbeddingData(
        fan=fan,
        ample=ample,
        xi=xi,
        divisors=tuple(divisors),
        epsilon=tuple(epsilon),
        torus=torus_f,
    )


def _exponent_table(epsilon) -> list:
    """(root, e_1, e_2, e_3) per root of the eps_i, in root order, e_i the
    exponent of t - root in eps_i: their factor lists merged once."""
    rows: dict = {}
    for i, f in enumerate(epsilon):
        for r, e in f.factors:
            rows.setdefault((r.numerator, r.denominator), [r, 0, 0, 0])[1 + i] = e
    return sorted(map(tuple, rows.values()))


def _character(epsilon, table, m) -> RationalFunction:
    """chi^m = prod eps_i^{m_i}: prod c_i^{m_i} times (t - r)^<m, e(r)> per
    row of the exponent table, in its order, zero exponents dropped."""
    num = den = 1
    for f, k in zip(epsilon, m):  # prod c_i^{m_i} in ints, one Fraction built
        n, d = f.constant.numerator, f.constant.denominator
        num, den = (num * n ** k, den * d ** k) if k >= 0 else (num * d ** -k, den * n ** -k)
    a, b, c = m
    return RationalFunction._make((Fraction(num, den), tuple(
        (r, e) for r, e1, e2, e3 in table if (e := a * e1 + b * e2 + c * e3))))


def epsilon_function(data: EmbeddingData, m) -> RationalFunction:
    """eps(m) = prod eps_i^{m_i}, the homomorphism on the character lattice."""
    return _character(data.epsilon, _exponent_table(data.epsilon), m)


def check_theorem_conditions(data: EmbeddingData) -> ConditionsReport:
    """Exactly decide the two conditions characterizing a morphism.

    Intersections of the D_rho over every primitive collection must be empty
    (any non-face contains a minimal one, so these suffice), and each div
    eps_i must equal the pairing combination of the divisors on the nose.
    """
    supports = [d.support() for d in data.divisors]
    disjoint_failures = []
    for coll in primitive_collections(data.fan):
        shared = frozenset.intersection(*(supports[rho] for rho in coll))
        if shared:
            pts = tuple(sorted(shared, key=lambda p: p.sort_key()))
            disjoint_failures.append((coll, pts))

    a = pairing_matrix(data.fan)
    divisor_failures = []
    for i in range(3):
        f = data.epsilon[i]
        if not has_divisor(f, data.divisors, a[i]):
            diff = f.divisor() + (-pairing_divisor(data.divisors, a[i]))
            divisor_failures.append((i, diff.entries))

    return ConditionsReport(tuple(disjoint_failures), tuple(divisor_failures))


def chart_maps(data: EmbeddingData) -> tuple[ChartMap, ...]:
    """Per maximal cone: dual basis rows and the three coordinate functions.

    Each chi^m is read off one exponent table, once per +-m: a dual row's
    negative is a dual row of the cone across its wall, and chi^-m is the
    inverse.  The excluded points, the union of the off-cone supports, and
    the poles of each chi^m are frozensets of Fractions, each hashed once.
    No D_rho holds infinity (certify refuses one, see refuse_infinity)."""
    table = _exponent_table(data.epsilon)
    supports = [frozenset(p.finite for p, _ in d.entries) for d in data.divisors]
    assert all(f.order_at_infinity == 0 for f in data.epsilon)  # degree-0 divisors, so chi^m's too
    charts, chars, poles = [], {}, {}
    for cone in data.fan.max_cones:
        duals = dual_basis(data.fan, cone)
        for m in (m for m in duals if m not in chars):
            neg = tuple(-k for k in m)
            chars[m] = chars[neg].inverse() if neg in chars else _character(data.epsilon, table, m)
            poles[m] = frozenset(r for r, e in chars[m].factors if e < 0)
        excluded = frozenset().union(*(s for rho, s in enumerate(supports) if rho not in cone))
        assert all(poles[m] <= excluded for m in duals)  # poles sit on off-cone divisors
        charts.append(ChartMap(cone, duals, tuple(chars[m] for m in duals), excluded))
    return tuple(charts)


def _parse_fraction(s) -> Fraction:
    """p, p/q or a decimal; not 1e3, since Fraction would expand 10^exponent first."""
    if not isinstance(s, str):
        raise BadEmbeddingFile(f"expected a rational string, got {s!r}")
    if "e" in s or "E" in s:
        raise BadEmbeddingFile(f"bad rational {s!r}: no exponent notation")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadEmbeddingFile(f"bad rational {s!r}") from exc


def _divisor_to_list(rho: int, d: CDivisor) -> list:
    refuse_infinity(rho, d)
    return [[str(p.finite), m] for p, m in d.entries]


def _rows(items, what: str) -> list:
    """(rational, int) pairs from [text, int] rows; BadEmbeddingFile names ``what``."""
    rows = []
    for item in items:
        if not isinstance(item, list) or len(item) != 2 or not _is_int(item[1]):
            raise BadEmbeddingFile(f"bad {what} entry {item!r}")
        rows.append((_parse_fraction(item[0]), item[1]))
    return rows


def _divisor_from_list(items) -> CDivisor:
    if not isinstance(items, list):
        raise BadEmbeddingFile("divisor must be an array")
    return CDivisor([(CurvePoint(p), m) for p, m in _rows(items, "divisor")])


def _function_to_dict(f: RationalFunction) -> dict:
    return {
        "constant": str(f.constant),
        "factors": [[str(r), e] for r, e in f.factors],
    }


def _function_from_dict(doc) -> RationalFunction:
    if (
        not isinstance(doc, dict)
        or set(doc) != {"constant", "factors"}
        or not isinstance(doc["factors"], list)
    ):
        raise BadEmbeddingFile(f"bad function object {doc!r}")
    factors = _rows(doc["factors"], "factor")  # checked before the constant
    return RationalFunction(_parse_fraction(doc["constant"]), factors)


def embedding_to_dict(data: EmbeddingData) -> dict:
    return {
        "fan": fan_to_dict(data.fan),
        "ample": list(data.ample.coeffs) if data.ample is not None else None,
        "xi": data.xi._asdict(),
        "divisors": [_divisor_to_list(rho, d) for rho, d in enumerate(data.divisors)],
        "epsilon": [_function_to_dict(f) for f in data.epsilon],
        "torus": [str(x) for x in data.torus],
    }


def _int_list(value, length: int) -> bool:
    return (
        isinstance(value, list)
        and len(value) == length
        and all(map(_is_int, value))
    )


def embedding_from_dict(doc) -> EmbeddingData:
    if not isinstance(doc, dict):
        raise BadEmbeddingFile("embedding document must be an object")
    required = {"fan", "ample", "xi", "divisors", "epsilon", "torus"}
    if set(doc) != required:
        raise BadEmbeddingFile(
            f"fields must be exactly {sorted(required)}, got {sorted(doc)}"
        )
    fan = fan_from_dict(doc["fan"])
    n = fan.n_rays
    ample = None
    if doc["ample"] is not None:
        if not _int_list(doc["ample"], n):
            raise BadEmbeddingFile(f"ample must be null or {n} ints, one per ray")
        ample = TDivisor(tuple(doc["ample"]))
    xi_doc = doc["xi"]
    if (
        not isinstance(xi_doc, dict)
        or set(xi_doc) != {"values", "method"}
        or not _int_list(xi_doc["values"], n)
        or xi_doc["method"] not in ("intersection", "kernel")
    ):
        raise BadEmbeddingFile(
            f"xi must be {{values: {n} ints, one per ray, method: intersection|kernel}}"
        )
    xi = XiVector(tuple(xi_doc["values"]), xi_doc["method"])
    if not isinstance(doc["divisors"], list) or len(doc["divisors"]) != n:
        raise BadEmbeddingFile(f"divisors must be an array of {n}, one per ray")
    if not isinstance(doc["epsilon"], list) or not isinstance(doc["torus"], list):
        raise BadEmbeddingFile("epsilon and torus must be arrays")
    divisors = tuple(_divisor_from_list(d) for d in doc["divisors"])
    epsilon = tuple(_function_from_dict(f) for f in doc["epsilon"])
    if len(epsilon) != 3:
        raise BadEmbeddingFile("exactly three character functions expected")
    torus = tuple(_parse_fraction(x) for x in doc["torus"])
    if len(torus) != 3 or not all(torus):
        raise BadEmbeddingFile("torus must be three nonzero rationals")
    return EmbeddingData(fan, ample, xi, divisors, epsilon, torus)


def dumps_embedding(data: EmbeddingData) -> str:
    return dumps_json(embedding_to_dict(data)) + "\n"


def loads_embedding(text: str) -> EmbeddingData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadEmbeddingFile(f"not valid JSON: {exc}") from exc
    return embedding_from_dict(doc)


def load_embedding(path) -> EmbeddingData:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_embedding(fh.read())
