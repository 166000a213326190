"""Output checks: exit codes, verdicts, witnesses re-checked independently, digests.

Witnesses are re-checked without the certification code: chart coordinates
are rebuilt from the characters and the cone's dual basis with the curve
module's exact arithmetic, rational witnesses are evaluated with
``evaluate_with_derivative`` on ``Fraction``s, and conjugate witnesses are
re-checked as polynomial remainders over Q.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import sympy

from toricurve.curve import INFINITY, POLE, CurvePoint, RationalFunction, evaluate_with_derivative
from toricurve.embed import EmbeddingData, load_embedding

ARTIFACTS = {"run": ("embedding.json", "certificate.json"),
             "embed": ("embedding.json",),
             "verify": ("certificate.json",)}


@dataclass
class Verdict:
    """What the checks found for one op.

    ``ok`` means the op counts as completed correctly.  ``wrong`` marks an
    output that is present but false (a bad certificate, a witness that does
    not hold, an embedding claimed for an input that has none); a declined or
    over-budget op is failed but not wrong.
    """

    ok: bool
    wrong: bool = False
    reason: str = ""
    digests: dict = field(default_factory=dict)
    drift: bool = False


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_op(command: str, expect_exit: int, code, report: dict | None, out: Path,
             data_path: str | None, pinned: dict | None, replay: bool = True) -> Verdict:
    """Check one finished op against its pinned digests (``replay``), if any."""
    if code != expect_exit:
        # an embedding claimed for an input that must fail is a false proof
        return Verdict(False, wrong=command == "verify" and code == 0,
                       reason=f"exit {code}, expected {expect_exit}")
    try:
        reason = _check_outputs(command, report, out, data_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason:
        return Verdict(False, wrong=True, reason=reason)
    digests = {name: sha256(out / name) for name in ARTIFACTS[command]}
    drift = replay and (pinned is None or any(pinned.get(k) != v for k, v in digests.items()))
    return Verdict(not drift, wrong=drift, reason="replay drift" if drift else "",
                   digests=digests, drift=drift)


def _check_outputs(command: str, report, out: Path, data_path) -> str:
    if not isinstance(report, dict):
        return "no JSON report on stdout"
    if command == "run":
        cert = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
        if report.get("status") != "ok" or not report["certificate"]["embedded"]:
            return "run report does not claim an embedding"
        if cert["embedded"] is not True:
            return "certificate.json does not claim an embedding"
        return ""
    if command == "embed":
        if report.get("status") != "ok" or report.get("conditions_pass") is not True:
            return "embed report: morphism conditions fail"
        return "" if (out / "embedding.json").is_file() else "no embedding.json"
    cert = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    if report.get("embedded") is not False or cert["embedded"] is not False:
        return "refutation input certified as embedded"
    return recheck_witnesses(load_embedding(data_path), cert)


# ---- independent witness re-check -------------------------------------


def _dual_basis(rays, cone):
    """Rows m_t with <m_t, n_cone[s]> = delta_ts (inverse of a unimodular matrix)."""
    a = [[rays[j][i] for j in cone] for i in range(3)]
    det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
           - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
           + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    if abs(det) != 1:
        raise ValueError(f"cone {cone} is not unimodular")
    adj = [[(a[(j + 1) % 3][(i + 1) % 3] * a[(j + 2) % 3][(i + 2) % 3]
             - a[(j + 1) % 3][(i + 2) % 3] * a[(j + 2) % 3][(i + 1) % 3]) * det
            for j in range(3)] for i in range(3)]
    return adj


def chart_coords(data: EmbeddingData, cone) -> tuple:
    coords = []
    for m in _dual_basis(data.fan.rays, cone):
        f = RationalFunction.one()
        for i in range(3):
            if m[i]:
                f = f * (data.epsilon[i] ** m[i])
        coords.append(f)
    return tuple(coords)


def _excluded(data: EmbeddingData, cone) -> set:
    out: set = set()
    for rho, d in enumerate(data.divisors):
        if rho not in cone:
            out |= d.support()
    return out


def _values(coords, point: CurvePoint):
    got = [evaluate_with_derivative(f, point) for f in coords]
    return None if any(v is POLE for v in got) else got


def _poly(f: RationalFunction):
    """Numerator and denominator coefficient lists, lowest degree first."""
    num, den = [f.constant], [Fraction(1)]
    for r, e in f.factors:
        for _ in range(abs(e)):
            if e > 0:
                num = _mul(num, [-r, Fraction(1)])
            else:
                den = _mul(den, [-r, Fraction(1)])
    return num, den


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _sub(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)]


def _scale(p, c):
    return [c * a for a in p]


def _deriv(p):
    return [i * a for i, a in enumerate(p)][1:] or [Fraction(0)]


def _eval(p, x):
    return sum(a * x**i for i, a in enumerate(p))


def _rem_is_zero(p, mu) -> bool:
    p = list(p)
    while len(p) >= len(mu):
        c = p[-1] / mu[-1]
        shift = len(p) - len(mu)
        for i, a in enumerate(mu):
            p[shift + i] -= c * a
        p.pop()
    return not any(p)


def _parse_univariate(text: str):
    expr = sympy.sympify(text)
    (var,) = expr.free_symbols
    coeffs = sympy.Poly(expr, var).all_coeffs()
    return [Fraction(int(sympy.numer(c)), int(sympy.denom(c))) for c in reversed(coeffs)]


def _check_witness(w: dict, coords, excluded) -> bool:
    kind = w["kind"]
    if kind == "collision-pair":
        s, u = CurvePoint(Fraction(w["s"])), CurvePoint(Fraction(w["u"]))
        vs, vu = _values(coords, s), _values(coords, u)
        return (s != u and not {s, u} & excluded and vs is not None and vu is not None
                and all(a[0] == b[0] for a, b in zip(vs, vu)))
    if kind == "collision-with-infinity":
        u = CurvePoint(Fraction(w["u"]))
        vu, vi = _values(coords, u), _values(coords, INFINITY)
        return (u not in excluded and vu is not None and vi is not None
                and all(a[0] == b[0] for a, b in zip(vu, vi)))
    if kind == "tangent-point":
        t = CurvePoint(Fraction(w["t"]))
        vt = _values(coords, t)
        return t not in excluded and vt is not None and all(v[1] == 0 for v in vt)
    if kind == "tangent-infinity":
        vi = _values(coords, INFINITY)
        return vi is not None and all(v[1] == 0 for v in vi)
    polys = [_poly(f) for f in coords]
    if kind == "collision-conjugate":
        s0, mu = Fraction(w["s"]), _parse_univariate(w["partner_poly"])
        return len(mu) > 2 and all(
            _rem_is_zero(_sub(_scale(n, _eval(d, s0)), _scale(d, _eval(n, s0))), mu)
            for n, d in polys)
    if kind == "tangent-conjugate":
        mu = _parse_univariate(w["poly"])
        return len(mu) > 2 and all(
            _rem_is_zero(_sub(_mul(_deriv(n), d), _mul(n, _deriv(d))), mu) for n, d in polys)
    if kind == "collision-with-infinity-conjugate":
        mu = _parse_univariate(w["poly"])
        vi = _values(coords, INFINITY)
        return vi is not None and len(mu) > 2 and all(
            _rem_is_zero(_sub(n, _scale(d, v[0])), mu) for (n, d), v in zip(polys, vi))
    return False  # no independent check for this kind


def recheck_witnesses(data: EmbeddingData, cert: dict) -> str:
    """Empty string when every witness holds and at least one exists."""
    total = 0
    for chart in cert["charts"]:
        cone = tuple(chart["cone"])
        coords = chart_coords(data, cone)
        excluded = _excluded(data, cone)
        for w in chart["witnesses"]:
            total += 1
            if not _check_witness(w, coords, excluded):
                return f"witness does not hold: chart {list(cone)}: {json.dumps(w, sort_keys=True)}"
        if (chart["injective"] and chart["immersive"]) != (not chart["witnesses"]):
            return f"chart {list(cone)}: verdict and witnesses disagree"
    if cert["pullback_witnesses"]:
        return "unexpected pullback witnesses"
    return "" if total else "not embedded, yet no witness"
