"""Command line interface: fan tools, ample search, pipeline and demos.

Every command prints one JSON report to stdout and signals the outcome in
the exit code, so runs are scriptable and replayable.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .curve import ProjectiveLine
from .embed import build_embedding_data, check_theorem_conditions, dumps_embedding, load_embedding
from .fan import (
    Fan,
    MalformedFan,
    NotComplete,
    ConeNotInFan,
    UnknownPreset,
    dumps_fan,
    load_fan,
    preset,
    star_subdivision,
    validate,
)
from .intersect import (
    NoPositiveKernel,
    NotAmple,
    NotProjective,
    TDivisor,
    find_ample,
    xi_vector,
)
from .verify import DegreeOverflow, certify, dumps_certificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NOT_PROJECTIVE = 4
EXIT_CERTIFICATE = 5


@dataclass
class RunConfig:
    fan_path: str | None = None
    preset_name: str | None = None
    ample: str = "auto"  # "auto" or a divisor file path
    xi_method: str = "intersection"
    seed: int = 0
    torus: tuple = (Fraction(1), Fraction(1), Fraction(1))
    max_retries: int = 3
    out_dir: str = "toricurve-out"


def _emit(report: dict, code: int) -> int:
    report = dict(report)
    report["exit_code"] = code
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


def _load_input_fan(args) -> Fan:
    if getattr(args, "preset", None):
        return preset(args.preset)
    if getattr(args, "fan", None):
        return load_fan(args.fan)
    raise MalformedFan("either --fan or --preset is required")


def _parse_torus(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("torus needs three comma-separated rationals")
    values = tuple(Fraction(p) for p in parts)
    if any(v == 0 for v in values):
        raise ValueError("torus entries must be nonzero")
    return values


def _parse_cone(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("cone needs three comma-separated ray indices")
    return tuple(int(p) for p in parts)


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


def _load_divisor(path: str, fan: Fan) -> TDivisor:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or set(doc) != {"coeffs"}:
        raise ValueError(f"divisor file must have exactly a coeffs field: {path}")
    coeffs = doc["coeffs"]
    if not isinstance(coeffs, list) or not all(isinstance(x, int) for x in coeffs):
        raise ValueError("coeffs must be an int array")
    if len(coeffs) != fan.n_rays:
        raise ValueError("divisor length does not match the fan")
    return TDivisor(tuple(coeffs))


def _divisor_doc(divisor: TDivisor) -> dict:
    return {"coeffs": list(divisor.coeffs)}


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def run_pipeline(config: RunConfig):
    """Validate, find degrees, sample, certify; retry on certificate failure.

    Returns (exit_code, report).  Artifacts are only written for a
    successful attempt, so failed runs leave no partial state.
    """
    report: dict = {
        "command": "run",
        "config": {
            "fan": config.fan_path,
            "preset": config.preset_name,
            "ample": config.ample,
            "xi_method": config.xi_method,
            "seed": config.seed,
            "torus": [str(x) for x in config.torus],
            "max_retries": config.max_retries,
            "out": config.out_dir,
        },
    }
    try:
        fan = preset(config.preset_name) if config.preset_name else load_fan(config.fan_path)
    except (MalformedFan, UnknownPreset, OSError) as exc:
        report["status"] = "error"
        report["error"] = {"kind": "bad-fan", "message": str(exc)}
        return EXIT_VALIDATION, report

    check = validate(fan)
    report["validation"] = {
        "smooth": check.smooth,
        "complete": check.complete,
        "counts": list(check.counts),
        "issues": [list(i) for i in check.issues],
    }
    if not check.ok:
        report["status"] = "error"
        report["error"] = {"kind": "validation", "issues": [list(i) for i in check.issues]}
        return EXIT_VALIDATION, report

    try:
        if config.ample == "auto":
            ample = find_ample(fan)
        else:
            ample = _load_divisor(config.ample, fan)
        xi = xi_vector(fan, ample, method=config.xi_method)
    except NotProjective as exc:
        report["status"] = "error"
        report["error"] = {
            "kind": "not-projective",
            "message": str(exc),
            "farkas_certificate": {
                str(k): str(v) for k, v in sorted(exc.certificate.items())
            },
        }
        return EXIT_NOT_PROJECTIVE, report
    except (NotAmple, NoPositiveKernel, ValueError, OSError) as exc:
        report["status"] = "error"
        report["error"] = {"kind": "bad-input", "message": str(exc)}
        return EXIT_ERROR, report

    report["ample"] = list(ample.coeffs)
    report["xi"] = {"values": list(xi.values), "method": xi.method}

    curve = ProjectiveLine()
    attempts = []
    for attempt in range(config.max_retries):
        seed = config.seed + attempt
        data = build_embedding_data(fan, ample, xi, seed, config.torus, curve)
        conditions = check_theorem_conditions(data)
        if not conditions.passed:
            attempts.append({"seed": seed, "outcome": "conditions-failed"})
            continue
        try:
            certificate = certify(data)
        except DegreeOverflow as exc:
            report["status"] = "error"
            report["error"] = {"kind": "degree-overflow", "message": str(exc)}
            return EXIT_ERROR, report
        if certificate.embedded:
            out = Path(config.out_dir)
            embedding_path = out / "embedding.json"
            certificate_path = out / "certificate.json"
            _write(embedding_path, dumps_embedding(data))
            _write(certificate_path, dumps_certificate(certificate))
            attempts.append({"seed": seed, "outcome": "ok"})
            report["status"] = "ok"
            report["seed_used"] = seed
            report["retries"] = attempt
            report["attempts"] = attempts
            report["artifacts"] = {
                "embedding": str(embedding_path),
                "certificate": str(certificate_path),
            }
            report["certificate"] = {
                "embedded": True,
                "charts": len(certificate.charts),
            }
            return EXIT_OK, report
        attempts.append(
            {
                "seed": seed,
                "outcome": "certificate-failed",
                "witnesses": [
                    dict(w) for r in certificate.charts for w in r.witnesses
                ][:8],
            }
        )
    report["status"] = "error"
    report["attempts"] = attempts
    report["error"] = {
        "kind": "certificate",
        "message": f"no certified embedding after {config.max_retries} attempts",
    }
    return EXIT_CERTIFICATE, report


def _cmd_fan_validate(args) -> int:
    try:
        fan = _load_input_fan(args)
    except (MalformedFan, UnknownPreset, OSError) as exc:
        return _emit(
            {"command": "fan validate", "status": "error",
             "error": {"kind": "bad-fan", "message": str(exc)}},
            EXIT_VALIDATION,
        )
    check = validate(fan)
    report = {
        "command": "fan validate",
        "status": "ok" if check.ok else "invalid",
        "smooth": check.smooth,
        "complete": check.complete,
        "counts": list(check.counts),
        "issues": [list(i) for i in check.issues],
    }
    return _emit(report, EXIT_OK if check.ok else EXIT_VALIDATION)


def _cmd_fan_preset(args) -> int:
    try:
        fan = preset(args.name)
    except UnknownPreset as exc:
        return _emit(
            {"command": "fan preset", "status": "error",
             "error": {"kind": "unknown-preset", "message": str(exc)}},
            EXIT_USAGE,
        )
    text = dumps_fan(fan)
    report = {"command": "fan preset", "status": "ok", "name": fan.name}
    if args.out:
        _write(Path(args.out), text)
        report["artifacts"] = {"fan": args.out}
    else:
        report["fan"] = json.loads(text)
    return _emit(report, EXIT_OK)


def _cmd_fan_subdivide(args) -> int:
    try:
        fan = _load_input_fan(args)
        cone = _parse_cone(args.cone)
        result = star_subdivision(fan, cone)
    except (MalformedFan, UnknownPreset, OSError, ValueError) as exc:
        kind = "cone-not-in-fan" if isinstance(exc, ConeNotInFan) else "bad-input"
        return _emit(
            {"command": "fan subdivide", "status": "error",
             "error": {"kind": kind, "message": str(exc)}},
            EXIT_VALIDATION if isinstance(exc, ConeNotInFan) else EXIT_USAGE,
        )
    text = dumps_fan(result)
    report = {
        "command": "fan subdivide",
        "status": "ok",
        "counts": [result.n_rays, 3 * result.n_rays - 6, 2 * result.n_rays - 4],
    }
    if args.out:
        _write(Path(args.out), text)
        report["artifacts"] = {"fan": args.out}
    else:
        report["fan"] = json.loads(text)
    return _emit(report, EXIT_OK)


def _cmd_ample_find(args) -> int:
    try:
        fan = _load_input_fan(args)
    except (MalformedFan, UnknownPreset, OSError) as exc:
        return _emit(
            {"command": "ample find", "status": "error",
             "error": {"kind": "bad-fan", "message": str(exc)}},
            EXIT_VALIDATION,
        )
    try:
        divisor = find_ample(fan)
    except NotProjective as exc:
        return _emit(
            {
                "command": "ample find",
                "status": "error",
                "error": {
                    "kind": "not-projective",
                    "message": str(exc),
                    "farkas_certificate": {
                        str(k): str(v) for k, v in sorted(exc.certificate.items())
                    },
                },
            },
            EXIT_NOT_PROJECTIVE,
        )
    report = {
        "command": "ample find",
        "status": "ok",
        "divisor": _divisor_doc(divisor),
    }
    if args.out:
        _write(Path(args.out), json.dumps(_divisor_doc(divisor), indent=2) + "\n")
        report["artifacts"] = {"divisor": args.out}
    return _emit(report, EXIT_OK)


def _cmd_xi(args) -> int:
    try:
        fan = _load_input_fan(args)
        if args.xi_method == "kernel":
            ample = None
        elif args.ample == "auto":
            ample = find_ample(fan)
        else:
            ample = _load_divisor(args.ample, fan)
        xi = xi_vector(fan, ample, method=args.xi_method)
    except NotProjective as exc:
        return _emit(
            {"command": "xi", "status": "error",
             "error": {"kind": "not-projective", "message": str(exc)}},
            EXIT_NOT_PROJECTIVE,
        )
    except (MalformedFan, UnknownPreset, NotAmple, NoPositiveKernel, OSError, ValueError) as exc:
        return _emit(
            {"command": "xi", "status": "error",
             "error": {"kind": "bad-input", "message": str(exc)}},
            EXIT_ERROR,
        )
    return _emit(
        {"command": "xi", "status": "ok",
         "xi": {"values": list(xi.values), "method": xi.method}},
        EXIT_OK,
    )


def _config_from_args(args) -> RunConfig:
    if args.max_retries < 1:
        raise ValueError("max-retries must be at least 1")
    return RunConfig(
        fan_path=getattr(args, "fan", None),
        preset_name=getattr(args, "preset", None),
        ample=args.ample,
        xi_method=args.xi_method,
        seed=_check_seed(args.seed),
        torus=_parse_torus(args.torus),
        max_retries=args.max_retries,
        out_dir=args.out,
    )


def _cmd_run(args) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        return _emit(
            {"command": "run", "status": "error",
             "error": {"kind": "usage", "message": str(exc)}},
            EXIT_USAGE,
        )
    code, report = run_pipeline(config)
    return _emit(report, code)


def _cmd_embed(args) -> int:
    """Build and write embedding data without certification."""
    try:
        fan = _load_input_fan(args)
        check = validate(fan)
        if not check.ok:
            return _emit(
                {"command": "embed", "status": "error",
                 "error": {"kind": "validation",
                           "issues": [list(i) for i in check.issues]}},
                EXIT_VALIDATION,
            )
        if args.xi_method == "kernel":
            ample = None
            xi = xi_vector(fan, None, method="kernel")
        else:
            ample = find_ample(fan) if args.ample == "auto" else _load_divisor(args.ample, fan)
            xi = xi_vector(fan, ample, method=args.xi_method)
        data = build_embedding_data(
            fan, ample, xi, _check_seed(args.seed), _parse_torus(args.torus)
        )
        conditions = check_theorem_conditions(data)
    except NotProjective as exc:
        return _emit(
            {"command": "embed", "status": "error",
             "error": {"kind": "not-projective", "message": str(exc)}},
            EXIT_NOT_PROJECTIVE,
        )
    except (MalformedFan, UnknownPreset, NotAmple, NoPositiveKernel, OSError, ValueError) as exc:
        return _emit(
            {"command": "embed", "status": "error",
             "error": {"kind": "bad-input", "message": str(exc)}},
            EXIT_ERROR,
        )
    out = Path(args.out) / "embedding.json"
    _write(out, dumps_embedding(data))
    return _emit(
        {
            "command": "embed",
            "status": "ok",
            "conditions_pass": conditions.passed,
            "xi": {"values": list(xi.values), "method": xi.method},
            "artifacts": {"embedding": str(out)},
        },
        EXIT_OK,
    )


def _cmd_verify(args) -> int:
    try:
        data = load_embedding(args.data)
        certificate = certify(data)
    except DegreeOverflow as exc:
        return _emit(
            {"command": "verify", "status": "error",
             "error": {"kind": "degree-overflow", "message": str(exc)}},
            EXIT_ERROR,
        )
    except (OSError, ValueError) as exc:
        return _emit(
            {"command": "verify", "status": "error",
             "error": {"kind": "bad-input", "message": str(exc)}},
            EXIT_ERROR,
        )
    out = Path(args.out) / "certificate.json"
    _write(out, dumps_certificate(certificate))
    report = {
        "command": "verify",
        "status": "ok" if certificate.embedded else "not-embedded",
        "embedded": certificate.embedded,
        "charts": [
            {
                "cone": list(r.cone),
                "injective": r.injective,
                "immersive": r.immersive,
            }
            for r in certificate.charts
        ],
        "pullback_ok": certificate.pullback_ok,
        "artifacts": {"certificate": str(out)},
    }
    return _emit(report, EXIT_OK if certificate.embedded else EXIT_CERTIFICATE)


def _cmd_demo(args) -> int:
    try:
        seed = _check_seed(args.seed)
    except ValueError as exc:
        return _emit(
            {"command": "demo", "status": "error",
             "error": {"kind": "usage", "message": str(exc)}},
            EXIT_USAGE,
        )
    config = RunConfig(preset_name=args.name, seed=seed, out_dir=args.out)
    code, report = run_pipeline(config)
    report["command"] = "demo"
    return _emit(report, code)


def _add_fan_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--fan", help="path to a fan JSON file")
    group.add_argument("--preset", help="built-in fan name")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ample", default="auto",
                        help="'auto' or a divisor JSON file (default auto)")
    parser.add_argument("--xi-method", default="intersection",
                        choices=("intersection", "kernel"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--torus", default="1,1,1",
                        help="three nonzero rationals, comma separated")
    parser.add_argument("--out", default="toricurve-out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricurve",
        description="Build and certify exact rational-curve embeddings "
                    "into smooth projective toric 3-folds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fan_parser = sub.add_parser("fan", help="fan inspection and construction")
    fan_sub = fan_parser.add_subparsers(dest="fan_command", required=True)

    p = fan_sub.add_parser("validate", help="smoothness and completeness report")
    _add_fan_source(p)
    p.set_defaults(handler=_cmd_fan_validate)

    p = fan_sub.add_parser("preset", help="emit a built-in fan")
    p.add_argument("name")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_fan_preset)

    p = fan_sub.add_parser("subdivide", help="star subdivision at a maximal cone")
    _add_fan_source(p)
    p.add_argument("--cone", required=True, help="three ray indices, comma separated")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_fan_subdivide)

    ample_parser = sub.add_parser("ample", help="ample divisors")
    ample_sub = ample_parser.add_subparsers(dest="ample_command", required=True)
    p = ample_sub.add_parser("find", help="deterministic ample divisor search")
    _add_fan_source(p)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_ample_find)

    p = sub.add_parser("xi", help="strictly positive degree vector")
    _add_fan_source(p)
    p.add_argument("--ample", default="auto")
    p.add_argument("--xi-method", default="intersection",
                   choices=("intersection", "kernel"))
    p.set_defaults(handler=_cmd_xi)

    p = sub.add_parser("embed", help="sample divisors and build embedding data")
    _add_fan_source(p)
    _add_pipeline_flags(p)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("verify", help="certify an embedding data file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="toricurve-out")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("run", help="full pipeline with retries")
    _add_fan_source(p)
    _add_pipeline_flags(p)
    p.add_argument("--max-retries", type=int, default=3)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("demo", help="full pipeline on a preset with defaults")
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="toricurve-out")
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # last resort: structured error, nonzero exit
        return _emit(
            {"command": args.command, "status": "error",
             "error": {"kind": "unexpected", "message": f"{type(exc).__name__}: {exc}"}},
            EXIT_ERROR,
        )


if __name__ == "__main__":
    sys.exit(main())
