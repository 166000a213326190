"""Command line interface: fan tools, ample search, pipeline and demos.

Every command prints one JSON report to stdout and signals the outcome in
the exit code, so runs are scriptable and replayable.  A command that fails
raises; ``ERRORS`` maps what it raised to the report's error ``kind`` and
the exit code in ``main``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificate import DegreeOverflow, dumps_certificate
from .embed import (
    _parse_fraction, build_embedding_data, check_theorem_conditions, dumps_embedding, load_embedding,
)
from .fan import (
    ConeNotInFan, Fan, MalformedFan, UnknownPreset, ValidationReport, _is_int, _pair_census,
    dumps_fan, dumps_json, fan_to_dict, load_fan, preset, star_subdivision, validate,
)
from .feasibility import EliminationOverflow
from .intersect import NotProjective, TDivisor, find_ample, xi_vector

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NOT_PROJECTIVE = 4
EXIT_CERTIFICATE = 5


class UsageError(ValueError):
    """Flags no command can use: a bad seed, torus, cone or retry count, or
    anything argparse rejects.  ``command`` names the command when argparse
    failed before choosing its handler."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


class InvalidFan(ValueError):
    """The fan is not smooth and complete; ``issues`` lists why."""

    def __init__(self, issues: tuple):
        super().__init__("fan must be smooth and complete")
        self.issues = issues


class RetriesExhausted(RuntimeError):
    """No attempt of the pipeline produced a certified embedding."""


# Exception -> (error kind, exit code).  First match wins, so every row
# precedes the rows of its base classes.
ERRORS = (
    (UsageError, "usage", EXIT_USAGE),
    (UnknownPreset, "unknown-preset", EXIT_USAGE),
    (ConeNotInFan, "cone-not-in-fan", EXIT_VALIDATION),
    (MalformedFan, "bad-fan", EXIT_VALIDATION),
    (InvalidFan, "validation", EXIT_VALIDATION),
    (NotProjective, "not-projective", EXIT_NOT_PROJECTIVE),
    (RetriesExhausted, "certificate", EXIT_CERTIFICATE),
    (DegreeOverflow, "degree-overflow", EXIT_ERROR),
    (EliminationOverflow, "elimination-overflow", EXIT_ERROR),
    ((ValueError, OSError), "bad-input", EXIT_ERROR),
    (Exception, "unexpected", EXIT_ERROR),
)


def certify(data):
    """verify.certify, imported on first call: ``embed`` and the fan commands
    never load the certification code."""
    from .verify import certify

    return certify(data)


def _fail(report: dict, exc: Exception) -> int:
    """Write the error envelope of ``exc`` into ``report``; return its exit code."""
    kind, code = next((k, c) for types, k, c in ERRORS if isinstance(exc, types))
    message = f"{type(exc).__name__}: {exc}" if kind == "unexpected" else str(exc)
    error = {"kind": kind, "message": message}
    if isinstance(exc, NotProjective):
        error["farkas_certificate"] = {
            str(k): str(v) for k, v in sorted(exc.certificate.items())
        }
    if isinstance(exc, InvalidFan):
        error["issues"] = exc.issues
    report["status"] = "error"
    report["error"] = error
    return code


def _emit(report: dict, code: int) -> int:
    report = dict(report)
    report["exit_code"] = code
    print(dumps_json(report, sort_keys=True))
    return code


def _load_input_fan(preset_name: str | None, fan_path: str | None) -> Fan:
    if preset_name:
        return preset(preset_name)
    if not fan_path:
        raise MalformedFan("either --fan or --preset is required")
    try:
        return load_fan(fan_path)
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable file is a bad fan
        raise MalformedFan(str(exc)) from exc


def _parse_values(text: str, convert, count: int, message: str) -> tuple:
    """``count`` comma-separated values of ``text``, else UsageError(message)."""
    parts = text.split(",")
    try:
        if len(parts) == count:
            return tuple(convert(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"{message}, got {text!r}")


def _parse_torus(text: str):
    return _parse_values(text, _parse_fraction, 3, "torus needs three comma-separated rationals")


def _parse_cone(text: str):
    return _parse_values(text, int, 3, "cone needs three comma-separated ray indices")


def _parse_seed(text: str) -> int:
    return _parse_values(text, int, 1, "seed must be an integer")[0]


def _check_ranges(seed: int, torus, max_retries: int = 1) -> None:
    """The range checks of ``embed``, ``run`` and ``demo`` on their parsed flags."""
    if max_retries < 1:
        raise UsageError("max-retries must be at least 1")
    if not 0 <= seed < 2**64:
        raise UsageError("seed must fit in 64 unsigned bits")
    if any(v == 0 for v in torus):
        raise UsageError("torus entries must be nonzero")


def _load_divisor(path: str, fan: Fan) -> TDivisor:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or set(doc) != {"coeffs"}:
        raise ValueError(f"divisor file must have exactly a coeffs field: {path}")
    coeffs = doc["coeffs"]
    if not isinstance(coeffs, list) or not all(map(_is_int, coeffs)):
        raise ValueError("coeffs must be an int array")
    if len(coeffs) != fan.n_rays:
        raise ValueError("divisor length does not match the fan")
    return TDivisor(tuple(coeffs))


def _ample(fan: Fan, source: str) -> TDivisor:
    """The divisor named by ``--ample``: searched for ("auto") or read from a file."""
    return find_ample(fan) if source == "auto" else _load_divisor(source, fan)


def _check_ample_flag(args) -> None:
    """``xi`` and ``embed`` use no divisor under kernel, so a divisor file there is a mistake."""
    if args.xi_method == "kernel" and args.ample != "auto":
        raise UsageError("--ample has no use under --xi-method kernel")


def _degrees(fan: Fan, source: str, method: str):
    """(ample, xi) for ``xi`` and ``embed``: no divisor under ``--xi-method kernel``."""
    ample = None if method == "kernel" else _ample(fan, source)
    return ample, xi_vector(fan, ample, method=method)


def _require_valid(check: ValidationReport) -> None:
    if not check.ok:
        raise InvalidFan(check.issues)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _cmd_run(args, report: dict) -> int:
    """Validate, find degrees, sample, certify; retry on certificate failure.

    Artifacts are only written for a successful attempt, so failed runs
    leave no partial state; a failed report keeps what the run learnt
    before it failed.
    """
    # every flag is checked before anything is opened
    seed, torus = _parse_seed(args.seed), _parse_torus(args.torus)
    _check_ranges(seed, torus, args.max_retries)
    report["config"] = {
        "fan": args.fan,
        "preset": args.preset,
        "ample": args.ample,
        "xi_method": args.xi_method,
        "seed": seed,
        "torus": [str(x) for x in torus],
        "max_retries": args.max_retries,
        "out": args.out,
    }
    fan = _load_input_fan(args.preset, args.fan)
    check = validate(fan)
    report["validation"] = check._asdict()
    _require_valid(check)

    # Unlike ``embed`` and ``xi``, ``run`` computes the ample divisor under
    # --xi-method kernel too and records it in embedding.json; the pinned
    # certify and embed digests fix both byte streams.
    ample = _ample(fan, args.ample)
    report["ample"] = list(ample.coeffs)
    xi = xi_vector(fan, ample, method=args.xi_method)
    report["xi"] = xi._asdict()

    attempts = report["attempts"] = []
    for attempt in range(args.max_retries):
        # the sampler reads its seed mod 2^64, so a retry past 2^64 - 1 wraps
        # to 0: the report then names a seed that --seed accepts and replays
        attempt_seed = (seed + attempt) % 2**64
        data = build_embedding_data(fan, ample, xi, attempt_seed, torus)
        certificate = certify(data)
        if not certificate.embedded:
            witnesses = [dict(w) for r in certificate.charts for w in r.witnesses]
            attempts.append(
                {"seed": attempt_seed, "outcome": "certificate-failed", "witnesses": witnesses[:8]}
            )
            continue
        out = Path(args.out)
        embedding_path = out / "embedding.json"
        certificate_path = out / "certificate.json"
        _write(embedding_path, dumps_embedding(data))
        _write(certificate_path, dumps_certificate(certificate))
        attempts.append({"seed": attempt_seed, "outcome": "ok"})
        report.update(
            status="ok",
            seed_used=attempt_seed,
            retries=attempt,
            artifacts={"embedding": str(embedding_path), "certificate": str(certificate_path)},
            certificate={"embedded": True, "charts": len(certificate.charts)},
        )
        return EXIT_OK
    raise RetriesExhausted(f"no certified embedding after {args.max_retries} attempts")


def _fan_output(fan: Fan, out: str | None, report: dict) -> None:
    """Write the fan to ``out``, or put it in the report when there is none."""
    if out:
        _write(Path(out), dumps_fan(fan))
        report["artifacts"] = {"fan": out}
    else:
        report["fan"] = fan_to_dict(fan)


def _cmd_fan_validate(args, report: dict) -> int:
    check = validate(_load_input_fan(args.preset, args.fan))
    report.update(check._asdict(), status="ok" if check.ok else "invalid")
    return EXIT_OK if check.ok else EXIT_VALIDATION


def _cmd_fan_preset(args, report: dict) -> int:
    fan = preset(args.name)
    _fan_output(fan, args.out, report)
    report.update(status="ok", name=fan.name)
    return EXIT_OK


def _cmd_fan_subdivide(args, report: dict) -> int:
    cone = _parse_cone(args.cone)
    result = star_subdivision(_load_input_fan(args.preset, args.fan), cone)
    _fan_output(result, args.out, report)
    # counted as validate counts them, but not validated
    report.update(
        status="ok", counts=[result.n_rays, len(_pair_census(result)), len(result.max_cones)]
    )
    return EXIT_OK


def _cmd_ample_find(args, report: dict) -> int:
    fan = _load_input_fan(args.preset, args.fan)
    _require_valid(validate(fan))
    doc = find_ample(fan)._asdict()
    if args.out:
        _write(Path(args.out), dumps_json(doc) + "\n")
        report["artifacts"] = {"divisor": args.out}
    report.update(status="ok", divisor=doc)
    return EXIT_OK


def _cmd_xi(args, report: dict) -> int:
    _check_ample_flag(args)
    fan = _load_input_fan(args.preset, args.fan)
    _require_valid(validate(fan))
    _, xi = _degrees(fan, args.ample, args.xi_method)
    report.update(status="ok", xi=xi._asdict())
    return EXIT_OK


def _cmd_embed(args, report: dict) -> int:
    """Build and write embedding data without certification."""
    seed, torus = _parse_seed(args.seed), _parse_torus(args.torus)
    _check_ranges(seed, torus)
    _check_ample_flag(args)
    fan = _load_input_fan(args.preset, args.fan)
    _require_valid(validate(fan))
    ample, xi = _degrees(fan, args.ample, args.xi_method)
    data = build_embedding_data(fan, ample, xi, seed, torus)
    conditions = check_theorem_conditions(data)
    out = Path(args.out) / "embedding.json"
    _write(out, dumps_embedding(data))
    report.update(status="ok", conditions_pass=conditions.passed, xi=xi._asdict(),
                  artifacts={"embedding": str(out)})
    return EXIT_OK


def _cmd_verify(args, report: dict) -> int:
    data = load_embedding(args.data)
    _require_valid(validate(data.fan))
    certificate = certify(data)
    out = Path(args.out) / "certificate.json"
    _write(out, dumps_certificate(certificate))
    report.update(
        status="ok" if certificate.embedded else "not-embedded",
        embedded=certificate.embedded,
        charts=[
            {"cone": list(r.cone), "injective": r.injective, "immersive": r.immersive}
            for r in certificate.charts
        ],
        pullback_ok=certificate.pullback_ok,
        artifacts={"certificate": str(out)},
    )
    return EXIT_OK if certificate.embedded else EXIT_CERTIFICATE


def _add_command(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    """A subcommand whose report says ``"command": name``."""
    parser = sub.add_parser(name.split()[-1], help=help)
    parser.set_defaults(handler=handler, command_name=name)
    return parser


def _add_fan_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--fan", help="path to a fan JSON file")
    group.add_argument("--preset", help="built-in fan name")


def _add_xi_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ample", default="auto",
                        help="'auto' or a divisor JSON file (default auto)")
    parser.add_argument("--xi-method", default="intersection",
                        choices=("intersection", "kernel"))


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    _add_xi_flags(parser)
    # Parsed by _parse_seed, so that a non-integer seed gets the usage report.
    parser.add_argument("--seed", default="0", help="integer in [0, 2^64)")
    parser.add_argument("--torus", default="1,1,1",
                        help="three nonzero rationals, comma separated")
    parser.add_argument("--out", default="toricurve-out")


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print to stderr and exit 2,
    so a rejected flag gets the JSON ``usage`` report too."""

    def error(self, message: str):
        raise UsageError(message, command=self.prog.partition(" ")[2] or None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricurve",
        description="Build and certify exact rational-curve embeddings "
                    "into smooth projective toric 3-folds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fan_parser = sub.add_parser("fan", help="fan inspection and construction")
    fan_sub = fan_parser.add_subparsers(dest="fan_command", required=True)

    p = _add_command(fan_sub, "fan validate", _cmd_fan_validate,
                     "smoothness and completeness report")
    _add_fan_source(p)

    p = _add_command(fan_sub, "fan preset", _cmd_fan_preset, "emit a built-in fan")
    p.add_argument("name")
    p.add_argument("--out", default=None)

    p = _add_command(fan_sub, "fan subdivide", _cmd_fan_subdivide,
                     "star subdivision at a maximal cone")
    _add_fan_source(p)
    p.add_argument("--cone", required=True, help="three ray indices, comma separated")
    p.add_argument("--out", default=None)

    ample_parser = sub.add_parser("ample", help="ample divisors")
    ample_sub = ample_parser.add_subparsers(dest="ample_command", required=True)
    p = _add_command(ample_sub, "ample find", _cmd_ample_find,
                     "deterministic ample divisor search")
    _add_fan_source(p)
    p.add_argument("--out", default=None)

    p = _add_command(sub, "xi", _cmd_xi, "strictly positive degree vector")
    _add_fan_source(p)
    _add_xi_flags(p)

    p = _add_command(sub, "embed", _cmd_embed, "sample divisors and build embedding data")
    _add_fan_source(p)
    _add_pipeline_flags(p)

    p = _add_command(sub, "verify", _cmd_verify, "certify an embedding data file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="toricurve-out")

    run = _add_command(sub, "run", _cmd_run, "full pipeline with retries")
    _add_fan_source(run)
    _add_pipeline_flags(run)
    run.add_argument("--max-retries", type=int, default=3)

    # demo is run on a preset, with run's defaults for the flags it lacks
    p = _add_command(sub, "demo", _cmd_run, "full pipeline on a preset with defaults")
    p.add_argument("preset", metavar="name")
    p.add_argument("--seed", default="0", help="integer in [0, 2^64)")
    p.add_argument("--out", default="toricurve-out")
    p.set_defaults(**{dest: run.get_default(dest)
                      for dest in ("fan", "ample", "xi_method", "torus", "max_retries")})

    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args, extra = PARSER.parse_known_args(argv)
        if extra:  # what parse_args rejects, but with the command named
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}",
                             command=args.command_name)
    except UsageError as exc:
        report = {"command": exc.command}
        return _emit(report, _fail(report, exc))
    report = {"command": args.command_name}
    try:
        code = args.handler(args, report)
    except Exception as exc:
        code = _fail(report, exc)
    return _emit(report, code)


if __name__ == "__main__":
    sys.exit(main())
