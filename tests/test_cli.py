"""Command line behavior: reports, exit codes, artifacts, retries."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import FIXTURES, budget, ladder_fan, run_main
from negative_fixtures import symmetric_data
from test_verify import run_fresh
from toricurve import feasibility
from toricurve.cli import ERRORS, main
from toricurve.curve import CurvePoint, evaluate, evaluate_with_derivative
from toricurve.embed import (
    build_embedding_data, chart_maps, check_theorem_conditions, dumps_embedding,
    embedding_to_dict, load_embedding,
)
from toricurve.fan import Fan, load_fan, preset, save_fan
from toricurve.intersect import XiVector, find_ample, xi_vector
from toricurve.verify import Certificate


def write_bad_fan(tmp_path):
    doc = {
        "name": "bad",
        "rays": [[2, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    }
    path = tmp_path / "bad.fan"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_orphan_fan(tmp_path):
    """p3 plus a ray (1, 1, 1) that no cone uses: every wall still closes."""
    doc = {
        "name": "orphan",
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1]],
        "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    }
    path = tmp_path / "orphan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_demo_runs_the_full_pipeline(tmp_path):
    out = tmp_path / "artifacts"
    code, report = run_main(["demo", "p3", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert report["command"] == "demo"
    assert report["status"] == "ok"
    assert report["seed_used"] == 7
    assert report["retries"] == 0
    assert report["certificate"] == {"embedded": True, "charts": 4}
    embedding = json.loads((out / "embedding.json").read_text(encoding="utf-8"))
    certificate = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    assert embedding["xi"]["values"] == [1, 1, 1, 1]
    assert certificate["embedded"] is True


def test_demo_is_run_on_a_preset_with_the_defaults(tmp_path):
    out = tmp_path / "o"
    reports, files = [], []
    for argv in (["demo", "p3"], ["run", "--preset", "p3"]):
        code, report = run_main(argv + ["--seed", "7", "--out", str(out)])
        assert (code, report.pop("command")) == (0, argv[0])
        reports.append(report)
        files.append([(out / name).read_bytes() for name in ("embedding.json", "certificate.json")])
    assert reports[0] == reports[1]
    assert files[0] == files[1]


def test_run_rejects_a_non_smooth_fan_with_the_issue_list(tmp_path):
    bad = write_bad_fan(tmp_path)
    code, report = run_main(["run", "--fan", bad, "--out", str(tmp_path / "o")])
    assert code == 3
    assert report["status"] == "error"
    assert report["error"]["kind"] == "validation"
    assert ["non_primitive_ray", 0] in report["error"]["issues"]
    assert not (tmp_path / "o").exists()  # failed runs leave no artifacts


def test_run_reports_non_projective_fans_with_a_certificate(tmp_path):
    fan_path = str(FIXTURES / "nonprojective.fan")
    code, report = run_main(["run", "--fan", fan_path, "--out", str(tmp_path / "o")])
    assert code == 4
    assert report["validation"]["smooth"] and report["validation"]["complete"]
    assert report["error"]["kind"] == "not-projective"
    assert len(report["error"]["farkas_certificate"]) > 0


def test_replays_with_the_same_seed_are_byte_identical(tmp_path):
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _ = run_main(
            ["run", "--preset", "p3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        texts.append(
            (
                (out / "embedding.json").read_bytes(),
                (out / "certificate.json").read_bytes(),
            )
        )
    assert texts[0] == texts[1]


def reject_the_first_attempt(monkeypatch):
    """cli.certify refuses the first embedding it is given and certifies the rest."""
    import toricurve.cli as cli

    rejected = Certificate(charts=(), pullback_ok=False, pullback_witnesses=(), embedded=False)
    real = cli.certify
    calls = []

    def fail_once(data, *args, **kwargs):
        calls.append(1)
        return rejected if len(calls) == 1 else real(data, *args, **kwargs)

    monkeypatch.setattr(cli, "certify", fail_once)


def test_retries_walk_the_seed_until_certification_passes(tmp_path, monkeypatch):
    reject_the_first_attempt(monkeypatch)
    code, report = run_main(
        ["run", "--preset", "p3", "--seed", "0", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert report["retries"] == 1
    assert report["seed_used"] == 1
    assert [a["outcome"] for a in report["attempts"]] == ["certificate-failed", "ok"]


def test_exhausted_retries_exit_with_the_certificate_code(tmp_path, monkeypatch):
    import toricurve.cli as cli

    rejected = Certificate(charts=(), pullback_ok=False, pullback_witnesses=(), embedded=False)
    monkeypatch.setattr(cli, "certify", lambda *a, **k: rejected)
    code, report = run_main(
        ["run", "--preset", "p3", "--max-retries", "2", "--out", str(tmp_path / "o")],
    )
    assert code == 5
    assert report["error"]["kind"] == "certificate"
    assert [a["seed"] for a in report["attempts"]] == [0, 1]
    assert not (tmp_path / "o").exists()


def test_a_retry_past_the_last_seed_wraps_to_the_seed_that_replays_it(tmp_path, monkeypatch):
    reject_the_first_attempt(monkeypatch)
    code, report = run_main(
        ["run", "--preset", "p3", "--seed", str(2**64 - 1), "--out", str(tmp_path / "wrap")]
    )
    assert (code, report["seed_used"]) == (0, 0)
    assert [a["seed"] for a in report["attempts"]] == [2**64 - 1, 0]
    # certify passes every later embedding on to the real one
    code, _ = run_main(["run", "--preset", "p3", "--seed", "0", "--out", str(tmp_path / "zero")])
    assert code == 0
    for name in ("embedding.json", "certificate.json"):
        assert (tmp_path / "wrap" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()


def test_fan_validate_reports_counts():
    code, report = run_main(["fan", "validate", "--preset", "p1p1p1"])
    assert code == 0
    assert report["status"] == "ok"
    assert report["smooth"] and report["complete"]
    assert report["counts"] == [6, 12, 8]


def test_fan_validate_accepts_the_non_projective_fixture():
    # smooth and complete, so validation passes; only ample search fails
    code, report = run_main(
        ["fan", "validate", "--fan", str(FIXTURES / "nonprojective.fan")]
    )
    assert code == 0
    assert report["counts"] == [7, 15, 10]


def test_fan_validate_requires_a_source():
    code, report = run_main(["fan", "validate"])
    assert code == 2
    assert report["command"] == "fan validate"
    assert report["error"]["kind"] == "usage"
    assert "--fan --preset" in report["error"]["message"]


def test_fan_preset_writes_a_loadable_fan(tmp_path):
    out = tmp_path / "p3.fan"
    code, report = run_main(["fan", "preset", "p3", "--out", str(out)])
    assert code == 0
    assert report["artifacts"] == {"fan": str(out)}
    assert load_fan(out) == preset("p3")


def test_fan_preset_unknown_name_is_a_usage_error():
    code, report = run_main(["fan", "preset", "p2"])
    assert code == 2
    assert report["error"]["kind"] == "unknown-preset"


def test_fan_subdivide_matches_the_blowup_preset(tmp_path):
    out = tmp_path / "bl.fan"
    code, report = run_main(
        ["fan", "subdivide", "--preset", "p3", "--cone", "0,1,2", "--out", str(out)],
    )
    assert code == 0
    assert report["counts"] == [5, 9, 6]
    result = load_fan(out)
    blowup = preset("bl-p3-point")
    assert result.rays == blowup.rays
    assert result.max_cones == blowup.max_cones


def test_fan_subdivide_counts_the_fan_it_writes(tmp_path):
    # one cone, not a complete fan: Euler's counts would say [4, 6, 4]
    one_cone = tmp_path / "cone.fan"
    save_fan(Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),)), one_cone)
    out = tmp_path / "out.fan"
    code, report = run_main(
        ["fan", "subdivide", "--fan", str(one_cone), "--cone", "0,1,2", "--out", str(out)]
    )
    assert (code, report["counts"]) == (0, [4, 6, 3])
    _, check = run_main(["fan", "validate", "--fan", str(out)])
    assert check["counts"] == report["counts"]


def test_fan_subdivide_rejects_a_missing_cone():
    code, report = run_main(
        ["fan", "subdivide", "--preset", "p3", "--cone", "0,1,5"]
    )
    assert code == 3
    assert report["error"]["kind"] == "cone-not-in-fan"


def test_fan_subdivide_rejects_a_malformed_cone_string():
    code, report = run_main(
        ["fan", "subdivide", "--preset", "p3", "--cone", "0,1"]
    )
    assert code == 2
    assert report["error"]["kind"] == "usage"


def test_ample_find_golden_and_artifact(tmp_path):
    out = tmp_path / "ample.json"
    code, report = run_main(
        ["ample", "find", "--preset", "p3", "--out", str(out)]
    )
    assert code == 0
    assert report["divisor"] == {"coeffs": [0, 0, 0, 1]}
    assert json.loads(out.read_text(encoding="utf-8")) == {"coeffs": [0, 0, 0, 1]}


def test_ample_find_fails_on_the_non_projective_fixture():
    code, report = run_main(
        ["ample", "find", "--fan", str(FIXTURES / "nonprojective.fan")]
    )
    assert code == 4
    assert report["error"]["kind"] == "not-projective"
    assert len(report["error"]["farkas_certificate"]) > 0


def test_xi_subcommand_supports_both_methods():
    code, report = run_main(["xi", "--preset", "p1p1p1"])
    assert code == 0
    assert report["xi"] == {"values": [2, 2, 2, 2, 2, 2], "method": "intersection"}
    code, report = run_main(
        ["xi", "--preset", "bl-p3-point", "--xi-method", "kernel"]
    )
    assert code == 0
    assert report["xi"] == {"values": [1, 1, 1, 2, 1], "method": "kernel"}


def test_embed_then_verify_round_trip(tmp_path):
    out = tmp_path / "stage"
    code, report = run_main(
        ["embed", "--preset", "p3", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    assert report["conditions_pass"] is True
    data_path = report["artifacts"]["embedding"]
    code, report = run_main(
        ["verify", "--data", data_path, "--out", str(out)]
    )
    assert code == 0
    assert report["embedded"] is True
    assert report["pullback_ok"] is True
    assert all(c["injective"] and c["immersive"] for c in report["charts"])


def test_verify_flags_a_failing_embedding_file(tmp_path):
    path = tmp_path / "symmetric.json"
    path.write_text(dumps_embedding(symmetric_data()), encoding="utf-8")
    code, report = run_main(
        ["verify", "--data", str(path), "--out", str(tmp_path / "o")]
    )
    assert code == 5
    assert report["status"] == "not-embedded"
    assert report["embedded"] is False
    assert report["pullback_ok"] is True
    certificate = json.loads(
        (tmp_path / "o" / "certificate.json").read_text(encoding="utf-8")
    )
    assert certificate["embedded"] is False


def test_verify_rejects_a_malformed_data_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[]", encoding="utf-8")
    code, report = run_main(
        ["verify", "--data", str(path), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert report["error"]["kind"] == "bad-input"


def p3_embedding_doc(tmp_path):
    """The embedding.json of ``embed --preset p3 --seed 0`` (intersection xi)."""
    code, report = run_main(["embed", "--preset", "p3", "--seed", "0", "--out", str(tmp_path / "p3")])
    assert code == 0
    return json.loads(Path(report["artifacts"]["embedding"]).read_text(encoding="utf-8"))


def verify_constant_coordinates(tmp_path, divisors, epsilon):
    """verify on p3 with xi = (1, 1, 1, 1) and the given divisors and epsilon,
    a file that passes the morphism conditions: (exit code, certificate, charts)."""
    doc = p3_embedding_doc(tmp_path)
    doc["divisors"], doc["epsilon"] = divisors, epsilon
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    data = load_embedding(path)
    assert check_theorem_conditions(data).passed
    code, report = run_main(["verify", "--data", str(path), "--out", str(tmp_path / "o")])
    certificate = json.loads((tmp_path / "o" / "certificate.json").read_text(encoding="utf-8"))
    return code, certificate, chart_maps(data)


def test_a_constant_chart_coordinate_drops_out_of_the_chart_checks(tmp_path):
    """D_0 = D_3 = {1}, D_1 = {2}, D_2 = {3} and epsilon = (1, (t - 2)/(t - 1),
    (t - 3)/(t - 1)): {0, 3} is a face, so the conditions hold, but the
    coordinate of ray 0 on chart (0, 1, 2) and of ray 3 on (1, 2, 3) is
    constant.  It separates no points and drops out of the checks; the other
    two separate every pair, and the pullback finds the point 1 of D_0 and
    of D_3 missing from its zeros."""
    one = {"constant": "1", "factors": []}
    code, certificate, charts = verify_constant_coordinates(
        tmp_path, [[["1", 1]], [["2", 1]], [["3", 1]], [["1", 1]]],
        [one] + [{"constant": "1", "factors": [[r, 1], ["1", -1]]} for r in ("2", "3")])
    assert [[not f.factors for f in c.coords] for c in charts] == [
        [True, False, False], [False] * 3, [False] * 3, [False, False, True]]
    assert code == 5
    assert all(c["injective"] and c["immersive"] and not c["witnesses"]
               for c in certificate["charts"])
    assert certificate["pullback_witnesses"] == [
        {"cone": cone, "difference": [["1", -1]], "kind": "pullback-mismatch", "ray": ray}
        for cone, ray in (([0, 1, 2], 0), ([1, 2, 3], 3))]


def test_a_chart_of_constant_coordinates_is_neither_injective_nor_immersive(tmp_path):
    """Every divisor empty and epsilon constant: every chart coordinate is
    constant, so the first two candidates collide and the first is a
    tangent point, each re-checked by evaluation."""
    one = {"constant": "1", "factors": []}
    code, certificate, charts = verify_constant_coordinates(tmp_path, [[]] * 4, [one] * 3)
    assert code == 5
    for record, chart in zip(certificate["charts"], charts):
        assert (record["injective"], record["immersive"]) == (False, False)
        assert record["injectivity_method"] == "factor"
        pair, tangent = (w for w in record["witnesses"]
                         if w["kind"] in ("collision-pair", "tangent-point"))
        assert pair == {"kind": "collision-pair", "s": "0", "u": "1", "verified": "evaluation"}
        assert tangent == {"kind": "tangent-point", "t": "0", "verified": "evaluation"}
        for f in chart.coords:
            assert evaluate(f, CurvePoint(0)) == evaluate(f, CurvePoint(1))
            assert evaluate_with_derivative(f, CurvePoint(0))[1] == 0


def test_an_oversized_chart_is_refused_before_its_coordinates_are_expanded(tmp_path):
    """Each D_rho's one point at multiplicity 3000, the epsilon exponents scaled
    to match: the file passes the morphism conditions, and verify reads every
    coordinate's degree 3000 off the exponents, never expanding its N and D."""
    doc = p3_embedding_doc(tmp_path)
    doc["divisors"] = [[[p, 3000 * m] for p, m in d] for d in doc["divisors"]]
    for f in doc["epsilon"]:
        f["factors"] = [[r, 3000 * e] for r, e in f["factors"]]
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with budget(1.0):
        assert check_theorem_conditions(load_embedding(path)).passed
        code, report = run_main(["verify", "--data", str(path), "--out", str(tmp_path / "o")])
    assert (code, report["error"]["kind"]) == (1, "degree-overflow")
    assert report["error"]["message"] == (
        "chart (0, 1, 2): elimination degree estimate 18000000 exceeds cap 512"
    )
    assert not (tmp_path / "o").exists()


def test_a_torus_entry_in_exponent_notation_is_refused_at_once(tmp_path):
    """Fraction("1e9999999") would compute 10^9999999 first."""
    doc = p3_embedding_doc(tmp_path)
    doc["torus"][0] = "1e9999999"
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with budget(1.0):
        code, report = run_main(["verify", "--data", str(path), "--out", str(tmp_path / "o")])
    assert (code, report["error"]["kind"]) == (1, "bad-input")
    assert report["error"]["message"] == "bad rational '1e9999999': no exponent notation"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["embed", "run"])
def test_a_torus_flag_in_exponent_notation_is_a_usage_error_at_once(tmp_path, command):
    with budget(1.0):
        code, report = run_main(
            [command, "--preset", "p3", "--torus", "1e9999999,1,1", "--out", str(tmp_path / "o")]
        )
    assert (code, report["error"]["kind"]) == (2, "usage")
    assert report["error"]["message"] == (
        "torus needs three comma-separated rationals, got '1e9999999,1,1'"
    )
    assert not (tmp_path / "o").exists()


def test_usage_errors_are_reported_before_any_work(tmp_path):
    code, report = run_main(
        ["run", "--preset", "p3", "--seed", "-1", "--out", str(tmp_path / "o")]
    )
    assert code == 2 and report["error"]["kind"] == "usage"
    code, report = run_main(
        ["run", "--preset", "p3", "--torus", "1,0,1", "--out", str(tmp_path / "o")]
    )
    assert code == 2 and report["error"]["kind"] == "usage"
    code, report = run_main(
        ["run", "--preset", "p3", "--torus", "1,1", "--out", str(tmp_path / "o")]
    )
    assert code == 2 and report["error"]["kind"] == "usage"
    assert not (tmp_path / "o").exists()


def test_demo_rejects_a_negative_seed_as_a_usage_error(tmp_path):
    code, report = run_main(["demo", "p3", "--seed", "-1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert report["command"] == "demo"
    assert report["error"]["kind"] == "usage"
    assert not (tmp_path / "o").exists()


def test_run_rejects_zero_retries_as_a_usage_error(tmp_path):
    code, report = run_main(
        ["run", "--preset", "p3", "--max-retries", "0", "--out", str(tmp_path / "o")],
    )
    assert code == 2
    assert report["error"]["kind"] == "usage"
    assert "max-retries" in report["error"]["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--max-retries", "0"], "max-retries must be at least 1"),
    (["--seed", "-1"], "seed must fit in 64 unsigned bits"),
    (["--torus", "1,0,1"], "torus entries must be nonzero"),
    (["--seed", "5x"], "seed must be an integer, got '5x'"),
    (["--max-retries", "2.5"], "argument --max-retries: invalid int value: '2.5'"),
    (["--xi-method", "bogus"], "argument --xi-method: invalid choice: "),
    (["--torus", "a,1,1"], "torus needs three comma-separated rationals, got 'a,1,1'"),
], ids=["zero-retries", "negative-seed", "zero-torus", "str-seed", "float-retries",
        "unknown-xi-method", "str-torus"])
def test_run_pipeline_makes_the_range_checks_of_run(tmp_path, flags, message):
    """``run`` refuses each flag value before any work: exit 2, kind usage, the
    message (its start, where argparse words it), no config and no output."""
    code, report = run_main(["run", "--preset", "p3", *flags, "--out", str(tmp_path / "o")])
    assert (code, report["error"]["kind"]) == (2, "usage")
    assert report["error"]["message"].startswith(message)
    assert "config" not in report
    assert not (tmp_path / "o").exists()


NONPROJECTIVE = str(FIXTURES / "nonprojective.fan")
FAN_COMMANDS = {  # command -> argv before its fan source
    "fan validate": ["fan", "validate"],
    "fan subdivide": ["fan", "subdivide", "--cone", "0,1,2"],
    "ample find": ["ample", "find"],
    "xi": ["xi"],
    "embed": ["embed", "--out", "OUT"],
    "run": ["run", "--out", "OUT"],
}
CONTRACT = (
    [(argv + ["--preset", "p2"], "unknown-preset", 2) for argv in FAN_COMMANDS.values()]
    + [(argv + ["--fan", "MALFORMED"], "bad-fan", 3) for argv in FAN_COMMANDS.values()]
    + [(argv + ["--fan", "MISSING"], "bad-fan", 3) for argv in FAN_COMMANDS.values()]
    + [
        (["demo", "p2", "--out", "OUT"], "unknown-preset", 2),
        (["fan", "preset", "p2"], "unknown-preset", 2),
        (["fan", "preset", "p3", "--out", "DIR"], "bad-input", 1),
        (["verify", "--data", "MISSING", "--out", "OUT"], "bad-input", 1),
        (["verify", "--data", "NOT_JSON", "--out", "OUT"], "bad-input", 1),
        (["verify", "--data", "SHORT_XI", "--out", "OUT"], "bad-input", 1),
        (["verify", "--data", "ZERO_TORUS", "--out", "OUT"], "bad-input", 1),
        (["verify", "--data", "OPEN_WALLS", "--out", "OUT"], "validation", 3),
        (["verify", "--data", "EXTRA_CONE", "--out", "OUT"], "validation", 3),
        (["fan", "subdivide", "--preset", "p3", "--cone", "0,1,x"], "usage", 2),
        (["fan", "subdivide", "--preset", "p3", "--cone", "0,1,2,3"], "usage", 2),
    ]
    + [
        ([command, "--preset", "p3", flag, value, "--out", "OUT"], "usage", 2)
        for command in ("embed", "run")
        for flag, value in (
            ("--seed", "-1"), ("--seed", "x"), ("--seed", str(2**64)),
            ("--torus", "a,b,c"), ("--torus", "1/0,1,1"), ("--torus", "1,0,1"),
            ("--torus", "1e3,1,1"),
        )
    ]
    + [(["demo", "p3", "--seed", seed, "--out", "OUT"], "usage", 2) for seed in ("-1", "x")]
    + [  # a divisor file that is missing, not an object, not ints, or one entry short
        (argv + ["--preset", "p3", "--ample", divisor], "bad-input", 1)
        for divisor in ("MISSING", "DIVISOR_LIST", "DIVISOR_FLOATS", "DIVISOR_SHORT")
        for argv in (["xi"], FAN_COMMANDS["embed"], FAN_COMMANDS["run"])
    ]
    + [
        (FAN_COMMANDS[command] + ["--fan", NONPROJECTIVE], "not-projective", 4)
        for command in ("ample find", "xi", "embed", "run")
    ]
    + [
        (argv + ["--fan", fan], "validation", 3)
        for fan in ("NONSMOOTH", "ORPHAN")
        for argv in (
            FAN_COMMANDS["ample find"], FAN_COMMANDS["xi"], ["xi", "--xi-method", "kernel"],
            FAN_COMMANDS["embed"], FAN_COMMANDS["run"],
        )
    ]
    + [  # flags argparse rejects
        (["run", "--preset", "p3", "--max-retries", "x", "--out", "OUT"], "usage", 2),
        (["xi", "--preset", "p3", "--xi-method", "bogus"], "usage", 2),
        (["embed", "--preset", "p3", "--xi-method", "bogus", "--out", "OUT"], "usage", 2),
        (["frobnicate", "--out", "OUT"], "usage", 2),
        (["run", "--preset", "p3", "--bogus", "--out", "OUT"], "usage", 2),
        (["fan", "validate", "--preset", "p3", "extra"], "usage", 2),
    ]
    + [(argv, "usage", 2) for argv in FAN_COMMANDS.values()]  # no --fan or --preset
    + [  # a divisor file that kernel degrees would not use, refused before any work
        (argv + ["--preset", "p3", "--xi-method", "kernel", "--ample", "MISSING"], "usage", 2)
        for argv in (["xi"], FAN_COMMANDS["embed"])
    ]
    # smooth, every wall closed, but two sheets: fan validate's verdict is a
    # report, not an error
    + [(["fan", "validate", "--fan", "DOUBLE_COVER"], "invalid", 3)]
    + [(FAN_COMMANDS["run"] + ["--fan", "DOUBLE_COVER"], "validation", 3)]
    # kernel degrees past the Fourier-Motzkin row cap, lowered to 1000 here
    + [(["xi", "--fan", "LADDER12", "--xi-method", "kernel"], "elimination-overflow", 1)]
)
COMMANDS = ("fan", "ample", "xi", "embed", "verify", "run", "demo")
REPORTED = {  # by validate
    "NONSMOOTH": ["non_primitive_ray", 0], "ORPHAN": ["unused_ray", 4],
    "OPEN_WALLS": ["open_wall", [1, 2], 1], "EXTRA_CONE": ["bad_cone_intersection", 3, 6],
    "DOUBLE_COVER": ["bad_cone_intersection", 0, 6],
}


@pytest.mark.parametrize("argv, shows", [
    (["embed", "--preset", "p3", "--seed", "5", "--out", "OUT"], ("conditions_pass",)),
    (["run", "--preset", "p3", "--seed", "5", "--out", "OUT"], ("certificate",)),
    (["verify", "--data", "SYMMETRIC", "--out", "OUT"], ("charts",)),
    (["fan", "preset", "bl-p3-point"], ("fan",)),
    (["run", "--fan", NONPROJECTIVE, "--out", "OUT"], ("error", "farkas_certificate")),
    (["run", "--fan", "NONSMOOTH", "--out", "OUT"], ("error", "issues")),
], ids=["embed", "run", "refuting verify", "fan preset", "not-projective", "validation"])
def test_the_report_is_json_text_sorted_with_an_indent_of_two(capsys, tmp_path, argv, shows):
    """The replay digests cover the files a command writes, not its stdout."""
    (tmp_path / "SYMMETRIC").write_text(dumps_embedding(symmetric_data()), encoding="utf-8")
    paths = {"OUT": str(tmp_path / "OUT"), "SYMMETRIC": str(tmp_path / "SYMMETRIC"),
             "NONSMOOTH": write_bad_fan(tmp_path)}
    main([paths.get(a, a) for a in argv])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    for key in shows:  # the report holds the part this command adds
        report = report[key]
    assert report


def _command_name(argv):
    if argv[0] not in COMMANDS:
        return None
    return " ".join(argv[:2]) if argv[0] in ("fan", "ample") else argv[0]


@pytest.mark.parametrize(
    "argv, kind, code", CONTRACT,
    ids=[" ".join(a).replace(NONPROJECTIVE, "NONPROJECTIVE") for a, _, _ in CONTRACT],
)
def test_every_command_obeys_the_exit_code_contract(monkeypatch, tmp_path, argv, kind, code):
    (tmp_path / "DIR").mkdir()
    if "LADDER12" in argv:
        save_fan(ladder_fan(12), tmp_path / "LADDER12")
        monkeypatch.setattr(feasibility, "MAX_FM_ROWS", 1000)
    for name, text in (
        ("MALFORMED", '{"name": "x", "rays": 5, "cones": []}'), ("NOT_JSON", "not json"),
        ("DIVISOR_LIST", "[0, 0, 0, 1]"), ("DIVISOR_FLOATS", '{"coeffs": [0, 0, 0, 1.5]}'),
        ("DIVISOR_SHORT", '{"coeffs": [0, 0, 1]}'),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
    if {"SHORT_XI", "ZERO_TORUS"} & set(argv):
        # an embedded p3 curve whose xi keeps 2 of its 4 entries, or whose
        # torus element has a zero entry
        xi = XiVector((1, 1, 1, 1), "intersection")
        doc = embedding_to_dict(build_embedding_data(preset("p3"), None, xi, 0))
        for name, key, value in (
            ("SHORT_XI", "xi", dict(doc["xi"], values=doc["xi"]["values"][:2])),
            ("ZERO_TORUS", "torus", ["0", "1", "1"]),
        ):
            (tmp_path / name).write_text(json.dumps(dict(doc, **{key: value})), encoding="utf-8")
    # embedded curves on cone sets that are not fans: p3 less the cone (1, 2, 3)
    # leaves open walls, bl-p3-point plus the subdivided cone (0, 1, 2) overlaps
    for name, fan_name, edit in (
        ("OPEN_WALLS", "p3", lambda cones: cones.remove([1, 2, 3])),
        ("EXTRA_CONE", "bl-p3-point", lambda cones: cones.append([0, 1, 2])),
    ):
        if name in argv:
            fan = preset(fan_name)
            ample = find_ample(fan)
            doc = embedding_to_dict(build_embedding_data(fan, ample, xi_vector(fan, ample), 0))
            edit(doc["fan"]["cones"])
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    names = (
        "OUT", "DIR", "MALFORMED", "MISSING", "SHORT_XI", "ZERO_TORUS", "OPEN_WALLS",
        "EXTRA_CONE", "LADDER12", "NOT_JSON", "DIVISOR_LIST", "DIVISOR_FLOATS", "DIVISOR_SHORT",
    )
    paths = {name: str(tmp_path / name) for name in names}
    paths["NONSMOOTH"] = write_bad_fan(tmp_path)
    paths["ORPHAN"] = write_orphan_fan(tmp_path)
    paths["DOUBLE_COVER"] = str(FIXTURES / "double_cover.fan")
    reported = [REPORTED[a] for a in argv if a in REPORTED]
    argv = [paths.get(a, a) for a in argv]
    got, report = run_main(argv)
    assert report["command"] == _command_name(argv)
    if kind == "invalid":
        assert (got, report["status"]) == (code, "invalid")
        assert reported and reported[0] in report["issues"]
        return
    assert (got, report["error"]["kind"]) == (code, kind), report["error"]
    assert report["status"] == "error" and report["error"]["message"]
    if kind == "not-projective":
        assert len(report["error"]["farkas_certificate"]) > 0
    if kind == "validation":
        assert reported and reported[0] in report["error"]["issues"]
    assert not (tmp_path / "OUT").exists()


def test_run_pipeline_keeps_the_partial_report_of_a_failed_run(tmp_path):
    code, report = run_main(["run", "--fan", NONPROJECTIVE, "--out", str(tmp_path / "o")])
    assert code == 4
    assert report["command"] == "run"
    assert report["config"]["fan"] == NONPROJECTIVE
    assert report["validation"]["counts"] == [7, 15, 10]
    assert report["error"]["kind"] == "not-projective"
    code, report = run_main(["run", "--preset", "p2", "--out", str(tmp_path / "o")])
    assert (code, report["error"]["kind"]) == (2, "unknown-preset")
    assert "validation" not in report
    code, report = run_main(["run", "--preset", "", "--out", str(tmp_path / "o")])
    assert (code, report["error"]) == (3, {"kind": "bad-fan",
                                           "message": "either --fan or --preset is required"})


def test_an_ample_file_from_ample_find_stands_in_for_auto(tmp_path):
    """run and xi read the divisor ample find writes and give what --ample auto gives."""
    divisor = str(tmp_path / "D")
    assert run_main(["ample", "find", "--preset", "p3", "--out", divisor])[0] == 0
    files, xis = [], []
    for source in ("auto", divisor):
        out = tmp_path / ("auto" if source == "auto" else "file")
        code, _ = run_main(["run", "--preset", "p3", "--ample", source, "--out", str(out)])
        assert code == 0
        files.append([(out / name).read_bytes() for name in ("embedding.json", "certificate.json")])
        code, report = run_main(["xi", "--preset", "p3", "--ample", source])
        assert code == 0
        xis.append(report["xi"])
    assert files[0] == files[1]
    assert xis[0] == xis[1] == {"values": [1, 1, 1, 1], "method": "intersection"}


def test_an_ample_file_with_a_json_true_gets_the_cli_message(tmp_path):
    """true is no count: the divisor reader refuses it with its own message."""
    divisor = tmp_path / "D"
    divisor.write_text('{"coeffs": [true, 0, 0, 0]}', encoding="utf-8")
    for argv in (["xi"], ["embed", "--out", str(tmp_path / "e")],
                 ["run", "--out", str(tmp_path / "r")]):
        code, report = run_main(argv + ["--preset", "p3", "--ample", str(divisor)])
        assert (code, report["error"]) == (
            1, {"kind": "bad-input", "message": "coeffs must be an int array"})


def test_no_row_of_the_errors_table_is_shadowed_by_an_earlier_one():
    for i, (types, _, _) in enumerate(ERRORS):
        for later, kind, _ in ERRORS[i + 1:]:
            later = later if isinstance(later, tuple) else (later,)
            assert not any(issubclass(t, types) for t in later), kind


def test_help_still_exits_zero_with_the_usage_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: toricurve")


def test_the_cli_runs_as_a_module_without_a_runpy_warning():
    """``python -m toricurve.cli``: importing the package must not import
    the CLI first, which runpy reports as a RuntimeWarning."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "toricurve.cli", "fan", "preset", "p3"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=root, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "ok"


# the watched modules loaded by importing the CLI, then after one command
WHAT_LOADS = textwrap.dedent("""
    import contextlib, io, json, sys
    from toricurve import cli
    watched = ("dataclasses", "toricurve.verify")
    before = [m for m in watched if m in sys.modules]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([sys.argv[1], "--preset", "p3", "--out", sys.argv[2]])
    print(json.dumps({"before": before, "code": code, "after": [m for m in watched if m in sys.modules]}))
""")


@pytest.mark.parametrize("command, after", [("embed", []), ("run", ["toricurve.verify"])])
def test_a_process_loads_only_the_code_its_command_runs(tmp_path, command, after):
    report = run_fresh(WHAT_LOADS, command, tmp_path)
    assert report == {"before": [], "code": 0, "after": after}
