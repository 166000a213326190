"""Self-tests of the benchmark harness.

    python3 -m pytest -q pipebench
"""
import json
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from checks import recheck_witnesses  # noqa: E402
from run import tail  # noqa: E402
from runner import Runner  # noqa: E402
from toricurve.embed import build_embedding_data, dumps_embedding  # noqa: E402
from toricurve.fan import preset  # noqa: E402
from toricurve.intersect import find_ample, xi_vector  # noqa: E402
from toricurve.verify import certificate_to_dict, certify  # noqa: E402
from workloads import EMBED, OUT, REFUTE, WORKLOADS, Op, hang_ops, make_op, refute_data  # noqa: E402


def _pins(name: str) -> dict:
    return json.loads((HERE / "digests" / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_one_op_per_workload_passes_checks_and_replays(name, tmp_path):
    workload = WORKLOADS[name]
    op = make_op(workload.slots[0], 0, tmp_path)
    result = Runner(workload, workload.budget_s, _pins(name), tmp_path).execute(op)
    assert result.code == workload.expect_exit
    assert result.verdict.ok, result.verdict.reason
    assert not result.verdict.drift


def test_smoke_run_prints_the_result_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "refute", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(REFUTE.slots)
    assert result["metrics"]["verify.chart_injective_s"]["value"] > 0


def test_budget_exception_escapes_cli_main(tmp_path):
    workload = WORKLOADS["certify"]
    runner = Runner(workload, 0.05, {}, tmp_path)
    op = make_op(workload.slots[3], 0, tmp_path)  # bl-p3-point takes over a second
    result = runner.execute(op)
    assert result.code is None  # cli.main did not turn it into exit 1
    assert result.stage and result.stage.split(".")[0] in {"cli", "intersect", "embed", "verify", "fan", "curve", "feasibility", "intlinalg"}
    assert not result.verdict.ok and not result.verdict.wrong
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    rec = tracing.Recorder()
    saved = tracing.install(rec)
    runner.recorder = rec
    try:
        traced = runner.execute(make_op(workload.slots[3], 1, tmp_path))
    finally:
        runner.recorder = None
        tracing.uninstall(saved)
    assert traced.code is None and traced.stage in {name for _, name, *_ in rec.spans}
    assert rec.stack == []


def test_sampler_hang_ops_end_in_the_budget(tmp_path):
    runner = Runner(EMBED, EMBED.budget_s, _pins("embed"), tmp_path)
    results = [runner.execute(op) for op in hang_ops(EMBED, 7, tmp_path)]
    assert len(results) == 2
    for result in results:
        assert result.code is None and result.stage == "curve.sample_divisor"
        assert not result.verdict.ok and not result.verdict.wrong


def test_tampered_digest_counts_as_drift(tmp_path):
    workload = WORKLOADS["certify"]
    pins = _pins("certify")
    op = make_op(workload.slots[0], 0, tmp_path)
    tampered = dict(pins)
    tampered[op.key] = {name: "0" * 64 for name in pins[op.key]}
    result = Runner(workload, workload.budget_s, tampered, tmp_path).execute(op)
    assert result.code == 0
    assert result.verdict.drift and result.verdict.wrong and not result.verdict.ok


def test_wrong_verdict_counts_as_failed_op(tmp_path):
    fan = preset("p3")
    ample = find_ample(fan)
    path = tmp_path / "embeds.json"
    path.write_text(dumps_embedding(build_embedding_data(fan, ample, xi_vector(fan, ample), 0)))
    op = Op(REFUTE.slots[0], 0, ("verify", "--data", str(path), "--out", OUT))
    result = Runner(REFUTE, REFUTE.budget_s, {}, tmp_path).execute(op)
    assert result.code == 0  # a real embedding, certified
    assert not result.verdict.ok and result.verdict.wrong


def test_forged_witness_fails_the_recheck():
    data = refute_data(REFUTE.slots[0], 0)
    cert = certificate_to_dict(certify(data))
    assert recheck_witnesses(data, cert) == ""
    pair = next(w for c in cert["charts"] for w in c["witnesses"] if w["kind"] == "collision-pair")
    pair["u"] = str(Fraction(pair["u"]) + 1)
    assert recheck_witnesses(data, cert).startswith("witness does not hold")


def test_tail_leaves_ten_ops_beyond():
    assert tail([float(i) for i in range(30)]) == (19.0, 66, 10)
    assert tail([1.0, 2.0]) == (2.0, 100, 0)
