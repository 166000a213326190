"""Pipeline benchmark: one closed-loop client drives ``toricurve.cli.main``.

    python3 pipebench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Runs from the root of a checkout.  Inputs are generated from ``--seed`` at
set-up (untimed), then whole rounds of ops run back to back, in one process
and one thread.  A run does ``round(--seconds / round_s)`` rounds, ``round_s``
being a constant of the workload near its round time, so every run at one
``--seconds`` measures the same number of ops of the same kinds and the tail
percentile sits at the same rank; a faster program finishes sooner.  Ops that
hang at this commit run once each after the rounds.  Every op's output is
checked.  Timings are scaled to a reference host speed (``hostspeed.py``).
The last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  In a
traced run even rounds are traced and odd rounds are not, so the two halves
give the tracing overhead.  See README.md for every metric.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench-work"
DIGESTS = HERE / "digests"
SETUP_RUNS = 5  # a probe costs about a second; the median of five rides out host jitter
MIN_BEYOND = 10  # the tail percentile keeps at least this many ops above it
CAP = 3  # no new round starts once a run has taken CAP times --seconds


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(warmup_argv: list[str], expect_exit: int,
                  work: Path) -> tuple[float, float, bool]:
    """Median time of fresh interpreters that import the CLI and run one op,
    scaled and as wall time, less the probe's own host-speed passes."""
    scaled, wall, ok = [], [], True
    for i in range(SETUP_RUNS):
        argv = [a.replace("{out}", str(work / f"probe{i}")) for a in warmup_argv]
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(expect_exit), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            ok = False
            print(f"setup probe failed: {done.stderr[-500:]}", file=sys.stderr)
            wall.append(seconds)  # no host-speed reading: count it unscaled
            scaled.append(seconds)
            continue
        loops_s = float(done.stdout.split()[-1])
        wall.append(seconds - loops_s)
        scaled.append(hostspeed.scaled(seconds - loops_s, loops_s))
    return statistics.median(scaled), statistics.median(wall), ok


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, ops beyond) at the highest whole percentile that
    still leaves MIN_BEYOND ops above it (nearest rank); the maximum when
    there are too few ops."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= MIN_BEYOND:
        return lat[-1], 100, 0
    pct = 100 * (n - MIN_BEYOND) // n
    rank = max(1, math.ceil(pct * n / 100))
    return lat[rank - 1], pct, n - rank


def end_to_end(timed, hung, setup: tuple[float, float]) -> dict:
    """The seven end-to-end metrics.  Times are scaled to the reference host
    speed; the wall time is in the note.  ``timed`` are the ops of the
    rounds, ``hung`` the ops of the workload's ``hangs``, which count only in
    ``fail_ratio``."""
    latencies = [r.scaled_s for r in timed]
    wall = [r.seconds for r in timed]
    done = sum(r.verdict.ok for r in timed)
    value, pct, beyond = tail(latencies)
    attempted = len(timed) + len(hung)
    failed = attempted - done - sum(r.verdict.ok for r in hung)
    return {
        "setup_s": (setup[0], "s", f"median of {SETUP_RUNS} fresh interpreters; wall {setup[1]:.4f} s"),
        "latency_p50_s": (statistics.median(latencies), "s",
                          f"n={len(latencies)}; wall {statistics.median(wall):.4f} s"),
        "latency_tail_s": (value, "s", f"p{pct}, {beyond} ops beyond, n={len(latencies)}; "
                                       f"wall {tail(wall)[0]:.4f} s"),
        "throughput_ops_s": (done / sum(latencies), "1/s",
                             f"{done} correct ops in {sum(latencies):.2f} s of op time; "
                             f"wall {done / sum(wall):.4f} 1/s"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed}/{attempted}"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "peak resident set of this process"),
        "replay_drift": (sum(r.verdict.drift for r in timed + hung), "count",
                         "completed ops whose bytes differ from the pinned digests"),
    }


REPORTED = ("setup_s", "latency_p50_s", "latency_tail_s", "throughput_ops_s", "rss_peak_mb")


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<18} {value:>12.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "toricurve" / "__init__.py").is_file():
        print("pipebench: needs src/toricurve beside pipebench/; "
              "run it from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from runner import Runner
    from workloads import WORKLOADS, hang_ops, rounds, warmup_op

    if args.workload not in WORKLOADS:
        print(f"pipebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pinned = json.loads((DIGESTS / f"{workload.name}.json").read_text(encoding="utf-8"))
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        min_rounds = 2 if args.trace else 1  # a traced run needs an untraced round too
        planned = max(min_rounds, round(args.seconds / workload.round_s))
        plan = rounds(workload, args.seed, planned, work / "inputs")
        hangs = hang_ops(workload, args.seed, work / "inputs")
        warm = warmup_op(workload, work / "inputs")
        setup = setup_seconds(list(warm.argv), workload.expect_exit, work)
        setup_ok = setup[2]
        runner = Runner(workload, workload.budget_s, pinned, work)
        warm_result = runner.execute(warm, replay=False)
        warm_ok = warm_result.verdict.ok
        # what the imports and the warm-up op left behind is never collected
        # again, so the collection before each op scans only that op's objects
        gc.collect()
        gc.freeze()

        rec = tracing.Recorder()
        results: list[tuple[bool, object]] = []
        round_times: list[tuple[bool, float]] = []
        start = time.perf_counter()
        for r, ops in enumerate(plan):
            if r >= min_rounds and time.perf_counter() - start > CAP * args.seconds:
                break  # a much slower program: stop rather than run past the caller's limit
            traced = bool(args.trace) and r % 2 == 0
            saved = tracing.install(rec) if traced else []
            runner.recorder = rec if traced else None
            begun = time.perf_counter()
            try:
                for op in ops:
                    results.append((traced, runner.execute(op)))
            finally:
                runner.recorder = None
                tracing.uninstall(saved)
            round_times.append((traced, time.perf_counter() - begun))
        hung = [runner.execute(op) for op in hangs]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [res for traced, res in results if not traced]
    all_ops = [res for _, res in results] + hung
    wrong = [res for res in all_ops if res.verdict.wrong]
    correct = setup_ok and warm_ok and not wrong

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(round_times)} of {len(plan)} rounds of {len(workload.slots)} ops "
          f"in {sum(t for _, t in round_times):.1f} s, {len(hung)} hang ops after them, "
          f"budget {runner.budget_s:g} s/op, trace {args.trace}")
    loops = [r.loops_s for r in all_ops]
    print(f"host speed: two passes took {1000 * statistics.median(loops):.2f} ms per op "
          f"(median; quartiles {', '.join(f'{1000 * q:.2f}' for q in statistics.quantiles(loops, n=4)[::2])}), "
          f"{1000 * hostspeed.REFERENCE_S:.2f} ms at the reference speed")
    for reason, n in Counter(r.verdict.reason for r in all_ops if not r.verdict.ok).items():
        print(f"  failed: {n} x {reason}")
    for res in wrong[:5]:
        print(f"  wrong output: {res.op.key}: {res.verdict.reason}")

    if not args.trace:
        e2e = end_to_end(plain, hung, setup[:2])
        _print_metrics("end-to-end (untraced):", e2e)
        metrics = {name: e2e[name][:2] for name in REPORTED}
    else:
        traced_ops = [res for traced, res in results if traced]
        # ops the budget stopped spend exactly the budget in whatever stage
        # they hang in; they show in fail_ratio and would only dilute the layers
        layers, rows = tracing.layer_metrics(
            rec, [r.index for r in traced_ops if r.stage is None])
        p50_traced = statistics.median(r.scaled_s for r in traced_ops)
        p50_plain = statistics.median(r.scaled_s for r in plain)
        run_reports = [r.report for r in all_ops if r.op.slot.command == "run" and r.report]
        successes = sum(rep.get("status") == "ok" for rep in run_reports)
        attempts = sum(len(rep.get("attempts", ())) for rep in run_reports)
        layers["cli.attempts_per_success"] = (attempts / successes if successes else 0.0, "ratio")
        layers["trace.overhead_s"] = (p50_traced - p50_plain, "s")
        print(f"per layer ({sum(r.stage is None for r in traced_ops)} traced ops within budget; "
              f"median per op over the ops that enter the layer, share of all op time):")
        print(f"  {'layer':<34} {'ops':>4} {'median_s':>10} {'share':>7}")
        for name, n, median, share in rows:
            print(f"  {name:<34} {n:>4} {median:>10.4f} {share:>7.1%}")
        for name in sorted(layers):
            if not name.endswith(("_s", "_share")) or name.startswith(("trace.", "verify.chart_injective_max")):
                print(f"  {name:<34} {layers[name][0]:.4g} {layers[name][1]}")
        print(f"  tracing overhead: traced p50 {p50_traced:.4f} s - untraced p50 "
              f"{p50_plain:.4f} s = {p50_traced - p50_plain:+.4f} s")
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.jsonl"
        rec.write(trace_path)
        print(f"  spans: {trace_path.relative_to(ROOT)}")
        metrics = layers

    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": sum(not r.verdict.ok for r in all_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
