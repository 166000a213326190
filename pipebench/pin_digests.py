"""Pin the sha256 of every pool instance's output files into digests/.

    python3 pipebench/pin_digests.py [WORKLOAD ...]

Runs each instance of the workload's slots once (untimed) with the
workload's budget and records the digests of ops that pass their output
checks.  Ops that fail get no entry, and a workload's ``hangs`` are not
pinned, so if one ever completes it shows as replay drift.  Instances already pinned are kept without a re-run
and entries of slots no longer in the workload are dropped; delete
``digests/WORKLOAD.json`` to pin every instance again, which only a change that
means to alter output bytes should do, and say so.
"""
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from runner import Runner  # noqa: E402
from workloads import POOL, WORKLOADS, make_op  # noqa: E402

if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        work = HERE.parent / ".pipebench-work" / f"pin-{name}"
        runner = Runner(workload, workload.budget_s, {}, work)
        path = HERE / "digests" / f"{name}.json"
        old = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        pins = {}
        work.mkdir(parents=True, exist_ok=True)
        try:
            for slot in workload.slots:
                for instance in range(POOL):
                    key = f"{slot.label}/{instance}"
                    if key in old:
                        pins[key] = old[key]
                        continue
                    res = runner.execute(make_op(slot, instance, work), replay=False)
                    if res.verdict.ok:
                        pins[res.op.key] = res.verdict.digests
                    print(name, res.op.key, f"{res.seconds:.3f}",
                          res.verdict.reason or "ok", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
