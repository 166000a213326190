"""In-process A/B of two ``src/toricurve`` trees on one pipebench workload.

Tree A is the ``src`` named by ``--a`` (the parent), tree B this checkout's
``src``.  Both are copied under a temp dir as two packages, ``ab_a`` and
``ab_b`` (every import inside the package is relative, so a copy works under
any name), and loaded into this one process.  A rep runs every pool op of
the workload, the ``POOL`` rounds of ``pipebench/workloads.py`` at seed 1
without its hang ops, through both trees' ``cli.main``.  Which tree goes
first is drawn per op.  Each of the five reps prints the summed time of both
arms and their ratio, B over A, and the run ends with the median ratio.
With ``--aa`` both packages are copies of tree A: an A/A control, whose
ratios show what the harness itself cannot tell apart.

Each rep starts with every ``lru_cache`` of both packages cleared and one
garbage collection, so no rep answers from the one before.  Exit codes and
output files of the two arms are compared op by op, and every difference is
counted in the last line.

pipebench is read, never changed: its generator writes the op inputs with
the ``toricurve`` of the checkout this script sits in, and every input and
output file goes under the temp dir, which is removed at the end.

    python3 tools/inprocess_ab.py --a ../parent/src --workload refute
    python3 tools/inprocess_ab.py --a ../parent/src --workload refute --aa
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, REPS = 1, 5


def _load(src: Path, name: str, home: Path):
    """`src`/toricurve copied to `home`/`name`, imported as `name`: its cli.main."""
    shutil.copytree(src / "toricurve", home / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli").main


def _clear_caches(package: str) -> None:
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def _call(main, op, out: Path):
    """(seconds, exit code, output files) of one op through one tree's cli.main."""
    argv = [out.as_posix() if a == "{out}" else a for a in op.argv]
    with contextlib.redirect_stdout(io.StringIO()) as text:
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    files = _files(out)
    shutil.rmtree(out, ignore_errors=True)
    return seconds, (code, text.getvalue(), files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="src/ of tree A (the parent)")
    parser.add_argument("--workload", required=True, choices=("certify", "embed", "refute"))
    parser.add_argument("--aa", action="store_true", help="load tree A as both packages")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "pipebench")]
    from workloads import POOL, WORKLOADS, rounds

    with tempfile.TemporaryDirectory(prefix="inprocess-ab-") as tmp:
        home = Path(tmp)
        sys.path.insert(0, str(home / "packages"))
        mains = (_load(args.a, "ab_a", home / "packages"),
                 _load(args.a if args.aa else ROOT / "src", "ab_b", home / "packages"))
        ops = [op for ops in rounds(WORKLOADS[args.workload], SEED, POOL, home / "inputs")
               for op in ops]
        rng = random.Random(f"inprocess-ab:{SEED}")
        ratios, differ = [], 0
        for rep in range(REPS):
            for package in ("ab_a", "ab_b"):
                _clear_caches(package)
            gc.collect()
            totals = [0.0, 0.0]
            for op in ops:
                results = [None, None]
                for arm in rng.sample((0, 1), 2):
                    seconds, results[arm] = _call(mains[arm], op, home / "out")
                    totals[arm] += seconds
                differ += results[0] != results[1]
            ratios.append(totals[1] / totals[0])
            print(f"rep {rep + 1}: A {totals[0]:.3f} s, B {totals[1]:.3f} s, "
                  f"B/A {ratios[-1]:.3f}", flush=True)
    summary = {"workload": args.workload, "mode": "A/A" if args.aa else "A/B",
               "ops_per_rep": len(ops), "ratios": [round(r, 4) for r in ratios],
               "median_ratio": round(statistics.median(ratios), 4), "ops_that_differ": differ}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
