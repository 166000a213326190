"""Per-chart chart_injective and chart_immersive seconds on three ladder fans.

The ladder is p3 star-subdivided at cones drawn by ``random.Random(7)``, as
``tests/conftest.py::ladder_fan`` builds it, sampled at seed 0.  Three rungs
are timed: 6 rays with intersection xi, and 9 and 10 rays with kernel xi.
For 10 rays ``verify.DEFAULT_DEGREE_CAP`` is patched to 1024, since chart
(0, 3, 6) estimates 612 and the default cap, 512, refuses it.

Each rung runs ``verify.certify`` ``REPS`` times, in this process, with its
two chart checks wrapped by a timer, so every chart shares the one memo
certify hands them.  Per chart the tool prints the cone, the median and the
min-max seconds of each check over the reps and their verdicts; per rung,
the medians of the sums and of certify's own wall time, with their min-max.
One run of a rung gives no spread to read a tree-to-tree gap against; the
reps do.  The first chart's ``chart_injective`` seconds include the torus
pass, which the first chart that asks builds for every chart of the call.

``--src`` names the ``src`` directory to import ``toricurve`` from (default:
this checkout's), so two trees can be timed with one script:

    python3 tools/ladder_times.py
    python3 tools/ladder_times.py --src ../parent/src
"""
from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNGS = ((6, "intersection", None), (9, "kernel", None), (10, "kernel", 1024))
CHECKS = ("chart_injective", "chart_immersive")
REPS = 3


def _spread(seconds: list) -> str:
    """The median and the min-max of a list of seconds."""
    return f"{statistics.median(seconds):.4f} {min(seconds):.4f}-{max(seconds):.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory to import toricurve from")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from toricurve import verify
    from toricurve.embed import build_embedding_data
    from toricurve.fan import preset, star_subdivision
    from toricurve.intersect import find_ample, xi_vector

    timed = {}
    for name in CHECKS:
        def wrapper(chart, memo, real=getattr(verify, name), name=name):
            start = time.perf_counter()
            result = real(chart, memo)
            seconds, oks = timed.setdefault(chart.cone, {}).setdefault(name, ([], set()))
            seconds.append(time.perf_counter() - start)
            oks.add(result.ok)
            return result
        setattr(verify, name, wrapper)

    cap = verify.DEFAULT_DEGREE_CAP
    print(f"toricurve from {verify.__file__}; {REPS} reps per rung, "
          "seconds as the median and the min-max")
    for rays, method, rung_cap in RUNGS:
        fan, rng = preset("p3"), random.Random(7)
        while fan.n_rays < rays:
            fan = star_subdivision(fan, rng.choice(fan.max_cones))
        ample = find_ample(fan)
        xi = xi_vector(fan, ample if method == "intersection" else None, method=method)
        data = build_embedding_data(fan, ample, xi, 0)
        verify.DEFAULT_DEGREE_CAP = rung_cap or cap
        timed.clear()
        totals, embedded = [], set()
        for _ in range(REPS):
            start = time.perf_counter()
            embedded.add(verify.certify(data).embedded)
            totals.append(time.perf_counter() - start)
        print(f"\n{rays} rays, {method} xi {xi.values}, cap {verify.DEFAULT_DEGREE_CAP}: "
              f"certify {_spread(totals)} s, embedded {'/'.join(map(str, sorted(embedded)))}")
        print(f"{'cone':<14}{'injective s':>21}{'immersive s':>22}  verdicts")
        for cone, checks in timed.items():
            (inj, inj_ok), (imm, imm_ok) = (checks[name] for name in CHECKS)
            verdicts = " ".join("/".join(map(str, sorted(oks))) for oks in (inj_ok, imm_ok))
            print(f"{str(cone):<14}{_spread(inj):>21}{_spread(imm):>22}  {verdicts}")
        sums = [[sum(rep) for rep in zip(*(checks[name][0] for checks in timed.values()))]
                for name in CHECKS]
        print(f"{'sum':<14}{_spread(sums[0]):>21}{_spread(sums[1]):>22}")
    verify.DEFAULT_DEGREE_CAP = cap
    return 0


if __name__ == "__main__":
    sys.exit(main())
