"""Per-chart chart_injective and chart_immersive seconds on three ladder fans.

The ladder is p3 star-subdivided at cones drawn by ``random.Random(7)``, as
``tests/conftest.py::ladder_fan`` builds it, sampled at seed 0.  Three rungs
are timed: 6 rays with intersection xi, and 9 and 10 rays with kernel xi.
For 10 rays ``verify.DEFAULT_DEGREE_CAP`` is patched to 1024, since chart
(0, 3, 6) estimates 612 and the default cap, 512, refuses it.

Each rung runs ``verify.certify`` once, in this process, with its two chart
checks wrapped by a timer, so every chart shares the one memo certify hands
them.  Per chart the tool prints the cone, the seconds of each check and
their verdicts; per rung, the sums and certify's own wall time.

``--src`` names the ``src`` directory to import ``toricurve`` from (default:
this checkout's), so two trees can be timed with one script:

    python3 tools/ladder_times.py
    python3 tools/ladder_times.py --src ../parent/src
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNGS = ((6, "intersection", None), (9, "kernel", None), (10, "kernel", 1024))


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
    for name in ("chart_injective", "chart_immersive"):
        def wrapper(chart, memo, real=getattr(verify, name), name=name):
            start = time.perf_counter()
            result = real(chart, memo)
            timed.setdefault(chart.cone, {})[name] = (time.perf_counter() - start, result.ok)
            return result
        setattr(verify, name, wrapper)

    cap = verify.DEFAULT_DEGREE_CAP
    print(f"toricurve from {verify.__file__}")
    for rays, method, rung_cap in RUNGS:
        fan, rng = preset("p3"), random.Random(7)
        while fan.n_rays < rays:
            fan = star_subdivision(fan, rng.choice(fan.max_cones))
        ample = find_ample(fan)
        xi = xi_vector(fan, ample if method == "intersection" else None, method=method)
        data = build_embedding_data(fan, ample, xi, 0)
        verify.DEFAULT_DEGREE_CAP = rung_cap or cap
        timed.clear()
        start = time.perf_counter()
        embedded = verify.certify(data).embedded
        total = time.perf_counter() - start
        print(f"\n{rays} rays, {method} xi {xi.values}, cap {verify.DEFAULT_DEGREE_CAP}: "
              f"certify {total:.3f} s, embedded {embedded}")
        print(f"{'cone':<14}{'injective s':>12}{'immersive s':>13}  verdicts")
        sums = [0.0, 0.0]
        for cone, checks in timed.items():
            (t_inj, ok_inj), (t_imm, ok_imm) = (checks["chart_injective"],
                                                checks["chart_immersive"])
            sums[0] += t_inj
            sums[1] += t_imm
            print(f"{str(cone):<14}{t_inj:>12.4f}{t_imm:>13.4f}  {ok_inj} {ok_imm}")
        print(f"{'sum':<14}{sums[0]:>12.4f}{sums[1]:>13.4f}")
    verify.DEFAULT_DEGREE_CAP = cap
    return 0


if __name__ == "__main__":
    sys.exit(main())
