"""Host speed, read from a fixed piece of interpreter work timed beside every op.

On a shared VM the speed of the host drifts by 10-50% over seconds to
minutes, whatever runs on it, and that drift moves a run's medians more than
anything the program does.  ``loop_s`` times a fixed piece of work that does
not touch the program: a tight integer loop, then a mix of the interpreter's
own machinery (Fraction arithmetic, a json round trip, a keyed sort, regex
matching, tuple-keyed dict inserts) with the garbage collector paused, so the
time never includes a collection.  The loop alone follows the drift the
program feels less well than the two together: over 30 rounds of ``certify``
ops whose wall times drifted with a standard deviation of 19% per round, the
scaled times kept 5.7% with the loop alone and 3.9% with both.

Timed right before and right after an op, ``loop_s`` reads the host's speed
at that moment, and ``scaled`` turns the op's wall time into seconds at the
reference speed: ``wall * REFERENCE_S / loop time``.  A program change moves
the scaled time by the same factor as the wall time; most of the host's drift
cancels.

REFERENCE_S is the time of two passes on the host this benchmark was written
on (a 2-vCPU KVM guest on an Intel Xeon, Sapphire Rapids, Python 3.11.7),
so there scaled and wall times agree on average.
"""
from __future__ import annotations

import gc
import json
import re
import time
from fractions import Fraction

ITERATIONS = 30_000
REFERENCE_S = 0.0130  # two passes, see above

_DOC = {str(k): [k, k * k, str(k), {"a": k / 3}] for k in range(200)}
_PATTERN = re.compile(r"(\d+)-(\w+)")
_TEXT = " ".join(f"{k}-x{k % 13}" for k in range(400))


def loop_s() -> float:
    """Wall time of one pass of the fixed work."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        s = 0
        for i in range(ITERATIONS):
            s += i * i % 7
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        json.loads(json.dumps(_DOC))
        sorted(range(2000), key=lambda x: (x * 7919) % 2003)
        sum(len(m.group(2)) for m in _PATTERN.finditer(_TEXT))
        d = {}
        for k in range(1500):
            d[(k % 37, k)] = str(k)
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


def scaled(wall_s: float, loops_s: float) -> float:
    """``wall_s`` at the reference speed, given the time of two passes beside it."""
    return wall_s * REFERENCE_S / loops_s
