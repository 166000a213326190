"""Runs one op: ``cli.main`` in-process under a per-op budget, then its checks.

Before each op the garbage collector runs, so that every op starts without
the previous op's cyclic garbage, as a fresh CLI process does.  The
host-speed pass (``hostspeed.py``) is timed right before and right after the
op, outside its budget and its spans.

The budget is a ``SIGALRM`` timer whose handler raises ``OverBudget``, a
``BaseException``, so ``cli.main``'s last-resort ``except Exception`` cannot
turn it into exit 1.  The timer is cleared in ``finally`` on every path.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from toricurve import cli

import hostspeed
import tracing
from checks import Verdict, check_op
from workloads import OUT, Op, Workload


class OverBudget(BaseException):
    """The op ran past its budget; ``stage`` is where it was interrupted."""

    def __init__(self, stage: str | None):
        super().__init__(stage)
        self.stage = stage


@dataclass
class OpResult:
    op: Op
    index: int  # op id within the process; spans carry it
    seconds: float  # wall time of the cli.main call
    loops_s: float  # the two host-speed passes beside it
    code: int | None  # None when the budget stopped the op
    report: dict | None
    stage: str | None
    verdict: Verdict

    @property
    def scaled_s(self) -> float:
        """The op's time at the reference host speed."""
        return hostspeed.scaled(self.seconds, self.loops_s)


def _frame_stage(frame) -> str | None:
    """The innermost public toricurve function on the interrupted stack."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        name = frame.f_code.co_name
        if module.startswith("toricurve.") and not name.startswith("_"):
            return f"{module[len('toricurve.'):]}.{name}"
        frame = frame.f_back
    return None


class Runner:
    """Executes ops of one workload in ``work``; ``recorder`` is set while traced."""

    def __init__(self, workload: Workload, budget_s: float, pinned: dict, work: Path):
        self.workload = workload
        self.budget_s = budget_s
        self.pinned = pinned
        self.work = work
        self.recorder: tracing.Recorder | None = None
        self.count = 0
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        rec = self.recorder
        stage = rec.innermost() if rec is not None else _frame_stage(frame)
        raise OverBudget(stage)

    def call(self, argv: list[str]) -> tuple[int | None, str, str | None]:
        """``cli.main(argv)`` under the budget: (exit code, stdout, stage)."""
        buf = io.StringIO()
        code = stage = None
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.budget_s)
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OverBudget as exc:
            if code is None:  # else the timer fired after the op had returned
                stage = exc.stage or "unknown"
        return code, buf.getvalue(), stage

    def execute(self, op: Op, replay: bool = True) -> OpResult:
        index = self.count
        self.count += 1
        out = self.work / "out" / str(index)
        argv = [a.replace(OUT, str(out)) for a in op.argv]
        rec = self.recorder
        gc.collect()
        loops_s = hostspeed.loop_s()
        if rec is not None:
            rec.op = index
            root = rec.open(tracing.ROOT)
        start = time.perf_counter()
        try:
            code, stdout, stage = self.call(argv)
        finally:
            seconds = time.perf_counter() - start
            if rec is not None:
                rec.close(root)
        loops_s += hostspeed.loop_s()
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        if stage is not None:
            verdict = Verdict(False, reason=f"over budget in {stage}")
        else:
            data = argv[argv.index("--data") + 1] if "--data" in argv else None
            verdict = check_op(op.slot.command, self.workload.expect_exit, code, report,
                               out, data, self.pinned.get(op.key), replay)
        shutil.rmtree(out, ignore_errors=True)
        return OpResult(op, index, seconds, loops_s, code, report, stage, verdict)
