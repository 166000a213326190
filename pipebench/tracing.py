"""Spans around the program's public functions, recorded from outside.

``install`` replaces each traced function at the module attribute its caller
looks it up by (``toricurve.cli.find_ample``, ``toricurve.verify.chart_injective``
and so on), so the unchanged ``cli.main`` path runs inside the spans.
``uninstall`` puts the originals back; untraced rounds run with none.

A span is (op id, name, start ns, end ns, parent index).  Spans stay in
memory and are written out once, at the end of a run.
"""
from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

from toricurve import cli, curve, embed, fan, intersect, verify

ROOT = "cli"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.maxima: dict[int, dict[str, float]] = defaultdict(dict)
        self.op = -1

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name, perf_counter_ns(), 0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = perf_counter_ns()
        # drops spans a budget alarm left open between their open and try
        del self.stack[self.stack.index(index):]

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][1] if self.stack else None

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.op][name] += value

    def maximum(self, name: str, value: float) -> None:
        ops = self.maxima[self.op]
        ops[name] = max(ops.get(name, value), value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def _xi_name(args, kwargs) -> str:
    return "intersect.xi_vector." + kwargs.get("method", args[2] if len(args) > 2 else "intersection")


def _count_points(rec: Recorder, args, result) -> None:
    rec.count("curve.points_sampled", args[1])  # args[0] is the ProjectiveLine


def _witnesses(rec: Recorder, args, result) -> None:
    rec.count("verify.witnesses", len(result.witnesses))


def _injective(rec: Recorder, args, result) -> None:
    rec.count("verify.charts")
    rec.count(f"verify.method.{result.method}")
    _witnesses(rec, args, result)
    degree = 0
    for f in args[0].coords:
        degree = max(degree, sum(e for _, e in f.factors if e > 0),
                     sum(-e for _, e in f.factors if e < 0))
    rec.maximum("verify.coord_degree_max", degree)


# (owner, attribute, span name or namer, hook on the result)
TARGETS = (
    (cli, "load_fan", "fan.load_fan", None),
    (cli, "validate", "fan.validate", None),
    (embed, "validate", "fan.validate", None),
    (cli, "find_ample", "intersect.find_ample", None),
    (cli, "xi_vector", _xi_name, None),
    (fan, "find_point", "feasibility.find_point", None),
    (intersect, "find_point", "feasibility.find_point", None),
    (intersect, "minimize", "feasibility.minimize", None),
    (intersect, "integer_kernel_basis", "intlinalg.integer_kernel_basis", None),
    (cli, "build_embedding_data", "embed.build_embedding_data", None),
    (curve.ProjectiveLine, "sample_divisor", "curve.sample_divisor", _count_points),
    (embed, "principal_function", "curve.principal_function", None),
    (cli, "check_theorem_conditions", "embed.check_theorem_conditions", None),
    (verify, "check_theorem_conditions", "embed.check_theorem_conditions", None),
    (verify, "chart_maps", "embed.chart_maps", None),
    (cli, "dumps_embedding", "embed.io", None),
    (cli, "load_embedding", "embed.io", None),
    (verify, "chart_injective", "verify.chart_injective", _injective),
    (verify, "chart_immersive", "verify.chart_immersive", _witnesses),
    (verify, "pullback_check", "verify.pullback_check", _witnesses),
    (cli, "dumps_certificate", "verify.io", None),
)


def _wrap(rec: Recorder, fn, name, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except verify.DegreeOverflow:
            rec.count("verify.degree_overflow")
            raise
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, result)
        return result

    return traced


def install(rec: Recorder) -> list:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    saved = []
    for owner, attr, name, hook in TARGETS:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(rec, original, name, hook))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def per_op(rec: Recorder) -> dict[int, dict]:
    """Per op: inclusive time by span name, root self time, slowest chart."""
    out: dict[int, dict] = {}
    child_time: dict[int, int] = defaultdict(int)
    for op, name, start, end, parent in rec.spans:
        if parent >= 0 and end:
            child_time[parent] += end - start
    for index, (op, name, start, end, parent) in enumerate(rec.spans):
        if not end:
            continue
        entry = out.setdefault(op, {"total": defaultdict(float), "max_chart": 0.0})
        seconds = (end - start) / 1e9
        if name == ROOT:
            entry["op_s"] = seconds
            entry["total"]["cli.self"] += (end - start - child_time[index]) / 1e9
        else:
            entry["total"][name] += seconds
            if name == "verify.chart_injective":
                entry["max_chart"] = max(entry["max_chart"], seconds)
    return out


TIMED = (
    "cli.self",
    "fan.load_fan",
    "fan.validate",
    "intersect.find_ample",
    "intersect.xi_vector.intersection",
    "intersect.xi_vector.kernel",
    "feasibility.find_point",
    "feasibility.minimize",
    "intlinalg.integer_kernel_basis",
    "embed.build_embedding_data",
    "curve.sample_divisor",
    "curve.principal_function",
    "embed.check_theorem_conditions",
    "embed.chart_maps",
    "embed.io",
    "verify.chart_injective",
    "verify.chart_immersive",
    "verify.pullback_check",
    "verify.io",
)
COUNTED = (
    "curve.points_sampled",
    "verify.charts",
    "verify.method.linear",
    "verify.method.resultant",
    "verify.method.factor",
    "verify.method.groebner",
    "verify.witnesses",
    "verify.degree_overflow",
)


def layer_metrics(rec: Recorder, ops: list[int]) -> tuple[dict, list]:
    """Per-layer metrics over the given op ids, and rows for the printed table.

    ``<layer>_s`` is the per-op median of the layer's inclusive time over the
    ops that entered it; ``<layer>_share`` is its total over all op time.
    Counts are per-op means; ``verify.coord_degree_max`` is the per-op median
    of each op's highest coordinate degree.
    """
    table = per_op(rec)
    ops = [op for op in ops if op in table and "op_s" in table[op]]
    op_time = sum(table[op]["op_s"] for op in ops) or 1.0
    metrics: dict[str, tuple[float, str]] = {}
    rows = []
    for name in TIMED:
        values = [table[op]["total"][name] for op in ops if name in table[op]["total"]]
        median = statistics.median(values) if values else 0.0
        share = sum(values) / op_time
        metrics[f"{name}_s"] = (median, "s")
        metrics[f"{name}_share"] = (share, "ratio")
        rows.append((name, len(values), median, share))
    charts = [table[op]["max_chart"] for op in ops if table[op]["max_chart"]]
    metrics["verify.chart_injective_max_s"] = (statistics.median(charts) if charts else 0.0, "s")
    n = max(len(ops), 1)
    for name in COUNTED:
        metrics[name] = (sum(rec.counts[op][name] for op in ops) / n, "count/op")
    degrees = [rec.maxima[op]["verify.coord_degree_max"] for op in ops
               if "verify.coord_degree_max" in rec.maxima[op]]
    metrics["verify.coord_degree_max"] = (statistics.median(degrees) if degrees else 0.0, "count")
    return metrics, rows
