"""Measurement passes and metric arithmetic.

Clocks: a metric in ``s``, ``ms`` or ``1/s`` is host-side wall-clock
(``perf_counter``), normalised to a reference host speed unless its name
starts with ``wall_`` (see :mod:`perfbench.hostspeed`); ``MiB`` is
``ru_maxrss``. A ``sim_*`` metric is the model's simulated clock, read
from the result objects, with a unit that says so (``sim_us``,
``1/sim_s``, ...).
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import checks
from perfbench.hostspeed import HostSpeed
from perfbench.spans import Tracer
from perfbench.workloads import CHECKED_QUERIES, OpRecord, Recorder, Workload

__all__ = ["Outcome", "Pass", "measure", "measure_traced", "percentile", "has_tail"]

Metric = Tuple[float, str]  # (value, unit)

#: Calls that take a host-speed mark during a build (one per loaded row).
BUILD_TICKS = (("repro.core.storage", "TableStorage.write_row"),)


def has_tail(samples: int, q: float) -> bool:
    """Whether percentile ``q`` of ``samples`` values has ten beyond it."""
    return samples * (1.0 - q) >= 10 - 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 100.0 * q))


@dataclass
class Pass:
    """One build of a workload and what ran on it (the engine itself is
    dropped when :func:`run_pass` returns)."""

    build_s: float = 0.0
    build_norm_s: float = 0.0
    total_s: float = 0.0
    run_s: float = 0.0
    run_norm_s: float = 0.0
    run_ops: List[OpRecord] = field(default_factory=list)
    #: Per-run-op host latency normalised to the reference host speed.
    op_norm_s: List[float] = field(default_factory=list)
    window_sim: Dict[str, float] = field(default_factory=dict)
    layer_sim: Dict[str, float] = field(default_factory=dict)
    answers: Dict[str, Dict] = field(default_factory=dict)
    expected: Dict[str, Dict] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)


@dataclass
class Outcome:
    """Metrics of one command invocation plus its failure accounting."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: Printed for the reader, not part of the result line.
    extra: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _controller_totals(engines) -> Dict[str, float]:
    return {
        "pim.launches": sum(e.controller.stats.launches for e in engines),
        "pim.handovers": sum(e.controller.stats.handovers for e in engines),
    }


def _window_sim(ops: Sequence[OpRecord], sim_ns: float) -> Dict[str, float]:
    """Simulated end-to-end numbers of the deterministic window."""
    txns = [op for op in ops if op.kind == "txn"]
    queries = [op for op in ops if op.kind == "query"]
    committed = sum(op.ok for op in txns)
    out = {
        "sim_time_ns": sim_ns,
        "sim_op_per_s": (committed + len(queries)) / sim_ns * 1e9,
        "sim_op_p75_us": percentile([op.sim_ns for op in ops], 0.75) / 1e3,
        "sim_tpmc": committed / sim_ns * 60e9,
        "sim_qphh": len(queries) / sim_ns * 3600e9,
    }
    if has_tail(len(txns), 0.99):
        out["sim_txn_p99_us"] = percentile([op.sim_ns for op in txns], 0.99) / 1e3
    return out


def timed_build(workload: Workload, seed: int, seconds: float, speed: Optional[HostSpeed]):
    """Build once; returns (system, raw seconds, normalised seconds).

    With ``speed``, reference marks are taken before, after and (via
    every ``TableStorage.write_row``) during the build.
    """
    clock = time.perf_counter
    if speed is None:
        t0 = clock()
        system = workload.build(seed, seconds)
        build_s = clock() - t0
        return system, build_s, build_s
    speed.tick(force=True)
    t0 = clock()
    with speed.ticking(BUILD_TICKS):
        system = workload.build(seed, seconds)
    t1 = clock()
    speed.tick(force=True)
    return (system, *speed.interval(t0, t1))


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    timed: bool,
    tracer: Optional[Tracer] = None,
    check: bool = False,
    speed: Optional[HostSpeed] = None,
) -> Pass:
    """Build, run the window (and, when ``timed``, on until ``seconds``),
    then the closing Q1/Q6/Q9 queries; with ``check``, audit the result.

    With a tracer, set-up, run and closing queries become the ``bench.*``
    root spans that every wrapped call nests under. With ``speed``, host
    times are also normalised (see :mod:`perfbench.hostspeed`).
    """
    clock = time.perf_counter
    tick = speed.tick if speed is not None else (lambda force=False: None)

    def phase(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    result = Pass()
    t0 = clock()
    with phase("bench.setup"):
        system, result.build_s, result.build_norm_s = timed_build(workload, seed, seconds, speed)
    engines = workload.engines(system)
    controller0 = _controller_totals(engines)
    rec = Recorder(clock)
    with phase("bench.run"):
        step = workload.start(system, seed, rec)
        first = len(rec.ops)
        sim0 = workload.sim_clock(system)
        tick(force=True)
        run_start = clock()
        for _ in range(workload.window):
            step()
            tick()
        result.window_sim = _window_sim(rec.ops[first:], workload.sim_clock(system) - sim0)
        if timed:
            limit = workload.max_steps(seconds)
            steps = workload.window
            while steps < limit and clock() - run_start < seconds:
                step()
                tick()
                steps += 1
        run_end = clock()
        tick(force=True)
        result.run_ops = rec.ops[first:]
    with phase("bench.closing"):
        result.answers = workload.closing_queries(system, rec)
    result.total_s = clock() - t0
    if speed is not None:
        result.run_s, result.run_norm_s = speed.interval(run_start, run_end)
        factors = speed.factors_at([op.end for op in result.run_ops])
        result.op_norm_s = [op.host_s * f for op, f in zip(result.run_ops, factors)]
    controller1 = _controller_totals(engines)
    result.layer_sim = dict(rec.sim)
    result.layer_sim.update({k: controller1[k] - controller0[k] for k in controller0})
    result.layer_sim["cluster.sim_coordination_ns"] = getattr(system, "coordination_time", 0.0)
    if check:
        result.expected = checks.rowwise_answers(engines)
        result.violations = checks.audit(engines)
    return result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_answers(outcome: Outcome, checked: Pass) -> None:
    outcome.attempted += len(CHECKED_QUERIES)
    for name in checks.answer_mismatches(checked.answers, checked.expected):
        outcome.fail(f"{name}: PIM answer differs from the row-wise recomputation")
    if checked.violations:
        outcome.fail("invariant audit: " + "; ".join(checked.violations[:5]))


def _check_replay(outcome: Outcome, first: Pass, second: Pass) -> None:
    differ = checks.sim_mismatches(first.window_sim, second.window_sim)
    if differ:
        outcome.fail("simulated metrics differ between two runs of one seed: " + ", ".join(differ))


def _rate(ops: Sequence[OpRecord], seconds: float) -> float:
    return sum(op.ok for op in ops) / seconds


def _kind_metrics(run: Pass) -> Dict[str, Metric]:
    """Per-kind host (normalised) and simulated metrics, where the
    workload runs the kind and the percentile has ten samples beyond it."""
    out: Dict[str, Metric] = {}
    for kind, tails in (("txn", (0.5, 0.99)), ("query", (0.5, 0.9))):
        picked = [i for i, op in enumerate(run.run_ops) if op.kind == kind]
        if not picked:
            continue
        out[f"{kind}_per_s"] = (_rate([run.run_ops[i] for i in picked], run.run_norm_s), "1/s")
        for q in tails:
            if has_tail(len(picked), q):
                value = percentile([run.op_norm_s[i] for i in picked], q) * 1e3
                out[f"{kind}_p{round(q * 100)}_ms"] = (value, "ms")
    window = run.window_sim
    if "txn_per_s" in out:
        out["sim_tpmc"] = (window["sim_tpmc"], "txn/sim_min")
    if "sim_txn_p99_us" in window:
        out["sim_txn_p99_us"] = (window["sim_txn_p99_us"], "sim_us")
    if "query_per_s" in out:
        out["sim_qphh"] = (window["sim_qphh"], "query/sim_h")
    return out


def measure(workload: Workload, seed: int, seconds: float) -> Outcome:
    """The untraced command: end-to-end metrics and every check.

    Pass 1 is timed and checked; pass 2 replays the window on a fresh
    build and must reproduce its simulated metrics exactly. ``setup_s``
    is the median (the mean) of the two passes' build times.
    """
    outcome = Outcome()
    speed = HostSpeed()
    try:
        run = run_pass(workload, seed, seconds, timed=True, check=True, speed=speed)
        # Read before the replay's build: a freed engine leaves the
        # allocator's arenas fragmented, so a later peak would depend on it.
        peak_rss_mb = _peak_rss_mb()
        gc.collect()
        replay = run_pass(workload, seed, seconds, timed=False, speed=speed)
        gc.collect()
        builds = [(run.build_s, run.build_norm_s), (replay.build_s, replay.build_norm_s)]
    except Exception:
        traceback.print_exc()
        outcome.attempted += 1
        outcome.fail("an operation raised")
        return outcome
    outcome.attempted += len(run.run_ops)
    _check_answers(outcome, run)
    _check_replay(outcome, run, replay)
    outcome.metrics = {
        "setup_s": (statistics.median(norm for _, norm in builds), "s"),
        "op_per_s": (_rate(run.run_ops, run.run_norm_s), "1/s"),
        "op_p75_ms": (percentile(run.op_norm_s, 0.75) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "sim_op_per_s": (run.window_sim["sim_op_per_s"], "1/sim_s"),
        "sim_op_p75_us": (run.window_sim["sim_op_p75_us"], "sim_us"),
    }
    outcome.extra = {
        "wall_setup_s": (statistics.median(raw for raw, _ in builds), "s"),
        "wall_op_per_s": (_rate(run.run_ops, run.run_s), "1/s"),
        "wall_op_p75_ms": (percentile([op.host_s for op in run.run_ops], 0.75) * 1e3, "ms"),
        **_kind_metrics(run),
    }
    outcome.extra["failed_frac"] = (outcome.failed / outcome.attempted, "frac")
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
#: Host per-layer metrics: (metric, span name, "self_s" | "calls").
HOST_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = tuple(
    (f"{span}_{kind}", span, kind)
    for span, kinds in (
        ("workloads.generate", ("self_s",)),
        ("workloads.next_txn", ("self_s",)),
        ("format.pack_row", ("calls", "self_s")),
        ("pim.device_write", ("calls", "self_s")),
        ("pim.device_read", ("calls", "self_s")),
        ("pim.execute", ("calls", "self_s")),
        ("pim.unit", ("self_s",)),
        ("core.write_row", ("self_s",)),
        ("core.read_row", ("self_s",)),
        ("core.copy_row", ("self_s",)),
        ("core.write_columns", ("self_s",)),
        ("core.snapshot", ("self_s",)),
        ("core.defrag", ("calls", "self_s")),
        ("mvcc.read", ("calls", "self_s")),
        ("mvcc.write", ("self_s",)),
        ("mvcc.compact", ("self_s",)),
        ("oltp.execute", ("self_s",)),
        ("oltp.index_probe", ("calls",)),
        ("olap.operator", ("self_s",)),
        ("olap.query", ("self_s",)),
        ("cluster.route", ("calls",)),
        ("cluster.twopc", ("calls",)),
        ("cluster.gather", ("calls",)),
    )
    for kind in kinds
)

#: Simulated per-layer metrics: (metric, unit). Summed from the result
#: objects of every operation in the traced window.
SIM_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("oltp.sim_index_ns", "sim_ns"),
    ("oltp.sim_alloc_ns", "sim_ns"),
    ("oltp.sim_compute_ns", "sim_ns"),
    ("oltp.sim_chain_ns", "sim_ns"),
    ("oltp.sim_memory_ns", "sim_ns"),
    ("oltp.sim_relayout_ns", "sim_ns"),
    ("oltp.sim_flush_ns", "sim_ns"),
    ("pim.sim_scan_ns", "sim_ns"),
    ("pim.sim_load_ns", "sim_ns"),
    ("pim.sim_compute_ns", "sim_ns"),
    ("pim.sim_control_ns", "sim_ns"),
    ("pim.dram_bytes", "bytes"),
    ("pim.launches", "count"),
    ("pim.handovers", "count"),
    ("core.sim_snapshot_ns", "sim_ns"),
    ("core.sim_defrag_ns", "sim_ns"),
    ("core.defrag_moved_rows", "count"),
    ("olap.sim_cpu_ns", "sim_ns"),
    ("olap.sim_consistency_ns", "sim_ns"),
)

#: Spans whose self time is printed for the reader only: it is exactly
#: zero on every single-engine workload, which bypasses ``repro.cluster``
#: (so is ``cluster.sim_coordination_ns``, printed likewise).
READER_SPANS = ("cluster.route", "cluster.twopc", "cluster.gather")


def layer_metrics(
    summary: Dict[str, Tuple[int, float]], traced: Pass, baseline_s: float
) -> Tuple[Dict[str, Metric], Dict[str, Metric]]:
    """(gated per-layer metrics, reader-only extras) of a traced pass."""
    out: Dict[str, Metric] = {}
    for metric, span, kind in HOST_LAYER_METRICS:
        calls, self_s = summary.get(span, (0, 0.0))
        out[metric] = (float(calls), "count") if kind == "calls" else (self_s, "s")
    sim = traced.layer_sim
    for metric, unit in SIM_LAYER_METRICS:
        out[metric] = (float(sim.get(metric, 0.0)), unit)
    txns = sim.get("oltp.txns", 0.0)
    out["oltp.commit_ratio"] = (sim.get("oltp.committed", 0.0) / txns if txns else 0.0, "frac")
    cluster_txns = sim.get("cluster.txns", 0.0)
    out["cluster.cross_shard_frac"] = (
        sim.get("cluster.cross_shard", 0.0) / cluster_txns if cluster_txns else 0.0,
        "frac",
    )
    out["trace_overhead_frac"] = (traced.total_s / baseline_s - 1.0, "frac")
    extra: Dict[str, Metric] = {
        f"{span}_self_s": (summary.get(span, (0, 0.0))[1], "s") for span in READER_SPANS
    }
    extra["cluster.sim_coordination_ns"] = (sim["cluster.sim_coordination_ns"], "sim_ns")
    if sim.get("cluster.cross_shard"):
        ratio = sim["cluster.cross_shard_committed"] / sim["cluster.cross_shard"]
        extra["cluster.twopc_commit_ratio"] = (ratio, "frac")
    return out, extra


def measure_traced(workload: Workload, seed: int, seconds: float, spans_out: str) -> Outcome:
    """The traced command: the window untraced, then again traced.

    Both passes run set-up, the fixed window and the closing queries, so
    their simulated metrics and answers must agree exactly and the
    traced call counts repeat per seed; the traced pass's time over the
    untraced one, minus 1, is the tracing overhead. Spans are written to
    ``spans_out``.
    """
    outcome = Outcome()
    tracer = Tracer()
    try:
        # The audit runs on the untraced pass, after its time is taken,
        # so the check's own reads stay out of both the timing and spans.
        baseline = run_pass(workload, seed, seconds, timed=False, check=True)
        gc.collect()
        with tracer.patched():
            traced = run_pass(workload, seed, seconds, timed=False, tracer=tracer)
    except Exception:
        traceback.print_exc()
        outcome.attempted += 1
        outcome.fail("an operation raised")
        return outcome
    outcome.attempted += len(traced.run_ops)
    _check_answers(outcome, baseline)
    _check_replay(outcome, baseline, traced)
    if checks.answer_mismatches(traced.answers, baseline.answers):
        outcome.fail("traced and untraced runs of one seed answered differently")
    outcome.metrics, outcome.extra = layer_metrics(tracer.summary(), traced, baseline.total_s)
    tracer.write(spans_out)
    return outcome
