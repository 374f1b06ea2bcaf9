"""The bench harness behind ``python -m repro.experiments bench``.

Three jobs, in order of importance:

1. **Equivalence gate** — run each workload under the naive reference
   paths and under the vectorized paths (:mod:`repro.perf`) and require
   the simulated sections of the two bench snapshots to be *bit-identical*
   (exact float equality, no tolerances). A perf PR that changes any
   simulated number is a correctness regression, not an optimisation.
2. **Baseline gate** — when the run's parameters match the committed
   baseline snapshot (e.g. ``BENCH_3.json``), the simulated sections must
   also equal the baseline's exactly, which pins the whole history of
   snapshots to one simulated truth.
3. **Speedup evidence** — wall-clock of naive vs. vectorized on the same
   host for each workload (the scan-heavy ``ch`` workload is the gated
   one) plus per-hot-path micro-benchmarks, giving the before/after table
   that quantifies where the time went.

Wall-clock numbers recorded in old baselines are *not* gated against —
they were measured on another host; the speedup gate always compares two
runs of this process.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import perf
from repro.errors import ConfigError
from repro.trace.profile import run_profile

__all__ = [
    "SIM_SECTIONS",
    "HotPath",
    "WorkloadRun",
    "ClusterRun",
    "BenchResult",
    "simulated_sections",
    "diff_sections",
    "deterministic_snapshot",
    "micro_benchmarks",
    "run_bench",
]

#: Bench-snapshot sections that must be bit-identical across host-side
#: execution modes (and across PRs at fixed parameters).
SIM_SECTIONS = ("simulated", "counters", "spans", "tracks", "critical_path_ns")

#: Workloads whose wall-clock speedup is gated (scan-heavy).
SCAN_WORKLOADS = ("ch",)

#: Workloads whose wall-clock speedup is gated by ``min_oltp_speedup``
#: (transaction-only; exercises the batched TxnContext/commit paths).
OLTP_WORKLOADS = ("oltp",)

#: Profile workload each bench workload name maps to. ``oltp`` is the
#: bench-level name for the transaction-only profile (``tpcc``), gated
#: separately from the scan workloads.
PROFILE_WORKLOADS = {"oltp": "tpcc", "tpcc": "tpcc", "ch": "ch", "mixed": "mixed"}

#: Schema version of the BENCH comparison snapshot.
BENCH_COMPARE_VERSION = 1


def simulated_sections(bench: Dict[str, object]) -> Dict[str, object]:
    """The simulated-truth subset of a bench snapshot."""
    return {key: bench.get(key) for key in SIM_SECTIONS}


def diff_sections(
    expected: Dict[str, object],
    actual: Dict[str, object],
    prefix: str = "",
) -> List[str]:
    """Exact recursive diff of two simulated sections.

    Returns human-readable ``path: expected != actual`` lines; empty
    means bit-identical. Floats are compared exactly — the harness's
    whole point is that simulated results don't drift at all.
    """
    drifts: List[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected:
                drifts.append(f"{path}: unexpected key (not in baseline)")
            elif key not in actual:
                drifts.append(f"{path}: missing key")
            else:
                drifts.extend(diff_sections(expected[key], actual[key], path))
        return drifts
    if expected != actual:
        drifts.append(f"{prefix}: {expected!r} != {actual!r}")
    return drifts


# ----------------------------------------------------------------------
# Hot-path micro-benchmarks (host wall-clock, naive vs. vectorized)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HotPath:
    """Before/after wall-clock of one hot path on this host."""

    name: str
    naive_s: float
    vectorized_s: float

    @property
    def speedup(self) -> float:
        """Naive time over vectorized time (>1 means faster)."""
        return self.naive_s / self.vectorized_s if self.vectorized_s else float("inf")

    def as_dict(self) -> Dict[str, float]:
        return {
            "naive_s": round(self.naive_s, 6),
            "vectorized_s": round(self.vectorized_s, 6),
            "speedup": round(self.speedup, 2),
        }


def _best_of(fn: Callable[[], None], repeats: int = 3) -> float:
    """Best-of-N wall seconds of one callable."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _make_unit(wram: int = 1 << 16):
    from repro.core.config import DDR5_3200_TIMINGS, DeviceGeometry, PIMUnitConfig
    from repro.pim.device import Device
    from repro.pim.pim_unit import PIMUnit

    device = Device(0, 1 << 20, num_banks=8)
    return PIMUnit(
        0, device.banks[0], PIMUnitConfig(wram_bytes=wram), DDR5_3200_TIMINGS,
        DeviceGeometry(),
    )


def micro_benchmarks(seed: int = 11, repeats: int = 3) -> List[HotPath]:
    """Measure each vectorized hot path against its naive reference.

    Every benchmark runs the *same* functional operation in both modes
    (the modes are equivalence-tested elsewhere); only host wall-clock
    differs. Results are per-host and indicative — the workload-level
    speedup is what the regression gate uses.
    """
    from repro.mvcc.manager import MVCCManager
    from repro.mvcc.metadata import Region
    from repro.pim.pim_unit import bytes_to_uints

    rng = np.random.default_rng(seed)
    paths: List[HotPath] = []

    def run_both(name: str, fn: Callable[[], None]) -> None:
        with perf.naive_mode():
            naive = _best_of(fn, repeats)
        perf.set_vectorized(True)
        vec = _best_of(fn, repeats)
        paths.append(HotPath(name, naive, vec))

    # pim.bytes_to_uints — WRAM-slice decode into typed arrays.
    raw = rng.integers(0, 256, size=1 << 18, dtype=np.uint8)

    def bench_decode() -> None:
        for _ in range(16):
            bytes_to_uints(raw, 4)

    run_both("pim.bytes_to_uints", bench_decode)

    # pim.load_strided — the OLAP scan's strided DRAM→WRAM stage.
    unit = _make_unit()

    def bench_load() -> None:
        for _ in range(4):
            unit.load_strided(0, 1 << 15, stride=16, chunk=4, wram_offset=0)

    run_both("pim.load_strided", bench_load)

    # pim.op_join — bucket matching via hash positions.
    join_unit = _make_unit()
    count = 4096
    h1 = rng.integers(1, 1 << 16, size=count, dtype=np.uint32)
    h2 = rng.integers(1, 1 << 16, size=count, dtype=np.uint32)
    join_unit.wram_write(0, h1.view(np.uint8))
    join_unit.wram_write(count * 4, h2.view(np.uint8))

    def bench_join() -> None:
        join_unit.op_join(0, count * 4, count * 8, count, count)

    run_both("pim.op_join", bench_join)

    # mvcc.read — visibility resolution over a partly updated table.
    block_rows = 1024
    rows = 16 * block_rows
    mvcc = MVCCManager(
        initial_rows=rows,
        capacity_rows=rows,
        block_rows=block_rows,
        num_devices=8,
        delta_capacity_blocks=24,
    )
    updated = rng.choice(rows, size=2048, replace=False)
    versions_per_row = 6
    ts = 0
    for _ in range(versions_per_row):
        for row in np.sort(updated):
            ts += 1
            mvcc.update(int(row), ts)
    read_ts = ts + 1
    probe = rng.integers(0, rows, size=1 << 14)

    def bench_read() -> None:
        for row in probe:
            mvcc.read(int(row), read_ts)
            mvcc.chain_length(int(row))

    run_both("mvcc.read", bench_read)
    assert mvcc.read(int(updated[0]), read_ts).region == Region.DELTA

    # mvcc.visible_refs_at — snapshot-bitmap construction over the index.
    delta_rows = mvcc.delta.capacity_rows

    def bench_visible() -> None:
        mvcc.visible_refs_at(read_ts, delta_rows)

    run_both("mvcc.visible_refs_at", bench_visible)

    # storage.read_column_values — the CPU fallback scan's gather.
    from repro.core.engine import PushTapEngine

    engine = PushTapEngine.build(scale=2e-5, seed=seed)
    runtime = engine.table("orderline")
    column = runtime.schema.columns[0].name
    num_rows = runtime.num_rows

    def bench_column() -> None:
        runtime.storage.read_column_values(Region.DATA, column, num_rows)

    run_both("storage.read_column_values", bench_column)

    return paths


# ----------------------------------------------------------------------
# Workload runs
# ----------------------------------------------------------------------
@dataclass
class WorkloadRun:
    """One workload executed in both modes on this host."""

    workload: str
    bench: Dict[str, object]
    naive_wall: Dict[str, object]
    mode_drift: List[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Naive over vectorized run wall-clock."""
        naive = float(self.naive_wall["run_s"])
        vec = float(self.bench["wall_clock"]["run_s"])  # type: ignore[index]
        return naive / vec if vec else float("inf")


@dataclass
class ClusterRun:
    """The sharded cluster workload executed in both modes.

    ``mode_drift`` is the exact recursive diff of the naive and the
    vectorized run's reports; it must be empty.
    """

    shards: int
    report: Dict[str, object]
    mode_drift: List[str]
    naive_s: float
    vectorized_s: float


@dataclass
class BenchResult:
    """Everything one bench run produced, plus pass/fail state."""

    runs: List[WorkloadRun]
    hot_paths: List[HotPath]
    baseline_tag: Optional[str]
    baseline_workload: Optional[str]
    baseline_compared: bool
    baseline_drift: List[str]
    min_speedup: float
    min_oltp_speedup: float = 0.0
    cluster: Optional[ClusterRun] = None
    snapshot: Dict[str, object] = field(default_factory=dict)

    @property
    def simulated_identical(self) -> bool:
        """Naive and vectorized agree on every simulated metric of every
        workload, the cluster workload included."""
        if any(run.mode_drift for run in self.runs):
            return False
        return self.cluster is None or not self.cluster.mode_drift

    @property
    def speedup_ok(self) -> bool:
        """Every gated scan workload meets the wall-clock speedup bar."""
        return all(
            run.speedup >= self.min_speedup
            for run in self.runs
            if run.workload in SCAN_WORKLOADS
        )

    @property
    def oltp_speedup_ok(self) -> bool:
        """The OLTP workload meets its naive/vectorized wall-clock bar."""
        return all(
            run.speedup >= self.min_oltp_speedup
            for run in self.runs
            if run.workload in OLTP_WORKLOADS
        )

    @property
    def passed(self) -> bool:
        return (
            self.simulated_identical
            and not self.baseline_drift
            and self.speedup_ok
            and self.oltp_speedup_ok
        )


def _run_cluster_compare(
    shards: int,
    intervals: int,
    txns_per_query: int,
    scale: float,
    seed: int,
    defrag_period: int,
) -> ClusterRun:
    """Run the sharded cluster workload in both modes and diff the reports.

    Same build and workload idiom as the ``cluster`` experiment (fixed
    row counts, homogeneous tenant streams); wall-clock covers the
    workload run only, not the cluster build.
    """
    from repro.cluster import ClusterWorkload, PushTapCluster, cluster_row_counts

    counts = cluster_row_counts(scale, shards)

    def run_once(vectorized: bool) -> Tuple[Dict[str, object], float]:
        perf.set_vectorized(vectorized)
        cluster = PushTapCluster.build(
            shards=shards,
            counts=counts,
            seed=seed,
            defrag_period=defrag_period,
            block_rows=256,
            extra_rows=12 * intervals * txns_per_query,
        )
        workload = ClusterWorkload(
            cluster,
            txns_per_query=txns_per_query,
            seed=seed,
            remote_fraction=1.0,
            tenants=shards,
            homogeneous_tenants=True,
            warehouse_groups=shards,
        )
        t0 = time.perf_counter()
        report = workload.run(intervals)
        wall = time.perf_counter() - t0
        return report.as_dict(), wall

    try:
        naive_report, naive_s = run_once(False)
        report, vectorized_s = run_once(True)
    finally:
        perf.set_vectorized(True)
    return ClusterRun(
        shards=shards,
        report=report,
        mode_drift=diff_sections(naive_report, report),
        naive_s=naive_s,
        vectorized_s=vectorized_s,
    )


def run_bench(
    workloads: Sequence[str] = ("mixed", "ch"),
    baseline_path: Optional[str] = "BENCH_3.json",
    tag: str = "5",
    intervals: int = 6,
    txns_per_query: int = 30,
    scale: float = 2e-5,
    seed: int = 11,
    defrag_period: int = 200,
    queries: Sequence[str] = ("Q1", "Q6", "Q9"),
    min_speedup: float = 2.0,
    min_oltp_speedup: float = 0.0,
    cluster_shards: int = 4,
    micro: bool = True,
) -> BenchResult:
    """Run the bench harness; returns results + the snapshot to write.

    The default parameters replicate the committed ``BENCH_3.json``
    baseline exactly, so its simulated sections gate this run. Running at
    other parameters (e.g. a tiny CI smoke) skips the baseline diff and
    records why, but the naive-vs-vectorized equivalence gate always
    applies.

    Beyond the profile workloads, ``workloads`` may name ``oltp`` (the
    transaction-only profile, gated by ``min_oltp_speedup``) and
    ``cluster`` (the sharded workload, whose naive and vectorized
    reports must be identical). The OLTP speedup gate defaults to 0 —
    wall-clock on shared CI hosts is evidence, not simulated truth; the
    identity gates always apply.
    """
    if not workloads:
        raise ConfigError("bench needs at least one workload")
    unknown = [w for w in workloads if w not in PROFILE_WORKLOADS and w != "cluster"]
    if unknown:
        raise ConfigError(f"unknown bench workloads {unknown}")
    params = {
        "intervals": intervals,
        "txns_per_query": txns_per_query,
        "scale": scale,
        "seed": seed,
        "defrag_period": defrag_period,
        "queries": list(queries),
    }

    runs: List[WorkloadRun] = []
    cluster_run: Optional[ClusterRun] = None
    for workload in workloads:
        if workload == "cluster":
            cluster_run = _run_cluster_compare(
                shards=cluster_shards,
                intervals=intervals,
                txns_per_query=txns_per_query,
                scale=scale,
                seed=seed,
                defrag_period=defrag_period,
            )
            continue
        profile_workload = PROFILE_WORKLOADS[workload]
        with perf.naive_mode():
            naive = run_profile(workload=profile_workload, tag=tag, **params)
        perf.set_vectorized(True)
        vectorized = run_profile(workload=profile_workload, tag=tag, **params)
        drift = diff_sections(
            simulated_sections(naive.bench), simulated_sections(vectorized.bench)
        )
        runs.append(
            WorkloadRun(
                workload=workload,
                bench=vectorized.bench,
                naive_wall=dict(naive.bench["wall_clock"]),  # type: ignore[arg-type]
                mode_drift=drift,
            )
        )

    baseline_tag: Optional[str] = None
    baseline_workload: Optional[str] = None
    baseline_compared = False
    baseline_drift: List[str] = []
    if baseline_path:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        baseline_tag = str(baseline.get("tag"))
        baseline_workload = str(baseline.get("workload"))
        match = next(
            (run for run in runs if run.workload == baseline_workload), None
        )
        if match is not None and baseline.get("params") == params:
            baseline_compared = True
            baseline_drift = diff_sections(
                simulated_sections(baseline), simulated_sections(match.bench)
            )

    hot_paths = micro_benchmarks(seed=seed) if micro else []

    result = BenchResult(
        runs=runs,
        hot_paths=hot_paths,
        baseline_tag=baseline_tag,
        baseline_workload=baseline_workload,
        baseline_compared=baseline_compared,
        baseline_drift=baseline_drift,
        min_speedup=min_speedup,
        min_oltp_speedup=min_oltp_speedup,
        cluster=cluster_run,
    )
    result.snapshot = _snapshot(result, params, baseline_path, tag)
    return result


def _snapshot(
    result: BenchResult,
    params: Dict[str, object],
    baseline_path: Optional[str],
    tag: str,
) -> Dict[str, object]:
    """The machine-readable ``BENCH_<tag>.json`` comparison snapshot."""
    return {
        "bench_compare_version": BENCH_COMPARE_VERSION,
        "tag": tag,
        "params": params,
        "baseline": {
            "path": baseline_path,
            "tag": result.baseline_tag,
            "workload": result.baseline_workload,
            "compared": result.baseline_compared,
            "simulated_drift": result.baseline_drift,
        },
        "workloads": {
            run.workload: {
                "simulated": run.bench["simulated"],
                "counters": run.bench["counters"],
                "spans": run.bench["spans"],
                "tracks": run.bench["tracks"],
                "critical_path_ns": run.bench["critical_path_ns"],
                "wall_clock": {
                    "vectorized": run.bench["wall_clock"],
                    "naive": run.naive_wall,
                },
                "wall_clock_s": run.bench.get("wall_clock_s"),
                "peak_rss_bytes": run.bench.get("peak_rss_bytes"),
                "speedup": round(run.speedup, 2),
                "mode_drift": run.mode_drift,
            }
            for run in result.runs
        },
        "cluster": (
            None
            if result.cluster is None
            else {
                "shards": result.cluster.shards,
                "report": result.cluster.report,
                "mode_drift": result.cluster.mode_drift,
                "wall_clock": {
                    "naive_s": round(result.cluster.naive_s, 6),
                    "vectorized_s": round(result.cluster.vectorized_s, 6),
                },
            }
        ),
        "hot_paths": {p.name: p.as_dict() for p in result.hot_paths},
        "gates": {
            "min_speedup": result.min_speedup,
            "min_oltp_speedup": result.min_oltp_speedup,
            "scan_workloads": list(SCAN_WORKLOADS),
            "oltp_workloads": list(OLTP_WORKLOADS),
            "simulated_identical": result.simulated_identical,
            "baseline_drift_free": not result.baseline_drift,
            "speedup_ok": result.speedup_ok,
            "oltp_speedup_ok": result.oltp_speedup_ok,
            "passed": result.passed,
        },
    }


#: Snapshot keys that record host wall-clock (or derive from it) and so
#: cannot be byte-stable across hosts. Everything else in a bench
#: snapshot is simulated truth and must regenerate identically.
_HOST_KEYS = (
    "wall_clock",
    "wall_clock_s",
    "peak_rss_bytes",
    "speedup",
    "hot_paths",
)


def deterministic_snapshot(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The host-independent subset of a bench comparison snapshot.

    Strips wall-clock timings, RSS, speedups, and the per-host hot-path
    table, plus the speedup gate outcomes that depend on them — what
    remains (simulated sections, drift lists, identity gates) must be
    byte-identical when the snapshot is regenerated with the same
    parameters on any host. CI regenerates ``BENCH_10.json`` and
    byte-compares this subset.
    """

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in _HOST_KEYS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    out = strip(snapshot)
    gates = out.get("gates")
    if isinstance(gates, dict):
        for key in ("speedup_ok", "oltp_speedup_ok", "passed"):
            gates.pop(key, None)
    return out


def span_before_after(
    baseline: Dict[str, object], bench: Dict[str, object]
) -> List[Tuple[str, float, float]]:
    """Per-span (name, baseline self-time, current self-time) rows.

    Both numbers are *simulated* nanoseconds from the tracer — under a
    passing run they are equal; any difference is drift the gates report.
    """
    base_spans: Dict[str, Dict] = baseline.get("spans", {})  # type: ignore[assignment]
    cur_spans: Dict[str, Dict] = bench.get("spans", {})  # type: ignore[assignment]
    rows = []
    for name in sorted(set(base_spans) | set(cur_spans)):
        before = float(base_spans.get(name, {}).get("self_ns", 0.0))
        after = float(cur_spans.get(name, {}).get("self_ns", 0.0))
        rows.append((name, before, after))
    return rows
