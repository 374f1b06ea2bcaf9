"""Cluster fault sweep: 2PC under injected coordinator/participant faults.

The cluster analogue of :mod:`repro.faults.sweep`: run the sharded
workload twice — clean baseline, then with a seeded injector installed —
and report survival, throughput degradation, invariant violations, and
(new here) **2PC atomicity**: over the faulted run's full cross-shard
outcome log, no transaction may have committed on one shard and aborted
on another. The three cluster hooks (lost prepare, participant vote
timeout, coordinator crash before decision) all resolve through presumed
abort, so the atomicity list must stay empty in every sweep cell — CI
runs one cell per hook and fails on any violation.

Like the engine-level sweep this module sits at the top of the stack and
is not re-exported from :mod:`repro.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.faults.injector import FaultInjector, deactivate, install
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan, FaultRates

from repro.cluster.cluster import PushTapCluster
from repro.cluster.workload import ClusterWorkload

__all__ = ["ClusterSweepResult", "run_cluster_fault_sweep"]


@dataclass
class ClusterSweepResult:
    """Outcome of one cluster fault sweep (baseline + faulted run)."""

    seed: int
    shards: int
    rates: Dict[str, float]
    plan_hash: str = ""
    survived: bool = True
    error: Optional[str] = None
    baseline_tpmc: float = 0.0
    baseline_qphh: float = 0.0
    faulted_tpmc: float = 0.0
    faulted_qphh: float = 0.0
    transactions: int = 0
    aborted: int = 0
    cross_shard_attempted: int = 0
    cross_shard_aborted: int = 0
    aborts_by_cause: Dict[str, int] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    detected: Dict[str, int] = field(default_factory=dict)
    checks: int = 0
    violations: List[str] = field(default_factory=list)
    atomicity_violations: List[str] = field(default_factory=list)

    @property
    def tpmc_degradation(self) -> float:
        """Fractional tpmC lost to the injected faults."""
        if self.baseline_tpmc == 0:
            return 0.0
        return 1.0 - self.faulted_tpmc / self.baseline_tpmc

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable summary."""
        return {
            "seed": self.seed,
            "shards": self.shards,
            "rates": self.rates,
            "plan_hash": self.plan_hash,
            "survived": self.survived,
            "error": self.error,
            "baseline_tpmc": self.baseline_tpmc,
            "baseline_qphh": self.baseline_qphh,
            "faulted_tpmc": self.faulted_tpmc,
            "faulted_qphh": self.faulted_qphh,
            "tpmc_degradation": self.tpmc_degradation,
            "transactions": self.transactions,
            "aborted": self.aborted,
            "cross_shard_attempted": self.cross_shard_attempted,
            "cross_shard_aborted": self.cross_shard_aborted,
            "aborts_by_cause": dict(sorted(self.aborts_by_cause.items())),
            "injected": self.injected,
            "detected": self.detected,
            "invariant_checks": self.checks,
            "invariant_violations": self.violations,
            "atomicity_violations": self.atomicity_violations,
        }


def _build_cluster(
    seed: int, shards: int, scale: float, defrag_period: int, extra_rows: int
) -> PushTapCluster:
    return PushTapCluster.build(
        shards=shards,
        scale=scale,
        seed=seed,
        defrag_period=defrag_period,
        block_rows=256,
        extra_rows=extra_rows,
    )


def run_cluster_fault_sweep(
    seed: int,
    rates: FaultRates,
    shards: int = 2,
    intervals: int = 4,
    txns_per_query: int = 30,
    scale: float = 2e-5,
    remote_fraction: float = 4.0,
    defrag_period: int = 200,
) -> ClusterSweepResult:
    """Run the clean and faulted cluster workloads; returns the comparison.

    ``remote_fraction`` defaults well above 1.0 so cross-shard payments
    and new orders actually occur at sweep scale — the 2PC hooks only
    fire on the cross-shard path, so a near-zero remote rate would let a
    sweep cell pass vacuously.
    """
    plan = FaultPlan(seed, rates)
    result = ClusterSweepResult(
        seed=seed,
        shards=shards,
        rates=dict(rates.rates),
        plan_hash=plan.content_hash(),
    )

    def _drive(cluster, checkers):
        return ClusterWorkload(
            cluster,
            txns_per_query=txns_per_query,
            seed=seed,
            remote_fraction=remote_fraction,
            invariant_checkers=checkers,
        ).run(intervals)

    # Insert capacity sized to the stream (appends accumulate in
    # ORDERLINE/HISTORY across the whole run).
    extra_rows = 12 * intervals * txns_per_query
    # Baseline: same cluster, same workload seeds, no injector.
    baseline = _build_cluster(seed, shards, scale, defrag_period, extra_rows)
    base = _drive(baseline, [])
    result.baseline_tpmc = base.oltp_tpmc
    result.baseline_qphh = base.olap_qphh

    # Faulted run: injector installed for exactly this scope, one
    # invariant checker per shard engine.
    cluster = _build_cluster(seed, shards, scale, defrag_period, extra_rows)
    injector = FaultInjector(plan)
    checkers = [
        InvariantChecker(engine, raise_on_violation=False)
        for engine in cluster.engines
    ]
    install(injector)
    try:
        report = _drive(cluster, checkers)
        result.faulted_tpmc = report.oltp_tpmc
        result.faulted_qphh = report.olap_qphh
        result.transactions = report.transactions
        result.aborted = report.aborted
        result.cross_shard_attempted = report.cross_shard_attempted
        result.cross_shard_aborted = report.cross_shard_aborted
        result.aborts_by_cause = dict(report.aborts_by_cause)
    except ReproError as exc:
        result.survived = False
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        deactivate()
    # End-of-run audits: per-shard storage/index consistency plus the
    # cluster-wide atomicity scan over the 2PC outcome log.
    for checker in checkers:
        checker.check()
    result.injected = dict(injector.injected)
    result.detected = dict(injector.detected)
    result.checks = sum(c.checks for c in checkers)
    result.violations = [v for c in checkers for v in c.violations]
    result.atomicity_violations = cluster.twopc.atomicity_violations()
    if result.violations or result.atomicity_violations:
        result.survived = False
    return result
