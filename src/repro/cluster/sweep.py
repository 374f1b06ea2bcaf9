"""Cluster fault sweep: 2PC under injected coordinator/participant faults.

The cluster cell of :func:`repro.faults.sweep.run_sweep`: run the
sharded workload clean, then with a seeded injector installed and one
invariant checker per shard, and report survival, throughput
degradation and **2PC atomicity**: over the faulted run's full
cross-shard outcome log, no transaction may have committed on one shard
and aborted on another. The three cluster hooks (lost prepare,
participant vote timeout, coordinator crash before decision) all resolve
through presumed abort, so the atomicity list must stay empty in every
sweep cell — CI runs one cell per hook and fails on any violation.

Like the engine-level sweep this module sits at the top of the stack and
is not re-exported from :mod:`repro.faults`.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan, FaultRates
from repro.faults.sweep import SweepResult, check_cell_size, run_sweep

from repro.cluster.cluster import PushTapCluster
from repro.cluster.workload import ClusterWorkload

__all__ = ["run_cluster_fault_sweep"]


def run_cluster_fault_sweep(
    seed: int,
    rates: FaultRates,
    shards: int = 2,
    intervals: int = 4,
    txns_per_query: int = 30,
    scale: float = 2e-5,
    remote_fraction: float = 4.0,
    defrag_period: int = 200,
) -> SweepResult:
    """Run the clean and faulted cluster workloads; returns the comparison.

    ``remote_fraction`` defaults well above 1.0 so cross-shard payments
    and new orders actually occur at sweep scale — the 2PC hooks only
    fire on the cross-shard path, so a near-zero remote rate would let a
    sweep cell pass vacuously.
    """
    check_cell_size(intervals, txns_per_query)
    plan = FaultPlan(seed, rates)

    def build() -> PushTapCluster:
        return PushTapCluster.build(
            shards=shards,
            scale=scale,
            seed=seed,
            defrag_period=defrag_period,
            block_rows=256,
            # Insert capacity sized to the stream (appends accumulate in
            # ORDERLINE/HISTORY across the whole run).
            extra_rows=12 * intervals * txns_per_query,
        )

    def drive(cluster, checkers):
        report = ClusterWorkload(
            cluster,
            txns_per_query=txns_per_query,
            seed=seed,
            remote_fraction=remote_fraction,
            invariant_checkers=checkers,
        ).run(intervals)
        return {
            "tpmc": report.oltp_tpmc,
            "qphh": report.olap_qphh,
            "transactions": report.transactions,
            "aborted": report.aborted,
            "cross_shard_attempted": report.cross_shard_attempted,
            "cross_shard_aborted": report.cross_shard_aborted,
            "aborts_by_cause": dict(report.aborts_by_cause),
        }

    return run_sweep(
        SweepResult(
            seed=seed,
            rates=dict(rates.rates),
            workload="cluster",
            shards=shards,
            plan_hash=plan.content_hash(),
        ),
        plan,
        build,
        drive,
        engines_of=lambda cluster: cluster.engines,
        audit=lambda cluster: cluster.twopc.atomicity_violations(),
    )
