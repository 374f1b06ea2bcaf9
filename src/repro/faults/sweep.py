"""The fault-sweep harness: a workload under injected faults.

:func:`run_sweep` runs one sweep cell. It drives a freshly built target
twice: once clean (the baseline) and once with a seeded
:class:`~repro.faults.injector.FaultInjector` installed. It reports
whether the target *survived* (no unhandled error, zero invariant
violations, an empty audit) together with the throughput degradation the
injected faults caused. Both runs build identical targets from the same
seed, so with the same arguments a sweep is bit-for-bit reproducible.

Two sweeps use it: :func:`run_fault_sweep` drives one engine (the mixed
workload or the serving loop), and
:func:`repro.cluster.sweep.run_cluster_fault_sweep` drives a sharded
cluster and audits 2PC atomicity.

This module sits at the top of the fault stack (it imports the engine
and workload driver) and is intentionally **not** re-exported from
:mod:`repro.faults` — importing it from low-level modules would create
an import cycle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError, ReproError
from repro.faults.injector import FaultInjector, deactivate, install
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan, FaultRates
from repro.workloads.driver import MixedWorkload

__all__ = ["SweepResult", "check_cell_size", "run_fault_sweep", "run_sweep"]


@dataclass
class SweepResult:
    """Outcome of one fault sweep cell (baseline + faulted run)."""

    seed: int
    rates: Dict[str, float]
    #: Which workload shape drove the target ("mixed", "serve" or "cluster").
    workload: str = "mixed"
    shards: int = 1
    #: SHA-256 of the fault plan's determinism surface (seed + rates) —
    #: two reports with equal hashes replayed the same fault schedule.
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
    retries: int = 0
    checks: int = 0
    violations: List[str] = field(default_factory=list)
    #: What the sweep's end-of-run audit found (cluster: 2PC atomicity).
    atomicity_violations: List[str] = field(default_factory=list)

    @property
    def tpmc_degradation(self) -> float:
        """Fractional tpmC lost to the injected faults."""
        if self.baseline_tpmc == 0:
            return 0.0
        return 1.0 - self.faulted_tpmc / self.baseline_tpmc

    @property
    def qphh_degradation(self) -> float:
        """Fractional QphH lost to the injected faults."""
        if self.baseline_qphh == 0:
            return 0.0
        return 1.0 - self.faulted_qphh / self.baseline_qphh

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable summary."""
        return {
            **asdict(self),
            "tpmc_degradation": self.tpmc_degradation,
            "qphh_degradation": self.qphh_degradation,
        }


def check_cell_size(intervals: int, txns_per_query: int) -> None:
    """Reject a sweep cell that would drive no work and pass vacuously."""
    if intervals < 1:
        raise ConfigError(f"intervals must be >= 1 (got {intervals})")
    if txns_per_query < 1:
        raise ConfigError(f"txns_per_query must be >= 1 (got {txns_per_query})")


def run_sweep(
    result: SweepResult,
    plan: FaultPlan,
    build: Callable[[], object],
    drive: Callable[[object, List[InvariantChecker]], Dict[str, object]],
    engines_of: Callable[[object], Sequence[PushTapEngine]],
    audit: Callable[[object], List[str]],
) -> SweepResult:
    """Run the baseline and faulted runs of one cell; fills in ``result``.

    ``build()`` makes a fresh target; ``drive(target, checkers)`` runs
    the workload on it and returns ``tpmc``, ``qphh`` and any other
    :class:`SweepResult` fields it measured (``checkers`` is empty on
    the baseline). The faulted run gets one non-raising
    :class:`InvariantChecker` per engine in ``engines_of(target)``; after
    it, every checker runs a final check and ``audit(target)`` returns
    the violations of the sweep's own end-of-run audit.
    """
    # Baseline: same target, same workload seeds, no injector.
    base = drive(build(), [])
    result.baseline_tpmc = base["tpmc"]
    result.baseline_qphh = base["qphh"]

    # Faulted run: injector installed for exactly this scope.
    target = build()
    injector = FaultInjector(plan)
    checkers = [
        InvariantChecker(engine, raise_on_violation=False)
        for engine in engines_of(target)
    ]
    install(injector)
    try:
        faulted = drive(target, checkers)
        result.faulted_tpmc = faulted.pop("tpmc")
        result.faulted_qphh = faulted.pop("qphh")
        for name, value in faulted.items():
            setattr(result, name, value)
    except ReproError as exc:
        # The target did not absorb the faults (e.g. retry budget
        # exhausted): report the failure instead of crashing the sweep.
        result.survived = False
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        deactivate()
    # End-of-run audits: per-engine consistency plus the sweep's own.
    for checker in checkers:
        checker.check()
    result.injected = dict(injector.injected)
    result.detected = dict(injector.detected)
    result.retries = injector.retries
    result.checks = sum(c.checks for c in checkers)
    result.violations = [v for c in checkers for v in c.violations]
    result.atomicity_violations = list(audit(target))
    if result.violations or result.atomicity_violations:
        result.survived = False
    return result


def _run_serve(
    engine: PushTapEngine,
    invariant_checker: Optional[InvariantChecker],
    seed: int,
    txns_per_query: int,
) -> Dict[str, object]:
    # Imported here: repro.serve sits above this module in the layering
    # (it imports the fault plan/injector), so a top-level import would
    # be a cycle.
    from repro.serve.loop import ServeConfig, ServeLoop

    config = ServeConfig(
        tenants=3,
        requests_per_tenant=max(8, txns_per_query),
        policy="batched",
        seed=seed,
        arrival="open",
        rate_per_tenant=100_000.0,
        olap_fraction=0.2,
        queue_depth=12,
    )
    result = ServeLoop(
        engine, config, invariant_checker=invariant_checker
    ).run()
    throughput = result.report["throughput"]
    aborted = sum(s["aborted"] for s in result.report["tenants"].values())
    if result.slo_errors and invariant_checker is not None:
        # Broken request conservation is an invariant violation of the
        # serving layer: surface it through the same channel.
        invariant_checker.violations.extend(
            f"serve: {err}" for err in result.slo_errors
        )
    return {
        "tpmc": throughput["oltp_tpmc"],
        "qphh": throughput["olap_qphh"],
        "transactions": result.report["engine"]["transactions"],
        "aborted": aborted,
    }


def run_fault_sweep(
    seed: int,
    rates: FaultRates,
    intervals: int = 6,
    txns_per_query: int = 30,
    scale: float = 2e-5,
    defrag_period: int = 200,
    controller_kind: str = "pushtap",
    delivery_fraction: float = 0.1,
    workload: str = "mixed",
) -> SweepResult:
    """Run the baseline and faulted workloads; returns the comparison.

    With ``workload="mixed"``, ``intervals`` query intervals of
    ``txns_per_query`` transactions each are driven against two
    identically built engines. With ``workload="serve"``, the serving
    loop runs instead (``txns_per_query`` becomes requests per tenant),
    which exercises the serve-layer hooks — client disconnects, spurious
    queue overflow, scheduler stalls — on top of the engine-level ones.
    The faulted run installs a :class:`FaultPlan` derived from ``seed``
    and ``rates`` and checks invariants after every injected fault and
    at every safe-point boundary. A nonzero ``delivery_fraction`` keeps
    the tombstone → defragmentation reconciliation path exercised.
    """
    if workload not in ("mixed", "serve"):
        raise ConfigError(f"unknown sweep workload {workload!r}")
    check_cell_size(intervals, txns_per_query)
    plan = FaultPlan(seed, rates)

    def build() -> PushTapEngine:
        return PushTapEngine.build(
            scale=scale,
            seed=seed,
            controller_kind=controller_kind,
            defrag_period=defrag_period,
            block_rows=256,
        )

    def drive(engine, checkers):
        checker = checkers[0] if checkers else None
        if workload == "serve":
            return _run_serve(engine, checker, seed, txns_per_query)
        report = MixedWorkload(
            engine,
            txns_per_query=txns_per_query,
            seed=seed,
            delivery_fraction=delivery_fraction,
            invariant_checker=checker,
        ).run(intervals)
        return {
            "tpmc": report.oltp_tpmc,
            "qphh": report.olap_qphh,
            "transactions": report.transactions,
            "aborted": report.aborted,
        }

    return run_sweep(
        SweepResult(
            seed=seed,
            rates=dict(rates.rates),
            workload=workload,
            plan_hash=plan.content_hash(),
        ),
        plan,
        build,
        drive,
        engines_of=lambda engine: [engine],
        audit=lambda engine: [],
    )
