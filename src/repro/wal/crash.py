"""Crash-sweep: inject a crash, recover, prove nothing committed was lost.

For one ``(hook, seed)`` cell the sweep:

1. builds an engine with durability enabled and drives a seeded TPC-C
   mix (with interleaved OLAP queries) until the crash hook kills the
   process — :class:`~repro.errors.SimulatedCrash` escapes mid-commit
   and the in-memory engine is abandoned with whatever reached disk;
2. recovers a fresh engine from the durability directory
   (checkpoint segments + WAL replay) and runs the
   :class:`~repro.faults.invariants.InvariantChecker` over it;
3. replays the *same* seeded workload on a never-crashed reference
   engine up to the recovered commit horizon (every executed
   transaction consumes exactly one timestamp, so the horizon is always
   hit exactly), and asserts Q1/Q6/Q9 results at that horizon are
   bit-identical between the recovered and reference engines.

A cell *survives* when recovery raises nothing, the invariants hold,
the stored liveness bitmaps match, and every compared query agrees.
Durability guarantees only cover what was acknowledged: a commit killed
before its WAL append simply does not exist after recovery, which is
why the reference runs to the recovered horizon, not the crash point.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError, ReproError, SimulatedCrash
from repro.faults import injector as faults
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import (
    CRASH_AFTER_WAL_APPEND,
    CRASH_BEFORE_WAL_APPEND,
    CRASH_MID_CHECKPOINT,
    FaultPlan,
    FaultRates,
)
from repro.olap.queries import run_query
from repro.wal.recovery import recover

__all__ = ["CRASH_SWEEP_HOOKS", "CrashSweepResult", "run_crash_sweep"]

#: The hooks a full sweep covers, in documentation order.
CRASH_SWEEP_HOOKS: Tuple[str, ...] = (
    CRASH_BEFORE_WAL_APPEND,
    CRASH_AFTER_WAL_APPEND,
    CRASH_MID_CHECKPOINT,
)

#: Default per-consultation rates. Append hooks are consulted once per
#: commit; the checkpoint hook only once per spill, so it needs a much
#: higher rate to strike within a short run.
_DEFAULT_RATES: Dict[str, float] = {
    CRASH_BEFORE_WAL_APPEND: 0.05,
    CRASH_AFTER_WAL_APPEND: 0.05,
    CRASH_MID_CHECKPOINT: 0.5,
}


@dataclass
class CrashSweepResult:
    """Outcome of one ``(hook, seed)`` crash-recovery cell."""

    hook: str
    seed: int
    rate: float
    plan_hash: str
    crash_fired: bool
    crashed_at_txn: Optional[int]
    committed_before_crash: int
    horizon: int
    checkpoint_horizon: int
    segments_applied: int
    wal_records_replayed: int
    torn_tail: bool
    orphan_segments: int
    violations: List[str] = field(default_factory=list)
    query_mismatches: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def survived(self) -> bool:
        """Recovery succeeded with invariants green and queries identical."""
        return not self.violations and not self.query_mismatches and self.error is None

    def as_dict(self) -> dict:
        return {
            "hook": self.hook,
            "seed": self.seed,
            "rate": self.rate,
            "plan_hash": self.plan_hash,
            "crash_fired": self.crash_fired,
            "crashed_at_txn": self.crashed_at_txn,
            "committed_before_crash": self.committed_before_crash,
            "horizon": self.horizon,
            "checkpoint_horizon": self.checkpoint_horizon,
            "segments_applied": self.segments_applied,
            "wal_records_replayed": self.wal_records_replayed,
            "torn_tail": self.torn_tail,
            "orphan_segments": self.orphan_segments,
            "violations": list(self.violations),
            "query_mismatches": list(self.query_mismatches),
            "error": self.error,
            "survived": self.survived,
        }


def _canonical_rows(rows: dict) -> List[Tuple[str, str]]:
    """Bit-faithful, order-free form of a query's result rows.

    ``repr`` of a Python float round-trips exactly, so two rows compare
    equal here iff their values are bit-identical.
    """

    def norm(value):
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, tuple):
            return tuple(norm(item) for item in value)
        return value

    return sorted((repr(norm(key)), repr(norm(value))) for key, value in rows.items())


def run_crash_sweep(
    hook: str,
    seed: int,
    txns: int = 160,
    txns_per_query: int = 20,
    checkpoint_every: int = 24,
    scale: float = 2e-5,
    defrag_period: int = 100,
    controller_kind: str = "pushtap",
    delivery_fraction: float = 0.1,
    rate: Optional[float] = None,
    queries: Sequence[str] = ("Q1", "Q6", "Q9"),
    workdir: Optional[str] = None,
) -> CrashSweepResult:
    """Run one crash-recovery cell; see the module docstring."""
    if hook not in CRASH_SWEEP_HOOKS:
        raise ReproError(f"unknown crash hook {hook!r}; expected {CRASH_SWEEP_HOOKS}")
    if txns < 1:
        # A cell with no transactions cannot crash and passes vacuously.
        raise ConfigError(f"txns must be >= 1 (got {txns})")
    rate = _DEFAULT_RATES[hook] if rate is None else float(rate)
    build_params = dict(
        scale=scale,
        seed=seed,
        controller_kind=controller_kind,
        defrag_period=defrag_period,
        block_rows=256,
    )
    temp = workdir is None
    path = tempfile.mkdtemp(prefix="crash-sweep-") if temp else workdir
    plan = FaultPlan(seed, FaultRates({hook: rate}))
    crashed_at: Optional[int] = None
    committed_before = 0
    try:
        engine = PushTapEngine.build(**build_params)
        manager = engine.enable_durability(path, checkpoint_every=checkpoint_every)
        driver = engine.make_driver(seed=seed, delivery_fraction=delivery_fraction)
        faults.install(FaultInjector(plan))
        try:
            for i in range(txns):
                engine.execute_transaction(driver.next_transaction())
                committed_before += 1
                if txns_per_query and (i + 1) % txns_per_query == 0:
                    engine.query(queries[(i // txns_per_query) % len(queries)])
        except SimulatedCrash:
            crashed_at = committed_before
        finally:
            faults.deactivate()
            manager.close()

        result = recover(path, lambda: PushTapEngine.build(**build_params))
        recovered = result.engine
        violations = list(InvariantChecker(recovered, raise_on_violation=False).check())
        violations.extend(result.bitmap_mismatches)

        reference = PushTapEngine.build(**build_params)
        ref_driver = reference.make_driver(seed=seed, delivery_fraction=delivery_fraction)
        guard = 0
        while reference.db.oracle.read_timestamp() < result.horizon:
            reference.execute_transaction(ref_driver.next_transaction())
            guard += 1
            if guard > txns:
                raise ReproError(
                    f"reference run overshot: horizon {result.horizon} not "
                    f"reachable within {txns} transactions"
                )
        mismatches: List[str] = []
        for name in queries:
            got = _canonical_rows(
                run_query(name, recovered.olap, recovered.db, result.horizon).rows
            )
            want = _canonical_rows(
                run_query(name, reference.olap, reference.db, result.horizon).rows
            )
            if got != want:
                differing = sum(1 for g, w in zip(got, want) if g != w)
                mismatches.append(
                    f"{name}@ts={result.horizon}: recovered rows differ from "
                    f"reference ({differing} of {max(len(got), len(want))} rows)"
                )
        return CrashSweepResult(
            hook=hook,
            seed=seed,
            rate=rate,
            plan_hash=plan.content_hash(),
            crash_fired=crashed_at is not None,
            crashed_at_txn=crashed_at,
            committed_before_crash=committed_before,
            horizon=result.horizon,
            checkpoint_horizon=result.checkpoint_horizon,
            segments_applied=result.segments_applied,
            wal_records_replayed=result.wal_records_replayed,
            torn_tail=result.torn_tail,
            orphan_segments=len(result.orphan_segments),
            violations=violations,
            query_mismatches=mismatches,
        )
    except ReproError as exc:
        return CrashSweepResult(
            hook=hook,
            seed=seed,
            rate=rate,
            plan_hash=plan.content_hash(),
            crash_fired=crashed_at is not None,
            crashed_at_txn=crashed_at,
            committed_before_crash=committed_before,
            horizon=0,
            checkpoint_horizon=0,
            segments_applied=0,
            wal_records_replayed=0,
            torn_tail=False,
            orphan_segments=0,
            error=f"{type(exc).__name__}: {exc}",
        )
    finally:
        if temp:
            shutil.rmtree(path, ignore_errors=True)
