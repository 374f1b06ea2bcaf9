"""Deterministic simulated-time two-phase commit across shard engines.

The coordinator drives the classic presumed-abort protocol over the
participant interface :class:`~repro.oltp.engine.OLTPEngine` grew for
the cluster: ``prepare`` runs a sub-transaction's body and hardens its
writes behind a prepare record (charged through the same §6.3
flush+barrier model as a single-phase commit), the participant's write
locks stay held across the phases, and ``commit_prepared`` /
``abort_prepared`` resolve the vote. A commit decision costs each
participant one extra flushed line (the decision record) — the
per-participant overhead a cross-shard transaction pays over a local
one — while an abort flushes nothing (presumed abort).

Interconnect traffic is modelled as a fixed per-message latency; a
coordinator that goes silent (the injected coordinator crash) sends no
decision at all, and every prepared participant resolves by timing out
into the presumed abort. All three cluster fault hooks
(:data:`~repro.faults.plan.TWOPC_LOST_PREPARE`,
:data:`~repro.faults.plan.TWOPC_PARTICIPANT_TIMEOUT`,
:data:`~repro.faults.plan.TWOPC_COORDINATOR_CRASH`) therefore resolve
to a deterministic *global* abort: no shard ever commits a transaction
another shard aborted, the invariant :meth:`TwoPhaseCommit.
atomicity_violations` checks over the outcome log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import TransactionError
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.oltp.engine import TxnContext, TxnResult
from repro.telemetry import registry as telemetry

__all__ = ["TwoPhaseOutcome", "TwoPhaseCommit"]


@dataclass
class TwoPhaseOutcome:
    """Resolution of one cross-shard transaction."""

    committed: bool
    #: Client-observed latency: participant execution plus interconnect
    #: messages plus any coordinator/participant timeouts (ns).
    latency: float
    #: The interconnect/timeout share of the latency — serial
    #: coordination work that belongs to no single shard's busy time.
    coordination_time: float
    #: Why the transaction aborted (hook name or ``"vote_no"``); None
    #: when committed.
    abort_cause: Optional[str]
    #: Per-participant results (a shard hit by a lost prepare never
    #: executed and has no entry).
    per_shard: Dict[int, TxnResult] = field(default_factory=dict)


class TwoPhaseCommit:
    """Coordinates cross-shard transactions over the shard engines."""

    #: A coordinator/participant timeout, in one-way interconnect hops.
    TIMEOUT_HOPS = 4.0

    def __init__(self, engines: Sequence, interconnect_ns: float = 500.0) -> None:
        self.engines = list(engines)
        self.interconnect_ns = float(interconnect_ns)
        self.attempted = 0
        self.committed = 0
        self.aborted = 0
        self.aborts_by_cause: Dict[str, int] = {}
        #: Total interconnect + timeout time across all transactions.
        self.coordination_time = 0.0
        #: Per-transaction outcome rows ``{shard: "committed"|"aborted"}``
        #: — the atomicity checker's evidence log.
        self.outcomes: List[Dict[int, str]] = []

    @property
    def timeout_ns(self) -> float:
        """How long a silent peer is waited for before presuming abort."""
        return self.TIMEOUT_HOPS * self.interconnect_ns

    def execute(
        self,
        home: int,
        sub_txns: Dict[int, Callable[[TxnContext], None]],
    ) -> TwoPhaseOutcome:
        """Run one cross-shard transaction through both phases.

        ``home`` is the coordinator's shard (its participant exchanges no
        interconnect messages); the other participants pay one message
        per prepare request, vote, decision, and ack. Participants are
        prepared in deterministic order — home first, then ascending —
        so a run replays identically under the same fault plan.
        """
        if home not in sub_txns:
            raise TransactionError(f"home shard {home} has no sub-transaction")
        order = [home] + sorted(s for s in sub_txns if s != home)
        inj = faults.active()
        tel = telemetry.active()
        self.attempted += 1

        prepared: Dict[int, object] = {}
        votes: Dict[int, bool] = {}
        causes: List[str] = []
        msg_time = 0.0
        wait_time = 0.0
        for shard in order:
            remote = shard != home
            if remote:
                msg_time += self.interconnect_ns  # prepare request
                if inj.enabled and inj.fire(fault_plan.TWOPC_LOST_PREPARE):
                    # The request vanished in the interconnect: the
                    # participant never executes, the coordinator's
                    # timeout expires, and the vote is a presumed no.
                    inj.detect(fault_plan.TWOPC_LOST_PREPARE)
                    votes[shard] = False
                    causes.append(fault_plan.TWOPC_LOST_PREPARE)
                    wait_time += self.timeout_ns
                    continue
            handle = self.engines[shard].oltp.prepare(sub_txns[shard])
            prepared[shard] = handle
            if not handle.vote_yes:
                votes[shard] = False
                causes.append("vote_no")
                if remote:
                    msg_time += self.interconnect_ns  # the no-vote reply
                continue
            if remote and inj.enabled and inj.fire(
                fault_plan.TWOPC_PARTICIPANT_TIMEOUT
            ):
                # The participant executed and voted yes, but the vote
                # never arrived; the coordinator times out and decides
                # abort — the prepared participant is resolved below.
                inj.detect(fault_plan.TWOPC_PARTICIPANT_TIMEOUT)
                votes[shard] = False
                causes.append(fault_plan.TWOPC_PARTICIPANT_TIMEOUT)
                wait_time += self.timeout_ns
                continue
            votes[shard] = True
            if remote:
                msg_time += self.interconnect_ns  # yes-vote reply

        decide_commit = all(votes.values())
        abort_cause: Optional[str] = None
        coordinator_silent = False
        if decide_commit and inj.enabled and inj.fire(
            fault_plan.TWOPC_COORDINATOR_CRASH
        ):
            # Every vote was yes, but the coordinator dies before any
            # decision leaves it. Presumed abort: no decision message
            # ever travels; each prepared participant times out and
            # unilaterally aborts.
            inj.detect(fault_plan.TWOPC_COORDINATOR_CRASH)
            decide_commit = False
            coordinator_silent = True
            abort_cause = fault_plan.TWOPC_COORDINATOR_CRASH
        elif not decide_commit:
            abort_cause = causes[0]

        per_shard: Dict[int, TxnResult] = {}
        outcome_row: Dict[int, str] = {}
        for shard in order:
            handle = prepared.get(shard)
            if handle is None:
                # Lost prepare: nothing executed, nothing to resolve.
                outcome_row[shard] = "aborted"
                continue
            if not handle.vote_yes:
                per_shard[shard] = handle.result
                outcome_row[shard] = "aborted"
                continue
            if decide_commit:
                per_shard[shard] = self.engines[shard].oltp.commit_prepared(handle)
                outcome_row[shard] = "committed"
                if shard != home:
                    msg_time += 2 * self.interconnect_ns  # decision + ack
            else:
                per_shard[shard] = self.engines[shard].oltp.abort_prepared(handle)
                outcome_row[shard] = "aborted"
                if coordinator_silent:
                    wait_time += self.timeout_ns  # resolved by timeout
                elif shard != home:
                    msg_time += self.interconnect_ns  # abort notification
        self.outcomes.append(outcome_row)

        exec_time = sum(r.total_time for r in per_shard.values())
        coordination = msg_time + wait_time
        self.coordination_time += coordination
        latency = exec_time + coordination
        if decide_commit:
            self.committed += 1
        else:
            self.aborted += 1
            self.aborts_by_cause[abort_cause] = (
                self.aborts_by_cause.get(abort_cause, 0) + 1
            )
        if tel.enabled:
            tel.counter("cluster.twopc.attempted").inc()
            if decide_commit:
                tel.counter("cluster.twopc.committed").inc()
            else:
                tel.counter("cluster.twopc.aborted").inc()
                tel.counter(f"cluster.twopc.aborted.{abort_cause}").inc()
            tel.histogram("cluster.twopc.latency_ns").observe(latency)
            tel.record_span(
                "cluster.twopc",
                latency,
                {"home": home, "participants": len(order)},
            )
        return TwoPhaseOutcome(
            committed=decide_commit,
            latency=latency,
            coordination_time=coordination,
            abort_cause=abort_cause,
            per_shard=per_shard,
        )

    def atomicity_violations(self) -> List[str]:
        """Transactions where one shard committed while another aborted.

        Always empty when the protocol is correct — every fault-sweep
        cell asserts this over the full outcome log.
        """
        found: List[str] = []
        for index, row in enumerate(self.outcomes):
            statuses = set(row.values())
            if "committed" in statuses and "aborted" in statuses:
                found.append(f"cross-shard txn {index}: mixed outcomes {row}")
        return found
