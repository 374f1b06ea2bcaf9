"""The benchmark's four workloads, driven through public entry points only.

Every workload is closed loop with one client (this process): the next
operation is sent when the previous one returns. An *operation* is one
``execute_transaction`` or ``query`` call; a defragmentation pause is not
an operation, but its host time counts in the run phase. A *step* is the
unit the run loop advances by: one operation for the single-engine
workloads, one ``ClusterWorkload.run(1)`` interval for ``cluster``.

The first ``window`` steps of every run are a fixed, seed-determined
sequence: the simulated metrics, the determinism replay and the traced
run all cover exactly that window, so they repeat bit for bit. The host
run phase continues past the window until ``--seconds`` have elapsed or
``max_steps`` is reached; insert capacity (``extra_rows``) is sized from
that cap, so a run can never fill a table.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import PushTapEngine
from repro.cluster import ClusterWorkload, PushTapCluster, cluster_row_counts

__all__ = ["OpRecord", "Recorder", "Workload", "WORKLOADS", "CHECKED_QUERIES"]

#: The seven implemented CH queries, one round of the ``olap`` workload.
QUERY_ROUND = ("Q1", "Q4", "Q6", "Q9", "Q12", "Q14", "Q17")
#: The queries whose final answers are recomputed row by row.
CHECKED_QUERIES = ("Q1", "Q6", "Q9")
#: Insert capacity per transaction sent: a NewOrder appends one ORDER,
#: one NEWORDER and 5-15 ORDERLINE rows (10 on average), a Payment one
#: HISTORY row. With at most half the mix NewOrder, a table gains ~5 rows
#: per transaction on average; 12 per transaction on every table (the
#: cluster bench cell's sizing) leaves wide headroom.
ROWS_PER_TXN = 12
#: Transactions between defragmentations (scaled down from the paper's
#: 10k at full scale, like every scaled run in the repo).
DEFRAG_PERIOD = 200


@dataclass
class OpRecord:
    """One operation as the client saw it."""

    kind: str  # "txn" or "query"
    host_s: float
    sim_ns: float
    ok: bool  # committed (txn) / answered (query)
    end: float  # host clock at return


class Recorder:
    """Times every operation and sums the simulated breakdowns carried by
    its result objects (``TxnResult.breakdown``, ``QueryTiming``,
    ``ExecutionResult``, ``DefragResult``)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.ops: List[OpRecord] = []
        self.sim: Dict[str, float] = defaultdict(float)

    # -- result objects -------------------------------------------------
    def note_txn(self, result) -> None:
        b = result.breakdown
        sim = self.sim
        sim["oltp.txns"] += 1
        sim["oltp.committed"] += not result.aborted
        sim["oltp.sim_index_ns"] += b.index
        sim["oltp.sim_alloc_ns"] += b.alloc
        sim["oltp.sim_compute_ns"] += b.compute
        sim["oltp.sim_chain_ns"] += b.chain
        sim["oltp.sim_memory_ns"] += b.memory
        sim["oltp.sim_relayout_ns"] += b.relayout
        sim["oltp.sim_flush_ns"] += b.flush

    def note_query(self, result) -> None:
        timing = result.timing
        scan = timing.scan
        sim = self.sim
        sim["pim.sim_scan_ns"] += scan.total_time
        sim["pim.sim_load_ns"] += scan.load_time
        sim["pim.sim_compute_ns"] += scan.compute_time
        sim["pim.sim_control_ns"] += scan.control_time
        sim["pim.dram_bytes"] += scan.dram_bytes
        sim["core.sim_snapshot_ns"] += timing.snapshot_time
        sim["olap.sim_cpu_ns"] += timing.cpu_time
        sim["olap.sim_consistency_ns"] += timing.consistency_time

    def note_defrag(self, results) -> None:
        sim = self.sim
        sim["core.sim_defrag_ns"] += sum(r.total_time for r in results.values())
        sim["core.defrag_moved_rows"] += sum(r.moved_rows for r in results.values())

    # -- timed calls ------------------------------------------------------
    def txn(self, engine: PushTapEngine, txn) -> object:
        t0 = self.clock()
        result = engine.execute_transaction(txn, auto_defrag=False)
        t1 = self.clock()
        self.note_txn(result)
        self.ops.append(OpRecord("txn", t1 - t0, result.total_time, not result.aborted, t1))
        return result

    def query(self, engine: PushTapEngine, name: str) -> object:
        t0 = self.clock()
        result = engine.query(name)
        t1 = self.clock()
        self.note_query(result)
        self.ops.append(OpRecord("query", t1 - t0, result.total_time, True, t1))
        return result

    def defrag(self, engine: PushTapEngine) -> None:
        self.note_defrag(engine.defragment())

    # -- cluster shims ----------------------------------------------------
    def instrument_cluster(self, cluster: PushTapCluster) -> None:
        """Time the cluster's public calls as ``ClusterWorkload`` makes
        them (instance attributes shadow the class methods)."""
        run_txn, run_query = cluster.execute_transaction, cluster.query

        def execute_transaction(txn):
            t0 = self.clock()
            result = run_txn(txn)
            t1 = self.clock()
            for shard_result in result.per_shard.values():
                self.note_txn(shard_result)
            self.sim["cluster.txns"] += 1
            self.sim["cluster.cross_shard"] += result.cross_shard
            self.sim["cluster.cross_shard_committed"] += result.cross_shard and result.committed
            self.ops.append(OpRecord("txn", t1 - t0, result.latency, result.committed, t1))
            return result

        def query(name):
            t0 = self.clock()
            result = run_query(name)
            t1 = self.clock()
            for shard_result in result.shard_results:
                self.note_query(shard_result)
            self.ops.append(OpRecord("query", t1 - t0, result.total_time, True, t1))
            return result

        cluster.execute_transaction = execute_transaction
        cluster.query = query
        for engine in cluster.engines:
            self._instrument_defrag(engine)

    def _instrument_defrag(self, engine: PushTapEngine) -> None:
        run_defrag = engine.defragment

        def defragment(*args, **kwargs):
            results = run_defrag(*args, **kwargs)
            self.note_defrag(results)
            return results

        engine.defragment = defragment


class Workload:
    """One benchmark workload: how to build it, step it and query it."""

    name = ""
    scale = 0.0
    #: Steps in the deterministic window.
    window = 0
    #: Run-phase cap in steps per ``--seconds`` (about 3x this host's rate).
    max_steps_per_s = 0.0
    #: Upper bound of transactions sent per step.
    txns_per_step = 1.0
    defrag_period = DEFRAG_PERIOD

    def max_steps(self, seconds: float) -> int:
        return self.window + math.ceil(seconds * self.max_steps_per_s)

    def extra_rows(self, seconds: float) -> int:
        return ROWS_PER_TXN * math.ceil(self.max_steps(seconds) * self.txns_per_step)

    def build(self, seed: int, seconds: float):
        raise NotImplementedError

    def engines(self, system) -> List[PushTapEngine]:
        return [system]

    def sim_clock(self, system) -> float:
        """Simulated busy time so far: OLTP + OLAP + defrag (ns)."""
        return sum(
            e.stats.oltp_time + e.stats.olap_time + e.stats.defrag_time
            for e in self.engines(system)
        )

    def start(self, system, seed: int, rec: Recorder) -> Callable[[], None]:
        """Prepare the run on ``system``; returns the step function."""
        raise NotImplementedError

    def closing_queries(self, system, rec: Recorder) -> Dict[str, Dict]:
        """Run the checked queries; returns their answer rows."""
        return {name: rec.query(system, name).rows for name in CHECKED_QUERIES}


class _SingleEngine(Workload):
    payment_fraction = 0.5
    delivery_fraction = 0.0
    #: Committed-write transactions run before the window (olap only).
    prefix_txns = 0

    def extra_rows(self, seconds: float) -> int:
        return super().extra_rows(seconds) + ROWS_PER_TXN * self.prefix_txns

    def build(self, seed: int, seconds: float) -> PushTapEngine:
        return PushTapEngine.build(
            scale=self.scale,
            seed=seed,
            defrag_period=self.defrag_period,
            extra_rows=self.extra_rows(seconds),
        )

    def schedule(self, step: int) -> Optional[str]:
        """The query run at ``step``, or None for a transaction."""
        raise NotImplementedError

    def start(self, engine: PushTapEngine, seed: int, rec: Recorder) -> Callable[[], None]:
        driver = engine.make_driver(
            seed=seed,
            payment_fraction=self.payment_fraction,
            delivery_fraction=self.delivery_fraction,
        )

        def txn() -> None:
            if engine.defrag_due():
                rec.defrag(engine)
            txn_fn = driver.next_transaction()
            if rec.txn(engine, txn_fn).aborted:
                driver.note_abort(txn_fn)

        for _ in range(self.prefix_txns):
            txn()
        counter = [0]

        def step() -> None:
            query = self.schedule(counter[0])
            counter[0] += 1
            if query is None:
                txn()
            else:
                rec.query(engine, query)

        return step


class OLTP(_SingleEngine):
    """TPC-C Payment/NewOrder 50/50 (the paper's §7.1 mix)."""

    name = "oltp"
    scale = 1e-4
    window = 1000
    max_steps_per_s = 1000.0

    def schedule(self, step: int) -> Optional[str]:
        return None


class OLAP(_SingleEngine):
    """Repeated rounds of all seven implemented queries, no writes."""

    name = "olap"
    scale = 5e-4
    window = 15 * len(QUERY_ROUND)
    max_steps_per_s = 100.0
    txns_per_step = 0.0
    # One defrag period plus 50: the snapshot merges live delta versions.
    prefix_txns = DEFRAG_PERIOD + 50

    def schedule(self, step: int) -> Optional[str]:
        return QUERY_ROUND[step % len(QUERY_ROUND)]


class HTAP(_SingleEngine):
    """30 transactions (Payment 45 / NewOrder 45 / Delivery 10) between
    consecutive Q1/Q6/Q9 queries."""

    name = "htap"
    scale = 2e-4
    txns_per_query = 30
    queries = CHECKED_QUERIES
    window = 34 * (txns_per_query + 1)
    max_steps_per_s = 1000.0
    payment_fraction = 0.45
    delivery_fraction = 0.10

    def schedule(self, step: int) -> Optional[str]:
        interval, position = divmod(step, self.txns_per_query + 1)
        if position < self.txns_per_query:
            return None
        return self.queries[interval % len(self.queries)]


class Cluster(Workload):
    """4 warehouse-partitioned shards, one tenant per shard, every remote
    access allowed (remote_fraction=1.0), 50 txns per scatter-gather
    Q1/Q6/Q9 query."""

    name = "cluster"
    scale = 1e-4
    shards = 4
    txns_per_query = 50
    window = 20
    max_steps_per_s = 30.0

    def extra_rows(self, seconds: float) -> int:
        # Tenants map one-to-one onto shards and take turns, so each
        # shard's home tenant sends 1/shards of the transactions, and
        # only the home shard inserts.
        txns = self.max_steps(seconds) * self.txns_per_query
        return ROWS_PER_TXN * math.ceil(txns / self.shards)

    def build(self, seed: int, seconds: float) -> PushTapCluster:
        return PushTapCluster.build(
            shards=self.shards,
            counts=cluster_row_counts(self.scale, self.shards),
            seed=seed,
            defrag_period=self.defrag_period,
            extra_rows=self.extra_rows(seconds),
        )

    def engines(self, cluster: PushTapCluster) -> List[PushTapEngine]:
        return cluster.engines

    def sim_clock(self, cluster: PushTapCluster) -> float:
        """Cluster makespan: busiest shard plus serial coordination (ns)."""
        return cluster.simulated_time

    def start(self, cluster: PushTapCluster, seed: int, rec: Recorder) -> Callable[[], None]:
        rec.instrument_cluster(cluster)
        workload = ClusterWorkload(
            cluster,
            txns_per_query=self.txns_per_query,
            queries=CHECKED_QUERIES,
            seed=seed,
            remote_fraction=1.0,
            tenants=self.shards,
        )
        return lambda: workload.run(1)

    def closing_queries(self, cluster: PushTapCluster, rec: Recorder) -> Dict[str, Dict]:
        return {name: cluster.query(name).rows for name in CHECKED_QUERIES}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (OLTP(), OLAP(), HTAP(), Cluster())}

