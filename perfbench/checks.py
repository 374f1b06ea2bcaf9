"""Untimed correctness checks run at the end of every workload.

* the ``InvariantChecker`` audit of every engine (every shard) returns no
  violation;
* the final Q1/Q6/Q9 answers, computed by the PIM column path, equal a
  recomputation from rows read one at a time through
  ``TableRuntime.read_row`` (the CPU row path) at the same timestamp;
* the simulated metrics of the deterministic window repeat exactly when
  the window is replayed on a fresh build with the same seed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.faults.invariants import InvariantChecker
from repro.olap.queries import (
    _Q1_DELIVERY_CUTOFF,
    _Q6_DELIVERY_HI,
    _Q6_DELIVERY_LO,
    _Q6_QTY_HI,
    _Q6_QTY_LO,
    _Q9_IM_CUTOFF,
)

__all__ = ["audit", "rowwise_answers", "answer_mismatches", "sim_mismatches"]

_ORDERLINE_COLUMNS = ("ol_number", "ol_quantity", "ol_amount", "ol_delivery_d", "ol_i_id")


def audit(engines: Sequence) -> List[str]:
    """Invariant violations over every engine (prefixed by shard)."""
    found: List[str] = []
    for shard, engine in enumerate(engines):
        for violation in InvariantChecker(engine, raise_on_violation=False).check():
            found.append(f"shard {shard}: {violation}")
    return found


def rowwise_answers(engines: Sequence) -> Dict[str, Dict]:
    """Q1/Q6/Q9 recomputed from single-row reads at each engine's current
    read timestamp, summed over engines (the scatter-gather merge)."""
    q1: Dict[int, Dict[str, int]] = {}
    q6 = 0
    q9 = {"revenue": 0, "matches": 0}
    for engine in engines:
        ts = engine.db.oracle.read_timestamp()
        item = engine.table("item")
        cheap = set()
        for row_id in range(item.num_rows):
            row = item.read_row(row_id, ts, ("i_id", "i_im_id"))
            if row["i_im_id"] <= _Q9_IM_CUTOFF:
                cheap.add(row["i_id"])
        orderline = engine.table("orderline")
        for row_id in range(orderline.num_rows):
            row = orderline.read_row(row_id, ts, _ORDERLINE_COLUMNS)
            delivery, qty, amount = row["ol_delivery_d"], row["ol_quantity"], row["ol_amount"]
            if delivery > _Q1_DELIVERY_CUTOFF:
                group = q1.setdefault(
                    row["ol_number"], {"sum_qty": 0, "sum_amount": 0, "count": 0}
                )
                group["sum_qty"] += qty
                group["sum_amount"] += amount
                group["count"] += 1
            if _Q6_DELIVERY_LO <= delivery < _Q6_DELIVERY_HI and _Q6_QTY_LO <= qty <= _Q6_QTY_HI:
                q6 += amount
            if row["ol_i_id"] in cheap:
                q9["revenue"] += amount
                q9["matches"] += 1
    return {"Q1": q1, "Q6": {"revenue": q6}, "Q9": q9}


def answer_mismatches(got: Mapping[str, Dict], want: Mapping[str, Dict]) -> List[str]:
    """Names of the queries whose answer differs from the reference."""
    return [name for name in want if _plain(got.get(name)) != _plain(want[name])]


def _plain(value):
    """Normalise numpy scalars and key types so ``==`` compares values."""
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    if hasattr(value, "item"):
        return value.item()
    return value


def sim_mismatches(first: Mapping[str, float], second: Mapping[str, float]) -> List[str]:
    """Simulated metrics that differ (exactly) between two runs."""
    keys = sorted(set(first) | set(second))
    return [k for k in keys if first.get(k) != second.get(k)]
