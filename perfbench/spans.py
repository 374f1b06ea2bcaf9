"""In-memory span tracer that wraps the program's public functions.

The traced run patches the functions listed in :data:`TARGETS` for the
duration of a ``with Tracer().patched():`` block. Every call becomes one
span ``(name, start, end, parent)`` kept in four flat arrays, so even the
~2 M ``Device.write`` calls of a 5e-4 build fit in tens of MiB. Nothing
under ``src/`` is edited: the wrappers are installed on the classes and
modules from here and removed when the block exits.

A span's self time is its duration minus the time its child spans cover.
The program is single-threaded and the wrappers nest strictly (a stack),
so the children of one span never overlap and the time they cover is the
sum of their durations (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from array import array
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["TARGETS", "Tracer", "self_times", "aggregate", "patch"]

#: (module, attribute path, span name, is_generator). Span names are the
#: per-layer metric stems: ``<span>_self_s`` and ``<span>_calls``.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    # repro.workloads: the bulk-load generator (iterated inside build;
    # engine.py imports it by name) and the TPC-C parameter driver.
    ("repro.core.engine", "generate_table", "workloads.generate", True),
    ("repro.oltp.tpcc", "TPCCDriver.next_transaction", "workloads.next_txn", False),
    # repro.format
    ("repro.format.layout", "UnifiedLayout.pack_row", "format.pack_row", False),
    # repro.pim
    ("repro.pim.device", "Device.write", "pim.device_write", False),
    ("repro.pim.device", "Device.read", "pim.device_read", False),
    ("repro.pim.executor", "TwoPhaseExecutor.execute", "pim.execute", False),
    ("repro.pim.pim_unit", "PIMUnit.load_strided", "pim.unit", False),
    ("repro.pim.pim_unit", "PIMUnit.store_dense", "pim.unit", False),
    ("repro.pim.pim_unit", "PIMUnit.op_filter", "pim.unit", False),
    ("repro.pim.pim_unit", "PIMUnit.op_group", "pim.unit", False),
    ("repro.pim.pim_unit", "PIMUnit.op_aggregation", "pim.unit", False),
    ("repro.pim.pim_unit", "PIMUnit.op_hash", "pim.unit", False),
    ("repro.pim.pim_unit", "PIMUnit.op_join", "pim.unit", False),
    # repro.core
    ("repro.core.storage", "TableStorage.write_row", "core.write_row", False),
    ("repro.core.storage", "TableStorage.read_row", "core.read_row", False),
    ("repro.core.storage", "TableStorage.copy_row", "core.copy_row", False),
    ("repro.core.storage", "TableStorage.write_columns", "core.write_columns", False),
    ("repro.core.snapshot", "SnapshotManager.update_to", "core.snapshot", False),
    ("repro.core.engine", "PushTapEngine.defragment", "core.defrag", False),
    # repro.mvcc
    ("repro.mvcc.manager", "MVCCManager.read", "mvcc.read", False),
    ("repro.mvcc.manager", "MVCCManager.read_many", "mvcc.read", False),
    ("repro.mvcc.manager", "MVCCManager.update", "mvcc.write", False),
    ("repro.mvcc.manager", "MVCCManager.insert", "mvcc.write", False),
    ("repro.mvcc.manager", "MVCCManager.delete", "mvcc.write", False),
    ("repro.mvcc.manager", "MVCCManager.compact", "mvcc.compact", False),
    # repro.oltp (prepare is the 2PC participant's execute)
    ("repro.oltp.engine", "OLTPEngine.execute", "oltp.execute", False),
    ("repro.oltp.engine", "OLTPEngine.prepare", "oltp.execute", False),
    ("repro.oltp.index", "HashIndex.probe", "oltp.index_probe", False),
    # repro.olap (engine.py imports run_query by name)
    ("repro.olap.engine", "OLAPEngine.filter", "olap.operator", False),
    ("repro.olap.engine", "OLAPEngine.group", "olap.operator", False),
    ("repro.olap.engine", "OLAPEngine.aggregate", "olap.operator", False),
    ("repro.olap.engine", "OLAPEngine.hash_scan", "olap.operator", False),
    ("repro.olap.engine", "OLAPEngine.join", "olap.operator", False),
    ("repro.olap.engine", "OLAPEngine.filtered_sum", "olap.operator", False),
    ("repro.olap.engine", "OLAPEngine.cpu_filter", "olap.operator", False),
    ("repro.core.engine", "run_query", "olap.query", False),
    # repro.cluster (cluster.py imports merge_rows by name)
    ("repro.cluster.router", "ShardRouter.involved_shards", "cluster.route", False),
    ("repro.cluster.router", "ShardRouter.home_shard", "cluster.route", False),
    ("repro.cluster.router", "ShardRouter.split", "cluster.route", False),
    ("repro.cluster.twopc", "TwoPhaseCommit.execute", "cluster.twopc", False),
    ("repro.cluster.cluster", "merge_rows", "cluster.gather", False),
)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed duration of its
    children (``parent`` holds each span's parent index, -1 for roots)."""
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


def aggregate(
    names: Sequence[str], name_idx: np.ndarray, self_s: np.ndarray
) -> Dict[str, Tuple[int, float]]:
    """Fold spans by name into ``{name: (calls, self seconds)}``."""
    name_idx = np.asarray(name_idx, dtype=np.int64)
    calls = np.bincount(name_idx, minlength=len(names))
    total = np.bincount(name_idx, weights=self_s, minlength=len(names))
    return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(names)}


def _resolve(module: str, path: str) -> Tuple[object, str]:
    """The object holding ``module.path`` and the attribute name."""
    owner: object = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patch(replacements: Iterable[Tuple[str, str, Callable[[Callable], Callable]]]):
    """Replace each ``module.path`` function by ``make(original)`` for the
    duration of the block; the originals are restored on exit."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for module, path, make in replacements:
            owner, attr = _resolve(module, path)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{module}.{path}: only plain functions are wrapped")
            setattr(owner, attr, make(original))
            undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Tracer:
    """Records spans of wrapped calls in flat in-memory arrays."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_idx = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped so every call is one span."""
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function: every ``next`` is one span."""
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                yield item

        return traced

    def patched(self, targets: Sequence[Tuple[str, str, str, bool]] = TARGETS):
        """Install the span wrappers for the duration of a ``with`` block."""
        return patch(
            (module, path, functools.partial(self.wrap_generator if gen else self.wrap, name=name))
            for module, path, name, gen in targets
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (plus per-span self time)."""
        parent = np.frombuffer(self.parent, dtype=np.dtype(self.parent.typecode))
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return {
            "name_idx": np.frombuffer(self.name_idx, dtype=np.uint16).copy(),
            "parent": parent.astype(np.int64),
            "start": start.copy(),
            "end": end.copy(),
            "self": self_times(parent, start, end),
        }

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over every recorded span."""
        spans = self.arrays()
        return aggregate(self.names, spans["name_idx"], spans["self"])

    def write(self, path: str) -> None:
        """Write every span (names, parents, start/end, self) to ``path``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
