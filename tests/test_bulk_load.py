"""The block-at-a-time bulk load against a row-at-a-time reference.

:meth:`TableRuntime.load_rows` packs each block of rows once
(:meth:`UnifiedLayout.pack_rows`) and writes each (block, part, slot) with
one device call (:meth:`TableStorage.write_rows`). The reference below
loads the same rows one :meth:`TableStorage.write_row` at a time; every
device byte and every index entry must come out identical.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import PushTapCluster
from repro.core.engine import PushTapEngine
from repro.core.table import TableRuntime
from repro.errors import MemoryError_, SchemaError, TransactionError
from repro.format.binpack import compact_aligned_layout
from repro.format.schema import Column, TableSchema
from repro.mvcc.metadata import Region, RowRef

#: A custom table whose ``note`` column is split over slots and parts.
SPLIT_SCHEMA = TableSchema.of(
    "t",
    [Column("k", 4), Column("v", 8), Column("note", 300, "bytes"), Column("flag", 1)],
)
SPLIT_KEYS = ["k", "v"]


def split_rows(n, seed=0):
    rng = np.random.RandomState(seed)
    return [
        {
            "k": i + 1,
            "v": int(rng.randint(0, 2**31)) * 3,
            "note": bytes(rng.randint(1, 256, size=rng.randint(0, 301)).tolist()),
            "flag": i % 2,
        }
        for i in range(n)
    ]


def _row_at_a_time(self, rows, index=None):
    """Reference loader: one write_row and one index insert per row."""
    count = 0
    for row_id, values in enumerate(rows):
        self.storage.write_row(RowRef(Region.DATA, row_id), values)
        if index is not None:
            index[0].insert(index[1](values), row_id)
        count += 1
    return count


def engine_state(engines):
    """sha256 of every device's memory and every index's entries."""
    out = {}
    for e, engine in enumerate(engines):
        for r, rank in enumerate(engine.ranks):
            for d, device in enumerate(rank.devices):
                out[(e, r, d)] = hashlib.sha256(device.data.tobytes()).hexdigest()
        for name, index in engine.db.indexes.items():
            out[(e, name)] = {k: index.probe(k).row_id for k in index.keys()}
    return out


def assert_matches_reference(monkeypatch, build):
    bulk = engine_state(build())
    with monkeypatch.context() as patch:
        patch.setattr(TableRuntime, "load_rows", _row_at_a_time)
        reference = engine_state(build())
    assert bulk.keys() == reference.keys()
    for key in reference:
        assert bulk[key] == reference[key], key


def _ch(**kwargs):
    return lambda: [PushTapEngine.build(scale=2e-5, **kwargs)]


@pytest.mark.parametrize(
    "build",
    [
        _ch(circulant=True),
        _ch(circulant=False),
        _ch(block_rows=7),
        _ch(ranks=2),
        lambda: PushTapCluster.build(shards=2, scale=2e-5).engines,
        lambda: [
            PushTapEngine.build_custom(
                {"t": SPLIT_SCHEMA},
                {"t": SPLIT_KEYS},
                {"t": split_rows(50)},
                block_rows=16,
                index_keys={"t": ("t_pk", lambda r: r["k"])},
            )
        ],
    ],
    ids=["circulant", "no-circulant", "block7", "ranks2", "row-filter-shards", "custom-split"],
)
def test_bulk_load_matches_row_at_a_time(monkeypatch, build):
    assert_matches_reference(monkeypatch, build)


def test_custom_split_column_really_splits():
    layout = compact_aligned_layout(SPLIT_SCHEMA, SPLIT_KEYS, 8, 0.6)
    runs = layout.column_runs("note")
    assert len({r.part_index for r in runs}) > 1
    assert len({(r.part_index, r.slot_index) for r in runs}) > 8


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries(
            {
                "k": st.integers(0, 2**32 - 1),
                "v": st.integers(0, 2**64 - 1),
                "note": st.binary(max_size=300),
                "flag": st.integers(0, 255),
            }
        ),
        max_size=12,
    )
)
def test_pack_rows_matches_pack_row(rows):
    layout = compact_aligned_layout(SPLIT_SCHEMA, SPLIT_KEYS, 8, 0.6)
    packed = layout.pack_rows(rows)
    for p, part in enumerate(layout.parts):
        for s in range(part.num_slots):
            assert packed[p][s].shape == (len(rows), part.row_width)
            for i, row in enumerate(rows):
                np.testing.assert_array_equal(packed[p][s][i], layout.pack_row(row)[p][s])


#: One defect per kind of bad value ``encode_row`` rejects.
BREAKS = {
    "wrong-type": lambda row: row.update(v=b"not an int"),
    "negative": lambda row: row.update(k=-1),
    "above-max": lambda row: row.update(flag=SPLIT_SCHEMA.column("flag").max_int + 1),
    "too-long": lambda row: row.update(note=b"x" * 301),
    "missing": lambda row: row.pop("v"),
}


@pytest.mark.parametrize("kind", sorted(BREAKS))
def test_bad_row_raises_its_own_error(kind):
    rows = split_rows(10)
    BREAKS[kind](rows[3])
    # A later row with a different defect must not mask the first one.
    rows[6]["note"] = 12
    with pytest.raises(SchemaError) as expected:
        SPLIT_SCHEMA.encode_row(rows[3])
    layout = compact_aligned_layout(SPLIT_SCHEMA, SPLIT_KEYS, 8, 0.6)
    with pytest.raises(SchemaError) as got:
        layout.pack_rows(rows)
    assert str(got.value) == str(expected.value)


def test_bool_values_encode_like_pack_row():
    """Values the vector checks decline still pack, via encode_row."""
    layout = compact_aligned_layout(SPLIT_SCHEMA, SPLIT_KEYS, 8, 0.6)
    rows = split_rows(3)
    rows[1]["flag"] = True
    packed = layout.pack_rows(rows)
    for p, part in enumerate(layout.parts):
        for s in range(part.num_slots):
            np.testing.assert_array_equal(packed[p][s][1], layout.pack_row(rows[1])[p][s])


def _split_engine(n, block_rows=8):
    return PushTapEngine.build_custom(
        {"t": SPLIT_SCHEMA}, {"t": SPLIT_KEYS}, {"t": split_rows(n)}, block_rows=block_rows
    )


def _memory(engine):
    return [device.data.copy() for device in engine.rank.devices]


def test_overflow_rejected_before_any_write():
    engine = _split_engine(20)
    runtime = engine.table("t")
    before = _memory(engine)
    rows = split_rows(20) + [dict(split_rows(1, seed=9)[0], k=21)]
    with pytest.raises(TransactionError):
        runtime.load_rows(rows)
    for old, new in zip(before, _memory(engine)):
        np.testing.assert_array_equal(old, new)


def test_write_rows_rejects_past_capacity():
    engine = _split_engine(20)
    storage = engine.table("t").storage
    before = _memory(engine)
    with pytest.raises(MemoryError_):
        storage.write_rows(split_rows(2), start=storage.capacity_rows - 1)
    for old, new in zip(before, _memory(engine)):
        np.testing.assert_array_equal(old, new)


def test_write_rows_unaligned_start_matches_write_row():
    """A start inside a block splits the rows at block boundaries."""
    bulk, reference = _split_engine(20), _split_engine(20)
    rows = split_rows(13, seed=4)
    bulk.table("t").storage.write_rows(rows, start=5)
    for i, values in enumerate(rows):
        reference.table("t").storage.write_row(RowRef(Region.DATA, 5 + i), values)
    for a, b in zip(_memory(bulk), _memory(reference)):
        np.testing.assert_array_equal(a, b)
