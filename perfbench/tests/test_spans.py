"""Span recording and the self-time arithmetic."""

import numpy as np
import pytest

from perfbench.spans import Tracer, aggregate, self_times


def test_self_time_of_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8];
    # d [12, 13] is a second root.
    parent = np.array([-1, 0, 0, 2, -1])
    start = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
    end = np.array([10.0, 4.0, 9.0, 8.0, 13.0])
    assert self_times(parent, start, end).tolist() == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_aggregate_folds_spans_by_name():
    names = ["root", "leaf"]
    folded = aggregate(names, np.array([0, 1, 1]), np.array([3.0, 2.0, 0.5]))
    assert folded == {"root": (1, 3.0), "leaf": (2, 2.5)}


class _Clock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrapped_calls_nest_and_sum():
    tracer = Tracer(clock=_Clock())
    leaf = tracer.wrap(lambda: None, "leaf")

    def middle():
        leaf()
        leaf()

    middle = tracer.wrap(middle, "middle")
    with tracer.span("root"):
        middle()
    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name_idx"]] == ["root", "middle", "leaf", "leaf"]
    assert spans["parent"].tolist() == [-1, 0, 1, 1]
    # Clock readings: root 1..8, middle 2..7, leaves 3..4 and 5..6.
    assert spans["self"].tolist() == [2.0, 3.0, 1.0, 1.0]
    assert tracer.summary() == {"root": (1, 2.0), "middle": (1, 3.0), "leaf": (2, 2.0)}


def test_generator_spans_cover_each_item():
    tracer = Tracer(clock=_Clock())
    items = tracer.wrap_generator(lambda n: iter(range(n)), "gen")
    assert list(items(3)) == [0, 1, 2]
    # Three items plus the final StopIteration.
    assert tracer.summary()["gen"][0] == 4


def test_patched_restores_originals():
    from repro.format.layout import UnifiedLayout

    original = UnifiedLayout.__dict__["pack_row"]
    tracer = Tracer()
    with tracer.patched():
        assert UnifiedLayout.__dict__["pack_row"] is not original
    assert UnifiedLayout.__dict__["pack_row"] is original


def test_patched_restores_after_an_error():
    from repro.pim.device import Device

    original = Device.__dict__["write"]
    with pytest.raises(RuntimeError):
        with Tracer().patched():
            raise RuntimeError("boom")
    assert Device.__dict__["write"] is original
