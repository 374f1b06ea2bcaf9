"""Host-speed normalisation arithmetic."""

import pytest

from perfbench.hostspeed import REFERENCE_S, HostSpeed


def _speed(marks):
    speed = HostSpeed()
    speed.marks = list(marks)
    return speed


#: Reference runs of 2, 1, 2, 2 and 4 ms.
MARKS = [(0.0, 0.002), (1.0, 1.001), (2.0, 2.002), (3.0, 3.002), (4.0, 4.004)]


def test_interval_excludes_marks_and_rescales_each_segment():
    # Segment i runs at the mean of marks i and i+1: 1.5, 1.5, 2 and 3 ms.
    raw, norm = _speed(MARKS).interval(0.0, 5.0)
    lengths = [0.998, 0.999, 0.998, 0.998]
    assert raw == pytest.approx(sum(lengths))
    loop = [0.0015, 0.0015, 0.002, 0.003]
    assert norm == pytest.approx(sum(n * REFERENCE_S / t for n, t in zip(lengths, loop)))


def test_interval_clips_to_the_window():
    raw, norm = _speed(MARKS).interval(3.5, 3.75)
    assert raw == pytest.approx(0.25)
    assert norm == pytest.approx(0.25 * REFERENCE_S / 0.003)


def test_factors_follow_the_segment_of_each_time():
    assert _speed(MARKS).factors_at([0.5, 3.5]) == pytest.approx(
        [REFERENCE_S / 0.0015, REFERENCE_S / 0.003]
    )


def test_ticking_marks_inside_calls_and_restores():
    from repro import units

    original = units.ceil_div
    speed = HostSpeed()
    with speed.ticking([("repro.units", "ceil_div")]):
        assert units.ceil_div(5, 2) == 3
    assert len(speed.marks) == 1
    assert units.ceil_div is original


def test_tick_respects_the_interval():
    now = [0.0]
    speed = HostSpeed(clock=lambda: now[0])
    speed.tick(force=True)
    speed.tick()
    assert len(speed.marks) == 1
    now[0] = 1.0
    speed.tick()
    assert len(speed.marks) == 2
