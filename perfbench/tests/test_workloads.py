"""Tiny-size smoke of every workload, the checks' failure paths, and the
contract between the printed metrics and BENCHMARK.json."""

import json
import os

import pytest

from perfbench import checks, measure as measure_mod, run, workloads
from perfbench.measure import measure, measure_traced

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SECONDS = 0.2


def tiny(name: str) -> workloads.Workload:
    """The named workload at a size that builds and runs in seconds."""
    base = workloads.WORKLOADS[name]
    overrides = {
        "oltp": dict(scale=2e-5, window=60, defrag_period=25),
        "olap": dict(scale=2e-5, window=7, prefix_txns=30, defrag_period=25),
        "htap": dict(scale=2e-5, window=62, defrag_period=25),
        "cluster": dict(scale=2e-5, window=2, txns_per_query=10, defrag_period=5),
    }[name]
    return type(f"Tiny{type(base).__name__}", (type(base),), overrides)()


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_prints_every_end_to_end_metric(name):
    outcome = measure(tiny(name), seed=3, seconds=SECONDS)
    assert outcome.correct, outcome.problems
    assert outcome.attempted > 0 and outcome.failed == 0
    wanted = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == wanted
    assert all(value > 0 for value, _ in outcome.metrics.values())


def test_traced_counts_repeat_for_one_seed(tmp_path):
    workload = tiny("htap")
    first = measure_traced(workload, 5, SECONDS, str(tmp_path / "a.npz"))
    second = measure_traced(workload, 5, SECONDS, str(tmp_path / "b.npz"))
    assert first.correct and second.correct, first.problems + second.problems
    for name in (
        "pim.device_write_calls",
        "format.pack_row_calls",
        "pim.execute_calls",
        "core.defrag_calls",
    ):
        assert first.metrics[name][0] > 0
        assert first.metrics[name] == second.metrics[name], name
    wanted = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: unit for k, (_, unit) in first.metrics.items()} == wanted
    assert (tmp_path / "a.npz").exists()


def test_cluster_trace_records_cluster_layers(tmp_path):
    outcome = measure_traced(tiny("cluster"), 2, SECONDS, str(tmp_path / "c.npz"))
    assert outcome.correct, outcome.problems
    assert outcome.metrics["cluster.route_calls"][0] > 0
    assert outcome.extra["cluster.twopc_self_s"][0] >= 0


def test_answer_mismatch_is_reported():
    good = {"Q6": {"revenue": 10}}
    assert checks.answer_mismatches(good, {"Q6": {"revenue": 10}}) == []
    assert checks.answer_mismatches(good, {"Q6": {"revenue": 11}}) == ["Q6"]


def _run_main(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "oltp", tiny("oltp"))
    code = run.main(["--workload", "oltp", "--seed", "1", "--seconds", str(SECONDS)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_command_passes_on_a_correct_run(monkeypatch, capsys):
    code, result = _run_main(monkeypatch, capsys)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_command_fails_on_a_wrong_answer(monkeypatch, capsys):
    def wrong(engines):
        answers = checks.rowwise_answers(engines)
        answers["Q6"]["revenue"] += 1
        return answers

    monkeypatch.setattr(measure_mod.checks, "rowwise_answers", wrong)
    code, result = _run_main(monkeypatch, capsys)
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def test_command_fails_on_an_invariant_violation(monkeypatch, capsys):
    monkeypatch.setattr(measure_mod.checks, "audit", lambda engines: ["made-up violation"])
    code, result = _run_main(monkeypatch, capsys)
    assert code == 1 and result["correct"] is False


def test_command_fails_when_simulated_metrics_drift(monkeypatch, capsys):
    real = measure_mod._window_sim
    calls = []

    def drifting(ops, sim_ns):
        calls.append(1)
        return real(ops, sim_ns + len(calls))

    monkeypatch.setattr(measure_mod, "_window_sim", drifting)
    code, result = _run_main(monkeypatch, capsys)
    assert code == 1 and result["correct"] is False
