"""Self-test of the ledger, in quick mode. Not part of tier-1; run it with

    python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.ledger import compare, metrics, phases, run, sets, spans  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS, AnalyticsScan  # noqa: E402

QUICK_SECONDS = 1


def quick_ops(name: str) -> int:
    return phases.op_count(WORKLOADS[name], QUICK_SECONDS)


# ------------------------------------------------------------------ spans


def test_self_time_on_a_hand_built_trace():
    # root 0..100 holds a (10..40, itself holding b 20..30) and c (50..90).
    trace = [
        ["root", "engine", 0, 100, -1, 0],
        ["a", "executor", 10, 40, 0, 0],
        ["b", "net", 20, 30, 1, 0],
        ["c", "engine", 50, 90, 0, 0],
        ["w", "engine", 22, 28, 2, 0],  # beneath the net span: a worker
        ["setup", "engine", 200, 300, -1, -1],  # outside any op
    ]
    assert spans.self_times(trace) == [30, 20, 4, 40, 6, 100]
    assert spans.side_labels(trace) == [
        "engine.coord", "executor", "net", "engine.coord", "engine.worker",
        "engine.coord"]
    summary = spans.summarize(trace)
    assert summary["layer_self_ns"] == {
        "engine.coord": 70, "executor": 20, "net": 4, "engine.worker": 6}
    assert sum(summary["layer_self_ns"].values()) == 100  # the op's wall time
    assert summary["worker_statements"] == 1
    assert summary["inclusive_ns"]["a"] == 30 and summary["calls"]["a"] == 1


def test_recursion_stays_one_span():
    recorder = spans.SpanRecorder()

    class Tree:
        def walk(self, depth):
            return depth if depth == 0 else self.walk(depth - 1)

    original = Tree.walk
    recorder.wrap(Tree, "walk", "sql", "Tree.walk")
    recorder.enabled = True
    Tree().walk(5)
    assert len(recorder.spans) == 1
    recorder.remove()
    assert Tree.walk is original


def test_wrapped_callables_are_restored_after_a_traced_run():
    methods, functions = spans.targets()
    before = [vars(owner)[attr] for owner, attr, _layer in methods]
    homes = [sys.modules[fn.__module__] for fn, _layer in functions]
    record = phases.traced_run(WORKLOADS["oltp_point"], 1, 200)
    assert record["failed"] == 0
    for (owner, attr, _layer), original in zip(methods, before):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    for (fn, _layer), home in zip(functions, homes):
        assert vars(home)[fn.__name__] is fn
    # The acceptance split: most of a traced op is attributed.
    assert record["metrics"]["trace.unattributed_frac"] <= 0.15
    assert os.path.getsize(os.path.join(phases.RESULTS_DIR, "trace_oltp_point.json")) \
        < 1 << 20


# ---------------------------------------------------------------- metrics


def test_declarations_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    declared = metrics.END_TO_END + metrics.PER_LAYER
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m.name)
               for m in declared)
    assert len({m.name for m in declared}) == len(declared)
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOADS.values()]
    assert contract["paths"] == ["benchmarks/ledger"]
    assert contract["run_seconds"] == run.DEFAULT_SECONDS


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(workload, trace, capsys):
    status = run.main(["--workload", workload, "--seed", "5",
                       "--seconds", str(QUICK_SECONDS), "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m.name for m in declared]
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["telemetry.sim_identical"]["value"] == 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


# ------------------------------------------------------------ correctness


def test_a_planted_wrong_row_fails_the_op_and_the_exit_code(monkeypatch, capsys):
    build = AnalyticsScan.build_reference

    def planted(self):
        reference = build(self)
        reference["order_limit"][0] = [-1, -1]
        return reference

    monkeypatch.setattr(AnalyticsScan, "build_reference", planted)
    status = run.main(["--workload", "analytics_scan", "--seed", "5",
                       "--seconds", str(QUICK_SECONDS), "--trace", "0"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert status == 1 and result["correct"] is False
    # Warm-up and measured ops each ran the shape once and each failed.
    assert result["failed"] == result["attempted"]
    assert "order_limit" in captured.err


# ------------------------------------------------------------ determinism


def test_sim_metrics_repeat_for_a_seed_and_differ_across_seeds():
    ops = quick_ops("traffic_mix")
    first, again, other = (
        metrics.sim_metrics(phases.run_phase(WORKLOADS["traffic_mix"], seed, ops))
        for seed in (5, 5, 6))
    assert first == again
    assert first != other


# ----------------------------------------------------------- sets, compare


def test_quick_set_and_compare(tmp_path, capsys):
    class Args:
        seed, seconds, quick = 5, run.DEFAULT_SECONDS, True
        out = str(tmp_path / "a.json")

    assert sets.run_set(Args) == 0
    with open(Args.out) as f:
        ledger = json.load(f)
    stamp = ledger["stamp"]
    assert stamp["seed"] == 5 and stamp["repeats"] == list(sets.QUICK_REPEATS)
    assert set(stamp) >= {"commit", "ops", "python", "nproc", "wall_seconds_total"}
    for name, entry in ledger["workloads"].items():
        assert entry["why"] == WORKLOADS[name].why
        assert entry["deterministic"] and entry["failed"] == 0
        assert len(entry["canary_us"]) >= 2
        sim = entry["end_to_end"]["sim_ops_per_s"]
        assert sim["min"] == sim["max"]  # exact across repeats of one seed

    # A ledger agrees with itself; one made 40 % slower is worse. (Two
    # quick repeats can spread wider than the bound, so pin the quartiles.)
    assert compare.main([Args.out, Args.out]) == 0
    row = ledger["workloads"]["oltp_point"]["end_to_end"]["wall_ops_per_s"]
    paths = []
    for factor in (1.0, 0.6):
        row["q1"] = row["q3"] = row["median"] = row["median"] * factor
        paths.append(str(tmp_path / f"pinned_{factor}.json"))
        with open(paths[-1], "w") as f:
            json.dump(ledger, f)
    capsys.readouterr()
    assert compare.main(paths) == 1
    assert "worse" in capsys.readouterr().out


def test_compare_reports_noisy_sets_as_unresolved():
    def row(median, q1, q3):
        return {"median": median, "q1": q1, "q3": q3, "better": "lower",
                "bound": 0.10}

    assert compare.verdict(row(100, 99, 101), row(105, 104, 106)) == "ok"
    assert compare.verdict(row(100, 99, 101), row(115, 114, 116)) == "worse"
    assert compare.verdict(row(100, 80, 120), row(115, 114, 116)) == "unresolved"
