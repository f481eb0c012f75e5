"""Tests of the benchmark itself: span self time, the oracle gate, smoke runs.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import gate, spans
from perfbench.oracle import check_answer, proximity_vectors, rank_tolerance
from perfbench.workloads import C, K, TIE_EPSILON, WORKLOADS, Inputs, input_dir

from repro import FLoSOptions, QuerySession, solve_direct
from repro.graph.generators.erdos_renyi import erdos_renyi
from repro.graph.io.binary import save_npz
from repro.measures import resolve_measure

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_of_nested_spans():
    #            0 root    1 a    2 a.x   3 b    4 root2  5 c    6 d    7 e
    start = [0.0, 1.0, 2.0, 5.0, 20.0, 21.0, 23.0, 28.0]
    end = [10.0, 4.0, 3.0, 6.0, 30.0, 25.0, 27.0, 35.0]
    parent = [-1, 0, 1, 0, -1, 4, 4, 4]
    own = spans.self_times(start, end, parent)
    # root: 10 - (a 3 + b 1); a: 3 - 1; leaves keep their duration.
    # root2: children c and d overlap on [23, 25] and e is clipped to
    # [28, 30], so they cover [21, 27] + [28, 30] = 8 of its 10.
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0, 2.0, 4.0, 4.0, 7.0])


def test_recorder_summary_and_layers():
    rec = spans.SpanRecorder()
    outer = rec.open("session.top_k")
    inner = rec.open("engine.run")
    rec.close(inner)
    rec.close(outer)
    summary = rec.summary()
    assert set(summary["spans"]) == {"session.top_k", "engine.run"}
    count, own, total = summary["spans"]["session.top_k"]
    assert count == 1 and own <= total
    layers = spans.layer_self_seconds(summary)
    assert set(layers) == {"session", "engine"}
    assert sum(layers.values()) == pytest.approx(total)


def test_tracer_wraps_and_restores_the_program():
    from repro.core.localgraph import LocalView

    original = LocalView.__dict__["expand_batch"]
    graph = erdos_renyi(200, 800, seed=3)
    rec = spans.SpanRecorder()
    tracer = spans.Tracer(rec)
    tracer.enable()
    try:
        QuerySession(graph, "php", c=C).top_k(0, K)
    finally:
        tracer.disable()
    assert LocalView.__dict__["expand_batch"] is original
    assert tracer.missing == []
    names = rec.summary()["spans"]
    for name in ("session.top_k", "engine.run", "localview.expand", "kernels.refresh"):
        assert names[name][0] >= 1
    assert rec.stats["runs"] == 1


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("measure", ["php", "rwr"])
def test_oracle_matches_direct_solve(measure):
    graph = erdos_renyi(150, 500, seed=5)
    queries = [0, 7, 42]
    vectors = proximity_vectors(graph.to_scipy(), measure, C, queries)
    for column, q in enumerate(queries):
        exact = solve_direct(resolve_measure(measure, c=C), graph, q)
        np.testing.assert_allclose(vectors[:, column], exact, atol=1e-10)


def _answer(graph, measure, q):
    session = QuerySession(
        graph, measure, c=C, options=FLoSOptions(tie_epsilon=TIE_EPSILON)
    )
    return session.top_k(q, K)


@pytest.mark.parametrize("measure", ["php", "rwr"])
def test_oracle_gate_fails_on_corrupted_answers(measure):
    graph = erdos_renyi(300, 1200, seed=11)
    q = 4
    result = _answer(graph, measure, q)
    values = proximity_vectors(graph.to_scipy(), measure, C, [q])[:, 0]
    tol = rank_tolerance(measure, values, float(graph.degree(q)), q, TIE_EPSILON)

    def verdict(nodes=result.nodes, lower=result.lower, upper=result.upper, exact=True):
        return check_answer(values, q, K, nodes, lower, upper, exact, tol)

    assert verdict() is None
    # Bounds that no longer bracket the truth.
    assert "outside certified" in verdict(lower=result.lower + 1e-3, upper=result.upper + 1e-3)
    # A far-away node swapped in (with bounds that bracket its value).
    order = np.argsort(-values)
    far = int(order[-1])
    nodes = result.nodes.copy()
    nodes[0] = far
    lower, upper = result.lower.copy(), result.upper.copy()
    lower[0] = upper[0] = values[far]
    assert "below the rank" in verdict(nodes=nodes, lower=lower, upper=upper)
    # A dropped node, a duplicate, an uncertified answer.
    assert "returned 9 nodes" in verdict(
        nodes=result.nodes[:-1], lower=result.lower[:-1], upper=result.upper[:-1]
    )
    dup = result.nodes.copy()
    dup[1] = dup[0]
    assert "duplicate" in verdict(nodes=dup)
    assert "not certified" in verdict(exact=False)


def test_gate_counts_a_corrupted_read_as_failed(tmp_path):
    graph = erdos_renyi(300, 1200, seed=13)
    save_npz(graph, tmp_path / "graph.npz")
    stream = np.array([3, 9, 27, 81])
    inputs = Inputs(
        directory=tmp_path / "seed1",
        warmup=np.array([1]),
        stream=stream,
        pool=np.empty(0, dtype=np.int64),
        update_pairs=np.empty((0, 0, 2), dtype=np.int64),
        update_kinds=np.empty((0, 0), dtype=np.int8),
    )
    workload = WORKLOADS["php-local"]
    results = [_answer(graph, "php", int(q)) for q in stream]
    answers = {
        "phase": np.zeros(len(stream), dtype=np.int64),
        "query": stream,
        "batches": np.zeros(len(stream), dtype=np.int64),
        "ok": np.ones(len(stream), dtype=bool),
        "exact": np.ones(len(stream), dtype=bool),
        "nodes": np.stack([r.nodes for r in results]),
        "lower": np.stack([r.lower for r in results]),
        "upper": np.stack([r.upper for r in results]),
    }
    clean = gate.check(workload, inputs, answers)
    assert (clean.failed, clean.oracle_checked) == (0, 1)  # stride subsample

    answers["upper"][0, 3] = answers["lower"][0, 3] = 2.0
    answers["ok"][2] = False
    corrupted = gate.check(workload, inputs, answers)
    assert corrupted.failed == 2
    assert corrupted.error_rate == 0.5


# ----------------------------------------------------------------------
# Whole runs (smoke size)
# ----------------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(tmp_path, "--workload", "php-local", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_input_cache_key_follows_every_input_parameter(tmp_path):
    import dataclasses

    base = WORKLOADS["churn"]
    here = input_dir(tmp_path, base, 1)
    assert input_dir(tmp_path, base, 1) == here
    assert input_dir(tmp_path, base, 2) != here
    for change in ({"update_every": 64}, {"popularity_epoch": 0}, {"stream_length": 10}):
        other = input_dir(tmp_path, dataclasses.replace(base, **change), 1)
        assert other != here and other.parent == here.parent  # same graph
    bigger = input_dir(tmp_path, dataclasses.replace(base, scale=14), 1)
    assert bigger.parent != here.parent
