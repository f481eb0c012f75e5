"""Measurement process of one run: set-up, warm-up and the closed loop.

Started by ``perfbench/run.py`` in a process of its own, so its peak
resident memory holds the program and its inputs only (input generation
and the oracle run in the parent).  Writes ``<out>.json`` (metrics and
counters) and ``<out>.npz`` (every answer, for the oracle gate).

A closed loop from this one process: the next call is sent when the
previous one returns.  A call is ``QuerySession.top_k`` for in-process
workloads and one 16-request ``ShardedServer.serve_requests`` for
``serve-zipf``; ``churn`` applies one update batch through
``apply_edge_updates`` before every ``update_every`` reads.  ``qps`` is
reads divided by the wall time of the whole measured loop; a lane's
``wall`` is the time spent in its own calls and update batches.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import spans
from perfbench.workloads import C, K, TIE_EPSILON, WORKLOADS, load_inputs, smoke

from repro import FLoSOptions, QueryRequest, QuerySession
from repro.baselines.global_iteration import global_iteration_top_k
from repro.graph.dynamic import DynamicGraph
from repro.graph.io.binary import load_npz
from repro.graph.updates import apply_edge_updates
from repro.measures import resolve_measure
from repro.serve import ShardedServer

OPTIONS = FLoSOptions(tie_epsilon=TIE_EPSILON)
#: Set-ups per untraced run (``setup_s`` is their median): at least
#: ``SETUP_MIN`` and until ``SETUP_BUDGET_S`` is spent, at most ``SETUP_MAX``.
SETUP_MIN = 7
SETUP_MAX = 40
SETUP_BUDGET_S = 1.0
#: Global-iteration baseline: at most this many queries, stopping early
#: once the budget is spent (but never below ``GI_MIN_QUERIES``).
GI_MAX_QUERIES = 9
GI_MIN_QUERIES = 3
GI_BUDGET_S = 2.0
#: Layers beneath the outermost program call, whose self time only their
#: own code accrues (``trace.layer_share``).
INNER_LAYERS = ("engine", "localview", "kernels", "graph")
#: An untraced loop runs past ``--seconds`` until it has this many calls,
#: so that ten latency samples lie beyond p90, but never past
#: ``MAX_STRETCH`` times ``--seconds``.
MIN_CALLS = 100
MAX_STRETCH = 3.0


def build(workload, inputs):
    """The set-up users pay: load the graph file, construct the server."""
    graph = load_npz(inputs.graph_path)
    if workload.mode == "server":
        instance = ShardedServer(
            graph,
            workload.measure,
            c=C,
            options=OPTIONS,
            workers=min(2, os.cpu_count() or 1),
        )
        return instance, graph
    if workload.mode == "churn":
        graph = DynamicGraph(graph)
    return QuerySession(graph, workload.measure, c=C, options=OPTIONS), graph


def close(instance) -> None:
    if isinstance(instance, ShardedServer):
        instance.close()


def warm_up(instance, inputs) -> None:
    """Queries on nodes outside the measured stream, then forget them."""
    if isinstance(instance, ShardedServer):
        instance.serve_requests([QueryRequest(int(q), K) for q in inputs.warmup])
    else:
        for q in inputs.warmup:
            instance.top_k(int(q), K)
        instance.clear_cache()


@dataclass
class Loop:
    """What one closed loop did."""

    phase: int = 0  # traced runs: 0 = plain instance, 1 = traced instance
    wall: float = 0.0  # seconds in calls and update batches
    latencies: list = field(default_factory=list)  # seconds, one per call
    reads: int = 0
    update_batches: int = 0
    errors: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    batches: list = field(default_factory=list)  # update batches applied before the read
    ok: list = field(default_factory=list)
    exact: list = field(default_factory=list)
    nodes: list = field(default_factory=list)
    lower: list = field(default_factory=list)
    upper: list = field(default_factory=list)

    def answer(self, query: int, result) -> None:
        self.phases.append(self.phase)
        self.queries.append(query)
        self.batches.append(self.update_batches)
        self.ok.append(result is not None)
        self.exact.append(bool(result.exact) if result is not None else False)
        padded = np.full(K, -1, dtype=np.int64)
        lo = np.full(K, np.nan)
        hi = np.full(K, np.nan)
        if result is not None:
            count = len(result.nodes)
            padded[:count] = result.nodes
            lo[:count] = result.lower
            hi[:count] = result.upper
        self.nodes.append(padded)
        self.lower.append(lo)
        self.upper.append(hi)

    def save(self, path: Path) -> None:
        np.savez(
            path,
            phase=np.asarray(self.phases, dtype=np.int64),
            query=np.asarray(self.queries, dtype=np.int64),
            batches=np.asarray(self.batches, dtype=np.int64),
            ok=np.asarray(self.ok, dtype=bool),
            exact=np.asarray(self.exact, dtype=bool),
            nodes=np.asarray(self.nodes, dtype=np.int64).reshape(-1, K),
            lower=np.asarray(self.lower).reshape(-1, K),
            upper=np.asarray(self.upper).reshape(-1, K),
            latency=np.asarray(self.latencies),
        )


@dataclass
class Lane:
    """One program instance under load; ``tracer`` is set on the traced one."""

    instance: object
    graph: object
    loop: Loop
    tracer: spans.Tracer | None = None

    def step(self, workload, inputs, pos: int, chunk: np.ndarray) -> None:
        loop = self.loop
        rec = self.tracer.recorder if self.tracer else None
        clock = time.perf_counter
        if self.tracer:
            self.tracer.enable()
        try:
            if workload.update_every and pos % workload.update_every == 0:
                t0 = clock()
                span = rec.open("graph.update") if rec else None
                apply_edge_updates(self.graph, inputs.updates(loop.update_batches))
                if rec:
                    rec.close(span)
                loop.wall += clock() - t0
                loop.update_batches += 1
            if rec:
                rec.read_id = pos
                span = rec.open("read")
            t0 = clock()
            try:
                if isinstance(self.instance, ShardedServer):
                    results = self.instance.serve_requests(
                        [QueryRequest(int(q), K) for q in chunk]
                    )
                else:
                    results = [self.instance.top_k(int(chunk[0]), K)]
            except Exception as err:  # counted as failed reads, reported
                results = [None] * len(chunk)
                loop.errors.append(f"{type(err).__name__}: {err}")
            t1 = clock()
            if rec:
                rec.close(span)
        finally:
            if self.tracer:
                self.tracer.disable()
        loop.wall += t1 - t0
        loop.latencies.append(t1 - t0)
        for q, result in zip(chunk, results):
            loop.answer(int(q), result)
        loop.reads += len(chunk)


def drive(
    lanes: list[Lane], workload, inputs, seconds: float, min_calls: int = 0
) -> float:
    """The closed loop, for ``seconds`` (longer while fewer than
    ``min_calls`` calls are done); returns its wall time.  Each call (and
    update batch) goes to every lane in turn, alternating which goes
    first; a lane's clock counts only its own calls and updates."""
    stream = inputs.stream
    step = workload.call_size if workload.mode == "server" else 1
    started = time.perf_counter()
    deadline = started + seconds
    last_call = started + MAX_STRETCH * seconds
    pos = 0
    while pos < len(stream):
        now = time.perf_counter()
        if now >= deadline and (pos // step >= min_calls or now >= last_call):
            break
        chunk = stream[pos : pos + step]
        for lane in lanes if (pos // step) % 2 == 0 else lanes[::-1]:
            lane.step(workload, inputs, pos, chunk)
        pos += len(chunk)
    return time.perf_counter() - started


def snapshot(instance) -> dict:
    metrics = instance.metrics()
    out = metrics.to_dict()
    if isinstance(instance, ShardedServer):
        out["per_worker"] = [dict(row) for row in metrics.per_worker]
    return out


def peak_rss_mb(instance) -> float:
    """Peak RSS of this process plus every worker process (MB)."""
    total_kb = _vm_hwm_kb(os.getpid())
    if isinstance(instance, ShardedServer):
        for pid in instance.worker_pids():
            total_kb += _vm_hwm_kb(pid)
    return total_kb / 1024.0


def _vm_hwm_kb(pid) -> int:
    if pid is None:
        return 0
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def session_counters(before: dict, after: dict) -> dict:
    """Session-cache counters of the measured phase (summed over workers)."""
    keys = ("queries_served", "cache_hits", "cache_invalidations", "warm_starts")
    rows_after = after.get("per_worker", [after])
    rows_before = before.get("per_worker", [before])
    out = {key: 0 for key in keys}
    for row_a, row_b in zip(rows_after, rows_before):
        for key in keys:
            out[key] += row_a.get(key, 0) - row_b.get(key, 0)
    return out


def percentile_ms(samples: list, q: float) -> float:
    return float(np.percentile(np.asarray(samples) * 1e3, q)) if samples else 0.0


def untraced(workload, inputs, seconds: float) -> tuple[dict, Loop]:
    setups = []

    def timed_build():
        t0 = time.perf_counter()
        built = build(workload, inputs)
        setups.append(time.perf_counter() - t0)
        return built

    instance, graph = timed_build()
    try:
        warm_up(instance, inputs)
        before = snapshot(instance)
        loop = Loop()
        elapsed = drive(
            [Lane(instance, graph, loop)], workload, inputs, seconds, MIN_CALLS
        )
        after = snapshot(instance)
        # Before the repeated set-ups below, whose garbage would count.
        rss = peak_rss_mb(instance)
    finally:
        close(instance)
    del instance, graph
    while len(setups) < SETUP_MAX and (
        len(setups) < SETUP_MIN or sum(setups) < SETUP_BUDGET_S
    ):
        gc.collect()
        close(timed_build()[0])
    metrics = {
        "qps": loop.reads / elapsed,
        "latency_p50_ms": percentile_ms(loop.latencies, 50),
        "latency_p90_ms": percentile_ms(loop.latencies, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    record = {
        "setup_samples_s": setups,
        "latency_samples": len(loop.latencies),
        "elapsed_s": elapsed,
        "wall_s": loop.wall,
        "reads": loop.reads,
        "update_batches": loop.update_batches,
        "session": session_counters(before, after),
        "errors": loop.errors[:5],
    }
    return {"metrics": metrics, "record": record}, loop


def traced(workload, inputs, seconds: float) -> tuple[dict, Loop, spans.SpanRecorder]:
    """Two fresh instances under one closed loop, call by call: one plain,
    one traced.  Their throughput ratio is the tracing overhead, taken on
    identical work and free of drift in the machine's speed."""
    rec = spans.SpanRecorder()
    server = workload.mode == "server"
    # Serving workers fork from this process and keep the wrappers they
    # inherit; their spans come back through SessionMetrics.to_dict.
    tracer = spans.Tracer(rec, report_in_worker_metrics=server)
    plain_instance, plain_graph = build(workload, inputs)
    if server:
        tracer.enable()
    try:
        traced_instance, traced_graph = build(workload, inputs)
    finally:
        tracer.disable()
    try:
        warm_up(plain_instance, inputs)
        warm_up(traced_instance, inputs)
        before = snapshot(traced_instance)
        rec.clear()
        plain = Lane(plain_instance, plain_graph, Loop(phase=0))
        lane = Lane(traced_instance, traced_graph, Loop(phase=1), tracer)
        drive([plain, lane], workload, inputs, seconds)
        after = snapshot(traced_instance)
    finally:
        close(plain_instance)
        close(traced_instance)
    loop = lane.loop

    summary = rec.summary()
    if server:
        rows = list(zip(after["per_worker"], before["per_worker"]))
        if not rows or any("perfbench_trace" not in a for a, _ in rows):
            # Workers record spans only when they start as forks of this
            # process, with the wrappers on.
            raise SystemExit(
                "error: serving workers sent no spans; per-layer metrics "
                "would read 0"
            )
        worker_deltas = [
            spans.subtract(a["perfbench_trace"], b.get("perfbench_trace", {}))
            for a, b in rows
        ]
        summary = spans.merge([summary, *worker_deltas])
    if summary["stats"].get("runs", 0) == 0:
        raise SystemExit("error: the traced run recorded no engine run")
    n = load_npz(inputs.graph_path).num_nodes
    layers = layer_metrics(
        workload, summary, before, after, loop, plain.loop, n
    ) | gi_baseline(workload, inputs)
    record = {
        "traced_wall_s": loop.wall,
        "traced_reads": loop.reads,
        "untraced_reads": plain.loop.reads,
        "spans": len(rec.starts),
        "layer_self_s": spans.layer_self_seconds(summary),
        "span_summary": summary,
        "missing_hooks": tracer.missing,
        "session": session_counters(before, after),
        "errors": (plain.loop.errors + loop.errors)[:5],
    }
    return {"layer_metrics": layers, "record": record}, _concat(plain.loop, loop), rec


def _concat(first: Loop, second: Loop) -> Loop:
    both = Loop()
    for name in (
        "phases", "queries", "batches", "ok", "exact", "nodes", "lower", "upper"
    ):
        setattr(both, name, getattr(first, name) + getattr(second, name))
    return both


def layer_metrics(workload, summary, before, after, loop, plain, n) -> dict:
    stats = summary["stats"]
    runs = max(stats.get("runs", 0), 1)

    def count(name):
        return summary["spans"].get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return summary["spans"].get(name, (0, 0.0, 0.0))[1]

    def total_s(name):
        return summary["spans"].get(name, (0, 0.0, 0.0))[2]

    sessions = session_counters(before, after)
    served = max(sessions["queries_served"], 1)
    own = spans.layer_self_seconds(summary)
    # The outermost program call (``session.top_k``) takes as its self
    # time whatever no inner span covers, so coverage counts only the
    # inner layers.  Serving workers run side by side: their time is
    # set against each worker's share of the traced wall.
    traced_s = loop.wall
    if workload.mode == "server":
        traced_s *= len(after["per_worker"])
    out = {
        "localview.expand_ms": 1e3 * self_s("localview.expand") / runs,
        "localview.visited_share": stats.get("visited_nodes", 0) / runs / n,
        "localview.expansions": stats.get("expansions", 0) / runs,
        "kernels.sync_ms": 1e3 * self_s("kernels.sync") / runs,
        "kernels.refresh_ms": 1e3 * self_s("kernels.refresh") / runs,
        "kernels.refreshes": count("kernels.refresh") / runs,
        "kernels.sweeps": stats.get("solver_iterations", 0) / runs,
        "kernels.rows_swept": stats.get("rows_swept", 0) / runs,
        "engine.self_ms": 1e3 * self_s("engine.run") / runs,
        "engine.guard_ms": 1e3 * total_s("engine.guard") / runs,
        "graph.read_ms": 1e3 * self_s("graph.read") / runs,
        "graph.neighbor_queries": stats.get("neighbor_queries", 0) / runs,
        "graph.update_ms": (
            1e3 * total_s("graph.update") / max(count("graph.update"), 1)
        ),
        "session.self_ms": (
            1e3 * self_s("session.top_k") / max(count("session.top_k"), 1)
        ),
        "session.hit_share": sessions["cache_hits"] / served,
        "session.invalidations": 1e3 * sessions["cache_invalidations"] / served,
        "session.warm_starts": 1e3 * sessions["warm_starts"] / served,
        "trace.overhead": (plain.reads / plain.wall) / (loop.reads / loop.wall) - 1.0,
        "trace.layer_share": sum(own.get(layer, 0.0) for layer in INNER_LAYERS)
        / traced_s,
        "trace.session_share": own.get("session", 0.0) / traced_s,
        "engine.runs": stats.get("runs", 0),
    }
    out |= serve_metrics(before, after, loop.wall) if workload.mode == "server" else {}
    return out


def serve_metrics(before: dict, after: dict, wall: float) -> dict:
    rows = [
        (a, b) for a, b in zip(after["per_worker"], before["per_worker"])
    ]
    served = [a.get("queries_served", 0) - b.get("queries_served", 0) for a, b in rows]
    busy = [
        a.get("total_wall_seconds", 0.0) - b.get("total_wall_seconds", 0.0)
        for a, b in rows
    ]
    completed = after["requests_completed"] - before["requests_completed"]
    mean_served = sum(served) / max(len(served), 1)
    return {
        "serve.request_p50_ms": 1e3 * after["p50_wall_seconds"],
        "serve.service_p50_ms": 1e3
        * statistics.median(a.get("p50_wall_seconds", 0.0) for a, _ in rows),
        "serve.busy_share": sum(busy) / (len(rows) * wall),
        "serve.imbalance": max(served) / mean_served if mean_served else 0.0,
        "serve.hit_share": (after["cache_hits"] - before["cache_hits"])
        / max(completed, 1),
        "serve.retried": after["retried"] - before["retried"],
        "serve.rejected": after["rejected"] - before["rejected"],
    }


def gi_baseline(workload, inputs) -> dict:
    """GI (one whole-graph power iteration per query) vs cold FLoS on the
    first distinct stream queries, on the base graph."""
    graph = load_npz(inputs.graph_path)
    measure = resolve_measure(workload.measure, c=C)
    session = QuerySession(graph, measure, options=OPTIONS, cache_size=0)
    queries = list(dict.fromkeys(int(q) for q in inputs.stream[:1000]))
    flos, gi = [], []
    started = time.perf_counter()
    for q in queries[:GI_MAX_QUERIES]:
        t0 = time.perf_counter()
        session.top_k(q, K)
        t1 = time.perf_counter()
        global_iteration_top_k(graph, measure, q, K)
        t2 = time.perf_counter()
        flos.append(t1 - t0)
        gi.append(t2 - t1)
        if len(gi) >= GI_MIN_QUERIES and t2 - started > GI_BUDGET_S:
            break
    gi_p50 = statistics.median(gi)
    return {
        "baseline.gi_p50_ms": 1e3 * gi_p50,
        "baseline.flos_over_gi": statistics.median(flos) / gi_p50,
        "baseline.queries": len(gi),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    inputs = load_inputs(args.inputs)
    if args.trace:
        payload, loop, rec = traced(workload, inputs, args.seconds)
        rec.save(args.out.with_name(args.out.name + "-spans.npz"))
    else:
        payload, loop = untraced(workload, inputs, args.seconds)
    loop.save(args.out.with_suffix(".npz"))
    args.out.with_suffix(".json").write_text(json.dumps(payload, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
