"""Span recorder for the traced run, installed from the benchmark's files.

Wrappers are set as class attributes around the public calls into each
layer (table ``HOOKS``) while a traced call runs, and the originals are
put back after it; the program's files are not modified.  Each span records its name, start, end, parent and the
id of the read it belongs to; spans stay in memory and are written out
when the run ends.  Per-neighbour calls are deliberately not wrapped:
the engine counts them in ``SearchStats``, which the ``engine.run``
wrapper sums per engine run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, class, attribute, span name).  The span name's prefix is the
#: layer it is charged to.  ``graph.read`` wraps the LocalView methods
#: through which every adjacency and degree read leaves the view: on CSR
#: graphs they call ``transition_probabilities_many`` / ``degrees_of``,
#: on overlays the per-node ``transition_probabilities`` loop.
HOOKS = (
    ("repro.core.session", "QuerySession", "top_k", "session.top_k"),
    ("repro.core.flos", "PHPSpaceEngine", "__init__", "engine.init"),
    ("repro.core.flos", "PHPSpaceEngine", "run", "engine.run"),
    ("repro.core.degree_index", "DegreeIndex", "__call__", "engine.guard"),
    ("repro.core.localgraph", "LocalView", "__init__", "localview.init"),
    ("repro.core.localgraph", "LocalView", "expand_batch", "localview.expand"),
    ("repro.core.localgraph", "LocalView", "visit_sequence", "localview.revisit"),
    ("repro.core.localgraph", "LocalView", "closed_ball", "localview.ball"),
    ("repro.core.localgraph", "LocalView", "_fetch_adjacency", "graph.read"),
    ("repro.core.localgraph", "LocalView", "_degrees_of_outside", "graph.read"),
    ("repro.graph.base", "GraphAccess", "degrees_of", "graph.read"),
    ("repro.graph.memory", "CSRGraph", "degrees_of", "graph.read"),
    ("repro.core.kernels", "DualBoundKernel", "refresh", "kernels.refresh"),
    ("repro.core.kernels", "_AppendOnlyOperator", "sync", "kernels.sync"),
    ("repro.serve.dispatcher", "ShardedServer", "serve_requests", "serve.call"),
)

#: Layers time is charged to; spans of other prefixes are the generator's.
LAYERS = ("session", "engine", "localview", "kernels", "graph", "serve")

#: ``SearchStats`` fields summed over engine runs.
STAT_FIELDS = (
    "visited_nodes",
    "expansions",
    "solver_iterations",
    "neighbor_queries",
    "rows_swept",
)


class SpanRecorder:
    """In-memory spans of one process plus per-engine-run stat sums."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._names: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.read_ids: list[int] = []
        self._stack: list[int] = []
        self.read_id = -1
        self.stats: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        code = self._names.get(name)
        if code is None:
            code = self._names[name] = len(self._names)
        index = len(self.starts)
        self.name_ids.append(code)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.read_ids.append(self.read_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def record_engine_stats(self, outcome) -> None:
        stats = outcome.stats
        self.stats["runs"] += 1
        for field in STAT_FIELDS:
            self.stats[field] += int(getattr(stats, field))

    @property
    def names(self) -> list[str]:
        table = [""] * len(self._names)
        for name, code in self._names.items():
            table[code] = name
        return table

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_ids, dtype=np.int32),
            "start": np.asarray(self.starts, dtype=np.float64),
            "end": np.asarray(self.ends, dtype=np.float64),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "read_id": np.asarray(self.read_ids, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per span name: ``[count, self seconds, total seconds]``."""
        arrays = self.arrays()
        own = self_times(arrays["start"], arrays["end"], arrays["parent"])
        duration = arrays["end"] - arrays["start"]
        names = self.names
        out: dict[str, list] = {}
        for code, name in enumerate(names):
            mask = arrays["name_id"] == code
            out[name] = [
                int(mask.sum()),
                float(own[mask].sum()),
                float(duration[mask].sum()),
            ]
        return {"spans": out, "stats": dict(self.stats)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    ``parent[i]`` is the index of span ``i``'s parent (-1 for a root).
    Children are clipped to their parent's interval, and overlapping
    children are counted once (the union of their intervals).
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    child = np.flatnonzero(parent >= 0)
    if len(child) == 0:
        return own
    p = parent[child]
    lo = np.maximum(start[child], start[p])
    hi = np.maximum(np.minimum(end[child], end[p]), lo)
    order = np.lexsort((lo, p))
    p, lo, hi = p[order], lo[order], hi[order]
    # Sweep each parent's children in start order; offsetting every
    # parent's group past the previous one lets one running maximum
    # serve all groups at once.
    group = np.cumsum(np.r_[True, p[1:] != p[:-1]]) - 1
    origin = lo.min()
    width = hi.max() - origin + 1.0
    lo = lo - origin + group * width
    hi = hi - origin + group * width
    reach = np.r_[-np.inf, np.maximum.accumulate(hi)[:-1]]
    covered = np.maximum(hi - np.maximum(lo, reach), 0.0)
    np.add.at(own, p, -covered)
    return own


class Tracer:
    """The ``HOOKS`` wrappers around one recorder, switched on and off.

    With ``report_in_worker_metrics`` the recorder's summary also rides on
    ``SessionMetrics.to_dict`` — the dict serving workers send to the
    dispatcher — so spans recorded in worker processes forked while the
    wrappers were on reach ``ServeMetrics.per_worker``.
    """

    def __init__(self, recorder: SpanRecorder, *, report_in_worker_metrics=False):
        self.recorder = recorder
        self.missing: list[str] = []
        self._patches: list[tuple[type, str, object, object]] = []
        for module, cls_name, attr, name in HOOKS:
            cls = _lookup(module, cls_name)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            on_result = recorder.record_engine_stats if name == "engine.run" else None
            self._patches.append(
                (cls, attr, original, _traced(original, name, recorder, on_result))
            )
        if report_in_worker_metrics:
            cls = _lookup("repro.core.session", "SessionMetrics")
            original = cls.__dict__["to_dict"]

            @functools.wraps(original)
            def to_dict(metrics_self):
                out = original(metrics_self)
                out["perfbench_trace"] = recorder.summary()
                return out

            self._patches.append((cls, "to_dict", original, to_dict))
            # A forked worker starts with an empty recorder.
            os.register_at_fork(after_in_child=recorder.clear)
        if self.missing:
            print(
                "perfbench: hooks not found (spans not recorded): "
                + ", ".join(self.missing),
                file=sys.stderr,
            )

    def enable(self) -> None:
        for cls, attr, _, replacement in self._patches:
            setattr(cls, attr, replacement)

    def disable(self) -> None:
        for cls, attr, original, _ in self._patches:
            setattr(cls, attr, original)


def _lookup(module: str, cls_name: str):
    try:
        return getattr(importlib.import_module(module), cls_name, None)
    except ImportError:
        return None


def _traced(fn, name: str, rec: SpanRecorder, on_result):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if on_result is not None:
            on_result(out)
        return out

    return traced


def subtract(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`SpanRecorder.summary` dicts."""
    spans = {}
    for name, (count, own, total) in after.get("spans", {}).items():
        c0, o0, t0 = before.get("spans", {}).get(name, (0, 0.0, 0.0))
        spans[name] = [count - c0, own - o0, total - t0]
    stats = {
        key: value - before.get("stats", {}).get(key, 0)
        for key, value in after.get("stats", {}).items()
    }
    return {"spans": spans, "stats": stats}


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per worker process)."""
    spans: dict[str, list] = {}
    stats: dict[str, int] = defaultdict(int)
    for summary in summaries:
        for name, values in summary.get("spans", {}).items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                acc[i] += value
        for key, value in summary.get("stats", {}).items():
            stats[key] += value
    return {"spans": spans, "stats": dict(stats)}


def layer_self_seconds(summary: dict) -> dict[str, float]:
    """Self time per layer (span-name prefix), plus the benchmark's own
    root spans under ``"generator"``."""
    out: dict[str, float] = defaultdict(float)
    for name, (_, own, _) in summary["spans"].items():
        layer = name.split(".", 1)[0]
        out[layer if layer in LAYERS else "generator"] += own
    return dict(out)
