"""Pure-Python reference merge of a ``DynamicGraph``'s adjacency."""

from __future__ import annotations

import numpy as np

from repro.graph.dynamic import DynamicGraph


def neighbors_scalar(graph: DynamicGraph, u: int) -> tuple[np.ndarray, np.ndarray]:
    """Merged (base ⊕ delta) adjacency of ``u``, one dict probe per edge.

    Base adjacency order with overridden weights in place and tombstones
    dropped, then delta-only edges in insertion order — the order
    :meth:`DynamicGraph.neighbors` must reproduce.
    """
    graph.validate_node(u)
    base_ids, base_w = graph._base.neighbors(u)
    delta = graph._delta.get(u)
    if not delta:
        return base_ids, base_w
    ids: list[int] = []
    weights: list[float] = []
    for v, w in zip(base_ids, base_w):
        v = int(v)
        if v in delta:
            override = delta[v]
            if override is not None:
                ids.append(v)
                weights.append(override)
            # tombstone: skip the base edge
        else:
            ids.append(v)
            weights.append(float(w))
    base_set = set(map(int, base_ids))
    for v, w in delta.items():
        if w is not None and v not in base_set:
            ids.append(v)
            weights.append(w)
    return (
        np.array(ids, dtype=np.int64),
        np.array(weights, dtype=np.float64),
    )
