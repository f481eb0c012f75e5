"""Workload definitions and their seeded, cached inputs.

Every input the program receives — the R-MAT graph (an ``.npz`` written
with :mod:`repro.graph.io.binary`), the warm-up nodes, the query stream
and, for ``churn``, the edge-update schedule — is a pure function of the
workload and the seed, cached under ``.perfbench/inputs`` in the
checkout.

The graph, a Zipf workload's pool of query nodes and ``php-local``'s
query universe come from the fixed ``GRAPH_SEED``; ``--seed`` draws the
query stream and the update schedule.  Graphs and pools drawn from the
run seed made the runs of one workload differ by 7-25% between seeds (a
Zipf stream's cost rests on its few hottest nodes, and RWR's on the
whole graph), more than a regression bound can absorb.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Shared query parameters: k=10, decay c=0.5, and the tie tolerance the
#: termination check grants (everything else at ``FLoSOptions`` defaults).
K = 10
C = 0.5
TIE_EPSILON = 1e-5
ZIPF_S = 1.1
WARMUP_NODES = 8
#: Degree strata of a distinct stream (see ``_stratified``).
STRATA = 64
GRAPH_SEED = 20140622


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    measure: str  # "php" or "rwr"
    mode: str  # "session" (in-process), "server" (ShardedServer), "churn"
    scale: int  # log2 of the R-MAT node count
    edge_samples: int
    stream: str  # "distinct" (uniform, degree-stratified) or "zipf"
    stream_length: int
    zipf_pool: int = 0
    call_size: int = 1  # requests per call (one latency sample per call)
    update_every: int = 0  # reads between update batches (churn)
    update_batch: int = 0  # edge updates per batch (churn)
    #: Reads per popularity order of a Zipf stream (0 = one order for
    #: the whole stream).
    popularity_epoch: int = 0
    #: Distinct streams: draw queries from this many fixed nodes (0 = all
    #: nodes), each seed in its own order.
    query_universe: int = 0
    #: Oracle subsample: at most this many reads (``distinct``) or query
    #: nodes (``zipf``) are checked against the oracle; 0 checks all.
    oracle_limit: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="php-local",
            why=(
                "FLoS home ground: PHP on R-MAT 2^17 with distinct queries, "
                "~1% of nodes visited, expansion-bound, cache never hit"
            ),
            measure="php",
            mode="session",
            scale=17,
            edge_samples=1_200_000,
            stream="distinct",
            stream_length=30_000,
            query_universe=2_000,
            oracle_limit=24,
        ),
        Workload(
            name="rwr-global",
            why=(
                "RWR on R-MAT 2^14 with distinct queries: the certificate "
                "goes near-global and bound refresh dominates (GI gap)"
            ),
            measure="rwr",
            mode="session",
            scale=14,
            edge_samples=150_000,
            stream="distinct",
            stream_length=5_000,
        ),
        Workload(
            name="serve-zipf",
            why=(
                "ShardedServer, 2 workers, 16-request calls, Zipf reads over "
                "2,000 nodes: routing, pipes, shared memory and worker LRU"
            ),
            measure="php",
            mode="server",
            scale=15,
            edge_samples=300_000,
            stream="zipf",
            stream_length=200_000,
            zipf_pool=2_000,
            call_size=16,
            oracle_limit=64,
        ),
        Workload(
            name="churn",
            why=(
                "DynamicGraph overlay, 8 edge updates per 16 Zipf reads whose "
                "hot nodes change per batch: invalidation, warm starts, overlay reads"
            ),
            measure="php",
            mode="churn",
            scale=13,
            edge_samples=70_000,
            stream="zipf",
            stream_length=40_000,
            zipf_pool=500,
            update_every=16,
            update_batch=8,
            popularity_epoch=16,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """A tiny variant for the benchmark's own tests (never for reporting)."""
    return dataclasses.replace(
        workload,
        scale=9,
        edge_samples=3_000,
        stream_length=min(workload.stream_length, 2_000),
        zipf_pool=min(workload.zipf_pool, 100),
        oracle_limit=min(workload.oracle_limit, 8) if workload.oracle_limit else 0,
        query_universe=min(workload.query_universe, 300),
    )


@dataclass
class Inputs:
    """Generated inputs of one ``(workload, seed)``, as the program gets them."""

    directory: Path
    warmup: np.ndarray  # query nodes outside the measured stream
    stream: np.ndarray  # measured query nodes, in order
    pool: np.ndarray  # distinct nodes of a Zipf stream, by popularity rank
    #: churn: ``(batches, batch, 2)`` endpoints and ``(batches, batch)``
    #: kinds (1 = add, 0 = remove); empty otherwise.
    update_pairs: np.ndarray
    update_kinds: np.ndarray

    @property
    def graph_path(self) -> Path:
        return self.directory.parent / "graph.npz"

    def updates(self, batch: int) -> list:
        """Update batch ``batch`` as ``EdgeUpdate``\\ s."""
        from repro.graph.updates import EdgeUpdate

        return [
            EdgeUpdate(int(u), int(v), "add" if kind else "remove")
            for (u, v), kind in zip(self.update_pairs[batch], self.update_kinds[batch])
        ]


def input_dir(root: Path, workload: Workload, seed: int) -> Path:
    """Cache directory of one ``(workload, seed)``, under one per graph.

    Both names carry a digest of every parameter their files derive
    from, so changing a workload or a generation constant regenerates
    the inputs instead of reusing stale ones.
    """
    graph_key = _digest(
        workload.scale, workload.edge_samples, workload.stream,
        workload.zipf_pool, GRAPH_SEED,
    )
    stream_key = _digest(
        dataclasses.asdict(workload), ZIPF_S, WARMUP_NODES, STRATA, GRAPH_SEED
    )
    return (
        root / ".perfbench" / "inputs" / f"{workload.name}-{graph_key}"
        / f"seed{seed}-{stream_key}"
    )


def _digest(*params) -> str:
    text = json.dumps(params, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def prepare_inputs(root: Path, workload: Workload, seed: int) -> Inputs:
    """Generate (or reuse the cached) inputs of ``workload`` for ``seed``."""
    directory = input_dir(root, workload, seed)
    if not (directory.parent / "graph.npz").is_file():
        _generate_graph(directory.parent, workload)
    if not (directory / "stream.npz").is_file():
        _generate_stream(directory, workload, seed)
    return load_inputs(directory)


def load_inputs(directory: Path) -> Inputs:
    with np.load(directory / "stream.npz") as data:
        return Inputs(
            directory=directory,
            warmup=data["warmup"],
            stream=data["stream"],
            pool=data["pool"],
            update_pairs=data["update_pairs"],
            update_kinds=data["update_kinds"],
        )


def write_atomic(path: Path, save) -> None:
    """Write through a temporary name, so an interrupted run leaves no
    half-written input behind."""
    tmp = path.with_name(path.stem + ".tmp" + path.suffix)
    save(tmp)
    tmp.replace(path)


def _generate_graph(directory: Path, workload: Workload) -> None:
    from repro.graph.generators.rmat import rmat
    from repro.graph.io.binary import save_npz

    directory.mkdir(parents=True, exist_ok=True)
    graph = rmat(workload.scale, workload.edge_samples, seed=GRAPH_SEED)
    pool = np.empty(0, dtype=np.int64)
    if workload.stream == "zipf":
        candidates = np.flatnonzero(graph.degrees > 0)
        rng = np.random.default_rng([GRAPH_SEED, 1])
        pool = rng.choice(candidates, workload.zipf_pool, replace=False)
    write_atomic(directory / "pool.npy", lambda p: np.save(p, pool))
    write_atomic(directory / "graph.npz", lambda p: save_npz(graph, p))


def _generate_stream(directory: Path, workload: Workload, seed: int) -> None:
    from repro.graph.io.binary import load_npz

    directory.mkdir(parents=True, exist_ok=True)
    graph = load_npz(directory.parent / "graph.npz")
    pool = np.load(directory.parent / "pool.npy")
    rng = np.random.default_rng([seed, 0x51EED])
    degrees = graph.degrees
    # Warm-up: the highest-degree nodes outside the pool, the same for
    # every seed.  They are the queries with the largest footprint, so
    # peak memory does not hinge on whether a seed drew a hub.
    candidates = np.setdiff1d(np.flatnonzero(degrees > 0), pool)
    by_degree = candidates[np.argsort(-degrees[candidates], kind="stable")]
    warmup, rest = by_degree[:WARMUP_NODES], by_degree[WARMUP_NODES:]
    if workload.stream == "distinct" and workload.query_universe:
        # The tail of php-local's latencies rests on which of the costly
        # queries a run draws (degree predicts cost poorly): a fixed
        # universe, larger than a run reads and than the session cache,
        # keeps that draw from moving p90 between seeds.
        universe = _stratified(rest, degrees, np.random.default_rng([GRAPH_SEED, 2]))
        universe = universe[: workload.query_universe]
        cycles = -(-workload.stream_length // len(universe))
        stream = np.concatenate([rng.permutation(universe) for _ in range(cycles)])
        stream = stream[: workload.stream_length]
    elif workload.stream == "distinct":
        stream = _stratified(rest, degrees, rng)[: workload.stream_length]
    else:
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        weights = ranks**-ZIPF_S
        draws = rng.choice(len(pool), workload.stream_length, p=weights / weights.sum())
        if workload.popularity_epoch:
            # A fresh popularity order (rank -> node) per epoch.
            epochs = np.arange(workload.stream_length) // workload.popularity_epoch
            orders = np.stack(
                [rng.permutation(len(pool)) for _ in range(epochs[-1] + 1)]
            )
            draws = orders[epochs, draws]
        stream = pool[draws]

    pairs = np.empty((0, 0, 2), dtype=np.int64)
    kinds = np.empty((0, 0), dtype=np.int8)
    if workload.update_every:
        batches = -(-workload.stream_length // workload.update_every)
        pairs, kinds = _update_schedule(graph, batches, workload.update_batch, rng)

    write_atomic(
        directory / "stream.npz",
        lambda p: np.savez(
            p,
            warmup=warmup.astype(np.int64),
            stream=stream.astype(np.int64),
            pool=pool.astype(np.int64),
            update_pairs=pairs,
            update_kinds=kinds,
        ),
    )


def _stratified(nodes: np.ndarray, degrees: np.ndarray, rng) -> np.ndarray:
    """``nodes`` without repeats, in rounds of one node per degree stratum.

    Every ``STRATA`` consecutive reads hold one node from each of
    ``STRATA`` equal-size degree strata (in random order), so the mix of
    cheap and costly queries in a run does not depend on the seed.
    """
    order = nodes[np.argsort(degrees[nodes], kind="stable")]
    strata = np.array_split(order, STRATA)
    rounds = min(len(stratum) for stratum in strata)
    table = np.stack([rng.permutation(stratum)[:rounds] for stratum in strata], axis=1)
    return rng.permuted(table, axis=1).ravel()


def _update_schedule(graph, batches: int, batch: int, rng):
    """~80% insertions of new random edges (weight 1), ~20% removals of
    earlier ones.

    Only edges the schedule itself inserted are removed, so every update
    is valid at its point in the sequence, the base graph keeps its
    structure, and the graph after any prefix is the base graph plus the
    inserted edges still live (the oracle gate relies on this).
    """
    n = graph.num_nodes
    adjacency = graph.to_scipy().tocoo()
    present = set((adjacency.row.astype(np.int64) * n + adjacency.col).tolist())
    inserted: list[tuple[int, int]] = []
    pairs = np.empty((batches, batch, 2), dtype=np.int64)
    kinds = np.empty((batches, batch), dtype=np.int8)
    for b in range(batches):
        for j in range(batch):
            if inserted and rng.random() < 0.2:
                pick = int(rng.integers(len(inserted)))
                inserted[pick], inserted[-1] = inserted[-1], inserted[pick]
                u, v = inserted.pop()
                present.discard(u * n + v)
                present.discard(v * n + u)
                pairs[b, j] = (u, v)
                kinds[b, j] = 0
                continue
            while True:
                u, v = (int(x) for x in rng.integers(n, size=2))
                if u != v and u * n + v not in present:
                    break
            present.add(u * n + v)
            present.add(v * n + u)
            inserted.append((u, v))
            pairs[b, j] = (u, v)
            kinds[b, j] = 1
    return pairs, kinds
