"""Shortest-path centrality indices on unit-disk networks.

All distances are hop counts.  ``stress`` counts shortest paths with the
node strictly interior, over ordered source/target pairs; ``betweenness``
is the classic fractional variant; ``restricted_stress`` keeps only paths
whose two endpoints both lie within a hop ball around the node; ``stress1``
and ``normalized_st`` are the purely local quantities used by the boundary
protocol.

Per-source passes are independent, so the heavy measures accept a
``workers`` argument that partitions sources into contiguous blocks; block
results are reduced in block order, making the output independent of the
worker count (bitwise for the integer measures).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

WORKERS_ENV = "BOUNDARYKIT_WORKERS"
# stress1 takes rows in blocks whose neighbors' degrees sum to about this
_GATHER_BUDGET = 1 << 22


def resolve_workers(workers=None):
    """Worker count: explicit argument, else env override, else cpu count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return int(workers)
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            w = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}")
        if w < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {w}")
        return w
    return os.cpu_count() or 1


def as_csr(graph):
    """CSR view (indptr, indices) of a SensorNetwork or adjacency lists."""
    if hasattr(graph, "indptr"):
        return graph.indptr, graph.indices
    n = len(graph)
    degs = np.fromiter((len(a) for a in graph), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    if n and indptr[-1]:
        indices = np.concatenate([np.sort(np.asarray(a, dtype=np.int64))
                                  for a in graph if len(a)])
    else:
        indices = np.empty(0, dtype=np.int64)
    return indptr, indices


def _adjacency(indptr, indices):
    """The 0/1 adjacency over the CSR arrays as a scipy sparse array.

    The ones are float64, the dtype of csgraph and of products with float
    vectors, so neither copies the data; integer sums stay exact below 2**53.
    """
    n = len(indptr) - 1
    return sp.csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))


def _out_edges(indptr, indices, frontier):
    """All (src, dst) pairs leaving the frontier, as flat arrays."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    starts = np.cumsum(counts) - counts
    flat = np.repeat(indptr[frontier] - starts, counts) + np.arange(total)
    return np.repeat(frontier, counts), indices[flat]


def _bfs_dag(indptr, indices, s, n, max_depth=None):
    """Level BFS from s: (dist, sigma, levels) with sigma = shortest-path counts."""
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.int64)
    dist[s] = 0
    sigma[s] = 1
    frontier = np.array([s], dtype=np.int64)
    levels = [frontier]
    depth = 0
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            break
        src, dst = _out_edges(indptr, indices, frontier)
        new = dst[dist[dst] < 0]
        if len(new) == 0:
            break
        frontier = np.unique(new)
        depth += 1
        dist[frontier] = depth
        dag = dist[dst] == depth
        np.add.at(sigma, dst[dag], sigma[src[dag]])
        levels.append(frontier)
    return dist, sigma, levels


def _stress_source(indptr, indices, s, n, out):
    dist, sigma, levels = _bfs_dag(indptr, indices, s, n)
    # p(v) = number of shortest paths from v to all strict DAG descendants
    p = np.zeros(n, dtype=np.int64)
    for depth in range(len(levels) - 2, -1, -1):
        src, dst = _out_edges(indptr, indices, levels[depth])
        dag = dist[dst] == depth + 1
        np.add.at(p, src[dag], 1 + p[dst[dag]])
    for lv in levels[1:]:
        out[lv] += sigma[lv] * p[lv]


def _betweenness_source(indptr, indices, s, n, out):
    dist, sigma, levels = _bfs_dag(indptr, indices, s, n)
    delta = np.zeros(n, dtype=float)
    for depth in range(len(levels) - 2, -1, -1):
        src, dst = _out_edges(indptr, indices, levels[depth])
        dag = dist[dst] == depth + 1
        sv, dv = src[dag], dst[dag]
        np.add.at(delta, sv, sigma[sv] / sigma[dv] * (1.0 + delta[dv]))
    for lv in levels[1:]:
        out[lv] += delta[lv]


def _run_sources(per_source, n, dtype, workers):
    w = resolve_workers(workers)
    sources = np.arange(n)
    blocks = [b for b in np.array_split(sources, w) if len(b)]

    def run_block(block):
        acc = np.zeros(n, dtype=dtype)
        for s in block:
            per_source(int(s), acc)
        return acc

    if len(blocks) <= 1:
        return run_block(sources) if n else np.zeros(n, dtype=dtype)
    with ThreadPoolExecutor(max_workers=len(blocks)) as ex:
        parts = list(ex.map(run_block, blocks))
    total = parts[0]
    for part in parts[1:]:  # fixed reduction order
        total += part
    return total


def stress_centrality(graph, workers=None):
    """Stress centrality: shortest paths through each node, ordered pairs.

    Counts are exact int64; on large dense graphs shortest-path counts grow
    combinatorially and can exceed the int64 range.
    """
    indptr, indices = as_csr(graph)
    n = len(indptr) - 1
    return _run_sources(
        lambda s, acc: _stress_source(indptr, indices, s, n, acc),
        n, np.int64, workers)


def betweenness_centrality(graph, workers=None):
    """Brandes betweenness over ordered pairs (no endpoint credit)."""
    indptr, indices = as_csr(graph)
    n = len(indptr) - 1
    return _run_sources(
        lambda s, acc: _betweenness_source(indptr, indices, s, n, acc),
        n, float, workers)


def khop_size(graph, k):
    """Number of nodes within hop distance k of each node, excluding itself."""
    if k < 1:
        raise ValueError("k must be >= 1")
    indptr, indices = as_csr(graph)
    n = len(indptr) - 1
    out = np.zeros(n, dtype=np.int64)
    for s in range(n):
        dist, _, _ = _bfs_dag(indptr, indices, s, n, max_depth=k)
        out[s] = np.count_nonzero(dist >= 0) - 1
    return out


def restricted_stress(graph, delta):
    """Stress restricted to endpoint pairs within hop distance ``delta`` of the node.

    Shortest paths are full-graph shortest paths; only the endpoints are
    constrained to the hop ball.  For a connected graph and delta >= its
    diameter this equals plain stress.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    indptr, indices = as_csr(graph)
    n = len(indptr) - 1
    out = np.zeros(n, dtype=np.int64)
    # g[v, j] = number of DAG paths of length j starting at v; a target at
    # DAG depth j below v is exactly j hops from v, so summing j = 1..delta
    # and gating on dist(s, v) <= delta enforces both ball conditions.
    for s in range(n):
        dist, sigma, levels = _bfs_dag(indptr, indices, s, n, max_depth=2 * delta)
        g = np.zeros((n, delta + 1), dtype=np.int64)
        reached = dist >= 0
        g[reached, 0] = 1
        for depth in range(len(levels) - 2, -1, -1):
            src, dst = _out_edges(indptr, indices, levels[depth])
            dag = dist[dst] == depth + 1
            np.add.at(g[:, 1:], src[dag], g[dst[dag], :delta])
        near = [lv for lv in levels[1:delta + 1]]
        for lv in near:
            out[lv] += sigma[lv] * g[lv, 1:].sum(axis=1)
    return out


def stress1(graph):
    """Pairs of neighbors not directly linked: C(deg, 2) minus triangles at the node.

    Twice the triangles at v is the row sum of (A @ A) * A.  Rows are taken
    in blocks whose gather, the sum of the neighbors' degrees, stays near a
    fixed budget, which bounds the A[rows] @ A intermediate at any density.
    """
    return _stress1(_adjacency(*as_csr(graph)))


def _stress1(a):
    """stress1 from the adjacency built by ``_adjacency``."""
    degs = np.diff(a.indptr).astype(np.int64)
    out = degs * (degs - 1) // 2
    gather = a @ degs
    _, starts = np.unique((np.cumsum(gather) - gather) // _GATHER_BUDGET,
                          return_index=True)
    for lo, hi in zip(starts, [*starts[1:], len(degs)]):
        rows = a[lo:hi]
        out[lo:hi] -= (rows @ a).multiply(rows).sum(axis=1).astype(np.int64) // 2
    return out


def st_from_stress1(degs, s1):
    """st = stress1 / C(deg, 2) per node, defined as 0 for degree <= 1."""
    out = np.zeros(len(degs), dtype=float)
    big = degs > 1
    out[big] = 2.0 * s1[big] / (degs[big] * (degs[big] - 1.0))
    return out


def normalized_st(graph):
    """st(v) = stress1 / C(deg, 2), defined as 0 for degree <= 1."""
    indptr, _ = as_csr(graph)
    return st_from_stress1(np.diff(indptr), stress1(graph))


_MEASURES = {
    "khop": (khop_size, ("k",)),
    "stress": (stress_centrality, ()),
    "betweenness": (betweenness_centrality, ()),
    "rstress": (restricted_stress, ("delta",)),
    "stress1": (stress1, ()),
    "st": (normalized_st, ()),
}


@dataclass
class CentralityResult:
    """Per-node values for one measure, with the parameters used."""
    measure: str
    values: np.ndarray
    params: dict = field(default_factory=dict)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            extra = "".join(f" {k}={v}" for k, v in sorted(self.params.items()))
            fh.write(f"# measure={self.measure}{extra}\n")
            fh.write("node_id,value\n")
            for i, val in enumerate(self.values):
                sval = repr(float(val)) if self.values.dtype.kind == "f" else str(int(val))
                fh.write(f"{i},{sval}\n")


def compute(graph, measure, k=None, delta=None, workers=None):
    """Dispatch by measure name; returns a CentralityResult."""
    if measure not in _MEASURES:
        raise ValueError(f"unknown measure {measure!r}; "
                         f"choose from {', '.join(sorted(_MEASURES))}")
    func, needed = _MEASURES[measure]
    params = {}
    if "k" in needed:
        if k is None:
            raise ValueError("measure 'khop' requires k")
        params["k"] = int(k)
        values = func(graph, int(k))
    elif "delta" in needed:
        if delta is None:
            raise ValueError("measure 'rstress' requires delta")
        params["delta"] = int(delta)
        values = func(graph, int(delta))
    elif measure in ("stress", "betweenness"):
        values = func(graph, workers=workers)
    else:
        values = func(graph)
    return CentralityResult(measure, values, params)
