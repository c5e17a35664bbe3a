"""Shortest-path centrality indices on unit-disk networks.

All distances are hop counts.  ``stress`` counts shortest paths with the
node strictly interior, over ordered source/target pairs; ``betweenness``
is the classic fractional variant; ``restricted_stress`` keeps only paths
whose two endpoints both lie within a hop ball around the node; ``stress1``
and ``normalized_st`` are the purely local quantities used by the boundary
protocol.

The four path measures share one kernel, Brandes' algorithm as sparse
products: blocks of sources walk forward one BFS level per product with
the adjacency, then sum dependencies back up.  Blocks run on ``workers``
threads and are summed in block order, so results do not depend on the
worker count.  Integer counts are exact or raise NumericalError.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np
import scipy.sparse as sp

# the thread-count helpers live in a scipy-free module, so that theory can use
# them; callers of the path measures import them from here
from ._workers import WORKERS_ENV, resolve_workers
from .errors import NumericalError

# stress1 takes rows in blocks whose neighbors' degrees sum to about this
_GATHER_BUDGET = 1 << 22
# the path measures take sources in blocks that touch about this many edges
_PATH_BUDGET = 1 << 21
_INT64_END = 1 << 63
_LOW32 = (1 << 32) - 1
_OVERFLOW = "shortest-path counts exceed the int64 range"


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


def _adjacency(indptr, indices, dtype=float):
    """The 0/1 adjacency over the CSR arrays as a scipy sparse array.

    The ones default to float64, the dtype of csgraph and of products with
    float vectors, so neither copies the data; integer sums stay exact below 2**53.
    """
    n = len(indptr) - 1
    return sp.csr_array((np.ones(len(indices), dtype=dtype), indices, indptr), shape=(n, n))


def _blocks(work, budget):
    """Consecutive index ranges (lo, hi) whose work sums to about ``budget``."""
    _, starts = np.unique((np.cumsum(work) - work) // budget, return_index=True)
    return list(zip(starts, [*starts[1:], len(work)]))


def _like(m, data):
    return sp.csr_array((data, m.indices, m.indptr), shape=m.shape)


def _pattern(m):
    return _like(m, np.ones_like(m.data))


def _add(x, y):
    """x + y for nonnegative x and y; an int64 entry that wraps reads negative."""
    z = x + y
    if z.dtype.kind == "i" and z.nnz and z.data.min() < 0:
        raise NumericalError(_OVERFLOW)
    return z


def _product(x, a):
    """x @ a for nonnegative x, raising NumericalError on a non-finite float
    or inexact int64 entry.  When max(x) * n (n bounds every degree) reaches
    2**63, x's 32-bit halves are summed apart; hi + (lo >> 32) counts the
    whole 2**32 units of each exact entry."""
    y = x @ a
    if x.dtype.kind == "f" and not np.isfinite(y.data).all():
        raise NumericalError("shortest-path counts overflow float64")
    if x.dtype.kind == "i" and x.nnz and int(x.data.max()) * a.shape[0] >= _INT64_END:
        hi, lo = _like(x, x.data >> 32) @ a, _like(x, x.data & _LOW32) @ a
        lo.data >>= 32
        if (hi + lo).max() >= 1 << 31:
            raise NumericalError(_OVERFLOW)
    return y


def _levels(a, level, depth):
    """Forward pass from level 0, one row per source: level j, up to
    ``depth``, is canonical and holds sigma, the number of shortest paths
    from the row's source, on the nodes at hop distance j.  Masking levels
    j - 1 and j from ``level @ a`` leaves level j + 1."""
    levels, seen = [level], _pattern(level)
    while depth is None or len(levels) <= depth:
        step = _product(level, a)
        level = step - step.multiply(seen)
        if not level.nnz:
            break
        level.sort_indices()
        seen = _pattern(levels[-1] + level)
        levels.append(level)
    return levels


def _backward(levels, a, base, delta=None):
    """Backward pass: yields (j, sigma_j, x_j - base) for j = D .. 1, with
    x_j = base(sigma_j) + (u_{j+1} @ a) on level j's pattern, canonical so
    its data lines up with sigma_j's.  x_j - 1 counts the DAG paths down
    (stress); sigma * (x_j - 1 / sigma) is the Brandes dependency.  u is x,
    or with ``delta`` the per-length DAG path counts for lengths < delta."""
    below = []
    for j in range(len(levels) - 1, 0, -1):
        sigma = levels[j]
        pat, b = _pattern(sigma), base(sigma.data)
        ps = [_product(g, a).multiply(pat) for g in below]
        x = reduce(_add, ps, _like(sigma, b))
        x.sort_indices()
        yield j, sigma, x.data - b
        below = [x] if delta is None else [pat] + ps[:delta - 1]


def _path_count_sums(levels, a, delta=None):
    """Per node, sigma * (DAG paths down) summed over levels 1..delta, as the
    sums of each term's high and low 32-bit halves, which cannot wrap."""
    out = np.zeros((2, a.shape[0]), dtype=np.int64)
    for j, sigma, p in _backward(levels, a, np.ones_like, delta):
        if delta is not None and j > delta:
            continue
        s = sigma.data
        if int(s.max()) * int(p.max()) >= _INT64_END and np.any(p > np.iinfo(np.int64).max // s):
            raise NumericalError(_OVERFLOW)
        np.add.at(out[0], sigma.indices, s * p >> 32)
        np.add.at(out[1], sigma.indices, s * p & _LOW32)
    return out


def _join(halves):
    """hi * 2**32 + lo as int64, or NumericalError if it exceeds the range."""
    hi = halves[0] + (halves[1] >> 32)
    if np.any(hi >= 1 << 31):
        raise NumericalError(_OVERFLOW)
    return (hi << 32) | (halves[1] & _LOW32)


def _run_sources(graph, dtype, depth, block_sum, workers):
    """Sum block_sum(levels, a) over blocks of sources, in block order.

    ``a`` is the adjacency in ``dtype``, with int32 indices where they fit.
    A block holds consecutive sources whose passes touch about _PATH_BUDGET
    edges; a pass touches an edge once per level at most, so at most the
    degree sum, or the degree sum over walks of up to ``depth`` steps.
    """
    indptr, indices = as_csr(graph)
    itype = np.int32 if len(indices) <= np.iinfo(np.int32).max else np.int64
    a = _adjacency(indptr.astype(itype), indices.astype(itype), dtype)
    work = degs = np.diff(indptr).astype(float)
    for _ in range(depth or 0):  # Horner: sum of A**i @ degs for i <= depth
        work = degs + a @ work
    work = np.minimum(work, degs.sum()) if depth else np.full(len(degs), degs.sum())
    # an empty graph runs one empty block, which gives the sum its shape
    blocks = _blocks(work, _PATH_BUDGET) or [(0, 0)]
    eye = sp.eye_array(len(degs), dtype=dtype, format="csr")
    run = lambda block: block_sum(_levels(a, eye[slice(*block)], depth), a)
    w = min(resolve_workers(workers), len(blocks))
    with ThreadPoolExecutor(max_workers=w) as ex:  # no thread starts for w = 1
        return sum((ex.map if w > 1 else map)(run, blocks))


def stress_centrality(graph, workers=None):
    """Stress centrality: shortest paths through each node, ordered pairs.

    Counts are exact int64; NumericalError if one exceeds the int64 range.
    """
    return _join(_run_sources(graph, np.int64, None, _path_count_sums, workers))


def _dependency_sums(levels, a):
    return sum((np.bincount(sigma.indices, sigma.data * deps, a.shape[0])
                for _, sigma, deps in _backward(levels, a, np.reciprocal)), np.zeros(a.shape[0]))


def betweenness_centrality(graph, workers=None):
    """Brandes betweenness over ordered pairs (no endpoint credit).

    Path counts are float64, so they round instead of wrapping.
    """
    return _run_sources(graph, float, None, _dependency_sums, workers)


def khop_size(graph, k):
    """Number of nodes within hop distance k of each node, excluding itself."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # hop distance is symmetric: a node's column counts its ball, itself included
    count = lambda levels, a: sum(np.bincount(lv.indices, minlength=a.shape[0]) for lv in levels)
    return _run_sources(graph, bool, k, count, None) - 1


def restricted_stress(graph, delta):
    """Stress restricted to endpoint pairs within hop distance ``delta`` of the node.

    Shortest paths are full-graph shortest paths; only the endpoints are
    constrained to the hop ball.  For a connected graph and delta >= its
    diameter this equals plain stress.  NumericalError as for stress.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    # a target at DAG depth i <= delta below a node at level j <= delta is
    # within delta hops of it, and lies at level j + i <= 2 * delta
    sums = partial(_path_count_sums, delta=delta)
    return _join(_run_sources(graph, np.int64, 2 * delta, sums, None))


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
    for lo, hi in _blocks(a @ degs, _GATHER_BUDGET):
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
