"""Shortest-path centrality indices on unit-disk networks.

All distances are hop counts.  ``stress`` counts shortest paths with the
node strictly interior, over ordered source/target pairs; ``betweenness``
is the classic fractional variant; ``restricted_stress`` keeps only paths
whose two endpoints both lie within a hop ball around the node; ``stress1``
and ``normalized_st`` are the purely local quantities used by the boundary
protocol.

Stress, betweenness and restricted stress share one kernel, Brandes'
algorithm as sparse products: blocks of sources walk forward one BFS level
per product with the adjacency, then sum dependencies back up.  Each source
owns one flat slot per node of its component, so a level is the entries of
its product whose slot no earlier level reached, and the backward pass reads
each product at a level's slots: a level costs one product and one matrix
build either way.  A block holds sources whose component sizes sum to at
most ``_ENTRY_BUDGET``, which bounds its memory whatever n is.  Blocks run
on ``workers`` threads and are summed in block order, so results do not
depend on the worker count.  Integer counts are exact or raise
NumericalError.  ``khop_size`` takes boolean products with I + A instead.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np
import scipy.sparse as sp

# the thread-count helpers live in a scipy-free module, so that theory can use
# them; callers of the path measures import them from here
from ._workers import WORKERS_ENV, resolve_workers
from .errors import NumericalError
from .netgen import SensorNetwork, _index_dtype

# stress1 takes rows in blocks whose neighbors' degrees sum to about this
_GATHER_BUDGET = 1 << 22
# the path measures and khop take sources in blocks that keep at most this
# many (source, node) entries; larger blocks spend less CPU per source on
# building matrices but hold more memory per worker, and this size was picked
# from the peak RSS measured on 1.5k-node networks
_ENTRY_BUDGET = 3 << 14
_INT64_END = 1 << 63
_LOW32 = (1 << 32) - 1
_OVERFLOW = "shortest-path counts exceed the int64 range"


def as_csr(graph):
    """CSR view (indptr, indices) of a SensorNetwork or adjacency lists; the
    arrays built from lists take ``netgen._index_dtype``, as a network's do."""
    if hasattr(graph, "indptr"):
        return graph.indptr, graph.indices
    n = len(graph)
    degs = np.fromiter((len(a) for a in graph), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    dtype = _index_dtype(n, int(indptr[-1]))
    if n and indptr[-1]:
        indices = np.concatenate([np.sort(np.asarray(a, dtype=dtype))
                                  for a in graph if len(a)])
    else:
        indices = np.empty(0, dtype=dtype)
    return indptr.astype(dtype, copy=False), indices


def _adjacency(indptr, indices, dtype=float):
    """The 0/1 adjacency over the CSR arrays as a scipy sparse array.

    The ones default to float64, the dtype of csgraph and of products with
    float vectors, so neither copies the data; integer sums stay exact below 2**53.
    """
    n = len(indptr) - 1
    return sp.csr_array((np.ones(len(indices), dtype=dtype), indices, indptr), shape=(n, n))


def _blocks(work, budget):
    """Consecutive index ranges (lo, hi) whose work sums to at most
    ``budget``, or that hold a single index."""
    ends = np.cumsum(work)
    blocks, lo = [], 0
    while lo < len(ends):
        cap = ends[lo] - work[lo] + budget
        hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
        blocks.append((lo, hi))
        lo = hi
    return blocks


def _like(m, data):
    return sp.csr_array((data, m.indices, m.indptr), shape=m.shape)


def _add(x, y):
    """x + y for nonnegative x and y; an int64 entry that wraps reads negative."""
    z = x + y
    if z.dtype.kind == "i" and z.size and z.min() < 0:
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


def _reach(indptr, indices, depth=None):
    """Per node, a bound on the nodes within ``depth`` hops of it, itself
    included, and its rank within its component.

    The bound is the component size, or with ``depth`` the walks of up to
    that many steps, capped at the component size; the walk count stops
    early once it stops growing.
    """
    from scipy.sparse.csgraph import connected_components

    a = _adjacency(indptr, indices)
    # the strong components of a symmetric adjacency are its components, and
    # need no transposed copy
    _, label = connected_components(a, connection="strong")
    size = np.bincount(label)
    order = np.argsort(label, kind="stable")
    rank = np.empty(len(label), dtype=np.intp)
    rank[order] = np.arange(len(label)) - np.repeat(np.cumsum(size) - size, size)
    bound = size[label]
    if depth is not None:
        walks = np.ones(len(label))
        for _ in range(depth):  # Horner: 1 + A @ (walks of one step fewer)
            grown = np.minimum(1.0 + a @ walks, bound)
            if np.array_equal(grown, walks):
                break
            walks = grown
        bound = walks
    return bound, rank


class _Slots:
    """Flat slots for the (source, node) entries of a block of sources:
    each source owns a run as long as its component, indexed by the node's
    rank within the component, so ``len`` bounds the entries the block keeps."""

    def __init__(self, size, rank):
        self.starts = np.cumsum(size) - size
        self.rank = rank
        self.len = int(size.sum())

    def __call__(self, m):
        """The slot of every stored entry of m, which has one row per source."""
        s = self.rank[m.indices]
        s += np.repeat(self.starts, np.diff(m.indptr))
        return s


def _levels(a, level, slots, depth):
    """Forward pass from level 0, one row per source: level j, up to
    ``depth``, holds sigma, the number of shortest paths from the row's
    source, on the nodes at hop distance j.  The entries of ``level @ a``
    whose slot no earlier level reached make level j + 1."""
    seen = np.zeros(slots.len, dtype=bool)
    seen[slots(level)] = True
    levels = [level]
    while depth is None or len(levels) <= depth:
        step = _product(level, a)
        s = slots(step)
        new = ~seen[s]
        s = s[new]
        if not len(s):
            break
        seen[s] = True
        ends = np.zeros(len(new) + 1, dtype=step.indptr.dtype)
        np.cumsum(new, out=ends[1:])
        level = sp.csr_array((step.data[new], step.indices[new], ends[step.indptr]), shape=step.shape)
        levels.append(level)
    return levels


def _backward(levels, a, slots, base, delta=None):
    """Backward pass: yields (j, sigma_j, x_j - base) for j = D .. 1, with
    x_j = base(sigma_j) + (u_{j+1} @ a) read at level j's entries, aligned
    with sigma_j's data.  x_j - 1 counts the DAG paths down (stress);
    sigma * (x_j - 1 / sigma) is the Brandes dependency.  u is x, or with
    ``delta`` the per-length DAG path counts for lengths < delta.  Each
    level is dropped from ``levels`` once it has been used."""
    buf = np.zeros(slots.len, dtype=levels[0].dtype)
    below, upper = [], None
    while len(levels) > 1:
        sigma = levels.pop()
        at, b = slots(sigma), base(sigma.data)
        ps = []
        for u in below:
            p = _product(_like(upper, u), a)
            s = slots(p)
            buf[s] = p.data
            ps.append(buf[at])
            buf[s] = 0
        x = reduce(_add, ps, b)
        yield len(levels), sigma, x - b
        below = [x] if delta is None else [np.ones_like(b)] + ps[:delta - 1]
        upper = sigma


def _path_count_sums(levels, a, slots, delta=None):
    """Per node, sigma * (DAG paths down) summed over levels 1..delta, as the
    sums of each term's high and low 32-bit halves, which cannot wrap."""
    out = np.zeros((2, a.shape[0]), dtype=np.int64)
    if delta is not None and len(levels) <= delta + 1:
        # every level, and every DAG path down, is within delta: plain stress
        delta = None
    for j, sigma, p in _backward(levels, a, slots, np.ones_like, delta):
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
    """Sum block_sum(levels, a, slots) over blocks of sources, in block order.

    ``a`` is the adjacency in ``dtype``, over as_csr's arrays.
    A source keeps at most one entry per node of its component, so a block
    holds consecutive sources whose component sizes sum to at most
    _ENTRY_BUDGET (or a single source); its slots and levels stay within
    that many entries whatever n is.  Blocks run on ``workers`` threads
    with at most 2 * workers of them submitted and not yet summed.
    """
    indptr, indices = as_csr(graph)
    size, rank = _reach(indptr, indices)
    a = _adjacency(indptr, indices, dtype)
    # an empty graph runs one empty block, which gives the sum its shape
    blocks = _blocks(size, _ENTRY_BUDGET) or [(0, 0)]

    def run(block):
        lo, hi = block
        level = sp.csr_array((np.ones(hi - lo, dtype), np.arange(lo, hi, dtype=indices.dtype),
                              np.arange(hi - lo + 1, dtype=indptr.dtype)), shape=(hi - lo, a.shape[0]))
        slots = _Slots(size[lo:hi], rank)
        return block_sum(_levels(a, level, slots, depth), a, slots)

    w = min(resolve_workers(workers), len(blocks))
    if w == 1:
        return sum(map(run, blocks))
    with ThreadPoolExecutor(max_workers=w) as ex:
        pending, total = deque(), 0
        for block in blocks:
            pending.append(ex.submit(run, block))
            if len(pending) > 2 * w:  # bounds the block sums held at once
                total = total + pending.popleft().result()
        return sum((f.result() for f in pending), total)


def stress_centrality(graph, workers=None):
    """Stress centrality: shortest paths through each node, ordered pairs.

    Counts are exact int64; NumericalError if one exceeds the int64 range.
    """
    return _join(_run_sources(graph, np.int64, None, _path_count_sums, workers))


def _dependency_sums(levels, a, slots):
    return sum((np.bincount(sigma.indices, sigma.data * deps, a.shape[0])
                for _, sigma, deps in _backward(levels, a, slots, np.reciprocal)),
               np.zeros(a.shape[0]))


def betweenness_centrality(graph, workers=None):
    """Brandes betweenness over ordered pairs (no endpoint credit).

    Path counts are float64, so they round instead of wrapping.
    """
    return _run_sources(graph, float, None, _dependency_sums, workers)


def khop_size(graph, k):
    """Number of nodes within hop distance k of each node, excluding itself.

    The ball of radius k is the row pattern of (I + A)**k, taken by boolean
    products over blocks of rows.  A block's balls, bounded by the walks of
    up to k steps and by the component sizes, sum to at most _ENTRY_BUDGET;
    a block stops early once its balls stop growing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    indptr, indices = as_csr(graph)
    bound, _ = _reach(indptr, indices, k)
    n = len(bound)
    step = _adjacency(indptr, indices, bool) + sp.eye_array(n, dtype=bool, format="csr")
    out = np.empty(n, dtype=np.int64)
    for lo, hi in _blocks(bound, _ENTRY_BUDGET):
        ball = step[lo:hi]
        for _ in range(k - 1):
            grown = ball @ step
            if grown.nnz == ball.nnz:
                break
            ball = grown
        out[lo:hi] = np.diff(ball.indptr) - 1
    return out


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

    A SensorNetwork keeps the result as a read-only int64 array, which later
    calls, ``normalized_st`` and ``run_protocol`` return or read instead of
    counting again; this function alone stores it.  Adjacency lists are
    counted on every call.
    """
    if not isinstance(graph, SensorNetwork):
        return _stress1(_adjacency(*as_csr(graph)))
    if graph._kept_stress1 is None:
        s1 = _stress1(_adjacency(graph.indptr, graph.indices))
        s1.flags.writeable = False
        graph._kept_stress1 = s1
    return graph._kept_stress1


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
    """st(v) = stress1 / C(deg, 2), defined as 0 for degree <= 1; on a
    SensorNetwork, stress1 is the one ``stress1`` keeps."""
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
