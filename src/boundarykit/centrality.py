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
each product at a level's slots.  A product is scipy's numeric SpGEMM pass
alone, without the symbolic pass that sizes its output: it writes into
buffers that the block's slots bound, allocated once per block, and levels
are plain (indptr, indices, data) triples, so a level costs one product and
no matrix build either way.  The kernel runs on the graph relabelled in
reverse Cuthill-McKee order, which gives neighbours nearby ids and so makes
the products faster, and maps each result back to the caller's ids.  A block
holds sources whose component sizes sum to at most ``_ENTRY_BUDGET``, which
bounds its memory whatever n is.  Blocks run on ``workers`` threads and are
summed in block order, so results do not depend on the worker count.
Integer counts are exact or raise NumericalError.  ``khop_size`` takes
boolean products with I + A instead.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np
import scipy.sparse as sp
# scipy's numeric SpGEMM pass, without the symbolic pass and the checks that
# `x @ a` adds; a private function, verified on scipy 1.17.1
from scipy.sparse._sparsetools import csr_matmat

# the thread-count helpers live in a scipy-free module, so that theory can use
# them; callers of the path measures import them from here
from ._workers import WORKERS_ENV, resolve_workers
from .errors import NumericalError
from .netgen import SensorNetwork, _index_dtype

# stress1 takes rows in blocks whose neighbors' degrees sum to about this
_GATHER_BUDGET = 1 << 22
# the path measures and khop take sources in blocks that keep at most this
# many (source, node) entries, which also bounds a path-kernel block's product
# buffers; larger blocks spend less CPU per source on each product but hold
# more memory per worker, and this size was picked from the peak RSS measured
# on 1.5k-node networks
_ENTRY_BUDGET = 3 << 14
_INT64_END = 1 << 63
_LOW32 = (1 << 32) - 1
_OVERFLOW = "shortest-path counts exceed the int64 range"


def as_csr(graph):
    """CSR view (indptr, indices) of a SensorNetwork or adjacency lists; the
    arrays built from lists take ``netgen._index_dtype``, as a network's do.
    Lists are checked by ``_check_adjacency``: ValueError unless they hold
    node ids only and list each edge once from each of its ends."""
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
    indptr = indptr.astype(dtype, copy=False)
    _check_adjacency(indptr, indices)
    return indptr, indices


def _check_adjacency(indptr, indices):
    """ValueError unless every id in ``indices`` is a node's and each edge is
    listed once from each of its ends: the path kernel's products check no
    bounds and rely on the first two, and csgraph's components do not return
    on repeated entries.  Costs O(n + m)."""
    n = len(indptr) - 1
    if len(indices) and (int(indices.min()) < 0 or int(indices.max()) >= n):
        raise ValueError(f"adjacency holds ids outside 0..{n - 1}")
    a = _adjacency(indptr, indices, bool)
    if not a.has_sorted_indices:
        a = a.sorted_indices()
    if not a.has_canonical_format:  # a sorted row repeats an id
        raise ValueError("adjacency lists an edge twice from the same end")
    t = a.T.tocsr()  # a counting sort, whose rows come out sorted
    if not (np.array_equal(t.indptr, a.indptr) and np.array_equal(t.indices, a.indices)):
        raise ValueError("adjacency must list each edge from both of its ends")


def _adjacency(indptr, indices, dtype=float):
    """The 0/1 adjacency over the CSR arrays as a scipy sparse array.

    The ones default to float64, the dtype of csgraph and of products with
    float vectors, so neither copies the data; integer sums stay exact below 2**53.
    """
    n = len(indptr) - 1
    return sp.csr_array((np.ones(len(indices), dtype=dtype), indices, indptr), shape=(n, n))


def _rcm_csr(indptr, indices):
    """The CSR of a graph with at least one edge, relabelled in reverse
    Cuthill-McKee order: (perm, indptr, indices), where new node i is old
    node perm[i] and each row is sorted."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(_adjacency(indptr, indices, bool), symmetric_mode=True)
    inv = np.empty(len(perm), dtype=indices.dtype)
    inv[perm] = np.arange(len(perm), dtype=indices.dtype)
    # one gather takes old row perm[i] as new row i
    degs = np.diff(indptr)[perm]
    ptr = np.zeros_like(indptr)
    np.cumsum(degs, out=ptr[1:])
    at = np.repeat(indptr[perm] - ptr[:-1], degs) + np.arange(ptr[-1])
    a = _adjacency(ptr, inv[indices[at]], bool)
    a.sort_indices()
    return perm, a.indptr, a.indices


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


def _add(x, y):
    """x + y for nonnegative x and y; an int64 entry that wraps reads negative."""
    z = x + y
    if z.dtype.kind == "i" and z.size and z.min() < 0:
        raise NumericalError(_OVERFLOW)
    return z


def _matmat(x, a, out):
    """x @ a for an (indptr, indices, data) triple x, written into the
    triple of buffers ``out``; returns the product as a triple of views."""
    indptr, indices, data = out
    # csr_matmat checks no bounds, so this is the only guard: a row of x is
    # one source's and holds nodes of its component, so the same row of x @ a
    # holds neighbours of those, which the symmetric adjacency (checked by
    # _check_adjacency) keeps in that component, and is empty only if the
    # source's adjacency row is; csr_matmat stores each column at most once
    # per row, so the product fits the buffers that _Slots sizes by the
    # components, less one entry per source with an empty row
    csr_matmat(len(indptr) - 1, a.shape[1], *x, a.indptr, a.indices, a.data, *out)
    nnz = indptr[-1]
    return indptr, indices[:nnz], data[:nnz]


def _product(x, a, slots):
    """x @ a for a nonnegative triple x, in the block's buffers, raising
    NumericalError on a non-finite float or inexact int64 entry.  When
    max(x) * n (n bounds every degree) reaches 2**63, x's 32-bit halves are
    multiplied apart; hi + (lo >> 32), added at each entry's slot, counts the
    whole 2**32 units of each exact entry."""
    indptr, indices, data = x
    if data.dtype.kind == "i" and len(data) and int(data.max()) * a.shape[0] >= _INT64_END:
        units = np.zeros(slots.len, dtype=np.int64)
        hi = _matmat((indptr, indices, data >> 32), a, slots.out)
        units[slots(hi)] = hi[2]
        lo = _matmat((indptr, indices, data & _LOW32), a, slots.out)
        units[slots(lo)] += lo[2] >> 32
        if units.max() >= 1 << 31:
            raise NumericalError(_OVERFLOW)
    y = _matmat(x, a, slots.out)
    if data.dtype.kind == "f" and not np.isfinite(y[2]).all():
        raise NumericalError("shortest-path counts overflow float64")
    return y


def _reach(indptr, indices, depth=None):
    """Per node, a bound on the nodes within ``depth`` hops of it, itself
    included, and its rank within its component, in the dtype of ``indices``.

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
    rank = np.empty(len(label), dtype=indices.dtype)
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
    rank within the component, so ``len`` bounds the entries the block keeps.
    Slots take the graph's index dtype, that of ``rank``, which holds them,
    as a block holds at most _ENTRY_BUDGET slots or one component's.
    ``out`` holds the (indptr, indices, data) buffers, in the dtypes of the
    adjacency ``a``, that every product of the block is written into: a
    product row holds at most one entry per node of its source's component,
    and none for a source whose row of ``a`` is empty (an isolated node
    without a self-loop), so they hold that many entries.  The block's
    sources are lo, lo + 1, ...; ``size`` holds their component sizes."""

    def __init__(self, size, rank, a, lo):
        self.starts = np.cumsum(size) - size
        self.rank = rank
        self.len = int(size.sum())
        rows = np.diff(a.indptr[lo:lo + len(size) + 1])
        fill = self.len - int(np.count_nonzero(rows == 0))
        self.out = (np.empty(len(size) + 1, dtype=a.indptr.dtype),
                    np.empty(fill, dtype=a.indices.dtype), np.empty(fill, dtype=a.dtype))

    def __call__(self, m):
        """The slot of every stored entry of the triple m, which has one row
        per source."""
        s = self.rank[m[1]]
        s += np.repeat(self.starts, np.diff(m[0]))
        return s


def _levels(a, level, slots, depth):
    """Forward pass from level 0, one (indptr, indices, data) triple with one
    row per source: level j, up to ``depth``, holds sigma, the number of
    shortest paths from the row's source, on the nodes at hop distance j.
    The entries of ``level @ a`` whose slot no earlier level reached make
    level j + 1."""
    seen = np.zeros(slots.len, dtype=bool)
    seen[slots(level)] = True
    levels = [level]
    while depth is None or len(levels) <= depth:
        step = _product(level, a, slots)
        s = slots(step)
        new = ~seen[s]
        s = s[new]
        if not len(s):
            break
        seen[s] = True
        indptr, indices, data = step
        ends = np.zeros(len(new) + 1, dtype=indptr.dtype)
        np.cumsum(new, out=ends[1:])
        level = (ends[indptr], indices[new], data[new])
        levels.append(level)
    return levels


def _backward(levels, a, slots, base, delta=None):
    """Backward pass: yields (j, sigma_j, x_j - base) for j = D .. 1, with
    x_j = base(sigma_j) + (u_{j+1} @ a) read at level j's entries, aligned
    with sigma_j's data.  x_j - 1 counts the DAG paths down (stress);
    sigma * (x_j - 1 / sigma) is the Brandes dependency.  u is x, or with
    ``delta`` the per-length DAG path counts for lengths < delta.  Each
    level is dropped from ``levels`` once it has been used."""
    buf = np.zeros(slots.len, dtype=a.dtype)
    below, upper = [], None
    while len(levels) > 1:
        sigma = levels.pop()
        at, b = slots(sigma), base(sigma[2])
        ps = []
        for u in below:
            p = _product((*upper[:2], u), a, slots)
            s = slots(p)
            buf[s] = p[2]
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
    for j, (_, nodes, s), p in _backward(levels, a, slots, np.ones_like, delta):
        if delta is not None and j > delta:
            continue
        if int(s.max()) * int(p.max()) >= _INT64_END and np.any(p > np.iinfo(np.int64).max // s):
            raise NumericalError(_OVERFLOW)
        np.add.at(out[0], nodes, s * p >> 32)
        np.add.at(out[1], nodes, s * p & _LOW32)
    return out


def _join(halves):
    """hi * 2**32 + lo as int64, or NumericalError if it exceeds the range."""
    hi = halves[0] + (halves[1] >> 32)
    if np.any(hi >= 1 << 31):
        raise NumericalError(_OVERFLOW)
    return (hi << 32) | (halves[1] & _LOW32)


def _run_sources(graph, dtype, depth, block_sum, workers):
    """Sum block_sum(levels, a, slots) over blocks of sources, in block order.

    ``a`` is the adjacency in ``dtype``, over as_csr's arrays relabelled by
    ``_rcm_csr``; the sum, indexed by node in its last axis, is mapped back
    to the caller's ids.  An edgeless graph keeps its ids.
    A source keeps at most one entry per node of its component, so a block
    holds consecutive sources whose component sizes sum to at most
    _ENTRY_BUDGET (or a single source); its slots and levels stay within
    that many entries whatever n is.  Blocks run on ``workers`` threads
    with at most 2 * workers of them submitted and not yet summed.
    """
    indptr, indices = as_csr(graph)
    if hasattr(graph, "indptr"):  # as_csr checks adjacency lists
        _check_adjacency(indptr, indices)
    perm = None
    if len(indices):  # RCM raises on n = 0, and no order helps without edges
        perm, indptr, indices = _rcm_csr(indptr, indices)
    size, rank = _reach(indptr, indices)
    a = _adjacency(indptr, indices, dtype)
    # an empty graph runs one empty block, which gives the sum its shape
    blocks = _blocks(size, _ENTRY_BUDGET) or [(0, 0)]

    def run(block):
        lo, hi = block
        level = (np.arange(hi - lo + 1, dtype=a.indptr.dtype),
                 np.arange(lo, hi, dtype=a.indices.dtype), np.ones(hi - lo, dtype))
        slots = _Slots(size[lo:hi], rank, a, lo)
        return block_sum(_levels(a, level, slots, depth), a, slots)

    w = min(resolve_workers(workers), len(blocks))
    if w == 1:
        total = sum(map(run, blocks))
    else:
        with ThreadPoolExecutor(max_workers=w) as ex:
            pending, total = deque(), 0
            for block in blocks:
                pending.append(ex.submit(run, block))
                if len(pending) > 2 * w:  # bounds the block sums held at once
                    total = total + pending.popleft().result()
            total = sum((f.result() for f in pending), total)
    if perm is None:
        return total
    out = np.empty_like(total)
    out[..., perm] = total
    return out


def stress_centrality(graph, workers=None):
    """Stress centrality: shortest paths through each node, ordered pairs.

    Counts are exact int64; NumericalError if one exceeds the int64 range.
    """
    return _join(_run_sources(graph, np.int64, None, _path_count_sums, workers))


def _dependency_sums(levels, a, slots):
    return sum((np.bincount(nodes, sigma * deps, a.shape[0])
                for _, (_, nodes, sigma), deps in _backward(levels, a, slots, np.reciprocal)),
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
    indptr, indices = as_csr(graph)
    if isinstance(graph, SensorNetwork):
        s1 = stress1(graph)
    else:  # adjacency lists are converted once, here
        s1 = _stress1(_adjacency(indptr, indices))
    return st_from_stress1(np.diff(indptr), s1)


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
            values = self.values.tolist()  # Python floats, whose repr round-trips
            text = map(repr, values) if self.values.dtype.kind == "f" else map(str, map(int, values))
            fh.writelines(f"{i},{v}\n" for i, v in enumerate(text))


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
