"""Shortest-path centrality indices on unit-disk networks.

All distances are hop counts.  ``stress`` counts shortest paths with the
node strictly interior, over ordered source/target pairs; ``betweenness``
is the classic fractional variant; ``restricted_stress`` keeps only paths
whose two endpoints both lie within a hop ball around the node; ``stress1``
and ``normalized_st`` are the purely local quantities used by the boundary
protocol.

Stress, betweenness and restricted stress share one kernel, Brandes'
algorithm as sparse products: blocks of sources walk forward one BFS level
per product with the adjacency, then sum dependencies back up.  The kernel
runs on the graph relabelled in a network's position order, which gives
neighbours nearby ids, with each component's ids made contiguous; it sums
in those ids and maps the total to the caller's ids once per call.  A
component of at most 2 nodes has no interior node, so it runs no source.
A block lays its sources out as a dense rows x W array, W its largest
component, where row r holds node v at v less the first id of its
source's component.  A level is the entries of its product whose slot no
earlier level reached; its slots are kept, and its indptr is where they pass
the rows' bounds.  A product is scipy's numeric SpGEMM pass alone, without
the symbolic pass that sizes its output: it writes into buffers that the
block's components bound, allocated once per block, and levels are plain
(indptr, indices, data) triples, so a level costs one product and no matrix
build.  The backward pass multiplies by the adjacency with each id less its
component's first, adds each product into a dense buffer per path length
with scipy's CSR-to-dense scatter, which puts every entry at its slot, and
reads the buffer at the level's kept slots; no pass clears it.  A block's
rows times W is at most ``_ENTRY_BUDGET``, which bounds its memory whatever
n is.  Blocks run on ``workers`` threads and are summed in block order, so
results do not depend on the worker count.  Integer counts are exact or
raise NumericalError.  ``khop_size`` takes boolean products with I + A on
the relabelled graph instead, and delta = 1 is 2 * ``stress1``, no kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np
import scipy.sparse as sp
# scipy's numeric SpGEMM pass, without the symbolic pass and the checks that
# `x @ a` adds, and its CSR-to-dense scatter, which adds into a given buffer;
# private functions, verified on scipy 1.17.1
from scipy.sparse._sparsetools import csr_matmat, csr_todense

from ._arrays import is_integer
# the thread-count helpers live in a scipy-free module, so that theory can use
# them; callers of the path measures import them from here
from ._workers import WORKERS_ENV, ordered_map, resolve_workers
from .errors import NumericalError
from .netgen import SensorNetwork, _check_csr, _check_symmetric, _index_dtype

# stress1 takes rows in blocks whose neighbors' degrees sum to about this
_GATHER_BUDGET = 1 << 22
# the path measures take sources in blocks whose dense layout, rows times the
# largest of their components, holds at most this many (source, node) slots,
# which also bounds a block's product and scatter buffers, and khop takes them
# in blocks whose balls hold at most this many entries; larger blocks spend
# less CPU per source on each product but hold more memory per worker, and
# this size was picked from the peak RSS measured on 1.5k-node networks
_ENTRY_BUDGET = 3 << 14
_INT64_END = 1 << 63
_LOW32 = (1 << 32) - 1
_OVERFLOW = "shortest-path counts exceed the int64 range"


def as_csr(graph):
    """CSR view (indptr, indices) of a SensorNetwork or of adjacency lists,
    one sequence of node ids per node.  List rows are sorted, checked as a
    network's are, by ``netgen._check_csr`` and ``netgen._check_symmetric``,
    so that either is a simple graph, and take ``netgen._index_dtype``.  A
    scipy sparse array is refused: it is neither."""
    if isinstance(graph, SensorNetwork):
        return graph.indptr, graph.indices
    if sp.issparse(graph):
        raise ValueError("a graph is a SensorNetwork or adjacency lists, not a sparse array")
    n = len(graph)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, graph), dtype=np.int64, count=n), out=indptr[1:])
    rows = [np.sort(a) for a in graph if len(a)]
    if any(row.dtype.kind not in "iu" for row in rows):
        raise ValueError("adjacency ids must be integers")
    # cast to int64 here, as numpy would promote uint64 and signed rows to
    # float64; an id of 2**63 or more wraps negative, which _check_csr refuses
    indices = np.concatenate(rows or [np.empty(0, np.int64)], dtype=np.int64, casting="unsafe")
    _check_csr(n, indptr, indices)
    dtype = _index_dtype(n, len(indices))
    indptr, indices = indptr.astype(dtype), indices.astype(dtype, copy=False)
    _check_symmetric(indptr, indices)
    return indptr, indices


def _adjacency(indptr, indices, dtype=float):
    """The 0/1 adjacency over the CSR arrays as a scipy sparse array.

    The ones default to float64, the dtype of csgraph and of products with
    float vectors, so neither copies the data; integer sums stay exact below 2**53.
    """
    n = len(indptr) - 1
    return sp.csr_array((np.ones(len(indices), dtype=dtype), indices, indptr), shape=(n, n))


def _relabel(graph):
    """The CSR of ``graph`` relabelled for the path kernel: (perm, indptr,
    indices, first, size), where new node i is old node perm[i], each row
    is sorted, and the component of new node i holds the size[i] new nodes
    from first[i]; scipy keeps the graph's index dtype throughout.

    Nodes go by component, larger first, so that every component is
    contiguous and those of at most 2 nodes come last; within one, a
    network's nodes go by rows of cells of one radius, and adjacency lists
    keep their order.  Components come from the graph's own CSR, and no call
    keeps anything.  The transpose of the gathered, renamed rows sorts
    them, and by symmetry is the relabelled graph.
    """
    indptr, indices = as_csr(graph)
    label, size = _components(indptr, indices)
    a = _adjacency(indptr, indices, bool)  # one byte per entry to gather and transpose
    keys = (label, -size[label])
    if isinstance(graph, SensorNetwork):
        x, y = graph.positions.T
        with np.errstate(over="ignore"):  # a huge y / radius is a cell like any other
            keys = (x, np.floor(y / graph.radius), *keys)
    perm = np.lexsort(keys)
    inv = np.empty(len(perm), dtype=a.indices.dtype)
    inv[perm] = np.arange(len(perm))
    a = a[perm]
    a.indices = inv[a.indices]
    a = a.T.tocsr()
    cuts = np.flatnonzero(np.diff(label[perm], prepend=-1, append=-1)).astype(a.indices.dtype)
    runs = np.diff(cuts)
    return perm, a.indptr, a.indices, np.repeat(cuts[:-1], runs), np.repeat(runs, runs)


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


def _span_blocks(size, budget):
    """Consecutive source ranges (lo, hi) of budget // size[lo] sources, or
    one, for component sizes ``size`` that never grow: rows times the
    block's largest component is at most ``budget``."""
    blocks, lo = [], 0
    while lo < len(size):
        hi = min(len(size), lo + max(1, budget // int(size[lo])))
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
    # holds neighbours of those, which the adjacency keeps in that component,
    # as a SensorNetwork is made, and lists converted, only once their ids
    # are nodes' (netgen._check_csr) and each edge is listed from both ends
    # (netgen._check_symmetric); so their ids, or with _Span.rel their ids
    # less the component's first, are below a.shape[1]; csr_matmat stores
    # each column at most once per row, so the product fits the buffers that
    # _Span sizes by the sources' components
    csr_matmat(len(indptr) - 1, a.shape[1], *x, a.indptr, a.indices, a.data, *out)
    nnz = indptr[-1]
    return indptr, indices[:nnz], data[:nnz]


def _product(x, a, span):
    """x @ a for a nonnegative triple x, in the block's buffers, raising
    NumericalError on a non-finite float or inexact int64 entry.  When
    max(x) * n (n bounds every degree) reaches 2**63, x's 32-bit halves are
    multiplied apart; hi + (lo >> 32), added at each entry's slot, counts the
    whole 2**32 units of each exact entry."""
    indptr, indices, data = x
    if data.dtype.kind == "i" and len(data) and int(data.max()) * a.shape[0] >= _INT64_END:
        units = span.dense(np.int64)
        hi = _matmat((indptr, indices, data >> 32), span.rel, span.out)
        csr_todense(span.rows, span.width, *hi, units)
        lo = _matmat((indptr, indices, data & _LOW32), span.rel, span.out)
        csr_todense(span.rows, span.width, *lo[:2], lo[2] >> 32, units)
        if units.max() >= 1 << 31:
            raise NumericalError(_OVERFLOW)
    y = _matmat(x, a, span.out)
    if data.dtype.kind == "f" and not np.isfinite(y[2]).all():
        raise NumericalError("shortest-path counts overflow float64")
    return y


def _components(indptr, indices):
    """The component label of each node of the CSR graph (indptr, indices) and
    the size of each component; csgraph allocates O(n) and copies no array.
    Any CSR is labelled by its strong components: on one with the rows of
    unlabelled nodes emptied, they are the labelled subgraph's components,
    and each unlabelled node alone."""
    from scipy.sparse.csgraph import connected_components

    # csgraph reads only the pattern of a float64 CSR, so its ones can be one
    # value at stride 0; a symmetric graph's strong components need no transpose
    n = len(indptr) - 1
    a = sp.csr_array((np.broadcast_to(1.0, indices.shape), indices, indptr), shape=(n, n))
    _, label = connected_components(a, connection="strong")
    return label, np.bincount(label)


class _Span:
    """The dense layout of a block of sources, over their components, which
    ``_relabel`` makes contiguous: the component of row r's source holds the
    ids first[r] .. first[r] + size[r] - 1, and node v of it sits at slot
    r * width + v - first[r] of a rows x width array, with width the block's
    largest component.  So row r owns one run of slots, in row order, that
    ``bounds`` delimits, and a node's slot is its id plus ``starts[r]``.
    ``rel`` is the adjacency ``a`` with each id less its component's first
    id, so that a product with it holds v - first[r] in row r, at the
    offset of v's slot in the row's run.  Slots take the graph's index
    dtype, which holds them, as a block holds at most _ENTRY_BUDGET slots
    or one row.  ``lo`` is the first id of the block's components, and
    ``ids`` the count of ids from there that they hold.
    ``out`` holds the (indptr, indices, data) buffers, in the dtypes of
    ``a``, that every product of the block is written into: a product row
    holds at most one entry per node of its source's component, so they
    hold the sum of the sources' component sizes."""

    def __init__(self, rel, first, size):
        dtype = rel.indices.dtype
        self.rel, self.rows = rel, len(first)
        self.width = int(size[0])
        self.len = self.rows * self.width
        self.bounds = np.arange(self.rows + 1, dtype=dtype) * self.width
        self.starts = self.bounds[:-1] - first.astype(dtype, copy=False)
        self.lo = int(first[0])
        self.ids = int(first[-1] + size[-1]) - self.lo
        fill = int(size.sum())
        self.out = (np.empty(self.rows + 1, dtype=rel.indptr.dtype),
                    np.empty(fill, dtype=dtype), np.empty(fill, dtype=rel.dtype))

    def __call__(self, m):
        """The slot of every stored entry of the triple m, which has one row
        per source and the graph's ids."""
        indptr = m[0]
        s = np.repeat(self.starts, indptr[1:] - indptr[:-1])
        s += m[1]
        return s

    def dense(self, dtype):
        """A zeroed array over the slots."""
        return np.zeros(self.len, dtype=dtype)


def _levels(a, level, span, depth):
    """Forward pass from level 0, one (indptr, indices, data) triple with one
    row per source: a list of (level j, its slots), up to ``depth``, where
    level j holds sigma, the number of shortest paths from the row's source,
    on the nodes at hop distance j.  The entries of ``level @ a`` whose slot
    no earlier level reached make level j + 1; they stay in row order, so
    its indptr is where its slots pass the rows' bounds."""
    s = span(level)
    unseen = np.ones(span.len, dtype=bool)
    unseen[s] = False
    levels = [(level, s)]
    while depth is None or len(levels) <= depth:
        indptr, indices, data = _product(level, a, span)
        s = span((indptr, indices))
        new = unseen[s]
        s = s[new]
        if not len(s):
            break
        unseen[s] = False
        indptr = np.searchsorted(s, span.bounds).astype(indptr.dtype)
        level = (indptr, indices[new], data[new])
        levels.append((level, s))
    return levels


def _backward(levels, a, span, base, delta=None):
    """Backward pass: yields (j, sigma_j, x_j - base) for j = D .. 1, with
    x_j = base(sigma_j) + (u_{j+1} @ a) read at level j's entries, aligned
    with sigma_j's data.  x_j - 1 counts the DAG paths down (stress);
    sigma * (x_j - 1 / sigma) is the Brandes dependency.  u is x, or with
    ``delta`` the per-length DAG path counts for lengths < delta, each
    length with its own dense buffer.  Each level is dropped from
    ``levels`` once it has been used."""
    dense = []
    below, upper = [], None
    while len(levels) > 1:
        sigma, at = levels.pop()
        b = base(sigma[2])
        ps = []
        for k, u in enumerate(below):
            if k == len(dense):
                dense.append(span.dense(a.dtype))
            p = _product((*upper[:2], u), span.rel, span)
            # csr_todense adds p into the buffer at row * width + column and
            # checks no bounds: p's row r holds nodes v of its source's
            # component (see _matmat) as v - first[r], so it writes the slots
            # r * width .. (r + 1) * width - 1 of dense[k].  No pass clears
            # the buffer: the product from level j + 1 holds only nodes at
            # levels j, j + 1 and j + 2, and each earlier product into it came
            # from a deeper level, so level j's slots hold this product or zero
            csr_todense(span.rows, span.width, *p, dense[k])
            ps.append(dense[k][at])
        x = reduce(_add, ps, b)
        yield len(levels), sigma, x - b
        below = [x] if delta is None else [np.ones_like(b)] + ps[:delta - 1]
        upper = sigma


def _path_count_sums(levels, a, span, delta=None):
    """Per node of the span, sigma * (DAG paths down) summed over levels
    1..delta, as the sums of each term's high and low 32-bit halves, which
    cannot wrap."""
    out = np.zeros((2, span.ids), dtype=np.int64)
    if delta is not None and len(levels) <= delta + 1:
        # every level, and every DAG path down, is within delta: plain stress
        delta = None
    for j, (_, nodes, s), p in _backward(levels, a, span, np.ones_like, delta):
        if delta is not None and j > delta:
            continue
        if int(s.max()) * int(p.max()) >= _INT64_END and np.any(p > np.iinfo(np.int64).max // s):
            raise NumericalError(_OVERFLOW)
        nodes = nodes - span.lo
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
    """Sum block_sum(levels, a, span) over blocks of sources, in block order.

    ``a`` is the adjacency in ``dtype``, over the CSR that ``_relabel``
    gives; a block's sum, one row of floats or two of 32-bit halves, is
    indexed by the ids of its components, from ``span.lo``, in its last axis,
    and is added into the total in those ids, which maps to the caller's once.
    A component of at most 2 nodes has no interior node, so its nodes are
    no sources.  A block holds consecutive sources whose rows times largest
    component, the size of its ``_Span``, is at most _ENTRY_BUDGET (or a
    single source); its slots and levels stay within that many entries
    whatever n is.  Blocks run on ``workers`` threads (``ordered_map``).
    """
    perm, indptr, indices, first, size = _relabel(graph)
    n = len(perm)
    a = _adjacency(indptr, indices, dtype)
    rel = sp.csr_array((a.data, indices - first[indices], a.indptr),
                       shape=(n, int(size.max(initial=0))))
    # _relabel puts the components of at most 2 nodes last, and larger ones
    # first, so the sources are a prefix whose component sizes never grow
    sources = np.count_nonzero(size > 2)
    blocks = _span_blocks(size[:sources], _ENTRY_BUDGET)

    def run(block):
        lo, hi = block
        level = (np.arange(hi - lo + 1, dtype=indptr.dtype),
                 np.arange(lo, hi, dtype=indices.dtype), np.ones(hi - lo, dtype))
        span = _Span(rel, first[lo:hi], size[lo:hi])
        return span.lo, block_sum(_levels(a, level, span, depth), a, span)

    total = np.zeros((2, n) if a.dtype.kind == "i" else n, dtype=a.dtype)
    w = min(resolve_workers(workers), len(blocks))
    for lo, s in ordered_map(run, blocks, w):
        total[..., lo:lo + s.shape[-1]] += s
    out = np.empty_like(total)
    out[..., perm] = total  # in the caller's ids
    return out


def stress_centrality(graph, workers=None):
    """Stress centrality: shortest paths through each node, ordered pairs.

    Counts are exact int64; NumericalError if one exceeds the int64 range.
    """
    return _join(_run_sources(graph, np.int64, None, _path_count_sums, workers))


def _dependency_sums(levels, a, span):
    """Per node of the span, the Brandes dependencies summed over levels."""
    return sum((np.bincount(nodes - span.lo, sigma * deps, span.ids)
                for _, (_, nodes, sigma), deps in _backward(levels, a, span, np.reciprocal)),
               np.zeros(span.ids))


def betweenness_centrality(graph, workers=None):
    """Brandes betweenness over ordered pairs (no endpoint credit).

    Path counts are float64, so they round instead of wrapping.
    """
    return _run_sources(graph, float, None, _dependency_sums, workers)


def khop_size(graph, k):
    """Number of nodes within hop distance k of each node, excluding itself.

    A component of s nodes holds every member within s - 1 hops, so where
    s - 1 <= k the ball is the component, with no product.  Elsewhere the
    ball of radius k is the row pattern of (I + A)**k, taken by boolean
    products over row blocks in ``_relabel``'s order, which puts those
    larger components first.  A block's balls, bounded by the walks of up
    to k steps and by the component sizes, sum to at most _ENTRY_BUDGET; a
    block stops early once its balls stop growing.
    """
    if not is_integer(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    perm, indptr, indices, _, size = _relabel(graph)
    out = np.empty(len(perm), dtype=np.int64)
    # the rows of the unsaturated components, a prefix, and their adjacency
    rows = np.count_nonzero(size - 1 > k)
    out[perm[rows:]] = size[rows:] - 1  # in the caller's ids
    indptr, indices = indptr[:rows + 1], indices[:indptr[rows]]
    a = _adjacency(indptr, indices)
    bound = np.ones(rows)
    for _ in range(k):  # Horner: 1 + A @ (walks of one step fewer)
        grown = np.minimum(1.0 + a @ bound, size[:rows])
        if np.array_equal(grown, bound):
            break
        bound = grown
    del a  # the float adjacency is not held through the ball products
    step = _adjacency(indptr, indices, bool) + sp.eye_array(rows, dtype=bool, format="csr")
    for lo, hi in _blocks(bound, _ENTRY_BUDGET):
        ball = step[lo:hi]
        for _ in range(k - 1):
            grown = ball @ step
            if grown.nnz == ball.nnz:
                break
            ball = grown
        out[perm[lo:hi]] = np.diff(ball.indptr) - 1  # in the caller's ids
    return out


def restricted_stress(graph, delta, workers=None):
    """Stress restricted to endpoint pairs within hop distance ``delta`` of the node.

    Shortest paths are full-graph shortest paths; only the endpoints are
    constrained to the hop ball.  For a connected graph and delta >= its
    diameter this equals plain stress.  NumericalError as for stress.  At
    delta = 1 each pair of unlinked neighbours is one path each way, so it is
    2 * ``stress1`` (kept on a network), with no kernel.
    """
    if not is_integer(delta) or delta < 1:
        raise ValueError(f"delta must be an integer >= 1, got {delta!r}")
    if delta == 1:
        resolve_workers(workers)  # checked, though no worker runs
        return 2 * stress1(graph)
    # a target at DAG depth i <= delta below a node at level j <= delta is
    # within delta hops of it, and lies at level j + i <= 2 * delta
    sums = partial(_path_count_sums, delta=int(delta))
    return _join(_run_sources(graph, np.int64, 2 * int(delta), sums, workers))


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
    "stress": (stress_centrality, ("workers",)),
    "betweenness": (betweenness_centrality, ("workers",)),
    "rstress": (restricted_stress, ("delta", "workers")),
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
    for name, value in (("k", k), ("delta", delta)):
        if name in needed:
            if value is None:
                raise ValueError(f"measure {measure!r} requires {name}")
            params[name] = value  # the measure checks it
    threads = {"workers": workers} if "workers" in needed else {}
    return CentralityResult(measure, func(graph, **params, **threads), params)
