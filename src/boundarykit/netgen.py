"""Unit-disk sensor networks over polygonal regions.

Adjacency uses the unit-disk rule: u ~ v iff ||pos(u) - pos(v)|| <= radius,
distance exactly equal to the radius included.  Neighbor discovery is one
range query on a k-d tree of the positions, which compares squared
distances with radius**2.  The radius must be positive and every coordinate
finite.

The module imports numpy only; ``scipy.spatial`` loads on the first call
that builds an adjacency, and ``scipy.sparse`` on the first symmetry test,
so reading and writing network files costs no scipy import.
"""

from __future__ import annotations

import io
import itertools
import os

import numpy as np

from .errors import FileFormatError, read_text
from . import geometry


class SensorNetwork:
    """Static node positions plus symmetric unit-disk adjacency.

    Attributes
    ----------
    positions : (n, 2) float array
    radius : float
    region : PolygonRegion or None
        The sampling region, if known; needed for ground-truth labels.
    indptr, indices : CSR adjacency (neighbor lists sorted ascending), int32
        unless n or 2m exceeds the int32 range (``_index_dtype``).

    ValueError unless every CSR row is strictly increasing with integer ids in
    0..n-1 and the graph is simple (``_check_csr``, ``_check_symmetric``), as
    ``centrality.as_csr`` checks adjacency lists; no graph function checks a network again.
    ``positions`` is a read-only view, and ``indptr`` and ``indices`` are
    read-only copies, so no write to the caller's arrays undoes the checks.
    Since the network cannot change, ``centrality.stress1`` keeps its result
    on it (``_kept_stress1``, None until then), and ``normalized_st`` and
    ``run_protocol`` read it there.
    """

    def __init__(self, positions, radius, indptr, indices, region=None):
        self._adopt(positions, radius, np.array(indptr), np.array(indices), region)
        _check_symmetric(self.indptr, self.indices)

    def _adopt(self, positions, radius, indptr, indices, region):
        """Keeps the arrays as read-only views once all but symmetry is checked."""
        _check_geometry(positions, radius)
        _check_csr(len(positions), indptr, indices)
        dtype = _index_dtype(len(positions), len(indices))
        self.positions = _read_only(positions)
        self.radius = float(radius)
        self.indptr = _read_only(indptr.astype(dtype, copy=False))
        self.indices = _read_only(indices.astype(dtype, copy=False))
        self.region = region
        self._kept_stress1 = None

    @property
    def n(self):
        return len(self.positions)

    @property
    def degrees(self):
        return np.diff(self.indptr)

    def neighbors(self, v):
        """Sorted neighbor ids of node v (a read-only CSR slice)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edges(self):
        """Edge list as an (m, 2) int64 array with u < v, lexicographically sorted."""
        return np.concatenate([np.empty((0, 2), np.int64), *_edge_blocks(self)])

    def __repr__(self):
        m = len(self.indices) // 2
        return f"SensorNetwork(n={self.n}, m={m}, radius={self.radius})"


def _check_csr(n, indptr, indices):
    """ValueError unless ``indptr`` and ``indices`` are the CSR of n rows,
    each strictly increasing with integer ids in 0..n-1, so that no row
    holds an id twice: the invariant that the graph kernels rely on, for
    networks, adjacency lists and files alike.  One vectorized O(n + m)
    pass, on the arrays as given, before any cast could wrap an id."""
    m = len(indices)
    if (indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != m
            or np.any(indptr[1:] < indptr[:-1])):
        raise ValueError(f"indptr must be {n + 1} offsets rising from 0 to {m}")
    if not m:
        return
    if indices.dtype.kind not in "iu":
        raise ValueError("adjacency ids must be integers")
    if indices.min() < 0 or indices.max() >= n:
        raise ValueError(f"adjacency holds ids outside 0..{n - 1}")
    up = indices[1:] > indices[:-1]
    # each row but the first may start below the end of the one before
    starts = indptr[1:-1]
    up[starts[(starts > 0) & (starts < m)] - 1] = True
    if not up.all():
        raise ValueError("adjacency rows must be strictly increasing, with no id twice")


def _check_symmetric(indptr, indices):
    """ValueError unless the CSR, whose rows ``_check_csr`` has accepted, is a simple
    graph, as ``centrality.stress1`` and ``centrality._matmat`` need: no node lists
    itself, and the transpose, read as CSC and sorted by ``tocsr``, equals it."""
    import scipy.sparse as sp

    n = len(indptr) - 1
    loop = indices == np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    if loop.any():
        raise ValueError(f"adjacency holds a self-loop at node {indices[loop.argmax()]}")
    t = sp.csc_array((np.ones(len(indices), dtype=bool), indices, indptr), shape=(n, n)).tocsr()
    if not (np.array_equal(t.indptr, indptr) and np.array_equal(t.indices, indices)):
        raise ValueError("adjacency must list each edge from both of its ends")


def _network(positions, radius, indptr, indices, region):
    """A SensorNetwork over a CSR from ``_csr_from_pairs``, simple by
    construction and held by no caller, so neither tested nor copied."""
    network = SensorNetwork.__new__(SensorNetwork)
    network._adopt(positions, radius, indptr, indices, region)
    return network


def _edge_blocks(network):
    """The edges u < v of ``network`` in lexicographic order, as (k, 2) int64
    arrays, one from each block of ``_EDGE_ROWS`` CSR entries, so k <= _EDGE_ROWS."""
    indptr, indices = network.indptr, network.indices
    for lo in range(0, len(indices), _EDGE_ROWS):
        hi = min(lo + _EDGE_ROWS, len(indices))
        # rows first..end-1 hold the entries lo..hi-1; a row may span blocks
        first, end = np.searchsorted(indptr, lo, "right") - 1, np.searchsorted(indptr, hi)
        u = np.repeat(np.arange(first, end), np.diff(np.clip(indptr[first:end + 1], lo, hi)))
        v = indices[lo:hi]
        keep = u < v
        yield np.column_stack([u[keep], v[keep]])


def _read_only(a):
    """A read-only view of ``a``; ``a`` itself stays writeable."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def _index_dtype(n, nnz):
    """CSR index dtype for n nodes and nnz stored entries: int32 when every
    index (below n) and offset (up to nnz) fits, else int64."""
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


def _csr_from_pairs(n, pairs):
    """Sorted CSR adjacency in ``_index_dtype`` from the C-contiguous (m, 2)
    int64 array of the edges u < v, which it overwrites.

    Each row (u, v) becomes the keys u * n + v and v * n + u, by in-place
    steps that need no temporary; sorting the 2m keys in place puts the rows
    in order and each row's columns in order, and the keys mod n are then
    the indices array.  Beyond ``pairs`` it holds only the indices in
    ``_index_dtype`` (and an int64 indptr).
    """
    u, v = pairs.T
    v += u
    u *= n - 1
    u += v      # u * n + v
    v *= n + 1  # may wrap past 2**63, but the keys, below n * n, come out exact
    v -= u      # v * n + u
    key = pairs.reshape(-1)
    key.sort()
    dtype = _index_dtype(n, len(key))
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n).astype(dtype)
    np.remainder(key, n, out=key)
    return indptr, key.astype(dtype, copy=False)


def _check_positive(name, value):
    """ValueError unless ``value`` is positive and finite."""
    if not 0 < value < np.inf:  # false for nan
        raise ValueError(f"{name} must be positive and finite")


def _check_geometry(positions, radius):
    """ValueError unless ``radius`` is positive and finite and every coordinate is finite."""
    _check_positive("radius", radius)
    if not np.isfinite(positions).all():
        raise ValueError("node coordinates must be finite")


def adjacency_from_positions(positions, radius):
    """Unit-disk edges by a k-d tree range query; returns (indptr, indices)."""
    # scipy.spatial's __init__ also loads qhull, scipy.linalg and scipy.special
    from scipy.spatial import cKDTree

    _check_geometry(positions, radius)
    pairs = cKDTree(positions).query_pairs(radius, output_type="ndarray")
    return _csr_from_pairs(len(positions), pairs)


def build_network(region, n, radius, seed):
    """Sample ``n`` uniform node positions and connect them unit-disk style."""
    pos = geometry.sample_uniform(region, n, seed)
    return _network(pos, radius, *adjacency_from_positions(pos, radius), region=region)


def expected_degree(region_area, n, radius):
    """Expected interior degree (n - 1) * pi * r^2 / area."""
    _check_positive("region area", region_area)
    _check_positive("radius", radius)
    if n <= 0:
        return 0.0
    return (n - 1) * np.pi * radius * radius / region_area


def radius_for_degree(region_area, n, degree):
    """Radius giving the requested expected interior degree."""
    _check_positive("region area", region_area)
    _check_positive("degree", degree)
    if n <= 1:
        raise ValueError("need n >= 2 to target a degree")
    return float(np.sqrt(degree * region_area / ((n - 1) * np.pi)))


def ground_truth(network, band=None):
    """Boolean labels: True where boundary distance < band (default band = radius).

    Requires the network to carry its sampling region.
    """
    if network.region is None:
        raise ValueError("network has no region; ground truth is undefined")
    b = network.radius if band is None else float(band)
    _check_positive("band width", b)
    d = geometry.distances_to_boundary(network.region, network.positions)
    return d < b


# -- network file format --------------------------------------------------
#
#   n radius          header: n >= 0 nodes, radius > 0
#   id x y            n node lines, ids 0..n-1 in order
#   u v               one line per edge, 0 <= u < v < n, no edge twice;
#                     blank lines may appear among the edge lines
#
# Floats are written with repr(), which round-trips float64 exactly.  Lines
# end in "\n"; "\r\n" reads the same, and the last newline may be missing.
# A malformed file raises FileFormatError with its 1-based line number; a
# repeated edge is reported at its second occurrence.
#
# load_network parses a clean file in bulk: the header by readline, the n
# node lines with one np.loadtxt call, and the edge lines with one more, on
# the file past its first n + 1 lines.  Any line that loadtxt does not take
# makes the file not clean.  No input on which loadtxt warns reaches it: a
# section of blank lines only is decided first, and numpy >= 2 raises on a
# float id.  The bulk path leaves repeated edges to ``_network``, whose
# ``_check_csr`` finds them as a row that repeats an id.
# A file that the bulk path does not take, or whose arrays ``_network``
# rejects, goes to the per-line scan ``_scan_lines``, which decides on which
# line the error is.  What the bulk path and ``_network`` accept, the
# scan accepts too and builds the same arrays from: loadtxt parses ints and
# floats as int() and float() do, bit for bit, but takes fewer spellings
# (no "1_0"), and those go to the scan.
#
# Memory: build_network and the bulk reader each get the edges as one (m, 2)
# int64 array of pairs u < v (from the k-d tree or from loadtxt), 16 B an
# edge, which ``_csr_from_pairs`` turns into the sorted CSR in place; with
# the int32 indices that the network keeps, 8 B an edge, they peak at about
# 24 B an edge, plus O(n).  save_network writes the edge lines from the CSR
# one block of ``_EDGE_ROWS`` entries at a time (``_edge_blocks``), so it
# holds one block of lines whatever m.

_EDGE_ROWS = 1 << 14     # CSR entries per block of edge lines, so lines per write at most
# Bytes the bulk path takes: printable ASCII, tab and line ends.  Any other
# byte (non-ASCII text, or a form feed, at which splitlines() breaks a line
# and loadtxt does not) sends the file to the per-line scan.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\r\n"
# np.loadtxt opens a path with one of these suffixes through a decompressor
_PACKED = (".gz", ".bz2", ".xz", ".lzma")
_NODE_ROW = np.dtype([("id", np.int64), ("xy", np.float64, 2)])


def save_network(network, path):
    """Write ``network`` in the network file format."""
    xy = np.asarray(network.positions, dtype=np.float64).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{network.n} {float(network.radius)!r}\n")
        fh.writelines(f"{i} {x!r} {y!r}\n" for i, (x, y) in enumerate(xy))
        for uv in _edge_blocks(network):
            fh.write("%d %d\n" * len(uv) % tuple(uv.ravel().tolist()))


def load_network(path, region=None):
    """Read a network file; malformed input raises FileFormatError at its line."""
    arrays = _read_bulk(path)
    if arrays is not None:
        try:
            return _network(*arrays, region=region)
        except ValueError:  # a repeated edge, which the scan reports at its line
            pass
    return _network(*_scan_lines(path), region=region)


def _plain(buf):
    """True if ``buf`` holds only ``_PLAIN`` bytes and each "\r" ends a line."""
    return not buf.translate(None, _PLAIN) and buf.count(b"\r") == buf.count(b"\r\n")


def _blank(buf):
    """True if ``buf`` is all whitespace, on which np.loadtxt warns of no data."""
    return buf.isspace() or not buf


def _read_bulk(path):
    """(positions, radius, indptr, indices) of a file that is clean but
    for any repeated edge, else None."""
    path = os.fsdecode(path)
    # loadtxt opens the path anew (a pipe reads once) and decompresses _PACKED ones
    if path.endswith(_PACKED) or not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        head = fh.readline()
        fields = head.split()
        if not _plain(head) or len(fields) != 2:
            return None
        try:
            n, radius = int(fields[0]), float(fields[1])
        except ValueError:
            return None
        if n < 0 or n * n >= 2**63 or not 0 < radius < np.inf:  # keys u * n + v fit int64
            return None
        nodes = b"".join(itertools.islice(iter(fh.readline, b""), n))
        edges = fh.read()
    if not (_plain(nodes) and _plain(edges)) or (n and _blank(nodes)):
        return None
    blank = _blank(edges)
    del edges
    try:
        rows = (np.loadtxt(io.BytesIO(nodes), _NODE_ROW, comments=None, ndmin=1)
                if n else np.empty(0, _NODE_ROW))
        # a path, unlike a file object, gets loadtxt's chunked reader
        uv = (np.empty((0, 2), np.int64) if blank else
              np.loadtxt(path, np.int64, comments=None, skiprows=n + 1, ndmin=2))
    except ValueError:
        return None
    # loadtxt skips blank lines, so a blank node line leaves fewer rows
    if len(rows) != n or np.any(rows["id"] != np.arange(n)) or uv.shape[1] != 2:
        return None
    pos = np.ascontiguousarray(rows["xy"])
    u, v = uv.T
    if not np.isfinite(pos).all() or np.any(u < 0) or np.any(u >= v) or np.any(v >= n):
        return None
    return (pos, radius, *_csr_from_pairs(n, uv))


def _scan_lines(path):
    """The per-line reader: (positions, radius, indptr, indices) or FileFormatError."""
    lines = read_text(path).splitlines()
    spath = str(path)

    def fail(msg, line):
        raise FileFormatError(msg, line=line, path=spath)

    if not lines:
        fail("empty file, expected 'n radius' header", 1)
    head = lines[0].split()
    if len(head) != 2:
        fail(f"expected 'n radius' header, got {lines[0]!r}", 1)
    try:
        n = int(head[0])
        radius = float(head[1])
    except ValueError:
        fail(f"bad header {lines[0]!r}", 1)
    if n < 0 or not 0 < radius < np.inf:
        fail(f"invalid header values n={head[0]} radius={head[1]}", 1)
    if len(lines) < 1 + n:
        fail(f"expected {n} node lines, file ends early", len(lines))
    pos = np.empty((n, 2))
    for k in range(n):
        lineno = 2 + k
        parts = lines[1 + k].split()
        if len(parts) != 3:
            fail(f"expected 'id x y', got {lines[1 + k]!r}", lineno)
        try:
            idx = int(parts[0])
            x = float(parts[1])
            y = float(parts[2])
        except ValueError:
            fail(f"bad node line {lines[1 + k]!r}", lineno)
        if idx != k:
            fail(f"node ids must be 0..n-1 in order, got {idx} at position {k}", lineno)
        if not (np.isfinite(x) and np.isfinite(y)):
            fail(f"non-finite node coordinate in {lines[1 + k]!r}", lineno)
        pos[k] = (x, y)
    ends = []  # u, v of each edge in turn
    el = []
    for off, raw in enumerate(lines[1 + n:]):
        lineno = 2 + n + off
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            fail(f"expected edge 'u v', got {raw!r}", lineno)
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            fail(f"bad edge line {raw!r}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            fail(f"edge ({u}, {v}) references unknown node", lineno)
        if u >= v:
            fail(f"edges must satisfy u < v, got ({u}, {v})", lineno)
        ends += u, v
        el.append(lineno)
    pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    del ends  # its int objects go before the CSR is built
    key = pairs[:, 0] * n + pairs[:, 1]
    # In a stable sort, every repeat of a key follows its first occurrence.
    order = np.argsort(key, kind="stable")
    again = order[1:][key[order[1:]] == key[order[:-1]]]
    if len(again):
        fail("duplicate edge in file", el[again.min()])
    return (pos, radius, *_csr_from_pairs(n, pairs))
