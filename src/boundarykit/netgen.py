"""Unit-disk sensor networks over polygonal regions.

Adjacency uses the unit-disk rule: u ~ v iff ||pos(u) - pos(v)|| <= radius,
distance exactly equal to the radius included.  Neighbor discovery is one
range query on a k-d tree of the positions, which compares squared
distances with radius**2.  The radius must be positive and every coordinate
finite.

The module imports numpy only; ``scipy.spatial`` loads on the first call
that builds an adjacency, so reading and writing network files costs no
scipy import.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import FileFormatError
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

    ``positions``, ``indptr`` and ``indices`` are read-only views; the
    arrays passed in stay writeable.  Since the network cannot change,
    ``centrality.stress1`` keeps its result on it (``_kept_stress1``, None
    until then), and ``normalized_st`` and ``run_protocol`` read it there.
    """

    def __init__(self, positions, radius, indptr, indices, region=None):
        _check_geometry(positions, radius)
        dtype = _index_dtype(len(positions), len(indices))
        self.positions = _read_only(positions)
        self.radius = float(radius)
        self.indptr = _read_only(np.asarray(indptr).astype(dtype, copy=False))
        self.indices = _read_only(np.asarray(indices).astype(dtype, copy=False))
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
        src = np.repeat(np.arange(self.n), self.degrees)
        keep = src < self.indices
        return np.column_stack([src[keep], self.indices[keep]])

    def __repr__(self):
        m = len(self.indices) // 2
        return f"SensorNetwork(n={self.n}, m={m}, radius={self.radius})"


def _read_only(a):
    """A read-only view of ``a``; ``a`` itself stays writeable."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def _index_dtype(n, nnz):
    """CSR index dtype for n nodes and nnz stored entries: int32 when every
    index (below n) and offset (up to nnz) fits, else int64."""
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


def _csr_from_edge_keys(n, key):
    """Sorted CSR adjacency from int64 keys u * n + v, one per undirected edge,
    in ``_index_dtype``.

    With the reversed keys added, sorting the keys puts the rows in order and
    each row's columns in order; the keys mod n are then the indices array.
    """
    key = np.concatenate([key, key % n * n + key // n])
    key.sort()
    dtype = _index_dtype(n, len(key))
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n).astype(dtype)
    np.remainder(key, n, out=key)
    return indptr, key.astype(dtype, copy=False)


def _check_geometry(positions, radius):
    """ValueError unless ``radius`` is positive and finite and every coordinate is finite."""
    if not 0 < radius < np.inf:  # false for nan
        raise ValueError("radius must be positive and finite")
    if not np.isfinite(positions).all():
        raise ValueError("node coordinates must be finite")


def adjacency_from_positions(positions, radius):
    """Unit-disk edges by a k-d tree range query; returns (indptr, indices)."""
    # scipy.spatial's __init__ also loads qhull, scipy.linalg and scipy.special
    from scipy.spatial import cKDTree

    _check_geometry(positions, radius)
    n = len(positions)
    # keys u * n + v of the (m, 2) pairs, which are freed before the CSR is built
    key = cKDTree(positions).query_pairs(radius, output_type="ndarray") @ np.array([n, 1])
    return _csr_from_edge_keys(n, key)


def build_network(region, n, radius, seed):
    """Sample ``n`` uniform node positions and connect them unit-disk style."""
    pos = geometry.sample_uniform(region, n, seed)
    indptr, indices = adjacency_from_positions(pos, radius)
    return SensorNetwork(pos, radius, indptr, indices, region=region)


def expected_degree(region_area, n, radius):
    """Expected interior degree (n - 1) * pi * r^2 / area."""
    if region_area <= 0:
        raise ValueError("region area must be positive")
    if n <= 0:
        return 0.0
    return (n - 1) * np.pi * radius * radius / region_area


def radius_for_degree(region_area, n, degree):
    """Radius giving the requested expected interior degree."""
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
    if b <= 0:
        raise ValueError("band width must be positive")
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
# load_network parses a clean file in bulk: the header and the node lines
# by readline, the edge lines in blocks tokenized with numpy.  Whatever the
# bulk path does not take goes to the per-line scan ``_scan_lines``, which
# alone decides what is an error and on which line.  The bulk path accepts
# a subset of what the scan accepts and builds the same arrays from it.

_EDGE_ROWS = 1 << 16     # edge lines formatted per write
_READ_BYTES = 1 << 22    # edge bytes tokenized per block
# Bytes the bulk path takes: printable ASCII, tab and line ends.  Any other
# byte (non-ASCII text, or a form feed, at which splitlines() breaks a line)
# sends the file to the per-line scan.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\r\n"
_EDGE_BYTES = b"0123456789 \t\r\n"
_MAX_DIGITS = 18         # longer fields may not fit int64


def save_network(network, path):
    """Write ``network`` in the network file format."""
    xy = np.asarray(network.positions, dtype=np.float64).tolist()
    edges = network.edges()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{network.n} {float(network.radius)!r}\n")
        fh.writelines(f"{i} {x!r} {y!r}\n" for i, (x, y) in enumerate(xy))
        for lo in range(0, len(edges), _EDGE_ROWS):
            rows = edges[lo:lo + _EDGE_ROWS]
            fh.write("%d %d\n" * len(rows) % tuple(rows.ravel().tolist()))


def load_network(path, region=None):
    """Read a network file; malformed input raises FileFormatError at its line."""
    arrays = _read_bulk(path)
    if arrays is None:
        arrays = _scan_lines(path)
    return SensorNetwork(*arrays, region=region)


def _plain(buf):
    """True if ``buf`` holds only ``_PLAIN`` bytes and each "\r" ends a line."""
    return not buf.translate(None, _PLAIN) and buf.count(b"\r") == buf.count(b"\r\n")


def _fields(buf):
    """Offsets of the whitespace-separated fields of a plain ``buf`` and the
    number of fields on each of its lines."""
    b = np.frombuffer(buf, np.uint8)
    tok = np.concatenate(([False], b > 32, [False]))
    starts = np.flatnonzero(tok[1:] > tok[:-1])
    ends = np.flatnonzero(tok[:-1] > tok[1:])
    line_ends = np.flatnonzero(b == 10)
    if len(b) and b[-1] != 10:
        line_ends = np.append(line_ends, len(b))
    counts = np.diff(np.searchsorted(starts, line_ends), prepend=0)
    return starts, ends, counts


def _decimal(buf, starts, ends):
    """int64 values of the all-digit fields buf[starts:ends], or None where a
    field is longer than ``_MAX_DIGITS``."""
    b = np.frombuffer(buf, np.uint8)
    width = ends - starts
    longest = int(width.max(initial=0))
    if longest > _MAX_DIGITS:
        return None
    val = np.zeros(len(starts), dtype=np.int64)
    for j in range(1, longest + 1):
        digit = b[ends - j].astype(np.int64) - 48
        val += np.where(width >= j, digit, 0) * 10 ** (j - 1)
    return val


def _read_bulk(path):
    """(positions, radius, indptr, indices) of a clean file, else None."""
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
        if not _plain(nodes):
            return None
        counts = _fields(nodes)[2]
        if len(counts) != n or np.any(counts != 3):
            return None
        fields = nodes.split()
        del nodes
        try:
            if list(map(int, fields[0::3])) != list(range(n)):
                return None
            del fields[0::3]
            pos = np.fromiter(map(float, fields), np.float64, 2 * n).reshape(n, 2)
        except ValueError:
            return None
        if not np.isfinite(pos).all():
            return None
        del fields  # the node fields would stay resident while the edges are read
        keys = []
        while block := fh.read(_READ_BYTES):
            block += fh.readline()
            if block.translate(None, _EDGE_BYTES) or not _plain(block):
                return None
            starts, ends, counts = _fields(block)
            if np.any((counts != 0) & (counts != 2)):
                return None
            val = _decimal(block, starts, ends)
            if val is None:
                return None
            u, v = val[0::2], val[1::2]
            if np.any(u >= v) or np.any(v >= n):
                return None
            keys.append(u * n + v)
    key = np.concatenate(keys or [np.empty(0, dtype=np.int64)])
    del keys
    indptr, indices = _csr_from_edge_keys(n, key)
    # A repeated edge repeats a column within a row of the sorted CSR.
    same = indices[1:] == indices[:-1]
    cut = indptr[1:-1] - 1
    same[cut[(cut >= 0) & (cut < len(same))]] = False
    if same.any():
        return None
    return pos, radius, indptr, indices


def _scan_lines(path):
    """The per-line reader: (positions, radius, indptr, indices) or FileFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
    eu = []
    ev = []
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
        eu.append(u)
        ev.append(v)
        el.append(lineno)
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    key = eu * np.int64(n) + ev
    # In a stable sort, every repeat of a key follows its first occurrence.
    order = np.argsort(key, kind="stable")
    again = order[1:][key[order[1:]] == key[order[:-1]]]
    if len(again):
        fail("duplicate edge in file", el[again.min()])
    indptr, indices = _csr_from_edge_keys(n, key)
    return pos, radius, indptr, indices
