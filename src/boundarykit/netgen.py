"""Unit-disk sensor networks over polygonal regions.

Adjacency uses the unit-disk rule: u ~ v iff ||pos(u) - pos(v)|| <= radius,
distance exactly equal to the radius included.  Neighbor discovery runs on a
uniform grid of cell size ``radius`` so only the 3x3 cell neighborhood of a
node is ever examined; expected cost is O(n) at bounded density.
"""

from __future__ import annotations

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
    indptr, indices : CSR adjacency (neighbor lists sorted ascending).
    """

    def __init__(self, positions, radius, indptr, indices, region=None):
        self.positions = positions
        self.radius = float(radius)
        self.indptr = indptr
        self.indices = indices
        self.region = region

    @property
    def n(self):
        return len(self.positions)

    @property
    def degrees(self):
        return np.diff(self.indptr)

    def neighbors(self, v):
        """Sorted neighbor ids of node v (a CSR slice, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edges(self):
        """Edge list as an (m, 2) array with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n), self.degrees)
        keep = src < self.indices
        return np.column_stack([src[keep], self.indices[keep]])

    def __repr__(self):
        m = len(self.indices) // 2
        return f"SensorNetwork(n={self.n}, m={m}, radius={self.radius})"


def _csr_from_edge_keys(n, key):
    """Sorted CSR adjacency from int64 keys u * n + v, one per undirected edge.

    With the reversed keys added, sorting the keys puts the rows in order and
    each row's columns in order; the keys mod n are then the indices array.
    """
    key = np.concatenate([key, key % n * n + key // n])
    key.sort()
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(key, n, out=key)
    return indptr, key


def adjacency_from_positions(positions, radius):
    """Unit-disk edges via grid hashing; returns (indptr, indices).

    Cell size equals the radius, so candidate pairs live in the same cell
    or in one of 4 forward-neighbor cells; each unordered cell pair is
    visited exactly once.
    """
    n = len(positions)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    r2 = radius * radius
    cell = np.floor(positions / radius).astype(np.int64)
    # Group node ids by cell; ids within a cell stay ascending.
    order = np.lexsort((cell[:, 1], cell[:, 0]))
    sc = cell[order]
    breaks = np.nonzero(np.any(np.diff(sc, axis=0) != 0, axis=1))[0] + 1
    starts = np.concatenate([[0], breaks, [n]])
    keys = {}
    for i in range(len(starts) - 1):
        ids = order[starts[i]:starts[i + 1]]
        keys[(int(sc[starts[i], 0]), int(sc[starts[i], 1]))] = np.sort(ids)

    edge_keys = []  # u * n + v for every edge u-v
    for (ix, iy) in sorted(keys):
        a = keys[(ix, iy)]
        pa = positions[a]
        # pairs within the cell
        if len(a) > 1:
            d2 = np.sum((pa[:, None, :] - pa[None, :, :]) ** 2, axis=2)
            ii, jj = np.nonzero(np.triu(d2 <= r2, k=1))
            if len(ii):
                edge_keys.append(a[ii] * n + a[jj])
        # pairs against forward-neighbor cells
        for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            b = keys.get((ix + dx, iy + dy))
            if b is None:
                continue
            pb = positions[b]
            d2 = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2)
            ii, jj = np.nonzero(d2 <= r2)
            if len(ii):
                edge_keys.append(a[ii] * n + b[jj])
    key = np.concatenate(edge_keys or [np.empty(0, dtype=np.int64)])
    del edge_keys  # the pieces would double the edge memory while the CSR is built
    return _csr_from_edge_keys(n, key)


def build_network(region, n, radius, seed):
    """Sample ``n`` uniform node positions and connect them unit-disk style."""
    if radius <= 0:
        raise ValueError("radius must be positive")
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


# -- network dump format --------------------------------------------------
#
#   n radius
#   id x y            (n lines, ids 0..n-1)
#   u v               (one line per edge, u < v)
#
# Floats are written with repr(), which round-trips float64 exactly.


def save_network(network, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{network.n} {float(network.radius)!r}\n")
        for i, (x, y) in enumerate(network.positions):
            fh.write(f"{i} {float(x)!r} {float(y)!r}\n")
        for u, v in network.edges():
            fh.write(f"{u} {v}\n")


def load_network(path, region=None):
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
    if n < 0 or radius <= 0:
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
        pos[k] = (x, y)
    eu = []
    ev = []
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
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    key = eu * np.int64(n) + ev
    if len(np.unique(key)) != len(key):
        fail("duplicate edge in file", len(lines))
    indptr, indices = _csr_from_edge_keys(n, key)
    return SensorNetwork(pos, radius, indptr, indices, region=region)
