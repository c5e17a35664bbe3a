"""Polygonal regions with holes: containment, boundary distance, uniform sampling.

A region is one simple outer ring plus zero or more simple, pairwise disjoint
hole rings strictly inside the outer ring.  Rings are stored as (V, 2) float
arrays; orientation is normalized on construction (outer counter-clockwise,
holes clockwise) so callers may supply rings in either winding.

Validation costs O(E^2) pair tests for E edges, in numpy: one closed-segment
test over arrays of edges (``_touching``), chunked.  Point location is one
chunked pass of O(points x E) pair tests: each point's even-odd parity
against each ring, and one cross product of the point against each edge,
zero for a point on the edge's line.
"""

from __future__ import annotations

import numpy as np

from .errors import FileFormatError, InvalidRegionError, SamplingError, read_text

# Chunk of candidate points per rejection round; fixed so that the draw
# sequence for a given seed does not depend on acceptance history.
_SAMPLE_CHUNK = 4096
_MIN_ACCEPT_RATE = 1e-6
# Pairs per chunk of a broadcast over the edge array: the temporaries of a
# _touching chunk peak near 4 MB (64 bytes a pair), beside its bool result.
_PAIR_CHUNK = 1 << 16


def _signed_area(ring):
    x = ring[:, 0]
    y = ring[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _ring_edges(ring):
    """The ring's edges as a (V, 4) array of (ax, ay, bx, by), the last closing it."""
    return np.hstack([ring, np.roll(ring, -1, axis=0)])


def _row_chunks(rows, cols):
    """Row slices of a (rows, cols) broadcast, _PAIR_CHUNK pairs each (one row at least)."""
    step = max(1, _PAIR_CHUNK // max(1, cols))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _side(s, x, y):  # cross product of s's direction and (x, y) - s's start
    return (s[2] - s[0]) * (y - s[1]) - (s[3] - s[1]) * (x - s[0])


def _on(s, x, y, d):  # (x, y) on the line of s (d == 0) and within s's box
    return ((d == 0) & (np.minimum(s[0], s[2]) <= x) & (x <= np.maximum(s[0], s[2]))
            & (np.minimum(s[1], s[3]) <= y) & (y <= np.maximum(s[1], s[3])))


def _touching(a, b):
    """(k, E) bool matrix: closed segment a[i] shares a point with closed segment b[j].

    Segments are (k, 4) and (E, 4) arrays of (ax, ay, bx, by); a zero-length
    segment is a point.  Two segments touch when each one's ends lie strictly
    on opposite sides of the other, or when a cross product is exactly 0 and
    its end lies in the other segment's bounding box.
    """
    out = np.empty((len(a), len(b)), dtype=bool)
    sb = b.T
    for rows in _row_chunks(len(a), len(b)):
        sa = a[rows].T[:, :, None]  # columns of the chunk's rows
        d1, d2 = _side(sb, sa[0], sa[1]), _side(sb, sa[2], sa[3])
        d3, d4 = _side(sa, sb[0], sb[1]), _side(sa, sb[2], sb[3])
        out[rows] = (
            ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
            & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
            | _on(sb, sa[0], sa[1], d1) | _on(sb, sa[2], sa[3], d2)
            | _on(sa, sb[0], sb[1], d3) | _on(sa, sb[2], sb[3], d4))
    return out


def _validate_ring(ring, label):
    if ring.ndim != 2 or ring.shape[1] != 2:
        raise InvalidRegionError(f"{label}: expected a (V, 2) vertex array")
    if len(ring) < 3:
        raise InvalidRegionError(f"{label}: a ring needs at least 3 vertices")
    if not np.all(np.isfinite(ring)):
        raise InvalidRegionError(f"{label}: non-finite vertex coordinate")
    seg = _ring_edges(ring)
    if np.any(np.all(seg[:, :2] == seg[:, 2:], axis=1)):
        raise InvalidRegionError(f"{label}: zero-length edge (repeated vertex)")
    if _signed_area(ring) == 0.0:
        raise InvalidRegionError(f"{label}: degenerate ring (zero signed area)")
    # Simplicity: no edge may touch one other than itself and its two neighbours.
    touch = _touching(seg, seg)
    i = np.arange(len(ring))
    touch[i, i - 1] = touch[i, i] = touch[i, (i + 1) % len(ring)] = False
    if touch.any():
        raise InvalidRegionError(f"{label}: ring self-intersects")


class PolygonRegion:
    """Immutable-by-convention polygon with holes.

    Parameters
    ----------
    outer : array-like, shape (V, 2)
        Vertices of the outer ring, either winding.
    holes : sequence of array-like
        Hole rings; each must lie strictly inside the outer ring and the
        holes must be pairwise disjoint.
    """

    def __init__(self, outer, holes=()):
        outer = np.array(outer, dtype=float)
        holes = [np.array(h, dtype=float) for h in holes]
        _validate_ring(outer, "outer ring")
        if _signed_area(outer) < 0:
            outer = outer[::-1].copy()
        for k, h in enumerate(holes):
            _validate_ring(h, f"hole {k}")
            if _signed_area(h) > 0:
                holes[k] = h[::-1].copy()
        self.outer = outer
        self.holes = tuple(holes)
        rings = (outer, *self.holes)
        self._edges = np.vstack([_ring_edges(r) for r in rings])
        # ring k's edges are _edges[_bounds[k]:_bounds[k + 1]], the outer ring first
        self._bounds = np.cumsum([0, *map(len, rings)])
        self._check_nesting()

    # -- validation -------------------------------------------------------

    def _check_nesting(self):
        # No edge of one ring may touch an edge of another: each hole's
        # edges are tested against those of the rings before it.
        edges, b = self._edges, self._bounds
        for lo, hi in zip(b[1:-1], b[2:]):
            if _touching(edges[lo:hi], edges[:lo]).any():
                raise InvalidRegionError(
                    "rings intersect (hole touching outer or another hole)")
        # Faults in the order of a loop over k: hole k in the outer ring, then pairs (k, k2 > k).
        verts = edges[b[1]:, :2]  # the holes' vertices, hole after hole
        outside = ~np.logical_and.reduceat(_parities(self, verts)[:, 0], b[1:-1] - b[1])
        within = _parities(self, edges[b[1:-1], :2])[:, 1:]  # [i, j]: hole i's vertex 0 in hole j
        nested = np.triu(within | within.T, 1)
        bad = outside | nested.any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            if outside[k]:
                raise InvalidRegionError(f"hole {k} is not strictly inside the outer ring")
            raise InvalidRegionError(f"holes {k} and {int(np.argmax(nested[k]))} are nested")

    # -- basic geometry ---------------------------------------------------

    def bounding_box(self):
        """(xmin, ymin, xmax, ymax) of the outer ring."""
        mn = self.outer.min(axis=0)
        mx = self.outer.max(axis=0)
        return float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1])

    def edge_array(self):
        """All ring edges as an (E, 4) array of (ax, ay, bx, by)."""
        return self._edges

    def __repr__(self):
        return (f"PolygonRegion({len(self.outer)} outer vertices, "
                f"{len(self.holes)} holes, area={area(self):.6g})")


def area(region):
    """Region area: outer ring area minus total hole area."""
    a = _signed_area(region.outer)
    for h in region.holes:
        a += _signed_area(h)  # holes are clockwise, so this subtracts
    return a


def _parities(region, pts):
    """(k, R) even-odd crossing parity of (k, 2) points against the R rings, outer
    first.  A point exactly on an edge gets an arbitrary side; a non-finite one, even."""
    x1, y1, x2, y2 = region.edge_array().T
    rings = len(region.holes) + 1
    ring = np.repeat(np.arange(rings), np.diff(region._bounds))  # the ring of each edge
    out = np.empty((len(pts), rings), dtype=bool)
    for rows in _row_chunks(len(pts), len(x1)):
        px, py = pts[rows].T
        straddle = (y1 > py[:, None]) != (y2 > py[:, None])  # the edge straddles the point's y
        i, j = np.divmod(np.flatnonzero(straddle), len(x1))  # these alone; none divides by 0
        cross = px[i] < x1[j] + (py[i] - y1[j]) * (x2[j] - x1[j]) / (y2[j] - y1[j])
        key = (i * rings + ring[j])[cross]  # the (point, ring) of each crossing
        out[rows] = np.bincount(key, minlength=len(px) * rings).reshape(-1, rings) & 1
    return out


def _points(p):
    """p as a float (2,) point or (n, 2) point array; ValueError for any other shape."""
    p = np.asarray(p, dtype=float)
    if p.shape != (2,) and (p.ndim != 2 or p.shape[1] != 2):
        raise ValueError(f"expected points of shape (2,) or (n, 2), got shape {p.shape}")
    return p


def contains(region, p):
    """Point-in-region test; points exactly on a ring edge count as inside.

    Accepts a single (x, y) point or an (n, 2) array; the latter returns a
    boolean mask.  A non-finite point is outside.
    """
    p = _points(p)
    pts = p.reshape(-1, 2)
    # a point is on an edge when their cross product is 0 and it lies in the
    # edge's box (never if it is not finite)
    sb = region.edge_array().T
    on_edge = np.empty(len(pts), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_chunks(len(pts), sb.shape[1]):
            x, y = pts[rows, :1], pts[rows, 1:]
            on_edge[rows] = _on(sb, x, y, _side(sb, x, y)).any(axis=1)
    par = _parities(region, pts)
    inside = (par[:, 0] & ~par[:, 1:].any(axis=1)) | on_edge
    return inside if p.ndim == 2 else bool(inside[0])


def distance_to_boundary(region, p):
    """Euclidean distance from an interior point to the nearest ring edge.

    Raises ValueError if ``p`` is not a (2,) point inside the region.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"expected a point of shape (2,), got shape {p.shape}")
    if not contains(region, p):
        raise ValueError(f"point {tuple(p)} is outside the region")
    return float(distances_to_boundary(region, p)[0])


def distances_to_boundary(region, pts):
    """Vectorized boundary distance for an (n, 2) array of points (or one point).

    Containment is not checked here; for points outside the region this
    returns the distance to the nearest edge like any other point.  A point
    with a non-finite coordinate has no distance: ValueError names the first.
    """
    pts = _points(pts).reshape(-1, 2)
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"point {k} {tuple(pts[k].tolist())} is not finite")
    ax, ay, bx, by = region.edge_array().T
    dx = bx - ax
    dy = by - ay
    seg2 = dx * dx + dy * dy  # validation guarantees > 0
    best = np.empty(len(pts))
    # fmin/fmax send a projection overflowed to nan (near 1e308) to an edge end
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_chunks(len(pts), len(ax)):
            px, py = pts[rows, :1], pts[rows, 1:]
            t = np.fmax(np.fmin(((px - ax) * dx + (py - ay) * dy) / seg2, 1.0), 0.0)
            qx = ax + t * dx
            qy = ay + t * dy
            best[rows] = np.hypot(px - qx, py - qy).min(axis=1)
    return best


def sample_uniform(region, n, seed):
    """Draw ``n`` points uniformly from the region by bounding-box rejection.

    Deterministic for a fixed seed: candidates are drawn in fixed-size
    chunks so the accept/reject history cannot perturb the stream.
    Raises SamplingError if the observed acceptance rate falls below 1e-6.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty((n, 2), dtype=float)
    if n == 0:
        return out
    xmin, ymin, xmax, ymax = region.bounding_box()
    rng = np.random.default_rng(seed)
    got = 0
    drawn = 0
    while got < n:
        cand = rng.uniform((xmin, ymin), (xmax, ymax), size=(_SAMPLE_CHUNK, 2))
        drawn += _SAMPLE_CHUNK
        par = _parities(region, cand)
        acc = cand[par[:, 0] & ~par[:, 1:].any(axis=1)]
        take = min(n - got, len(acc))
        out[got:got + take] = acc[:take]
        got += take
        if drawn >= 2_000_000 and got / drawn < _MIN_ACCEPT_RATE:
            raise SamplingError(
                f"acceptance rate {got / drawn:.2e} after {drawn} draws; "
                "region area is negligible relative to its bounding box")
    return out


# -- region file format ---------------------------------------------------
#
#   <outer vertex count>
#   <x> <y>          (that many lines)
#   <hole count>
#   <hole vertex count> followed by its vertex lines, per hole
#
# Blank lines and lines starting with '#' are ignored.


def _token_lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        yield i, s


def _parse_int(s, line, path, what):
    try:
        v = int(s)
    except ValueError:
        raise FileFormatError(f"expected {what}, got {s!r}", line=line, path=path)
    if v < 0:
        raise FileFormatError(f"{what} must be >= 0, got {v}", line=line, path=path)
    return v


def _parse_vertex(s, line, path):
    parts = s.split()
    if len(parts) != 2:
        raise FileFormatError(f"expected 'x y', got {s!r}", line=line, path=path)
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise FileFormatError(f"bad coordinate in {s!r}", line=line, path=path)


def loads_region(text, path=None):
    """Parse the region text format; errors carry the offending line number."""
    lines = _token_lines(text)
    last_line = [0]

    def next_line(what):
        try:
            i, s = next(lines)
        except StopIteration:
            raise FileFormatError(f"unexpected end of file, expected {what}",
                                  line=last_line[0], path=path)
        last_line[0] = i
        return i, s

    def read_ring(label):
        i, s = next_line(f"{label} vertex count")
        count = _parse_int(s, i, path, f"{label} vertex count")
        verts = []  # built from the lines read, as the count may exceed them
        for k in range(count):
            i, s = next_line(f"vertex {k + 1} of {label}")
            verts.append(_parse_vertex(s, i, path))
        return np.reshape(verts, (-1, 2))

    outer = read_ring("outer ring")
    i, s = next_line("hole count")
    nholes = _parse_int(s, i, path, "hole count")
    holes = [read_ring(f"hole {k + 1}") for k in range(nholes)]
    for i, s in lines:
        raise FileFormatError(f"trailing content {s!r}", line=i, path=path)
    try:
        return PolygonRegion(outer, holes)
    except InvalidRegionError as e:
        raise FileFormatError(str(e), line=None, path=path) from e


def load_region(path):
    return loads_region(read_text(path), path=str(path))


def dumps_region(region):
    out = [str(len(region.outer))]
    out += [f"{float(x)!r} {float(y)!r}" for x, y in region.outer]
    out.append(str(len(region.holes)))
    for h in region.holes:
        out.append(str(len(h)))
        out += [f"{float(x)!r} {float(y)!r}" for x, y in h]
    return "\n".join(out) + "\n"


def save_region(region, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_region(region))


def square_with_hole(side, hole_side, center=None):
    """Convenience builder: axis-aligned square with a centered square hole."""
    if hole_side >= side:
        raise InvalidRegionError("hole must be smaller than the square")
    cx, cy = (side / 2.0, side / 2.0) if center is None else center
    outer = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    h = hole_side / 2.0
    hole = np.array([[cx - h, cy - h], [cx + h, cy - h],
                     [cx + h, cy + h], [cx - h, cy + h]])
    return PolygonRegion(outer, [hole])
