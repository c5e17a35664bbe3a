"""Polygonal regions with holes: containment, boundary distance, uniform sampling.

A region is one simple outer ring plus zero or more simple, pairwise disjoint
hole rings strictly inside the outer ring.  Rings are stored as (V, 2) float
arrays; orientation is normalized on construction (outer counter-clockwise,
holes clockwise) so callers may supply rings in either winding.
"""

from __future__ import annotations

import numpy as np

from .errors import FileFormatError, InvalidRegionError, SamplingError

# Chunk of candidate points per rejection round; fixed so that the draw
# sequence for a given seed does not depend on acceptance history.
_SAMPLE_CHUNK = 4096
_MIN_ACCEPT_RATE = 1e-6


def _signed_area(ring):
    x = ring[:, 0]
    y = ring[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_segment(px, py, ax, ay, bx, by):
    # Collinearity is assumed checked by the caller; here only the box test.
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_intersect(a1, a2, b1, b2):
    """True if closed segments a1-a2 and b1-b2 share any point."""
    d1 = _cross(b1[0], b1[1], b2[0], b2[1], a1[0], a1[1])
    d2 = _cross(b1[0], b1[1], b2[0], b2[1], a2[0], a2[1])
    d3 = _cross(a1[0], a1[1], a2[0], a2[1], b1[0], b1[1])
    d4 = _cross(a1[0], a1[1], a2[0], a2[1], b2[0], b2[1])
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 \
            and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(a1[0], a1[1], b1[0], b1[1], b2[0], b2[1]):
        return True
    if d2 == 0 and _on_segment(a2[0], a2[1], b1[0], b1[1], b2[0], b2[1]):
        return True
    if d3 == 0 and _on_segment(b1[0], b1[1], a1[0], a1[1], a2[0], a2[1]):
        return True
    if d4 == 0 and _on_segment(b2[0], b2[1], a1[0], a1[1], a2[0], a2[1]):
        return True
    return False


def _validate_ring(ring, label):
    if ring.ndim != 2 or ring.shape[1] != 2:
        raise InvalidRegionError(f"{label}: expected a (V, 2) vertex array")
    if len(ring) < 3:
        raise InvalidRegionError(f"{label}: a ring needs at least 3 vertices")
    if not np.all(np.isfinite(ring)):
        raise InvalidRegionError(f"{label}: non-finite vertex coordinate")
    nxt = np.roll(ring, -1, axis=0)
    if np.any(np.all(ring == nxt, axis=1)):
        raise InvalidRegionError(f"{label}: zero-length edge (repeated vertex)")
    if _signed_area(ring) == 0.0:
        raise InvalidRegionError(f"{label}: degenerate ring (zero signed area)")
    # Simplicity: no two non-adjacent edges may touch.
    v = len(ring)
    for i in range(v):
        a1, a2 = ring[i], ring[(i + 1) % v]
        for j in range(i + 1, v):
            if j == i or (j + 1) % v == i or (i + 1) % v == j:
                continue
            if _segments_intersect(a1, a2, ring[j], ring[(j + 1) % v]):
                raise InvalidRegionError(f"{label}: ring self-intersects")


def _ring_parity(ring, px, py):
    """Even-odd crossing parity for an array of query points.

    Points exactly on an edge get an arbitrary side; callers that care
    check edges explicitly first.
    """
    inside = np.zeros(px.shape, dtype=bool)
    v = len(ring)
    for i in range(v):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % v]
        straddles = (y1 > py) != (y2 > py)
        if not np.any(straddles):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= straddles & (px < xint)
    return inside


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
        self._check_nesting()
        self._edges = None  # lazy (E, 4) array of segment endpoints

    # -- validation -------------------------------------------------------

    def _check_nesting(self):
        rings = [self.outer, *self.holes]
        # No edge of one ring may touch an edge of another.
        for a in range(len(rings)):
            for b in range(a + 1, len(rings)):
                ra, rb = rings[a], rings[b]
                for i in range(len(ra)):
                    for j in range(len(rb)):
                        if _segments_intersect(ra[i], ra[(i + 1) % len(ra)],
                                               rb[j], rb[(j + 1) % len(rb)]):
                            raise InvalidRegionError(
                                "rings intersect (hole touching outer or another hole)")
        for k, h in enumerate(self.holes):
            px, py = h[:, 0], h[:, 1]
            if not np.all(_ring_parity(self.outer, px, py)):
                raise InvalidRegionError(f"hole {k} is not strictly inside the outer ring")
            for k2 in range(k + 1, len(self.holes)):
                h2 = self.holes[k2]
                if _ring_parity(h2, px[:1], py[:1])[0] or \
                        _ring_parity(h, h2[:1, 0], h2[:1, 1])[0]:
                    raise InvalidRegionError(f"holes {k} and {k2} are nested")

    # -- basic geometry ---------------------------------------------------

    def bounding_box(self):
        """(xmin, ymin, xmax, ymax) of the outer ring."""
        mn = self.outer.min(axis=0)
        mx = self.outer.max(axis=0)
        return float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1])

    def edge_array(self):
        """All ring edges as an (E, 4) array of (ax, ay, bx, by)."""
        if self._edges is None:
            segs = []
            for ring in (self.outer, *self.holes):
                nxt = np.roll(ring, -1, axis=0)
                segs.append(np.hstack([ring, nxt]))
            self._edges = np.vstack(segs)
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


def _contains_mask(region, pts):
    """Vectorized even-odd containment; the sampler and `contains` share it."""
    px = pts[:, 0]
    py = pts[:, 1]
    inside = _ring_parity(region.outer, px, py)
    for h in region.holes:
        inside &= ~_ring_parity(h, px, py)
    return inside


def _on_boundary_mask(region, pts):
    edges = region.edge_array()
    ax, ay, bx, by = edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3]
    px = pts[:, 0:1]
    py = pts[:, 1:2]
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    within = (
        (px >= np.minimum(ax, bx)) & (px <= np.maximum(ax, bx))
        & (py >= np.minimum(ay, by)) & (py <= np.maximum(ay, by))
    )
    return np.any((cross == 0.0) & within, axis=1)


def contains(region, p):
    """Point-in-region test; points exactly on a ring edge count as inside.

    Accepts a single (x, y) point or an (n, 2) array; the latter returns a
    boolean mask.
    """
    p = np.asarray(p, dtype=float)
    pts = p if p.ndim == 2 else p.reshape(1, 2)
    inside = _contains_mask(region, pts) | _on_boundary_mask(region, pts)
    return inside if p.ndim == 2 else bool(inside[0])


def distance_to_boundary(region, p):
    """Euclidean distance from an interior point to the nearest ring edge.

    Raises ValueError if ``p`` is not inside the region.
    """
    p = np.asarray(p, dtype=float)
    if not contains(region, p):
        raise ValueError(f"point {tuple(p)} is outside the region")
    return float(distances_to_boundary(region, p[None, :])[0])


def distances_to_boundary(region, pts):
    """Vectorized boundary distance for an (n, 2) array of points.

    Containment is not checked here; for points outside the region this
    returns the distance to the nearest edge like any other point.
    """
    pts = np.asarray(pts, dtype=float)
    edges = region.edge_array()
    ax, ay, bx, by = edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3]
    dx = bx - ax
    dy = by - ay
    seg2 = dx * dx + dy * dy  # validation guarantees > 0
    best = np.full(len(pts), np.inf)
    # Chunk the (n, E) broadcast to bound memory on large point sets.
    step = max(1, int(5e6) // max(1, len(edges)))
    for lo in range(0, len(pts), step):
        px = pts[lo:lo + step, 0][:, None]
        py = pts[lo:lo + step, 1][:, None]
        t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg2, 0.0, 1.0)
        qx = ax + t * dx
        qy = ay + t * dy
        d = np.hypot(px - qx, py - qy).min(axis=1)
        best[lo:lo + len(d)] = d
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
        acc = cand[_contains_mask(region, cand)]
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
    with open(path, "r", encoding="utf-8") as fh:
        return loads_region(fh.read(), path=str(path))


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
