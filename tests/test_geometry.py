"""Region validation, containment, boundary distance, sampling, file format."""

import math
import re
import time
import warnings

import numpy as np
import pytest

import boundarykit as bk
from boundarykit import InvalidRegionError, FileFormatError, SamplingError, geometry

import oracles

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def unit_square():
    return bk.PolygonRegion(UNIT_SQUARE)


def square4_with_hole():
    """4x4 square with the central 2x2 hole."""
    return bk.square_with_hole(4.0, 2.0)


# -- areas -------------------------------------------------------------------


def test_area_unit_square():
    assert bk.area(unit_square()) == pytest.approx(1.0, abs=1e-12)


def test_area_square_with_hole():
    outer = [(0, 0), (2, 0), (2, 2), (0, 2)]
    hole = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
    reg = bk.PolygonRegion(outer, holes=[hole])
    assert bk.area(reg) == pytest.approx(3.0, abs=1e-12)


def test_area_triangle():
    reg = bk.PolygonRegion([(0, 0), (1, 0), (0, 1)])
    assert bk.area(reg) == pytest.approx(0.5, abs=1e-12)


def test_area_winding_independent():
    cw = bk.PolygonRegion(list(reversed(UNIT_SQUARE)))
    assert bk.area(cw) == pytest.approx(1.0, abs=1e-12)


def test_area_matches_monte_carlo():
    # hit-rate estimate over the bounding box, 1e6 throws, 4 standard errors
    reg = square4_with_hole()
    rng = np.random.default_rng(2024)
    pts = rng.random((1_000_000, 2)) * 4.0
    hits = np.count_nonzero(bk.contains(reg, pts))
    p = hits / 1_000_000
    est = p * 16.0
    se = 16.0 * math.sqrt(p * (1 - p) / 1_000_000)
    assert abs(est - bk.area(reg)) < 4 * se


# -- containment -------------------------------------------------------------


def test_contains_basic():
    reg = square4_with_hole()
    assert bk.contains(reg, (0.5, 0.5))
    assert not bk.contains(reg, (2.0, 2.0))       # inside the hole
    assert not bk.contains(reg, (5.0, 2.0))       # outside
    assert bk.contains(reg, (0.0, 2.0))           # on the outer edge
    assert bk.contains(reg, (1.0, 1.0))           # on the hole edge
    assert bk.contains(reg, (0.0, 0.0))           # vertex


def test_contains_vectorized_matches_scalar():
    reg = square4_with_hole()
    rng = np.random.default_rng(7)
    pts = rng.random((500, 2)) * 5.0 - 0.5
    mask = bk.contains(reg, pts)
    for p, m in zip(pts, mask):
        assert bk.contains(reg, tuple(p)) == bool(m)


@pytest.mark.parametrize("scale", [1, 0.1, 0.3])
def test_touching_matches_scalar_oracle(scale):
    # lattice segments: collinear overlaps, shared endpoints, and zero-length
    # segments; 0.1 and 0.3 make the coordinates inexact
    rng = np.random.default_rng(int(scale * 10))
    hits = pairs = 0
    for _ in range(40):
        a = rng.integers(0, 5, (12, 4)) * scale
        b = rng.integers(0, 5, (15, 4)) * scale
        a[:3, 2:] = a[:3, :2]
        b[:2, :2] = b[:2, 2:]
        got = geometry._touching(a, b)
        want = [[oracles.segments_intersect(p[:2], p[2:], q[:2], q[2:]) for q in b] for p in a]
        assert got.tolist() == want
        hits += int(got.sum())
        pairs += got.size
    assert 0.2 * pairs < hits < 0.8 * pairs


def _ring(v, radius, center=(0.0, 0.0), phase=0.0):
    t = np.linspace(0.0, 2 * np.pi, v, endpoint=False) + phase
    return np.c_[center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)]


def _square(x, y, side):
    return [(x, y), (x + side, y), (x + side, y + side), (x, y + side)]


def _hole_grid(g):
    """g x g square holding a g x g grid of square holes of side 0.5."""
    return bk.PolygonRegion(_square(0, 0, g), [_square(i + 0.25, j + 0.25, 0.5)
                                               for i in range(g) for j in range(g)])


@pytest.mark.parametrize("scale", [1, 0.1, 0.3])
def test_contains_matches_scalar_oracle(scale):
    # on vertices, at points along the edges, and one float step off them;
    # the second region's rings of 3 to 6 vertices check each ring's parity
    holes = [[(-5, -4), (-1, -3), (-3, 0)], [(1, 1), (4, 1), (4, 4), (1, 4)]]
    many = [_ring(3 + (i + j) % 4, 0.3, (i, j), phase=0.2 * i) for i in range(3) for j in range(3)]
    rings = [(_ring(12, 10 * scale, phase=0.1), holes), (_ring(7, 4 * scale, (scale, scale)), many)]
    for outer, hs in rings:
        reg = bk.PolygonRegion(outer, [np.multiply(h, scale) for h in hs])
        e = reg.edge_array()
        a, b = e[:, :2], e[:, 2:]
        on = np.vstack([a, a + (b - a) / 2, a + (b - a) * 0.3, a + (b - a) / 3])
        pts = np.vstack([on, *(np.nextafter(on, on + d) for d in ((1, 0), (0, -1), (-1, 1)))])
        got = bk.contains(reg, pts)
        assert got.tolist() == [oracles.region_contains(reg, p) for p in pts]
        assert got[:len(e)].all() and not got.all()


def test_contains_equals_zero_length_segments():
    # the one cross product against each edge gives what _touching gives for
    # the point as a zero-length segment: random and grid points, points
    # along the edges, vertices, and non-finite and huge points
    rng = np.random.default_rng(11)
    holes = [[(-5, -4), (-1, -3), (-3, 0)], [(1, 1), (4, 1), (4, 4), (1, 4)]]
    for reg in (bk.square_with_hole(26.0, 8.0), _hole_grid(4),
                bk.PolygonRegion(_ring(12, 10.0, phase=0.1), holes)):
        e = reg.edge_array()
        a, b = e[:, :2], e[:, 2:]
        lo, hi = e.min() - 1, e.max() + 1
        along = a[:, None] + (b - a)[:, None] * rng.random((len(e), 50, 1))
        grid = np.mgrid[lo:hi:0.5, lo:hi:0.5].reshape(2, -1).T
        odd = [(np.nan, 0), (0, np.inf), (-np.inf, np.nan), (1e308, -1e308)]
        pts = np.vstack([a, b, along.reshape(-1, 2), grid, rng.uniform(lo, hi, (3000, 2)), odd])
        with np.errstate(all="ignore"):
            on_edge = geometry._touching(pts[:, [0, 1, 0, 1]], e).any(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bk.contains(reg, pts)
        par = geometry._parities(reg, pts)
        assert np.array_equal(got, (par[:, 0] & ~par[:, 1:].any(axis=1)) | on_edge)
        assert on_edge[:2 * len(e)].all() and not on_edge[-len(odd):].any()


def test_contains_nonfinite_point_is_outside():
    reg = square4_with_hole()
    bad = [(np.inf, 0.5), (-np.inf, 0.5), (0.5, np.inf), (0.5, -np.inf), (np.nan, 0.5),
           (0.5, np.nan), (np.inf, -np.inf), (np.nan, np.nan)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not bk.contains(reg, bad).any()
        assert not any(bk.contains(reg, p) for p in bad)


def test_huge_finite_point_answers_quietly():
    # near 1e308 the cross products and the projection overflow; the answers
    # stay plain: outside, and the distance to the far edge's nearest point
    tri = bk.PolygonRegion([(0, 0), (4, 0), (0, 4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bk.contains(bk.square_with_hole(4.0, 2.0), (1e308, 1e308)) is False
        d = bk.distances_to_boundary(tri, [[1e308, 1e308]])
        far = bk.distances_to_boundary(bk.square_with_hole(4.0, 2.0),
                                       [[1e308, 1e308], [-1e308, 1e308], [1.0, 1e308]])
    assert d[0] == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-12)
    assert far == pytest.approx([math.sqrt(2.0) * 1e308] * 2 + [1e308], rel=1e-12)


@pytest.mark.parametrize("f", [bk.contains, bk.distance_to_boundary, bk.distances_to_boundary])
@pytest.mark.parametrize("shape", [(3, 3), (3, 1), (3,), (), (2, 2, 2)],
                         ids=["3x3", "3x1", "3", "scalar", "2x2x2"])
def test_point_shape_rejected(f, shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        f(square4_with_hole(), np.full(shape, 0.5))


# -- boundary distance -------------------------------------------------------


def test_distance_unit_square_center():
    assert bk.distance_to_boundary(unit_square(), (0.5, 0.5)) == pytest.approx(0.5)


def test_distance_near_edge():
    assert bk.distance_to_boundary(unit_square(), (0.1, 0.5)) == pytest.approx(0.1)


def test_distance_hole_dominates():
    # point between outer wall and hole wall, hole closer
    reg = square4_with_hole()
    assert bk.distance_to_boundary(reg, (0.75, 2.0)) == pytest.approx(0.25)


def test_distance_outside_raises():
    with pytest.raises(ValueError):
        bk.distance_to_boundary(unit_square(), (2.0, 0.5))


def test_distance_on_boundary_zero():
    assert bk.distance_to_boundary(unit_square(), (0.0, 0.3)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [(np.inf, 0.5), (0.5, -np.inf), (np.nan, 0.5)])
def test_distances_non_finite_point_rejected(bad):
    # the suite turns RuntimeWarning into an error, so a nan product would fail here too
    pts = [(1.0, 1.0), (0.5, 0.5), bad, (np.nan, np.nan)]
    with pytest.raises(ValueError, match=re.escape(f"point 2 {bad} is not finite")):
        bk.distances_to_boundary(square4_with_hole(), pts)
    with pytest.raises(ValueError, match="point 0 "):
        bk.distances_to_boundary(square4_with_hole(), bad)


def test_distances_vector_matches_scalar():
    reg = square4_with_hole()
    pts = bk.sample_uniform(reg, 300, seed=3)
    dv = bk.distances_to_boundary(reg, pts)
    for p, d in zip(pts, dv):
        assert d == pytest.approx(bk.distance_to_boundary(reg, tuple(p)), abs=1e-12)


def test_distance_lipschitz():
    # |d(p) - d(q)| <= |p - q| for points of the same region
    reg = square4_with_hole()
    pts = bk.sample_uniform(reg, 400, seed=9)
    d = bk.distances_to_boundary(reg, pts)
    for _ in range(200):
        i, j = np.random.default_rng(_).integers(0, 400, 2)
        gap = float(np.hypot(*(pts[i] - pts[j])))
        assert abs(d[i] - d[j]) <= gap + 1e-9


# -- validation --------------------------------------------------------------


def test_reject_too_few_vertices():
    with pytest.raises(InvalidRegionError):
        bk.PolygonRegion([(0, 0), (1, 0)])


def test_reject_zero_area():
    with pytest.raises(InvalidRegionError):
        bk.PolygonRegion([(0, 0), (1, 1), (2, 2)])


def test_reject_self_intersection():
    with pytest.raises(InvalidRegionError):
        bk.PolygonRegion([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie


def test_reject_repeated_vertex():
    with pytest.raises(InvalidRegionError):
        bk.PolygonRegion([(0, 0), (1, 0), (1, 0), (1, 1)])


def test_reject_nonfinite_vertex():
    with pytest.raises(InvalidRegionError):
        bk.PolygonRegion([(0, 0), (1, 0), (float("nan"), 1)])


def test_reject_hole_outside():
    with pytest.raises(InvalidRegionError):
        bk.PolygonRegion(UNIT_SQUARE, holes=[[(2, 2), (3, 2), (3, 3), (2, 3)]])


def test_reject_hole_crossing_outer():
    with pytest.raises(InvalidRegionError):
        bk.PolygonRegion(
            UNIT_SQUARE, holes=[[(0.5, 0.5), (1.5, 0.5), (1.5, 0.8), (0.5, 0.8)]]
        )


def test_reject_overlapping_holes():
    h1 = [(0.1, 0.1), (0.5, 0.1), (0.5, 0.5), (0.1, 0.5)]
    h2 = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)]
    with pytest.raises(InvalidRegionError):
        bk.PolygonRegion(UNIT_SQUARE, holes=[h1, h2])


BIG_HOLE = _square(0.1, 0.1, 0.5)
SMALL_HOLE = _square(0.2, 0.2, 0.1)
OUT_HOLE = _square(2, 2, 1)


@pytest.mark.parametrize("holes, message", [
    ([SMALL_HOLE, BIG_HOLE], "^holes 0 and 1 are nested$"),
    ([BIG_HOLE, SMALL_HOLE], "^holes 0 and 1 are nested$"),
    # hole k is tested against the outer ring, then against the holes after it
    ([BIG_HOLE, SMALL_HOLE, OUT_HOLE], "^holes 0 and 1 are nested$"),
    ([BIG_HOLE, OUT_HOLE, SMALL_HOLE], "^holes 0 and 2 are nested$"),
    ([OUT_HOLE, BIG_HOLE, SMALL_HOLE], "^hole 0 is not strictly inside the outer ring$"),
    ([OUT_HOLE, _square(2.2, 2.2, 0.3)], "^hole 0 is not strictly inside the outer ring$"),
    ([_square(0.7, 0.7, 0.1), OUT_HOLE, SMALL_HOLE, BIG_HOLE],
     "^hole 1 is not strictly inside the outer ring$"),
], ids=["small-first", "small-second", "pair-before-outside", "pair-around-outside",
        "outside-first", "outside-holding-one", "outside-before-pair"])
def test_reject_nested_holes(holes, message):
    with pytest.raises(InvalidRegionError, match=message):
        bk.PolygonRegion(UNIT_SQUARE, holes=holes)


def test_accept_hole_whose_first_vertex_sees_its_far_edge():
    # each clockwise triangle's vertex 0 has odd parity against its own ring
    holes = [[(0.2, 0.5), (0.4, 0.7), (0.4, 0.3)], [(0.6, 0.5), (0.8, 0.7), (0.8, 0.3)]]
    reg = bk.PolygonRegion(UNIT_SQUARE, holes)
    assert geometry._parities(reg, reg.edge_array()[[4, 7], :2]).tolist() == \
        [[True, True, False], [True, False, True]]


def test_many_hole_region_constructs_fast():
    # one parity pass over the edge array; a loop over ring edges and over
    # hole pairs took 4.7 s of CPU on a 2-core x86 host
    start = time.process_time()
    reg = _hole_grid(20)
    assert time.process_time() - start < 1.0
    assert bk.area(reg) == pytest.approx(300.0)
    assert bk.contains(reg, [(0.1, 0.1), (0.5, 0.5), (19.8, 19.8), (19.5, 19.5)]).tolist() == \
        [True, False, True, False]


def test_many_vertex_region_constructs_fast():
    # O(V^2) pair tests in numpy; the per-pair Python loops took 10 s of CPU
    # at 1,000 vertices per ring on a 2-core x86 host
    start = time.process_time()
    reg = bk.PolygonRegion(_ring(2000, 10.0), [_ring(2000, 3.0)])
    assert time.process_time() - start < 3.0
    assert bk.area(reg) == pytest.approx(91 * np.pi, rel=1e-4)


def test_reject_last_edge_touching_far_edge():
    # the last edge joins vertices mirrored in the x axis, and vertex 500,
    # across the ring, is moved onto its midpoint: only edges 499 and 500
    # touch it, and no other pair touches
    ring = _ring(1000, 1.0, phase=np.pi / 1000)
    ring[-1] = ring[0] * (1, -1)
    ring[500] = (ring[0, 0], 0.0)
    with pytest.raises(InvalidRegionError, match="^outer ring: ring self-intersects$"):
        bk.PolygonRegion(ring)


def test_reject_hole_touching_outer_at_a_vertex():
    outer = _ring(1000, 10.0)
    hole = _ring(1000, 3.0, center=(7.0, 0.0))  # its vertex 0 is (10, 0)
    assert tuple(hole[0]) == tuple(outer[0])
    with pytest.raises(InvalidRegionError, match=r"^rings intersect \(hole touching"):
        bk.PolygonRegion(outer, [hole])
    bk.PolygonRegion(outer, [hole * 0.99])  # a hole clear of the ring


# -- sampling ----------------------------------------------------------------


def test_sample_zero_points():
    pts = bk.sample_uniform(unit_square(), 0, seed=1)
    assert pts.shape == (0, 2)


def test_sample_all_inside():
    reg = square4_with_hole()
    pts = bk.sample_uniform(reg, 20_000, seed=5)
    assert pts.shape == (20_000, 2)
    assert np.all(bk.contains(reg, pts))


def test_sample_avoids_hole():
    reg = square4_with_hole()
    pts = bk.sample_uniform(reg, 20_000, seed=5)
    in_hole = (
        (pts[:, 0] > 1.0) & (pts[:, 0] < 3.0) & (pts[:, 1] > 1.0) & (pts[:, 1] < 3.0)
    )
    assert not np.any(in_hole)


def test_sample_mean_uniform():
    pts = bk.sample_uniform(unit_square(), 100_000, seed=21)
    # SE of the mean of U(0,1) at 1e5 samples is about 0.0009
    assert abs(pts[:, 0].mean() - 0.5) < 0.005
    assert abs(pts[:, 1].mean() - 0.5) < 0.005


def test_sample_deterministic():
    a = bk.sample_uniform(square4_with_hole(), 5_000, seed=77)
    b = bk.sample_uniform(square4_with_hole(), 5_000, seed=77)
    assert np.array_equal(a, b)
    c = bk.sample_uniform(square4_with_hole(), 5_000, seed=78)
    assert not np.array_equal(a, c)


def test_sample_sliver_raises():
    # diagonal sliver: area ~ 1e-7 of its own bounding box
    w = 1e-7
    reg = bk.PolygonRegion([(0, 0), (w, 0), (1, 1), (1 - w, 1)])
    with pytest.raises(SamplingError):
        bk.sample_uniform(reg, 10, seed=4)


# -- text format -------------------------------------------------------------

REGION_TEXT = """\
# demo region: 4x4 square, 2x2 central hole
4
0.0 0.0
4.0 0.0
4.0 4.0
0.0 4.0
1
4
1.0 1.0
3.0 1.0
3.0 3.0
1.0 3.0
"""


def test_loads_region_round_trip():
    reg = bk.loads_region(REGION_TEXT)
    assert bk.area(reg) == pytest.approx(12.0)
    text = bk.dumps_region(reg)
    reg2 = bk.loads_region(text)
    assert np.array_equal(reg.outer, reg2.outer)
    assert len(reg2.holes) == 1
    assert np.array_equal(reg.holes[0], reg2.holes[0])


def test_save_load_region(tmp_path):
    p = tmp_path / "reg.txt"
    reg = square4_with_hole()
    bk.save_region(reg, p)
    reg2 = bk.load_region(p)
    assert bk.area(reg2) == pytest.approx(bk.area(reg), abs=1e-15)


def test_region_parse_error_line_numbers():
    bad = "4\n0 0\n1 0\nnot a number\n0 1\n0\n"
    with pytest.raises(FileFormatError) as e:
        bk.loads_region(bad)
    assert e.value.line == 4
    assert "4" in str(e.value)


def test_region_truncated():
    with pytest.raises(FileFormatError):
        bk.loads_region("4\n0 0\n1 0\n")


def test_region_count_beyond_file():
    # a ring holds the vertices read, not the count, which is never allocated
    with pytest.raises(FileFormatError) as e:
        bk.loads_region("99999999999999\n0 0\n1 0\n")
    assert e.value.line == 3


def test_region_trailing_garbage():
    with pytest.raises(FileFormatError):
        bk.loads_region("3\n0 0\n1 0\n0 1\n0\nextra line\n")


def test_region_bad_ring_geometry_wrapped():
    # parses fine, fails validation; loader reports it as a file problem
    # with the original InvalidRegionError as the cause
    txt = "4\n0 0\n1 1\n1 0\n0 1\n0\n"
    with pytest.raises(FileFormatError) as e:
        bk.loads_region(txt)
    assert isinstance(e.value.__cause__, InvalidRegionError)


def test_region_comments_and_blanks_ignored():
    txt = "# comment\n\n3\n0 0\n# a vertex\n2 0\n0 2\n# no holes\n0\n"
    reg = bk.loads_region(txt)
    assert bk.area(reg) == pytest.approx(2.0)


def test_square_with_hole_helper():
    # outer square spans [0, side]^2, center places the hole only
    reg = bk.square_with_hole(10.0, 4.0, center=(3.0, 3.0))
    assert bk.area(reg) == pytest.approx(84.0)
    assert bk.contains(reg, (0.5, 0.5))
    assert not bk.contains(reg, (3.0, 3.0))
    with pytest.raises(bk.InvalidRegionError):
        bk.square_with_hole(2.0, 3.0)
