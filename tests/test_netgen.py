"""Unit-disk construction, degree calibration, ground truth, network files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_
from scipy import stats

import boundarykit as bk
from boundarykit import FileFormatError, netgen

import oracles


def net_from_points(pts, r):
    pts = np.asarray(pts, dtype=float)
    indptr, indices = bk.adjacency_from_positions(pts, r)
    return bk.SensorNetwork(pts, r, indptr, indices)


def adjacency_lists(net):
    return [list(net.neighbors(v)) for v in range(net.n)]


# -- construction ------------------------------------------------------------


def test_collinear_chain():
    # spacing 0.8: consecutive points adjacent, next-nearest (1.6) not
    pts = [(0.0, 0.0), (0.8, 0.0), (1.6, 0.0), (2.4, 0.0)]
    net = net_from_points(pts, 1.0)
    assert adjacency_lists(net) == [[1], [0, 2], [1, 3], [2]]


def test_exact_tie_is_edge():
    net = net_from_points([(0.0, 0.0), (1.0, 0.0)], 1.0)
    assert adjacency_lists(net) == [[1], [0]]


def test_just_over_radius_is_not_edge():
    net = net_from_points([(0.0, 0.0), (1.0 + 1e-9, 0.0)], 1.0)
    assert adjacency_lists(net) == [[], []]


def test_empty_network():
    net = net_from_points(np.empty((0, 2)), 1.0)
    assert net.n == 0
    assert len(net.edges()) == 0


def test_single_node():
    net = net_from_points([(0.3, 0.4)], 1.0)
    assert adjacency_lists(net) == [[]]
    assert net.degrees.tolist() == [0]


def scaled_lattice(scale):
    """A 12 x 12 integer lattice times ``scale``, its first row repeated.

    At radius ``scale * r`` for r in 1, sqrt(2) and 2, every lattice
    distance equal to r is a tie that float rounding decides, and the
    repeated points sit at distance 0.
    """
    i, j = np.meshgrid(np.arange(12), np.arange(12))
    pts = np.column_stack([i.ravel(), j.ravel()]) * scale
    return np.vstack([pts, pts[:12]])


@pytest.mark.parametrize("scale,radius", [
    *(pytest.param(None, r, id=str(r)) for r in (0.05, 0.2, 1.0, 3.0)),
    *(pytest.param(s, s * r, id=f"lattice{s}-{name}")
      for s in (0.1, 0.3) for r, name in ((1.0, "1"), (math.sqrt(2), "sqrt2"), (2.0, "2"))),
])
def test_grid_matches_brute_force(scale, radius):
    if scale is None:
        rng = np.random.default_rng(int(radius * 1000))
        pts = rng.random((300, 2)) * 2.0
    else:
        pts = scaled_lattice(scale)
    net = net_from_points(pts, radius)
    assert adjacency_lists(net) == oracles.brute_adjacency(pts, radius)


def test_grid_matches_brute_force_2000():
    rng = np.random.default_rng(0)
    pts = rng.random((2000, 2)) * 10.0
    net = net_from_points(pts, 1.0)
    assert adjacency_lists(net) == oracles.brute_adjacency(pts, 1.0)


def test_adjacency_sorted_symmetric_loop_free():
    rng = np.random.default_rng(3)
    pts = rng.random((800, 2)) * 5.0
    net = net_from_points(pts, 1.0)
    adj = adjacency_lists(net)
    for v, nb in enumerate(adj):
        assert nb == sorted(nb)
        assert v not in nb
        for w in nb:
            assert v in adj[w]


@pytest.mark.parametrize("bad", ["radius", "coordinate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_input_rejected(bad, value):
    pts = np.array([(0.0, 0.0), (0.5, 0.0)])
    radius = 1.0
    if bad == "radius":
        radius = value
    else:
        pts[1, 1] = value
    indptr, indices = bk.adjacency_from_positions(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError, match="finite"):
        bk.adjacency_from_positions(pts, radius)
    with pytest.raises(ValueError, match="finite"):
        bk.SensorNetwork(pts, radius, indptr, indices)
    if bad == "radius":
        with pytest.raises(ValueError, match="finite"):
            bk.build_network(bk.square_with_hole(6.0, 2.0), 50, radius, seed=1)


# -- degree calibration ------------------------------------------------------


def test_expected_degree_examples():
    # unit square, r chosen so (n-1) pi r^2 hits the target exactly
    n = 1000
    r = math.sqrt(200.0 / ((n - 1) * math.pi))
    assert bk.expected_degree(1.0, n, r) == pytest.approx(200.0)
    assert bk.radius_for_degree(1.0, n, 200.0) == pytest.approx(r)


def test_expected_degree_single_node_zero():
    assert bk.expected_degree(1.0, 1, 0.5) == 0.0


def test_radius_round_trip():
    for deg in (5.0, 20.0, 100.0):
        r = bk.radius_for_degree(7.3, 500, deg)
        assert bk.expected_degree(7.3, 500, r) == pytest.approx(deg)


def test_interior_mean_degree_near_target():
    # degree-20 square, interior nodes only (one radius in from every wall)
    n = 20_000
    side = math.sqrt(n * math.pi / 20.0)
    reg = bk.PolygonRegion([(0, 0), (side, 0), (side, side), (0, side)])
    net = bk.build_network(reg, n, 1.0, seed=55)
    d = bk.distances_to_boundary(reg, net.positions)
    interior = d >= 1.0
    mean_deg = net.degrees[interior].mean()
    assert abs(mean_deg - 20.0) < 1.0


def test_interior_degrees_poisson():
    # chi-square of the interior degree histogram against Poisson(mu),
    # mu estimated from the sample; wide significance floor
    n = 50_000
    side = math.sqrt(n * math.pi / 20.0)
    reg = bk.PolygonRegion([(0, 0), (side, 0), (side, side), (0, side)])
    net = bk.build_network(reg, n, 1.0, seed=101)
    d = bk.distances_to_boundary(reg, net.positions)
    degs = net.degrees[d >= 1.0]
    mu = degs.mean()
    lo, hi = int(mu - 4 * math.sqrt(mu)), int(mu + 4 * math.sqrt(mu))
    obs = np.bincount(degs, minlength=hi + 2)
    pmf = stats.poisson.pmf(np.arange(lo, hi + 1), mu)
    exp = pmf * len(degs)
    o = np.concatenate([[len(degs) - obs[lo:hi + 1].sum()], obs[lo:hi + 1]])
    e = np.concatenate([[len(degs) - exp.sum()], exp])
    chi2 = float(((o - e) ** 2 / np.maximum(e, 1e-12)).sum())
    pval = stats.chi2.sf(chi2, len(o) - 2)  # one dof spent on mu
    assert pval > 1e-3


def test_build_network_deterministic():
    reg = bk.square_with_hole(8.0, 3.0)
    a = bk.build_network(reg, 2000, 1.0, seed=9)
    b = bk.build_network(reg, 2000, 1.0, seed=9)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.indices, b.indices)


def test_build_network_positions_inside():
    reg = bk.square_with_hole(8.0, 3.0)
    net = bk.build_network(reg, 3000, 1.0, seed=10)
    assert np.all(bk.contains(reg, net.positions))


# -- ground truth ------------------------------------------------------------


def test_ground_truth_band():
    reg = bk.PolygonRegion([(0, 0), (2, 0), (2, 2), (0, 2)])
    pts = np.array([(1.0, 1.0), (0.3, 1.0), (0.5, 0.5)])
    indptr, indices = bk.adjacency_from_positions(pts, 0.8)
    net = bk.SensorNetwork(pts, 0.8, indptr, indices, region=reg)
    truth = bk.ground_truth(net, band=0.5)
    # strictly-inside-the-band convention: distance < band
    assert truth.tolist() == [False, True, False]
    # default band is the communication radius
    assert bk.ground_truth(net).tolist() == [False, True, True]


def test_ground_truth_requires_region():
    net = net_from_points([(0, 0), (1, 0)], 1.0)
    with pytest.raises(ValueError):
        bk.ground_truth(net)


def test_ground_truth_band_positive():
    reg = bk.PolygonRegion([(0, 0), (2, 0), (2, 2), (0, 2)])
    net = bk.build_network(reg, 10, 0.5, seed=1)
    with pytest.raises(ValueError):
        bk.ground_truth(net, band=0.0)


# -- network files -----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    reg = bk.square_with_hole(6.0, 2.0)
    net = bk.build_network(reg, 500, 1.0, seed=42)
    p = tmp_path / "net.txt"
    bk.save_network(net, p)
    net2 = bk.load_network(p)
    assert net2.radius == net.radius
    assert np.array_equal(net2.positions, net.positions)
    assert np.array_equal(net2.indptr, net.indptr)
    assert np.array_equal(net2.indices, net.indices)
    # byte-identical re-save
    p2 = tmp_path / "net2.txt"
    bk.save_network(net2, p2)
    assert p.read_text() == p2.read_text()


NET_TEXT_OK = "2 1.0\n0 0.0 0.0\n1 0.5 0.0\n0 1\n"


def test_load_network_text(tmp_path):
    p = tmp_path / "n.txt"
    p.write_text(NET_TEXT_OK)
    net = bk.load_network(p)
    assert net.n == 2
    assert adjacency_lists(net) == [[1], [0]]


# (file text, what is wrong with it, the line the error names)
BAD_FILES = [
    ("2\n0 0.0 0.0\n1 0.5 0.0\n", "header", 1),
    ("2 1.0\n1 0.0 0.0\n0 0.5 0.0\n0 1\n", "node id order", 2),
    ("2 1.0\n0 0.0 0.0\n1 0.5 0.0\n1 0\n", "edge u < v", 4),
    ("2 1.0\n0 0.0 0.0\n1 0.5 0.0\n0 7\n", "unknown endpoint", 4),
    ("2 1.0\n0 0.0 0.0\n1 0.5 0.0\n0 1\n0 1\n", "duplicate edge", 5),
    ("2 1.0\n0 nope 0.0\n1 0.5 0.0\n0 1\n", "bad coordinate", 2),
    ("2 -1.0\n0 0.0 0.0\n1 0.5 0.0\n0 1\n", "bad radius", 1),
    ("3 1.0\n0 0.0 0.0\n1 0.5 0.0\n0 1\n", "node count", 4),
    ("3 1.0\n0 0.0 0.0\n1 0.5 0.0\n2 1.0 0.0\n0 1\n1 2\n0 1\n\n1 2\n0 2\n",
     "duplicate edge before the end", 7),
    ("2 1.0\n0 0.0 0.0\n1 0.5 0.0\n0 1.0\n", "float endpoint", 4),
    ("2 1.0\n0.0 0.0 0.0\n1 0.5 0.0\n0 1\n", "float node id", 2),
    ("2 1.0\n0 0.0 0.0\n\n1 0.5 0.0\n0 1\n", "blank node line", 3),
    ("2 1.0\n0 0.0 0.0\n1 0.5 0.0\n0 1 1\n", "three-field edge", 4),
    ("2 1.0\n0 0.0 0.0\n1 0.5\n0 1\n", "two-field node line", 3),
    ("3 1.0\n0 0.0 0.0\n1 0.5 0.0", "file ends early", 3),
    ("99999999999999999999 1.0\n0 0.0 0.0\n", "huge node count", 2),
    ("2 1.0\n0 0.5\n1 1 0.5 0.5\n0 1\n", "fields shifted between node lines", 2),
    ("5 1.0\n0 0 0\n1 0 0\n2 0 0\n3 0 0\n4 0 0\n0 1\n3 7\n", "endpoint past n", 8),
    ("2 1.0\n0 0.0 0.0\n1 0.5 0.0\n-1 1\n", "negative endpoint", 4),
    ("11 1.0\n" + "".join(f"{i} 0 0\n" for i in range(11)) + "0 :\n",
     "non-digit endpoint", 13),  # ":" is the byte after "9"
    ("", "empty file", 1),
    ("2 1.0\n0 0.0 0.0\n1 0.5\x0c0.0\n0 1\n", "form feed breaks a line", 3),
    ("2 1.0\n0 0.0 0.0\n1 0.5\r0.0\n0 1\n", "carriage return breaks a line", 3),
    ("2 nan\n0 0.0 0.0\n1 0.5 0.0\n0 1\n", "nan radius", 1),
    ("2 inf\n0 0.0 0.0\n1 0.5 0.0\n0 1\n", "infinite radius", 1),
    ("2 1.0\n0 0.0 inf\n1 0.5 0.0\n0 1\n", "infinite coordinate", 2),
    ("2 1.0\n0 0.0 0.0\n1 nan 0.0\n0 1\n", "nan coordinate", 3),
    ("2 1.0\n0 0.0 0.0\n1 0.5 -1e999\n0 1\n", "coordinate overflows", 3),
]


@pytest.mark.parametrize("text,wrong", [case[:2] for case in BAD_FILES])
def test_load_network_rejects(tmp_path, text, wrong):
    line = {w: k for _, w, k in BAD_FILES}[wrong]
    p = tmp_path / "bad.txt"
    p.write_bytes(text.encode())
    with pytest.raises(FileFormatError) as e:
        bk.load_network(p)
    assert e.value.line == line


@pytest.mark.parametrize("text", [
    "2 1.0\r\n0 0.0 0.0\r\n1 0.5 0.0\r\n0 1\r\n",                # CRLF
    "2 1.0\r0 0.0 0.0\r1 0.5 0.0\r0 1\r",                        # CR
    "3 1.0\n0 0.0 0.0\n1 0.5 0.0\n2 1.0 0.0\n\n0 1\n \n\n1 2\n\n",  # blank lines
    "2 1.0\n0 0.0 0.0\n1 0.5 0.0\n0 1",                          # no final newline
    "2 1.0\n0 0.0 0.0\n1 0.5 0.0",                               # nor edges
    "0 1.0\n",                                                   # n = 0
    "0 1.0",
    "2 1.0\n0 0.0 0.0\n1 0.5 0.0\n",                             # no edges
    "2 1.0\n0 0.0 0.0\n1 0.5 0.0\n\t0\t 1  \n",                  # tabs, spaces
    "2 1_0\n+0 1_0 -0.0\n0_1 .5 +1E0\n+0 0_1\n",                # int()/float() spellings
    "2 1.0\n00 0.0 0.0\n01 0.5 0.0\n00 000000000000000000001\n",  # leading zeros
])
def test_load_network_accepts(tmp_path, text):
    p = tmp_path / "ok.txt"
    p.write_bytes(text.encode())
    net = bk.load_network(p)
    radius, pos, edges = oracles.load_network_lines(p)
    assert net.radius == radius
    assert net.positions.dtype == np.float64
    assert net.positions.tobytes() == pos.tobytes()
    assert net.edges().tolist() == [list(e) for e in edges]
    assert net.indptr.dtype == net.indices.dtype == netgen._index_dtype(net.n, len(net.indices))
    assert net.indices.dtype == np.int32


def test_clean_file_skips_line_scan(tmp_path, monkeypatch):
    reg = bk.square_with_hole(6.0, 2.0)
    net = bk.build_network(reg, 300, 1.0, seed=4)
    p = tmp_path / "net.txt"
    bk.save_network(net, p)
    monkeypatch.setattr(netgen, "_scan_lines", None)  # calling it would raise
    monkeypatch.setattr(netgen, "_READ_BYTES", 64)   # edges in many blocks
    net2 = bk.load_network(p)
    assert np.array_equal(net2.indptr, net.indptr)
    assert np.array_equal(net2.indices, net.indices)


def test_save_network_bytes(tmp_path, monkeypatch):
    awkward = [0.1, 1e-300, 5e-324, 123456789.123, 1e16, 0.30000000000000004,
               -0.0, -2.5e-17, 1.7976931348623157e308, 3.0]
    pos = np.array([awkward, awkward[::-1]]).T.copy()
    indptr, indices = bk.adjacency_from_positions(np.zeros((len(pos), 2)), 1.0)
    net = bk.SensorNetwork(pos, 0.1, indptr, indices)
    monkeypatch.setattr(netgen, "_EDGE_ROWS", 4)  # edges written in many chunks
    p = tmp_path / "net.txt"
    bk.save_network(net, p)
    expected = oracles.network_text_lines(pos, 0.1, net.edges().tolist())
    assert p.read_bytes() == expected.encode()
    assert p.read_bytes().count(b"\n") == 1 + len(pos) + len(pos) * (len(pos) - 1) // 2


# Replacement tokens for a corrupted field: floats in int columns, ids out
# of range, spellings only int() and float() take, and plain junk.
_TOKENS = ["0", "1", "2", "7", "-1", "0.0", "1.0", "1e3", "+1", "1_0", "01",
           "nan", "inf", "-inf", "1e999", "x", "", "1 1", "99999999999999999999"]


@st_.composite
def _corrupted_network_file(draw):
    n = draw(st_.integers(0, 7))
    coord = st_.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=True)
    pos = np.array([[draw(coord), draw(coord)] for _ in range(n)]).reshape(n, 2)
    radius = draw(st_.sampled_from([0.5, 1.5, 3.0, 20.0]))
    indptr, indices = bk.adjacency_from_positions(pos, radius)
    net = bk.SensorNetwork(pos, radius, indptr, indices)
    lines = oracles.network_text_lines(pos, radius, net.edges().tolist()).splitlines()
    kind = draw(st_.sampled_from(["none", "swap", "drop", "repeat", "line"]))
    at = draw(st_.integers(0, len(lines) - 1))
    fields = lines[at].split()
    k = draw(st_.integers(0, len(fields) - 1))
    if kind == "swap":
        fields[k] = draw(st_.sampled_from(_TOKENS))
    elif kind == "drop":
        del fields[k]
    elif kind == "repeat":
        fields.insert(k, fields[k])
    if kind == "line":
        lines.insert(at + draw(st_.booleans()), lines[at])
    elif kind != "none":
        lines[at] = " ".join(fields)
    end = draw(st_.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st_.sampled_from(["", end]))
    return net, kind, text


def _repeated_edge_line(text, n):
    """1-based line of the first edge line that repeats an earlier one."""
    seen = set()
    for k, raw in enumerate(text.splitlines()[1 + n:], start=2 + n):
        if raw.strip():
            edge = tuple(map(int, raw.split()))
            if edge in seen:
                return k
            seen.add(edge)
    return None


@settings(max_examples=300, deadline=None)
@given(_corrupted_network_file(), st_.sampled_from([1 << 22, 5, 16]))
def test_load_network_matches_line_reader(tmp_path_factory, case, block):
    net, kind, text = case
    p = tmp_path_factory.mktemp("net") / "net.txt"
    p.write_bytes(text.encode())
    try:
        want = oracles.load_network_lines(p)
    except FileFormatError as e:
        want = e
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgen, "_READ_BYTES", block)
        if isinstance(want, FileFormatError):
            with pytest.raises(FileFormatError) as e:
                bk.load_network(p)
            line = want.line
            if str(want).endswith("duplicate edge in file"):
                line = _repeated_edge_line(text, int(text.split()[0]))
            assert e.value.line == line
            return
        got = bk.load_network(p)
    radius, pos, edges = want
    assert np.float64(got.radius).tobytes() == np.float64(radius).tobytes()
    assert got.positions.tobytes() == pos.tobytes()
    assert got.edges().tolist() == [list(e) for e in edges]
    if kind == "none":
        assert np.array_equal(got.positions, net.positions)
        assert np.array_equal(got.indptr, net.indptr)
        assert np.array_equal(got.indices, net.indices)
        assert got.indptr.dtype == net.indptr.dtype
        assert got.indices.dtype == net.indices.dtype


def test_index_dtype_past_int32():
    top = np.iinfo(np.int32).max
    assert netgen._index_dtype(top, top) is np.int32
    assert netgen._index_dtype(10, top + 1) is np.int64
    assert netgen._index_dtype(top + 1, 0) is np.int64


def test_network_arrays_int32(tmp_path):
    net = bk.build_network(bk.square_with_hole(6.0, 2.0), 300, 1.0, seed=4)
    p = tmp_path / "net.txt"
    bk.save_network(net, p)
    for got in (net, bk.load_network(p)):
        assert got.indptr.dtype == got.indices.dtype == np.int32
    assert bk.SensorNetwork(net.positions, 1.0, net.indptr.astype(np.int64),
                            net.indices.astype(np.int64)).indices.dtype == np.int32
    assert net.edges().dtype == np.int64


def test_network_arrays_read_only():
    pos = np.array([(0.0, 0.0), (0.5, 0.0), (2.0, 0.0)])
    indptr, indices = bk.adjacency_from_positions(pos, 1.0)
    net = bk.SensorNetwork(pos, 1.0, indptr, indices)
    for view, base in ((net.positions, pos), (net.indptr, indptr), (net.indices, indices)):
        with pytest.raises(ValueError):
            view[0] = 1
        base[0] = 1  # the caller's array stays writeable
    with pytest.raises(ValueError):
        net.neighbors(0)[0] = 2


def test_load_network_error_carries_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 1.0\n0 0.0 0.0\n1 x 0.0\n0 1\n")
    with pytest.raises(FileFormatError) as e:
        bk.load_network(p)
    assert e.value.line == 3


def test_edges_listing():
    net = net_from_points([(0, 0), (0.5, 0), (1.0, 0)], 0.6)
    assert [tuple(e) for e in net.edges()] == [(0, 1), (1, 2)]
