"""Unit-disk construction, degree calibration, ground truth, network files."""

import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_
from scipy import stats

import boundarykit as bk
from boundarykit import FileFormatError, centrality, netgen

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


@pytest.mark.parametrize("indptr, indices, match", [
    ([0, 2, 4], [1, 1, 0, 0], "strictly increasing"),  # a row repeats an id
    ([0, 2, 3, 4], [2, 1, 0, 0], "strictly increasing"),  # a descending row
    ([0, 1, 2], [1, 2], "outside"),
    ([0, 1, 2], [-1, 0], "outside"),
    ([0, 1, 2], [2**32 + 1, 0], "outside"),  # would wrap to 1 in int32
    ([0, 2, 1], [1, 0], "offsets"),
    ([0, 1], [1], "offsets"),  # one offset short
    ([0, 1, 2], [1.0, 0.0], "integers"),
    ([0, 1, 2], [0, 1], "self-loop at node 0"),  # each node lists itself alone
    ([0, 1, 3], [1, 0, 1], "self-loop at node 1"),  # and beside a real edge
])
def test_malformed_csr_rejected(indptr, indices, match):
    n = len(indptr) - 1 if match != "offsets" else 2
    with pytest.raises(ValueError, match=match):
        bk.SensorNetwork(np.zeros((n, 2)), 1.0, indptr, indices)


def test_network_with_repeated_id_rejected_before_any_kernel():
    # the constructor rejects the network that once sent khop_size and
    # run_protocol into loops that did not return, and gave stress1 [1, 1]
    with pytest.raises(ValueError, match="strictly increasing"):
        bk.SensorNetwork(np.zeros((2, 2)), 1.0, [0, 2, 4], [1, 1, 0, 0])
    net = bk.SensorNetwork(np.zeros((2, 2)), 1.0, [0, 1, 2], [1, 0])
    assert bk.khop_size(net, 1).tolist() == [1, 1]
    assert bk.stress1(net).tolist() == [0, 0]
    # rows may start below where the row before ended, and be empty
    bk.SensorNetwork(np.zeros((4, 2)), 1.0, [0, 0, 2, 3, 4], [2, 3, 1, 1])


# -- degree calibration ------------------------------------------------------


def test_expected_degree_examples():
    # unit square, r chosen so (n-1) pi r^2 hits the target exactly
    n = 1000
    r = math.sqrt(200.0 / ((n - 1) * math.pi))
    assert bk.expected_degree(1.0, n, r) == pytest.approx(200.0)
    assert bk.radius_for_degree(1.0, n, 200.0) == pytest.approx(r)


def test_expected_degree_single_node_zero():
    assert bk.expected_degree(1.0, 1, 0.5) == 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_degree_helpers_reject_impossible_values(bad):
    # a negative degree or area would take the square root of a negative
    # number, a zero degree gives a radius that build_network refuses, and a
    # nan would pass through
    with pytest.raises(ValueError, match="degree must be positive and finite"):
        bk.radius_for_degree(10.0, 100, bad)
    with pytest.raises(ValueError, match="region area must be positive and finite"):
        bk.radius_for_degree(bad, 100, 10.0)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        bk.expected_degree(10.0, 100, bad)
    with pytest.raises(ValueError, match="region area must be positive and finite"):
        bk.expected_degree(bad, 100, 0.5)
    with pytest.raises(ValueError, match="need n >= 2"):
        bk.radius_for_degree(10.0, 1, 10.0)
    assert bk.expected_degree(10.0, 0, 0.5) == 0.0


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
    for band in (0.0, float("nan"), float("inf")):  # nan once labelled every node interior
        with pytest.raises(ValueError, match="positive and finite"):
            bk.ground_truth(net, band=band)


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
    ("2 1.0\n0 0.0 0.0\n1 0.5 0.0\n0 1\n1 1\n", "self-loop edge", 5),
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


@pytest.mark.parametrize("text", [
    None,                                                        # a saved network
    "2 1.0\r\n0 0.0 0.0\r\n1 0.5 0.0\r\n0 1\r\n",                # CRLF
    "3 1.0\n0 0.0 0.0\n1 0.5 0.0\n2 1.0 0.0\n\n0 1\n \n\n1 2\n\n",  # blank lines
    "2 1.0\n0 0.0 0.0\n1 0.5 0.0\n0 1",                          # no final newline
    "2 1.0\n0 0.0 0.0\n1 0.5 0.0\n",                             # no edges
    "2 1.0\n0 0.0 0.0\n1 0.5 0.0",                               # nor final newline
    "0 1.0\n",                                                   # n = 0
    "0 1.0",
    "2\t1.0\n0\t0.0 0.0\t\n1 0.5\t0.0\n\t0\t 1  \n",              # tabs, spaces
    "2 1.0\n0 0.0 0.0\n1 0.5 0.0\n\n \n\t\n",                       # blank edge lines only
    "2 1.0\n0 0.0 0.0\n1 0.5 0.0\n+0 1\n",                          # signed edge id
], ids=["saved", "crlf", "blank lines", "no final newline", "no edges",
        "no edges nor newline", "n = 0", "n = 0 no newline", "tabs", "blank edge lines",
        "signed edge id"])
def test_clean_file_skips_line_scan(tmp_path, monkeypatch, text):
    p = tmp_path / "net.txt"
    if text is None:
        bk.save_network(bk.build_network(bk.square_with_hole(6.0, 2.0), 300, 1.0, seed=4), p)
    else:
        p.write_bytes(text.encode())
    radius, pos, edges = oracles.load_network_lines(p)
    monkeypatch.setattr(netgen, "_scan_lines", None)  # calling it would raise
    net = bk.load_network(p)
    assert net.radius == radius
    assert net.positions.tobytes() == pos.tobytes()
    assert net.edges().tolist() == [list(e) for e in edges]


def test_load_network_memory(tmp_path):
    # the reader holds a few arrays the size of the edges at a time, so its
    # peak stays within a few times the file size (about 3 here, counting
    # the edge bytes it filters); per-field offset arrays took it past 10
    net =bk.build_network(bk.square_with_hole(30.0, 21.4), 8000, 1.0, seed=3)
    p = tmp_path / "net.txt"
    bk.save_network(net, p)
    size = p.stat().st_size
    tracemalloc.start()
    try:
        bk.load_network(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 2_000_000
    assert peak < 6 * size, (peak, size)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory that tracemalloc saw it allocate,
    numpy buffers included."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dense_networks():
    """4,000 nodes at two radii: about 242k and 123k edges."""
    reg = bk.square_with_hole(10.0, 3.0)
    bk.build_network(reg, 10, 1.0, seed=5)  # scipy.spatial imported outside the trace
    return [traced_peak(bk.build_network, reg, 4000, r, 5) for r in (1.0, 0.7)]


def test_build_and_load_memory_per_edge(tmp_path, dense_networks):
    # The CSR is built in place over the (m, 2) int64 edge pairs, 16 B an
    # edge, and cast once to the int32 indices, 8 B an edge: about 24 B in
    # all, plus O(n).  The k-d tree's pairs are not traced, so the build
    # shows about 10 B an edge.  The reader held its keys, their
    # concatenation and the indices at once: 34 B an edge, and the build 32.
    (net, build), _ = dense_networks
    n, m = net.n, len(net.indices) // 2
    assert m > 240_000
    p = tmp_path / "net.txt"
    bk.save_network(net, p)
    got, load = traced_peak(bk.load_network, p)
    assert np.array_equal(got.indices, net.indices)
    assert build < 26 * m + 200 * n, build / m
    assert load < 28 * m + 200 * n, load / m


def test_save_network_memory_flat_in_m(tmp_path, dense_networks):
    # one block of _EDGE_ROWS edge lines at a time, so equal n gives an
    # equal peak whatever m; with the whole edge list held, the network
    # with twice the edges took 1.3 times the peak
    peaks = []
    for net, _ in dense_networks:
        _, peak = traced_peak(bk.save_network, net, tmp_path / "net.txt")
        peaks.append(peak)
    big, small = peaks
    assert big < 1.1 * small, peaks


def test_load_network_leaves_warning_filters_alone(tmp_path):
    # before Python 3.14 every thread shares the warning filters, so a reader
    # that set them to "error" would raise the warnings another thread ignores
    p = tmp_path / "net.txt"
    bk.save_network(bk.build_network(bk.square_with_hole(10.0, 3.0), 2000, 1.0, seed=5), p)
    stop, raised = threading.Event(), []

    def divide():
        with np.errstate(divide="warn"):
            while not stop.is_set():
                try:
                    np.divide(1.0, 0.0)
                except RuntimeWarning as e:
                    raised.append(e)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        filters = list(warnings.filters)
        other = threading.Thread(target=divide)
        other.start()
        try:
            for _ in range(10):
                bk.load_network(p)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert warnings.filters == filters
    assert not raised


@pytest.mark.parametrize("name", ["net.gz", "net.bz2", "net.xz", "net.lzma"])
def test_load_network_plain_file_with_archive_suffix(tmp_path, name):
    # np.loadtxt would decompress such a path, so the line scan reads it
    p = tmp_path / name
    p.write_text(NET_TEXT_OK)
    assert adjacency_lists(bk.load_network(p)) == [[1], [0]]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_network_from_pipe(tmp_path):
    # a pipe can be read once, and a second open would wait for a writer
    p = tmp_path / "net.fifo"
    os.mkfifo(p)
    got = []
    reader = threading.Thread(target=lambda: got.append(bk.load_network(p)), daemon=True)
    reader.start()
    p.write_text(NET_TEXT_OK)  # opens once the reader has
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert adjacency_lists(got[0]) == [[1], [0]]


def test_file_rows_checked_once(tmp_path, monkeypatch):
    # the _check_csr of the network built from it is the one row check of
    # a file that the bulk reader takes; a repeated edge gets past that
    # reader, and the line scan then names its second line
    checks, scans = [], []
    check, scan = netgen._check_csr, netgen._scan_lines
    monkeypatch.setattr(netgen, "_check_csr", lambda *a: checks.append(a) or check(*a))
    monkeypatch.setattr(netgen, "_scan_lines", lambda p: scans.append(p) or scan(p))
    p = tmp_path / "net.txt"
    p.write_text(NET_TEXT_OK)
    bk.load_network(p)
    assert (len(checks), len(scans)) == (1, 0)
    p.write_text(NET_TEXT_OK + "\n0 1\n")
    checks.clear()
    with pytest.raises(FileFormatError, match="duplicate edge") as e:
        bk.load_network(p)
    assert e.value.line == 6
    assert (len(checks), len(scans)) == (1, 1)


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


def network_of(n, edges):
    """A network of n nodes on a line with the given edges u < v, which the
    unit-disk rule need not give."""
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    pos = np.column_stack([np.arange(n) * 0.5, np.zeros(n)])
    return bk.SensorNetwork(pos, 0.75, *centrality.as_csr(rows))


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("n,edges", [
    (5, [(0, 4), (1, 4), (2, 4), (3, 4)]),   # rows 0-3 upper only, row 4 lower only
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),   # blocks after the first find no upper entry
    (7, [(1, 5), (1, 6), (5, 6)]),           # isolated nodes before, between and after
    (5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),  # rows longer than a block
    (4, []),
    (1, []),
    (0, []),
], ids=["star to last", "star from first", "isolated", "complete", "edgeless", "n = 1", "n = 0"])
def test_save_network_block_edges(tmp_path, monkeypatch, rows, n, edges):
    net = network_of(n, edges)
    monkeypatch.setattr(netgen, "_EDGE_ROWS", rows)
    p = tmp_path / "net.txt"
    bk.save_network(net, p)
    assert p.read_bytes() == oracles.network_text_lines(net.positions, 0.75, edges).encode()
    assert net.edges().tolist() == [list(e) for e in edges]
    assert net.edges().dtype == np.int64
    got = bk.load_network(p)
    assert np.array_equal(got.indptr, net.indptr)
    assert np.array_equal(got.indices, net.indices)


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
@given(_corrupted_network_file())
def test_load_network_matches_line_reader(tmp_path_factory, case):
    net, kind, text = case
    p = tmp_path_factory.mktemp("net") / "net.txt"
    p.write_bytes(text.encode())
    try:
        want = oracles.load_network_lines(p)
    except FileFormatError as e:
        want = e
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


def test_network_keeps_its_checked_csr():
    # the constructor copies the CSR arrays it checks, so a later write to
    # the caller's arrays cannot make the network one-way
    indptr, indices = np.array([0, 1, 2], np.int32), np.array([1, 0], np.int32)
    net = bk.SensorNetwork(np.zeros((2, 2)), 1.0, indptr, indices)
    indices[0] = 0
    assert net.indices.tolist() == [1, 0]


def test_symmetry_checked_where_not_built(tmp_path, monkeypatch):
    # build_network and load_network make the CSR from edge pairs, listed
    # from both ends, so only a network built by hand is tested for symmetry
    calls = []
    check = netgen._check_symmetric
    monkeypatch.setattr(netgen, "_check_symmetric", lambda *a: calls.append(a) or check(*a))
    net = bk.build_network(bk.square_with_hole(4.0, 1.0), 60, 1.0, seed=2)
    p = tmp_path / "net.txt"
    bk.save_network(net, p)
    got = bk.load_network(p)
    scans = []
    scan = netgen._scan_lines
    monkeypatch.setattr(netgen, "_scan_lines", lambda q: scans.append(q) or scan(q))
    p.write_text("2 1.0\n0_0 0.0 0.0\n1 0.5 0.0\n0 1\n")  # an id that loadtxt refuses
    assert bk.load_network(p).indices.tolist() == [1, 0] and scans
    assert not calls
    bk.SensorNetwork(got.positions, got.radius, got.indptr, got.indices)
    assert len(calls) == 1


def test_load_network_error_carries_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 1.0\n0 0.0 0.0\n1 x 0.0\n0 1\n")
    with pytest.raises(FileFormatError) as e:
        bk.load_network(p)
    assert e.value.line == 3


def test_edges_listing():
    net = net_from_points([(0, 0), (0.5, 0), (1.0, 0)], 0.6)
    assert [tuple(e) for e in net.edges()] == [(0, 1), (1, 2)]
