"""Centrality indices against hand-worked cases and brute-force oracles."""

import time
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st_

import boundarykit as bk
from boundarykit import centrality, netgen

import oracles

# small named graphs, as adjacency lists
PATH3 = [[1], [0, 2], [1]]
PATH4 = [[1], [0, 2], [1, 3], [2]]
TRIANGLE = [[1, 2], [0, 2], [0, 1]]
CYCLE4 = [[1, 3], [0, 2], [1, 3], [0, 2]]
CYCLE5 = [[1, 4], [0, 2], [1, 3], [2, 4], [0, 3]]
STAR3 = [[1, 2, 3], [0], [0], [0]]           # hub 0
K4 = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
WHEEL4 = [[1, 2, 3, 4], [0, 2, 4], [0, 1, 3], [0, 2, 4], [0, 1, 3]]  # hub 0 + C4


# -- khop --------------------------------------------------------------------


def test_khop_cycle5():
    assert bk.khop_size(CYCLE5, 1).tolist() == [2] * 5
    assert bk.khop_size(CYCLE5, 2).tolist() == [4] * 5


def test_khop_path3():
    assert bk.khop_size(PATH3, 1).tolist() == [1, 2, 1]


def test_khop_k_zero_rejected():
    with pytest.raises(ValueError):
        bk.khop_size(PATH3, 0)


@pytest.mark.parametrize("radius", [1.5, 1.9, 2.0, np.float64(1.0), "1", 0, np.int64(-1),
                                    True, np.True_])
def test_hop_radius_not_a_positive_integer_rejected(monkeypatch, radius):
    # k and delta count hops: anything but an integer >= 1, a bool included,
    # is refused before the graph is read, and compute neither truncates it
    # nor records it
    monkeypatch.setattr(centrality, "as_csr", None)  # reading the graph raises TypeError
    for call in (partial(bk.khop_size, PATH4, radius), partial(bk.restricted_stress, PATH4, radius),
                 partial(bk.compute, PATH4, "khop", k=radius),
                 partial(bk.compute, PATH4, "rstress", delta=radius)):
        with pytest.raises(ValueError, match="integer >= 1"):
            call()


@pytest.mark.parametrize("kind", [int, np.int32, np.int64, np.uint8])
def test_hop_radius_numpy_integers(kind):
    assert bk.khop_size(CYCLE5, kind(2)).tolist() == [4] * 5
    assert bk.restricted_stress(PATH4, kind(1)).tolist() == [0, 2, 2, 0]
    assert bk.restricted_stress(PATH4, kind(200)).tolist() == [0, 4, 4, 0]
    res = bk.compute(CYCLE5, "khop", k=kind(2))
    assert res.values.tolist() == [4] * 5 and res.params == {"k": 2}


def test_khop_saturates_at_component():
    assert bk.khop_size(PATH4, 10).tolist() == [3, 3, 3, 3]


def _path(n, start=0):
    """Adjacency lists of the path start, start + 1, ..., start + n - 1."""
    return [[u for u in (v - 1, v + 1) if start <= u < start + n] for v in range(start, start + n)]


def test_khop_saturated_components_run_no_products(monkeypatch):
    # a component of s nodes lies within s - 1 hops of each node, so from
    # k = s - 1 on it counts s - 1 without a product; _blocks sees only
    # the rows of the larger components.  k = 10**9 once ran for seconds
    # on an 800-node path, and did not end in minutes at 20k nodes
    split = centrality._blocks
    rows = []

    def recorded(work, budget):
        rows.append(len(work))
        return split(work, budget)

    monkeypatch.setattr(centrality, "_blocks", recorded)
    path = _path(800)
    for k in (799, 10**9):
        rows.clear()
        assert bk.khop_size(path, k).tolist() == [799] * 800, k
        assert rows == [0], k
    rows.clear()
    ends = [798] + [799] * 798 + [798]  # only the two ends miss a node
    got = bk.khop_size(path, 798)
    assert got.tolist() == ends and rows == [800]
    assert np.array_equal(got, oracles.brute_khop(path, 798))
    # a 30-node path, a triangle, a 2-node component and isolated nodes
    adj = [[]] + _path(30, 1) + [[]] + [[33, 34], [32, 34], [32, 33], [36], [35], [], []]
    for k, unsaturated in ((1, 33), (2, 30), (28, 30), (29, 0), (10**9, 0)):
        rows.clear()
        assert np.array_equal(bk.khop_size(adj, k), oracles.brute_khop(adj, k)), k
        assert rows == [unsaturated], k


# -- stress ------------------------------------------------------------------


def test_stress_path4():
    assert bk.stress_centrality(PATH4).tolist() == [0, 4, 4, 0]


def test_stress_triangle_zero():
    assert bk.stress_centrality(TRIANGLE).tolist() == [0, 0, 0]


def test_stress_cycle4():
    # each vertex carries the two ordered pairs of its neighbours
    assert bk.stress_centrality(CYCLE4).tolist() == [2, 2, 2, 2]


# -- betweenness -------------------------------------------------------------


def test_betweenness_path3():
    # ordered pairs: (0,2) and (2,0) both through the middle
    assert bk.betweenness_centrality(PATH3) == pytest.approx([0.0, 2.0, 0.0])


def test_betweenness_cycle4():
    # opposite pair splits over two shortest paths, both directions
    assert bk.betweenness_centrality(CYCLE4) == pytest.approx([1.0] * 4)


def test_betweenness_complete_zero():
    assert bk.betweenness_centrality(K4) == pytest.approx([0.0] * 4)


# -- restricted stress -------------------------------------------------------


def test_rstress_star():
    assert bk.restricted_stress(STAR3, 1).tolist() == [6, 0, 0, 0]


def test_rstress_triangle():
    assert bk.restricted_stress(TRIANGLE, 1).tolist() == [0, 0, 0]


def test_rstress_path4_delta1():
    assert bk.restricted_stress(PATH4, 1).tolist() == [0, 2, 2, 0]


def test_rstress_reaches_stress_at_diameter():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        _, adj = oracles.geometric_graph(25, 0.45, rng)
        full = bk.stress_centrality(adj)
        assert np.array_equal(bk.restricted_stress(adj, 25), full)


def test_rstress_monotone_in_delta():
    rng = np.random.default_rng(8)
    _, adj = oracles.geometric_graph(40, 0.35, rng)
    prev = bk.restricted_stress(adj, 1)
    for d in (2, 3, 4, 6):
        cur = bk.restricted_stress(adj, d)
        assert np.all(cur >= prev)
        prev = cur


# -- stress1 and st ----------------------------------------------------------


def test_stress1_star():
    assert bk.stress1(STAR3).tolist() == [3, 0, 0, 0]


def test_stress1_triangle():
    assert bk.stress1(TRIANGLE).tolist() == [0, 0, 0]


def test_stress1_path3():
    assert bk.stress1(PATH3).tolist() == [0, 1, 0]


def test_stress1_empty_and_isolated():
    assert bk.stress1([]).tolist() == []
    assert bk.stress1([[], []]).tolist() == [0, 0]


def test_stress1_matches_unblocked_reference(net20k):
    # C(d, 2) - rowsum((A @ A) * A) / 2 in one product; the network is
    # large enough that stress1 splits its rows into several blocks
    n = net20k.n
    a = sp.csr_array((np.ones(len(net20k.indices), dtype=np.int64),
                      net20k.indices, net20k.indptr), shape=(n, n))
    deg = np.diff(net20k.indptr).astype(np.int64)
    assert (a @ deg).sum() > 4 * bk.centrality._GATHER_BUDGET
    ref = deg * (deg - 1) // 2 - (a @ a).multiply(a).sum(axis=1) // 2
    assert np.array_equal(bk.stress1(net20k), ref)


def test_relabel_memory_at_20k(net20k):
    # csgraph labels the components on the network's own CSR, so _relabel
    # peaks in its one-byte gather and transpose, about 10.4 B an adjacency
    # entry; csgraph's float64 copy of a one-byte adjacency took it to 13.2
    import tracemalloc

    centrality._relabel(net20k)  # the first call imports csgraph
    tracemalloc.start()
    try:
        centrality._relabel(net20k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.5 * len(net20k.indices), peak / len(net20k.indices)


def test_st_star_hub_full():
    assert bk.normalized_st(STAR3) == pytest.approx([1.0, 0.0, 0.0, 0.0])


def test_st_wheel_hub():
    assert bk.normalized_st(WHEEL4)[0] == pytest.approx(1.0 / 3.0)


def test_st_degree_one_is_zero():
    assert bk.normalized_st(PATH3).tolist() == [0.0, 1.0, 0.0]


def test_st_range():
    rng = np.random.default_rng(12)
    _, adj = oracles.geometric_graph(60, 0.3, rng)
    st = bk.normalized_st(adj)
    assert np.all(st >= 0.0) and np.all(st <= 1.0)


# -- identities and oracle agreement -----------------------------------------


def test_oracle_agreement_small_battery():
    for seed in range(30):
        adj = oracles.random_graph(seed)
        o_stress, o_betw, o_rstr = oracles.brute_path_measures(adj, deltas=(1, 2))
        assert np.array_equal(bk.stress_centrality(adj), o_stress), seed
        assert bk.betweenness_centrality(adj) == pytest.approx(o_betw, abs=1e-9), seed
        for d in (1, 2):
            assert np.array_equal(bk.restricted_stress(adj, d), o_rstr[d]), seed
        assert np.array_equal(bk.stress1(adj), oracles.brute_stress1(adj)), seed
        for k in (1, 2, 3):
            assert np.array_equal(bk.khop_size(adj, k), oracles.brute_khop(adj, k)), seed


def test_disconnected_graph():
    # two components; cross pairs contribute nothing
    adj = [[1], [0, 2], [1], [4], [3]]
    assert bk.stress_centrality(adj).tolist() == [0, 2, 0, 0, 0]
    assert bk.khop_size(adj, 5).tolist() == [2, 2, 2, 1, 1]


@settings(max_examples=20, deadline=None)
@given(st_.integers(min_value=0, max_value=10_000))
def test_identities_random(seed):
    adj = oracles.random_graph(seed)
    degs = np.array([len(a) for a in adj])
    s1 = bk.stress1(adj)
    # every non-adjacent neighbour pair is one 2-hop geodesic through v,
    # counted twice when pairs are ordered
    assert np.array_equal(bk.restricted_stress(adj, 1), 2 * s1)
    # complement identity against the closed-neighbourhood edge count
    pairs = degs * (degs - 1) // 2
    closed = np.array(
        [sum(1 for a in adj[v] for b in adj[v] if a < b and b in adj[a]) for v in range(len(adj))]
    )
    assert np.array_equal(s1 + closed, pairs)
    # betweenness never exceeds stress
    assert np.all(bk.betweenness_centrality(adj) <= bk.stress_centrality(adj) + 1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(77)
    _, adj = oracles.geometric_graph(30, 0.4, rng)
    perm = rng.permutation(30)
    padj = [[] for _ in range(30)]
    for v, nb in enumerate(adj):
        padj[perm[v]] = sorted(int(perm[w]) for w in nb)
    for fn in (bk.stress_centrality, bk.stress1):
        base = fn(adj)
        assert np.array_equal(fn(padj)[perm], base)


def _renamed(net, perm):
    """``net`` with node v renamed perm[v]."""
    adj = [[] for _ in range(net.n)]
    for v in range(net.n):
        adj[perm[v]] = sorted(int(perm[w]) for w in net.neighbors(v))
    pos = np.empty_like(net.positions)
    pos[perm] = net.positions
    return bk.SensorNetwork(pos, net.radius, *centrality.as_csr(adj))


def test_relabelling_leaves_path_measures_unchanged(monkeypatch):
    # the kernel runs in its own order and maps results back, so a
    # relabelled graph gives the relabelled results, over several
    # components and isolated nodes; betweenness sums its floats in the
    # kernel's order, so it may move in the last bits
    adj = _pieces() + [[], []]
    n = len(adj)
    perm = np.random.default_rng(8).permutation(n)
    padj = [[] for _ in range(n)]
    for v, nb in enumerate(adj):
        padj[perm[v]] = sorted(int(perm[w]) for w in nb)
    order = centrality._relabel(padj)[0]
    assert not np.array_equal(order, np.arange(n))
    # a network, whose kernel order follows its positions, not its ids
    net = bk.build_network(bk.square_with_hole(5.0, 1.5), 90, 0.8, seed=3)
    npos = np.random.default_rng(9).permutation(net.n)
    pnet = _renamed(net, npos)
    lists = [list(pnet.neighbors(v)) for v in range(pnet.n)]
    kernel, indptr, indices, first, _ = centrality._relabel(pnet)
    assert not np.array_equal(kernel, centrality._relabel(lists)[0])
    # the relabelled CSR is P A P^T, rows sorted
    netgen._check_csr(pnet.n, indptr, indices)
    a = centrality._adjacency(pnet.indptr, pnet.indices).toarray()
    assert np.array_equal(centrality._adjacency(indptr, indices).toarray(), a[kernel][:, kernel])
    x, y = pnet.positions.T
    cell = np.argsort(np.lexsort((x, np.floor(y / pnet.radius))))  # each node's place
    for lo in np.unique(first):  # within a component, nodes go in cell order
        ids = kernel[lo:][first[lo:] == lo]
        assert np.all(np.diff(cell[ids]) > 0)

    measures = {"stress": bk.stress_centrality, "betweenness": bk.betweenness_centrality,
                **{f"rstress{d}": partial(bk.restricted_stress, delta=d) for d in (1, 2)}}
    for name, fn in measures.items():
        for graph, renamed, ids in ((adj, padj, perm), (net, pnet, npos)):
            base = fn(graph)
            if name == "betweenness":
                np.testing.assert_allclose(fn(renamed)[ids], base, rtol=1e-12)
            else:
                assert np.array_equal(fn(renamed)[ids], base), name

    # several blocks, so the workers share them; the sums stay bitwise equal
    monkeypatch.setattr(centrality, "_ENTRY_BUDGET", 2 * n)
    runs = {}
    for w in (1, 2, 4):
        monkeypatch.setenv(centrality.WORKERS_ENV, str(w))
        runs[w] = {(name, g): fn(graph) for name, fn in measures.items()
                   for g, graph in (("lists", padj), ("network", pnet))}
    for w in (2, 4):
        for name, values in runs[w].items():
            assert values.tobytes() == runs[1][name].tobytes(), (w, name)


# -- exact path counts -------------------------------------------------------


@pytest.mark.parametrize("width, layers, sink", [
    (4, 33, False),  # sigma to the last layer is 4**32 = 2**64, 0 in int64
    (16, 16, True),  # sigma to the sink sums 16 counts of 2**60 to 2**64
    (2, 61, False),  # every count and term fits, stress peaks at 2**63.6
])
def test_path_counts_never_wrap(width, layers, sink):
    adj = oracles.layered_graph(width, layers, sink)
    with pytest.raises(bk.NumericalError):
        bk.stress_centrality(adj)
    with pytest.raises(bk.NumericalError):
        bk.restricted_stress(adj, layers + 1)
    _, betw, _ = oracles.exact_brandes(adj)
    got = bk.betweenness_centrality(adj)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, betw, rtol=1e-9)


def test_betweenness_counts_past_float64_raise():
    # float64 path counts round, but 16**259 is past the float64 range
    with pytest.raises(bk.NumericalError):
        bk.betweenness_centrality(oracles.layered_graph(16, 260))


@pytest.mark.parametrize("width, layers", [(8, 20), (4, 31)])
def test_path_counts_just_under_int64(width, layers):
    # 4 x 31 peaks at stress 2**62.6; its path counts trip the cheap bound
    # max(x) * n < 2**63, so the exact checks run, and pass
    adj = oracles.layered_graph(width, layers)
    stress, betw, rstr = oracles.exact_brandes(adj, deltas=(1, 2))
    assert np.array_equal(bk.stress_centrality(adj), np.array(stress, dtype=np.int64))
    assert np.array_equal(bk.restricted_stress(adj, layers), np.array(stress, dtype=np.int64))
    for d in (1, 2):
        assert np.array_equal(bk.restricted_stress(adj, d), np.array(rstr[d], dtype=np.int64))
    np.testing.assert_allclose(bk.betweenness_centrality(adj), betw, rtol=1e-9)


def test_exact_checks_agree_with_oracle(monkeypatch):
    # with the cheap bound at 1, every integer sum and product takes the
    # exact check, which must pass and change nothing
    monkeypatch.setattr(centrality, "_INT64_END", 1)
    for seed in range(6):
        adj = oracles.random_graph(seed)
        o_stress, _, o_rstr = oracles.brute_path_measures(adj, deltas=(1, 2))
        assert np.array_equal(bk.stress_centrality(adj), o_stress), seed
        for d in (1, 2):
            assert np.array_equal(bk.restricted_stress(adj, d), o_rstr[d]), seed


def _pieces():
    """Two geometric pieces with an isolated node between them."""
    rng = np.random.default_rng(21)
    _, left = oracles.geometric_graph(30, 0.35, rng)
    _, right = oracles.geometric_graph(20, 0.4, rng)
    return left + [[]] + [[v + 31 for v in nb] for nb in right]


def test_kernel_across_blocks(monkeypatch):
    # a budget that splits the sources into more blocks than three workers
    # keep in flight; every block keeps its rows times width within the
    # budget unless it holds a single source
    adj = _pieces()
    budget = 3 * len(adj)
    monkeypatch.setattr(centrality, "_ENTRY_BUDGET", budget)
    blocks = []
    levels = centrality._levels

    def counted(a, level, span, depth):
        rows = len(level[0]) - 1  # level 0 is an (indptr, indices, data) triple
        blocks.append(rows)
        assert span.rows == rows and span.len == rows * span.width
        assert span.len <= budget or rows == 1
        return levels(a, level, span, depth)

    monkeypatch.setattr(centrality, "_levels", counted)

    def run(measure, *args):
        blocks.clear()
        values = measure(adj, *args)
        # the isolated node is no source
        assert len(blocks) >= 4 and sum(blocks) == len(adj) - 1
        return values

    # delta = 1 runs no kernel (test_delta_one_is_twice_stress1)
    o_stress, o_betw, o_rstr = oracles.brute_path_measures(adj, deltas=(2, 3))
    runs = {}
    for w in (1, 3):
        monkeypatch.setenv(centrality.WORKERS_ENV, str(w))
        runs[w] = {"stress": run(bk.stress_centrality),
                   "betweenness": run(bk.betweenness_centrality),
                   **{f"rstress{d}": run(bk.restricted_stress, d) for d in (2, 3)}}
    one = runs[1]
    assert np.array_equal(one["stress"], o_stress)
    np.testing.assert_allclose(one["betweenness"], o_betw, rtol=1e-9, atol=1e-9)
    for d in (2, 3):
        assert np.array_equal(one[f"rstress{d}"], o_rstr[d])
    # the blocks and their order of summation do not depend on the workers
    for name, values in runs[3].items():
        assert np.array_equal(values, one[name]), name


def _exact(adj, deltas=(1, 2)):
    """stress, betweenness and {delta: restricted stress} by the Brandes
    oracle, the counts as int64."""
    stress, betw, rstr = oracles.exact_brandes(adj, deltas=deltas)
    return (np.array(stress, dtype=np.int64), np.array(betw),
            {d: np.array(r, dtype=np.int64) for d, r in rstr.items()})


def _assert_exact(adj, want, label=None):
    stress, betw, rstr = want
    assert np.array_equal(bk.stress_centrality(adj), stress), label
    np.testing.assert_allclose(bk.betweenness_centrality(adj), betw, rtol=1e-9, atol=1e-12,
                               err_msg=str(label))
    for d, want_d in rstr.items():
        assert np.array_equal(bk.restricted_stress(adj, d), want_d), (label, d)


def test_kernel_runs_no_symbolic_pass(monkeypatch):
    # the products run scipy's numeric SpGEMM pass alone, never the symbolic
    # csr_matmat_maxnnz that `x @ a` runs first
    from scipy.sparse import _compressed

    def symbolic(*args):
        raise AssertionError("symbolic SpGEMM pass called")

    monkeypatch.setattr(_compressed, "csr_matmat_maxnnz", symbolic)
    a = centrality._adjacency(*centrality.as_csr(PATH4))
    with pytest.raises(AssertionError, match="symbolic"):
        a @ a  # the patch reaches the pass that `x @ a` runs
    # stress1, and so delta = 1, runs `rows @ a`; the kernel runs from delta = 2
    graphs = [oracles.random_graph(seed) for seed in range(30)]
    wants = [_exact(adj, (2, 3)) for adj in graphs]
    for w in (1, 2):
        monkeypatch.setenv(centrality.WORKERS_ENV, str(w))
        for seed, (adj, want) in enumerate(zip(graphs, wants)):
            _assert_exact(adj, want, (w, seed))


def _extremes():
    """K_12, a star with 8 leaves, a 7-node path and 3 isolated nodes: a
    source of K_12 or a leaf reaches its whole component in one product row."""
    edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    edges += [(12, leaf) for leaf in range(13, 21)]
    edges += [(v, v + 1) for v in range(21, 27)]
    adj = [[] for _ in range(31)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


@pytest.mark.parametrize("budget, rows", [
    (1, {1}),             # one source a block
    (5, {1}),             # components larger than the budget, one source a block
    (1 << 20, {28}),      # one block; the isolated nodes are no sources
    (100, {1, 8, 11}),    # 8 K_12 sources, 4 K_12 and 4 star sources,
                          # 5 star and 6 path sources, 1 path source
])
def test_product_buffers_hold_the_fullest_rows(monkeypatch, budget, rows):
    adj = _extremes()
    want = _exact(adj)
    monkeypatch.setattr(centrality, "_ENTRY_BUDGET", budget)
    fills, widths = [], set()
    matmat = centrality._matmat
    todense = centrality.csr_todense

    def recorded(x, a, out):
        y = matmat(x, a, out)
        # indptr's end, not the sliced length, shows an overrun
        fills.append((len(out[0]) - 1, int(y[0][-1]), len(out[1])))
        return y

    def scattered(rows, width, indptr, indices, data, dense):
        # a product with the adjacency relabelled within each component
        # holds each node of row r's component once, below the block's
        # largest component, so the scatter stays in row r's run of slots
        r = np.repeat(np.arange(rows), np.diff(indptr))
        assert len(dense) == rows * width and (rows * width <= budget or rows == 1)
        assert np.all((indices >= 0) & (indices < width)), width
        assert indptr[-1] == len(indices) == len(data) and len(np.unique(r * width + indices)) == len(r)
        widths.add((rows, width))
        todense(rows, width, indptr, indices, data, dense)

    monkeypatch.setattr(centrality, "_matmat", recorded)
    monkeypatch.setattr(centrality, "csr_todense", scattered)
    _assert_exact(adj, want)
    assert {r for r, _, _ in fills} == rows
    assert all(nnz <= length for _, nnz, length in fills)
    # K_12's blocks reach every node in one level, so they scatter nothing
    assert {r for r, _ in widths} <= rows
    if budget == 100:  # blocks over two components, as wide as the larger
        assert {(8, 12), (11, 9)} <= widths
    if budget < 12:  # a K_12 source fills its buffers
        assert any(nnz == length == 12 for _, nnz, length in fills)
    # the halves of the exact int64 check go through the same buffers
    monkeypatch.setattr(centrality, "_INT64_END", 1)
    assert np.array_equal(bk.stress_centrality(adj), want[0])
    for d in (1, 2):
        assert np.array_equal(bk.restricted_stress(adj, d), want[2][d]), d


@pytest.mark.parametrize("budget", [1, 1 << 20])
def test_tiny_components_fit_the_buffers(monkeypatch, budget):
    # a component of at most 2 nodes runs no source, so its products have
    # no rows, and a graph of only such components runs none
    monkeypatch.setattr(centrality, "_ENTRY_BUDGET", budget)
    fills = []
    matmat = centrality._matmat

    def recorded(x, a, out):
        y = matmat(x, a, out)
        fills.append((len(out[0]) - 1, int(y[0][-1]), len(out[1])))
        return y

    monkeypatch.setattr(centrality, "_matmat", recorded)
    for adj in ([[]], [[], []], [[1], [0]], _extremes()):
        fills.clear()
        _assert_exact(adj, _exact(adj, (2, 3)), adj if len(adj) < 3 else "extremes")
        assert all(nnz <= length for _, nnz, length in fills), fills
        assert bool(fills) == any(rows for rows, _, _ in fills) == (len(adj) > 2), fills


def _strips(graph):
    """boundary_strips with every node labelled boundary."""
    n = graph.shape[0] if sp.issparse(graph) else len(graph)
    return bk.boundary_strips(graph, np.ones(n, dtype=bool))


@pytest.mark.parametrize("adj, match", [
    ([[1], []], "both of its ends"),
    ([[1, 2], [0], [1]], "both of its ends"),
    ([[1, 1], [0, 0]], "twice"),
    ([[2], [0]], "outside"),
    ([[-1]], "outside"),
    ([[1.5], [0]], "integers"),  # once read as id 1
    ([[1.0], [0.0]], "integers"),
    ([[True], [False]], "integers"),
    # once read through its indptr, unchecked, one-way edge and all
    (sp.csr_array(np.array([[0, 1], [0, 0]])), "not a sparse array"),
    ([np.array([2**63], np.uint64), [0]], "outside"),  # past int64, wraps negative
    ([np.array([1], np.uint64), [False]], "integers"),
    ([np.array([1], np.uint64), [0.0]], "integers"),
    ([[0]], "self-loop at node 0"),
    ([[1], [0, 1, 2], [1]], "self-loop at node 1"),  # symmetric, but not simple
])
def test_malformed_adjacency_lists_rejected(adj, match):
    # every public function that takes a graph
    for measure in (centrality.as_csr, bk.stress_centrality, bk.betweenness_centrality,
                    partial(bk.restricted_stress, delta=1), partial(bk.khop_size, k=1),
                    bk.stress1, bk.normalized_st, bk.run_protocol, _strips,
                    partial(bk.compute, measure="rstress", delta=1)):
        with pytest.raises(ValueError, match=match):
            measure(adj)


def test_mixed_integer_rows_accepted():
    # numpy promotes uint64 with signed rows to float64; as_csr must not
    adj = [np.array([1, 2], np.uint64), np.array([0], np.int8), [0]]
    indptr, indices = centrality.as_csr(adj)
    assert indptr.tolist() == [0, 2, 3, 4] and indices.tolist() == [1, 2, 0, 0]
    assert indptr.dtype == indices.dtype == np.int32
    assert bk.stress1([np.array([1], np.uint64), [0]]).tolist() == [0, 0]


def test_one_way_network_rejected():
    # a network built by hand is checked for symmetry by its constructor,
    # so no function that takes it sees a one-way edge
    for n, indptr, indices in ((2, [0, 1, 1], [1]), (3, [0, 2, 2, 2], [1, 2])):
        with pytest.raises(ValueError, match="both of its ends"):
            bk.SensorNetwork(np.zeros((n, 2)), 1.0, indptr, indices)


def test_huge_coordinates_order_quietly():
    # the kernel's cell key y / radius overflows to inf here, which must not
    # warn, and a network's results equal those of its adjacency lists
    awkward = [0.1, 1e-300, 5e-324, 123456789.123, 1e16, 0.30000000000000004,
               -0.0, -2.5e-17, 1.7976931348623157e308, 3.0]
    pos = np.array([awkward, awkward[::-1]]).T.copy()
    path = [[w for w in (v - 1, v + 1) if 0 <= w < len(pos)] for v in range(len(pos))]
    net = bk.SensorNetwork(pos, 0.1, *centrality.as_csr(path))
    assert np.array_equal(bk.stress_centrality(net), bk.stress_centrality(path))
    assert np.array_equal(bk.restricted_stress(net, 2), bk.restricted_stress(path, 2))
    np.testing.assert_allclose(bk.betweenness_centrality(net), bk.betweenness_centrality(path),
                               rtol=1e-12)


@pytest.mark.parametrize("values", [
    [2**62, 2**62 - 1],                # 2**63 - 1: the high halves alone
    [2**62, 2**62 - 1, 1],             # 2**63 only once the low halves carry
    [2**63 - 1, 0],
    [2**63 - 1, 2**32 - 1],
    [2**62 - 1, 2**62 - 1, 1],         # low halves carry 1: 2**63 - 1
    [2**62 - 1, 2**62 - 1, 2**32 + 1],  # and here 2**63 + 2**32 - 1
])
def test_product_split_counts_low_half_carries(values):
    # leaf 1 of a star with hub 0 holds counts on leaves 1..k, so the
    # product's one entry, at the hub, sums them: the exact int64 check
    # must raise just when that Python-int sum reaches 2**63
    star = [[1, 2, 3], [0], [0], [0]]
    a = centrality._adjacency(*centrality.as_csr(star), np.int64)
    # one row, for a source whose component holds the 4 ids from 0, so the
    # adjacency relabelled within components is the adjacency itself
    span = centrality._Span(a, np.array([0]), np.array([4]))
    k = len(values)
    x = (np.array([0, k], dtype=a.indptr.dtype), np.arange(1, k + 1, dtype=a.indices.dtype),
         np.array(values, dtype=np.int64))
    if sum(values) >= 2**63:
        with pytest.raises(bk.NumericalError):
            centrality._product(x, a, span)
    else:
        _, nodes, data = centrality._product(x, a, span)
        assert nodes.tolist() == [0] and data.tolist() == [sum(values)]


def test_khop_across_blocks(monkeypatch):
    adj = _pieces()
    budget = 2 * len(adj)
    monkeypatch.setattr(centrality, "_ENTRY_BUDGET", budget)
    split = centrality._blocks
    seen = []

    def recorded(work, b):
        blocks = split(work, b)
        seen.append(blocks)
        return blocks

    monkeypatch.setattr(centrality, "_blocks", recorded)
    for k in (1, 2, 5):
        seen.clear()
        assert np.array_equal(bk.khop_size(adj, k), oracles.brute_khop(adj, k)), k
        assert len(seen[-1]) >= 4, k


def test_khop_maps_a_network_back_to_its_ids(monkeypatch):
    # a network runs in its position order, whose components interleave in
    # its own ids, with isolated nodes; the counts map back to those ids
    net = bk.build_network(bk.square_with_hole(10.0, 2.0), 150, 0.9, seed=4)
    adj = [net.neighbors(v).tolist() for v in range(net.n)]
    perm, _, _, first, size = centrality._relabel(net)
    assert not np.array_equal(perm, centrality._relabel(adj)[0])
    assert len(np.unique(first[size > 2])) >= 3 and np.count_nonzero(net.degrees == 0) >= 2
    monkeypatch.setattr(centrality, "_ENTRY_BUDGET", net.n // 2)
    split = centrality._blocks
    seen = []

    def recorded(work, b):
        blocks = split(work, b)
        seen.append(blocks)
        return blocks

    monkeypatch.setattr(centrality, "_blocks", recorded)
    for k in (1, 2, 5):
        seen.clear()
        got = bk.khop_size(net, k)
        assert len(seen[-1]) >= 4, k
        assert np.array_equal(got, bk.khop_size(adj, k)), k
        assert np.array_equal(got, oracles.brute_khop(adj, k)), k


def test_delta_one_is_twice_stress1(monkeypatch):
    # each ordered pair of neighbours that are not linked is one shortest
    # path, through the node: delta = 1 is 2 * stress1, and runs no kernel
    def no_kernel(*args):
        raise AssertionError("delta = 1 ran the path kernel")

    reg = bk.square_with_hole(6.0, 2.0)
    cases = {"kept": bk.build_network(reg, 120, 1.0, seed=8),
             "fresh": bk.build_network(reg, 120, 1.0, seed=9), "lists": _interleaved()}
    bk.stress1(cases["kept"])
    lists = {name: g if isinstance(g, list) else [g.neighbors(v).tolist() for v in range(g.n)]
             for name, g in cases.items()}
    wants = {name: np.array(oracles.exact_brandes(adj, deltas=(1,))[2][1], dtype=np.int64)
             for name, adj in lists.items()}
    kept = cases["kept"]._kept_stress1
    before = kept.copy()
    monkeypatch.setattr(centrality, "_run_sources", no_kernel)
    for name, graph in cases.items():
        got = bk.restricted_stress(graph, 1, workers=1)
        assert got.dtype == np.int64 and got.flags.writeable, name
        assert np.array_equal(got, wants[name]), name
        assert np.array_equal(got, 2 * bk.stress1(lists[name])), name
        got[:] = -1  # the result is the caller's: the kept count stays
    assert cases["kept"]._kept_stress1 is kept and not kept.flags.writeable
    assert np.array_equal(kept, before)
    assert cases["fresh"]._kept_stress1 is not None  # counted once, and kept
    assert bk.compute(cases["lists"], "rstress", delta=1).values.tolist() == wants["lists"].tolist()
    for delta in (True, 1.5, 0):
        with pytest.raises(ValueError, match="integer >= 1"):
            bk.restricted_stress(cases["kept"], delta)
    with pytest.raises(ValueError, match="workers"):
        bk.restricted_stress(cases["kept"], 1, workers=0)
    monkeypatch.setenv(centrality.WORKERS_ENV, "0")
    with pytest.raises(ValueError, match=centrality.WORKERS_ENV):
        bk.restricted_stress(PATH4, 1)


def test_delta_one_runs_no_kernel_and_refuses_loops(monkeypatch):
    # every graph that a measure accepts is simple, so delta = 1 is always
    # 2 * stress1: no kernel, and no adjacency beyond the one stress1 counts on
    def no_kernel(*args):
        raise AssertionError("delta = 1 ran the path kernel")

    plain = _extremes()
    graphs = [[[]], [[], []], [[1], [0]], PATH4, CYCLE5, plain, _interleaved(),
              *(oracles.random_graph(seed) for seed in range(10))]
    wants = [np.array(oracles.exact_brandes(adj, deltas=(1,))[2][1], dtype=np.int64)
             for adj in graphs]
    net = bk.build_network(bk.square_with_hole(6.0, 2.0), 120, 1.0, seed=8)
    bk.stress1(net)
    adjacency = centrality._adjacency
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return adjacency(*args, **kwargs)

    monkeypatch.setattr(centrality, "_run_sources", no_kernel)
    monkeypatch.setattr(centrality, "_adjacency", counted)
    for adj, want in zip(graphs, wants):
        built.clear()
        assert np.array_equal(bk.restricted_stress(adj, 1), want), adj
        assert len(built) == 1, adj  # stress1's own
    built.clear()
    assert np.array_equal(bk.restricted_stress(net, 1), 2 * net._kept_stress1)
    assert not built  # the kept count
    # a loop is refused, as every measure refuses it, before any count
    looped = [sorted(nb + [v]) if v in (0, 13, 20, 21, 28) else nb for v, nb in enumerate(plain)]
    with pytest.raises(ValueError, match="self-loop at node 0"):
        bk.restricted_stress(looped, 1)
    assert not built


@settings(max_examples=50, deadline=None)
@given(st_.lists(st_.integers(min_value=0, max_value=40), max_size=60),
       st_.integers(min_value=1, max_value=50))
def test_blocks_cover_within_budget(work, budget):
    blocks = centrality._blocks(np.array(work, dtype=np.int64), budget)
    edges = [0] + [hi for _, hi in blocks]
    assert blocks == list(zip(edges[:-1], edges[1:])) and edges[-1] == len(work)
    for lo, hi in blocks:
        assert hi - lo == 1 or (hi > lo and sum(work[lo:hi]) <= budget)
        # greedy: the next index would not have fit
        assert hi == len(work) or sum(work[lo:hi + 1]) > budget


def test_isolated_nodes_stay_small():
    # isolated nodes are no sources: the input, the output and the per-node
    # arrays take a few MB, where n slots per source would take gigabytes
    import tracemalloc

    n = 200_000
    adj = [[] for _ in range(n)]
    bk.stress_centrality([[]])  # the first call imports csgraph
    for measure, args in ((bk.stress_centrality, ()), (bk.betweenness_centrality, ()),
                          (bk.restricted_stress, (2,))):
        tracemalloc.start()
        try:
            values = measure(adj, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == n and not values.any()
        assert peak < 24 * 2**20, (measure.__name__, peak)


def test_disjoint_edges_run_no_sources(monkeypatch):
    # a component of at most 2 nodes has no interior node, so 100k disjoint
    # edges run no source, and take no more memory than isolated nodes
    import tracemalloc

    n = 200_000
    net = bk.SensorNetwork(np.zeros((n, 2)), 1.0, np.arange(n + 1), np.arange(n) ^ 1)
    rows = []
    levels = centrality._levels

    def counted(a, level, span, depth):
        rows.append(span.rows)
        return levels(a, level, span, depth)

    monkeypatch.setattr(centrality, "_levels", counted)
    bk.stress_centrality([[1], [0, 2], [1]])  # the first call imports csgraph
    for measure, args in ((bk.stress_centrality, ()), (bk.betweenness_centrality, ()),
                          (bk.restricted_stress, (1,)), (bk.restricted_stress, (2,))):
        rows.clear()
        tracemalloc.start()
        try:
            values = measure(net, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == n and not values.any()
        assert rows == [], (measure.__name__, rows)  # no block runs
        assert peak < 24 * 2**20, (measure.__name__, peak)


def test_restricted_stress_at_20k_within_cpu_budget():
    # 20k nodes at degree 10 run about 10,000 blocks of two sources; each
    # block adds its sums into a contiguous slice of the total, and the total
    # maps to the caller's ids once, which took 1.5 to 2.2 s of CPU at
    # delta = 1 on a 2-core Xeon VM; a scatter to the caller's ids on every
    # block took 7.1 to 8.7 s there.  restricted_stress(net, 1) is 2 * stress1
    # and runs no kernel, so the kernel is called here as it would at delta = 1
    reg = bk.square_with_hole(10.0, 1.0)
    net = bk.build_network(reg, 20_000, bk.radius_for_degree(bk.area(reg), 20_000, 10.0), seed=5)
    bk.stress_centrality(PATH3)  # the first call imports csgraph
    sums = partial(centrality._path_count_sums, delta=1)
    t = time.process_time()
    halves = centrality._run_sources(net, np.int64, 2, sums, 1)
    assert time.process_time() - t < 4.0
    assert np.array_equal(centrality._join(halves), bk.restricted_stress(net, 1))


def _interleaved():
    """A 4 x 5 grid on the odd ids 1..39 and a path on the even ids 0..38,
    whose components interleave in the caller's ids, then two triangles, a
    6-node path, an edge and an isolated node: 55 nodes."""
    edges = [(2 * i + 1, 2 * i + 3) for i in range(20) if i % 5 < 4]
    edges += [(2 * i + 1, 2 * i + 11) for i in range(15)]
    edges += [(v, v + 2) for v in range(0, 38, 2)]
    edges += [(40, 41), (41, 42), (40, 42), (43, 44), (44, 45), (43, 45)]
    edges += [(v, v + 1) for v in range(46, 51)] + [(52, 53)]
    adj = [[] for _ in range(55)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(nb) for nb in adj]


@pytest.mark.parametrize("budget", [1, 30, 120, 1 << 20])
def test_blocks_across_interleaved_components(monkeypatch, budget):
    # rows of one block belong to different components, each laid out from
    # its own first id, at the stride of the block's largest component
    adj = _interleaved()
    want = _exact(adj, (2, 3))  # delta = 1 runs no kernel
    monkeypatch.setattr(centrality, "_ENTRY_BUDGET", budget)
    shapes = []
    levels = centrality._levels

    def counted(a, level, span, depth):
        first = span.bounds[:-1] - span.starts
        shapes.append((span.rows, len(np.unique(first)), int(first[0])))
        assert span.len <= budget or span.rows == 1
        return levels(a, level, span, depth)

    monkeypatch.setattr(centrality, "_levels", counted)
    runs = {}
    for w in (1, 2, 4):
        monkeypatch.setenv(centrality.WORKERS_ENV, str(w))
        shapes.clear()
        runs[w] = [bk.stress_centrality(adj), bk.betweenness_centrality(adj),
                   *(bk.restricted_stress(adj, d) for d in (2, 3))]
        # the edge and the isolated node are no sources
        assert sum(rows for rows, _, _ in shapes) == 4 * 52
    stress, betw, rstr = want
    assert np.array_equal(runs[1][0], stress)
    np.testing.assert_allclose(runs[1][1], betw, rtol=1e-9, atol=1e-12)
    for i, d in enumerate((2, 3)):
        assert np.array_equal(runs[1][2 + i], rstr[d]), d
    if budget == 1:
        assert {rows for rows, _, _ in shapes} == {1}
    elif budget == 1 << 20:  # one block of every source
        assert set(shapes) == {(52, 5, 0)}
    else:  # some block spans two components, and some starts past id 0
        assert max(comps for _, comps, _ in shapes) >= 2
        assert max(lo for _, _, lo in shapes) > 0
    for w in (2, 4):
        for got, one in zip(runs[w], runs[1]):
            assert got.tobytes() == one.tobytes(), w


def test_lists_keep_their_order_within_components(monkeypatch):
    # adjacency lists have no positions, so the kernel keeps their order,
    # and still makes each component contiguous, larger components first
    from scipy.sparse import csgraph

    adj = _interleaved()
    want = _exact(adj)
    perm, indptr, indices, first, size = centrality._relabel(adj)
    a = centrality._adjacency(*centrality.as_csr(adj))
    _, label = csgraph.connected_components(a)
    label = label[perm]
    for v in range(len(adj)):
        assert set(label[first[v]:first[v] + size[v]]) == {label[v]}
        assert size[v] == np.count_nonzero(label == label[v])
        assert np.all(np.diff(perm[label == label[v]]) > 0)  # the given order
    assert np.all(np.diff(size) <= 0)  # larger components first
    # the relabelled CSR is P A P^T, rows sorted, in the graph's index dtype
    netgen._check_csr(len(adj), indptr, indices)
    assert indptr.dtype == indices.dtype == np.int32
    got = centrality._adjacency(indptr, indices)
    assert np.array_equal(got.toarray(), a.toarray()[perm][:, perm])
    for budget in (1, 30, 1 << 20):
        monkeypatch.setattr(centrality, "_ENTRY_BUDGET", budget)
        _assert_exact(adj, want, budget)


def test_huge_radius_stops_when_balls_stop_growing():
    from scipy.sparse import csgraph

    net = bk.build_network(bk.square_with_hole(8.0, 3.0), 400, 1.0, seed=11)
    # the walk bound and the balls saturate within the diameter, so these
    # return as fast as a full search
    assert np.array_equal(bk.restricted_stress(net, 10**9), bk.stress_centrality(net))
    _, label = csgraph.connected_components(centrality._adjacency(net.indptr, net.indices))
    assert np.array_equal(bk.khop_size(net, 10**9), np.bincount(label)[label] - 1)


# -- parallel execution ------------------------------------------------------


def test_parallel_matches_serial():
    rng = np.random.default_rng(5)
    _, adj = oracles.geometric_graph(120, 0.25, rng)
    s1 = bk.stress_centrality(adj, workers=1)
    s4 = bk.stress_centrality(adj, workers=4)
    assert np.array_equal(s1, s4)
    # integer sums are order independent; real sums get 1e-9 relative
    b1 = bk.betweenness_centrality(adj, workers=1)
    b4 = bk.betweenness_centrality(adj, workers=4)
    np.testing.assert_allclose(b4, b1, rtol=1e-9, atol=1e-12)


def test_restricted_stress_workers(monkeypatch):
    # several blocks, so that two workers share them; the sums stay bitwise equal
    rng = np.random.default_rng(5)
    _, adj = oracles.geometric_graph(120, 0.25, rng)
    monkeypatch.setattr(centrality, "_ENTRY_BUDGET", 200)
    one = bk.restricted_stress(adj, 2, workers=1)
    assert one.tobytes() == bk.restricted_stress(adj, 2, workers=2).tobytes()
    # compute hands its workers to every path measure
    counts = []
    ordered_map = centrality.ordered_map

    def counted(fn, items, workers):
        counts.append(workers)
        return ordered_map(fn, items, workers)

    monkeypatch.setattr(centrality, "ordered_map", counted)
    monkeypatch.setenv(centrality.WORKERS_ENV, "2")
    res = bk.compute(adj, "rstress", delta=2, workers=1)
    assert counts == [1] and res.values.tobytes() == one.tobytes()
    assert res.params == {"delta": 2}
    bk.compute(adj, "rstress", delta=2)
    assert counts == [1, 2]


def test_workers_env_override(monkeypatch):
    from boundarykit.centrality import WORKERS_ENV, resolve_workers
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers() == 3
    assert resolve_workers(2) == 2   # explicit argument wins
    monkeypatch.setenv(WORKERS_ENV, "0")
    with pytest.raises(ValueError):
        resolve_workers()


# -- compute dispatcher and CSV ----------------------------------------------


def test_compute_dispatch():
    res = bk.compute(PATH4, "stress")
    assert res.measure == "stress"
    assert res.values.tolist() == [0, 4, 4, 0]
    res = bk.compute(CYCLE5, "khop", k=2)
    assert res.values.tolist() == [4] * 5
    res = bk.compute(PATH4, "rstress", delta=1)
    assert res.values.tolist() == [0, 2, 2, 0]


def test_compute_requires_params():
    with pytest.raises(ValueError):
        bk.compute(PATH4, "khop")
    with pytest.raises(ValueError):
        bk.compute(PATH4, "rstress")
    with pytest.raises(ValueError):
        bk.compute(PATH4, "nope")


def test_result_csv_round_trip(tmp_path):
    res = bk.compute(WHEEL4, "st")
    p = tmp_path / "vals.csv"
    res.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("#")
    assert "measure=st" in lines[0]
    assert lines[1] == "node_id,value"
    got = [float(l.split(",")[1]) for l in lines[2:]]
    assert got == res.values.tolist()  # repr round-trips every float
    res = bk.compute(WHEEL4, "khop", k=1)
    res.to_csv(p)
    assert p.read_text().splitlines()[1:] == ["node_id,value"] + [
        f"{i},{int(v)}" for i, v in enumerate(res.values)]


def test_works_on_sensor_network():
    reg = bk.PolygonRegion([(0, 0), (3, 0), (3, 3), (0, 3)])
    net = bk.build_network(reg, 150, 0.7, seed=2)
    adj = [list(net.neighbors(v)) for v in range(net.n)]
    assert np.array_equal(bk.stress1(net), oracles.brute_stress1(adj))
    assert np.array_equal(bk.stress_centrality(net), bk.stress_centrality(adj))


def test_normalized_st_converts_lists_once(monkeypatch):
    net = bk.build_network(bk.square_with_hole(6.0, 2.0), 300, 1.0, seed=3)
    lists = [list(net.neighbors(v)) for v in range(net.n)]
    calls = []
    convert = centrality.as_csr

    def counted(graph):
        calls.append(graph)
        return convert(graph)

    monkeypatch.setattr(centrality, "as_csr", counted)
    got, want = bk.normalized_st(lists), bk.normalized_st(net)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert sum(g is lists for g in calls) == 1
