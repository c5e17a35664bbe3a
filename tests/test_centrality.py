"""Centrality indices against hand-worked cases and brute-force oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st_

import boundarykit as bk

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


def random_graph(seed):
    """Mixed family used by the identity checks."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 45))
    if rng.random() < 0.5:
        return oracles.er_graph(n, float(rng.uniform(0.05, 0.4)), rng)
    _, adj = oracles.geometric_graph(n, float(rng.uniform(0.2, 0.5)), rng)
    return adj


# -- khop --------------------------------------------------------------------


def test_khop_cycle5():
    assert bk.khop_size(CYCLE5, 1).tolist() == [2] * 5
    assert bk.khop_size(CYCLE5, 2).tolist() == [4] * 5


def test_khop_path3():
    assert bk.khop_size(PATH3, 1).tolist() == [1, 2, 1]


def test_khop_k_zero_rejected():
    with pytest.raises(ValueError):
        bk.khop_size(PATH3, 0)


def test_khop_saturates_at_component():
    assert bk.khop_size(PATH4, 10).tolist() == [3, 3, 3, 3]


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
        adj = random_graph(seed)
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
    adj = random_graph(seed)
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
    assert got == pytest.approx(res.values.tolist())


def test_works_on_sensor_network():
    reg = bk.PolygonRegion([(0, 0), (3, 0), (3, 3), (0, 3)])
    net = bk.build_network(reg, 150, 0.7, seed=2)
    adj = [list(net.neighbors(v)) for v in range(net.n)]
    assert np.array_equal(bk.stress1(net), oracles.brute_stress1(adj))
    assert np.array_equal(bk.stress_centrality(net), bk.stress_centrality(adj))
