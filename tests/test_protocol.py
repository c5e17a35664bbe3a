"""Distributed protocol simulation: phases, accounting, classification."""

import math
import tracemalloc
from collections import Counter

import dataclasses

import numpy as np
import pytest

import boundarykit as bk
from boundarykit import centrality, protocol

import oracles

TRIANGLE = [[1, 2], [0, 2], [0, 1]]
STAR3 = [[1, 2, 3], [0], [0], [0]]


def default_run(adj, **kw):
    return bk.run_protocol(adj, bk.ProtocolConfig(**kw))


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_trace(got, want):
    """Every field of two traces equal, arrays in dtype, shape and bytes."""
    for f in dataclasses.fields(protocol.ProtocolTrace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert same(a, b), f.name
        else:
            assert a == b, f.name


# -- local rule --------------------------------------------------------------


def test_classify_local():
    assert bk.classify_local(0, 0.0) is True
    assert bk.classify_local(5, 4.9) is False
    assert bk.classify_local(5, 5.0) is True    # ties declare
    with pytest.raises(ValueError):
        bk.classify_local(1, -0.1)


def test_theta_domain():
    sigma = bk.sigma_interior()
    for bad in (0.0, -0.2, sigma, 0.45, 1.0):
        with pytest.raises(ValueError):
            bk.ProtocolConfig(theta=bad)
    bk.ProtocolConfig(theta=0.41)  # just under the interior constant
    bk.ProtocolConfig(theta=1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        bk.ProtocolConfig(filter_min_boundary_neighbors=-1)
    with pytest.raises(ValueError):
        bk.ProtocolConfig(rule="two-hop")
    # counts and ids are integers, a bool not among them; these once passed
    # here and failed in run_protocol
    for field, value in (("root", True), ("root", 2.0), ("root", np.True_),
                         ("filter_min_boundary_neighbors", 1.5),
                         ("filter_min_boundary_neighbors", False)):
        with pytest.raises(ValueError, match=field):
            bk.ProtocolConfig(**{field: value})
    # numpy integers are integers
    config = bk.ProtocolConfig(root=np.int32(0), filter_min_boundary_neighbors=np.int16(1))
    assert all(type(v) is int for v in (config.root, config.filter_min_boundary_neighbors))
    labels, trace = bk.run_protocol(TRIANGLE, config)
    assert labels.all() and trace.components[0].root == 0 and trace.components[0].dhat == 2


def test_config_has_only_the_parameters_callers_set():
    # the histogram cap and the smoothing window are protocol constants
    assert [f.name for f in dataclasses.fields(bk.ProtocolConfig)] == [
        "theta", "rule", "filter_min_boundary_neighbors", "root"]
    assert (protocol._DEGREE_CAP, protocol._WINDOW) == (1024, 5)
    # the filter threshold alone sets the filter
    with pytest.raises(TypeError):
        bk.ProtocolConfig(filter_enabled=False)


# -- worked examples ---------------------------------------------------------


def test_triangle_all_boundary(monkeypatch):
    labels, trace = default_run(TRIANGLE)
    assert labels.tolist() == [True, True, True]
    comp = trace.components[0]
    assert comp.dhat == 2
    assert comp.threshold == pytest.approx(1.0 / 3.0)
    assert comp.histogram == {2: 3}
    # degree caps that leave the histogram shorter than the smoothing window
    for cap in (1, 2, 3):
        monkeypatch.setattr(protocol, "_DEGREE_CAP", cap)
        labels, trace = default_run(TRIANGLE)
        assert labels.tolist() == [True, True, True]
        comp = trace.components[0]
        assert comp.histogram == {2: 3}  # under cap 1, the overflow bucket
        assert comp.dhat == 2            # under cap 1, the bucket's lower bound


def test_degrees_mostly_over_cap(monkeypatch):
    # K13 (degree 12, one node 13) plus a pendant leaf: under cap 10 all but
    # the leaf land in the overflow bucket 11, which holds the mode
    adj = [[u for u in range(13) if u != v] for v in range(13)] + [[0]]
    adj[0].append(13)
    monkeypatch.setattr(protocol, "_DEGREE_CAP", 10)
    for window in (1, 5):
        monkeypatch.setattr(protocol, "_WINDOW", window)
        _, trace = default_run(adj)
        comp = trace.components[0]
        assert comp.histogram == {1: 1, 11: 13}
        assert comp.dhat == 11
        assert comp.threshold == pytest.approx(11 * 10 / 6)


# K5 less the edges 0-4, 1-4 and 2-3, plus the pendant edge 4-5
TIED = [[1, 2, 3], [0, 2, 3], [0, 1, 4], [0, 1, 4], [2, 3, 5], [4]]


def test_tied_windows_go_to_the_larger_raw_count():
    # the width-5 windows at buckets 1, 2 and 3 all hold the 6 nodes, and
    # bucket 3 holds 5 of them on its own
    _, trace = default_run(TIED)
    comp = trace.components[0]
    assert comp.histogram == {1: 1, 3: 5}
    assert comp.dhat == 3 and comp.threshold == 1.0


@pytest.mark.parametrize("window", [1, 3, 5, 7])
def test_smoothed_modes_match_brute_force(window):
    # every component's mode in one call, against trying every bucket:
    # runs of equal counts, whose windows tie, stray entries, the overflow
    # bucket, histograms shorter than the window (caps 1-3) and Poisson
    # degrees with a fifth of them thinned out
    rng = np.random.default_rng(window)
    for cap in (1, 2, 3, 8, 40, 1024):
        hists = []
        for i in range(60):
            start = int(rng.integers(0, cap + 2))
            run = range(start, min(start + int(rng.integers(1, 2 * window + 2)), cap + 2))
            hist = Counter(dict.fromkeys(run, int(rng.integers(1, 4))))
            hist.update(rng.integers(0, cap + 2, size=rng.integers(0, 4)).tolist())
            if i % 3 == 0:
                hist[cap + 1] += 1
            hists.append(hist)
        for degs in np.minimum(rng.poisson(20, size=(20, 300)), cap + 1):
            hists.append(Counter(degs[rng.random(300) >= 0.2].tolist()))
        width = cap + 2
        entries = [(c * width + b, h[b]) for c, h in enumerate(hists) for b in sorted(h)]
        keys, counts = np.array(entries, dtype=np.int64).T
        got = protocol._smoothed_modes(keys, counts, width, window)
        assert got.tolist() == [oracles.smoothed_mode(h, window, cap) for h in hists]


def test_phase4_one_pass_for_all_components(monkeypatch):
    # three isolated nodes, a pair and a triangle: one call finds every
    # dhat, and T is 0.0, never -0.0, where dhat <= 1
    calls = []
    modes = protocol._smoothed_modes

    def counted(*args):
        calls.append(args)
        return modes(*args)

    monkeypatch.setattr(protocol, "_smoothed_modes", counted)
    _, trace = default_run([[], [2], [1], [], [5, 6], [4, 6], [4, 5], []])
    assert len(calls) == 1
    assert [(c.dhat, c.threshold) for c in trace.components] == [
        (0, 0.0), (1, 0.0), (0, 0.0), (2, 1 / 3), (0, 0.0)]
    assert all(math.copysign(1.0, c.threshold) == 1.0 for c in trace.components)


def test_star_filter_off():
    labels, trace = default_run(STAR3, filter_min_boundary_neighbors=0)
    # leaves land at or below the threshold, the hub sticks out
    assert trace.declared.tolist() == [False, True, True, True]
    assert labels.tolist() == [False, True, True, True]


def test_star_filter_on_clears_everything():
    # each leaf has one neighbour, the undeclared hub, so the filter
    # removes all three declarations
    labels, trace = default_run(STAR3)
    assert labels.tolist() == [False, False, False, False]
    assert trace.declared.tolist() == [False, True, True, True]


def test_single_node_silent():
    labels, trace = default_run([[]])
    assert trace.total_messages == 0
    assert labels.tolist() == [False]           # filter removes the declaration
    labels2, _ = default_run([[]], filter_min_boundary_neighbors=0)
    assert labels2.tolist() == [True]


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        default_run([])


def test_import_leaves_out_csgraph(modules_after):
    # csgraph, whose import loads scipy.linalg, is not loaded by a run either:
    # phases 1-2 give the components and levels
    def csgraph_after(code):
        return {m for m in modules_after(code) if m.startswith("scipy.sparse.csgraph")}

    assert csgraph_after("import boundarykit.protocol") == set()
    assert csgraph_after("import boundarykit as bk\nbk.run_protocol([[1], [0]])") == set()


# -- tree properties ---------------------------------------------------------


def network(seed, n=400, side=6.0, r=0.8):
    reg = bk.PolygonRegion([(0, 0), (side, 0), (side, side), (0, side)])
    return bk.build_network(reg, n, r, seed=seed)


def test_election_and_tree():
    net = network(3)
    labels, trace = default_run(net)
    comp = trace.component_id
    for ci, info in enumerate(trace.components):
        members = np.nonzero(comp == ci)[0]
        # min-id election
        assert info.root == members.min()
        assert info.size == len(members)
        # root histogram is the exact degree histogram of the component
        degs = net.degrees[members]
        expect = {int(d): int(c) for d, c in zip(*np.unique(degs, return_counts=True))}
        assert info.histogram == expect
    # parent levels
    for v in range(net.n):
        p = trace.parent[v]
        if p < 0:
            assert v in [i.root for i in trace.components]
            assert trace.level[v] == 0
        else:
            assert trace.level[v] == trace.level[p] + 1
            assert comp[p] == comp[v]
    # walking up from any node terminates at its component root
    for v in range(0, net.n, 17):
        u, hops = v, 0
        while trace.parent[u] >= 0:
            u = int(trace.parent[u])
            hops += 1
            assert hops <= net.n
        assert u == trace.components[comp[v]].root


def test_multi_component():
    cases = [
        # two disjoint triangles
        ([[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]], [0, 0, 0, 1, 1, 1], [0, 3], 2, True),
        # two interleaved edges, {0, 2} and {1, 3}; the filter drops every
        # declaration, since no node has two declared neighbors
        ([[2], [3], [0], [1]], [0, 1, 0, 1], [0, 1], 1, False),
    ]
    for adj, component_id, roots, dhat, boundary in cases:
        labels, trace = default_run(adj)
        assert trace.multi_component
        assert trace.component_id.tolist() == component_id
        assert [c.root for c in trace.components] == roots
        assert all(c.dhat == dhat for c in trace.components)
        assert trace.declared.all()
        assert (labels == boundary).all()


def test_component_sizes_many_isolated_nodes():
    # 400 isolated nodes 2 apart on a line, then a cluster of 30 nodes
    rng = np.random.default_rng(8)
    lone = np.column_stack([2.0 * np.arange(400), np.zeros(400)])
    cluster = rng.uniform(0.0, 0.5, (30, 2)) + (400.0, 5.0)
    pos = np.concatenate([lone, cluster])
    net = bk.SensorNetwork(pos, 1.0, *bk.adjacency_from_positions(pos, 1.0))
    labels, trace = default_run(net)
    sizes = [c.size for c in trace.components]
    assert sizes == np.bincount(trace.component_id).tolist()
    assert len(sizes) == 401 and sizes[-1] == 30


def test_phase1_rounds_match_flooding_reference():
    # min-id flooding node by node: a node whose id estimate fell in the
    # last round sends it to every neighbor
    sparse = network(8, n=150, r=0.6)
    for net, root in ((network(3), None), (sparse, None), (sparse, 5)):
        adj = [net.neighbors(v).tolist() for v in range(net.n)]
        _, trace = default_run(net, root=root)
        comp = trace.component_id
        best = list(range(net.n))
        active = [root is None or comp[v] != comp[root] for v in range(net.n)]
        expect = []
        while any(active[v] and adj[v] for v in range(net.n)):
            senders = [v for v in range(net.n) if active[v] and adj[v]]
            expect.append(len(senders))
            new = best[:]
            for u in senders:
                for w in adj[u]:
                    new[w] = min(new[w], best[u])
            active = [new[v] < best[v] for v in range(net.n)]
            best = new
        assert [r.messages for r in trace.rounds if r.phase == 1] == expect
    assert trace.multi_component  # the sparse network has several components


def test_phase2_tree_matches_bfs_reference():
    # BFS node by node from each component's root: a level's nodes announce
    # in one round if any has a neighbor, roots with payload 1 and the rest
    # with payload 2; scanning the level in id order, a node's first
    # announcer, its smallest neighbor one level up, is its parent
    sparse = network(8, n=150, r=0.6)
    assert np.any(sparse.degrees == 0)
    for root in (None, 5):
        adj = [sparse.neighbors(v).tolist() for v in range(sparse.n)]
        _, trace = default_run(sparse, root=root)
        level = [-1] * sparse.n
        parent = [-1] * sparse.n
        frontier = sorted(c.root for c in trace.components)
        for v in frontier:
            level[v] = 0
        rounds = []
        while frontier:
            senders = [v for v in frontier if adj[v]]
            if senders:
                unit = 1 if level[frontier[0]] == 0 else 2
                rounds.append((len(senders), unit * len(senders)))
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if level[w] < 0:
                        level[w], parent[w] = level[v] + 1, v
                        nxt.append(w)
            frontier = sorted(nxt)
        assert trace.level.tolist() == level
        assert trace.parent.tolist() == parent
        assert [(r.messages, r.payload_units) for r in trace.rounds if r.phase == 2] == rounds
        # the tie rule decides: some node has several neighbors one level up
        assert any(sum(level[w] == level[v] - 1 for w in adj[v]) > 1 for v in range(sparse.n))
    assert trace.multi_component


def test_phase3_convergecast_matches_reference(monkeypatch):
    # degree histograms merged node by node up the trace's tree, degrees
    # above the cap in the overflow bucket cap + 1: a node sends once all its
    # children have, so the round of a node is its subtree height, and a
    # histogram of k buckets costs 2k units
    sparse = network(8, n=150, r=0.6)
    cap = 4
    monkeypatch.setattr(protocol, "_DEGREE_CAP", cap)
    for root in (None, 5):
        _, trace = default_run(sparse, root=root)
        parent = trace.parent.tolist()
        children = [[] for _ in range(sparse.n)]
        depth = [0] * sparse.n
        for v, p in enumerate(parent):
            if p >= 0:
                children[p].append(v)
            u = v
            while parent[u] >= 0:
                u = parent[u]
                depth[v] += 1
        hist = [None] * sparse.n
        height = [1] * sparse.n
        for v in sorted(range(sparse.n), key=depth.__getitem__, reverse=True):
            hist[v] = Counter({min(int(sparse.degrees[v]), cap + 1): 1})
            for c in children[v]:
                hist[v].update(hist[c])
                height[v] = max(height[v], height[c] + 1)
        rounds = {}
        for v in range(sparse.n):
            if parent[v] >= 0:
                m, units = rounds.get(height[v], (0, 0))
                rounds[height[v]] = (m + 1, units + 2 * len(hist[v]))
        assert ([(r.messages, r.payload_units) for r in trace.rounds if r.phase == 3]
                == [rounds[h] for h in sorted(rounds)])
        assert [c.histogram for c in trace.components] == [
            dict(hist[c.root]) for c in trace.components]
        assert any(cap + 1 in c.histogram for c in trace.components)
    assert trace.multi_component


def reference_run(graph, monkeypatch, **kw):
    """run_protocol with phases 1-3 as they ran before their rewrite."""
    with monkeypatch.context() as m:
        m.setattr(protocol, "_tree_phases", oracles.protocol_tree_phases)
        return default_run(graph, **kw)


def assert_matches_reference(graph, monkeypatch, **kw):
    labels, trace = default_run(graph, **kw)
    ref_labels, ref = reference_run(graph, monkeypatch, **kw)
    assert same(labels, ref_labels)
    assert_same_trace(trace, ref)
    return trace


@pytest.mark.parametrize("budget", [protocol._PUSH_BUDGET, 40])
@pytest.mark.parametrize("rule", protocol.RULES)
def test_tree_phases_match_reference(rule, budget, monkeypatch):
    # sparse unit-disk networks of several components and isolated nodes,
    # under the min-id election, with an explicit root outside the component
    # of node 0, and with a degree cap that fills the overflow bucket; the
    # small budget splits flooding rounds into many blocks
    monkeypatch.setattr(protocol, "_PUSH_BUDGET", budget)
    for seed in (8, 9, 10):
        net = network(seed, n=200, r=0.6)
        assert np.any(net.degrees == 0)
        trace = assert_matches_reference(net, monkeypatch, rule=rule)
        assert trace.multi_component
        comp = trace.component_id
        other = 1 + np.argmax(np.bincount(comp)[1:])  # the largest but node 0's
        root = int(np.flatnonzero(comp == other)[-1])
        assert np.count_nonzero(comp == other) > 1 and root != trace.components[other].root
        trace = assert_matches_reference(net, monkeypatch, rule=rule, root=root)
        assert trace.components[other].root == root
        with monkeypatch.context() as m:
            m.setattr(protocol, "_DEGREE_CAP", 3)
            trace = assert_matches_reference(net, monkeypatch, rule=rule, root=root)
        assert any(4 in c.histogram for c in trace.components)


def pairs_among_singles(seed, pairs=30, singles=40):
    """Adjacency lists of ``pairs`` 2-node components and ``singles``
    isolated nodes, their ids shuffled; returns (adj, isolated ids)."""
    ids = np.random.default_rng(seed).permutation(2 * pairs + singles)
    adj = [[] for _ in ids]
    for a, b in ids[:2 * pairs].reshape(pairs, 2).tolist():
        adj[a].append(b)
        adj[b].append(a)
    return adj, ids[2 * pairs:]


@pytest.mark.parametrize("rule", protocol.RULES)
def test_tree_phases_edge_cases(rule, monkeypatch):
    adj, isolated = pairs_among_singles(3)
    trace = assert_matches_reference(adj, monkeypatch, rule=rule)
    assert len(trace.components) == 70
    # an explicit root that is an isolated node, and one that is the larger
    # id of a pair, so that it replaces the pair's smallest id
    big = max(v for v, row in enumerate(adj) if row and row[0] < v)
    for root in (int(isolated[0]), big):
        trace = assert_matches_reference(adj, monkeypatch, rule=rule, root=root)
        assert trace.components[trace.component_id[root]].root == root
        assert trace.level[root] == 0 and trace.parent[root] == -1
    trace = assert_matches_reference([[] for _ in range(5)], monkeypatch, rule=rule, root=3)
    assert [c.root for c in trace.components] == [0, 1, 2, 3, 4]
    # every message, a sender's row, is a block of its own
    monkeypatch.setattr(protocol, "_PUSH_BUDGET", 1)
    net = network(8, n=200, r=0.6)
    assert_matches_reference(net, monkeypatch, rule=rule)
    assert_matches_reference(net, monkeypatch, rule=rule, root=int(np.argmax(net.degrees)))
    assert_matches_reference(adj, monkeypatch, rule=rule, root=big)


def path_graph(ids):
    adj = [[] for _ in ids]
    for a, b in zip(ids, ids[1:]):
        adj[a].append(int(b))
        adj[b].append(int(a))
    return [sorted(a) for a in adj]


def test_deep_trees_match_reference(monkeypatch):
    # a 3,000-node path with its ids in order (the minimum floods for n - 1
    # rounds, n^2 / 2 messages) and shuffled, and a thin corridor: hundreds
    # to thousands of rounds and BFS levels, each holding a few nodes
    corridor = bk.build_network(bk.PolygonRegion([(0, 0), (150, 0), (150, 0.5), (0, 0.5)]),
                                3000, 1.0, seed=17)
    shuffled = np.random.default_rng(3).permutation(3000)
    for graph, depth in ((path_graph(range(3000)), 2999), (path_graph(shuffled), 1500),
                         (corridor, 100)):
        trace = assert_matches_reference(graph, monkeypatch)
        assert trace.level.max() >= depth
        assert not trace.multi_component


def test_explicit_root():
    net = network(4)
    labels, trace = default_run(net, root=25)
    roots = [c.root for c in trace.components]
    assert 25 in roots
    # other components, if any, fall back to their min id
    comp_of_25 = trace.component_id[25]
    for ci, info in enumerate(trace.components):
        if ci != comp_of_25:
            members = np.nonzero(trace.component_id == ci)[0]
            assert info.root == members.min()


def test_explicit_root_out_of_range():
    with pytest.raises(ValueError):
        default_run(TRIANGLE, root=7)


# -- phase 5 equals the centralized index ------------------------------------


def test_stress1_matches_centralized():
    for seed in range(6):
        net = network(seed, n=250, r=0.9)
        labels, trace = default_run(net)
        assert np.array_equal(trace.stress1, bk.stress1(net))


def test_stress1_counted_once_per_network(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.shape[0])
        return kernel(a)

    kernel = centrality._stress1
    monkeypatch.setattr(centrality, "_stress1", counted)
    monkeypatch.setattr(protocol, "_stress1", counted)

    net = network(5, n=300)
    st = bk.normalized_st(net)
    labels, trace = default_run(net)
    s1 = bk.stress1(net)
    assert len(calls) == 1
    assert s1.dtype == np.int64 and not s1.flags.writeable
    with pytest.raises(ValueError):
        s1[0] = 0

    # run_protocol keeps nothing, so stress1 counts again
    calls.clear()
    fresh = network(5, n=300)
    labels_fresh, trace_fresh = default_run(fresh)
    assert np.array_equal(bk.stress1(fresh), s1)
    assert len(calls) == 2
    st_fresh = bk.normalized_st(fresh)

    # adjacency lists are counted on every call
    calls.clear()
    lists = [list(fresh.neighbors(v)) for v in range(fresh.n)]
    bk.stress1(lists)
    bk.stress1(lists)
    bk.normalized_st(lists)
    assert len(calls) == 3

    assert same(st, st_fresh) and same(labels, labels_fresh)
    assert_same_trace(trace, trace_fresh)


def test_adjacency_lists_run_as_their_network():
    # lists go through as_csr, and phase 5 counts stress1 on them, where the
    # network later reads the count that bk.stress1 keeps
    net = network(17, n=1500, side=8.0, r=0.8)
    lists = [net.neighbors(v).tolist() for v in range(net.n)]
    configs = [dict(rule=rule, filter_min_boundary_neighbors=k, root=root)
               for rule in protocol.RULES for k in (0, 2) for root in (None, 17)]
    for keeps in (False, True):
        if keeps:
            bk.stress1(net)
            assert net._kept_stress1 is not None
        for kw in configs:
            labels, trace = default_run(net, **kw)
            want_labels, want = default_run(lists, **kw)
            assert same(labels, want_labels), kw
            assert_same_trace(trace, want)


def test_declarations_follow_local_rule():
    net = network(11)
    labels, trace = default_run(net, filter_min_boundary_neighbors=0, rule="one-hop")
    for v in range(net.n):
        T = trace.components[trace.component_id[v]].threshold
        assert trace.declared[v] == bk.classify_local(int(trace.stress1[v]), T)
    assert np.array_equal(labels, trace.declared)


def test_core_rule_follows_trace():
    net = network(13, n=1500, side=8.0, r=1.0)
    labels, trace = default_run(net, filter_min_boundary_neighbors=0)
    n, degs, s1 = net.n, net.degrees, trace.stress1
    closed = [np.append(net.neighbors(v), v) for v in range(n)]
    st = bk.normalized_st(net)
    s_closed = np.array([s1[c].sum() for c in closed])
    seg = math.acos(0.25) - 0.25 * math.sqrt(1 - 0.25 ** 2)
    candidate = np.zeros(n, dtype=bool)
    low_mean = np.zeros(n, dtype=bool)
    low_rank = np.zeros(n, dtype=bool)
    for v in range(n):
        info = trace.components[trace.component_id[v]]
        candidate[v] = bk.classify_local(int(s1[v]), info.threshold)
        low_mean[v] = st[closed[v]].mean() <= bk.neighborhood_st(1.0)
        rank = sum(s_closed[u] * (degs[v] + 1) < s_closed[v] * (degs[u] + 1)
                   for u in net.neighbors(v))
        low_rank[v] = rank <= info.dhat / math.pi * (math.pi / 2 - seg)
    core = candidate & low_mean & low_rank
    declared = np.array([core[c].sum() >= 3 or degs[v] <= 1
                         for v, c in enumerate(closed)])
    assert np.array_equal(trace.core, core)
    assert np.array_equal(trace.declared, declared)
    assert np.array_equal(labels, declared)
    # each condition rejects some candidates the others accept, and the
    # declarations differ from the candidates in both directions
    assert np.any(candidate & low_mean & ~low_rank)
    assert np.any(candidate & ~low_mean & low_rank)
    assert np.any(declared & ~candidate) and np.any(candidate & ~declared)


def test_filter_semantics():
    net = network(12)
    labels, trace = default_run(net, filter_min_boundary_neighbors=2)
    declared = trace.declared
    for v in range(net.n):
        nb = net.neighbors(v)
        support = int(declared[nb].sum())
        if declared[v]:
            assert labels[v] == (support >= 2)
        else:
            assert not labels[v]


# -- accounting --------------------------------------------------------------


def test_accounting_totals():
    net = network(21)
    labels, trace = default_run(net)
    acc = bk.message_accounting(trace)
    assert acc.total_messages == sum(r.messages for r in trace.rounds)
    assert acc.total_payload == sum(r.payload_units for r in trace.rounds)
    assert set(acc.per_phase) <= {1, 2, 3, 4, 5, 6}
    assert sum(m for m, _ in acc.per_phase.values()) == acc.total_messages
    assert acc.payload_per_node == pytest.approx(acc.total_payload / net.n)


def test_phase5_payload_is_degree_sum():
    net = network(22)
    labels, trace = default_run(net)
    acc = bk.message_accounting(trace)
    assert acc.per_phase[5][1] == int(net.degrees.sum())


def test_phase6_rounds_one_unit_per_sender():
    net = network(25)
    active = net.degrees > 0
    for k in (2, 0):
        _, trace = default_run(net, filter_min_boundary_neighbors=k)
        rounds = [r for r in trace.rounds if r.phase == 6]
        assert all(r.payload_units == r.messages for r in rounds)
        # stress1, neighborhood sum S, core flags, then the filter round if k > 0
        assert [r.messages for r in rounds] == [
            int(active.sum()), int(active.sum()), int((trace.core & active).sum()),
            int((trace.declared & active).sum())][:3 + (k > 0)]
        _, one_hop = default_run(net, rule="one-hop", filter_min_boundary_neighbors=k)
        assert [r.phase for r in one_hop.rounds].count(6) == (k > 0)
        assert one_hop.core is None


@pytest.mark.parametrize("rule", protocol.RULES)
def test_zero_threshold_sends_no_filter_round(rule):
    # a filter that needs 0 declared neighbours can drop nothing, so it is not run
    net = network(7)
    labels, trace = default_run(net, rule=rule, filter_min_boundary_neighbors=0)
    assert [r.phase for r in trace.rounds].count(6) == (3 if rule == "core" else 0)
    assert trace.filtered.dtype == bool and not trace.filtered.any()
    assert np.array_equal(labels, trace.declared) and np.array_equal(trace.labels, labels)
    # a threshold of 1 sends the same rounds, then the filter round
    _, filtered = default_run(net, rule=rule, filter_min_boundary_neighbors=1)
    assert filtered.rounds[:len(trace.rounds)] == trace.rounds
    assert len(filtered.rounds) == len(trace.rounds) + 1


def test_round_numbers_strictly_increase():
    net = network(23)
    _, trace = default_run(net)
    nos = [r.round_no for r in trace.rounds]
    assert nos == sorted(nos)
    assert len(set(nos)) == len(nos)
    phases = [r.phase for r in trace.rounds]
    assert phases == sorted(phases)  # phases run in order


def test_trace_deterministic():
    net = network(24)
    l1, t1 = default_run(net)
    l2, t2 = default_run(net)
    assert np.array_equal(l1, l2)
    assert t1.rounds == t2.rounds
    assert t1.components == t2.components


# -- ground truth and rates --------------------------------------------------


def test_classification_rates():
    truth = np.array([True, True, False, False])
    fn, fp = bk.classification_rates(np.array([True, False, True, False]), truth)
    assert fn == pytest.approx(0.5)
    assert fp == pytest.approx(0.5)
    fn, fp = bk.classification_rates(truth, truth)
    assert fn == 0.0 and fp == 0.0


def test_classification_rates_empty_classes():
    truth = np.array([False, False])
    fn, fp = bk.classification_rates(np.array([False, False]), truth)
    assert fn == 0.0 and fp == 0.0


# -- strips ------------------------------------------------------------------


def test_strips_empty():
    assert bk.boundary_strips(TRIANGLE, np.array([False] * 3)) == []


def test_strips_whole_component():
    strips = bk.boundary_strips(TRIANGLE, np.array([True] * 3))
    assert [sorted(s) for s in strips] == [[0, 1, 2]]


def test_strips_split_and_order():
    # labels on the path 1-0-(9)-5-3-4-(2)-8-7-(6); bracketed nodes unlabeled
    chain = [1, 0, 9, 5, 3, 4, 2, 8, 7, 6]
    adj = [[] for _ in chain]
    for a, b in zip(chain, chain[1:]):
        adj[a].append(b)
        adj[b].append(a)
    labels = ~np.isin(np.arange(10), [9, 2, 6])
    strips = bk.boundary_strips(adj, labels)
    # largest first, the tie of two 2-strips by smallest id, each strip sorted
    assert [s.tolist() for s in strips] == [[3, 4, 5], [0, 1], [7, 8]]


def _traced(fn, *args):
    """fn(*args) and the peak of the memory that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_strips_memory_per_adjacency_entry():
    # csgraph labels the graph's CSR with the unlabelled rows emptied, which
    # costs a one-byte entry mask and the kept entries' indices: the peak
    # stays under 3 bytes an adjacency entry with the protocol's labels (2.2
    # measured) and under 7 with every node labelled (5.3); a subgraph
    # gathered from a one-byte adjacency takes 3.4 and 11.5
    net = network(24, n=3000, side=12.5, r=1.0)  # mean degree about 57
    m = len(net.indices)
    labels, _ = default_run(net)
    assert 0.2 < labels.mean() < 0.8
    (label, size), peak = _traced(centrality._components, net.indptr, net.indices)
    assert size.sum() == net.n and len(label) == net.n
    assert peak < m, peak / m  # O(n): csgraph copies no array of the graph
    for marks, bound in ((labels, 3), (np.ones(net.n, dtype=bool), 7)):
        strips, peak = _traced(bk.boundary_strips, net, marks)
        assert sum(map(len, strips)) == marks.sum()
        assert peak < bound * m, peak / m


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_strips_match_bfs_oracle(p):
    # components of the labelled subgraph by a BFS over labelled nodes only,
    # on the random family, with every node and with none labelled on a few
    for seed in range(200):
        adj = oracles.random_graph(seed)
        marks = [np.random.default_rng(seed).random(len(adj)) < p]
        if seed < 5:
            marks += [np.ones(len(adj), dtype=bool), np.zeros(len(adj), dtype=bool)]
        for labels in marks:
            got = [s.tolist() for s in bk.boundary_strips(adj, labels)]
            assert got == oracles.labelled_components(adj, labels), seed


def test_strips_unlabelled_hub():
    # six one-way edges of the masked CSR lead into the hub, and join nothing
    star = [list(range(1, 7))] + [[0]] * 6
    labels = np.arange(7) > 0
    assert [s.tolist() for s in bk.boundary_strips(star, labels)] == [[v] for v in range(1, 7)]


def test_strips_reject_label_length():
    adj = [[1], [0, 2], [1]]
    for bad in (np.ones(2, dtype=bool), np.ones(4, dtype=bool)):
        with pytest.raises(ValueError):
            bk.boundary_strips(adj, bad)


def test_annulus_two_strips(annulus_run):
    net, labels, trace = annulus_run
    strips = bk.boundary_strips(net, labels)
    declared = int(labels.sum())
    assert len(strips) >= 2
    top2 = len(strips[0]) + len(strips[1])
    assert top2 / declared >= 0.95
    # the two big strips hug different walls: one the outer square,
    # one the hole
    d_outer = bk.distances_to_boundary(
        bk.PolygonRegion(net.region.outer), net.positions
    )
    m0 = np.median(d_outer[list(strips[0])])
    m1 = np.median(d_outer[list(strips[1])])
    assert (m0 < 1.0) != (m1 < 1.0)


# -- exports -----------------------------------------------------------------


def test_trace_csv(tmp_path):
    _, trace = default_run(TRIANGLE)
    p = tmp_path / "trace.csv"
    bk.trace_to_csv(trace, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "round,phase,messages,payload_units"
    assert len(lines) == 1 + len(trace.rounds)


def test_classification_csv(tmp_path):
    net = network(31, n=60)
    labels, trace = default_run(net)
    p = tmp_path / "cls.csv"
    bk.classification_to_csv(net, trace, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "node_id,x,y,degree,stress1,classification,filtered"
    assert len(lines) == 1 + net.n
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) == net.positions[0, 0]
    assert row[5] in ("boundary", "interior")
    # one row at a time, as the writer once formatted them
    assert lines[1:] == [
        f"{v},{float(x)!r},{float(y)!r},{int(trace.degrees[v])},{int(trace.stress1[v])},"
        f"{'boundary' if trace.labels[v] else 'interior'},{int(trace.filtered[v])}"
        for v, (x, y) in enumerate(net.positions)]


def test_node_state_accessor():
    labels, trace = default_run(TRIANGLE)
    st = trace.node_state(1)
    assert st.node_id == 1
    assert st.degree == 2
    assert st.dhat == 2
    assert st.threshold == pytest.approx(1.0 / 3.0)
    assert st.declared and st.classification == "boundary"
    assert st.parent == 0 and st.level == 1
