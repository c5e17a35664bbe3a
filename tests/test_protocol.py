"""Distributed protocol simulation: phases, accounting, classification."""

import math
from collections import Counter

import dataclasses

import numpy as np
import pytest

import boundarykit as bk
from boundarykit import centrality, protocol

TRIANGLE = [[1, 2], [0, 2], [0, 1]]
STAR3 = [[1, 2, 3], [0], [0], [0]]


def default_run(adj, **kw):
    return bk.run_protocol(adj, bk.ProtocolConfig(**kw))


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
        bk.ProtocolConfig(smoothing_window=4)   # must be odd
    with pytest.raises(ValueError):
        bk.ProtocolConfig(filter_min_boundary_neighbors=-1)
    with pytest.raises(ValueError):
        bk.ProtocolConfig(degree_cap=0)
    with pytest.raises(ValueError):
        bk.ProtocolConfig(rule="two-hop")


# -- worked examples ---------------------------------------------------------


def test_triangle_all_boundary():
    labels, trace = default_run(TRIANGLE)
    assert labels.tolist() == [True, True, True]
    comp = trace.components[0]
    assert comp.dhat == 2
    assert comp.threshold == pytest.approx(1.0 / 3.0)
    assert comp.histogram == {2: 3}
    # degree caps that leave the histogram shorter than the smoothing window
    for cap in (1, 2, 3):
        labels, trace = default_run(TRIANGLE, degree_cap=cap)
        assert labels.tolist() == [True, True, True]
        comp = trace.components[0]
        assert comp.histogram == {2: 3}  # under cap 1, the overflow bucket
        assert comp.dhat == 2            # under cap 1, the bucket's lower bound


def test_degrees_mostly_over_cap():
    # K13 (degree 12, one node 13) plus a pendant leaf: under cap 10 all but
    # the leaf land in the overflow bucket 11, which holds the mode
    adj = [[u for u in range(13) if u != v] for v in range(13)] + [[0]]
    adj[0].append(13)
    for window in (1, 5):
        _, trace = default_run(adj, degree_cap=10, smoothing_window=window)
        comp = trace.components[0]
        assert comp.histogram == {1: 1, 11: 13}
        assert comp.dhat == 11
        assert comp.threshold == pytest.approx(11 * 10 / 6)


def test_star_filter_off():
    labels, trace = default_run(STAR3, filter_enabled=False)
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
    labels2, _ = default_run([[]], filter_enabled=False)
    assert labels2.tolist() == [True]


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        default_run([])


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


def test_phase3_convergecast_matches_reference():
    # degree histograms merged node by node up the trace's tree, degrees
    # above the cap in the overflow bucket cap + 1: a node sends once all its
    # children have, so the round of a node is its subtree height, and a
    # histogram of k buckets costs 2k units
    sparse = network(8, n=150, r=0.6)
    cap = 4
    for root in (None, 5):
        _, trace = default_run(sparse, root=root, degree_cap=cap)
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

    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    assert same(st, st_fresh) and same(labels, labels_fresh)
    for f in dataclasses.fields(protocol.ProtocolTrace):
        got, want = getattr(trace, f.name), getattr(trace_fresh, f.name)
        if isinstance(want, np.ndarray):
            assert same(got, want), f.name
        else:
            assert got == want, f.name


def test_declarations_follow_local_rule():
    net = network(11)
    labels, trace = default_run(net, filter_enabled=False, rule="one-hop")
    for v in range(net.n):
        T = trace.components[trace.component_id[v]].threshold
        assert trace.declared[v] == bk.classify_local(int(trace.stress1[v]), T)
    assert np.array_equal(labels, trace.declared)


def test_core_rule_follows_trace():
    net = network(13, n=1500, side=8.0, r=1.0)
    labels, trace = default_run(net, filter_enabled=False)
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
    _, trace = default_run(net)
    rounds = [r for r in trace.rounds if r.phase == 6]
    assert all(r.payload_units == r.messages for r in rounds)
    active = net.degrees > 0
    # stress1, neighborhood sum S, core flags, then the filter round
    assert [r.messages for r in rounds] == [
        int(active.sum()), int(active.sum()),
        int((trace.core & active).sum()), int((trace.declared & active).sum())]
    _, one_hop = default_run(net, rule="one-hop")
    assert [r.phase for r in one_hop.rounds].count(6) == 1
    assert one_hop.core is None


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


def test_node_state_accessor():
    labels, trace = default_run(TRIANGLE)
    st = trace.node_state(1)
    assert st.node_id == 1
    assert st.degree == 2
    assert st.dhat == 2
    assert st.threshold == pytest.approx(1.0 / 3.0)
    assert st.declared and st.classification == "boundary"
    assert st.parent == 0 and st.level == 1
