"""Independent reference implementations used to cross-check the library.

Everything in here is written for clarity, not speed: hop distances by
plain BFS, explicit enumeration of all shortest paths, O(n^2) adjacency,
a scalar closed-segment test.
None of it shares code with boundarykit internals, except the st sampler
references, which call ``clipped_disk_area`` as the sampler did, and the
protocol reference, which logs rounds on the trace it is given.
"""

import math
from collections import Counter, deque

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csgraph, csr_array

from boundarykit.errors import FileFormatError
from boundarykit.theory import clipped_disk_area

INF = float("inf")


# ---------------------------------------------------------------------------
# graph construction


def brute_adjacency(points, radius):
    """O(n^2) unit-disk adjacency lists, ties included."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d2 = (pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2
            if d2 <= radius * radius:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def er_graph(n, p, rng):
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def geometric_graph(n, radius, rng, box=1.0):
    pts = rng.random((n, 2)) * box
    return pts, brute_adjacency(pts, radius)


def random_graph(seed):
    """Mixed family used by the identity checks: an ER or a geometric graph of 5-44 nodes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 45))
    if rng.random() < 0.5:
        return er_graph(n, float(rng.uniform(0.05, 0.4)), rng)
    _, adj = geometric_graph(n, float(rng.uniform(0.2, 0.5)), rng)
    return adj


# ---------------------------------------------------------------------------
# region geometry


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_segment(px, py, ax, ay, bx, by):
    # Collinearity is assumed checked by the caller; here only the box test.
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_intersect(a1, a2, b1, b2):
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


def region_contains(region, p):
    """Point p on a ring edge, or inside the outer ring and no hole by even-odd
    crossings, one edge and one point at a time."""
    if any(segments_intersect(p, p, e[:2], e[2:]) for e in region.edge_array()):
        return True

    def crosses(ring):
        inside = False
        for (x1, y1), (x2, y2) in zip(ring, np.roll(ring, -1, axis=0)):
            if (y1 > p[1]) != (y2 > p[1]):
                inside ^= bool(p[0] < x1 + (p[1] - y1) * (x2 - x1) / (y2 - y1))
        return inside

    return crosses(region.outer) and not any(crosses(h) for h in region.holes)


# ---------------------------------------------------------------------------
# shortest-path machinery


def hop_distances(adj):
    """All-pairs hop counts by a BFS from each node; INF where disconnected."""
    n = len(adj)
    dist = []
    for s in range(n):
        row = [INF] * n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if row[w] == INF:
                    row[w] = row[u] + 1
                    queue.append(w)
        dist.append(row)
    return dist


def labelled_components(adj, labels):
    """Components of the subgraph on the labelled nodes, by a BFS that steps
    only onto labelled nodes: sorted id lists, largest first, ties by
    smallest id."""
    seen = [False] * len(adj)
    comps = []
    for s in range(len(adj)):
        if not labels[s] or seen[s]:
            continue
        seen[s] = True
        comp, queue = [s], deque([s])
        while queue:
            for w in adj[queue.popleft()]:
                if labels[w] and not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def all_shortest_paths_from(adj, dist, s):
    """Map t -> list of all shortest s..t node tuples (t reachable, t != s)."""
    memo = {s: [(s,)]}

    def rec(u):
        if u in memo:
            return memo[u]
        acc = []
        for w in adj[u]:
            if dist[s][w] == dist[s][u] - 1:
                for p in rec(w):
                    acc.append(p + (u,))
        memo[u] = acc
        return acc

    out = {}
    for t in range(len(adj)):
        if t != s and dist[s][t] < INF:
            out[t] = rec(t)
    return out


# ---------------------------------------------------------------------------
# centrality oracles


def brute_path_measures(adj, deltas=(1, 2)):
    """stress, betweenness and restricted stress from explicit path lists.

    Ordered (s, t) pairs, s != t, endpoints excluded as interior vertices.
    Restricted stress at radius delta keeps a pair for v only when both
    endpoints sit within delta hops of v.
    """
    n = len(adj)
    dist = hop_distances(adj)
    stress = np.zeros(n, dtype=np.int64)
    betw = np.zeros(n, dtype=np.float64)
    rstr = {d: np.zeros(n, dtype=np.int64) for d in deltas}
    for s in range(n):
        paths = all_shortest_paths_from(adj, dist, s)
        for t, plist in paths.items():
            sigma = len(plist)
            for p in plist:
                for v in p[1:-1]:
                    stress[v] += 1
                    betw[v] += 1.0 / sigma
                    for d in deltas:
                        if dist[s][v] <= d and dist[t][v] <= d:
                            rstr[d][v] += 1
    return stress, betw, rstr


def layered_graph(width, layers, sink=False):
    """A source (node 0) then ``layers`` layers of ``width`` nodes, each layer
    joined to every node of the next; from the source, sigma to a node of
    layer L is width ** (L - 1).  With ``sink``, a last node is joined to
    every node of the last layer."""
    sizes = [1] + [width] * layers + ([1] if sink else [])
    adj = [[] for _ in range(sum(sizes))]
    start = 0
    for a, b in zip(sizes, sizes[1:]):
        for u in range(start, start + a):
            for v in range(start + a, start + a + b):
                adj[u].append(v)
                adj[v].append(u)
        start += a
    return adj


def exact_brandes(adj, deltas=()):
    """stress, betweenness and restricted stress by Brandes' accumulation.

    Path counts are Python integers, so they never wrap; each betweenness
    term divides two exact counts.  Returns (stress, betweenness, {delta:
    restricted stress}) as lists, the counts as Python integers.
    """
    n = len(adj)
    top = max(deltas, default=0)
    stress = [0] * n
    betw = [0.0] * n
    rstr = {d: [0] * n for d in deltas}
    for s in range(n):
        dist, sigma, order = {s: 0}, {s: 1}, []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in adj[u]:
                if w not in dist:
                    dist[w], sigma[w] = dist[u] + 1, 0
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
        below = {v: 0 for v in order}          # shortest paths from v to its descendants
        dep = {v: 0.0 for v in order}
        walks = {v: [1] + [0] * top for v in order}  # DAG paths from v by length
        for v in reversed(order):
            for w in adj[v]:
                if dist[w] == dist[v] + 1:
                    below[v] += 1 + below[w]
                    dep[v] += sigma[v] / sigma[w] * (1.0 + dep[w])
                    for j in range(1, top + 1):
                        walks[v][j] += walks[w][j - 1]
            if v != s:
                stress[v] += sigma[v] * below[v]
                betw[v] += dep[v]
                for d in deltas:
                    if dist[v] <= d:
                        rstr[d][v] += sigma[v] * sum(walks[v][1:d + 1])
    return stress, betw, rstr


def brute_khop(adj, k):
    dist = hop_distances(adj)
    n = len(adj)
    return np.array(
        [sum(1 for u in range(n) if u != v and dist[v][u] <= k) for v in range(n)],
        dtype=np.int64,
    )


def brute_stress1(adj):
    """Non-adjacent neighbour pairs, counted directly."""
    n = len(adj)
    out = np.zeros(n, dtype=np.int64)
    for v in range(n):
        nb = adj[v]
        for a in range(len(nb)):
            for b in range(a + 1, len(nb)):
                if nb[b] not in adj[nb[a]]:
                    out[v] += 1
    return out


# ---------------------------------------------------------------------------
# analytic oracles


def lens_area_by_slices(x):
    """Area of the overlap of two unit disks at distance x, via 1-d slices.

    At height y the two chords overlap on [x - c, c] with c = sqrt(1 - y^2),
    so the slice length is max(0, 2c - x). Integrating that needs no lens
    formula at all.
    """
    if x >= 2.0:
        return 0.0
    ystar = math.sqrt(max(0.0, 1.0 - x * x / 4.0))

    def slice_len(y):
        c = math.sqrt(max(0.0, 1.0 - y * y))
        return max(0.0, 2.0 * c - x)

    val, _ = quad(slice_len, -1.0, 1.0, points=[-ystar, ystar], limit=200)
    return val


def sigma_reference():
    """High-precision interior mean via mpmath, plus the closed form."""
    import mpmath as mp

    mp.mp.dps = 40

    def integrand(x):
        lens = 2 * mp.acos(x / 2) - (x / 2) * mp.sqrt(4 - x ** 2)
        return 2 * x * (mp.pi - lens) / mp.pi

    quad_val = mp.quad(integrand, [0, 1])
    closed = 3 * mp.sqrt(3) / (4 * mp.pi)
    return float(quad_val), float(closed)


def neighborhood_st_mc(samples, seed):
    """Monte-Carlo dense-limit neighborhood-mean st at boundary distance 1.

    Draws a neighbor u uniform in the unit disk around a node at distance 1
    from the wall y = 0, then two points uniform in u's disk clipped at the
    wall; returns (fraction of pairs farther apart than 1, standard error).
    """
    rng = np.random.default_rng(seed)

    def disk(m):
        r = np.sqrt(rng.random(m))
        th = rng.random(m) * 2.0 * np.pi
        return r * np.cos(th), r * np.sin(th)

    def clipped(depth):
        x = np.empty(len(depth))
        y = np.empty(len(depth))
        todo = np.arange(len(depth))
        while len(todo):
            a, b = disk(len(todo))
            ok = b >= -depth[todo]
            x[todo[ok]], y[todo[ok]] = a[ok], b[ok]
            todo = todo[~ok]
        return x, y

    _, uy = disk(samples)
    depth = 1.0 + uy
    px, py = clipped(depth)
    qx, qy = clipped(depth)
    p = np.count_nonzero((px - qx) ** 2 + (py - qy) ** 2 > 1.0) / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


# ---------------------------------------------------------------------------
# st sampler references
#
# The rejection draw and the far-pair count of ``theory`` as they stood
# before their rewrite, kept unchanged: the rewrite must reproduce their
# output bit for bit, because the samples of ``sample_st`` depend on every
# random number drawn.


def draw_clipped(rng, count, s):
    """``count`` uniform points from the unit disk clipped to y >= -s."""
    if count == 0:
        return np.empty((0, 2))
    accept = clipped_disk_area(s) / np.pi
    chunks = []
    got = 0
    while got < count:
        m = int((count - got) / accept * 1.08) + 16
        r = np.sqrt(rng.random(m))
        th = rng.random(m) * (2.0 * np.pi)
        x = r * np.cos(th)
        y = r * np.sin(th)
        keep = y >= -s
        pts = np.column_stack([x[keep], y[keep]])
        chunks.append(pts)
        got += len(pts)
    return np.concatenate(chunks)[:count]


def far_pair_counts(pts):
    """Per realization, count point pairs farther apart than 1."""
    k, nv, _ = pts.shape
    b = np.sum(pts * pts, axis=2, dtype=np.float32) - np.float32(0.5)
    left = np.empty((k, nv, 4), dtype=np.float32)
    left[:, :, :2] = -2.0 * pts
    left[:, :, 2] = 1.0
    left[:, :, 3] = b
    right = np.empty((k, 4, nv), dtype=np.float32)
    right[:, :2, :] = pts.transpose(0, 2, 1)
    right[:, 2, :] = b
    right[:, 3, :] = 1.0
    m = left @ right
    return np.count_nonzero(m > 0, axis=(1, 2)) // 2


# ---------------------------------------------------------------------------
# network files


def network_text_lines(positions, radius, edges):
    """Network file text formatted one line at a time with f-strings."""
    out = [f"{len(positions)} {float(radius)!r}\n"]
    out += [f"{i} {float(x)!r} {float(y)!r}\n" for i, (x, y) in enumerate(positions)]
    out += [f"{u} {v}\n" for u, v in edges]
    return "".join(out)


def load_network_lines(path):
    """Per-line network file reader: (radius, positions, sorted edge list).

    Raises FileFormatError naming the offending line; a repeated edge is
    reported at the file's last line.
    """
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
    if n < 0 or not (radius > 0 and math.isfinite(radius)):
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
        if not (math.isfinite(x) and math.isfinite(y)):
            fail(f"non-finite node coordinate in {lines[1 + k]!r}", lineno)
        pos[k] = (x, y)
    edges = []
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
        edges.append((u, v))
    if len(set(edges)) != len(edges):
        fail("duplicate edge in file", len(lines))
    return radius, pos, sorted(edges)


# ---------------------------------------------------------------------------
# protocol phase 4


def smoothed_mode(hist, window, cap):
    """dhat of a {bucket: count} histogram over the buckets 0..cap + 1, trying
    every bucket: the largest sum of the counts within window // 2 of it,
    then the largest count at it, then the smallest bucket."""
    h = window // 2
    return max(range(cap + 2), key=lambda b: (
        sum(hist.get(j, 0) for j in range(b - h, b + h + 1)), hist.get(b, 0), -b))


# ---------------------------------------------------------------------------
# protocol phases 1-3
#
# Min-id flooding, the BFS tree and the convergecast of degree histograms as
# ``run_protocol`` ran them before their rewrite: one gather over every
# edge per flooding round, parents by (level, id) rank, and Counter
# histograms merged node by node.  Components, roots and BFS levels come
# from csgraph, not from the flooding.  The signature and the return are
# those of ``protocol._tree_phases``, so a test can run the whole protocol
# on top of it.


def protocol_tree_phases(indptr, indices, root, cap, trace):
    """Phases 1-3, node by node: (comp, roots, level, parent, keys, counts)."""
    n = len(indptr) - 1
    degs = np.diff(indptr)
    adj = csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))

    # component ids ordered by smallest member; an explicit root replaces
    # its component's smallest id, and that component skips phase 1
    _, comp = csgraph.connected_components(adj, directed=False)
    comp = comp.astype(np.int64)
    _, roots = np.unique(comp, return_index=True)
    participating = np.ones(n, dtype=bool)
    if root is not None:
        roots[comp[root]] = root
        participating = comp != comp[root]

    # -- phase 1: min-id flooding (skipped for an explicitly rooted component)
    best = np.arange(n, dtype=np.int32)  # int32 halves the per-edge gather below
    active = participating.copy()
    has_nbrs = degs > 0
    while True:
        senders = np.nonzero(active & has_nbrs)[0]
        if len(senders) == 0:
            break
        trace._log_round(1, len(senders), len(senders))
        # a node hears the ids of its active neighbors: its CSR row, as the
        # adjacency is symmetric
        snapshot = best.copy()
        heard = np.minimum.reduceat(np.where(active, snapshot, n)[indices],
                                    indptr[:-1][has_nbrs])
        best[has_nbrs] = np.minimum(best[has_nbrs], heard)
        active = best < snapshot

    # -- phase 2: BFS tree.  Each level announces in one round, roots with
    # (level) and everyone else with (level, parent), hence payloads 1 and 2;
    # a node's parent is its smallest neighbor one level up.  The weights
    # are ones, so distances are hop counts (unweighted=True copies them).
    level = csgraph.dijkstra(adj, indices=roots, min_only=True).astype(np.int64)
    for depth, senders in enumerate(np.bincount(level[has_nbrs])):
        trace._log_round(2, senders, (1 if depth == 0 else 2) * senders)
    # the lowest (level, id) place in a row is the smallest neighbor one level up
    order = np.argsort(level, kind="stable")
    place = np.empty(n, dtype=np.int32)
    place[order] = np.arange(n, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int64)
    parent[has_nbrs] = order[np.minimum.reduceat(place[indices], indptr[:-1][has_nbrs])]
    parent[roots] = -1

    sends = parent >= 0  # every node but the roots sends up the tree
    children = [[] for _ in range(n)]
    for v in np.flatnonzero(sends):
        children[parent[v]].append(v)

    # -- phase 3: convergecast of sparse degree histograms
    overflow_key = cap + 1
    height = np.ones(n, dtype=np.int64)
    for v in order[::-1]:  # deepest levels first
        if sends[v]:
            height[parent[v]] = max(height[parent[v]], height[v] + 1)
    hists = [None] * n
    for v in np.argsort(height, kind="stable"):  # leaves upward
        h = Counter({min(int(degs[v]), cap) if degs[v] <= cap else overflow_key: 1})
        for c in children[v]:
            h.update(hists[c])
        hists[v] = h
    # one round per height; a histogram of k buckets costs 2k units
    payloads = np.bincount(height[sends], [2 * len(hists[v]) for v in np.flatnonzero(sends)])
    for senders, payload in zip(np.bincount(height[sends]), payloads):
        trace._log_round(3, senders, payload)

    # the root histograms as entries: sorted keys component * (cap + 2) +
    # bucket, with their counts
    entries = [(c * (cap + 2) + k, v) for c, r in enumerate(roots)
               for k, v in sorted(hists[r].items())]
    keys, counts = np.array(entries, dtype=np.int64).T
    return comp, roots, level, parent, keys, counts
