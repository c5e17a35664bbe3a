"""Independent reference implementations used to cross-check the library.

Everything in here is written for clarity, not speed: Floyd-Warshall hop
distances, explicit enumeration of all shortest paths, O(n^2) adjacency.
None of it shares code with boundarykit internals.
"""

import math
from collections import deque

import numpy as np
from scipy.integrate import quad

from boundarykit.errors import FileFormatError

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


# ---------------------------------------------------------------------------
# shortest-path machinery


def hop_distances(adj):
    """All-pairs hop counts by Floyd-Warshall; INF where disconnected."""
    n = len(adj)
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
        for w in adj[v]:
            dist[v][w] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return dist


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
    if n < 0 or radius <= 0:
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
