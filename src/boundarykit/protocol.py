"""Synchronous distributed boundary-recognition protocol (simulated).

Six phases over an undirected network, all message traffic accounted in
abstract payload units (1 unit = one id, level, count, or threshold):

1. root election by min-id flooding until quiescence,
2. BFS tree construction from the root, one round per level (parent =
   first announcer, ties to the smallest id, fixed by the push that first
   reaches it; announcements carry it, so parents learn their children),
3. convergecast of sparse degree histograms to the root,
4. the root derives the typical degree dhat, the bucket whose centered
   window holds the most nodes (ties to the larger raw count, then to the
   smaller bucket), and floods T = theta * C(dhat, 2) down the tree,
5. one neighbor-list exchange; each node computes stress1 locally and is a
   candidate iff stress1 <= T,
6. the decision rule, then a filter round in which a declaration survives
   only if at least k = ``filter_min_boundary_neighbors`` neighbors declared
   as well; k = 0 can drop nothing, so then no round is sent.  The one-hop
   rule declares the candidates.  The default core rule adds three rounds:
   every node sends its stress1 (6a) and then S, the sum of stress1 over
   its closed neighborhood (6b); a candidate whose closed neighborhood has
   mean st at most G and that has at most J neighbors with a lower
   S / (deg + 1) is a core; cores send a flag (6c), and a node declares iff
   its closed neighborhood holds at least three cores.  G is the half-plane
   model's neighborhood-mean st at depth r (``theory.neighborhood_st(1)``,
   0.381), J = (dhat / pi) * (pi / 2 - seg(1/4)) the expected number of
   neighbors nearer the wall at depth r/4.  Nodes of degree <= 1 declare
   under both rules.

The simulation is a pure function of the network and configuration.
Disconnected networks are processed per component (each gets its own root,
histogram and threshold); the trace flags this.  The components and the
BFS levels come from phases 1-2 themselves: at quiescence each node holds
its component's smallest id, which names the component, and a BFS level is
the round in which an announcement first reaches the node; an explicit
root's component is what one BFS from it reaches.  So a run loads no
``scipy.sparse.csgraph``.  A round's numpy work follows what is sent in
it, and no phase loops over nodes or components in Python (only the
trace's records are built one by one): a flooding or BFS round pushes its
senders' messages over their CSR rows only, the convergecast merges the
histograms of one BFS level at a time, deepest first, as sorted (node,
bucket) entries, and phase 4 takes every root's entries in one exact pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._arrays import distinct, is_integer
from .centrality import _adjacency, _blocks, _components, _stress1, as_csr, st_from_stress1
from .theory import clipped_disk_area, neighborhood_st, sigma_interior

RULES = ("core", "one-hop")
# core rule: a core sits within _CORE_DEPTH radii of the wall, and a node
# declares when its closed neighborhood holds at least _CORE_COUNT cores
_CORE_DEPTH = 0.25
_CORE_COUNT = 3
# phase 3 counts every degree above _DEGREE_CAP in one overflow bucket,
# cap + 1, which phase 4 smooths with the rest over _WINDOW buckets; when the
# mode falls there, dhat is that bucket's lower bound, cap + 1
_DEGREE_CAP = 1024
_WINDOW = 5
# phases 1-2 push at most this many messages at a time, so that a round's
# temporaries stay small whatever the number of edges; of the powers of two
# timed at 20k nodes and degree 100, this one ran fastest
_PUSH_BUDGET = 1 << 16


def classify_local(stress1_value, threshold):
    """Local decision rule: boundary iff stress1 <= T (T must be >= 0)."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return stress1_value <= threshold


@dataclass
class ProtocolConfig:
    """Protocol parameters.

    ``theta`` sets the phase-5 threshold T = theta * C(dhat, 2); ``rule``
    selects the phase-6 decision: ``"core"`` (default), the neighborhood-core
    rule, or ``"one-hop"``, which declares exactly the nodes with
    stress1 <= T.  Unless ``filter_min_boundary_neighbors`` is 0, a filter
    round drops a declaration with fewer declared neighbors.  These defaults
    are the only copy: the CLI passes on only the options it is given.
    """
    theta: float = 1.0 / 3.0
    rule: str = "core"
    filter_min_boundary_neighbors: int = 2
    root: int | None = None      # None: min-id election; else explicit root id

    def __post_init__(self):
        sigma = sigma_interior()
        if not (0.0 < self.theta < sigma):
            raise ValueError(
                f"theta must lie in (0, {sigma:.10f}) exclusive, got {self.theta}")
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; choose from {', '.join(RULES)}")
        # numpy integers are kept as Python ints, whose arithmetic cannot wrap
        value = self.filter_min_boundary_neighbors
        if not is_integer(value) or value < 0:
            raise ValueError(
                f"filter_min_boundary_neighbors must be an integer >= 0, got {value!r}")
        self.filter_min_boundary_neighbors = int(value)
        if self.root is not None:
            if not is_integer(self.root):
                raise ValueError(f"root must be None or an integer node id, got {self.root!r}")
            self.root = int(self.root)


@dataclass
class RoundRecord:
    round_no: int
    phase: int
    messages: int
    payload_units: int


@dataclass
class ComponentInfo:
    root: int
    size: int
    dhat: int
    threshold: float
    histogram: dict = field(default_factory=dict)  # degree -> count, as merged at the root


@dataclass
class NodeState:
    node_id: int
    degree: int
    level: int
    parent: int          # -1 for roots
    component: int
    dhat: int            # degree estimate received from the root
    threshold: float     # T received from the root
    stress1: int
    declared: bool
    filtered: bool
    classification: str  # "boundary" or "interior"


@dataclass
class ProtocolTrace:
    n: int
    rounds: list = field(default_factory=list)
    components: list = field(default_factory=list)
    # per-node arrays, filled by run_protocol
    level: np.ndarray = None
    parent: np.ndarray = None
    component_id: np.ndarray = None
    degrees: np.ndarray = None
    stress1: np.ndarray = None
    declared: np.ndarray = None
    core: np.ndarray = None      # core rule only; None under the one-hop rule
    filtered: np.ndarray = None
    labels: np.ndarray = None

    @property
    def multi_component(self):
        return len(self.components) > 1

    @property
    def total_messages(self):
        return sum(r.messages for r in self.rounds)

    @property
    def total_payload(self):
        return sum(r.payload_units for r in self.rounds)

    def _log_round(self, phase, messages, payload):
        """Record one round of the phase, unless no node sends in it."""
        if messages:
            rnd = len(self.rounds) + 1
            self.rounds.append(RoundRecord(rnd, phase, int(messages), int(payload)))

    def phase_totals(self):
        out = {p: [0, 0] for p in range(1, 7)}
        for r in self.rounds:
            out[r.phase][0] += r.messages
            out[r.phase][1] += r.payload_units
        return {p: tuple(v) for p, v in out.items()}

    def node_state(self, v):
        ci = self.components[int(self.component_id[v])]
        return NodeState(
            node_id=int(v), degree=int(self.degrees[v]), level=int(self.level[v]),
            parent=int(self.parent[v]), component=int(self.component_id[v]),
            dhat=ci.dhat, threshold=ci.threshold,
            stress1=int(self.stress1[v]), declared=bool(self.declared[v]),
            filtered=bool(self.filtered[v]),
            classification="boundary" if self.labels[v] else "interior")


def _pushes(indptr, senders):
    """Each of ``senders`` sends one message over its CSR row, the adjacency
    being symmetric; yields (lo, hi, at) for blocks of at most _PUSH_BUDGET
    messages, ``at`` the CSR positions of the rows of senders[lo:hi] in order."""
    start = indptr[senders]
    deg = indptr[senders + 1] - start
    for lo, hi in _blocks(deg, _PUSH_BUDGET):
        d = deg[lo:hi]
        at = np.repeat(start[lo:hi] - np.cumsum(d, dtype=d.dtype) + d, d)
        at += np.arange(len(at), dtype=at.dtype)
        yield lo, hi, at


def _bfs_tree(indptr, indices, roots, level, parent):
    """Phase 2 from ``roots``: pushes over the CSR rows, one level at a time,
    set each node's ``level`` and ``parent``, its first announcer, which is
    its smallest neighbor one level up, as senders push in id order."""
    level[roots] = 0
    front, depth = roots, 0
    while len(front):
        depth += 1
        for _, _, at in _pushes(indptr, front):
            at = at[level[indices[at]] < 0]  # reached by no earlier block either
            new, first = np.unique(indices[at], return_index=True)
            level[new] = depth
            parent[new] = np.searchsorted(indptr, at[first], side="right") - 1
        front = np.flatnonzero(level == depth)


def _smoothed_modes(keys, counts, width, window):
    """dhat of every component from its root's histogram entries, sorted keys
    component * width + bucket with their counts: the bucket whose centered
    window of ``window`` buckets holds the most nodes, ties (a spike smooths
    to a plateau) to the larger raw count, then to the smaller bucket.  Only
    buckets near an entry hold any; the sums are exact below 2**53."""
    near = keys[:, None] + np.arange(-(window // 2), window // 2 + 1)
    inside = near // width == keys[:, None] // width  # cut off at 0 and width - 1
    cand, at = np.unique(near[inside], return_inverse=True)
    sums = np.bincount(at, np.broadcast_to(counts[:, None], near.shape)[inside])
    raw = np.zeros(len(cand), dtype=counts.dtype)
    raw[np.searchsorted(cand, keys)] = counts
    comp = cand // width
    best = np.lexsort((-raw, -sums, comp))  # stable, so smaller buckets first
    return cand[best[np.unique(comp[best], return_index=True)[1]]] % width


def _tree_phases(indptr, indices, root, cap, trace):
    """Phases 1-3 on the CSR graph: min-id flooding, the BFS tree and the
    convergecast of degree histograms, degrees above ``cap`` in the bucket
    cap + 1.  An explicit ``root`` (None for the min-id election) roots its
    own component, which phase 1 skips.  Logs the rounds on ``trace``;
    returns (comp, roots, level, parent, keys, counts): component ids ordered
    by smallest member, each component's root, and the histograms merged at
    the roots as entries, sorted keys component * (cap + 2) + degree bucket
    with their int64 counts.  Each round's work follows its messages.
    """
    n = len(indptr) - 1
    degs = np.diff(indptr)
    has_nbrs = degs > 0

    # an explicit root's component is what a BFS from it reaches, and that
    # BFS is the component's phase 2
    level, parent = np.full(n, -1), np.full(n, -1)
    if root is not None:
        _bfs_tree(indptr, indices, np.array([root]), level, parent)
    participating = level < 0

    # -- phase 1: min-id flooding.  A node whose id estimate fell sends it
    # to its neighbors; the rows of a round's senders are pushed in blocks.
    # At quiescence each node holds the smallest id of its component.
    best = np.arange(n, dtype=indices.dtype)
    senders = np.flatnonzero(participating & has_nbrs)
    while len(senders):
        trace._log_round(1, len(senders), len(senders))
        sent = best[senders]  # the estimates as they stood at the round's start
        deg = degs[senders]
        fell = []
        for lo, hi, at in _pushes(indptr, senders):
            heard = np.repeat(sent[lo:hi], deg[lo:hi])
            lower = np.flatnonzero(heard < best[indices[at]])
            to = indices[at[lower]]
            np.minimum.at(best, to, heard[lower])
            fell.append(distinct(to))
        senders = distinct(np.concatenate(fell))
    if root is not None:
        best[~participating] = np.argmin(participating)  # the rooted component's smallest id

    # a component's id is the rank of its smallest id, which is its root
    # unless an explicit root replaces it
    smallest = best == np.arange(n)
    comp = (np.cumsum(smallest) - 1)[best]
    roots = np.flatnonzero(smallest)
    if root is not None:
        roots[comp[root]] = root

    # -- phase 2: BFS tree.  Each level announces in one round, roots with
    # (level) and everyone else with (level, parent), hence payloads 1 and 2;
    # the announcements are pushed over the rows, as in phase 1.
    _bfs_tree(indptr, indices, roots[participating[roots]], level, parent)
    for depth, senders in enumerate(np.bincount(level[has_nbrs])):
        trace._log_round(2, senders, (1 if depth == 0 else 2) * senders)
    order = np.argsort(level, kind="stable")

    # -- phase 3: convergecast of sparse degree histograms, one BFS level at
    # a time from the deepest.  A level's histograms are sorted entries
    # (node * width + bucket, count): its nodes' own one-hot entries merged
    # with those their children sent, which then go to the parents.  A node
    # sends in the round of its subtree height, and k buckets cost 2k units.
    width = cap + 2
    bucket = np.minimum(degs, cap + 1)
    height = np.ones(n, dtype=np.int64)
    size = np.zeros(n, dtype=np.int64)  # buckets in each node's histogram
    codes, counts = np.empty(0, dtype=np.int64), np.empty(0)
    by_level = np.split(order, np.cumsum(np.bincount(level))[:-1])
    for depth in range(len(by_level) - 1, -1, -1):
        nodes = by_level[depth]
        codes, at = np.unique(np.concatenate([codes, nodes * width + bucket[nodes]]),
                              return_inverse=True)
        counts = np.bincount(at, np.concatenate([counts, np.ones(len(nodes))]))
        owner = codes // width
        np.add.at(size, owner, 1)
        if depth:
            np.maximum.at(height, parent[nodes], height[nodes] + 1)
            codes = parent[owner] * width + codes % width
    sends = parent >= 0
    for senders, payload in zip(np.bincount(height[sends]),
                                np.bincount(height[sends], 2 * size[sends])):
        trace._log_round(3, senders, payload)

    # the roots are the level-0 nodes, so the entries left are their
    # histograms, which an explicit root can put out of component order
    keys = comp[codes // width] * width + codes % width
    by_comp = np.argsort(keys)
    return comp, roots, level, parent, keys[by_comp], counts[by_comp].astype(np.int64)


def run_protocol(graph, config=None):
    """Simulate the protocol; returns (labels, trace).

    ``labels`` is a boolean array, True where the node ends classified as
    boundary.  ``graph`` may be a SensorNetwork or plain adjacency lists.
    Phases 1-2 yield each node's component, BFS level and parent, with no
    csgraph call.  Phase 5 reads the stress1 a network keeps, if
    ``centrality.stress1`` has counted it, and otherwise counts it without
    keeping it.
    """
    if config is None:
        config = ProtocolConfig()
    indptr, indices = as_csr(graph)
    n = len(indptr) - 1
    if n == 0:
        raise ValueError("network must contain at least one node")
    if config.root is not None and not (0 <= config.root < n):
        raise ValueError(f"explicit root {config.root} is not a node id")
    degs = np.diff(indptr)
    adj = _adjacency(indptr, indices)
    trace = ProtocolTrace(n=n, degrees=degs.astype(np.int64))
    width = _DEGREE_CAP + 2  # the buckets 0..cap and the overflow bucket
    comp, roots, level, parent, keys, counts = _tree_phases(
        indptr, indices, config.root, _DEGREE_CAP, trace)
    trace.component_id = comp

    # -- phase 4: dhat and T at every root, flooded down the tree; T = 0.0, not -0.0, at dhat 0
    dhat = _smoothed_modes(keys, counts, width, _WINDOW)
    thresholds = np.where(dhat > 1, config.theta * dhat * (dhat - 1) / 2.0, 0.0)
    ends = np.searchsorted(keys, np.arange(len(roots) + 1) * width).tolist()
    buckets, counts = (keys % width).tolist(), counts.tolist()
    rows = zip(roots.tolist(), np.bincount(comp).tolist(), dhat.tolist(), thresholds.tolist())
    trace.components = [ComponentInfo(*row, dict(zip(buckets[lo:hi], counts[lo:hi])))
                        for row, lo, hi in zip(rows, ends, ends[1:])]
    for senders in np.bincount(level[distinct(parent[parent >= 0])]):
        trace._log_round(4, senders, 2 * senders)

    # -- phase 5: neighbor-list exchange and the local decision
    trace._log_round(5, np.count_nonzero(degs), degs.sum())
    s1 = getattr(graph, "_kept_stress1", None)
    if s1 is None:
        s1 = _stress1(adj)
    declared = s1 <= thresholds[comp]  # degree <= 1 gives stress1 = 0 <= T, boundary

    # -- phase 6: decision rule, declaration exchange and neighborhood filter
    core = None
    if config.rule == "core":
        st = st_from_stress1(degs, s1)
        closed = degs + 1
        # 6a: stress1 out; with the phase-5 neighbor degrees each node has
        # its neighbors' st and sums S over its closed neighborhood
        senders = np.count_nonzero(degs > 0)
        trace._log_round(6, senders, senders)
        mean_st = (st + adj @ st) / closed
        s_closed = s1 + (adj @ s1).astype(np.int64)
        # 6b: S out; rank = neighbors with a lower S / (deg + 1), compared
        # exactly, needed only where the other two core conditions hold
        trace._log_round(6, senders, senders)
        core = declared & (mean_st <= neighborhood_st(1.0))
        src = np.flatnonzero(core)  # the candidates' rows give their edges
        src, dst = np.repeat(src, degs[src]), indices[np.repeat(core, degs)]
        lower = s_closed[dst] * closed[src] < s_closed[src] * closed[dst]
        rank = np.bincount(src[lower], minlength=n)
        core &= rank <= dhat[comp] * (clipped_disk_area(_CORE_DEPTH) - np.pi / 2.0) / np.pi
        # 6c: core flags out
        senders = np.count_nonzero(core & (degs > 0))
        trace._log_round(6, senders, senders)
        cores_near = core + adj @ core
        declared = (cores_near >= _CORE_COUNT) | (degs <= 1)

    labels = declared.copy()
    if config.filter_min_boundary_neighbors:
        senders = np.count_nonzero(declared & (degs > 0))
        trace._log_round(6, senders, senders)
        labels &= adj @ declared >= config.filter_min_boundary_neighbors

    trace.level = level
    trace.parent = parent
    trace.stress1 = s1.astype(np.int64)
    trace.declared = declared
    trace.core = core
    trace.filtered = declared & ~labels
    trace.labels = labels
    return labels, trace


def classification_rates(labels, truth):
    """(false_negative_rate, false_positive_rate) against boolean ground truth."""
    labels = np.asarray(labels, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if labels.shape != truth.shape:
        raise ValueError("labels and truth must have the same shape")
    nb = int(truth.sum())
    ni = int((~truth).sum())
    fn = float((~labels & truth).sum() / nb) if nb else 0.0
    fp = float((labels & ~truth).sum() / ni) if ni else 0.0
    return fn, fp


def boundary_strips(graph, labels):
    """Connected components of the boundary-labeled subgraph.

    Returns a list of sorted id arrays, largest component first (ties by
    smallest member id).  They are the strong components of the graph's CSR
    with the unlabelled rows emptied: an edge into an unlabelled node is
    one-way and lies on no cycle, so no subgraph is built.
    """
    indptr, indices = as_csr(graph)
    degs = np.diff(indptr)
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != degs.shape:
        raise ValueError(f"labels must have one entry per node ({len(degs)}), "
                         f"got shape {labels.shape}")
    idx = np.flatnonzero(labels)
    if len(idx) == 0:
        return []
    kept = np.concatenate((indptr[:1], np.cumsum(degs * labels, dtype=indptr.dtype)))
    comp = _components(kept, indices[np.repeat(labels, degs)])[0][idx]
    # idx is ascending, so a stable sort by component keeps each strip sorted
    order = np.argsort(comp, kind="stable")
    strips = np.split(idx[order], np.flatnonzero(np.diff(comp[order])) + 1)
    strips.sort(key=lambda a: (-len(a), int(a[0])))
    return strips


@dataclass
class AccountingSummary:
    total_messages: int
    total_payload: int
    per_phase: dict
    payload_per_node: float
    scaled_payload: float  # totalPayload / (n * log2(n)^2); nan for n < 2


def message_accounting(trace):
    """Aggregate message counts from a protocol trace."""
    n = trace.n
    payload = trace.total_payload
    if n >= 2:
        scaled = payload / (n * np.log2(n) ** 2)
    else:
        scaled = float("nan")
    return AccountingSummary(
        total_messages=trace.total_messages,
        total_payload=payload,
        per_phase=trace.phase_totals(),
        payload_per_node=payload / n,
        scaled_payload=scaled)


def classification_to_csv(network, trace, path):
    """Per-node export: node_id,x,y,degree,stress1,classification,filtered."""
    rows = zip(range(trace.n), network.positions[:, 0].tolist(),
               network.positions[:, 1].tolist(), trace.degrees.tolist(),
               trace.stress1.tolist(), np.where(trace.labels, "boundary", "interior").tolist(),
               trace.filtered.astype(np.int8).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_id,x,y,degree,stress1,classification,filtered\n")
        fh.writelines(f"{v},{x!r},{y!r},{d},{s},{c},{f}\n" for v, x, y, d, s, c, f in rows)


def trace_to_csv(trace, path):
    """Round log export: round,phase,messages,payload_units."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,phase,messages,payload_units\n")
        for r in trace.rounds:
            fh.write(f"{r.round_no},{r.phase},{r.messages},{r.payload_units}\n")
