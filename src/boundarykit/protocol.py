"""Synchronous distributed boundary-recognition protocol (simulated).

Six phases over an undirected network, all message traffic accounted in
abstract payload units (1 unit = one id, level, count, or threshold):

1. root election by min-id flooding until quiescence,
2. BFS tree construction from the root, one round per level (parent =
   first announcer, ties to the smallest id; announcements carry the chosen
   parent so parents learn their children),
3. convergecast of sparse degree histograms to the root,
4. the root derives the typical degree dhat (argmax of the histogram after
   a centered moving average) and floods T = theta * C(dhat, 2) down the tree,
5. one neighbor-list exchange; each node computes stress1 locally and is a
   candidate iff stress1 <= T,
6. the decision rule, then an optional filter round in which a declaration
   survives only if enough neighbors declared as well.  The one-hop rule
   declares the candidates.  The default core rule adds three rounds:
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
histogram and threshold); the trace flags this.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .centrality import _adjacency, _stress1, as_csr, st_from_stress1
from .theory import clipped_disk_area, neighborhood_st, sigma_interior

RULES = ("core", "one-hop")
# core rule: a core sits within _CORE_DEPTH radii of the wall, and a node
# declares when its closed neighborhood holds at least _CORE_COUNT cores
_CORE_DEPTH = 0.25
_CORE_COUNT = 3


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
    stress1 <= T.  The filter drops a declaration with fewer than
    ``filter_min_boundary_neighbors`` declared neighbors.  Phase 3 counts
    every degree above ``degree_cap`` in one overflow bucket, cap + 1, which
    phase 4 smooths with the rest (``smoothing_window`` buckets wide); when
    the mode falls there, dhat is its lower bound cap + 1.
    """
    theta: float = 1.0 / 3.0
    rule: str = "core"
    filter_enabled: bool = True
    filter_min_boundary_neighbors: int = 2
    root: int | None = None      # None: min-id election; else explicit root id
    degree_cap: int = 1024
    smoothing_window: int = 5

    def __post_init__(self):
        sigma = sigma_interior()
        if not (0.0 < self.theta < sigma):
            raise ValueError(
                f"theta must lie in (0, {sigma:.10f}) exclusive, got {self.theta}")
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; choose from {', '.join(RULES)}")
        if self.filter_min_boundary_neighbors < 0:
            raise ValueError("filter_min_boundary_neighbors must be >= 0")
        if self.degree_cap < 1:
            raise ValueError("degree_cap must be >= 1")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValueError("smoothing_window must be a positive odd integer")


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


def _smoothed_mode(dense, window):
    """Argmax of the histogram after a centered moving average.

    Smoothing a sharp spike produces a plateau of tied maxima; ties resolve
    to the bucket with the largest raw count, then to the smallest index.
    """
    kernel = np.ones(window) / window
    h = (window - 1) // 2  # mode="same" is this slice only if len(dense) >= window
    smooth = np.convolve(dense.astype(float), kernel)[h:h + len(dense)]
    tied = np.nonzero(smooth == smooth.max())[0]
    return int(tied[np.argmax(dense[tied])])


def run_protocol(graph, config=None):
    """Simulate the protocol; returns (labels, trace).

    ``labels`` is a boolean array, True where the node ends classified as
    boundary.  ``graph`` may be a SensorNetwork or plain adjacency lists.
    Phase 5 reads the stress1 a network keeps, if ``centrality.stress1``
    has counted it, and otherwise counts it without keeping it.
    """
    if config is None:
        config = ProtocolConfig()
    indptr, indices = as_csr(graph)
    n = len(indptr) - 1
    if n == 0:
        raise ValueError("network must contain at least one node")
    degs = np.diff(indptr)
    adj = _adjacency(indptr, indices)

    # The adjacency is symmetric, so its strong components are the connected
    # components, found without the transpose that directed=False builds;
    # the ids come ordered by each component's smallest node.
    ncomp, comp = csgraph.connected_components(adj, directed=True, connection="strong")
    comp = comp.astype(np.int64)
    trace = ProtocolTrace(n=n, component_id=comp, degrees=degs.astype(np.int64))

    # Component roots: explicit root wins its own component, every other
    # component falls back to its minimum id (which is its BFS seed).
    _, roots = np.unique(comp, return_index=True)
    if config.root is not None:
        if not (0 <= config.root < n):
            raise ValueError(f"explicit root {config.root} is not a node id")
        roots[comp[config.root]] = config.root

    # -- phase 1: min-id flooding (skipped for an explicitly rooted component)
    participating = np.ones(n, dtype=bool)
    if config.root is not None:
        participating = comp != comp[config.root]
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
    cap = config.degree_cap
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

    # -- phase 4: dhat and T at each root, flooded down the tree
    thresholds = np.zeros(ncomp)
    sizes = np.bincount(comp, minlength=ncomp)
    for ci in range(ncomp):
        root = int(roots[ci])
        dense = np.zeros(cap + 2, dtype=np.int64)  # the overflow bucket last
        for key, cnt in hists[root].items():
            dense[key] = cnt
        dhat = _smoothed_mode(dense, config.smoothing_window)
        t_val = max(0.0, config.theta * dhat * (dhat - 1) / 2.0)
        thresholds[ci] = t_val
        trace.components.append(ComponentInfo(
            root=root, size=int(sizes[ci]),
            dhat=dhat, threshold=t_val,
            histogram={int(k): int(v) for k, v in sorted(hists[root].items())}))
    for senders in np.bincount(level[np.unique(parent[sends])]):
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
        src, dst = np.repeat(src, degs[src]), adj[src].indices
        lower = s_closed[dst] * closed[src] < s_closed[src] * closed[dst]
        rank = np.bincount(src[lower], minlength=n)
        dhat = np.array([c.dhat for c in trace.components])[comp]
        core &= rank <= dhat * (clipped_disk_area(_CORE_DEPTH) - np.pi / 2.0) / np.pi
        # 6c: core flags out
        senders = np.count_nonzero(core & (degs > 0))
        trace._log_round(6, senders, senders)
        cores_near = core + adj @ core
        declared = (cores_near >= _CORE_COUNT) | (degs <= 1)

    labels = declared.copy()
    filtered = np.zeros(n, dtype=bool)
    if config.filter_enabled:
        senders = np.count_nonzero(declared & (degs > 0))
        trace._log_round(6, senders, senders)
        keep = declared & (adj @ declared >= config.filter_min_boundary_neighbors)
        filtered = declared & ~keep
        labels = keep

    trace.level = level
    trace.parent = parent
    trace.stress1 = s1.astype(np.int64)
    trace.declared = declared
    trace.core = core
    trace.filtered = filtered
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
    smallest member id).
    """
    adj = _adjacency(*as_csr(graph))
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != (adj.shape[0],):
        raise ValueError(f"labels must have one entry per node ({adj.shape[0]}), "
                         f"got shape {labels.shape}")
    idx = np.flatnonzero(labels)
    if len(idx) == 0:
        return []
    _, comp = csgraph.connected_components(adj[idx][:, idx], directed=False)
    # idx is ascending, so a stable sort by component keeps each strip sorted
    strips = np.split(idx[np.argsort(comp, kind="stable")], np.cumsum(np.bincount(comp))[:-1])
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_id,x,y,degree,stress1,classification,filtered\n")
        for v in range(trace.n):
            x, y = network.positions[v]
            cls = "boundary" if trace.labels[v] else "interior"
            fh.write(f"{v},{float(x)!r},{float(y)!r},{int(trace.degrees[v])},"
                     f"{int(trace.stress1[v])},{cls},{int(trace.filtered[v])}\n")


def trace_to_csv(trace, path):
    """Round log export: round,phase,messages,payload_units."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,phase,messages,payload_units\n")
        for r in trace.rounds:
            fh.write(f"{r.round_no},{r.phase},{r.messages},{r.payload_units}\n")
