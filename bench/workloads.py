"""The benchmark's workloads: inputs, one task, output checks, layer probes.

A workload turns a task seed into inputs (``prepare``, untimed), runs one
task on them (``task``, the timed part) and checks the task's outputs
(``check``, untimed).  In the traced run, ``layer_metrics`` turns the
spans of task 0 and of the checks into per-layer metrics, and
probes every layer the workload does not call itself, so that each
workload reports every per-layer name.  Every call into the package goes
through the tracer, under the name of the metric it feeds.
"""

import math
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

import boundarykit as bk
from boundarykit.centrality import resolve_workers

from sizes import NETWORK_OF, RADIUS, SIZES, THEORY_MU, THEORY_S

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT = 170  # seconds; a run must end within 180
CLI_STEPS = ("generate", "centrality", "protocol", "render", "theory_dist")


class CheckFailed(Exception):
    """An output of a task is wrong."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def adjacency(net):
    """The network's 0/1 adjacency as a scipy CSR matrix."""
    data = np.ones(len(net.indices), dtype=np.int32)
    return sp.csr_matrix((data, net.indices, net.indptr), shape=(net.n, net.n))


def stress1_reference(net):
    """C(d, 2) - rowsum((A @ A) * A) / 2: neighbour pairs that are not linked."""
    a = adjacency(net)
    twice_triangles = np.asarray((a @ a).multiply(a).sum(axis=1), dtype=np.int64).ravel()
    deg = net.degrees.astype(np.int64)
    return deg * (deg - 1) // 2 - twice_triangles // 2


def expect_st(st, deg, stress1, message):
    """st = stress1 / C(d, 2) where d > 1, else 0, up to rounding."""
    big = deg > 1
    numerator = st[big] * (deg[big] * (deg[big] - 1) / 2)
    expect(len(st) == len(deg) and np.all(st[~big] == 0.0)
           and np.array_equal(np.rint(numerator), stress1[big])
           and np.allclose(numerator, stress1[big], rtol=1e-12, atol=0.0), message)


def path_measures(tr, net):
    return {
        "stress": tr.call("centrality.stress", bk.stress_centrality, net),
        "betweenness": tr.call("centrality.betweenness", bk.betweenness_centrality, net),
        "rstress": tr.call("centrality.rstress", bk.restricted_stress, net, 2),
        "khop": tr.call("centrality.khop", bk.khop_size, net, 2),
    }


class Workload:
    name = None
    alias = None              # the workload's own name for its task time
    work_in_children = False  # whether peak RSS is that of the largest child

    def __init__(self, size, region, workdir, tracer, env):
        self.samples = SIZES[size]["samples"]
        self.n = SIZES[size][NETWORK_OF[self.name]][0]
        self.region = region
        self.region_file = workdir / "region.txt"
        self.workdir = workdir
        self.tr = tracer
        self.env = env

    def prepare(self, seed):
        return {"seed": seed}

    def extras(self, outs):
        """Workload-specific end-to-end figures over the tasks' outputs."""
        return []

    def python(self, args):
        """Run the interpreter on ``args`` in the checkout; raise if it fails."""
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(args[:4])} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        return proc


class Desk(Workload):
    """The README library tour at the criterion-5 operating point."""
    name = "desk20k"
    alias = "pipeline_s"

    def task(self, inputs):
        c = self.tr.call
        net = c("netgen.build_network", bk.build_network,
                self.region, self.n, RADIUS, inputs["seed"])
        st = c("centrality.normalized_st", bk.normalized_st, net)
        labels, trace = c("protocol.run_protocol", bk.run_protocol, net, bk.ProtocolConfig())
        truth = c("netgen.ground_truth", bk.ground_truth, net)
        fn, fp = c("protocol.classification_rates", bk.classification_rates, labels, truth)
        strips = c("protocol.boundary_strips", bk.boundary_strips, net, labels)
        acc = c("protocol.accounting", bk.message_accounting, trace)
        return {"net": net, "st": st, "labels": labels, "trace": trace, "truth": truth,
                "fn": fn, "fp": fp, "strips": strips, "acc": acc}

    def check(self, inputs, out):
        net, st, labels, trace = out["net"], out["st"], out["labels"], out["trace"]
        deg = net.degrees.astype(np.int64)
        ref = stress1_reference(net)
        expect(np.array_equal(trace.stress1, ref),
               "trace.stress1 differs from C(d,2) - rowsum((A@A)*A)/2")
        expect_st(st, deg, ref, "normalized_st * C(d,2) differs from the stress1 reference")

        truth = out["truth"]
        fn = np.count_nonzero(~labels & truth) / max(1, np.count_nonzero(truth))
        fp = np.count_nonzero(labels & ~truth) / max(1, np.count_nonzero(~truth))
        expect(math.isclose(out["fn"], fn, rel_tol=1e-12, abs_tol=1e-15)
               and math.isclose(out["fp"], fp, rel_tol=1e-12, abs_tol=1e-15),
               "classification_rates disagree with the labels and the ground truth")

        strips = out["strips"]
        members = np.concatenate(strips) if strips else np.empty(0, dtype=np.int64)
        expect(len(np.unique(members)) == len(members), "boundary strips overlap")
        expect(np.array_equal(np.sort(members), np.flatnonzero(labels)),
               "boundary strips do not cover exactly the labelled nodes")
        idx = np.flatnonzero(labels)
        count, _ = csgraph.connected_components(adjacency(net)[idx][:, idx], directed=False)
        expect(len(strips) == count,
               f"{len(strips)} strips, but the labelled subgraph has {count} components")

        acc = out["acc"]
        expect(acc.total_messages == sum(r.messages for r in trace.rounds)
               and acc.total_payload == sum(r.payload_units for r in trace.rounds),
               "message_accounting totals differ from the sums over trace.rounds")
        for phase, (msgs, payload) in acc.per_phase.items():
            rounds = [r for r in trace.rounds if r.phase == phase]
            expect(msgs == sum(r.messages for r in rounds)
                   and payload == sum(r.payload_units for r in rounds),
                   f"message_accounting phase {phase} differs from trace.rounds")

    def extras(self, outs):
        return [("fn_rate", float(np.median([o["fn"] for o in outs])), "fraction"),
                ("fp_rate", float(np.median([o["fp"] for o in outs])), "fraction")]

    def layer_state(self, inputs, out):
        return {k: out[k] for k in ("net", "labels", "trace", "strips", "acc")}


class Paths(Workload):
    """The four path measures on the criterion-8 network."""
    name = "paths1500"
    alias = "suite_s"

    def prepare(self, seed):
        return {"seed": seed, "net": bk.build_network(self.region, self.n, RADIUS, seed)}

    def task(self, inputs):
        return path_measures(self.tr, inputs["net"])

    def check(self, inputs, out):
        net = inputs["net"]
        a = adjacency(net)
        reach = (a + a @ a).tocsr()
        within2 = np.diff(reach.indptr) - (reach.diagonal() != 0)
        expect(np.array_equal(out["khop"], within2),
               "khop_size(2) differs from the off-diagonal row nnz of A + A^2")
        # A is symmetric, so the directed search gives the same distances, faster
        dist = csgraph.shortest_path(a, directed=True, unweighted=True)
        pairs = np.isfinite(dist) & (dist > 0)
        want = float((dist[pairs] - 1.0).sum())
        got = float(out["betweenness"].sum())
        expect(math.isclose(got, want, rel_tol=1e-9),
               f"sum of betweenness {got!r} != sum of (d - 1) over ordered pairs {want!r}")
        s, b, r = out["stress"], out["betweenness"], out["rstress"]
        expect(np.all(b >= 0) and np.all(s >= b),
               "stress >= betweenness >= 0 fails (a wrapped int64 reads negative)")
        expect(np.all(r >= 0) and np.all(r <= s), "0 <= restricted_stress <= stress fails")

    def layer_state(self, inputs, out):
        return {"net": inputs["net"], "paths": (inputs["net"], out)}


class Cli(Workload):
    """The desk20k operating point driven through the CLI, one process a command."""
    name = "cli20k"
    alias = "cli_chain_s"
    work_in_children = True

    def __init__(self, *args):
        super().__init__(*args)
        self.refs = {}
        self.count = 0

    def prepare(self, seed):
        d = self.workdir / f"task{self.count}"
        self.count += 1
        d.mkdir()
        return {"seed": seed, "dir": d}

    def commands(self, d, seed):
        """The five CLI argument lists of one task, in CLI_STEPS order."""
        region = str(self.region_file)
        net, cls = str(d / "net.txt"), str(d / "cls.csv")
        return [
            ["generate", "--region", region, "--nodes", str(self.n),
             "--radius", repr(RADIUS), "--seed", str(seed), "--out", net],
            ["centrality", "--network", net, "--measure", "st", "--out", str(d / "st.csv")],
            ["protocol", "--network", net, "--region", region, "--out", cls,
             "--trace", str(d / "rounds.csv")],
            ["render", "--network", net, "--classification", cls,
             "--region", region, "--out", str(d / "map.svg")],
            ["theory", "dist", "--s", repr(THEORY_S), "--mu", repr(THEORY_MU),
             "--samples", str(self.samples), "--seed", str(seed), "--out", str(d / "dist.csv")],
        ]

    def task(self, inputs):
        times = {}
        for step, argv in zip(CLI_STEPS, self.commands(inputs["dir"], inputs["seed"])):
            t0 = perf_counter()
            self.tr.call("cli." + step, self.python, ["-m", "boundarykit.cli", *argv])
            times[step] = perf_counter() - t0
        return {"times": times}

    def reference(self, seed):
        """In-process results at the task's seed, computed once per seed."""
        if seed not in self.refs:
            c = self.tr.call
            net = c("netgen.build_network", bk.build_network, self.region, self.n, RADIUS, seed)
            labels, trace = c("protocol.run_protocol", bk.run_protocol, net, bk.ProtocolConfig())
            dist = c("theory.sample_st", bk.sample_st, THEORY_S, THEORY_MU, self.samples, seed)
            self.refs[seed] = {"net": net, "labels": labels, "trace": trace, "dist": dist}
        return self.refs[seed]

    def check(self, inputs, out):
        d = inputs["dir"]
        ref = self.reference(inputs["seed"])
        net = ref["net"]
        pos, indptr, indices = read_network(d / "net.txt")
        expect(np.array_equal(pos, net.positions), "net.txt positions differ from build_network")
        expect(np.array_equal(indptr, net.indptr) and np.array_equal(indices, net.indices),
               "net.txt edges differ from build_network")
        # st = stress1 / C(d, 2), against run_protocol's stress1, which desk20k
        # checks against the sparse reference; an in-process normalized_st
        # would recompute stress1 and add seconds to every run.
        expect_st(read_column(d / "st.csv", 1, float), net.degrees.astype(np.int64),
                  ref["trace"].stress1, "st.csv * C(d,2) differs from run_protocol's stress1")
        labels = read_column(d / "cls.csv", 5, str) == "boundary"
        expect(np.array_equal(labels, ref["labels"]), "cls.csv labels differ from run_protocol")
        rounds = [tuple(int(x) for x in row.split(","))
                  for row in (d / "rounds.csv").read_text().splitlines()[1:]]
        expect(rounds == [(r.round_no, r.phase, r.messages, r.payload_units)
                          for r in ref["trace"].rounds],
               "rounds.csv differs from the run_protocol trace")
        circles = (d / "map.svg").read_text().count("<circle")
        expect(circles == net.n, f"map.svg has {circles} <circle> elements, want {net.n}")
        counts = read_column(d / "dist.csv", 2, int)
        expect(counts.sum() == self.samples, "dist.csv counts do not sum to the sample count")
        expect(np.array_equal(counts, ref["dist"].counts), "dist.csv differs from sample_st")

    def extras(self, outs):
        return [(f"cli_{step}_s", float(np.median([o["times"][step] for o in outs])), "s")
                for step in CLI_STEPS]

    def layer_state(self, inputs, out):
        ref = self.reference(inputs["seed"])
        return {"net": ref["net"], "labels": ref["labels"], "trace": ref["trace"]}


def read_network(path):
    """Positions and sorted CSR of a network file, parsed with numpy."""
    with open(path, encoding="utf-8") as fh:
        n = int(fh.readline().split()[0])
        nodes = [fh.readline() for _ in range(n)]
        edges = fh.read()
    table = np.array(" ".join(nodes).split(), dtype=float).reshape(n, 3)
    expect(np.array_equal(table[:, 0], np.arange(n)), f"{path}: node ids are not 0..n-1")
    uv = np.array(edges.split(), dtype=np.int64).reshape(-1, 2)
    ones = np.ones(len(uv), dtype=np.int32)
    a = sp.coo_matrix((ones, (uv[:, 0], uv[:, 1])), shape=(n, n))
    a = (a + a.T).tocsr()
    a.sort_indices()
    expect(len(a.data) == 0 or a.data.max() == 1, f"{path}: duplicate edges")
    return table[:, 1:], a.indptr, a.indices


def read_column(path, column, dtype):
    """One column of a CSV written by the CLI, without its header lines."""
    rows = [line for line in Path(path).read_text().splitlines()
            if line and not line.startswith(("#", "node_id", "bin_low"))]
    return np.array([row.split(",")[column] for row in rows], dtype=dtype)


def layer_metrics(wl, seed, state):
    """Per-layer metrics of the traced run.

    A time comes from the span of task 0, else from a check's span,
    else from a probe: one extra call on the workload's network after the
    task.  Path measures the workload never calls are probed on the
    smoke-size paths network, since at 20k nodes they would take hours.
    """
    tr = wl.tr
    tr.task = "probe"
    c = tr.call
    net, region = state["net"], wl.region

    def probe(name, fn, *args):
        """Call ``fn`` under a span unless task 0 or a check already timed it."""
        if tr.seconds(name) is None:
            c(name, fn, *args)

    c("geometry.sample_uniform", bk.sample_uniform, region, net.n, seed)
    probe("netgen.build_network", bk.build_network, region, net.n, RADIUS, seed)
    c("netgen.adjacency", bk.adjacency_from_positions, net.positions, net.radius)
    probe("netgen.ground_truth", bk.ground_truth, net)
    netfile = wl.workdir / "probe-net.txt"
    c("netgen.save_network", bk.save_network, net, netfile)
    c("netgen.load_network", bk.load_network, netfile)
    probe("centrality.normalized_st", bk.normalized_st, net)
    c("centrality.stress1", bk.stress1, net)
    if state.get("trace") is None:
        labels, trace = c("protocol.run_protocol", bk.run_protocol, net, bk.ProtocolConfig())
    else:
        labels, trace = state["labels"], state["trace"]
    strips = state.get("strips")
    if strips is None:
        strips = c("protocol.boundary_strips", bk.boundary_strips, net, labels)
    acc = state.get("acc")
    if acc is None:
        acc = c("protocol.accounting", bk.message_accounting, trace)
    probe("theory.sample_st", bk.sample_st, THEORY_S, THEORY_MU, wl.samples, seed)
    svg = wl.workdir / "probe-map.svg"
    c("render.render_classification", bk.render_classification, net, labels, svg,
      region=region)
    c("cli.startup", wl.python, ["-c", "import boundarykit"])
    if "paths" in state:
        pnet, pout = state["paths"]
    else:
        pn, pside, phole = SIZES["smoke"]["paths"]
        pnet = bk.build_network(bk.square_with_hole(pside, phole), pn, RADIUS, seed)
        pout = path_measures(tr, pnet)

    sec = tr.seconds
    deg = net.degrees.astype(np.int64)
    xmin, ymin, xmax, ymax = region.bounding_box()
    lam = THEORY_MU * bk.clipped_disk_area(THEORY_S) / math.pi
    pdist = csgraph.shortest_path(adjacency(pnet), directed=True, unweighted=True)
    levels = np.where(np.isfinite(pdist), pdist, -1.0).max(axis=1) + 1.0
    main_component = max(trace.components, key=lambda ci: ci.size)
    metrics = {
        "geometry.sample_uniform_s": sec("geometry.sample_uniform"),
        "geometry.accept_ratio": bk.area(region) / ((xmax - xmin) * (ymax - ymin)),
        "netgen.build_network_s": sec("netgen.build_network"),
        "netgen.adjacency_s": sec("netgen.adjacency"),
        "netgen.ground_truth_s": sec("netgen.ground_truth"),
        "netgen.save_network_s": sec("netgen.save_network"),
        "netgen.load_network_s": sec("netgen.load_network"),
        "netgen.file_bytes": netfile.stat().st_size,
        "netgen.n": net.n,
        "netgen.m": len(net.indices) // 2,
        "centrality.normalized_st_s": sec("centrality.normalized_st"),
        "centrality.stress1_s": sec("centrality.stress1"),
        "centrality.wedges": int((deg * (deg - 1) // 2).sum()),
        "centrality.gather": int((deg * deg).sum()),
        "centrality.stress_s": sec("centrality.stress"),
        "centrality.betweenness_s": sec("centrality.betweenness"),
        "centrality.rstress_s": sec("centrality.rstress"),
        "centrality.khop_s": sec("centrality.khop"),
        "centrality.edge_visits": pnet.n * len(pnet.indices),
        "centrality.bfs_levels_mean": float(levels.mean()),
        "centrality.workers": resolve_workers(),
        "centrality.stress_max_log2": math.log2(max(1, int(pout["stress"].max()))),
        "protocol.run_protocol_s": sec("protocol.run_protocol"),
        "protocol.run_protocol_self_s": (sec("protocol.run_protocol")
                                         - sec("centrality.stress1")),
        "protocol.boundary_strips_s": sec("protocol.boundary_strips"),
        "protocol.accounting_s": sec("protocol.accounting"),
        "protocol.rounds": len(trace.rounds),
        "protocol.messages": acc.total_messages,
        "protocol.payload": acc.total_payload,
        "protocol.scaled_payload": acc.scaled_payload,
        "protocol.components": len(trace.components),
        "protocol.dhat": main_component.dhat,
        "protocol.declared": int(trace.declared.sum()),
        "protocol.filtered": int(trace.filtered.sum()),
        "protocol.strips": len(strips),
        "protocol.top2_coverage": (sum(len(s) for s in strips[:2])
                                   / max(1, int(labels.sum()))),
        "theory.sample_st_s": sec("theory.sample_st"),
        "theory.pair_tests": wl.samples * (lam * lam + lam),
        "render.render_classification_s": sec("render.render_classification"),
        "render.svg_bytes": svg.stat().st_size,
        "cli.startup_s": sec("cli.startup"),
    }
    for phase, (msgs, payload) in acc.per_phase.items():
        metrics[f"protocol.phase{phase}.messages"] = msgs
        metrics[f"protocol.phase{phase}.payload"] = payload
    return metrics


WORKLOADS = {w.name: w for w in (Desk, Paths, Cli)}
