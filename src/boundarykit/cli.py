"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 numerical
failure, such as a stress count beyond int64.  Thread counts come from
the BOUNDARYKIT_WORKERS environment variable (default: available cores).

Each subcommand imports only the submodules it runs, so a process pays the
start-up of its own subcommand: ``theory`` and ``render`` load no scipy.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import (BinningMismatchError, FileFormatError, InvalidRegionError,
                     NumericalError, SamplingError)

# the choices of --measure and --rule, spelled out so that parsing imports
# neither centrality nor protocol; a test keeps them equal to theirs
_MEASURES = ("betweenness", "khop", "rstress", "st", "stress", "stress1")
_RULES = ("core", "one-hop")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(prog="boundarykit",
                description="Boundary recognition in unit-disk sensor networks.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[], help="sample a network over a region")
    g.add_argument("--region", required=True, help="region file")
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--radius", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True, help="network dump destination")

    c = sub.add_parser("centrality", help="compute a centrality measure")
    c.add_argument("--network", required=True, help="network dump file")
    c.add_argument("--measure", required=True,
                   choices=_MEASURES)
    c.add_argument("--k", type=int, help="ball radius for khop")
    c.add_argument("--delta", type=int, help="ball radius for rstress")
    c.add_argument("--out", required=True, help="CSV destination")

    r = sub.add_parser("protocol", help="run the boundary protocol")
    r.add_argument("--network", required=True)
    r.add_argument("--region", help="region file for ground-truth rates")
    r.add_argument("--theta", type=float, default=1.0 / 3.0)
    r.add_argument("--rule", choices=_RULES, default="core",
                   help="decision rule of phase 6 (one-hop suits low density)")
    r.add_argument("--filter", action=argparse.BooleanOptionalAction, default=True)
    r.add_argument("--min-boundary-neighbors", type=int, default=2)
    r.add_argument("--root", type=int, help="explicit root id (default min-id election)")
    r.add_argument("--band", type=float, help="ground-truth band width (default radius)")
    r.add_argument("--out", required=True, help="classification CSV destination")
    r.add_argument("--trace", help="round trace CSV destination")

    t = sub.add_parser("theory", help="interior constant and st distributions")
    tsub = t.add_subparsers(dest="theory_command", required=True)
    tsub.add_parser("sigma", help="print the interior expectation of st")
    d = tsub.add_parser("dist", help="Monte-Carlo st distribution")
    d.add_argument("--s", type=float, required=True, help="boundary distance in radii")
    d.add_argument("--mu", type=float, required=True, help="expected interior degree")
    d.add_argument("--samples", type=int, default=100_000)
    d.add_argument("--seed", type=int, required=True)
    d.add_argument("--out", required=True, help="distribution CSV destination")

    v = sub.add_parser("render", help="render a network to SVG")
    v.add_argument("--network", required=True)
    src = v.add_mutually_exclusive_group(required=True)
    src.add_argument("--centrality", help="centrality CSV to color by")
    src.add_argument("--classification", help="classification CSV to color by")
    v.add_argument("--region", help="draw the region outline")
    v.add_argument("--point-size", type=float)
    v.add_argument("--out", required=True, help="SVG destination")
    return p


def _cmd_generate(args):
    from . import geometry, netgen

    region = geometry.load_region(args.region)
    net = netgen.build_network(region, args.nodes, args.radius, args.seed)
    netgen.save_network(net, args.out)
    a = geometry.area(region)
    m = len(net.indices) // 2
    mean_deg = float(net.degrees.mean()) if net.n else 0.0
    print(f"wrote {args.out}: n={net.n} m={m} radius={net.radius}")
    print(f"region area {a:.6g}, expected interior degree "
          f"{netgen.expected_degree(a, net.n, net.radius):.4g}, "
          f"empirical mean degree {mean_deg:.4g}")
    return 0


def _cmd_centrality(args):
    from . import centrality, netgen

    net = netgen.load_network(args.network)
    if args.measure in ("stress", "betweenness") and net.n > 50_000:
        print(f"warning: {args.measure} on {net.n} nodes will be slow "
              "(shortest paths from every node)", file=sys.stderr)
    result = centrality.compute(net, args.measure, k=args.k, delta=args.delta)
    result.to_csv(args.out)
    vals = result.values
    summary = (f" min={vals.min():.6g} mean={vals.mean():.6g} max={vals.max():.6g}"
               if len(vals) else "")
    print(f"wrote {args.out}: measure={args.measure} n={net.n}{summary}")
    return 0


def _cmd_protocol(args):
    from . import geometry, netgen, protocol

    region = geometry.load_region(args.region) if args.region else None
    net = netgen.load_network(args.network, region=region)
    config = protocol.ProtocolConfig(
        theta=args.theta, rule=args.rule, filter_enabled=args.filter,
        filter_min_boundary_neighbors=args.min_boundary_neighbors,
        root=args.root)
    labels, trace = protocol.run_protocol(net, config)
    protocol.classification_to_csv(net, trace, args.out)
    if args.trace:
        protocol.trace_to_csv(trace, args.trace)
        print(f"wrote {args.trace}: {len(trace.rounds)} rounds")
    acct = protocol.message_accounting(trace)
    print(f"wrote {args.out}: n={trace.n} boundary={int(labels.sum())} "
          f"filtered={int(trace.filtered.sum())}")
    for ci in trace.components:
        print(f"component root={ci.root} size={ci.size} "
              f"dhat={ci.dhat} T={ci.threshold:.6g}")
    if trace.multi_component:
        print(f"note: network has {len(trace.components)} components")
    print(f"messages={acct.total_messages} payload={acct.total_payload} "
          f"payload/node={acct.payload_per_node:.4g}")
    if region is not None:
        truth = netgen.ground_truth(net, band=args.band)
        fn, fp = protocol.classification_rates(labels, truth)
        print(f"against band {args.band if args.band else net.radius:.4g}: "
              f"false_negative_rate={fn:.4f} false_positive_rate={fp:.4f}")
    return 0


def _cmd_theory(args):
    from . import theory

    if args.theory_command == "sigma":
        print(f"{theory.sigma_interior():.10f}")
        return 0
    dist = theory.sample_st(args.s, args.mu, args.samples, args.seed)
    dist.to_csv(args.out)
    print(f"wrote {args.out}: s={dist.s:.4g} mu={dist.mu:.4g} "
          f"samples={dist.samples} mean={dist.mean:.6f} stddev={dist.stddev:.6f}")
    return 0


_CLASSES = {"interior": 0.0, "boundary": 1.0}


def _load_values_csv(path, n):
    """Per-node values from a centrality CSV (node_id,value) or a
    classification CSV (boundary 1, interior 0).  A bad id, value or class
    word, or a node given twice, raises FileFormatError at its line."""
    values = np.full(n, np.nan)  # nan until the node's line is read
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def fail(msg, line):
        raise FileFormatError(msg, line=line, path=path)

    for lineno, row in enumerate(lines, start=1):
        s = row.strip()
        if not s or s.startswith("#") or s.startswith("node_id"):
            continue
        parts = s.split(",")
        try:
            idx = int(parts[0])
        except ValueError:
            fail(f"bad row {row!r}", lineno)
        if not (0 <= idx < n):
            fail(f"node id {idx} out of range", lineno)
        if not math.isnan(values[idx]):
            fail(f"node id {idx} given twice", lineno)
        if len(parts) == 2:          # centrality: node_id,value
            try:
                value = float(parts[1])
            except ValueError:
                fail(f"bad value in row {row!r}", lineno)
            if not math.isfinite(value):
                fail(f"non-finite value in row {row!r}", lineno)
        elif len(parts) >= 6:        # classification export
            value = _CLASSES.get(parts[5])
            if value is None:
                fail(f"unknown classification {parts[5]!r}", lineno)
        else:
            fail(f"unrecognized row {row!r}", lineno)
        values[idx] = value
    if np.any(np.isnan(values)):
        missing = int(np.isnan(values).sum())
        raise FileFormatError(f"{missing} node values missing", path=path)
    return values


def _cmd_render(args):
    from . import geometry, netgen, render

    region = geometry.load_region(args.region) if args.region else None
    net = netgen.load_network(args.network, region=region)
    if args.centrality:
        values = _load_values_csv(args.centrality, net.n)
        render.render_centrality(net, values, args.out, region=region,
                                 point_size=args.point_size)
    else:
        values = _load_values_csv(args.classification, net.n)
        render.render_classification(net, values > 0.5, args.out, region=region,
                                     point_size=args.point_size)
    print(f"wrote {args.out}: {net.n} nodes")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "centrality": _cmd_centrality,
    "protocol": _cmd_protocol,
    "theory": _cmd_theory,
    "render": _cmd_render,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (FileFormatError, InvalidRegionError, FileNotFoundError, IsADirectoryError,
            PermissionError) as e:
        print(f"boundarykit: input error: {e}", file=sys.stderr)
        return 2
    except (NumericalError, SamplingError) as e:
        print(f"boundarykit: numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, BinningMismatchError) as e:
        print(f"boundarykit: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
