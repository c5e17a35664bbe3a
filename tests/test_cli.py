"""End-to-end CLI checks, driving main() in process."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boundarykit as bk
from boundarykit.cli import main

import oracles

REGION = "4\n0.0 0.0\n4.0 0.0\n4.0 4.0\n0.0 4.0\n0\n"
TRIANGLE_NET = "3 1.0\n0 0.0 0.0\n1 1.0 0.0\n2 0.5 0.5\n0 1\n0 2\n1 2\n"
PATH4_NET = (
    "4 1.0\n0 0.0 0.0\n1 0.9 0.0\n2 1.8 0.0\n3 2.7 0.0\n0 1\n1 2\n2 3\n"
)


@pytest.fixture
def region_file(tmp_path):
    p = tmp_path / "region.txt"
    p.write_text(REGION)
    return p


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text(TRIANGLE_NET)
    return p


# -- generate ----------------------------------------------------------------


def test_generate_round_trip(tmp_path, region_file, capsys):
    out = tmp_path / "net.txt"
    rc = main(["generate", "--region", str(region_file), "--nodes", "100",
               "--radius", "0.2", "--seed", "7", "--out", str(out)])
    assert rc == 0
    net = bk.load_network(out)
    assert net.n == 100
    assert "100" in capsys.readouterr().out
    # rerun is byte identical
    out2 = tmp_path / "net2.txt"
    main(["generate", "--region", str(region_file), "--nodes", "100",
          "--radius", "0.2", "--seed", "7", "--out", str(out2)])
    assert out.read_text() == out2.read_text()


def test_generate_zero_nodes(tmp_path, region_file):
    out = tmp_path / "net.txt"
    assert main(["generate", "--region", str(region_file), "--nodes", "0",
                 "--radius", "0.2", "--seed", "1", "--out", str(out)]) == 0
    assert bk.load_network(out).n == 0


def test_generate_seed_mandatory(tmp_path, region_file, capsys):
    rc = main(["generate", "--region", str(region_file), "--nodes", "5",
               "--radius", "0.2", "--out", str(tmp_path / "x.txt")])
    assert rc == 1


def test_generate_malformed_region(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4\n0 0\n1 0\noops\n0 1\n0\n")
    rc = main(["generate", "--region", str(bad), "--nodes", "5",
               "--radius", "0.2", "--seed", "1", "--out", str(tmp_path / "x.txt")])
    assert rc == 2
    assert "line 4" in capsys.readouterr().err


def test_generate_region_count_beyond_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("99999999999999\n0 0\n")
    rc = main(["generate", "--region", str(bad), "--nodes", "5",
               "--radius", "0.2", "--seed", "1", "--out", str(tmp_path / "x.txt")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_generate_missing_region(tmp_path):
    rc = main(["generate", "--region", str(tmp_path / "nope.txt"), "--nodes", "5",
               "--radius", "0.2", "--seed", "1", "--out", str(tmp_path / "x.txt")])
    assert rc == 2


def test_generate_bad_params(tmp_path, region_file):
    rc = main(["generate", "--region", str(region_file), "--nodes", "-5",
               "--radius", "0.2", "--seed", "1", "--out", str(tmp_path / "x.txt")])
    assert rc == 1
    for radius in ("-1", "nan", "inf"):
        rc = main(["generate", "--region", str(region_file), "--nodes", "5",
                   "--radius", radius, "--seed", "1", "--out", str(tmp_path / "x.txt")])
        assert rc == 1


# -- centrality --------------------------------------------------------------


def read_values(path):
    lines = path.read_text().splitlines()
    return [float(l.split(",")[1]) for l in lines[2:]]


def test_centrality_stress(tmp_path):
    net = tmp_path / "p4.txt"
    net.write_text(PATH4_NET)
    out = tmp_path / "vals.csv"
    assert main(["centrality", "--network", str(net), "--measure", "stress",
                 "--out", str(out)]) == 0
    assert read_values(out) == [0.0, 4.0, 4.0, 0.0]


def test_centrality_st(triangle_file, tmp_path):
    out = tmp_path / "vals.csv"
    assert main(["centrality", "--network", str(triangle_file),
                 "--measure", "st", "--out", str(out)]) == 0
    assert read_values(out) == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("measure", ["st", "stress", "betweenness", "khop", "rstress"])
def test_centrality_empty_network(tmp_path, capsys, measure):
    # a network of no nodes is valid input; its summary has no min/mean/max
    net = tmp_path / "empty.txt"
    net.write_text("0 1.0\n")
    out = tmp_path / "vals.csv"
    assert main(["centrality", "--network", str(net), "--measure", measure,
                 "--k", "2", "--delta", "2", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["node_id,value"]
    printed = capsys.readouterr().out
    assert f"measure={measure} n=0" in printed and "min=" not in printed


def test_centrality_nonfinite_network_exits_2(tmp_path, capsys):
    net = tmp_path / "net.txt"
    net.write_text("2 1.0\n0 0.0 inf\n1 nan 0.0\n0 1\n")
    rc = main(["centrality", "--network", str(net), "--measure", "st",
               "--out", str(tmp_path / "st.csv")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["centrality", "--measure", "st"], ["protocol"]])
def test_self_loop_network_exits_2_at_its_line(tmp_path, capsys, command):
    net = tmp_path / "net.txt"
    net.write_text("3 1.0\n0 0.0 0.0\n1 0.5 0.0\n2 1.0 0.0\n0 1\n1 1\n1 2\n")
    rc = main([*command, "--network", str(net), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "net.txt:line 6: edges must satisfy u < v, got (1, 1)" in capsys.readouterr().err


def test_centrality_khop_requires_k(triangle_file, tmp_path):
    rc = main(["centrality", "--network", str(triangle_file),
               "--measure", "khop", "--out", str(tmp_path / "v.csv")])
    assert rc == 1


def test_centrality_unknown_measure(triangle_file, tmp_path):
    rc = main(["centrality", "--network", str(triangle_file),
               "--measure", "pagerank", "--out", str(tmp_path / "v.csv")])
    assert rc == 1


def test_centrality_khop(tmp_path):
    net = tmp_path / "p4.txt"
    net.write_text(PATH4_NET)
    out = tmp_path / "vals.csv"
    assert main(["centrality", "--network", str(net), "--measure", "khop",
                 "--k", "1", "--out", str(out)]) == 0
    assert read_values(out) == [1.0, 2.0, 2.0, 1.0]


def test_centrality_stress_overflow_exits_3(tmp_path, capsys):
    # a source and 33 layers of 4: 4**32 shortest paths reach the last layer
    adj = oracles.layered_graph(4, 33)
    lines = [f"{len(adj)} 1.0"]
    lines += [f"{v} {float((v + 3) // 4)!r} {float(v % 4)!r}" for v in range(len(adj))]
    lines += [f"{u} {v}" for u in range(len(adj)) for v in adj[u] if u < v]
    netfile = tmp_path / "layers.txt"
    netfile.write_text("\n".join(lines) + "\n")
    out = tmp_path / "v.csv"
    rc = main(["centrality", "--network", str(netfile), "--measure", "stress",
               "--out", str(out)])
    assert rc == 3
    assert "int64" in capsys.readouterr().err
    assert not out.exists()


# -- protocol ----------------------------------------------------------------


def test_protocol_triangle(triangle_file, tmp_path, capsys):
    out = tmp_path / "cls.csv"
    trace = tmp_path / "trace.csv"
    rc = main(["protocol", "--network", str(triangle_file),
               "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "dhat" in text or "threshold" in text.lower()
    rows = out.read_text().splitlines()
    assert len(rows) == 4
    assert all(r.split(",")[5] == "boundary" for r in rows[1:])
    assert trace.read_text().startswith("round,phase")


def test_protocol_with_region_prints_rates(tmp_path, region_file, capsys):
    netfile = tmp_path / "net.txt"
    main(["generate", "--region", str(region_file), "--nodes", "300",
          "--radius", "0.6", "--seed", "3", "--out", str(netfile)])
    capsys.readouterr()
    rc = main(["protocol", "--network", str(netfile), "--region", str(region_file),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "false_negative_rate=" in text
    assert "false_positive_rate=" in text
    for band in ("nan", "inf", "0"):
        rc = main(["protocol", "--network", str(netfile), "--region", str(region_file),
                   "--band", band, "--out", str(tmp_path / "bad.csv")])
        assert rc == 1
        assert "band width must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "bad.csv").exists()


def test_protocol_band_needs_region(triangle_file, tmp_path, capsys):
    # a band without a region sets no ground truth, valid or not
    for band in ("0.5", "nan"):
        out, trace = tmp_path / "c.csv", tmp_path / "t.csv"
        rc = main(["protocol", "--network", str(triangle_file), "--band", band,
                   "--out", str(out), "--trace", str(trace)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "--band" in captured.err and "--region" in captured.err
        assert captured.out == ""
        assert not out.exists() and not trace.exists()


def test_protocol_rule_one_hop(tmp_path, region_file):
    netfile = tmp_path / "net.txt"
    main(["generate", "--region", str(region_file), "--nodes", "300",
          "--radius", "0.6", "--seed", "3", "--out", str(netfile)])
    net = bk.load_network(netfile)
    for rule in ("one-hop", "core"):
        out = tmp_path / f"{rule}.csv"
        assert main(["protocol", "--network", str(netfile), "--rule", rule,
                     "--out", str(out)]) == 0
        labels, _ = bk.run_protocol(net, bk.ProtocolConfig(rule=rule))
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[5] == "boundary" for r in rows] == labels.tolist()
    one_hop = (tmp_path / "one-hop.csv").read_text()
    assert one_hop != (tmp_path / "core.csv").read_text()
    assert main(["protocol", "--network", str(netfile), "--out", str(out)]) == 0
    assert out.read_text() == (tmp_path / "core.csv").read_text()  # default rule


def test_protocol_prints_zero_threshold_unsigned(tmp_path, capsys):
    # a pair (dhat 1) and an isolated node (dhat 0) both have T = 0
    netfile = tmp_path / "net.txt"
    netfile.write_text("3 1.0\n0 0.0 0.0\n1 0.5 0.0\n2 5.0 5.0\n0 1\n")
    assert main(["protocol", "--network", str(netfile), "--out", str(tmp_path / "c.csv")]) == 0
    text = capsys.readouterr().out
    assert "root=0 size=2 dhat=1 T=0\n" in text and "root=2 size=1 dhat=0 T=0\n" in text
    assert "T=-0" not in text


def test_protocol_theta_out_of_range(triangle_file, tmp_path):
    rc = main(["protocol", "--network", str(triangle_file), "--theta", "0.5",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1


def test_protocol_no_filter(triangle_file, tmp_path):
    rc = main(["protocol", "--network", str(triangle_file), "--min-boundary-neighbors", "0",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 0


@pytest.mark.parametrize("option", ["--filter", "--no-filter"])
def test_protocol_filter_switch_is_gone(triangle_file, tmp_path, capsys, option):
    # --min-boundary-neighbors alone sets the filter; 0 turns it off
    out, trace = tmp_path / "c.csv", tmp_path / "r.csv"
    assert main(["protocol", "--network", str(triangle_file), option,
                 "--out", str(out), "--trace", str(trace)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


def test_protocol_defaults_are_the_library_defaults(tmp_path, region_file):
    netfile = tmp_path / "net.txt"
    main(["generate", "--region", str(region_file), "--nodes", "300",
          "--radius", "0.6", "--seed", "3", "--out", str(netfile)])
    net = bk.load_network(netfile)

    def run(name, *options):
        out, trace = tmp_path / f"{name}.csv", tmp_path / f"{name}-rounds.csv"
        assert main(["protocol", "--network", str(netfile), *options,
                     "--out", str(out), "--trace", str(trace)]) == 0
        return out.read_text(), trace.read_text()

    def expected(name, config):
        labels, trace = bk.run_protocol(net, config)
        bk.trace_to_csv(trace, tmp_path / f"{name}-want.csv")
        return labels.tolist(), (tmp_path / f"{name}-want.csv").read_text()

    def labels_of(text):
        return [r.split(",")[5] == "boundary" for r in text.splitlines()[1:]]

    plain = run("plain")
    assert (labels_of(plain[0]), plain[1]) == expected("plain", None)
    assert run("spelled", "--theta", repr(1.0 / 3.0), "--rule", "core",
               "--min-boundary-neighbors", "2") == plain
    # a zero option is passed on, and changes the output here
    for base, option, config in (
            ([], ["--min-boundary-neighbors", "0"], {"filter_min_boundary_neighbors": 0}),
            (["--rule", "one-hop"], ["--min-boundary-neighbors", "0"],
             {"rule": "one-hop", "filter_min_boundary_neighbors": 0})):
        got = run("given", *base, *option)
        assert got != run("left", *base)
        assert (labels_of(got[0]), got[1]) == expected("given", bk.ProtocolConfig(**config))


def test_protocol_parser_copies_no_default():
    # an option not given reaches ProtocolConfig as its own default
    from boundarykit import cli
    args = cli._build_parser().parse_args(["protocol", "--network", "n", "--out", "o"])
    assert {k for k, v in vars(args).items() if v is not None} == {"command", "network", "out"}


# -- theory ------------------------------------------------------------------


def test_theory_sigma(capsys):
    assert main(["theory", "sigma"]) == 0
    assert capsys.readouterr().out.strip() == "0.4134966716"


def test_theory_dist(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["theory", "dist", "--s", "0.0", "--mu", "20", "--samples", "2000",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    d = bk.StDistribution.from_csv(out)
    assert d.samples == 2000
    assert d.s == 0.0


@pytest.mark.parametrize("s, mu, message", [
    ("nan", "20", "boundary distance must be >= 0"),  # once numpy's "lam < 0 or lam is NaN"
    ("0.0", "inf", "mu must be finite"),              # once numpy's "lam value too large"
    ("0.0", "nan", "mu must be positive"),
])
def test_theory_dist_nonfinite_exits_1(tmp_path, capsys, s, mu, message):
    out = tmp_path / "d.csv"
    rc = main(["theory", "dist", "--s", s, "--mu", mu, "--samples", "100",
               "--seed", "1", "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert f"boundarykit: error: {message}" in capsys.readouterr().err


def test_theory_dist_seed_mandatory(tmp_path):
    rc = main(["theory", "dist", "--s", "0.0", "--mu", "20",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 1


def test_theory_dist_means_ordered(tmp_path):
    b = tmp_path / "b.csv"
    i = tmp_path / "i.csv"
    main(["theory", "dist", "--s", "0.0", "--mu", "20", "--samples", "4000",
          "--seed", "6", "--out", str(b)])
    main(["theory", "dist", "--s", "1.5", "--mu", "20", "--samples", "4000",
          "--seed", "7", "--out", str(i)])
    assert (bk.StDistribution.from_csv(b).mean
            < bk.StDistribution.from_csv(i).mean)


# -- render ------------------------------------------------------------------


def test_render_from_centrality(triangle_file, tmp_path):
    vals = tmp_path / "v.csv"
    main(["centrality", "--network", str(triangle_file), "--measure", "stress1",
          "--out", str(vals)])
    svg = tmp_path / "out.svg"
    rc = main(["render", "--network", str(triangle_file),
               "--centrality", str(vals), "--out", str(svg)])
    assert rc == 0
    assert svg.read_text().count("<circle") == 3
    for size in ("nan", "-1"):
        rc = main(["render", "--network", str(triangle_file), "--centrality", str(vals),
                   "--point-size", size, "--out", str(tmp_path / "bad.svg")])
        assert rc == 1
        assert not (tmp_path / "bad.svg").exists()


def test_render_from_classification(triangle_file, tmp_path, region_file):
    cls = tmp_path / "c.csv"
    main(["protocol", "--network", str(triangle_file), "--out", str(cls)])
    svg = tmp_path / "out.svg"
    rc = main(["render", "--network", str(triangle_file),
               "--classification", str(cls), "--region", str(region_file),
               "--out", str(svg)])
    assert rc == 0
    text = svg.read_text()
    assert text.count("<circle") == 3
    assert "<path" in text


def test_render_refuses_the_other_csv_kind(triangle_file, tmp_path, capsys):
    st, cls = tmp_path / "st.csv", tmp_path / "cls.csv"
    main(["centrality", "--network", str(triangle_file), "--measure", "st", "--out", str(st)])
    main(["protocol", "--network", str(triangle_file), "--out", str(cls)])
    capsys.readouterr()
    # each file's first row: st.csv has a comment and a header line, cls.csv a header
    for option, path, kind, line in (("--classification", st, "classification", 3),
                                     ("--centrality", cls, "centrality", 2)):
        svg = tmp_path / "o.svg"
        assert main(["render", "--network", str(triangle_file), option, str(path),
                     "--out", str(svg)]) == 2
        assert f"{path.name}:line {line}: not a {kind} row" in capsys.readouterr().err
        assert not svg.exists()


def test_render_count_mismatch(triangle_file, tmp_path):
    vals = tmp_path / "v.csv"
    vals.write_text("# measure=stress\nnode_id,value\n0,1.0\n1,2.0\n")
    rc = main(["render", "--network", str(triangle_file),
               "--centrality", str(vals), "--out", str(tmp_path / "o.svg")])
    assert rc in (1, 2)


_CLASS_HEAD = "node_id,x,y,degree,stress1,classification,filtered\n"


@pytest.mark.parametrize("option, text, line", [
    ("--centrality", "node_id,value\n0,1.0\n1,abc\n2,3.0\n", 3),
    ("--centrality", "node_id,value\n0,1.0\n1,nan\n2,3.0\n", 3),
    ("--centrality", "0,1.0\n1,inf\n2,3.0\n", 2),
    ("--centrality", "node_id,value\n0,1.0\n1,2.0\n1,2.5\n2,3.0\n", 4),
    ("--classification", _CLASS_HEAD + "0,0.0,0.0,2,0,boundary,0\n"
     "1,1.0,0.0,2,0,edge,0\n2,0.5,0.5,2,0,interior,0\n", 3),
    ("--classification", _CLASS_HEAD + "0,0.0,0.0,2,0,boundary,0\n"
     "0,0.0,0.0,2,0,interior,0\n", 3),
    # a classification row has exactly the seven fields of its header
    ("--classification", "node_id,x,y,degree,stress1,classification\n"
     "0,0.0,0.0,2,0,boundary\n1,1.0,0.0,2,0,boundary\n2,0.5,0.5,2,0,interior\n", 2),
    ("--classification", _CLASS_HEAD + "0,0.0,0.0,2,0,boundary,0\n"
     "1,1.0,0.0,2,0,boundary,0,1,2\n2,0.5,0.5,2,0,interior,0\n", 3),
])
def test_render_bad_values_exit_2_at_line(triangle_file, tmp_path, capsys, option, text, line):
    vals = tmp_path / "v.csv"
    vals.write_text(text)
    rc = main(["render", "--network", str(triangle_file),
               option, str(vals), "--out", str(tmp_path / "o.svg")])
    assert rc == 2
    assert f"v.csv:line {line}: " in capsys.readouterr().err
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("command, data, line", [
    (["centrality", "--measure", "st", "--network"], b"2 1.0\r\n0 0.0 0.0\r1 0.5 \xff\n0 1\n", 3),
    (["generate", "--nodes", "5", "--radius", "0.2", "--seed", "1", "--region"],
     b"3\r\n0 0\r1 0\n0 \xfe1\n0\n", 4),
    (["render", "--network", "tri.txt", "--centrality"],
     b"node_id,value\r\n0,1.0\r1,\xc3(\n2,3.0\n", 3),
], ids=["network", "region", "values"])
def test_undecodable_byte_exits_2_at_line(triangle_file, tmp_path, capsys, monkeypatch,
                                          command, data, line):
    # "\r\n" and a lone "\r" each end one line, as in a text-mode read
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    monkeypatch.chdir(tmp_path)  # where tri.txt is
    assert main([*command, str(bad), "--out", str(tmp_path / "out")]) == 2
    assert f"bad.txt:line {line}: " in capsys.readouterr().err


def test_render_sources_exclusive(triangle_file, tmp_path):
    rc = main(["render", "--network", str(triangle_file),
               "--centrality", "a.csv", "--classification", "b.csv",
               "--out", str(tmp_path / "o.svg")])
    assert rc == 1


def test_centrality_large_network_warns(tmp_path, capsys):
    # 50,001 isolated nodes: big enough to trip the size warning, cheap to
    # compute on
    n = 50_001
    lines = [f"{n} 0.5"]
    lines += [f"{i} {float(i)!r} 0.0" for i in range(n)]
    netfile = tmp_path / "big.txt"
    netfile.write_text("\n".join(lines) + "\n")
    out = tmp_path / "v.csv"
    rc = main(["centrality", "--network", str(netfile), "--measure", "stress",
               "--out", str(out)])
    assert rc == 0
    assert "50" in capsys.readouterr().err  # warned, but proceeded
    assert out.exists()


def test_cli_choices_match_library():
    # the parser spells the choices out so that it imports neither module
    from boundarykit import centrality, cli, protocol
    assert list(cli._MEASURES) == sorted(centrality._MEASURES)
    assert cli._RULES == protocol.RULES


def test_cli_imports_only_what_it_runs(tmp_path, modules_after):
    region = bk.square_with_hole(6.0, 2.0)
    bk.save_region(region, tmp_path / "region.txt")
    bk.save_network(bk.build_network(region, 200, 1.0, 5), tmp_path / "net.txt")

    def scipy_after(*argv):
        code = f"from boundarykit.cli import main\nassert main({list(argv)!r}) == 0"
        return {m for m in modules_after(code) if m.startswith("scipy")}

    # st needs the sparse adjacency, but reading the network needs no k-d tree
    loaded = scipy_after("centrality", "--network", "net.txt", "--measure", "st",
                         "--out", "st.csv")
    assert "scipy.sparse" in loaded
    assert not {m for m in loaded if m.startswith("scipy.spatial")}
    # nor csgraph, which only the path measures import
    assert not {m for m in loaded if m.startswith("scipy.sparse.csgraph")}
    # the protocol runs on the sparse adjacency; its phases 1-2 give the
    # components and levels, so no csgraph and no scipy.linalg, and the
    # ground truth needs no k-d tree
    loaded = scipy_after("protocol", "--network", "net.txt", "--region", "region.txt",
                         "--out", "cls.csv", "--trace", "rounds.csv")
    assert "scipy.sparse" in loaded
    assert not {m for m in loaded if m.startswith(("scipy.sparse.csgraph", "scipy.linalg",
                                                   "scipy.spatial"))}
    # theory and render need numpy only
    assert scipy_after("theory", "sigma") == set()
    assert scipy_after("theory", "dist", "--s", "0", "--mu", "20", "--samples", "500",
                       "--seed", "1", "--out", "dist.csv") == set()
    assert scipy_after("render", "--network", "net.txt", "--centrality", "st.csv",
                       "--region", "region.txt", "--out", "map.svg") == set()


# -- entry point -------------------------------------------------------------


def test_console_script_installed():
    # the child imports the package from where this process found it
    package_root = str(Path(bk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "boundarykit.cli", "theory", "sigma"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "0.4134966716"
