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


def test_protocol_theta_out_of_range(triangle_file, tmp_path):
    rc = main(["protocol", "--network", str(triangle_file), "--theta", "0.5",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1


def test_protocol_no_filter(triangle_file, tmp_path):
    rc = main(["protocol", "--network", str(triangle_file), "--no-filter",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 0


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
])
def test_render_bad_values_exit_2_at_line(triangle_file, tmp_path, capsys, option, text, line):
    vals = tmp_path / "v.csv"
    vals.write_text(text)
    rc = main(["render", "--network", str(triangle_file),
               option, str(vals), "--out", str(tmp_path / "o.svg")])
    assert rc == 2
    assert f"v.csv:line {line}: " in capsys.readouterr().err
    assert not (tmp_path / "o.svg").exists()


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
