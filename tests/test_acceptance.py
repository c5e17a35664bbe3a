"""Acceptance criteria.

One test per criterion, tolerances pinned in the assertions. Each test
prints a single PASS/FAIL line with the measured quantities; pytest -v
gives the authoritative verdict per criterion.

Criterion 5 encodes the target rates as stated; see the failure message
for the measured values if it does not hold.
"""

import io
import contextlib
import math
import time

import numpy as np
import pytest

import boundarykit as bk
from boundarykit.cli import main as cli_main

import oracles

SIGMA_PRINTED = 0.4134966716


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- 1: sigma reproduction ---------------------------------------------------


def test_criterion_1_sigma_reproduction():
    t0 = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["theory", "sigma"])
    elapsed = time.perf_counter() - t0
    printed = float(buf.getvalue().strip())
    closed = 3.0 * math.sqrt(3.0) / (4.0 * math.pi)
    err_printed = abs(printed - SIGMA_PRINTED)
    err_closed = abs(bk.sigma_interior() - closed)
    ok = rc == 0 and err_printed < 1e-9 and err_closed < 1e-9 and elapsed < 1.0
    report(1, ok, f"sigma={printed:.10f} |err|={err_printed:.2e} "
                  f"|err_closed_form|={err_closed:.2e} runtime={elapsed:.3f}s")
    assert rc == 0
    assert err_printed < 1e-9
    assert err_closed < 1e-9
    assert elapsed < 1.0


# -- 2: interior convergence -------------------------------------------------


def test_criterion_2_interior_convergence(dist_i200_timed):
    dist, elapsed = dist_i200_timed
    se = dist.stddev / math.sqrt(dist.samples)
    dev = abs(dist.mean - 0.4135)
    ok = dev < 0.005 and dev < 3 * se + 5e-5 and elapsed < 60.0
    report(2, ok, f"mean={dist.mean:.6f} dev={dev:.2e} 3SE={3 * se:.2e} "
                  f"runtime={elapsed:.1f}s")
    assert dev < 0.005          # the stated envelope
    assert dev < 3 * se + 5e-5  # and the 3-standard-error band
    assert elapsed < 60.0


# -- 3: distribution separation ----------------------------------------------


def test_criterion_3_distribution_separation(dist_b200, dist_i200,
                                             dist_b20, dist_i20):
    mid200 = 0.5 * (dist_b200.mean + dist_i200.mean)
    r200 = bk.estimate_errors(dist_b200, dist_i200, mid200)
    mid20 = 0.5 * (dist_b20.mean + dist_i20.mean)
    r20 = bk.estimate_errors(dist_b20, dist_i20, mid20)
    ok = r200.total < 0.01 and r20.total > r200.total
    report(3, ok, f"mu=200 midpoint={mid200:.4f} total={r200.total:.5f}; "
                  f"mu=20 total={r20.total:.5f}")
    assert r200.total < 0.01
    assert r20.total > r200.total


# -- 4: centrality oracle equivalence ----------------------------------------


def test_criterion_4_centrality_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(1_000 + seed)
        n = int(rng.integers(5, 61))
        if seed % 2 == 0:
            adj = oracles.er_graph(n, float(rng.uniform(0.05, 0.35)), rng)
        else:
            _, adj = oracles.geometric_graph(n, float(rng.uniform(0.2, 0.5)), rng)
        o_stress, o_betw, o_rstr = oracles.brute_path_measures(adj, deltas=(1, 2))
        assert np.array_equal(bk.stress_centrality(adj), o_stress), f"stress seed={seed}"
        np.testing.assert_allclose(
            bk.betweenness_centrality(adj), o_betw, rtol=1e-9, atol=1e-9,
            err_msg=f"betweenness seed={seed}")
        for d in (1, 2):
            assert np.array_equal(bk.restricted_stress(adj, d), o_rstr[d]), \
                f"rstress delta={d} seed={seed}"
        assert np.array_equal(bk.stress1(adj), oracles.brute_stress1(adj)), \
            f"stress1 seed={seed}"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 200 and elapsed < 120.0
    report(4, ok, f"graphs={checked} measures=4 runtime={elapsed:.1f}s")
    assert checked >= 200
    assert elapsed < 120.0


# -- 5: protocol at desk scale -----------------------------------------------


def test_criterion_5_protocol_desk_scale(net20k, run20k):
    labels, trace, run_seconds = run20k
    elapsed = net20k._build_seconds + run_seconds
    truth = bk.ground_truth(net20k)           # band b = r
    fn, fp = bk.classification_rates(labels, truth)
    strips = bk.boundary_strips(net20k, labels)
    declared = max(1, int(labels.sum()))
    top2 = sum(len(s) for s in strips[:2]) / declared
    ok = fn < 0.02 and fp < 0.05 and len(strips) == 2 and top2 >= 0.95 \
        and elapsed < 300.0
    report(5, ok, f"fn={fn:.4f} fp={fp:.4f} strips={len(strips)} "
                  f"top2_coverage={top2:.4f} runtime={elapsed:.1f}s")
    detail = (f"measured fn={fn:.4f} (need <0.02), fp={fp:.4f} (need <0.05), "
              f"strips={len(strips)} (need exactly 2), "
              f"top2 coverage={top2:.4f} (need >=0.95)")
    assert elapsed < 300.0, detail
    assert fn < 0.02, detail
    assert fp < 0.05, detail
    assert len(strips) == 2, detail
    assert top2 >= 0.95, detail


# -- 6: distributed/central agreement ----------------------------------------


def test_criterion_6_distributed_central_agreement():
    mismatches = 0
    for seed in range(20):
        rng = np.random.default_rng(9_000 + seed)
        side = float(rng.uniform(4.0, 8.0))
        if seed % 4 == 0:
            region = bk.square_with_hole(side, side * float(rng.uniform(0.2, 0.5)))
        else:
            region = bk.PolygonRegion([(0, 0), (side, 0), (side, side), (0, side)])
        n = int(rng.integers(150, 400))
        r = float(rng.uniform(0.5, 1.2))
        net = bk.build_network(region, n, r, seed=int(rng.integers(1 << 30)))
        _, trace = bk.run_protocol(net, bk.ProtocolConfig())
        if not np.array_equal(trace.stress1, bk.stress1(net)):
            mismatches += 1
    ok = mismatches == 0
    report(6, ok, f"networks=20 mismatching={mismatches}")
    assert mismatches == 0


# -- 7: message-bound scaling ------------------------------------------------


def test_criterion_7_message_scaling(run20k):
    _, trace20k, _ = run20k
    s20 = bk.message_accounting(trace20k).scaled_payload
    # companion network at n = 5,000, same target density (degree 100)
    area = 5_000 * math.pi / 100.0
    side = 13.0
    region = bk.square_with_hole(side, math.sqrt(side * side - area))
    net5k = bk.build_network(region, 5_000, 1.0, seed=777002)
    _, trace5k = bk.run_protocol(net5k, bk.ProtocolConfig())
    s5 = bk.message_accounting(trace5k).scaled_payload
    ratio = max(s20 / s5, s5 / s20)
    ok = ratio < 2.0
    report(7, ok, f"payload/(n log^2 n): n=20k {s20:.4f} n=5k {s5:.4f} "
                  f"ratio={ratio:.3f}")
    assert ratio < 2.0


# -- 8: determinism ----------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    region = bk.square_with_hole(8.0, 3.0)

    pts_a = bk.sample_uniform(region, 10_000, seed=31)
    pts_b = bk.sample_uniform(region, 10_000, seed=31)
    sampling_ok = np.array_equal(pts_a, pts_b)

    net_a = bk.build_network(region, 1_500, 1.0, seed=32)
    net_b = bk.build_network(region, 1_500, 1.0, seed=32)
    build_ok = (np.array_equal(net_a.positions, net_b.positions)
                and np.array_equal(net_a.indices, net_b.indices))

    d_serial = bk.sample_st(0.4, 60.0, 25_000, seed=33, workers=1)
    d_par = bk.sample_st(0.4, 60.0, 25_000, seed=33, workers=3)
    d_again = bk.sample_st(0.4, 60.0, 25_000, seed=33, workers=3)
    mc_ok = (np.array_equal(d_serial.counts, d_par.counts)
             and d_serial.mean == d_par.mean
             and d_serial.stddev == d_par.stddev
             and np.array_equal(d_par.counts, d_again.counts))

    s_serial = bk.stress_centrality(net_a, workers=1)
    s_par = bk.stress_centrality(net_a, workers=4)
    b_serial = bk.betweenness_centrality(net_a, workers=1)
    b_par = bk.betweenness_centrality(net_a, workers=4)
    cent_ok = (np.array_equal(s_serial, s_par)
               and np.allclose(b_par, b_serial, rtol=1e-9, atol=1e-12))

    l1, t1 = bk.run_protocol(net_a, bk.ProtocolConfig())
    l2, t2 = bk.run_protocol(net_a, bk.ProtocolConfig())
    proto_ok = (np.array_equal(l1, l2) and t1.rounds == t2.rounds
                and t1.components == t2.components)

    regfile = tmp_path / "reg.txt"
    bk.save_region(region, regfile)
    f1 = tmp_path / "n1.txt"
    f2 = tmp_path / "n2.txt"
    for f in (f1, f2):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["generate", "--region", str(regfile), "--nodes", "500",
                           "--radius", "0.8", "--seed", "34", "--out", str(f)])
        assert rc == 0
    cli_ok = f1.read_text() == f2.read_text()

    ok = all((sampling_ok, build_ok, mc_ok, cent_ok, proto_ok, cli_ok))
    report(8, ok, f"sampling={sampling_ok} netgen={build_ok} "
                  f"monte_carlo={mc_ok} centrality={cent_ok} "
                  f"protocol={proto_ok} cli={cli_ok}")
    assert sampling_ok
    assert build_ok
    assert mc_ok
    assert cent_ok
    assert proto_ok
    assert cli_ok
