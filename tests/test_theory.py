"""Lens geometry, the interior constant, st sampling and threshold errors."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

import boundarykit as bk
from boundarykit import BinningMismatchError, theory

import oracles

SIGMA_PRINTED = 0.4134966716


# -- lens and m --------------------------------------------------------------


def test_lens_endpoints():
    assert bk.lens_area(0.0) == pytest.approx(math.pi, abs=1e-12)
    assert bk.lens_area(2.0) == pytest.approx(0.0, abs=1e-12)


def test_lens_at_one():
    exact = 2 * math.pi / 3 - math.sqrt(3) / 2
    assert bk.lens_area(1.0) == pytest.approx(exact, abs=1e-12)
    assert bk.lens_area(1.0) == pytest.approx(1.2283696986, abs=1e-9)


def test_m_at_one():
    assert bk.m_area(1.0) == pytest.approx(1.9132229550, abs=1e-9)


def test_lens_domain():
    with pytest.raises(ValueError):
        bk.lens_area(-0.1)
    with pytest.raises(ValueError):
        bk.lens_area(2.1)
    # nan is outside the domain too, alone or in an array
    for f in (bk.lens_area, bk.m_area):
        for x in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="domain"):
                f(x)


def test_lens_vectorized():
    x = np.linspace(0, 2, 50)
    v = bk.lens_area(x)
    assert v.shape == (50,)
    assert v[0] == pytest.approx(math.pi)


def test_lens_matches_slice_integral():
    for x in (0.25, 0.5, 1.0, 1.5):
        assert bk.lens_area(x) == pytest.approx(
            oracles.lens_area_by_slices(x), abs=1e-6
        )


@settings(max_examples=60, deadline=None)
@given(st_.floats(min_value=0.0, max_value=2.0, allow_nan=False))
def test_lens_plus_m_is_pi(x):
    assert bk.lens_area(x) + bk.m_area(x) == pytest.approx(math.pi, abs=1e-12)


def test_lens_strictly_decreasing():
    x = np.linspace(0, 2, 200)
    v = bk.lens_area(x)
    assert np.all(np.diff(v) < 0)


# -- the interior constant ---------------------------------------------------


def test_sigma_value():
    s = bk.sigma_interior()
    assert abs(s - SIGMA_PRINTED) < 1e-9
    assert abs(s - 3 * math.sqrt(3) / (4 * math.pi)) < 1e-9


def test_sigma_against_independent_quadrature():
    quad_ref, closed_ref = oracles.sigma_reference()
    s = bk.sigma_interior()
    assert abs(s - quad_ref) < 1e-11
    assert abs(s - closed_ref) < 1e-11


def test_import_leaves_out_quadrature_modules(modules_after):
    # sigma has a closed form, so scipy.integrate (and the scipy.optimize it
    # imports) stays out; the package loads its submodules on first use, and
    # theory needs numpy only, so no scipy module loads at all
    loaded = modules_after("import boundarykit; boundarykit.sigma_interior()")
    assert "boundarykit.theory" in loaded
    assert not {m for m in loaded if m.startswith("scipy")}


def test_clipped_disk_area():
    assert bk.clipped_disk_area(0.0) == pytest.approx(math.pi / 2)
    assert bk.clipped_disk_area(1.0) == pytest.approx(math.pi)
    assert bk.clipped_disk_area(5.0) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        bk.clipped_disk_area(-0.5)
    # a float32 distance is the float64 it holds, in the area and in st_dense
    for f in (bk.clipped_disk_area, bk.st_dense):
        assert f(np.float32(0.3)) == f(float(np.float32(0.3)))


def test_clipped_disk_area_monotone():
    s = np.linspace(0, 1, 40)
    v = np.array([bk.clipped_disk_area(x) for x in s])
    assert np.all(np.diff(v) > 0)


# -- st sampling -------------------------------------------------------------


def test_sample_st_validation():
    with pytest.raises(ValueError):
        bk.sample_st(-0.1, 100.0, 10, seed=1)
    with pytest.raises(ValueError):
        bk.sample_st(0.5, 0.0, 10, seed=1)
    with pytest.raises(ValueError):
        bk.sample_st(0.5, 100.0, 0, seed=1)
    # a nan distance and a non-finite mu once reached numpy's Poisson draw
    for s in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="boundary distance must be >= 0"):
            bk.sample_st(s, 200.0, 100, seed=1)
    for mu in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="mu must be positive"):
            bk.sample_st(0.0, mu, 100, seed=1)
    with pytest.raises(ValueError, match="mu must be finite"):
        bk.sample_st(0.0, math.inf, 100, seed=1)
    # and the closed forms once returned nan
    for f in (bk.clipped_disk_area, bk.st_dense, bk.neighborhood_st):
        with pytest.raises(ValueError, match="boundary distance must be >= 0"):
            f(math.nan)
    # s = inf is an interior node, and draws as any s >= 1 does
    assert bk.clipped_disk_area(math.inf) == math.pi
    inner = bk.sample_st(math.inf, 20.0, 500, seed=2)
    assert inner.s == math.inf
    assert inner.counts.tolist() == bk.sample_st(1.5, 20.0, 500, seed=2).counts.tolist()


@pytest.mark.parametrize("samples", [1000.0, 2.5, True, np.True_, "10", None])
def test_sample_st_samples_not_an_integer_rejected(samples):
    # a float once raised a bare TypeError from range, and True drew one sample
    with pytest.raises(ValueError, match="samples must be an integer >= 1"):
        bk.sample_st(0.0, 200.0, samples, seed=5)


@pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint16])
def test_sample_st_numpy_integer_samples(kind):
    # 60,000 plus a batch less one wraps in uint16
    d = bk.sample_st(0.3, 40.0, kind(60_000), seed=9)
    assert d.samples == 60_000 and type(d.samples) is int and int(d.counts.sum()) == 60_000
    assert d.counts.tolist() == bk.sample_st(0.3, 40.0, 60_000, seed=9).counts.tolist()


def test_distribution_invariants():
    d = bk.sample_st(0.7, 30.0, 2000, seed=3)
    assert int(d.counts.sum()) == 2000
    assert len(d.bin_edges) == 101
    assert d.bin_edges[0] == 0.0 and d.bin_edges[-1] == 1.0
    assert 0.0 <= d.mean <= 1.0
    assert d.stddev >= 0.0


def test_sample_st_deterministic():
    a = bk.sample_st(0.3, 40.0, 5000, seed=9)
    b = bk.sample_st(0.3, 40.0, 5000, seed=9)
    assert np.array_equal(a.counts, b.counts)
    assert a.mean == b.mean and a.stddev == b.stddev


def test_sample_st_worker_independent():
    a = bk.sample_st(0.2, 60.0, 25_000, seed=17, workers=1)
    b = bk.sample_st(0.2, 60.0, 25_000, seed=17, workers=4)
    assert np.array_equal(a.counts, b.counts)
    assert a.mean == b.mean and a.stddev == b.stddev


class _CountingRng:
    """A generator that counts its ``random`` calls, two per rejection round."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, m):
        self.calls += 1
        return self.rng.random(m)


@pytest.mark.parametrize("s", [0.0, 0.3, 0.9, 1.0, 2.0])
def test_draw_clipped_matches_reference(s):
    for seed in range(4):
        for count in (0, 1, 50, 5000):
            new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = theory._draw_clipped(new, count, s)
            want = oracles.draw_clipped(ref, count, s)
            assert got.shape == want.shape == (count, 2) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert new.random() == ref.random()  # the same numbers were drawn


def test_draw_clipped_several_rounds():
    # under seed 77 the first round at s = 0 keeps fewer than 50 points
    ref, new = _CountingRng(77), _CountingRng(77)
    want = oracles.draw_clipped(ref, 50, 0.0)
    got = theory._draw_clipped(new, 50, 0.0)
    assert ref.calls == new.calls == 4
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("v", [2, 100, 200, 450])
def test_far_pair_counts_matches_reference(v):
    # at v = 100 the 30 realizations go in blocks of 13, 13 and 4; at v = 450
    # one realization is more than a block, so each block holds one
    rng = np.random.default_rng(v)
    for s in (0.0, 1.0):
        pts = oracles.draw_clipped(rng, 30 * v, s).reshape(30, v, 2)
        got, want = theory._far_pair_counts(pts), oracles.far_pair_counts(pts)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_far_pair_counts_memory():
    # the product, the test and the count go block by block, so the peak
    # is about that of the (k, N, 4) factors, not of the (k, N, N) product
    pts = oracles.draw_clipped(np.random.default_rng(7), 419 * 100, 0.0).reshape(419, 100, 2)
    tracemalloc.start()
    try:
        theory._far_pair_counts(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_st_matches_reference(monkeypatch, workers):
    cases = [(0.0, 200.0, 20_000, 321000), (0.4, 60.0, 25_000, 33)]
    new = [bk.sample_st(*case, workers=workers) for case in cases]
    monkeypatch.setattr(theory, "_draw_clipped", oracles.draw_clipped)
    monkeypatch.setattr(theory, "_far_pair_counts", oracles.far_pair_counts)
    for case, a in zip(cases, new):
        b = bk.sample_st(*case, workers=workers)
        assert np.array_equal(a.counts, b.counts)
        assert a.mean == b.mean and a.stddev == b.stddev


def test_sparse_network_degenerates():
    # mu = 0.5: almost every sample sees at most one other node, st = 0
    d = bk.sample_st(0.0, 0.5, 4000, seed=21)
    assert d.counts[0] / 4000 > 0.9
    assert d.mean < 0.05


def test_interior_mean_tracks_sigma():
    # deep interior, high density: the mean approaches the constant
    d = bk.sample_st(1.0, 500.0, 4000, seed=33)
    se = d.stddev / math.sqrt(4000)
    assert abs(d.mean - SIGMA_PRINTED) < 3 * se + 1e-4


def test_boundary_mean_density_free(dist_b20, dist_b200):
    # the s=0 mean is essentially density independent
    se = math.hypot(dist_b20.stddev / math.sqrt(dist_b20.samples),
                    dist_b200.stddev / math.sqrt(dist_b200.samples))
    assert abs(dist_b20.mean - dist_b200.mean) < 4 * se + 1e-3


def test_means_ordered(dist_b200, dist_i200):
    assert dist_b200.mean < dist_i200.mean
    # frozen regression values for the fixed seeds
    assert dist_b200.mean == pytest.approx(0.217970, abs=1e-5)
    assert dist_i200.mean == pytest.approx(0.413528, abs=1e-5)


def test_st_dense_matches_sampled_means(dist_b200):
    assert bk.st_dense(1.0) == pytest.approx(bk.sigma_interior(), abs=1e-5)
    assert bk.st_dense(3.0) == bk.st_dense(1.0)
    # at mu = 200 the sampled s = 0 mean estimates the same pair probability
    se = dist_b200.stddev / math.sqrt(dist_b200.samples)
    assert abs(bk.st_dense(0.0) - dist_b200.mean) < 4 * se + 1e-5
    with pytest.raises(ValueError):
        bk.st_dense(-0.1)


def test_neighborhood_st():
    sigma = bk.sigma_interior()
    assert bk.neighborhood_st(2.0) == pytest.approx(sigma, abs=1e-12)
    vals = [bk.neighborhood_st(s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert np.all(np.diff(vals) > 0)
    mc, se = oracles.neighborhood_st_mc(1_000_000, seed=41)
    assert abs(bk.neighborhood_st(1.0) - mc) < 4 * se


def test_separation_grows_with_density(dist_b20, dist_i20, dist_b200, dist_i200):
    lo = bk.separation(dist_b20, dist_i20)
    hi = bk.separation(dist_b200, dist_i200)
    assert 0 < lo < hi


# -- threshold error estimates -----------------------------------------------


def test_estimate_errors_edges(dist_b200, dist_i200):
    r = bk.estimate_errors(dist_b200, dist_i200, 1.0)
    assert r.false_negative_rate == 0.0
    r = bk.estimate_errors(dist_b200, dist_i200, 0.0)
    assert r.false_positive_rate == 0.0
    # boundary mass strictly above threshold 0 excludes the first bin only
    assert r.false_negative_rate == pytest.approx(
        1.0 - dist_b200.counts[0] / dist_b200.samples
    )


def test_estimate_errors_monotone(dist_b200, dist_i200):
    ts = np.linspace(0.0, 1.0, 21)
    fns = [bk.estimate_errors(dist_b200, dist_i200, t).false_negative_rate for t in ts]
    fps = [bk.estimate_errors(dist_b200, dist_i200, t).false_positive_rate for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(fns, fns[1:]))   # fn falls
    assert all(a <= b + 1e-12 for a, b in zip(fps, fps[1:]))   # fp rises


def test_estimate_errors_threshold_domain(dist_b200, dist_i200):
    with pytest.raises(ValueError):
        bk.estimate_errors(dist_b200, dist_i200, -0.1)
    with pytest.raises(ValueError):
        bk.estimate_errors(dist_b200, dist_i200, 1.1)


def test_estimate_errors_binning_mismatch(dist_b200):
    other = bk.StDistribution(
        s=1.0, mu=200.0, samples=10,
        bin_edges=np.linspace(0, 1, 51), counts=np.zeros(50, dtype=np.int64),
        mean=0.5, stddev=0.1,
    )
    with pytest.raises(BinningMismatchError):
        bk.estimate_errors(dist_b200, other, 0.5)


def test_report_total():
    r = bk.ThresholdErrorReport(0.3, 0.01, 0.02)
    assert r.total == pytest.approx(0.03)


# -- distribution CSV --------------------------------------------------------


def test_distribution_csv_round_trip(tmp_path):
    d = bk.sample_st(0.4, 25.0, 3000, seed=5)
    p = tmp_path / "dist.csv"
    d.to_csv(p)
    d2 = bk.StDistribution.from_csv(p)
    assert d2.s == d.s and d2.mu == d.mu and d2.samples == d.samples
    assert np.array_equal(d2.counts, d.counts)
    assert np.allclose(d2.bin_edges, d.bin_edges)
    assert d2.mean == pytest.approx(d.mean, abs=1e-12)
    assert d2.stddev == pytest.approx(d.stddev, abs=1e-12)


@pytest.mark.parametrize("rows", ["\n", "0.0,0.5,1\n0.7,1.0,2\n"], ids=["no bins", "gap"])
def test_distribution_csv_malformed_bins(tmp_path, rows):
    p = tmp_path / "dist.csv"
    p.write_text('# {"s": 0.4, "mu": 25.0, "samples": 3, "mean": 0.5, "stddev": 0.1}\n'
                 "bin_low,bin_high,count\n" + rows)
    with pytest.raises(ValueError, match="bins that abut"):
        bk.StDistribution.from_csv(p)


@pytest.mark.parametrize("row", ["0.5,1.0", "0.5,1.0,x", "0.5,high,2"],
                         ids=["two fields", "count", "bound"])
def test_distribution_csv_malformed_row(tmp_path, row):
    p = tmp_path / "dist.csv"
    p.write_text('# {"s": 0.4, "mu": 25.0, "samples": 3, "mean": 0.5, "stddev": 0.1}\n'
                 f"bin_low,bin_high,count\n0.0,0.5,1\n{row}\n")
    with pytest.raises(ValueError, match="line 4: expected bin_low,bin_high,count") as info:
        bk.StDistribution.from_csv(p)
    assert str(p) in str(info.value)


def test_distribution_csv_errors_carry_their_line(tmp_path):
    # the reader contract of the region and network files: FileFormatError
    # with .line and .path, a byte that is not UTF-8 included
    p = tmp_path / "dist.csv"
    head = '# {"s": 0.4, "mu": 25.0, "samples": 3, "mean": 0.5, "stddev": 0.1}\n'
    for data, line, message in (
            (head.encode() + b"bin_low,bin_high,count\r\n0.0,0.5,1\r0.5,1.0,\xff\n", 4,
             "byte 0xff is not UTF-8"),
            (head.encode() + b"bin_low,bin_high,count\n0.0,0.5,1\n0.5,1.0,x\n", 4,
             "expected bin_low,bin_high,count, got '0.5,1.0,x'"),
            (b'# {"s": 0.4}\nbin_low,bin_high,count\n0.0,0.5,1\n', 1, "expected numeric s")):
        p.write_bytes(data)
        with pytest.raises(bk.FileFormatError, match=f"line {line}: {message}") as info:
            bk.StDistribution.from_csv(p)
        assert info.value.line == line and info.value.path == str(p)


@pytest.mark.parametrize("meta", [
    '{"s": 0.0}',
    '{"s": 0.4, "mu": "x", "samples": 3, "mean": 0.5, "stddev": 0.1}',
    '{"s": 0.4, "mu": 25.0, "samples": null, "mean": 0.5, "stddev": 0.1}',
    '[0.4]',
    '{"s": ',
], ids=["missing", "text", "null", "not an object", "not json"])
def test_distribution_csv_malformed_metadata(tmp_path, meta):
    p = tmp_path / "dist.csv"
    p.write_text(f"# {meta}\nbin_low,bin_high,count\n0.0,0.5,1\n")
    with pytest.raises(ValueError, match="expected numeric s, mu") as info:
        bk.StDistribution.from_csv(p)
    assert str(p) in str(info.value)


def test_distribution_csv_header(tmp_path):
    d = bk.sample_st(0.4, 25.0, 100, seed=6)
    p = tmp_path / "dist.csv"
    d.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "bin_low,bin_high,count"
    assert len(lines) == 2 + 100
