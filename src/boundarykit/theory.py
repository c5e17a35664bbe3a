"""Numerical theory of the normalized coefficient st(v).

For a node with degree d and stress1 non-adjacent neighbor pairs,
st = stress1 / C(d, 2).  Two neighbors at distance x from each other are
non-adjacent with probability 1 - lens_area(x) / pi under the unit-disk
rule, which gives the interior expectation

    sigma = int_0^1 2 x (pi - lens_area(x)) / pi dx  ~= 0.4134966716

with 2x the radial density of a uniform point in the unit disk.  Near a
straight boundary the visible disk shrinks and the expectation drops;
``sample_st`` measures the full distribution by Monte Carlo in the
half-plane model: a node at distance s from the boundary, neighbor count
Poisson(mu * A(s) / pi), neighbors uniform in the clipped unit disk.  Its
random stream is fixed by the seed, the batch size and the per-batch
chunking, so any change to those changes the samples.  The far-pair count
runs over blocks of about ``_CELL_BLOCK`` cells of the pair product, which
bounds its memory and draws no random numbers, so the stream is the same
whatever the block size.

The module needs numpy only; it imports no scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._arrays import distinct, is_integer
from ._workers import ordered_map, resolve_workers
from .errors import BinningMismatchError, FileFormatError, read_text

_BATCH = 10_000
_DEFAULT_BINS = 100
# cap on elements of one pairwise-distance tensor, keeps memory modest
_PAIR_BUDGET = 1 << 22
# cells of the pair product that _far_pair_counts holds at once
_CELL_BLOCK = 1 << 17
# Gauss-Legendre nodes per dimension of the dense-limit quadratures; st_dense(1)
# lands within 1e-5 of sigma
_QUAD = 32


def lens_area(x):
    """Overlap area of two unit disks whose centers are ``x`` apart.

    Accepts scalars or arrays; ValueError unless every ``x`` is in [0, 2],
    so on nan too.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0) & (arr <= 2)):  # false for nan
        raise ValueError("the distance between disk centers must be in the domain [0, 2]")
    half = arr / 2.0
    out = 2.0 * np.arccos(half) - arr * np.sqrt(1.0 - half * half)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def m_area(x):
    """Area of the unit disk around one endpoint not covered by the other's
    disk; the domain and the return type are ``lens_area``'s."""
    return np.pi - lens_area(x)


def sigma_interior():
    """Expected st for an interior node, 3 sqrt(3) / (4 pi) ~= 0.4134966716."""
    # the value of the integral for sigma in the module docstring
    return 3 * math.sqrt(3) / (4 * math.pi)


def clipped_disk_area(s):
    """Area of the unit disk around a node at distance ``s`` from a straight
    boundary.  ValueError unless s >= 0, so on nan; s = inf, an interior
    node, gives pi, as every s >= 1 does.  A narrower float, such as a numpy
    float32, is evaluated as the float64 it holds."""
    if not s >= 0:  # false for nan
        raise ValueError("boundary distance must be >= 0")
    if s >= 1.0:
        return float(np.pi)
    s = float(s)
    return float(np.pi - (np.arccos(s) - s * np.sqrt(1.0 - s * s)))


@lru_cache(maxsize=1)
def _legendre():
    """Gauss-Legendre nodes and weights on [-1, 1], read-only.  They solve an
    eigenproblem, which took more than half of an ``st_dense`` call."""
    x, w = np.polynomial.legendre.leggauss(_QUAD)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss(lo, hi):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _legendre()
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def st_dense(s):
    """Expected st at boundary distance ``s`` in the dense limit (large mu).

    The probability that two uniform points of the clipped disk
    K = {|p| <= 1, p_y >= -s} lie farther apart than 1, which is the mean of
    ``sample_st`` once mu is large enough that a node has >= 2 neighbors.
    Quadrature of the set covariance area(K & (K + h)) over offsets
    |h| <= 1; by symmetry h lies in the first quadrant, where the overlap is
    the lens of two unit disks cut at y = h_y - s.  ValueError unless
    s >= 0, as in ``clipped_disk_area``.
    """
    area = clipped_disk_area(s)
    s = min(float(s), 1.0)
    phi, wphi = _gauss(0.0, np.pi / 2.0)
    rho, wrho = _gauss(0.0, 1.0)
    hx = (rho * np.cos(phi)[:, None])[..., None]
    hy = (rho * np.sin(phi)[:, None])[..., None]
    u, wu = _gauss(0.0, 1.0)
    lo = hy - s
    y = lo + (1.0 - lo) * u
    a = np.sqrt(np.clip(1.0 - y * y, 0.0, None))
    b = np.sqrt(np.clip(1.0 - (y - hy) ** 2, 0.0, None))
    width = np.clip(np.minimum(a, hx + b) - np.maximum(-a, hx - b), 0.0, None)
    overlap = (1.0 - lo[..., 0]) * (width @ wu)
    near = 4.0 * (wphi @ overlap @ (wrho * rho))
    return float(1.0 - near / area ** 2)


@lru_cache(maxsize=16)
def neighborhood_st(s):
    """Dense-limit mean of st over the neighbors of a node at boundary distance ``s``.

    The neighbors are uniform in the unit disk around the node, clipped at
    the boundary; one at height y above the node has boundary distance
    s + y and mean st ``st_dense(s + y)``, which is sigma from s + y >= 1 on.
    ValueError unless s >= 0, as in ``clipped_disk_area``.
    """
    area = clipped_disk_area(s)
    lo = -min(float(s), 1.0)
    knee = min(max(1.0 - s, lo), 1.0)  # above it the neighbors are interior
    y, w = _gauss(lo, knee)
    near = sum(wi * 2.0 * np.sqrt(1.0 - yi * yi) * st_dense(s + yi) for yi, wi in zip(y, w))
    far = sigma_interior() * (np.arccos(knee) - knee * np.sqrt(1.0 - knee * knee))
    return float((near + far) / area)


@dataclass
class StDistribution:
    """Binned Monte-Carlo distribution of st at boundary distance ``s``."""
    s: float
    mu: float
    samples: int
    bin_edges: np.ndarray  # (bins + 1,)
    counts: np.ndarray     # (bins,)
    mean: float
    stddev: float

    def to_csv(self, path):
        meta = {"s": self.s, "mu": self.mu, "samples": self.samples,
                "mean": self.mean, "stddev": self.stddev}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(meta) + "\n")
            fh.write("bin_low,bin_high,count\n")
            for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts):
                fh.write(f"{float(lo)!r},{float(hi)!r},{int(c)}\n")

    @classmethod
    def from_csv(cls, path):
        """Read a file that ``to_csv`` wrote; FileFormatError (a ValueError)
        for a file that is not one, at the line where one is bad."""
        path = str(path)
        lines = read_text(path).splitlines()
        if len(lines) < 3 or not lines[0].startswith("# "):
            raise FileFormatError("not an st-distribution CSV", path=path)
        try:
            meta = json.loads(lines[0][2:])
            s, mu, mean, stddev = (float(meta[k]) for k in ("s", "mu", "mean", "stddev"))
            samples = int(meta["samples"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FileFormatError("expected numeric s, mu, samples, mean and stddev "
                                  f"in the header ({exc!r})", line=1, path=path) from None
        lows, highs, counts = [], [], []
        for lineno, row in enumerate(lines[2:], start=3):
            if not row:
                continue
            try:
                a, b, c = row.split(",")
                lows.append(float(a))
                highs.append(float(b))
                counts.append(int(c))
            except ValueError:
                raise FileFormatError(f"expected bin_low,bin_high,count, got {row!r}",
                                      line=lineno, path=path) from None
        if not lows or lows[1:] != highs[:-1]:
            raise FileFormatError(f"expected bins that abut, got {len(lows)} rows", path=path)
        edges = np.array(lows + [highs[-1]])
        return cls(s=s, mu=mu, samples=samples, bin_edges=edges,
                   counts=np.array(counts, dtype=np.int64), mean=mean, stddev=stddev)


def _draw_clipped(rng, count, s):
    """``count`` uniform points from the unit disk clipped to y >= -s.

    Rejection from the whole disk: each round draws all its radii, then all
    its angles, and keeps the points with y >= -s in draw order.  The round
    sizes fix how many random numbers a draw uses, which ``sample_st``'s
    output depends on.
    """
    out = np.empty((count, 2))
    accept = clipped_disk_area(s) / np.pi
    got = 0
    while got < count:
        m = int((count - got) / accept * 1.08) + 16
        r = np.sqrt(rng.random(m))
        th = rng.random(m) * (2.0 * np.pi)
        y = r * np.sin(th)
        keep = np.flatnonzero(y >= -s)[:count - got]
        rows = slice(got, got + len(keep))
        out[rows, 0] = r[keep] * np.cos(th[keep])
        out[rows, 1] = y[keep]
        got += len(keep)
    return out


def _far_pair_counts(pts):
    """Per realization, count point pairs farther apart than 1.

    pts has shape (k, N, 2).  The test d2(i, j) > 1 is rewritten as
    b_i + b_j - 2 p_i . p_j > 0 with b = |p|^2 - 1/2 and evaluated by one
    augmented matrix product in float32; the diagonal lands at -1 and is
    excluded automatically.  The product, the test and the count run over
    blocks of about _CELL_BLOCK cells, at least one realization each, in
    two buffers allocated once.
    """
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
    step = max(1, _CELL_BLOCK // (nv * nv))
    prod = np.empty((min(k, step), nv, nv), dtype=np.float32)
    far = np.empty(prod.shape, dtype=bool)
    out = np.empty(k, dtype=np.int64)
    for lo in range(0, k, step):
        c = min(step, k - lo)
        np.matmul(left[lo:lo + c], right[lo:lo + c], out=prod[:c])
        np.greater(prod[:c], 0, out=far[:c])
        # a uint32 sum of the bytes is about twice as fast as count_nonzero
        # along an axis; nv * nv stays below 2**32 for any nv that fits in memory
        cells = far[:c].reshape(c, nv * nv).view(np.uint8)
        out[lo:lo + c] = cells.sum(axis=1, dtype=np.uint32)
    return out // 2


def _sample_batch(seed, count, s, lam):
    """One deterministic batch: returns (histogram, sum, sum of squares)."""
    rng = np.random.default_rng(seed)
    ns = rng.poisson(lam, size=count)
    st = np.zeros(count)
    for value in distinct(ns):
        v = int(value)
        if v <= 1:
            continue  # st is 0 by convention with fewer than 2 neighbors
        rows = np.nonzero(ns == value)[0]
        step = max(1, _PAIR_BUDGET // (v * v))
        pairs = v * (v - 1) / 2.0
        for lo in range(0, len(rows), step):
            sel = rows[lo:lo + step]
            pts = _draw_clipped(rng, len(sel) * v, s).reshape(len(sel), v, 2)
            st[sel] = _far_pair_counts(pts) / pairs
    edges = np.linspace(0.0, 1.0, _DEFAULT_BINS + 1)
    hist, _ = np.histogram(st, bins=edges)
    return hist.astype(np.int64), float(st.sum()), float(np.dot(st, st))


def sample_st(s, mu, samples, seed, workers=None):
    """Monte-Carlo distribution of st at boundary distance ``s``.

    Parameters
    ----------
    s : float
        Distance to the straight boundary in disk radii, >= 0 and not nan;
        s >= 1, inf included, is interior.
    mu : float
        Expected interior degree (Poisson mean for an unclipped disk),
        positive and finite.
    samples : int
        Number of independent node realizations.
    seed : int
        Master seed; batches draw from spawned child streams in a fixed
        order, so results are identical for any worker count.
    workers : int, optional
        Thread count; defaults to the environment override or cpu count.
    """
    area = clipped_disk_area(s)
    if not 0 < mu < np.inf:  # false for nan
        raise ValueError("mu must be finite" if mu == np.inf else "mu must be positive")
    if not is_integer(samples) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    samples = int(samples)  # a numpy integer could wrap in the batch sums
    lam = mu * area / np.pi
    nbatch = (samples + _BATCH - 1) // _BATCH
    seeds = np.random.SeedSequence(seed).spawn(nbatch)
    counts = [_BATCH] * (nbatch - 1) + [samples - _BATCH * (nbatch - 1)]
    w = min(resolve_workers(workers), nbatch)
    results = ordered_map(lambda batch: _sample_batch(*batch, s, lam), zip(seeds, counts), w)
    hist = np.zeros(_DEFAULT_BINS, dtype=np.int64)
    total = 0.0
    total2 = 0.0
    for h, t, t2 in results:  # fixed merge order
        hist += h
        total += t
        total2 += t2
    mean = total / samples
    var = max(0.0, (total2 - samples * mean * mean) / max(1, samples - 1))
    return StDistribution(s=float(s), mu=float(mu), samples=samples,
                          bin_edges=np.linspace(0.0, 1.0, _DEFAULT_BINS + 1),
                          counts=hist, mean=mean, stddev=float(np.sqrt(var)))


@dataclass
class ThresholdErrorReport:
    threshold: float
    false_negative_rate: float
    false_positive_rate: float

    @property
    def total(self):
        return self.false_negative_rate + self.false_positive_rate


def estimate_errors(dist_boundary, dist_interior, threshold):
    """Classification error rates for rule ``st <= threshold -> boundary``.

    From the binned distributions: a bin entirely above the threshold
    counts toward false negatives (boundary mass strictly above), a bin
    entirely at or below it toward false positives (interior mass at or
    below); the straddling bin counts toward neither.
    """
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must lie in [0, 1]")
    if not np.array_equal(dist_boundary.bin_edges, dist_interior.bin_edges):
        raise BinningMismatchError("distributions use different binnings")
    lows = dist_boundary.bin_edges[:-1]
    highs = dist_boundary.bin_edges[1:]
    fn = dist_boundary.counts[lows > threshold].sum() / dist_boundary.samples
    fp = dist_interior.counts[highs <= threshold].sum() / dist_interior.samples
    return ThresholdErrorReport(threshold=float(threshold),
                                false_negative_rate=float(fn),
                                false_positive_rate=float(fp))


def separation(dist_boundary, dist_interior):
    """Gap between the means in pooled standard deviations."""
    pooled = np.sqrt((dist_boundary.stddev ** 2 + dist_interior.stddev ** 2) / 2.0)
    if pooled == 0.0:
        raise ValueError("distributions are degenerate (zero spread)")
    return float((dist_interior.mean - dist_boundary.mean) / pooled)
