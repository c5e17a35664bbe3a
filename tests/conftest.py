"""Shared fixtures.

The expensive artefacts (1e5-sample st distributions, the 20k-node network
and its protocol run) are session-scoped so the acceptance tests and the
module tests can share them. All seeds are fixed; every fixture is
bit-reproducible.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import boundarykit as bk

# fresh interpreters ---------------------------------------------------------


@pytest.fixture
def modules_after(tmp_path):
    """Runs Python code in a fresh interpreter, in ``tmp_path``, on the
    boundarykit this process imported; returns the modules loaded by then."""
    package_root = str(Path(bk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))

    def run(code):
        code += "\nimport sys\nprint('\\nmodules:', *sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        return set(out.stdout.rsplit("modules:", 1)[1].split())
    return run


# sampled st distributions ---------------------------------------------------

SEED_B200 = 11
SEED_I200 = 12
SEED_B20 = 13
SEED_I20 = 14


@pytest.fixture(scope="session")
def dist_b200():
    """Boundary model (s = 0) at mu = 200, 1e5 samples."""
    return bk.sample_st(0.0, 200.0, 100_000, seed=SEED_B200)


@pytest.fixture(scope="session")
def dist_i200_timed():
    """Interior model (s >= 1) at mu = 200, with its wall-clock cost."""
    t0 = time.perf_counter()
    dist = bk.sample_st(1.0, 200.0, 100_000, seed=SEED_I200)
    return dist, time.perf_counter() - t0


@pytest.fixture(scope="session")
def dist_i200(dist_i200_timed):
    return dist_i200_timed[0]


@pytest.fixture(scope="session")
def dist_b20():
    return bk.sample_st(0.0, 20.0, 100_000, seed=SEED_B20)


@pytest.fixture(scope="session")
def dist_i20():
    return bk.sample_st(1.0, 20.0, 100_000, seed=SEED_I20)


# large networks -------------------------------------------------------------


def _hole_region(n_nodes, degree, side):
    """Square with a centred square hole sized for the target mean degree."""
    area = n_nodes * math.pi / degree
    hole = math.sqrt(side * side - area)
    return bk.square_with_hole(side, hole)


@pytest.fixture(scope="session")
def region20k():
    return _hole_region(20_000, 100.0, 26.0)


@pytest.fixture(scope="session")
def net20k(region20k):
    t0 = time.perf_counter()
    net = bk.build_network(region20k, 20_000, 1.0, seed=777001)
    net._build_seconds = time.perf_counter() - t0
    return net


@pytest.fixture(scope="session")
def run20k(net20k):
    """Default-config protocol run on the 20k network, timed."""
    t0 = time.perf_counter()
    labels, trace = bk.run_protocol(net20k, bk.ProtocolConfig())
    return labels, trace, time.perf_counter() - t0


@pytest.fixture(scope="session")
def annulus_run():
    """Mid-size dense run tuned so the declared set forms two clean strips.

    theta = 0.15 keeps only the tight near-boundary band; at mean degree
    about 200 the interior false-positive mass is negligible, so the
    declared nodes trace the outer square and the hole separately.
    """
    region = _hole_region(5_000, 200.0, 10.0)
    net = bk.build_network(region, 5_000, 1.0, seed=424242)
    labels, trace = bk.run_protocol(net, bk.ProtocolConfig(theta=0.15, rule="one-hop"))
    return net, labels, trace
