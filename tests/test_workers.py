"""The thread pool that the parallel kernels share."""

import re
import threading

import numpy as np
import pytest

import boundarykit as bk
from boundarykit._workers import WORKERS_ENV, ordered_map, resolve_workers

PATH4 = [[1], [0, 2], [1, 3], [2]]
_RUNS = {
    "stress": lambda w: bk.stress_centrality(PATH4, workers=w),
    "betweenness": lambda w: bk.betweenness_centrality(PATH4, workers=w),
    "rstress": lambda w: bk.restricted_stress(PATH4, 2, workers=w),
    "rstress1": lambda w: bk.restricted_stress(PATH4, 1, workers=w),
    "sample_st": lambda w: bk.sample_st(0.3, 20.0, 500, 4, workers=w).counts,
}


@pytest.mark.parametrize("workers", [2.5, True, False, np.float64(3.0), np.True_, "2", 0, -1],
                         ids=["float", "True", "False", "float64", "bool_", "str", "0", "-1"])
def test_workers_must_be_an_integer(workers, monkeypatch):
    # these once ran, as int(workers) threads, or raised a bare TypeError
    monkeypatch.setenv(WORKERS_ENV, "2")  # an explicit argument is checked all the same
    message = re.escape(f"workers must be an integer >= 1, got {workers!r}")
    with pytest.raises(ValueError, match=message):
        resolve_workers(workers)
    for run in _RUNS.values():
        with pytest.raises(ValueError, match=message):
            run(workers)


def test_numpy_integer_workers():
    assert resolve_workers(np.int64(2)) == 2 and type(resolve_workers(np.int64(2))) is int
    for name, run in _RUNS.items():
        assert np.array_equal(run(np.int64(2)), run(2)) and np.array_equal(run(2), run(1)), name


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ordered_map_yields_in_order(workers):
    assert list(ordered_map(lambda x: x * x, range(50), workers)) == [x * x for x in range(50)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ordered_map_bounds_calls_in_flight(workers):
    drawn = []

    def items():
        for k in range(40):
            drawn.append(k)
            yield k

    in_flight = [len(drawn) - k for k, _ in enumerate(ordered_map(abs, items(), workers))]
    assert max(in_flight) == (1 if workers == 1 else 2 * workers)


def test_ordered_map_runs_calls_at_once():
    barrier = threading.Barrier(2, timeout=10)

    def meet(x):  # each call waits for another, which calls in series never do
        barrier.wait()
        return x

    assert list(ordered_map(meet, range(4), 2)) == [0, 1, 2, 3]


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_raises_the_error_of_a_call(workers):
    def fn(x):
        if x == 3:
            raise KeyError(x)
        return x

    got = []
    with pytest.raises(KeyError):
        for y in ordered_map(fn, range(10), workers):
            got.append(y)
    assert got == [0, 1, 2]


def test_ordered_map_zero_workers_runs_in_caller():
    caller = threading.get_ident()
    assert list(ordered_map(lambda x: (x, threading.get_ident()), range(3), 0)) == [
        (x, caller) for x in range(3)]
