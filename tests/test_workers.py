"""The thread pool that the parallel kernels share."""

import threading

import pytest

from boundarykit._workers import ordered_map


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
