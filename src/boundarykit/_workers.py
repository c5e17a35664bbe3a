"""Thread counts and the thread pool of the parallel kernels, scipy-free."""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

WORKERS_ENV = "BOUNDARYKIT_WORKERS"


def resolve_workers(workers=None):
    """Worker count: explicit argument, else env override, else cpu count."""
    if workers is not None:
        from ._arrays import is_integer  # here, so that importing this module loads no numpy

        if not is_integer(workers) or workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
        return int(workers)
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            w = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}")
        if w < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {w}")
        return w
    return os.cpu_count() or 1


def ordered_map(fn, items, workers):
    """``fn`` over ``items`` in their order: ``map`` for one worker, else on ``workers``
    threads, with at most 2 * workers calls submitted and not yet yielded."""
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        pending = deque()
        for item in items:
            pending.append(ex.submit(fn, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
