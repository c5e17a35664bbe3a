"""Thread counts for the parallel kernels, without importing scipy."""

from __future__ import annotations

import os

WORKERS_ENV = "BOUNDARYKIT_WORKERS"


def resolve_workers(workers=None):
    """Worker count: explicit argument, else env override, else cpu count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
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
