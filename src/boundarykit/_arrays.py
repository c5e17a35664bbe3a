"""Array helpers on numpy alone, so that theory can use them without scipy."""

from __future__ import annotations

import numpy as np


def distinct(a):
    """The distinct values of the nonnegative array ``a``, in order.  Sorting
    finds them several times faster than the hash table that plain
    ``np.unique`` uses."""
    a = np.sort(a)
    return a[np.diff(a, prepend=-1) != 0]


def is_integer(x):
    """Whether ``x`` is a Python or numpy integer; a bool is not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)
