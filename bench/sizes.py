"""Operating points of the benchmark, at full and smoke size.

Standard library only, so that ``run.py`` can time the package import
from a clean start.
"""

import math

RADIUS = 1.0
THEORY_S = 0.0      # boundary distance of `theory dist`, in radii
THEORY_MU = 200.0   # expected interior degree of `theory dist`


def hole_for_degree(n, degree, side):
    """Side of the centred hole that gives ``n`` nodes the mean degree ``degree``.

    The same construction as ``_hole_region`` in ``tests/conftest.py``.
    """
    return math.sqrt(side * side - n * math.pi / degree)


# (nodes, square side, hole side) per network, and the `theory dist`
# sample count.  `paths` is the paths1500 network; the 20k workloads
# probe the path measures on the `paths` network of the smoke size,
# since they never call them and a full-size call would take hours.
SIZES = {
    "full": {
        "desk": (20_000, 26.0, hole_for_degree(20_000, 100.0, 26.0)),
        "paths": (1_500, 8.0, 3.0),
        "samples": 100_000,
    },
    "smoke": {
        "desk": (400, 8.0, 3.0),
        "paths": (400, 8.0, 3.0),
        "samples": 1_000,
    },
}

# network each workload samples its region from
NETWORK_OF = {"desk20k": "desk", "paths1500": "paths", "cli20k": "desk"}
