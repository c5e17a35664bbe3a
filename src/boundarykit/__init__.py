"""boundarykit: boundary recognition in geometric sensor networks.

Generate unit-disk networks over polygonal regions with holes, compute
shortest-path and local centrality indices, study the normalized
coefficient st(v) numerically, and simulate a distributed six-phase
boundary-recognition protocol with full message accounting.

Submodules load on first use (PEP 562): ``import boundarykit`` imports
none of them, and reading a name such as ``boundarykit.build_network``
imports the submodule that defines it, with its numpy and scipy imports.
"""

import importlib

__version__ = "1.0.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("BinningMismatchError", "FileFormatError", "InvalidRegionError",
               "NumericalError", "SamplingError"),
    "geometry": ("PolygonRegion", "area", "contains", "distance_to_boundary",
                 "distances_to_boundary", "dumps_region", "load_region",
                 "loads_region", "sample_uniform", "save_region", "square_with_hole"),
    "netgen": ("SensorNetwork", "adjacency_from_positions", "build_network",
               "expected_degree", "ground_truth", "load_network",
               "radius_for_degree", "save_network"),
    "centrality": ("CentralityResult", "betweenness_centrality", "compute",
                   "khop_size", "normalized_st", "restricted_stress", "stress1",
                   "stress_centrality"),
    "theory": ("StDistribution", "ThresholdErrorReport", "clipped_disk_area",
               "estimate_errors", "lens_area", "m_area", "neighborhood_st",
               "sample_st", "separation", "sigma_interior", "st_dense"),
    "protocol": ("AccountingSummary", "ComponentInfo", "NodeState", "ProtocolConfig",
                 "ProtocolTrace", "RoundRecord", "boundary_strips",
                 "classification_rates", "classification_to_csv", "classify_local",
                 "message_accounting", "run_protocol", "trace_to_csv"),
    "render": ("ramp_color", "render_centrality", "render_classification"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
