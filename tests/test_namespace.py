"""The package namespace: names load their submodule on first use."""

import sys

import pytest

import boundarykit as bk

# __all__ as it stood when the package imported every submodule eagerly
EAGER_ALL = {
    "AccountingSummary", "BinningMismatchError", "CentralityResult",
    "ComponentInfo", "FileFormatError", "InvalidRegionError", "NodeState",
    "NumericalError", "PolygonRegion", "ProtocolConfig", "ProtocolTrace",
    "RoundRecord", "SamplingError", "SensorNetwork", "StDistribution",
    "ThresholdErrorReport",
    "adjacency_from_positions", "area", "betweenness_centrality",
    "boundary_strips", "build_network", "classification_rates",
    "classification_to_csv", "classify_local", "clipped_disk_area",
    "compute", "contains", "distance_to_boundary", "distances_to_boundary",
    "estimate_errors", "expected_degree", "ground_truth", "khop_size",
    "dumps_region", "lens_area", "load_network", "load_region",
    "loads_region", "m_area",
    "message_accounting", "neighborhood_st", "normalized_st",
    "radius_for_degree", "ramp_color",
    "render_centrality", "render_classification", "restricted_stress",
    "run_protocol", "sample_st", "sample_uniform", "save_network",
    "save_region", "separation", "sigma_interior", "square_with_hole",
    "st_dense", "stress1", "stress_centrality", "trace_to_csv",
}


def test_all_unchanged():
    assert len(bk.__all__) == len(set(bk.__all__))
    assert set(bk.__all__) == EAGER_ALL


def test_names_resolve_to_their_submodule():
    listed = dir(bk)
    for name in bk.__all__:
        obj = getattr(bk, name)
        assert obj.__module__.startswith("boundarykit.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert name in listed


def test_star_import_binds_all():
    namespace = {}
    exec("from boundarykit import *", namespace)
    for name in bk.__all__:
        assert namespace[name] is getattr(bk, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        bk.no_such_name
    assert not hasattr(bk, "Stress1")
