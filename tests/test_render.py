"""SVG output: one circle per node, linear color scale, fixed class colors."""

import re

import numpy as np
import pytest

import boundarykit as bk


def tiny_net():
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    indptr, indices = bk.adjacency_from_positions(pts, 1.0)
    return bk.SensorNetwork(pts, 1.0, indptr, indices)


def circles(svg):
    return re.findall(r"<circle[^>]*>", svg)


def fills(svg):
    return [re.search(r'fill="([^"]+)"', c).group(1) for c in circles(svg)]


def test_one_circle_per_node(tmp_path):
    p = tmp_path / "out.svg"
    bk.render_centrality(tiny_net(), np.array([0.0, 1.0, 2.0]), p)
    svg = p.read_text()
    assert svg.startswith("<?xml") or svg.startswith("<svg")
    assert len(circles(svg)) == 3


def test_linear_scale_dark_to_light(tmp_path):
    p = tmp_path / "out.svg"
    bk.render_centrality(tiny_net(), np.array([0.0, 1.0, 2.0]), p)
    f = fills(p.read_text())
    # min maps to the dark end, max to the light end
    assert f[0] == bk.ramp_color(0.0)
    assert f[1] == bk.ramp_color(0.5)
    assert f[2] == bk.ramp_color(1.0)


def test_constant_values_mid_scale(tmp_path):
    p = tmp_path / "out.svg"
    bk.render_centrality(tiny_net(), np.array([7.0, 7.0, 7.0]), p)
    f = fills(p.read_text())
    assert set(f) == {bk.ramp_color(0.5)}


def test_classification_two_colors(tmp_path):
    p = tmp_path / "out.svg"
    bk.render_classification(tiny_net(), np.array([True, False, True]), p)
    f = fills(p.read_text())
    assert f[0] == f[2] != f[1]
    assert len(set(f)) == 2


def test_region_outline_paths(tmp_path):
    reg = bk.square_with_hole(4.0, 2.0)
    p = tmp_path / "out.svg"
    bk.render_centrality(tiny_net(), np.array([0.0, 1.0, 2.0]), p, region=reg)
    svg = p.read_text()
    assert len(re.findall(r"<path[^>]*>", svg)) == 2  # outer ring + hole


def test_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        bk.render_centrality(tiny_net(), np.array([1.0, 2.0]), tmp_path / "x.svg")
    with pytest.raises(ValueError):
        bk.render_classification(tiny_net(), np.array([True]), tmp_path / "y.svg")


def test_point_size_override(tmp_path):
    p = tmp_path / "out.svg"
    bk.render_centrality(tiny_net(), np.array([0.0, 1.0, 2.0]), p, point_size=9.5)
    assert 'r="9.5"' in p.read_text()


@pytest.mark.parametrize("size", [0.0, -1.0, float("nan"), float("inf")])
def test_point_size_must_be_positive_and_finite(tmp_path, size):
    p = tmp_path / "out.svg"
    with pytest.raises(ValueError, match="point size"):
        bk.render_centrality(tiny_net(), np.array([0.0, 1.0, 2.0]), p, point_size=size)
    with pytest.raises(ValueError, match="point size"):
        bk.render_classification(tiny_net(), np.array([True, False, True]), p,
                                 point_size=size)
    assert not p.exists()


def test_ramp_color_endpoints():
    assert bk.ramp_color(0.0) == "#1a1a40"
    assert bk.ramp_color(1.0) == "#f5e982"
    assert re.fullmatch(r"#[0-9a-f]{6}", bk.ramp_color(0.37))


def test_dense_run_marks_near_boundary_band(annulus_run, tmp_path):
    # every node drawn in the boundary color sits within two radii of the
    # true region boundary
    net, labels, trace = annulus_run
    p = tmp_path / "cls.svg"
    bk.render_classification(net, labels, p, region=net.region)
    assert len(circles(p.read_text())) == net.n
    d = bk.distances_to_boundary(net.region, net.positions)
    assert float(d[labels].max()) < 2.0 * net.radius
