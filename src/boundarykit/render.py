"""SVG rendering of networks with per-node colors.

Writes plain SVG 1.1 by string assembly; one <circle> per node, optional
region outline as <path> elements.  Continuous values map onto a dark-to-
light ramp; classifications use two fixed colors.
"""

from __future__ import annotations

import numpy as np

_RAMP_LOW = (26, 26, 64)      # dark indigo  (low values)
_RAMP_HIGH = (245, 233, 130)  # pale yellow  (high values)
_BOUNDARY_COLOR = "#e4572e"
_INTERIOR_COLOR = "#2e4057"


def _hex(rgb):
    return "#{:02x}{:02x}{:02x}".format(*(max(0, min(255, int(round(c)))) for c in rgb))


def ramp_color(t):
    """Color at position t in [0, 1] on the dark-to-light ramp."""
    t = min(1.0, max(0.0, float(t)))
    return _hex(tuple(a + (b - a) * t for a, b in zip(_RAMP_LOW, _RAMP_HIGH)))


def _fmt(x):
    return f"{x:.6g}"


def _bbox(network, region):
    pts = [network.positions] if network.n else []
    if region is not None:
        pts.append(region.outer)
    if not pts:
        return 0.0, 0.0, 1.0, 1.0
    allp = np.vstack(pts)
    xmin, ymin = allp.min(axis=0)
    xmax, ymax = allp.max(axis=0)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    return float(xmin), float(ymin), float(xmax), float(ymax)


def _svg_document(network, colors, path, region, point_size):
    xmin, ymin, xmax, ymax = _bbox(network, region)
    w = xmax - xmin
    h = ymax - ymin
    margin = 0.04 * max(w, h)
    if point_size is None:
        point_size = 0.3 * network.radius
    elif not 0 < point_size < np.inf:  # false for nan
        raise ValueError("point size must be positive and finite")
    # SVG y grows downward; mirror model y inside the bounding box.
    flip = ymin + ymax

    def cy(y):
        return flip - y

    lines = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" '
        f'height="{_fmt(800 * (h + 2 * margin) / (w + 2 * margin))}" '
        f'viewBox="{_fmt(xmin - margin)} {_fmt(ymin - margin)} '
        f'{_fmt(w + 2 * margin)} {_fmt(h + 2 * margin)}">')
    lines.append(f'<rect x="{_fmt(xmin - margin)}" y="{_fmt(ymin - margin)}" '
                 f'width="{_fmt(w + 2 * margin)}" height="{_fmt(h + 2 * margin)}" '
                 f'fill="#ffffff"/>')
    if region is not None:
        stroke = max(w, h) / 400.0
        for ring in (region.outer, *region.holes):
            d = "M " + " L ".join(f"{_fmt(x)} {_fmt(cy(y))}" for x, y in ring) + " Z"
            lines.append(f'<path d="{d}" fill="none" stroke="#555555" '
                         f'stroke-width="{_fmt(stroke)}"/>')
    for (x, y), color in zip(network.positions, colors):
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(cy(y))}" '
                     f'r="{_fmt(point_size)}" fill="{color}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def render_centrality(network, values, path, region=None, point_size=None):
    """Write an SVG with nodes colored dark (low) to light (high) by value."""
    values = np.asarray(values, dtype=float)
    if len(values) != network.n:
        raise ValueError("one value per node required")
    lo = values.min() if network.n else 0.0
    hi = values.max() if network.n else 1.0
    if hi > lo:
        ts = (values - lo) / (hi - lo)
    else:
        ts = np.full(network.n, 0.5)  # degenerate range: mid-scale
    _svg_document(network, [ramp_color(t) for t in ts], path, region, point_size)


def render_classification(network, labels, path, region=None, point_size=None):
    """Write an SVG with boundary/interior nodes in two fixed colors."""
    labels = np.asarray(labels, dtype=bool)
    if len(labels) != network.n:
        raise ValueError("one label per node required")
    colors = [_BOUNDARY_COLOR if b else _INTERIOR_COLOR for b in labels]
    _svg_document(network, colors, path, region, point_size)
