"""Tiny hand-rolled SVG figures of 2D line drawings (no plotting dependency).

A figure is a list of strokes, each a colour, a line width and a sequence
of (n, 2) polylines in data space (x to the right, y up).  The writer maps
every vertex to pixels at once, flipping the y axis, and writes each stroke
as one <path> holding one M...L... run per polyline, inside an axis frame
with its extent labels and the figure's title.
"""

from __future__ import annotations

import numpy as np

_SIZE = 640                    # the square figure's side, in pixels
_MARGIN = 50                   # pixels between the figure's edge and the frame


def _write_svg(path, title, strokes):
    """Write strokes, (colour, width, polylines) triples, to an SVG file
    whose frame spans every vertex with 2% padding; a stroke without
    polylines is left out."""
    strokes = [(colour, width, lines) for colour, width, lines in strokes
               if len(lines)]
    vertices = [np.concatenate(lines) for _, _, lines in strokes]
    pts = np.concatenate(vertices)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.02 * np.where(hi > lo, hi - lo, 1.0)
    lo, hi = lo - pad, hi + pad
    origin = np.array([_MARGIN, _SIZE - _MARGIN])
    step = (_SIZE - 2 * _MARGIN) / (hi - lo) * np.array([1.0, -1.0])
    (fx0, fy0), (fx1, fy1) = (origin + (np.array([lo, hi]) - lo) * step).tolist()
    (x0, y0), (x1, y1) = lo.tolist(), hi.tolist()
    text = 'font-size="11" font-family="sans-serif"'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<text x="{_SIZE / 2}" y="{_MARGIN / 2}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{title}</text>',
        f'<rect x="{fx0:.2f}" y="{fy1:.2f}" width="{fx1 - fx0:.2f}" '
        f'height="{fy0 - fy1:.2f}" fill="none" stroke="#999" stroke-width="0.5"/>',
        f'<text x="{fx0:.1f}" y="{fy0 + 16:.1f}" text-anchor="start" {text}>{x0:.3g}</text>',
        f'<text x="{fx1:.1f}" y="{fy0 + 16:.1f}" text-anchor="end" {text}>{x1:.3g}</text>',
        f'<text x="{fx0 - 6:.1f}" y="{fy0:.1f}" text-anchor="end" {text}>{y0:.3g}</text>',
        f'<text x="{fx0 - 6:.1f}" y="{fy1:.1f}" text-anchor="end" {text}>{y1:.3g}</text>',
    ]
    for (colour, width, lines), pts in zip(strokes, vertices):
        runs = "".join("M%.2f,%.2f" + "L%.2f,%.2f" * (len(pl) - 1) for pl in lines)
        d = runs % tuple((origin + (pts - lo) * step).ravel().tolist())
        parts.append(f'<path d="{d}" fill="none" stroke="{colour}" '
                     f'stroke-width="{width}"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def contour_map_svg(curves, highlight_levels, rod_length, path):
    """Contour map in the (x, z) meridian plane: every level is drawn at
    x = r and mirrored to x = -r, the highlighted levels heavier, and the
    rod runs along the axis from z = 0 to z = rod_length."""
    highlighted, others = [], []
    for curve in curves:
        rz = curve.samples[:, ::-1]
        hl = any(abs(curve.level - h) < 1e-12 for h in highlight_levels)
        (highlighted if hl else others).extend((rz, rz * (-1.0, 1.0)))
    rod = np.array([[0.0, 0.0], [0.0, rod_length]])
    _write_svg(path, "meridian contour map",
               [("#88aacc", 0.8, others), ("#cc2222", 2.0, highlighted),
                ("#2244cc", 2.5, [rod])])


def mesh_wireframe_svg(mesh, path):
    """Every edge of the mesh, in the (r, z) plane, as one stroke."""
    _write_svg(path, "mesh wireframe",
               [("#557799", 0.5, mesh.nodes[mesh._edge_census()[0]])])
