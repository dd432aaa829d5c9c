"""Tiny hand-rolled SVG emitter for 2D line plots (no plotting dependency).

Coordinates arrive in data space (x to the right, y up); the emitter flips
the y axis into SVG pixel space, draws an axis frame, and renders each curve
as a polyline.
"""

from __future__ import annotations


class SvgPlot:
    def __init__(self, width=640, height=640, margin=50, title=""):
        self.width = width
        self.height = height
        self.margin = margin
        self.title = title
        self.curves = []               # (points, color, stroke_width)
        self.bounds = None

    def add_curve(self, xs, ys, color="#336699", width=1.0):
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)]
        if not pts:
            return
        xs_, ys_ = zip(*pts)
        lo = (min(xs_), min(ys_))
        hi = (max(xs_), max(ys_))
        if self.bounds is None:
            self.bounds = [lo[0], lo[1], hi[0], hi[1]]
        else:
            self.bounds[0] = min(self.bounds[0], lo[0])
            self.bounds[1] = min(self.bounds[1], lo[1])
            self.bounds[2] = max(self.bounds[2], hi[0])
            self.bounds[3] = max(self.bounds[3], hi[1])
        self.curves.append((pts, color, width))

    def _transform(self):
        x0, y0, x1, y1 = self.bounds
        pad_x = 0.02 * (x1 - x0 or 1.0)
        pad_y = 0.02 * (y1 - y0 or 1.0)
        x0, x1 = x0 - pad_x, x1 + pad_x
        y0, y1 = y0 - pad_y, y1 + pad_y
        w = self.width - 2 * self.margin
        h = self.height - 2 * self.margin
        sx = w / (x1 - x0)
        sy = h / (y1 - y0)

        def to_px(x, y):
            return (self.margin + (x - x0) * sx,
                    self.height - self.margin - (y - y0) * sy)

        return to_px, (x0, y0, x1, y1)

    def render(self):
        if self.bounds is None:
            raise ValueError("nothing to plot")
        to_px, (x0, y0, x1, y1) = self._transform()
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">',
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
        ]
        if self.title:
            parts.append(f'<text x="{self.width / 2}" y="{self.margin / 2}" '
                         f'text-anchor="middle" font-size="14" '
                         f'font-family="sans-serif">{self.title}</text>')
        fx0, fy0 = to_px(x0, y0)
        fx1, fy1 = to_px(x1, y1)
        parts.append(f'<rect x="{min(fx0, fx1):.2f}" y="{min(fy0, fy1):.2f}" '
                     f'width="{abs(fx1 - fx0):.2f}" height="{abs(fy1 - fy0):.2f}" '
                     f'fill="none" stroke="#999" stroke-width="0.5"/>')
        for label, x, y, anchor in (
                (f"{x0:.3g}", x0, y0, "start"), (f"{x1:.3g}", x1, y0, "end")):
            px, py = to_px(x, y)
            parts.append(f'<text x="{px:.1f}" y="{py + 16:.1f}" '
                         f'text-anchor="{anchor}" font-size="11" '
                         f'font-family="sans-serif">{label}</text>')
        for label, y in ((f"{y0:.3g}", y0), (f"{y1:.3g}", y1)):
            px, py = to_px(x0, y)
            parts.append(f'<text x="{px - 6:.1f}" y="{py:.1f}" '
                         f'text-anchor="end" font-size="11" '
                         f'font-family="sans-serif">{label}</text>')
        for pts, color, width in self.curves:
            coords = " ".join(f"{to_px(x, y)[0]:.2f},{to_px(x, y)[1]:.2f}"
                              for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="{width}"/>')
        parts.append("</svg>")
        return "\n".join(parts)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.render())


def contour_map_svg(curves, highlight_levels, path, title="meridian contour map"):
    """Contour map in the (x, z) meridian plane; highlighted levels are
    drawn heavier and mirrored to negative x."""
    plot = SvgPlot(title=title)
    for curve in curves:
        hl = any(abs(curve.level - h) < 1e-12 for h in highlight_levels)
        color = "#cc2222" if hl else "#88aacc"
        width = 2.0 if hl else 0.8
        z, r = curve.samples[:, 0], curve.samples[:, 1]
        plot.add_curve(r, z, color=color, width=width)
        plot.add_curve(-r, z, color=color, width=width)
    # the rod
    plot.add_curve([0.0, 0.0], [0.0, 1.0], color="#2244cc", width=2.5)
    plot.write(path)


def mesh_wireframe_svg(mesh, path, title="mesh wireframe"):
    plot = SvgPlot(title=title)
    for a, b in mesh.nodes[mesh._edge_census()[0]]:
        plot.add_curve([a[0], b[0]], [a[1], b[1]], color="#557799", width=0.5)
    plot.write(path)
