"""Self-contained SVG pole-zero maps.

Poles draw as x, zeros as o, the right half-plane is shaded, and only the
upper half-plane (positive frequencies) is shown unless asked otherwise.
Output is deterministic: same input, byte-identical SVG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratfit import poles_and_zeros
from .staban import StabilityVerdict
from .sweeps import PoleCloud, PoleTrajectory

__all__ = ["PoleMapStyle", "render_pole_map"]


@dataclass(frozen=True)
class PoleMapStyle:
    axis: str = "rad/s"  # 'rad/s' | 'hz'
    full_plane: bool = False

    def __post_init__(self):
        if self.axis not in ("rad/s", "hz"):
            raise ValueError(f"unknown axis mode {self.axis!r}")


_WIDTH, _HEIGHT = 640, 480
_MARGIN = 48


def _fmt(x):
    return f"{x:.2f}"


def _tick_label(v):
    return f"{v:.4g}"


def _collect(report):
    """(poles, zeros, polylines, translucent) complex-plane content."""
    poles, zeros, lines, cloud = [], [], [], []
    if isinstance(report, StabilityVerdict):
        model = report.scan.model
        poles = list(model.poles)
        for name in model.port_names:
            _, zz = poles_and_zeros(model, name)
            zeros.extend(zz)
    elif isinstance(report, PoleTrajectory):
        for track in report.tracks:
            pts = [complex(p) for p in track if not np.isnan(p)]
            if pts:
                lines.append(pts)
                poles.extend(pts)
    elif isinstance(report, PoleCloud):
        cloud = [p for _, p in report.points]
    else:
        raise TypeError(f"cannot render {type(report).__name__}")
    return poles, zeros, lines, cloud


def render_pole_map(report, style=PoleMapStyle()):
    """Render a verdict, trajectory or cloud as an SVG document string."""
    poles, zeros, lines, cloud = _collect(report)
    unit = 2.0 * np.pi if style.axis == "hz" else 1.0

    def visible(p):
        return style.full_plane or p.imag >= 0.0

    pts = [p / unit for p in poles + zeros + cloud if visible(p)]
    for line in lines:
        pts.extend(p / unit for p in line if visible(p))

    if pts:
        re = np.array([p.real for p in pts])
        im = np.array([p.imag for p in pts])
        x_lo, x_hi = float(re.min()), float(re.max())
        y_lo, y_hi = float(im.min()), float(im.max())
    else:
        x_lo = x_hi = y_lo = y_hi = 0.0
    x_lo, x_hi = min(x_lo, 0.0), max(x_hi, 0.0)
    if not style.full_plane:
        y_lo = min(y_lo, 0.0)
    if x_hi == x_lo:
        x_hi, x_lo = x_hi + 1.0, x_lo - 1.0
    if y_hi == y_lo:
        y_hi, y_lo = y_hi + 1.0, y_lo - 1.0
    pad_x = 0.08 * (x_hi - x_lo)
    pad_y = 0.08 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    w, h = _WIDTH, _HEIGHT
    plot_w = w - 2 * _MARGIN
    plot_h = h - 2 * _MARGIN

    def sx(v):
        return _MARGIN + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return h - _MARGIN - (v - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    if x_hi > 0:
        out.append(
            f'<rect x="{_fmt(sx(0.0))}" y="{_MARGIN}" '
            f'width="{_fmt(sx(x_hi) - sx(0.0))}" height="{plot_h}" '
            f'fill="#fbdada"/>')
    # frame and axes
    out.append(f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{_fmt(sx(0.0))}" y1="{_MARGIN}" x2="{_fmt(sx(0.0))}" '
               f'y2="{h - _MARGIN}" stroke="#888" stroke-width="1"/>')
    if y_lo < 0 < y_hi:
        out.append(f'<line x1="{_MARGIN}" y1="{_fmt(sy(0.0))}" x2="{w - _MARGIN}" '
                   f'y2="{_fmt(sy(0.0))}" stroke="#888" stroke-width="1"/>')
    unit_name = "Hz" if style.axis == "hz" else "rad/s"
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        out.append(f'<text x="{_fmt(sx(xv))}" y="{h - _MARGIN + 16}" font-size="10" '
                   f'text-anchor="middle">{_tick_label(xv)}</text>')
        out.append(f'<text x="{_MARGIN - 6}" y="{_fmt(sy(yv) + 3)}" font-size="10" '
                   f'text-anchor="end">{_tick_label(yv)}</text>')
    out.append(f'<text x="{w // 2}" y="{h - 8}" font-size="11" text-anchor="middle">'
               f'Re [{unit_name}]</text>')
    out.append(f'<text x="14" y="{h // 2}" font-size="11" text-anchor="middle" '
               f'transform="rotate(-90 14 {h // 2})">Im [{unit_name}]</text>')

    def draw_pole(p, opacity=None):
        x, y = sx(p.real), sy(p.imag)
        extra = f' stroke-opacity="{opacity}"' if opacity else ""
        out.append(f'<line x1="{_fmt(x - 4)}" y1="{_fmt(y - 4)}" x2="{_fmt(x + 4)}" '
                   f'y2="{_fmt(y + 4)}" stroke="red" stroke-width="1.5"{extra}/>')
        out.append(f'<line x1="{_fmt(x - 4)}" y1="{_fmt(y + 4)}" x2="{_fmt(x + 4)}" '
                   f'y2="{_fmt(y - 4)}" stroke="red" stroke-width="1.5"{extra}/>')

    for line in lines:
        seg = [p / unit for p in line if visible(p)]
        if len(seg) >= 2:
            path = " ".join(f"{_fmt(sx(p.real))},{_fmt(sy(p.imag))}" for p in seg)
            out.append(f'<polyline points="{path}" fill="none" stroke="#3355cc" '
                       f'stroke-width="1.2"/>')
            # arrowhead along the final segment marks the sweep direction
            a, b = seg[-2], seg[-1]
            dx, dy = sx(b.real) - sx(a.real), sy(b.imag) - sy(a.imag)
            norm = (dx * dx + dy * dy) ** 0.5 or 1.0
            ux, uy = dx / norm, dy / norm
            tip_x, tip_y = sx(b.real), sy(b.imag)
            left = (tip_x - 8 * ux + 4 * uy, tip_y - 8 * uy - 4 * ux)
            right = (tip_x - 8 * ux - 4 * uy, tip_y - 8 * uy + 4 * ux)
            out.append(f'<polygon points="{_fmt(tip_x)},{_fmt(tip_y)} '
                       f'{_fmt(left[0])},{_fmt(left[1])} '
                       f'{_fmt(right[0])},{_fmt(right[1])}" fill="#3355cc"/>')

    for p in cloud:
        if visible(p):
            draw_pole(p / unit, opacity="0.35")
    for p in poles:
        if visible(p):
            draw_pole(p / unit)
    for z in zeros:
        if visible(z):
            zz = z / unit
            out.append(f'<circle cx="{_fmt(sx(zz.real))}" cy="{_fmt(sy(zz.imag))}" '
                       f'r="4" fill="none" stroke="blue" stroke-width="1.5"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
