"""Minimal self-contained SVG line charts for sweep results.

Exists for desk inspection of sweep outputs, not publication plots: axes,
tick labels at the extremes, one polyline per value series and a legend; a
``<scheme>_stderr`` column is not drawn.  Gaps (None values) split a series
into separate polyline segments.
"""

from __future__ import annotations

from itertools import groupby

from .scenario import SweepResult

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 30, 45


def line_chart(result: SweepResult, title: str = "") -> str:
    "Render a sweep as an SVG document string."
    xs = result.axis_values
    series = {name: values for name, values in result.series.items()
              if not name.endswith("_stderr")}
    ys = [y for values in series.values() for y in values if y is not None]
    if not ys:
        raise ValueError("nothing to plot: every series value is a gap")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" x2="{_MARGIN_L + plot_w}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.2f}" y="18" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 8}" '
                 f'text-anchor="middle" font-size="12">{result.axis_name}</text>')
    for x_val, anchor in ((x_lo, "start"), (x_hi, "end")):
        parts.append(f'<text x="{sx(x_val):.2f}" y="{_MARGIN_T + plot_h + 16}" '
                     f'text-anchor="{anchor}" font-size="11">{x_val:g}</text>')
    for y_val in (y_lo, y_hi):
        parts.append(f'<text x="{_MARGIN_L - 6}" y="{sy(y_val) + 4:.2f}" '
                     f'text-anchor="end" font-size="11">{y_val:.4g}</text>')

    for idx, (name, values) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        for present, points in groupby(zip(xs, values), key=lambda point: point[1] is not None):
            seg = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in points] if present else []
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            elif seg:
                parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        legend_y = _MARGIN_T + 14 * idx + 6
        parts.append(f'<line x1="{_MARGIN_L + plot_w - 110}" y1="{legend_y}" '
                     f'x2="{_MARGIN_L + plot_w - 90}" y2="{legend_y}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_MARGIN_L + plot_w - 84}" y="{legend_y + 4}" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
