"""Minimal standalone SVG line charts: axes, ticks, legend, optional error bars.

Textual and diffable on purpose; no plotting dependency.  Numbers are
rendered with up to 6 significant digits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = ["Series", "PointSeries", "write_line_chart"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 24, 40, 56


class Series(NamedTuple):
    """A polyline with a legend label."""

    label: str
    x: list
    y: list


class PointSeries(NamedTuple):
    """Scatter markers with optional symmetric error bars."""

    label: str
    x: list
    y: list
    yerr: list | None = None


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_line_chart(path, series: list[Series], title: str, xlabel: str,
                     ylabel: str, points: list[PointSeries] | None = None) -> None:
    """Render line series (and optional measurement points) to an SVG file."""
    points = points or []
    xs = [v for s in series for v in s.x] + [v for p in points for v in p.x]
    ys = [v for s in series for v in s.y] + [v for p in points for v in p.y]
    for p in points:
        if p.yerr is not None:
            ys += [y + e for y, e in zip(p.y, p.yerr)]
            ys += [y - e for y, e in zip(p.y, p.yerr)]
    if not xs or not ys:
        raise ValueError("chart needs at least one data point")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    parts.append(f'<text x="{_WIDTH/2:.1f}" y="20" text-anchor="middle" '
                 f'font-size="15">{title}</text>')

    # axes box, ticks, grid
    parts.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="black"/>')
    for t in _nice_ticks(x_lo, x_hi):
        if not (x_lo <= t <= x_hi):
            continue
        px = sx(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_MARGIN_T + plot_h}" x2="{px:.1f}" '
                     f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<line x1="{px:.1f}" y1="{_MARGIN_T}" x2="{px:.1f}" '
                     f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd"/>')
        parts.append(f'<text x="{px:.1f}" y="{_MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        if not (y_lo <= t <= y_hi):
            continue
        py = sy(t)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" x2="{_MARGIN_L}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<line x1="{_MARGIN_L}" y1="{py:.1f}" x2="{_MARGIN_L + plot_w}" '
                     f'y2="{py:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w/2:.1f}" y="{_HEIGHT - 14}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h/2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {_MARGIN_T + plot_h/2:.1f})">{ylabel}</text>')

    legend_y = _MARGIN_T + 12
    color_i = 0
    for s in series:
        color = _COLORS[color_i % len(_COLORS)]
        color_i += 1
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.x, s.y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<line x1="{_MARGIN_L + plot_w - 130}" y1="{legend_y}" '
                     f'x2="{_MARGIN_L + plot_w - 110}" y2="{legend_y}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_MARGIN_L + plot_w - 104}" y="{legend_y + 4}">'
                     f'{s.label}</text>')
        legend_y += 16
    for p in points:
        color = _COLORS[color_i % len(_COLORS)]
        color_i += 1
        for k, (x, y) in enumerate(zip(p.x, p.y)):
            px, py = sx(x), sy(y)
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.5" fill="{color}"/>')
            if p.yerr is not None:
                e = p.yerr[k]
                parts.append(f'<line x1="{px:.2f}" y1="{sy(y - e):.2f}" x2="{px:.2f}" '
                             f'y2="{sy(y + e):.2f}" stroke="{color}"/>')
                for yy in (y - e, y + e):
                    parts.append(f'<line x1="{px - 4:.2f}" y1="{sy(yy):.2f}" '
                                 f'x2="{px + 4:.2f}" y2="{sy(yy):.2f}" stroke="{color}"/>')
        parts.append(f'<circle cx="{_MARGIN_L + plot_w - 120}" cy="{legend_y:.1f}" '
                     f'r="3.5" fill="{color}"/>')
        parts.append(f'<text x="{_MARGIN_L + plot_w - 104}" y="{legend_y + 4}">'
                     f'{p.label}</text>')
        legend_y += 16

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
