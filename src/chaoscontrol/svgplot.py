"""Minimal static SVG charts: polyline series with optional error bars.

Deliberately dependency-light; output is deterministic (fixed canvas,
fixed palette, fixed float formatting, no timestamps) so charts produced
by reruns of a seeded experiment are byte-identical.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["line_chart", "errorbar_chart"]

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 44, 56
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_DASHED = 'stroke="#555" stroke-width="1" stroke-dasharray="5,4"'
_MARKER_LABEL = 'font-size="11" fill="#555"'


def _expand(lo: float, hi: float) -> tuple:
    pad = (hi - lo) * 0.05 if lo != hi else abs(lo) * 0.5 or 1.0
    return lo - pad, hi + pad


class _Axes:
    """Linear data-to-pixel transform over the plot rectangle."""

    def __init__(self, xs: list, ys: list):
        xs, ys = xs or [0.0, 1.0], ys or [0.0, 1.0]
        self.x0, self.x1 = _expand(min(xs), max(xs))
        self.y0, self.y1 = _expand(min(ys), max(ys))
        self.w = _WIDTH - _ML - _MR
        self.h = _HEIGHT - _MT - _MB

    def px(self, x: float) -> float:
        return _ML + (x - self.x0) / (self.x1 - self.x0) * self.w

    def py(self, y: float) -> float:
        return _MT + (self.y1 - y) / (self.y1 - self.y0) * self.h


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _line(x1, y1, x2, y2, style: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


def _text(x, y, label: str, style: str) -> str:
    return f'<text x="{x}" y="{y}" {style}>{label}</text>'


def _frame(ax: _Axes, title: str, xlabel: str, ylabel: str) -> list:
    out = [
        f'<rect x="{_ML}" y="{_MT}" width="{ax.w}" height="{ax.h}" '
        'fill="none" stroke="#222" stroke-width="1"/>'
    ]
    if title:
        out.append(_text(f"{_WIDTH / 2:.1f}", 24, title, 'text-anchor="middle" font-size="15"'))
    for tx in _ticks(ax.x0, ax.x1):
        p = f"{ax.px(tx):.2f}"
        out.append(_line(p, _MT + ax.h, p, _MT + ax.h + 5, 'stroke="#222"'))
        out.append(_text(p, _MT + ax.h + 20, f"{tx:.6g}", 'text-anchor="middle" font-size="11"'))
    for ty in _ticks(ax.y0, ax.y1):
        p = ax.py(ty)
        out.append(_line(_ML - 5, f"{p:.2f}", _ML, f"{p:.2f}", 'stroke="#222"'))
        out.append(_text(_ML - 8, f"{p + 4:.2f}", f"{ty:.6g}", 'text-anchor="end" font-size="11"'))
    if xlabel:
        out.append(_text(f"{_ML + ax.w / 2:.1f}", _HEIGHT - 14, xlabel,
                         'text-anchor="middle" font-size="13"'))
    if ylabel:
        cy = f"{_MT + ax.h / 2:.1f}"
        out.append(_text(18, cy, ylabel, 'text-anchor="middle" font-size="13" '
                                         f'transform="rotate(-90 18 {cy})"'))
    return out


def _legend(labels: Sequence[str]) -> list:
    out = []
    x = _WIDTH - _MR - 150
    for i, label in enumerate(labels):
        if not label:
            continue
        y = _MT + 14 + 16 * i
        color = _PALETTE[i % len(_PALETTE)]
        out.append(_line(x, y - 4, x + 22, y - 4, f'stroke="{color}" stroke-width="2"'))
        out.append(_text(x + 28, y, label, 'font-size="12"'))
    return out


def _finite_rows(*columns) -> list:
    """The rows of ``zip(*columns)``, as floats, whose every entry is finite."""
    rows = (tuple(map(float, row)) for row in zip(*columns))
    return [row for row in rows if all(map(math.isfinite, row))]


def _chart(path, series, title, xlabel, ylabel, vlines=(), hlines=()) -> None:
    """Write (label, xs, ys, yerr or None) series; the axes span what is drawn.

    A series draws a vertex at each point with finite x and y and a bar
    where the error is finite too; only finite markers are drawn.  y spans
    the vertices, bar ends and ``hlines``; x every finite x and ``vlines``.
    """
    vlines = [(float(x), label) for x, label in vlines if math.isfinite(x)]
    hlines = [(float(y), label) for y, label in hlines if math.isfinite(y)]
    drawn, all_x, all_y = [], [], []
    for _, xs, ys, es in series:
        vertices = _finite_rows(xs, ys)
        bars = [(x, y - e, y + e) for x, y, e in _finite_rows(xs, ys, () if es is None else es)]
        drawn.append((vertices, bars))
        all_x.extend(x for x in map(float, xs) if math.isfinite(x))
        all_y.extend(y for _, y in vertices)
        all_y.extend(end for _, lo, hi in bars for end in (lo, hi))
    all_x.extend(x for x, _ in vlines)
    all_y.extend(y for y, _ in hlines)
    ax = _Axes(all_x, all_y)
    body = _frame(ax, title, xlabel, ylabel)
    for y, label in hlines:
        p = ax.py(y)
        body.append(_line(_ML, f"{p:.2f}", _ML + ax.w, f"{p:.2f}", _DASHED))
        if label:
            body.append(_text(_ML + 4, f"{p - 4:.2f}", label, _MARKER_LABEL))
    for i, (vertices, bars) in enumerate(drawn):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{ax.px(x):.2f},{ax.py(y):.2f}" for x, y in vertices)
        body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, lo, hi in bars:
            p, lo, hi = ax.px(x), ax.py(lo), ax.py(hi)
            for ends in ((p, lo, p, hi), (p - 4, lo, p + 4, lo), (p - 4, hi, p + 4, hi)):
                body.append(_line(*(f"{v:.2f}" for v in ends),
                                  f'stroke="{color}" stroke-width="1.2"'))
    for x, label in vlines:
        p = ax.px(x)
        body.append(_line(f"{p:.2f}", _MT, f"{p:.2f}", _MT + ax.h, _DASHED))
        if label:
            body.append(_text(f"{p + 4:.2f}", _MT + 14, label, _MARKER_LABEL))
    body.extend(_legend([label for label, *_ in series]))
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">')
    with open(path, "w") as fh:
        fh.write("\n".join([head, *body, "</svg>", ""]))


def line_chart(
    path,
    series: Sequence[tuple],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    vlines: Optional[Sequence[tuple]] = None,
) -> None:
    """Write a polyline chart; ``series`` is (label, xs, ys) triples.

    ``vlines`` draws labelled dashed vertical markers, e.g. a washout or
    warm-up boundary in a training-data snapshot.
    """
    series = [(label, xs, ys, None) for label, xs, ys in series]
    _chart(path, series, title, xlabel, ylabel, vlines=vlines or ())


def errorbar_chart(
    path,
    series: Sequence[tuple],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    hlines: Optional[Sequence[tuple]] = None,
) -> None:
    """Write a mean/std chart; ``series`` is (label, xs, ys, yerr) tuples.

    Each point gets a vertical bar spanning y err with end caps.
    ``hlines`` draws labelled dashed horizontal reference levels.
    """
    _chart(path, series, title, xlabel, ylabel, hlines=hlines or ())
