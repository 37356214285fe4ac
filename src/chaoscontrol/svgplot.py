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


def _finite(values) -> list:
    return [float(v) for v in values if math.isfinite(float(v))]


def _expand(lo: float, hi: float) -> tuple:
    if lo == hi:
        pad = abs(lo) * 0.5 or 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
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


def _frame(ax: _Axes, title: str, xlabel: str, ylabel: str) -> list:
    out = [
        f'<rect x="{_ML}" y="{_MT}" width="{ax.w}" height="{ax.h}" '
        'fill="none" stroke="#222" stroke-width="1"/>'
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{title}</text>'
        )
    for tx in _ticks(ax.x0, ax.x1):
        p = ax.px(tx)
        out.append(
            f'<line x1="{p:.2f}" y1="{_MT + ax.h}" x2="{p:.2f}" '
            f'y2="{_MT + ax.h + 5}" stroke="#222"/>'
        )
        out.append(
            f'<text x="{p:.2f}" y="{_MT + ax.h + 20}" text-anchor="middle" '
            f'font-size="11">{tx:.6g}</text>'
        )
    for ty in _ticks(ax.y0, ax.y1):
        p = ax.py(ty)
        out.append(
            f'<line x1="{_ML - 5}" y1="{p:.2f}" x2="{_ML}" y2="{p:.2f}" '
            'stroke="#222"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{p + 4:.2f}" text-anchor="end" '
            f'font-size="11">{ty:.6g}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_ML + ax.w / 2:.1f}" y="{_HEIGHT - 14}" '
            f'text-anchor="middle" font-size="13">{xlabel}</text>'
        )
    if ylabel:
        cy = _MT + ax.h / 2
        out.append(
            f'<text x="18" y="{cy:.1f}" text-anchor="middle" font-size="13" '
            f'transform="rotate(-90 18 {cy:.1f})">{ylabel}</text>'
        )
    return out


def _legend(labels: Sequence[str]) -> list:
    out = []
    x = _WIDTH - _MR - 150
    for i, label in enumerate(labels):
        if not label:
            continue
        y = _MT + 14 + 16 * i
        color = _PALETTE[i % len(_PALETTE)]
        out.append(
            f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{x + 28}" y="{y}" font-size="12">{label}</text>')
    return out


def _dashed(x1, y1, x2, y2) -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        'stroke="#555" stroke-width="1" stroke-dasharray="5,4"/>'
    )


def _marker_label(x, y, label: str) -> str:
    return f'<text x="{x}" y="{y}" font-size="11" fill="#555">{label}</text>'


def _chart(path, series, title, xlabel, ylabel, vlines=(), hlines=()) -> None:
    """Write (label, xs, ys, yerr or None) series; y spans y or y -+ yerr, and hlines."""
    all_x, all_y = [], []
    for _, xs, ys, es in series:
        all_x.extend(_finite(xs))
        if es is None:
            all_y.extend(_finite(ys))
            continue
        for y, e in zip(ys, es):
            if math.isfinite(float(y)) and math.isfinite(float(e)):
                all_y.extend([float(y) - float(e), float(y) + float(e)])
    all_y.extend(float(y) for y, _ in hlines)
    ax = _Axes(all_x, all_y)
    body = _frame(ax, title, xlabel, ylabel)
    for y, label in hlines:
        p = ax.py(float(y))
        body.append(_dashed(_ML, f"{p:.2f}", _ML + ax.w, f"{p:.2f}"))
        if label:
            body.append(_marker_label(_ML + 4, f"{p - 4:.2f}", label))
    for i, (_, xs, ys, es) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{ax.px(float(x)):.2f},{ax.py(float(y)):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(float(x)) and math.isfinite(float(y))
        )
        body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y, e in zip(xs, ys, () if es is None else es):
            x, y, e = float(x), float(y), float(e)
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(e)):
                continue
            p, lo, hi = ax.px(x), ax.py(y - e), ax.py(y + e)
            bar_and_caps = ((p, lo, p, hi), (p - 4, lo, p + 4, lo), (p - 4, hi, p + 4, hi))
            for x1, y1, x2, y2 in bar_and_caps:
                body.append(
                    f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                    f'stroke="{color}" stroke-width="1.2"/>'
                )
    for x, label in vlines:
        p = ax.px(float(x))
        body.append(_dashed(f"{p:.2f}", _MT, f"{p:.2f}", _MT + ax.h))
        if label:
            body.append(_marker_label(f"{p + 4:.2f}", _MT + 14, label))
    body.extend(_legend([label for label, *_ in series]))
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        'font-family="sans-serif">'
    )
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
