"""Tiny deterministic SVG chart writers.

Hand-rolled bar/pie/timeline rendering so stats and grounding visualizations
are byte-stable and need no plotting stack. Output is intentionally plain.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_PALETTE = ("#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#b279a2")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _open(width: int, height: int, title: str) -> list[str]:
    """The <svg> element, white background and centered title of a chart."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
    ]


def _close(parts: list[str]) -> str:
    return "\n".join(parts) + "\n</svg>\n"


def bar_chart(values: Mapping[str, float], title: str, y_label: str = "") -> str:
    """Vertical bar chart; keys become x-axis labels in insertion order."""
    if not values:
        raise ValueError("bar_chart needs at least one value")
    width, height = 480, 300
    margin_l, margin_b, margin_t = 50, 40, 36
    plot_w = width - margin_l - 20
    plot_h = height - margin_t - margin_b
    vmax = max(max(values.values()), 1e-12)
    n = len(values)
    slot = plot_w / n
    bar_w = slot * 0.6

    parts = _open(width, height, title)
    if y_label:
        parts.append(
            f'<text x="14" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {margin_t + plot_h / 2:.1f})">{_esc(y_label)}</text>'
        )
    # axis lines
    x0, y0 = margin_l, margin_t + plot_h
    parts.append(f'<line x1="{x0}" y1="{margin_t}" x2="{x0}" y2="{y0}" stroke="#333"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="#333"/>')
    for i, (label, v) in enumerate(values.items()):
        h = plot_h * (v / vmax)
        bx = x0 + slot * i + (slot - bar_w) / 2
        by = y0 - h
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<rect x="{bx:.1f}" y="{by:.1f}" width="{bar_w:.1f}" height="{h:.1f}" fill="{color}"/>')
        parts.append(
            f'<text x="{bx + bar_w / 2:.1f}" y="{by - 4:.1f}" text-anchor="middle">{v:.3g}</text>'
        )
        parts.append(
            f'<text x="{bx + bar_w / 2:.1f}" y="{y0 + 16}" text-anchor="middle">{_esc(str(label))}</text>'
        )
    return _close(parts)


def pie_chart(fractions: Mapping[str, float], title: str) -> str:
    """Pie over fractions that should sum to ~1; slices in insertion order."""
    if not fractions:
        raise ValueError("pie_chart needs at least one slice")
    width, height = 420, 300
    cx, cy, r = 150.0, 168.0, 110.0
    parts = _open(width, height, title)
    total = sum(fractions.values())
    angle = -math.pi / 2
    for i, (label, frac) in enumerate(fractions.items()):
        share = frac / total if total > 0 else 0.0
        color = _PALETTE[i % len(_PALETTE)]
        if share >= 1.0 - 1e-9:
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="{color}"/>')
        elif share > 0:
            a2 = angle + share * 2 * math.pi
            x1, y1 = cx + r * math.cos(angle), cy + r * math.sin(angle)
            x2, y2 = cx + r * math.cos(a2), cy + r * math.sin(a2)
            large = 1 if share > 0.5 else 0
            parts.append(
                f'<path d="M{cx:.1f},{cy:.1f} L{x1:.2f},{y1:.2f} '
                f'A{r},{r} 0 {large} 1 {x2:.2f},{y2:.2f} Z" fill="{color}"/>'
            )
            angle = a2
        ly = 60 + i * 20
        parts.append(f'<rect x="290" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="308" y="{ly}">{_esc(str(label))} ({frac * 100:.1f}%)</text>')
    return _close(parts)


def timeline(
    duration: float,
    bands: Sequence[tuple[str, float, float]],
    title: str,
    trace: Sequence[float] | None = None,
) -> str:
    """Horizontal video timeline with labeled (name, start, end) bands.

    Optionally overlays a per-frame score polyline above the bands.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    width, height = 560, 80 + 40 * len(bands) + (70 if trace is not None else 0)
    margin_l, margin_r = 40, 20
    plot_w = width - margin_l - margin_r

    def sx(t: float) -> float:
        return margin_l + plot_w * max(0.0, min(1.0, t / duration))

    parts = _open(width, height, title)
    y = 40
    if trace is not None and len(trace) > 0:
        lo, hi = min(trace), max(trace)
        span = hi - lo if hi > lo else 1.0
        pts = []
        n = len(trace)
        for i, v in enumerate(trace):
            tx = (i + 0.5) / n * duration
            ty = y + 50 - 46 * ((v - lo) / span)
            pts.append(f"{sx(tx):.1f},{ty:.1f}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="#888" stroke-width="1.5"/>')
        parts.append(f'<text x="{margin_l}" y="{y - 4}" font-size="10" fill="#888">attention</text>')
        y += 70
    for i, (name, start, end) in enumerate(bands):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<text x="{margin_l}" y="{y + 8}" font-size="10" fill="#333">'
            f'{_esc(name)} [{start:.1f}, {end:.1f}]</text>'
        )
        parts.append(f'<line x1="{margin_l}" y1="{y + 22}" x2="{margin_l + plot_w}" y2="{y + 22}" stroke="#ddd"/>')
        parts.append(
            f'<rect x="{sx(start):.1f}" y="{y + 12}" width="{max(1.0, sx(end) - sx(start)):.1f}" '
            f'height="20" fill="{color}" fill-opacity="0.75"/>'
        )
        y += 40
    parts.append(
        f'<text x="{margin_l}" y="{y + 10}" font-size="10" fill="#555">0s</text>'
    )
    parts.append(
        f'<text x="{margin_l + plot_w:.1f}" y="{y + 10}" font-size="10" fill="#555" '
        f'text-anchor="end">{duration:.1f}s</text>'
    )
    return _close(parts)
