"""Single-spectrum SVG rendering.

One chart: the magnitude curve over [0, 0.5], a red circle on the curve
at the dominant frequency, and a green triangle at the spectral centroid
(its height read off the curve by linear interpolation). Coordinates are
formatted with fixed precision so identical inputs yield identical bytes.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .spectral import Spectrum, SpectralSummary

WIDTH = 640
HEIGHT = 360
LEFT = 62.0
RIGHT = 618.0
TOP = 26.0
BOTTOM = 310.0

_CURVE = "#3465a4"
_DOMINANT = "#cc0000"
_CENTROID = "#2e9e47"
# a title as XML character data: markup escaped, and U+FFFD for each
# character that XML 1.0 cannot carry, not even as a reference
_XML_TEXT = {38: "&amp;", 60: "&lt;", 62: "&gt;", **dict.fromkeys(
    [*range(9), 11, 12, *range(14, 32), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF],
    "\ufffd")}


def frequency_to_x(frequency: float) -> float:
    return LEFT + (frequency / 0.5) * (RIGHT - LEFT)


def magnitude_to_y(magnitude: float, peak: float) -> float:
    return BOTTOM - (magnitude / peak) * (BOTTOM - TOP)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def emit_plot(
    spectrum: Spectrum,
    summary: SpectralSummary,
    path=None,
    *,
    title: str = "",
) -> str:
    """Render the spectrum chart; optionally write the SVG file."""
    freqs = spectrum.frequencies
    mags = spectrum.magnitudes
    peak = float(mags.max())
    if peak <= 0.0:
        raise ValueError("spectrum has no energy to plot")

    # the functions are element-wise IEEE arithmetic, and "%.2f" rounds as
    # _fmt does, so this is the per-point text in one formatting pass
    xy = np.stack((frequency_to_x(freqs), magnitude_to_y(mags, peak)), axis=1)
    points = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
    dom_f = summary.dominant_frequency
    dom_mag = float(mags[int(np.argmax(mags))])
    cx = frequency_to_x(dom_f)
    cy = magnitude_to_y(dom_mag, peak)
    tx = frequency_to_x(summary.centroid)
    ty = magnitude_to_y(float(np.interp(summary.centroid, freqs, mags)), peak)
    triangle = (
        f"{_fmt(tx)},{_fmt(ty - 7.0)} {_fmt(tx - 6.0)},{_fmt(ty + 5.0)} "
        f"{_fmt(tx + 6.0)},{_fmt(ty + 5.0)}"
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_fmt(LEFT)}" y="{_fmt(TOP)}" width="{_fmt(RIGHT - LEFT)}" '
        f'height="{_fmt(BOTTOM - TOP)}" fill="none" stroke="#888888"/>',
    ]
    for tick in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        x = frequency_to_x(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(BOTTOM)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(BOTTOM + 5.0)}" stroke="#888888"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(BOTTOM + 20.0)}" font-size="12" '
            f'text-anchor="middle" fill="#333333">{tick:.1f}</text>'
        )
    parts.append(
        f'<text x="{_fmt((LEFT + RIGHT) / 2)}" y="{_fmt(BOTTOM + 38.0)}" '
        f'font-size="13" text-anchor="middle" fill="#333333">'
        "frequency (cycles/sample)</text>"
    )
    parts.append(
        f'<text x="{_fmt(LEFT - 8.0)}" y="{_fmt(BOTTOM)}" font-size="12" '
        f'text-anchor="end" fill="#333333">0</text>'
    )
    parts.append(
        f'<text x="{_fmt(LEFT - 8.0)}" y="{_fmt(TOP + 4.0)}" font-size="12" '
        f'text-anchor="end" fill="#333333">{peak:.4g}</text>'
    )
    if title:
        parts.append(
            f'<text x="{_fmt(LEFT)}" y="{_fmt(TOP - 8.0)}" font-size="14" '
            f'fill="#111111">{title.translate(_XML_TEXT)}</text>'
        )
    parts.append(
        f'<polyline fill="none" stroke="{_CURVE}" stroke-width="1.5" '
        f'points="{points}"/>'
    )
    parts.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="5" fill="none" '
        f'stroke="{_DOMINANT}" stroke-width="2"/>'
    )
    parts.append(f'<polygon points="{triangle}" fill="{_CENTROID}"/>')
    legend_x = RIGHT - 150.0
    parts.append(
        f'<circle cx="{_fmt(legend_x)}" cy="{_fmt(TOP + 12.0)}" r="5" '
        f'fill="none" stroke="{_DOMINANT}" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{_fmt(legend_x + 12.0)}" y="{_fmt(TOP + 16.0)}" '
        f'font-size="12" fill="#333333">dominant frequency</text>'
    )
    parts.append(
        f'<polygon points="{_fmt(legend_x)},{_fmt(TOP + 25.0)} '
        f'{_fmt(legend_x - 6.0)},{_fmt(TOP + 37.0)} '
        f'{_fmt(legend_x + 6.0)},{_fmt(TOP + 37.0)}" fill="{_CENTROID}"/>'
    )
    parts.append(
        f'<text x="{_fmt(legend_x + 12.0)}" y="{_fmt(TOP + 35.0)}" '
        f'font-size="12" fill="#333333">spectral centroid</text>'
    )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if path is not None:
        from .io import _atomic_write_text

        _atomic_write_text(Path(path), svg)
    return svg
