"""Minimal deterministic SVG rendering for root loci.

Output contains no timestamps and no float formatting beyond fixed two-digit
canvas coordinates, so identical loci render byte-identically.  Bounded
trajectories set the view window; the escape trajectory is drawn dashed and
clamped to the margin of the window it leaves.
"""
from __future__ import annotations

from .spectra import RootLocus

# Canvas size and frame margin, in pixels.
WIDTH = 640
HEIGHT = 480
MARGIN = 48.0
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_locus_svg(locus: RootLocus) -> str:
    ks = locus.krange
    esc = locus.escape_trajectory
    degree = locus.degree
    bounded = [t for t in range(degree) if t != esc]
    pts = [locus.roots[k][t] for k in ks for t in bounded]
    pts.append(complex(-1.0, 0.0))
    pts.append(complex(0.0, 0.0))
    re_lo = min(p.real for p in pts)
    re_hi = max(p.real for p in pts)
    im_hi = max(max(abs(p.imag) for p in pts), 1e-9)
    pad_re = 0.1 * (re_hi - re_lo) or 0.5
    re_lo -= pad_re
    re_hi += pad_re
    im_hi *= 1.1

    def to_xy(z: complex) -> tuple[float, float]:
        # Clamp far-away (escaping) points to just outside the plot frame.
        x = MARGIN + (z.real - re_lo) / (re_hi - re_lo) * (WIDTH - 2 * MARGIN)
        y = HEIGHT / 2 - z.imag / (2 * im_hi) * (HEIGHT - 2 * MARGIN)
        x = min(max(x, MARGIN * 0.25), WIDTH - MARGIN * 0.25)
        y = min(max(y, MARGIN * 0.25), HEIGHT - MARGIN * 0.25)
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # axes
    x0, y0 = to_xy(complex(0.0, 0.0))
    lines.append(
        f'<line x1="{_fmt(MARGIN)}" y1="{_fmt(y0)}" x2="{_fmt(WIDTH - MARGIN)}" '
        f'y2="{_fmt(y0)}" stroke="#cccccc" stroke-width="1"/>'
    )
    if re_lo <= 0.0 <= re_hi:
        lines.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(MARGIN)}" x2="{_fmt(x0)}" '
            f'y2="{_fmt(HEIGHT - MARGIN)}" stroke="#cccccc" stroke-width="1"/>'
        )
    # the distinguished point -1
    mx, my = to_xy(complex(-1.0, 0.0))
    lines.append(
        f'<circle cx="{_fmt(mx)}" cy="{_fmt(my)}" r="4" fill="none" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    for t in range(degree):
        coords = " ".join(
            "{},{}".format(*map(_fmt, to_xy(locus.roots[k][t]))) for k in ks
        )
        color = PALETTE[t % len(PALETTE)]
        dash = ' stroke-dasharray="6,4"' if t == esc else ""
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.2"{dash}/>'
        )
        fx, fy = to_xy(locus.roots[ks[-1]][t])
        lines.append(
            f'<circle cx="{_fmt(fx)}" cy="{_fmt(fy)}" r="2.4" fill="{color}"/>'
        )
    lines.append(
        f'<text x="{_fmt(MARGIN)}" y="{_fmt(HEIGHT - 12.0)}" font-size="12" '
        f'fill="#333333">roots of the Betti polynomial, k = {ks[0]}..{ks[-1]} '
        f"(circle marks -1; dashed = escaping root)</text>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
