"""Deterministic SVG rendering of the phase diagram with empirical overlay.

Hand-rolled on purpose: no plotting library embeds versions, ids, or
timestamps here, so identical sweeps produce byte-identical files.  The
background shows the three analytic regimes (simple green above the
computational line, hard red between it and the diagonal, impossible gray
below both); empirical Type-I+II sums are alpha-blended squares on top,
dark where detection fails.
"""

from __future__ import annotations

from ..reduction import beta_sharp, beta_star

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 170, 30, 50
_ALPHA_MAX = 2.0

# each analytic regime's fill, legend label and corners in (alpha, beta);
# the legend lists them in this order, and the SVG draws them last to first
_REGIMES = (
    ("#7fca7f", "simple", [(0, 0.5), (2, 1), (0, 1)]),
    ("#e06666", "hard", [(0, 0), (2 / 3, 2 / 3), (0, 0.5)]),
    ("#b3b3b3", "impossible", [(0, 0), (2, 0), (2, 1), (2 / 3, 2 / 3)]),
)
# the legend's notes: (y offset from the row after the swatches, text)
_NOTES = ((11, "solid: detection limit"), (27, "dashed: poly-time limit"),
          (47, "cells: dark = errors"))


def _x(alpha: float) -> float:
    return _ML + (alpha / _ALPHA_MAX) * (_W - _ML - _MR)


def _y(beta: float) -> float:
    return _H - _MB - beta * (_H - _MT - _MB)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _coords(points) -> str:
    return " ".join(f"{_fmt(_x(a))},{_fmt(_y(b))}" for a, b in points)


def _text(x, y, body: str, size: int = 11, anchor: str = "", rotate: bool = False) -> str:
    """One monospace label at (x, y), given as the SVG shows them; rotate turns it -90 there."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {x} {y})"' if rotate else ""
    return (
        f'<text x="{x}" y="{y}" font-size="{size}"{anchor} '
        f'font-family="monospace"{turn}>{body}</text>'
    )


def render_sweep_svg(rows, alpha_grid, beta_grid) -> str:
    """Render sweep rows (dicts with alpha, beta, type1, type2) to SVG text."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
        "<!-- analytic regimes -->",
    ]
    for fill, _, corners in reversed(_REGIMES):
        parts.append(f'<polygon points="{_coords(corners)}" fill="{fill}" stroke="none"/>')

    # empirical overlay: one translucent cell per grid point
    spread = (max(alpha_grid) - min(alpha_grid)) / _ALPHA_MAX if len(alpha_grid) > 1 else 0.08
    cell_w = max((_W - _ML - _MR) / max(len(alpha_grid), 1) * spread, 14.0)
    cell_h = max((_H - _MT - _MB) / max(len(beta_grid), 1) * 0.12, 14.0)
    parts.append("<!-- empirical type1+type2 overlay -->")
    for row in rows:
        err = min(max(row["type1"] + row["type2"], 0.0), 1.0)
        shade = int(round(255 * (1.0 - err)))
        cx, cy = _x(row["alpha"]), _y(row["beta"])
        parts.append(
            f'<rect x="{_fmt(cx - cell_w / 2)}" y="{_fmt(cy - cell_h / 2)}" '
            f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" '
            f'fill="rgb({shade},{shade},{shade})" fill-opacity="0.8" '
            f'stroke="#333333" stroke-width="0.5"/>'
        )

    # boundary curves on a dense alpha mesh
    mesh = [i * _ALPHA_MAX / 400 for i in range(401)]
    for curve, style in (
        (beta_star, 'stroke="#000000" stroke-width="2"'),
        (beta_sharp, 'stroke="#1f4e99" stroke-width="2" stroke-dasharray="6,4"'),
    ):
        points = _coords((a, curve(a)) for a in mesh)
        parts.append(f'<polyline points="{points}" fill="none" {style}/>')

    # axes and labels
    for a, b in ((2, 0), (0, 1)):
        parts.append(
            f'<line x1="{_fmt(_x(0))}" y1="{_fmt(_y(0))}" x2="{_fmt(_x(a))}" y2="{_fmt(_y(b))}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
    for a in (0.0, 2 / 3, 1.0, 2.0):
        parts.append(_text(_fmt(_x(a)), _fmt(_y(0) + 18), f"{a:.3g}", anchor="middle"))
    for b in (0.0, 0.5, 1.0):
        parts.append(_text(_fmt(_x(0) - 8), _fmt(_y(b) + 4), f"{b:.2g}", anchor="end"))
    parts.append(_text(_fmt(_x(1.0)), _fmt(_H - 8), "alpha (sparsity: q = N^-alpha)", 12, "middle"))
    parts.append(_text(16, _fmt(_y(0.5)), "beta (size: K = N^beta)", 12, "middle", rotate=True))

    legend_x = _W - _MR + 12
    for i, (fill, label, _) in enumerate(_REGIMES):
        ly = _MT + 12 + 20 * i
        parts.append(f'<rect x="{legend_x}" y="{ly}" width="14" height="14" fill="{fill}"/>')
        parts.append(_text(legend_x + 20, ly + 11, label))
    ly = _MT + 12 + 20 * len(_REGIMES)
    for dy, note in _NOTES:
        parts.append(_text(legend_x, ly + dy, note))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
