"""Static SVG pictures of 2-D Newton diagrams with their measure atoms."""

from __future__ import annotations

from .errors import InvalidInputError
from .rationals import format_rational
from .weights import MonomialWeight

# The largest coordinate drawn: up to it, every float the picture
# computes (the sum of two coordinates included) stays finite.
_MAX_COORDINATE = 2**1020


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def render_weight_svg(phi: MonomialWeight) -> str:
    """SVG 1.1 rendering of the polyhedron, its compact facets, and the
    measure atoms, on a viewBox spanning [0, max intercept + 1] squared."""
    if phi.dimension != 2:
        raise InvalidInputError("SVG rendering supports dimension 2 only")
    if max(map(max, phi.generators)) > _MAX_COORDINATE:
        raise InvalidInputError("SVG rendering needs coordinates of at most 2**1020")
    poly = phi.polyhedron
    side = float(max(poly.axis_intercepts)) + 1.0

    def pt(x, y):
        return f"{_fmt(float(x))},{_fmt(side - float(y))}"

    staircase = sorted(poly.vertices)
    m1, m2 = poly.axis_intercepts
    region = [pt(0, side), pt(0, m2)]
    region += [pt(x, y) for x, y in staircase]
    region += [pt(m1, 0), pt(side, 0), pt(side, side)]

    stroke = side * 0.008
    font = side * 0.04
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="480" height="480" viewBox="0 0 {_fmt(side)} {_fmt(side)}">',
        f'<rect x="0" y="0" width="{_fmt(side)}" height="{_fmt(side)}" fill="white"/>',
        f'<polygon points="{" ".join(region)}" fill="#dce9f5" stroke="none"/>',
        f'<line x1="0" y1="{_fmt(side)}" x2="{_fmt(side)}" y2="{_fmt(side)}" '
        f'stroke="black" stroke-width="{_fmt(stroke)}"/>',
        f'<line x1="0" y1="0" x2="0" y2="{_fmt(side)}" '
        f'stroke="black" stroke-width="{_fmt(stroke)}"/>',
    ]
    for g in phi.generators:
        lines.append(
            f'<circle cx="{_fmt(float(g[0]))}" cy="{_fmt(side - float(g[1]))}" '
            f'r="{_fmt(side * 0.012)}" fill="#555555"/>'
        )
    atoms = phi.lelong_measure().atoms
    for facet, atom in zip(poly.compact_facets, atoms):
        pts = sorted(poly.facet_points(facet))
        first, last = pts[0], pts[-1]
        lines.append(
            f'<line x1="{_fmt(float(first[0]))}" y1="{_fmt(side - float(first[1]))}" '
            f'x2="{_fmt(float(last[0]))}" y2="{_fmt(side - float(last[1]))}" '
            f'stroke="#b3402a" stroke-width="{_fmt(stroke * 2)}"/>'
        )
        mx = (float(first[0]) + float(last[0])) / 2 + side * 0.02
        my = side - (float(first[1]) + float(last[1])) / 2 - side * 0.02
        label = (
            f"mass {format_rational(atom.mass)} at t = ("
            + ", ".join(format_rational(c) for c in atom.vertex)
            + ")"
        )
        lines.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(my)}" font-size="{_fmt(font)}" '
            f'fill="#b3402a">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
