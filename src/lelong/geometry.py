"""Exact geometric predicates.

The module provides the one determinant and membership in a Newton
polyhedron. The determinant is ``int_det`` on integer rows, in ints from
start to finish, which the facet-cone volumes call directly and
``hyperplane_normal`` calls on its points scaled once to integers. It
expands 2 x 2 to 5 x 5 matrices in closed form, the sizes of the facet
cones at n = 2..5, and runs Bareiss fraction-free elimination on the
others, in place on one copy of the rows. ``cone_point_member`` checks its
generators with ``exponent_set`` and reads its point with
``rationals.vector`` at their dimension (one rational grammar, one
length rule, the exponent-set rules). It scales the point to the lcm L'
of the set's L and the point's denominators, and rescales the set's
integer points only when L' differs from L; both go to the int-only LP
``linprog.feasible``, whose other caller, the Monte Carlo oracle, builds
its ints itself. The brute-force volume reference for the facet-cone
volumes is ``tests/reference.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linprog import feasible
from .rationals import exponent_set, integer_scaling, vector


def int_det(rows) -> int:
    """Determinant of a square integer matrix, in ints from start to finish.

    A 2 x 2 or 3 x 3 matrix is expanded by cofactors, and a 4 x 4 or
    5 x 5 one by Laplace expansion along its first two rows: each 2 x 2
    minor of those rows times its complementary minor, signed by
    (-1)^(1 + i + j) for columns i < j. At 5 x 5 the complementary 3 x 3
    minors are expanded along their first row and share the ten 2 x 2
    minors of the last two rows. None of these divides. Every other size
    (n <= 1 and n >= 6) goes through Bareiss fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968), whose every step is an exact integer
    division. It runs in place on one copy of the rows, which it leaves
    as they are. A zero pivot is swapped for the first nonzero entry
    below it; a column without one makes the determinant zero.
    """
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        return (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        )
    if n == 5:
        (
            (a0, a1, a2, a3, a4),
            (b0, b1, b2, b3, b4),
            (c0, c1, c2, c3, c4),
            (d0, d1, d2, d3, d4),
            (e0, e1, e2, e3, e4),
        ) = rows
        # The 2 x 2 minors of the last two rows, on columns x < y.
        p01, p02 = d0 * e1 - d1 * e0, d0 * e2 - d2 * e0
        p03, p04 = d0 * e3 - d3 * e0, d0 * e4 - d4 * e0
        p12, p13, p14 = d1 * e2 - d2 * e1, d1 * e3 - d3 * e1, d1 * e4 - d4 * e1
        p23, p24, p34 = d2 * e3 - d3 * e2, d2 * e4 - d4 * e2, d3 * e4 - d4 * e3
        return (
            (a0 * b1 - a1 * b0) * (c2 * p34 - c3 * p24 + c4 * p23)
            - (a0 * b2 - a2 * b0) * (c1 * p34 - c3 * p14 + c4 * p13)
            + (a0 * b3 - a3 * b0) * (c1 * p24 - c2 * p14 + c4 * p12)
            - (a0 * b4 - a4 * b0) * (c1 * p23 - c2 * p13 + c3 * p12)
            + (a1 * b2 - a2 * b1) * (c0 * p34 - c3 * p04 + c4 * p03)
            - (a1 * b3 - a3 * b1) * (c0 * p24 - c2 * p04 + c4 * p02)
            + (a1 * b4 - a4 * b1) * (c0 * p23 - c2 * p03 + c3 * p02)
            + (a2 * b3 - a3 * b2) * (c0 * p14 - c1 * p04 + c4 * p01)
            - (a2 * b4 - a4 * b2) * (c0 * p13 - c1 * p03 + c3 * p01)
            + (a3 * b4 - a4 * b3) * (c0 * p12 - c1 * p02 + c2 * p01)
        )
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        top = a[k]
        if not top[k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], top
            top, sign = a[k], -sign
        piv = top[k]
        cols = range(k + 1, n)
        for row in a[k + 1 :]:
            c = row[k]
            for j in cols:
                row[j] = (piv * row[j] - c * top[j]) // prev
        prev = piv
    return sign * a[-1][-1] if a else 1


def hyperplane_normal(points) -> tuple[Fraction, ...]:
    """Normal of the hyperplane spanned by d points in dimension d: the
    signed cofactors of the difference matrix, each the int_det of the
    points scaled by the lcm L of their denominators over L^(d-1). The
    zero vector signals affine dependence."""
    scale, ints = integer_scaling(points)
    base = ints[0]
    rows = [tuple(a - b for a, b in zip(p, base)) for p in ints[1:]]
    denominator = scale ** len(rows)
    return tuple(
        Fraction((-1) ** j * int_det([r[:j] + r[j + 1 :] for r in rows]), denominator)
        for j in range(len(base))
    )


def cone_point_member(point, generators) -> bool:
    """Exact membership of a point in conv(generators) + R_+^n.

    True iff there are lambda_j >= 0 with sum 1 and
    sum_j lambda_j g_j <= point componentwise, for generators that
    ``exponent_set`` accepts. A point with a negative coordinate is
    outside; for any other the integer LP decides, on both scaled once.
    """
    gens = exponent_set(generators)
    x = vector(point, len(gens.points[0]))
    # The set's points are its vectors times L, the lcm of their
    # denominators, so one factor L'/L brings them to the common L'.
    scale = math.lcm(gens.scale, *(c.denominator for c in x))
    factor = scale // gens.scale
    columns = gens.points
    if factor != 1:
        columns = [tuple(c * factor for c in p) for p in columns]
    x = [c.numerator * (scale // c.denominator) for c in x]
    return all(c >= 0 for c in x) and feasible(columns, x)
