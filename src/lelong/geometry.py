"""Exact geometric predicates.

The module provides the one determinant and membership in a Newton
polyhedron. The determinant is ``int_det``: Bareiss fraction-free
elimination on integer rows, in ints from start to finish, which the
facet-cone volumes call directly and ``hyperplane_normal`` calls on its
points scaled once to integers. ``cone_point_member`` coerces its point
with ``rationals.vector`` and its generators with ``exponent_set`` (one
rational grammar, dimensions 2..6, the exponent-set rules), then scales
both together once for the int-only LP ``linprog.feasible``, whose other
caller, the Monte Carlo oracle, builds its ints itself. The brute-force
volume reference for the facet-cone volumes is ``tests/reference.py``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError
from .linprog import feasible
from .rationals import exponent_set, integer_scaling, vector


def int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968).

    Every elimination step is an exact integer division, so the work
    stays in ints from start to finish. A zero pivot is swapped for the
    first nonzero entry below it; a column without one makes the
    determinant zero.
    """
    a = list(rows)
    sign, prev = 1, 1
    while len(a) > 1:
        top = a[0]
        if not top[0]:
            swap = next((i for i in range(1, len(a)) if a[i][0]), None)
            if swap is None:
                return 0
            a[0], a[swap] = a[swap], top
            top, sign = a[0], -sign
        piv, rest = top[0], top[1:]
        a = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], rest)] for row in a[1:]]
        prev = piv
    return sign * a[0][0] if a else 1


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
    x = vector(point)
    gens = exponent_set(generators)
    n = len(x)
    if len(gens[0]) != n:
        raise InvalidInputError(f"point has dimension {n}, generators {len(gens[0])}")
    *columns, x = integer_scaling([*gens, x])[1]
    return all(c >= 0 for c in x) and feasible(columns, x)
