"""Exact geometric predicates.

The module provides the exact determinant and membership in a Newton
polyhedron, decided by the slack-basis LP ``linprog.feasible``. The one
elimination routine is ``int_det``: Bareiss fraction-free elimination
on integer rows, in ints from start to finish, which the facet-cone
volumes call directly. ``det`` is its rational wrapper: it scales the
whole matrix once to integers and makes one Fraction of the result.
``cone_point_member`` coerces its point and generators with
``rationals.vector``, so it takes the package's one rational grammar and
dimensions 2..6; ``int_det``, ``det``, ``dot`` and the other helpers
work on exact values the package has already checked. The brute-force
volume reference for the facet-cone volumes is ``tests/reference.py``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError
from .linprog import feasible
from .rationals import integer_scaling, vector


def dot(u, v) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


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


def det(rows) -> Fraction:
    """Exact determinant of a square rational matrix: the whole matrix is
    scaled once to integers by the lcm L of its denominators, and the
    determinant is int_det of the scaled rows over L^n."""
    scale, ints = integer_scaling(rows)
    return Fraction(int_det(ints), scale ** len(ints))


def hyperplane_normal(points) -> tuple[Fraction, ...]:
    """Normal of the hyperplane spanned by d points in dimension d.

    Computed by cofactor expansion of the difference matrix; the zero
    vector signals affine dependence.
    """
    base = points[0]
    rows = [vsub(p, base) for p in points[1:]]
    d = len(base)
    normal = []
    for j in range(d):
        minor = [r[:j] + r[j + 1 :] for r in rows]
        cof = det(minor) if minor else Fraction(1)
        normal.append(cof if j % 2 == 0 else -cof)
    return tuple(normal)


def cone_point_member(point, generators) -> bool:
    """Exact membership of a point in conv(generators) + R_+^n.

    True iff there are lambda_j >= 0 with sum 1 and
    sum_j lambda_j g_j <= point componentwise. A point with a negative
    coordinate is outside; for any other the exact LP ``linprog.feasible``
    decides.
    """
    x = vector(point)
    gens = [vector(g) for g in generators]
    if not gens:
        raise InvalidInputError("empty generator set")
    if any(len(g) != len(gens[0]) for g in gens):
        raise InvalidInputError("generator set mixes dimensions")
    n = len(x)
    if len(gens[0]) != n:
        raise InvalidInputError(f"point has dimension {n}, generators {len(gens[0])}")
    return _cone_member(x, gens)


def _cone_member(x, gens) -> bool:
    """cone_point_member on a checked point and checked generators of its
    dimension, as the package's own callers hold them."""
    if any(c < 0 for c in x):
        return False
    return feasible(gens, x)
