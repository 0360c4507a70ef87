"""Exact geometric predicates and volumes.

The module provides the exact determinant, simplex volumes, and
membership in a Newton polyhedron, decided by exact LP feasibility. The
one elimination routine is ``int_det``: Bareiss fraction-free
elimination on integer rows, in ints from start to finish, which the
facet-cone volumes call directly. ``det`` is its rational wrapper: it
scales the whole matrix once to integers and makes one Fraction of the
result. The public entries coerce their points with ``rationals.vector``,
so they take the package's one rational grammar and dimensions 2..6;
``int_det``, ``det``, ``dot`` and the other helpers work on exact values
the package has already checked.

``polytope_volume`` is the exact volume of the convex hull of a point
set, computed by pyramid decomposition from a base vertex with
brute-force supporting-hyperplane enumeration. No kernel path calls it:
the Newton polyhedron kernel triangulates its own facets. It stays as
an independent reference for the facet-cone volumes, and brute force
is adequate at the small point sets it is used on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

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


def simplex_volume(points) -> Fraction:
    """Volume of the simplex on n+1 points in dimension n.

    Returns |det(p_1 - p_0, ..., p_n - p_0)| / n!; zero exactly when the
    points are affinely dependent.
    """
    pts = [vector(p) for p in points]
    if not pts:
        raise InvalidInputError("empty simplex")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InvalidInputError("simplex mixes dimensions")
    if len(pts) != n + 1:
        raise InvalidInputError(f"need {n + 1} points in dimension {n}, got {len(pts)}")
    d = det([vsub(p, pts[0]) for p in pts[1:]])
    return abs(d) / math.factorial(n)


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


def scale_primitive(w, h):
    """Rescale (w, h) so w has coprime integer entries; orientation kept."""
    lcm = math.lcm(*(c.denominator for c in w))
    ints = [int(c * lcm) for c in w]
    g = math.gcd(*(abs(i) for i in ints))
    return tuple(i // g for i in ints), Fraction(h) * Fraction(lcm, g)


def _volume(pts, d) -> Fraction:
    pts = sorted(set(pts))
    if d == 1:
        return pts[-1][0] - pts[0][0]
    if len(pts) <= d:
        return Fraction(0)
    facets = {}
    for subset in combinations(pts, d):
        w = hyperplane_normal(subset)
        if not any(w):
            continue
        h = dot(w, subset[0])
        vals = [dot(w, p) for p in pts]
        if all(v >= h for v in vals):
            pass
        elif all(v <= h for v in vals):
            w = tuple(-c for c in w)
            h = -h
            vals = [-v for v in vals]
        else:
            continue
        key = scale_primitive(w, h)
        if key not in facets:
            facets[key] = (w, h, [p for p, v in zip(pts, vals) if v == h])
    base = pts[0]
    total = Fraction(0)
    for w, h, face in facets.values():
        height = dot(w, base) - h
        if height == 0:
            continue
        k = next(j for j, c in enumerate(w) if c)
        proj = [p[:k] + p[k + 1 :] for p in face]
        total += _volume(proj, d - 1) * height / (abs(w[k]) * d)
    return total


def polytope_volume(points) -> Fraction:
    """Exact volume of conv(points); zero when not full-dimensional."""
    pts = [vector(p) for p in points]
    if not pts:
        raise InvalidInputError("empty polytope")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InvalidInputError("polytope mixes dimensions")
    return _volume(pts, n)


def cone_point_member(point, generators) -> bool:
    """Exact membership of a point in conv(generators) + R_+^n.

    True iff there are lambda_j >= 0 with sum 1 and
    sum_j lambda_j g_j <= point componentwise, decided by exact simplex
    feasibility after two fast exact shortcuts (domination of a single
    generator, and a per-coordinate lower bound).
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
    n = len(x)
    if any(c < 0 for c in x):
        return False
    for g in gens:
        if all(gc <= xc for gc, xc in zip(g, x)):
            return True
    for i in range(n):
        if x[i] < min(g[i] for g in gens):
            return False
    l = len(gens)
    zero, one = Fraction(0), Fraction(1)
    rows = []
    for i in range(n):
        slack = [one if j == i else zero for j in range(n)]
        rows.append([g[i] for g in gens] + slack)
    rows.append([one] * l + [zero] * n)
    rhs = list(x) + [one]
    return feasible(rows, rhs)
