"""Exact geometric predicates and volumes.

Points are plain tuples of Fractions. The module provides the exact
determinant (Bareiss fraction-free elimination), simplex volumes, and
membership in a Newton polyhedron, decided by exact LP feasibility.

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


def _coord(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidInputError(f"float coordinates are not exact: {value!r}")
    return Fraction(value)


def _point(p) -> tuple[Fraction, ...]:
    return tuple(_coord(c) for c in p)


def _points(ps, what="point set"):
    pts = [_point(p) for p in ps]
    if not pts:
        raise InvalidInputError(f"empty {what}")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InvalidInputError(f"{what} mixes dimensions")
    return pts


def dot(u, v) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def det(rows) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination (Bareiss,
    Math. Comp. 22, 1968).

    Each rational row is first scaled to integers, so every elimination
    step is an exact integer division.
    """
    a = []
    scale = 1
    for r in rows:
        m = math.lcm(*(c.denominator for c in r))
        scale *= m
        a.append([int(c * m) for c in r])
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top = a[k]
        piv = top[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            a[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        prev = piv
    return Fraction(sign * a[-1][-1], scale) if n else Fraction(1)


def simplex_volume(points) -> Fraction:
    """Volume of the simplex on n+1 points in dimension n.

    Returns |det(p_1 - p_0, ..., p_n - p_0)| / n!; zero exactly when the
    points are affinely dependent.
    """
    pts = _points(points, "simplex")
    n = len(pts[0])
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
    pts = _points(points, "polytope")
    return _volume(pts, len(pts[0]))


def cone_point_member(point, generators) -> bool:
    """Exact membership of a point in conv(generators) + R_+^n.

    True iff there are lambda_j >= 0 with sum 1 and
    sum_j lambda_j g_j <= point componentwise, decided by exact simplex
    feasibility after two fast exact shortcuts (domination of a single
    generator, and a per-coordinate lower bound).
    """
    x = _point(point)
    gens = _points(generators, "generator set")
    n = len(x)
    if len(gens[0]) != n:
        raise InvalidInputError(f"point has dimension {n}, generators {len(gens[0])}")
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
