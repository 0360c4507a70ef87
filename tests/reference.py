"""Brute-force exact volumes, an independent reference for the kernel.

``polytope_volume`` is the exact volume of the convex hull of a point
set, computed by pyramid decomposition from a base vertex with
brute-force supporting-hyperplane enumeration. The Newton polyhedron
kernel triangulates its own facets and calls none of this: the tests
use it to check the facet-cone volumes, and brute force is adequate at
the small point sets they use it on. ``simplex_volume`` is the volume of
one simplex from one determinant. ``fraction_feasible`` is the
cone-membership simplex in exact Fraction arithmetic on rational inputs;
the fraction-free ``linprog.feasible`` must agree with it on the same
inputs scaled to integers. ``build_parser`` is the argparse parser that
``lelong.cli``'s command table replaced, kept so a test can check that
both read every argv alike. ``fraction_evaluate`` is the coordinate loop
that ``HomogeneousPsh.evaluate`` replaced, summing on the Fraction
generators, kept so a test can check that both give the same values and
reject the same points. ``orthant_dual_rays`` is the double description
that ``newton._dual_rays`` replaced, started from the orthant and paying
one insertion step per point, pure powers included; ``pull_every_side``
is the pulling triangulation that ``newton._pull`` replaced, testing
every side of a face for maximality. Both are kept so tests can check
that the replacements give the same rays, zero sets and simplices.
``fraction_mass_over_support``, ``fraction_generalized_lelong``,
``fraction_extremal_direction`` and ``fraction_relative_type`` are the
query code that the integer aggregates replaced, which divided Fractions
and took the min of one Fraction per facet; they are kept so tests can
check that the replacements give the same values and types.
``fraction_flatness_witness`` is the witness by its definition, the
first axis probe whose normalized aggregate exceeds its relative type,
built from those two; the shipped witness reads the atoms' coordinates
instead.
``fraction_closure_containment_check`` builds the containment report
from the Fraction atoms of the measure, ``fraction_generalized_lelong``,
``math.ceil`` and ``closure_member``, and calls nothing of
``lelong.ideals`` but its two record types.
``join`` places exponent sets side by side in disjoint coordinates, for
the product identities of the invariants.
``certify`` checks a primary polyhedron's compact facets from its
integer points, facet rows and masks alone, with its own determinant
``bareiss_det``: each row is a valid inequality tight on its mask, and
the cones from the origin over the facets tile the positive orthant.
"""

from __future__ import annotations

import argparse
import math
from fractions import Fraction
from itertools import combinations
from operator import mul

from lelong.cli import (
    _cmd_contain,
    _cmd_dir_lelong,
    _cmd_extremal,
    _cmd_flat,
    _cmd_gamma,
    _cmd_lelong,
    _cmd_loj,
    _cmd_mass,
    _cmd_mixed,
    _cmd_plot,
    _cmd_type,
)
from lelong.errors import InvalidInputError
from lelong.geometry import hyperplane_normal, int_det
from lelong.ideals import ContainmentReport, GeneratorContainment
from lelong.newton import _pull
from lelong.rationals import integer_scaling, parse_rational, vector
from lelong.weights import NEG_INFINITY, HomogeneousPsh


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def simplex_volume(points) -> Fraction:
    """Volume of the simplex on n+1 points in dimension n.

    Returns |det(p_1 - p_0, ..., p_n - p_0)| / n!, taken as the int_det of
    the points scaled by the lcm L of their denominators over L^n n!;
    zero exactly when the points are affinely dependent.
    """
    pts = [vector(p) for p in points]
    if not pts:
        raise InvalidInputError("empty simplex")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InvalidInputError("simplex mixes dimensions")
    if len(pts) != n + 1:
        raise InvalidInputError(f"need {n + 1} points in dimension {n}, got {len(pts)}")
    scale, ints = integer_scaling(pts)
    d = int_det([tuple(a - b for a, b in zip(p, ints[0])) for p in ints[1:]])
    return Fraction(abs(d), scale**n * math.factorial(n))


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


def closure_member(beta, p_k) -> bool:
    """Whether beta lies in the integral closure of the ideal of the pure
    powers z_k^(p_k): sum_k beta_k / p_k >= 1, summed as Fractions."""
    return sum(Fraction(b, q) for b, q in zip(beta, p_k)) >= 1


def fraction_feasible(columns, x) -> bool:
    """True iff some lambda >= 0 with sum(lambda) >= 1 has
    sum_j lambda_j columns[j] <= x, for rational columns >= 0 and x >= 0.
    ``linprog.feasible`` agrees on the same inputs scaled to integers.

    Maximizes sum(lambda) from the slack basis until it reaches 1. The
    lowest column with a negative reduced cost enters, and ratio ties
    leave by the lowest basis index. An unbounded column has no positive
    entry: the zero generator, which every x >= 0 dominates.
    """
    n, m = len(x), len(columns)
    # Fraction(...) on every entry: with int columns, v / piv below would
    # otherwise be float division.
    tab = [
        [Fraction(g[i]) for g in columns] + [Fraction(k == i) for k in range(n)] + [Fraction(x[i])]
        for i in range(n)
    ]
    # Reduced costs of min -sum(lambda); the last cell is sum(lambda).
    tab.append([Fraction(-1)] * m + [Fraction(0)] * (n + 1))
    basis = list(range(m, m + n))
    while tab[-1][-1] < 1:
        col = next((j for j in range(m + n) if tab[-1][j] < 0), None)
        if col is None:
            return False
        rows = [i for i in range(n) if tab[i][col] > 0]
        if not rows:
            return True
        row = min(rows, key=lambda i: (tab[i][-1] / tab[i][col], basis[i]))
        piv = tab[row][col]
        prow = tab[row] = [v / piv for v in tab[row]]
        for i, r in enumerate(tab):
            f = r[col]
            if i != row and f:
                tab[i] = [a - f * b for a, b in zip(r, prow)]
        basis[row] = col
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lelong",
        description="Exact Newton-polyhedron invariants of monomial singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("mass", help="residual Monge-Ampere mass of a weight")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_mass)

    s = sub.add_parser("dir-lelong", help="directional number along a positive direction")
    s.add_argument("file")
    s.add_argument("--a", required=True, help="comma-separated positive rationals")
    s.set_defaults(handler=_cmd_dir_lelong)

    s = sub.add_parser("gamma", help="atomic measure on the level set {f = -1}")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_gamma)

    s = sub.add_parser("lelong", help="aggregate of u against the measure of phi")
    s.add_argument("ufile")
    s.add_argument("phifile")
    s.add_argument("--normalized", action="store_true")
    s.set_defaults(handler=_cmd_lelong)

    s = sub.add_parser("type", help="relative type of u with respect to phi")
    s.add_argument("ufile")
    s.add_argument("phifile")
    s.set_defaults(handler=_cmd_type)

    s = sub.add_parser("extremal", help="extremal simplicial direction of a weight")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_extremal)

    s = sub.add_parser("flat", help="flatness test with witness probe when false")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_flat)

    s = sub.add_parser("mixed", help="mixed multiplicity of ideals")
    s.add_argument("jfile")
    s.add_argument("ifile")
    s.add_argument("--oracle", choices=["polarization"])
    s.set_defaults(handler=_cmd_mixed)

    s = sub.add_parser("contain", help="containment report for (J, I, p)")
    s.add_argument("jfile")
    s.add_argument("ifile")
    s.add_argument("-p", type=int, required=True)
    s.set_defaults(handler=_cmd_contain)

    s = sub.add_parser("loj", help="Lojasiewicz exponent of a weight")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_loj)

    s = sub.add_parser("plot", help="SVG rendering of a 2-D Newton diagram")
    s.add_argument("file")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(handler=_cmd_plot)

    return parser


def fraction_evaluate(generators, t):
    """max_j <b_j, t> over checked Fraction ``generators`` for t in the
    closed negative orthant, whose coordinates may be the float -inf."""
    coords = []
    for c in t:
        if isinstance(c, float) and c == NEG_INFINITY:
            coords.append(None)
            continue
        q = parse_rational(c)
        if q > 0:
            raise InvalidInputError("evaluation point must be componentwise <= 0")
        coords.append(q)
    if len(coords) != len(generators[0]):
        raise InvalidInputError(
            f"expected a point of dimension {len(generators[0])}, got {len(coords)}"
        )
    best = None
    for g in generators:
        val = Fraction(0)
        dead = False
        for gc, tc in zip(g, coords):
            if tc is None:
                if gc > 0:
                    dead = True
                    break
            else:
                val += gc * tc
        if not dead and (best is None or val > best):
            best = val
    return NEG_INFINITY if best is None else best


def orthant_dual_rays(points, n):
    """Extreme rays of C for integer ``points``, as (ray, zero set) pairs.

    A ray is the primitive integer vector (w, t). In a zero set, bit k < n
    stands for w_k >= 0, bit n for t >= 0 and bit n + 1 + j for the
    inequality of points[j]; a set bit means the inequality is tight.
    """
    d = n + 1
    full = (1 << d) - 1
    rays = [(tuple(int(i == k) for i in range(d)), full ^ (1 << k)) for k in range(d)]
    for j, p in enumerate(points):
        bit = 1 << (d + j)
        pos, neg, kept = [], [], []
        for r, z in rays:
            s = sum(map(mul, r, p)) - r[-1]
            if s > 0:
                pos.append((r, z, s))
                kept.append((r, z))
            elif s < 0:
                neg.append((r, z, s))
            else:
                kept.append((r, z | bit))
        if neg:
            zs = [z for _, z in rays]
            for rp, zp, sp in pos:
                for rq, zq, sq in neg:
                    # Adjacent iff no third ray is tight on every inequality
                    # tight on both (Fukuda & Prodon 1996). The two count
                    # themselves, and distinct extreme rays have distinct
                    # zero sets, so a third makes the count exceed 2.
                    common = zp & zq
                    if common.bit_count() < d - 2 or sum(
                        z & common == common for z in zs
                    ) > 2:
                        continue
                    r = tuple(sp * b - sq * a for a, b in zip(rp, rq))
                    g = math.gcd(*r)
                    kept.append((tuple(c // g for c in r), common | bit))
        rays = kept
    return rays


def pull_every_side(face, dim, cuts):
    """Pulling triangulation of a face of dimension ``dim``, given by its
    vertex mask, as the vertex masks of its simplices.

    The facets of the face are its maximal proper intersections with the
    masks in ``cuts``; the lowest vertex is joined to the triangulations
    of the facets that miss it.
    """
    if face.bit_count() == dim + 1:
        return [face]
    apex = face & -face
    sides = {face & c for c in cuts}
    sides.discard(face)
    return [
        s | apex
        for side in sides
        if not side & apex and not any(side & o == side and side != o for o in sides)
        for s in pull_every_side(side, dim - 1, cuts)
    ]


def fraction_mass_over_support(phi):
    """The ratios mass / h of the atoms, in atom order, brought to
    integers c over one common denominator Q, as (Q, c)."""
    facets = phi.polyhedron.compact_facets
    ratios = [atom.mass / f.support for atom, f in zip(phi.lelong_measure().atoms, facets)]
    common, (coefficients,) = integer_scaling([ratios])
    return common, coefficients


def _fraction_aggregate(phi, least, scale):
    common, coefficients = fraction_mass_over_support(phi)
    return Fraction(sum(map(mul, coefficients, least)), common * scale)


def _fraction_residual_mass(phi):
    return math.factorial(phi.dimension) * phi.polyhedron.covolume()


def fraction_generalized_lelong(u, phi, normalized=False):
    """Aggregate of u's directional numbers against phi's measure."""
    least = [u._least(f.normal) for f in phi.polyhedron.compact_facets]
    total = _fraction_aggregate(phi, least, u.generators.scale)
    if normalized:
        return total / _fraction_residual_mass(phi)
    return total


def fraction_extremal_direction(phi):
    """The axis aggregates over the residual mass, as a tuple."""
    columns = zip(*(f.normal for f in phi.polyhedron.compact_facets))
    axis_aggregates = tuple(_fraction_aggregate(phi, column, 1) for column in columns)
    tau = _fraction_residual_mass(phi)
    return tuple(c / tau for c in axis_aggregates)


def fraction_relative_type(u, phi):
    """min over atoms of u._least(w) / (L h), one Fraction per facet."""
    scale = u.generators.scale
    return min(
        Fraction(u._least(f.normal) * f.support.denominator, scale * f.support.numerator)
        for f in phi.polyhedron.compact_facets
    )


def fraction_flatness_witness(phi):
    """The first axis probe e_k whose normalized aggregate against phi
    exceeds its relative type to phi, or None when there is none."""
    n = phi.dimension
    for k in range(n):
        probe = HomogeneousPsh([tuple(int(i == k) for i in range(n))])
        mean = fraction_generalized_lelong(probe, phi, normalized=True)
        if mean > fraction_relative_type(probe, phi):
            return probe
    return None


def join(*sets):
    """The generators of the exponent ``sets`` side by side in disjoint
    coordinates: each generator of a factor, with zeros on the other
    factors' coordinates. For ideals this is their sum in disjoint
    variables."""
    dims = [len(s[0]) for s in sets]
    out = []
    for k, s in enumerate(sets):
        before, after = (0,) * sum(dims[:k]), (0,) * sum(dims[k + 1 :])
        out += [before + tuple(g) + after for g in s]
    return out


def fraction_closure_containment_check(j, i, p):
    """The containment report from i's measure in Fractions alone: e_k as
    the sum over the atoms of mass * -t_k, e(J, I) from
    ``fraction_generalized_lelong``, p_k = ceil(p / e_k) and the closure
    test of ``closure_member``."""
    atoms = i.weight.lelong_measure().atoms
    e_axes = tuple(
        sum((-atom.mass * atom.vertex[k] for atom in atoms), Fraction(0))
        for k in range(i.dimension)
    )
    p_k = tuple(math.ceil(Fraction(p, e_k)) for e_k in e_axes)
    e = fraction_generalized_lelong(j.psh, i.weight)
    rows = tuple(
        GeneratorContainment(
            beta,
            sum(b * e_k for b, e_k in zip(beta, e_axes)) >= p,
            closure_member(beta, p_k),
            any(b >= q for b, q in zip(beta, p_k)),
        )
        for beta in j.generators
    )
    return ContainmentReport(p, e, e >= p, e_axes, p_k, rows)


def bareiss_det(rows):
    """Determinant of a square int matrix by fraction-free elimination
    (Bareiss 1968), swapping in a lower row on a zero pivot."""
    a = [list(r) for r in rows]
    sign, previous = 1, 1
    for k in range(len(a) - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1]


def certify(poly):
    """The faults of the compact facets of a primary polyhedron ``poly``
    (every axis reached, the zero vector not a generator), as a list of
    strings, empty when it is certified. Reads only the integer points,
    the facet rows (w, t), the facet masks and the masks of the rays.

    Validity: each row has <w, p_j> >= t on every integer point p_j, with
    equality on every bit of its mask. Tiling: the cones from the origin
    over the compact facets tile the positive orthant, so over the
    simplices sigma of ``newton._pull`` on every facet, the shares
    |det sigma| / prod_{v in sigma} |v|_1 of the standard simplex that
    their radial projections cover sum to 1, |v|_1 the coordinate sum.
    The identity is scale-free, so it runs on the integer points, in ints:
    sum |det sigma| * (D / prod) = D, with D the lcm of the products. A
    missing facet or simplex makes the sum less than 1, an overlap more.
    """
    points = poly.generators.points
    n = len(points[0])

    def members(mask):
        return [j for j in range(len(points)) if mask >> j & 1]

    faults = []
    for (w, t), mask in zip(poly._facet_rows, poly._facet_masks):
        slacks = [sum(map(mul, w, p)) - t for p in points]
        if min(slacks) < 0:
            faults.append(f"row {w, t} cuts off a point")
        if any(slacks[j] for j in members(mask)):
            faults.append(f"row {w, t} is not tight on its mask")
    cuts = [tight for _, tight in poly._rays]
    terms = []
    for face in poly._facet_masks:
        for simplex in _pull(face, n - 1, cuts):
            vertices = [points[j] for j in members(simplex)]
            terms.append((abs(bareiss_det(vertices)), math.prod(map(sum, vertices))))
    common = math.lcm(*[product for _, product in terms])
    total = sum(det * (common // product) for det, product in terms)
    if total != common:
        faults.append(f"the facet cones cover {Fraction(total, common)} of the orthant")
    return faults
