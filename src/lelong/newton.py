"""Newton polyhedra conv(A) + R_+^n from one exact integer hull.

The hull runs on the integer points p_j that the checked exponent set
carries, the set scaled by the lcm L of its denominators. It is the
cone of valid inequalities

    C = {(w, t) in Z^(n+1) : w >= 0, t >= 0, <w, p_j> >= t for all j},

whose extreme rays are enumerated by the double description method
(Motzkin et al. 1953; Fukuda & Prodon, "Double description method
revisited", 1996): constraints are added one at a time, rays are kept
primitive by their gcd, and two rays are combined only when they are
adjacent, that is when the inequalities tight on both have rank d - 2,
d = n + 1. A ray tight on exactly d - 1 inequalities has them linearly
independent, so a pair with such a ray is adjacent as soon as it shares
d - 2 of them (the algebraic test); only a pair of degenerate rays, each
tight on d or more, takes the combinatorial test, a scan of the other
rays' zero sets. The work is proportional to the rays that exist, not
to the n-subsets of vertices.
The method may start from any simplicial cone cut out by some of the
constraints, and the rays it ends with do not depend on the order of
the rest, so it starts from the cone of the least pure powers that the
checked set records and inserts only the other points (``_dual_rays``),
in order of coordinate sum. The order changes only the work: on the
vertex-rich sets it tests no more pairs of rays for adjacency than the
set order, and half as many at ``vertex_rich(6, 6)``: 1.24 million
against 2.49 million.
In the plane the rays are read off directly instead (``_plane_rays``):
the ones with w > 0 are the edges of the lower convex chain of the
staircase of the sorted points, found by a monotone chain (Andrew 1979)
in time linear in the points, where the double description tests every
pair of positive and negative rays at each step. The double description
serves n >= 3, and at n = 2 it is the reference that the chain is
tested against.
For n >= 3 the hull has a closed form (``NewtonPolyhedron._simplicial``)
when every axis has a pure power and no integer point lies below the
hyperplane (w, L) of the least ones (the set's ``pure_power_plane``,
derived once per set and read by the check and by the double
description's start cone alike), as for the paper's simplicial weights
max_k log|z_k|^(1/a_k): the start cone's rays are (e_k, 0), where a
point's slack is p_k >= 0, and (w, L), so no point cuts it, and it is C,
each ray tight on its points of slack 0, in order. Its vertices are the
least pure powers, every other point lies on or above their simplex, and
its one compact facet is (w, L). The check stops at the first point
below, and such a set takes the double description. The check sets the
vertices and the facet row only; nothing in the package reads the rays
of a closed form, so ``_rays`` builds them on its first read.
A polyhedron with every axis reached and exactly one compact facet, the
closed form or a plane set with one edge, has the cone volume
L^n n! vol = prod_k M_k without a triangulation: each least pure power
M_k e_k is a vertex, and the one compact facet holds every vertex, so
its hyperplane passes through those powers; its points are nonnegative,
so they lie in the simplex of the powers, which the facet contains. The
facet is that simplex, whose cone has |det diag(M_k)| = prod_k M_k.
Both take the checked set and return each ray with its generator mask,
whose bit j is set iff the ray is tight on p_j. The double description
also needs the bits of the constraints w_k >= 0 and t >= 0 for its
adjacency test, but keeps them to itself: they follow from the ray. The
masks are the one form of a tight set from the hull to the cone volumes,
and everything else is read off the rays and their masks:

* generator j is a vertex iff it is the only generator tight on every
  ray tight on j (the AND of those rays' masks is j alone): the valid
  inequalities tight on a vertex cut out that vertex, while a
  non-vertex lies in the relative interior of a face of dimension >= 1,
  and a vertex of that face is tight on every ray the non-vertex is;
* the compact facets are the rays with w > 0 that are tight on some
  generator, kept as the int rows (w, t) sorted by normal, each with the
  vertex part of its mask for its cone volume; w is primitive, since
  gcd(w) divides t = <w, p_j> for a generator p_j the ray is tight on,
  and the ray is primitive; the queries read the rows, and the Facet
  records (normal w, support t/L, the vertices of the mask as incidence)
  are built from them on the first read of ``compact_facets``;
* the cone over a compact facet is cut by a pulling triangulation of
  the facet, whose faces are the maximal intersections of its vertex
  mask with the masks of the other rays (an intersection with fewer
  vertices than a facet of the face needs is never one), and L^n n!
  times its volume is the int sum of |int_det| over the simplices on
  the integer points.

Covolume (the volume of the positive orthant minus the polyhedron) is
the sum of the cone volumes over the compact facets: one Fraction, the
int sum of the cone totals over L^n n!. The kernel is integer
throughout, from the checked exponent set to one Fraction per output.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .errors import NotPrimaryError

# hyperplane_normal has no caller here but stays bound in this module:
# perfbench/test_perfbench.py checks that its tracer wraps a geometry
# function under every module name that binds it, this one included.
from .geometry import hyperplane_normal, int_det  # noqa: F401
from .rationals import exponent_set, lazy


class Facet(namedtuple("Facet", "normal support vertex_indices")):
    """A compact facet: primitive strictly positive inner normal ``normal``
    (a tuple of ints), support value ``support`` (a Fraction) = min over
    the polyhedron of <normal, .>, and the indices of the incident
    vertices."""

    __slots__ = ()


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _dual_rays(gens):
    """Extreme rays of C for the integer ``points`` of the checked set
    ``gens``, as (ray, generator mask) pairs.

    A ray is the primitive integer vector (w, t), and bit j of its mask is
    set iff the ray is tight on points[j]: <w, points[j]> = t. Inside, a
    ray's zero set also carries the constraint bits that the adjacency
    test needs, bit k < n for w_k >= 0 and bit n for t >= 0, with points[j]
    at bit n + 1 + j. The return shifts the constraint bits out, as they
    follow from the ray: bit k is set iff w_k = 0, and bit n iff t = 0.
    The kernel calls this for n >= 3 off the closed form; at n = 2 it is
    the reference for ``_plane_rays``.

    The set's ``pure_powers`` give per axis k the index of the least pure
    power M_k e_k, or None. The method starts from the cone of those
    inequalities and of w >= 0, t >= 0, and inserts the other points in
    order of coordinate sum, ties in set order; each keeps its own bit.
    Point p enters as (p, -1), so its slack on a ray (w, t) is one dot
    product <w, p> - t. That cone is simplicial: its rays are (e_k, 0)
    for every k, tight on the pure powers of the other axes, and the set's
    ``pure_power_plane`` (w, L), tight on every pure power. The rays of C and
    their zero sets do not depend on the order in which its inequalities
    are added, only the work on the way does, so this start saves one
    insertion step per pure power and the order is free to be chosen for
    speed.

    A positive and a negative ray make a new ray when they are adjacent
    (Fukuda & Prodon 1996): the inequalities tight on both have rank
    d - 2. Fewer than d - 2 common bits rule that out. An extreme ray
    tight on exactly d - 1 inequalities has them independent, so when
    either ray is, d - 2 common bits are independent and decide it with
    no scan. Only when both rays are degenerate does the scan over every
    ray's zero set run, which stops at the third ray tight on the common
    inequalities.
    """
    points, pure_powers = gens.points, gens.pure_powers
    n = len(points[0])
    d = n + 1
    full = (1 << d) - 1
    zero = (0,) * d
    # Per axis k, the zero-set bit of M_k e_k, or 0; off: the axes without one.
    pure, off = [0] * n, full >> 1
    for k, i in enumerate(pure_powers):
        if i is not None:
            pure[k] = 1 << (d + i)
            # Left set, bit k would repeat M_k e_k's bit on every ray and change
            # no output, but push rays over d bits: more pairs take the scan.
            off ^= 1 << k
    tight = sum(pure)
    rays = [
        (zero[:k] + (1,) + zero[k + 1 :], (full ^ 1 << k) | (tight ^ pure[k])) for k in range(n)
    ]
    rays.append((gens.pure_power_plane, off | tight))
    sums = list(map(sum, points))
    for j in sorted(range(len(points)), key=sums.__getitem__):
        if j in pure_powers:
            continue
        q = (*points[j], -1)
        bit = 1 << (d + j)
        pos, neg, kept = [], [], []
        for r, z in rays:
            s = sum(map(mul, r, q))
            if s > 0:
                pos.append((r, z, s))
                kept.append((r, z))
            elif s < 0:
                neg.append((r, z, s, z.bit_count() >= d))
            else:
                kept.append((r, z | bit))
        if neg:
            zs = None
            for rp, zp, sp in pos:
                for rq, zq, sq, degenerate_q in neg:
                    # Adjacent iff the inequalities tight on both have
                    # rank d - 2; if either ray is tight on only d - 1,
                    # any d - 2 of those have it.
                    common = zp & zq
                    if common.bit_count() < d - 2:
                        continue
                    if degenerate_q and zp.bit_count() >= d:
                        # Adjacent iff no third ray is tight on every
                        # inequality tight on both. The two count
                        # themselves, and distinct extreme rays have
                        # distinct zero sets, so the scan stops at the third.
                        if zs is None:
                            zs = [z for _, z in rays]
                        seen = 0
                        for z in zs:
                            if z & common == common:
                                seen += 1
                                if seen > 2:
                                    break
                        if seen > 2:
                            continue
                    r = [sp * b - sq * a for a, b in zip(rp, rq)]
                    g = math.gcd(*r)
                    if g != 1:
                        r = [c // g for c in r]
                    kept.append((tuple(r), common | bit))
        rays = kept
    return [(r, z >> d) for r, z in rays]


def _plane_rays(gens):
    """The (ray, generator mask) pairs of ``_dual_rays`` at n = 2, in time
    linear in the sorted integer ``points`` of the checked set ``gens``.

    The rays with t = 0 are (e_k, 0), tight on the points with p_k = 0.
    When every point has p_k > 0, (e_k, m) with m = min p_k is a ray,
    tight on the points with p_k = m. The other rays have w > 0 and are
    the edges of the lower convex chain of the staircase, the points lower
    than every point before them in set order, taken by a monotone chain
    (Andrew, Inform. Process. Lett. 9, 1979) that drops collinear points,
    so that no two edges share a normal. The edge a -> b is the ray
    (w, <w, a>), w = (a_y - b_y, b_x - a_x)/gcd, tight on the staircase
    points from a to b on the edge; a dominated point is never tight on
    it, as w > 0.
    """
    points = gens.points
    rays = []
    for k in (0, 1):
        for t in {0, min(p[k] for p in points)}:
            rays.append(((1 - k, k, t), sum(1 << j for j, p in enumerate(points) if p[k] == t)))
    stair = []
    for j, p in enumerate(points):
        if not stair or p[1] < points[stair[-1]][1]:
            stair.append(j)
    chain = []
    for i, j in enumerate(stair):
        bx, by = points[j]
        while len(chain) > 1:
            (ox, oy), (ax, ay) = points[stair[chain[-2]]], points[stair[chain[-1]]]
            if (ax - ox) * (by - oy) > (ay - oy) * (bx - ox):
                break
            chain.pop()
        chain.append(i)
    for s, e in zip(chain, chain[1:]):
        (ax, ay), (bx, by) = points[stair[s]], points[stair[e]]
        g = math.gcd(ay - by, bx - ax)
        w = ((ay - by) // g, (bx - ax) // g)
        t = w[0] * ax + w[1] * ay
        on_edge = sum(1 << j for j in stair[s : e + 1] if sum(map(mul, w, points[j])) == t)
        rays.append(((*w, t), on_edge))
    return rays


def _pull(face, dim, cuts):
    """Pulling triangulation of a face of dimension ``dim``, given by its
    vertex mask, as the vertex masks of its simplices.

    The facets of the face are its maximal proper intersections with the
    masks in ``cuts``; the lowest vertex is joined to the triangulations
    of the facets that miss it. A facet has at least ``dim`` vertices,
    and a smaller side lies in a facet, so the smaller sides are dropped
    before the maximality test.
    """
    if face.bit_count() == dim + 1:
        return [face]
    apex = face & -face
    sides = {side for c in cuts if (side := face & c).bit_count() >= dim}
    sides.discard(face)
    return [
        s | apex
        for side in sides
        if not side & apex and not any(side & o == side and side != o for o in sides)
        for s in _pull(side, dim - 1, cuts)
    ]


class NewtonPolyhedron:
    """conv(generators) + positive orthant. Treat instances as immutable."""

    def __init__(self, generators):
        gens = self.generators = exponent_set(generators)
        n = self.dimension = len(gens.points[0])
        if n == 2 or None in gens.pure_powers or not self._simplicial():
            self._rays = self._enumerate_facets()
            self._vertex_ids = self._minimal_vertices()
            self._facet_rows, self._facet_masks = self._compact_facets()

    def _simplicial(self):
        """Return False at the first integer point below the hyperplane
        (w, L) of the least pure powers; else set the closed form's
        vertices, those powers, and its one facet row (w, L) with their
        mask, and return True. The rays are left to ``_rays``."""
        gens = self.generators
        pure = gens.pure_powers
        ray = gens.pure_power_plane
        w, scale = ray[:-1], ray[-1]
        for p in gens.points:
            if sum(map(mul, w, p)) < scale:
                return False
        self._vertex_ids = tuple(sorted(pure))
        self._facet_rows, self._facet_masks = ((w, scale),), (sum(1 << i for i in pure),)
        return True

    @lazy
    def _rays(self):
        """The closed form's rays, built on first read, as nothing in the
        package reads them: (e_k, 0) for each k, tight on the points with
        p_k = 0, then (w, L), tight on the points of its hyperplane, in the
        order of the double description's start cone. The other paths set
        ``_rays`` when they build the polyhedron, so only a closed form
        runs this."""
        gens, n = self.generators, self.dimension
        points, ray = gens.points, gens.pure_power_plane
        w, scale = ray[:-1], ray[-1]
        rays = [
            ((0,) * k + (1,) + (0,) * (n - k), sum(1 << j for j, p in enumerate(points) if not p[k]))
            for k in range(n)
        ]
        rays.append((ray, sum(1 << j for j, p in enumerate(points) if sum(map(mul, w, p)) == scale)))
        return rays

    def _enumerate_facets(self):
        """Every extreme ray of C as (ray, mask of the generators it is tight on)."""
        return (_plane_rays if self.dimension == 2 else _dual_rays)(self.generators)

    def _minimal_vertices(self):
        """Indices of the generators that are vertices: those j for which
        the AND of the masks of the rays tight on j is 1 << j."""
        meets = [-1] * len(self.generators)
        for _, tight in self._rays:
            for j in _bits(tight):
                meets[j] &= tight
        return tuple(j for j, m in enumerate(meets) if m == 1 << j)

    def _compact_facets(self):
        """The rays with w > 0 that are tight on some generator, as int
        rows (w, t) sorted by normal, and the mask of each one's vertices
        in the same order. Such a ray is (w, min_j <w, p_j>) and
        primitive, so w is primitive too (gcd(w) divides the min) and
        determines the ray: the normals are distinct, and the sort never
        reads past them."""
        on_vertices = sum(1 << j for j in self._vertex_ids)
        rows = []
        for r, tight in self._rays:
            w = r[:-1]
            if not tight or 0 in w:
                continue
            rows.append((w, r[-1], tight & on_vertices))
        rows.sort()
        return tuple([row[:2] for row in rows]), tuple([row[-1] for row in rows])

    @lazy
    def compact_facets(self):
        """The compact facets as Facets, in the order of the rows: normal w,
        support t/L and the positions of the vertices of the mask among
        the vertices. No query reads them, so they are built on first use."""
        position = {j: i for i, j in enumerate(self._vertex_ids)}
        scale = self.generators.scale
        return tuple(
            [
                Facet(w, Fraction(t, scale), tuple([position[j] for j in _bits(mask)]))
                for (w, t), mask in zip(self._facet_rows, self._facet_masks)
            ]
        )

    @lazy
    def vertices(self):
        """The generators that are vertices, as the set's Fraction vectors.
        Nothing in the kernel reads them, so they are built on first use."""
        return tuple(self.generators[j] for j in self._vertex_ids)

    def facet_points(self, facet: Facet):
        return tuple(self.vertices[i] for i in facet.vertex_indices)

    @lazy
    def axis_intercepts(self):
        """Per axis k, the least c with c*e_k in the polyhedron: an alias of
        ``generators.intercepts``, kept only while ``perfbench/`` reads it
        (its ``newton.axis_intercepts`` span and ``OracleCheck.check``)."""
        return self.generators.intercepts

    @lazy
    def _facet_cone_volumes(self):
        """Per compact facet, the int L^n n! times the volume of the cone
        over it: the sum of |int_det| over the simplices of its
        triangulation on the integer points. A face's mask holds vertices
        only, so a ray's mask cuts it as its vertex part would.

        With every axis reached and one compact facet, that facet is the
        simplex of the least pure powers M_k e_k (module docstring), and
        the one volume is their product, without the triangulation or
        the rays: the closed form and the plane sets with one edge."""
        gens = self.generators
        points, pure = gens.points, gens.pure_powers
        if len(self._facet_masks) == 1 and None not in pure:
            return (math.prod([points[i][k] for k, i in enumerate(pure)]),)
        n = self.dimension
        cuts = [tight for _, tight in self._rays]
        volumes = []
        for face in self._facet_masks:
            total = 0
            for s in _pull(face, n - 1, cuts):
                total += abs(int_det([points[j] for j in _bits(s)]))
            volumes.append(total)
        return tuple(volumes)

    def covolume(self) -> Fraction:
        """Volume of R_+^n minus the polyhedron, summed facet cone by cone."""
        if self.generators.unreached:
            raise NotPrimaryError("covolume is infinite: some axis is never reached")
        denominator = self.generators.scale**self.dimension * math.factorial(self.dimension)
        return Fraction(sum(self._facet_cone_volumes), denominator)

    def __repr__(self):
        verts = ", ".join(str(tuple(map(str, v))) for v in self.vertices)
        return f"NewtonPolyhedron(dim={self.dimension}, vertices=[{verts}])"
