"""Newton polyhedra conv(A) + R_+^n from one exact integer hull.

The hull runs on the integer points p_j that the checked exponent set
carries, the set scaled by the lcm L of its denominators. It is the
cone of valid inequalities

    C = {(w, t) in Z^(n+1) : w >= 0, t >= 0, <w, p_j> >= t for all j},

whose extreme rays are enumerated by the double description method
(Motzkin et al. 1953; Fukuda & Prodon, "Double description method
revisited", 1996): constraints are added one at a time, rays are kept
primitive by their gcd, and two rays are combined only when they are
adjacent by the combinatorial test on their zero sets. The work is
proportional to the rays that exist, not to the n-subsets of vertices.
The method may start from any simplicial cone cut out by some of the
constraints, and the rays it ends with do not depend on the order of
the rest, so it starts from the cone of the least pure powers that the
checked set records and inserts only the other points (``_dual_rays``).
Everything else is read off the rays and their zero sets:

* generator j is a vertex iff it is the only generator tight on every
  ray tight on j (the AND of those rays' zero sets is j alone): the
  valid inequalities tight on a vertex cut out that vertex, while a
  non-vertex lies in the relative interior of a face of dimension >= 1,
  and a vertex of that face is tight on every ray the non-vertex is;
* the compact facets are the rays with w > 0 that are tight on some
  generator, with primitive normal w/gcd(w), support t/(L gcd(w)) and
  the vertices of their zero set as incidence;
* the cone over a compact facet is cut by a pulling triangulation of
  the facet, whose faces are the maximal intersections of its vertex
  set with the zero sets of the other rays (an intersection with fewer
  vertices than a facet of the face needs is never one), and L^n n!
  times its volume is the int sum of |int_det| over the simplices on
  the integer points;
* the intercept on axis k, the least g_k over the generators that
  vanish off axis k, is read off the checked set, which computes it once.

Covolume (the volume of the positive orthant minus the polyhedron) is
the sum of the cone volumes over the compact facets: one Fraction, the
int sum of the cone totals over L^n n!. The kernel is integer
throughout, from the checked exponent set to one Fraction per output.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import InvalidInputError, NotPrimaryError

# hyperplane_normal has no caller here but stays bound in this module:
# perfbench/test_perfbench.py checks that its tracer wraps a geometry
# function under every module name that binds it, this one included.
from .geometry import hyperplane_normal, int_det  # noqa: F401
from .rationals import exponent_set


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


def _dual_rays(points, n, pure_powers):
    """Extreme rays of C for integer ``points``, as (ray, zero set) pairs.

    A ray is the primitive integer vector (w, t). In a zero set, bit k < n
    stands for w_k >= 0, bit n for t >= 0 and bit n + 1 + j for the
    inequality of points[j]; a set bit means the inequality is tight.

    ``pure_powers`` gives per axis k the index of the least pure power
    M_k e_k among the points, or None. The method starts from the cone of
    those inequalities and of w >= 0, t >= 0, and inserts the other points
    in their order. With K the axes that have a pure power and L the lcm
    of their M_k, that cone is simplicial: its rays are (e_k, 0) for every
    k, tight on the pure powers of the other axes, and (L/M_K, 0, L),
    which is 0 off K and tight on every pure power; with K empty it is
    the orthant. The rays of C and their zero sets do not depend on the
    order in which its inequalities are added, only the work on the way
    does, so this start saves one insertion step per pure power.
    """
    d = n + 1
    full = (1 << d) - 1
    # Per axis k, M_k and the zero-set bit of M_k e_k, or 0 and 0.
    powers = [0 if i is None else points[i][k] for k, i in enumerate(pure_powers)]
    pure = [0 if i is None else 1 << (d + i) for i in pure_powers]
    tight = sum(pure)
    rays = [
        (tuple(int(i == k) for i in range(d)), (full ^ 1 << k) | (tight ^ pure[k]))
        for k in range(n)
    ]
    scale = math.lcm(*filter(None, powers))
    off = sum(1 << k for k in range(n) if not powers[k])
    rays.append((tuple(scale // m if m else 0 for m in powers) + (scale,), off | tight))
    for j, p in enumerate(points):
        if j in pure_powers:
            continue
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
        self.dimension = len(gens.points[0])
        self._rays = self._enumerate_facets()
        self._vertex_ids = self._minimal_vertices()
        self.compact_facets = self._compact_facets()

    def _enumerate_facets(self):
        """Every extreme ray of C as (ray, mask of the generators it is tight on)."""
        shift = self.dimension + 1
        gens = self.generators
        rays = _dual_rays(gens.points, self.dimension, gens.pure_powers)
        return tuple((r, z >> shift) for r, z in rays)

    def _minimal_vertices(self):
        """Indices of the generators that are vertices: those j for which
        the AND of the masks of the rays tight on j is 1 << j."""
        meets = [-1] * len(self.generators)
        for _, tight in self._rays:
            for j in _bits(tight):
                meets[j] &= tight
        return tuple(j for j, m in enumerate(meets) if m == 1 << j)

    def _compact_facets(self):
        """The rays with w > 0 that are tight on some generator, as Facets
        sorted by (normal, support)."""
        position = {j: i for i, j in enumerate(self._vertex_ids)}
        facets = []
        for r, tight in self._rays:
            w = r[:-1]
            if not tight or min(w) <= 0:
                continue
            g = math.gcd(*w)
            facets.append(
                Facet(
                    tuple(c // g for c in w),
                    Fraction(r[-1], self.generators.scale * g),
                    tuple(position[j] for j in _bits(tight) if j in position),
                )
            )
        facets.sort(key=lambda f: (f.normal, f.support))
        return tuple(facets)

    @cached_property
    def vertices(self):
        """The generators that are vertices, as the set's Fraction vectors.
        Nothing in the kernel reads them, so they are built on first use."""
        return tuple(self.generators[j] for j in self._vertex_ids)

    def facet_points(self, facet: Facet):
        return tuple(self.vertices[i] for i in facet.vertex_indices)

    @cached_property
    def axis_intercepts(self):
        """Per axis k, the least c with c*e_k in the polyhedron."""
        return self.generators.intercepts

    @cached_property
    def _facet_cone_volumes(self):
        """Per compact facet, the int L^n n! times the volume of the cone
        over it: the sum of |int_det| over the simplices of its
        triangulation on the integer points."""
        n = self.dimension
        ids = self._vertex_ids
        on_vertices = sum(1 << j for j in ids)
        cuts = [tight & on_vertices for _, tight in self._rays]
        points = self.generators.points
        faces = [sum(1 << ids[i] for i in f.vertex_indices) for f in self.compact_facets]
        return tuple(
            sum(abs(int_det([points[j] for j in _bits(s)])) for s in _pull(face, n - 1, cuts))
            for face in faces
        )

    def covolume(self) -> Fraction:
        """Volume of R_+^n minus the polyhedron, summed facet cone by cone."""
        if self.generators.unreached:
            raise NotPrimaryError("covolume is infinite: some axis is never reached")
        denominator = self.generators.scale**self.dimension * math.factorial(self.dimension)
        return Fraction(sum(self._facet_cone_volumes), denominator)

    def minkowski_sum(self, other: "NewtonPolyhedron") -> "NewtonPolyhedron":
        if self.dimension != other.dimension:
            raise InvalidInputError("Minkowski sum needs equal dimensions")
        sums = [
            tuple(a + b for a, b in zip(p, q))
            for p in self.vertices
            for q in other.vertices
        ]
        return NewtonPolyhedron(sums)

    def __repr__(self):
        verts = ", ".join(str(tuple(map(str, v))) for v in self.vertices)
        return f"NewtonPolyhedron(dim={self.dimension}, vertices=[{verts}])"
