"""Newton polyhedra conv(A) + R_+^n from one exact integer hull.

The exponent set is scaled once to integer points p_j by the lcm L of
its denominators. The hull is the cone of valid inequalities

    C = {(w, t) in Z^(n+1) : w >= 0, t >= 0, <w, p_j> >= t for all j},

whose extreme rays are enumerated by the double description method
(Motzkin et al. 1953; Fukuda & Prodon, "Double description method
revisited", 1996): constraints are added one at a time, rays are kept
primitive by their gcd, and two rays are combined only when they are
adjacent by the combinatorial test on their zero sets. The work is
proportional to the rays that exist, not to the n-subsets of vertices.
Everything else is read off the rays and their zero sets:

* a generator is a vertex iff the rays tight on it have rank n;
* the compact facets are the rays with w > 0 that are tight on some
  generator, with primitive normal w/gcd(w), support t/(L gcd(w)) and
  the vertices of their zero set as incidence;
* the cone over a compact facet is cut by a pulling triangulation of
  the facet, whose faces are the maximal intersections of its vertex
  set with the zero sets of the other rays, and its volume is a sum of
  integer determinants;
* the intercept on axis k is the least g_k over the generators that
  vanish off axis k.

Covolume (the volume of the positive orthant minus the polyhedron) is
the sum of the cone volumes over the compact facets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvalidInputError, NotPrimaryError

# hyperplane_normal has no caller here but stays bound in this module:
# perfbench/test_perfbench.py checks that its tracer wraps a geometry
# function under every module name that binds it, this one included.
from .geometry import cone_point_member, det, dot, hyperplane_normal  # noqa: F401
from .rationals import exponent_vector, vector


@dataclass(frozen=True)
class Facet:
    """A compact facet: primitive strictly positive inner normal ``normal``,
    support value ``support`` = min over the polyhedron of <normal, .>, and
    the indices of the incident vertices."""

    normal: tuple[int, ...]
    support: Fraction
    vertex_indices: tuple[int, ...]


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _dual_rays(points, n):
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
            s = sum(a * b for a, b in zip(r, p)) - r[-1]
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
                    # tight on both (Fukuda & Prodon 1996).
                    common = zp & zq
                    if common.bit_count() < d - 2 or any(
                        z & common == common and z != zp and z != zq for z in zs
                    ):
                        continue
                    r = tuple(sp * b - sq * a for a, b in zip(rp, rq))
                    g = math.gcd(*r)
                    kept.append((tuple(c // g for c in r), common | bit))
        rays = kept
    return rays


def _rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [top[col] * x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _pull(face, dim, cuts):
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
        for s in _pull(side, dim - 1, cuts)
    ]


class NewtonPolyhedron:
    """conv(generators) + positive orthant. Treat instances as immutable."""

    def __init__(self, generators):
        gens = sorted({exponent_vector(g) for g in generators})
        if not gens:
            raise InvalidInputError("at least one generator is required")
        dims = {len(g) for g in gens}
        if len(dims) != 1:
            raise InvalidInputError("generators mix dimensions")
        self.dimension = dims.pop()
        self.generators = tuple(gens)
        self._scale = math.lcm(*(c.denominator for g in gens for c in g))
        self._points = tuple(tuple(int(c * self._scale) for c in g) for g in gens)
        self._rays = self._enumerate_facets()
        self._vertex_ids = self._minimal_vertices()
        self.vertices = tuple(gens[j] for j in self._vertex_ids)
        self.compact_facets = self._compact_facets()

    def _enumerate_facets(self):
        """Every extreme ray of C as (ray, mask of the generators it is tight on)."""
        shift = self.dimension + 1
        return tuple((r, z >> shift) for r, z in _dual_rays(self._points, self.dimension))

    def _minimal_vertices(self):
        """Indices of the generators that are vertices."""
        n = self.dimension
        return tuple(
            j
            for j in range(len(self._points))
            if _rank([r for r, tight in self._rays if tight >> j & 1]) == n
        )

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
                    Fraction(r[-1], self._scale * g),
                    tuple(position[j] for j in _bits(tight) if j in position),
                )
            )
        facets.sort(key=lambda f: (f.normal, f.support))
        return tuple(facets)

    def facet_points(self, facet: Facet):
        return tuple(self.vertices[i] for i in facet.vertex_indices)

    @cached_property
    def axis_intercepts(self):
        """Per axis k, the least c with c*e_k in the polyhedron: the least
        g_k over the generators that vanish off axis k; math.inf when
        there is none and the polyhedron misses the axis."""
        n = self.dimension
        return tuple(
            min(
                (g[k] for g in self.generators if not any(g[i] for i in range(n) if i != k)),
                default=math.inf,
            )
            for k in range(n)
        )

    @cached_property
    def _facet_cone_volumes(self):
        n = self.dimension
        ids = self._vertex_ids
        on_vertices = sum(1 << j for j in ids)
        cuts = [tight & on_vertices for _, tight in self._rays]
        denominator = self._scale**n * math.factorial(n)
        volumes = []
        for f in self.compact_facets:
            face = sum(1 << ids[i] for i in f.vertex_indices)
            total = sum(
                (abs(det([self._points[j] for j in _bits(s)])) for s in _pull(face, n - 1, cuts)),
                Fraction(0),
            )
            volumes.append(total / denominator)
        return tuple(volumes)

    def covolume(self) -> Fraction:
        """Volume of R_+^n minus the polyhedron, summed facet cone by cone."""
        if any(m == math.inf for m in self.axis_intercepts):
            raise NotPrimaryError("covolume is infinite: some axis is never reached")
        return sum(self._facet_cone_volumes, Fraction(0))

    def support_min(self, direction) -> Fraction:
        """min over generators of <g, direction> for direction >= 0."""
        w = vector(direction, self.dimension)
        if any(c < 0 for c in w):
            raise InvalidInputError("direction must be componentwise nonnegative")
        return min(dot(g, w) for g in self.generators)

    def minkowski_sum(self, other: "NewtonPolyhedron") -> "NewtonPolyhedron":
        if self.dimension != other.dimension:
            raise InvalidInputError("Minkowski sum needs equal dimensions")
        sums = [
            tuple(a + b for a, b in zip(p, q))
            for p in self.vertices
            for q in other.vertices
        ]
        return NewtonPolyhedron(sums)

    def contains(self, point) -> bool:
        return cone_point_member(point, self.vertices)

    def __eq__(self, other):
        if not isinstance(other, NewtonPolyhedron):
            return NotImplemented
        return self.dimension == other.dimension and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.dimension, self.vertices))

    def __repr__(self):
        verts = ", ".join(str(tuple(map(str, v))) for v in self.vertices)
        return f"NewtonPolyhedron(dim={self.dimension}, vertices=[{verts}])"
