"""Homogeneous plurisubharmonic models and their singularity invariants.

A function f(t) = max_j <b_j, t> on the closed negative orthant, with
nonnegative rational exponent vectors b_j, is the logarithmic model of
the singularity of max_j log|z^(b_j)| at the origin. Everything this
module computes is exact and read off the Newton polyhedron of the
exponent set:

* the residual Monge-Ampere mass (n! times the covolume),
* the atomic measure on the extreme points of the level set {f = -1},
  one atom per compact facet (vertex -normal/support, mass n! times the
  facet cone volume), whose total mass equals the residual mass,
* directional numbers min_j <b_j, a> and their weighted aggregates,
* relative types, flatness, the extremal simplicial direction, and the
  Lojasiewicz exponent.

Generators are checked once, when an object is built from outside data,
and the polyhedron, the extremal direction's weight and the aggregates
run on the checked set: the pure-power check reads the set's unreached
axes and the aggregates its integer points, so neither is derived again.
The work is integer throughout, with one Fraction per output. Each
atom's vertex coordinate -w_k/h is built from the integer facet normal w
and the support h without a division. Each pairing with the measure is
written once. A psh's least value min_j <P_j, a> over its integer
points P_j = L b_j, over L, is its directional number at a; with a = w
and over L h, it is the psh's number at the atom of the facet (w, h),
and the type is the least of those numbers. The aggregate brings the
atoms' ratios mass/h to integers c over one common denominator Q, so
each aggregate is one integer sum over Q L; the axis aggregates are
those of the probes e_k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import InvalidInputError, NotPrimaryError
from .newton import NewtonPolyhedron
from .rationals import exponent_set, integer_scaling, positive_direction, vector

NEG_INFINITY = float("-inf")


class HomogeneousPsh:
    """Maximum of linear forms with nonnegative rational exponents.

    Instances are immutable value objects; every derived quantity is
    cached on first use.
    """

    def __init__(self, generators):
        self.generators = exponent_set(generators)
        self.dimension = len(self.generators[0])

    @cached_property
    def polyhedron(self) -> NewtonPolyhedron:
        return NewtonPolyhedron(self.generators)

    def evaluate(self, t):
        """max_j <b_j, t> for t in the closed negative orthant.

        Finite coordinates follow the package's rational grammar; a
        coordinate may also be the float -inf. A term with a positive
        exponent on an infinite coordinate evaluates to -inf, a zero
        exponent ignores it. The point is read by ``rationals.vector``
        with each -inf taken as 0, and the max of <P_j, t> over the
        integer points P_j = L b_j that the -inf axes leave is one
        Fraction over L.
        Returns a Fraction, or -inf when every term is -inf.
        """
        t = tuple(t)
        dead = [k for k, c in enumerate(t) if isinstance(c, float) and c == NEG_INFINITY]
        x = vector((0 if k in dead else c for k, c in enumerate(t)), self.dimension)
        if any(c > 0 for c in x):
            raise InvalidInputError("evaluation point must be componentwise <= 0")
        values = [
            sum(map(mul, p, x)) for p in self.generators.points if not any(p[k] for k in dead)
        ]
        return max(values) / self.generators.scale if values else NEG_INFINITY

    def _least(self, a):
        """min_j <P_j, a> over the integer points P_j = L b_j of the set."""
        return min(sum(map(mul, p, a)) for p in self.generators.points)

    def directional_lelong(self, direction) -> Fraction:
        """min_j <b_j, a> for a strictly positive direction a."""
        a = positive_direction(direction, self.dimension)
        return self._least(a) / self.generators.scale

    def __repr__(self):
        gens = ", ".join(str(tuple(map(str, g))) for g in self.generators)
        return f"{type(self).__name__}([{gens}])"


class LelongAtom(namedtuple("LelongAtom", "vertex mass")):
    """One extreme point of the level set {f = -1}, a tuple of Fractions,
    with its mass, a Fraction."""

    __slots__ = ()


class LelongMeasure(namedtuple("LelongMeasure", "atoms")):
    """The atomic measure: a tuple of LelongAtoms."""

    __slots__ = ()

    @property
    def total_mass(self) -> Fraction:
        return sum((a.mass for a in self.atoms), Fraction(0))


class MonomialWeight(HomogeneousPsh):
    """A homogeneous model with a positive pure power on every axis.

    The pure powers force the pole set of the underlying function down to
    the origin alone, all axis intercepts finite, and the residual mass
    positive. Construction raises NotPrimaryError otherwise.
    """

    def __init__(self, generators):
        super().__init__(generators)
        gens = self.generators
        if not any(gens.points[0]):
            raise NotPrimaryError("a zero exponent vector forces zero residual mass")
        if gens.unreached:
            raise NotPrimaryError(f"no pure power on axis {gens.unreached[0]}")

    @cached_property
    def _residual_mass(self) -> Fraction:
        return math.factorial(self.dimension) * self.polyhedron.covolume()

    def residual_mass(self) -> Fraction:
        """Total mass of the measure; n! times the covolume. Positive."""
        return self._residual_mass

    @cached_property
    def _measure(self) -> LelongMeasure:
        poly = self.polyhedron
        # n! times the cone volume: the int total over L^n.
        denominator = poly.generators.scale**self.dimension
        atoms = []
        for facet, total in zip(poly.compact_facets, poly._facet_cone_volumes):
            h = facet.support
            t = tuple(Fraction(-c * h.denominator, h.numerator) for c in facet.normal)
            atoms.append(LelongAtom(t, Fraction(total, denominator)))
        return LelongMeasure(tuple(atoms))

    def lelong_measure(self) -> LelongMeasure:
        """One atom per compact facet with normal w and support h: the
        extreme point -w/h of {f = -1} weighted by n! times the volume of
        the cone over the facet."""
        return self._measure

    @cached_property
    def _mass_over_support(self) -> tuple[int, tuple[int, ...]]:
        """The ratios mass / h of the atoms, in atom order, brought to
        integers c over one common denominator Q, as (Q, c)."""
        facets = self.polyhedron.compact_facets
        ratios = [atom.mass / f.support for atom, f in zip(self.lelong_measure().atoms, facets)]
        common, (coefficients,) = integer_scaling([ratios])
        return common, coefficients

    def _aggregate(self, least, scale) -> Fraction:
        """Sum over atoms of mass * least / (scale * h), for per-atom
        integers ``least`` in atom order: sum c * least over Q * scale.

        A psh u with integer points P_j = L b_j has the number
        min_j <P_j, w> / (L h) at the atom of the facet (w, h), so its
        aggregate is this with least = u._least(w) and scale = L.
        """
        common, coefficients = self._mass_over_support
        return Fraction(sum(map(mul, coefficients, least)), common * scale)

    @cached_property
    def _axis_aggregates(self) -> tuple[Fraction, ...]:
        """Per axis k, the sum over atoms of mass * -t_k: the aggregate of
        the axis probe e_k against the measure, whose number at the atom
        of the facet (w, h) is w_k / h."""
        columns = zip(*(f.normal for f in self.polyhedron.compact_facets))
        return tuple(self._aggregate(column, 1) for column in columns)

    def extremal_direction(self) -> "DirectionalWeight":
        """The barycenter a of the normalized measure: a_k is the axis
        aggregate over the residual mass. The simplicial weight it
        defines is the extremal upper-envelope singularity."""
        tau = self.residual_mass()
        return DirectionalWeight(tuple(c / tau for c in self._axis_aggregates))

    def is_flat(self) -> bool:
        """True iff the polyhedron has a single compact facet, i.e. the
        model is simplicial and its normalized aggregates equal types."""
        return len(self.polyhedron.compact_facets) == 1

    def flatness_witness(self) -> HomogeneousPsh | None:
        """The first axis probe e_k whose normalized aggregate exceeds its
        relative type, or None when the weight is flat.

        Against e_k the number at the atom t is -t_k, so the normalized
        aggregate is the mass-weighted mean of -t_k and the relative type
        its minimum. The masses are positive, so the mean exceeds the
        minimum exactly on the axes where the atoms' coordinates differ;
        distinct atoms differ on some axis, and a flat weight has one atom.
        """
        atoms = self.lelong_measure().atoms
        for k in range(self.dimension):
            if len({atom.vertex[k] for atom in atoms}) > 1:
                return HomogeneousPsh([tuple(int(i == k) for i in range(self.dimension))])
        return None

    def lojasiewicz_exponent(self) -> Fraction:
        """Largest axis intercept of the polyhedron; finite by validity."""
        return max(self.generators.intercepts)


class DirectionalWeight(MonomialWeight):
    """Simplicial weight with generators e_k / a_k for a positive a.

    Its polyhedron has the single compact facet through the points
    e_k / a_k, the measure is one atom at -a with mass 1/(a_1...a_n),
    and the weight is flat.
    """

    def __init__(self, direction):
        d = self.direction = positive_direction(direction)
        n = len(d)
        super().__init__(
            exponent_set(tuple(1 / d[k] if i == k else 0 for i in range(n)) for k in range(n))
        )


def _check_pair(u: HomogeneousPsh, phi: MonomialWeight):
    if not isinstance(phi, MonomialWeight):
        raise NotPrimaryError("the second argument must be a MonomialWeight")
    if u.dimension != phi.dimension:
        raise InvalidInputError(
            f"dimension mismatch: {u.dimension} versus {phi.dimension}"
        )


def generalized_lelong(u: HomogeneousPsh, phi: MonomialWeight, normalized: bool = False):
    """Aggregate of u's directional numbers against phi's measure.

    Sum over atoms (t, mass) of mass * min_j <b_j, -t>; with
    ``normalized`` the result is divided by phi's residual mass.
    """
    _check_pair(u, phi)
    least = [u._least(f.normal) for f in phi.polyhedron.compact_facets]
    total = phi._aggregate(least, u.generators.scale)
    if normalized:
        return total / phi.residual_mass()
    return total


def relative_type(u: HomogeneousPsh, phi: MonomialWeight) -> Fraction:
    """min over atoms t of min_j <b_j, -t>: at the atom of the facet
    (w, h), u._least(w) / (L h) for u's scale L.

    The minimum over the whole level set {f_phi = -1} is attained at its
    extreme points because the objective is nondecreasing along the
    recession cone; the numeric oracle cross-checks this reduction.
    """
    _check_pair(u, phi)
    scale = u.generators.scale
    return min(
        Fraction(u._least(f.normal) * f.support.denominator, scale * f.support.numerator)
        for f in phi.polyhedron.compact_facets
    )
