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
axes, the Lojasiewicz exponent its pure-power record and the aggregates
its integer points, so none is derived again and the set's Fraction
vectors are never built. The measure layer reads the polyhedron's int
rows (w, t), normal w and support h = t/L, and never its Facet records.
The work is integer throughout, and each returned value is one
Fraction, with none built before it and one per distinct value: each
atom's vertex coordinate -w_k/h = -w_k L/t is built from the ints
without a division, once per distinct (w_k, t), and each mass once per
distinct cone total; the atoms that share a value share the Fraction.
Each pairing with the measure is written once and computed once per
(psh, weight): a psh keeps its least values on the last weight's facet
normals, so the aggregate, the normalized aggregate, the type and the
mixed multiplicity of one pair share them. A psh's least value
min_j <P_j, a> over its integer points P_j = L b_j, over L, is its
directional number at a; with a = w and over L h, it is the psh's number
at the atom of the facet (w, h), and the type is the least of those
numbers, compared cross-multiplied. The aggregate brings the atoms'
ratios mass/h to integers c over their least common denominator Q,
computed in ints from the cone totals and the unreduced supports t/L,
so each aggregate is one integer sum S over Q L (``_aggregate_parts``),
and divided by the residual mass tau it is S tau.den over Q L tau.num;
the axis aggregates are those of the probes e_k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .errors import InvalidInputError, NotPrimaryError
from .newton import NewtonPolyhedron
from .rationals import _ExponentSet, exponent_set, lazy, positive_direction, vector

NEG_INFINITY = float("-inf")


class HomogeneousPsh:
    """Maximum of linear forms with nonnegative rational exponents.

    Instances are immutable value objects; every derived quantity is
    cached on first use, and the pairing with a weight is kept for the
    last weight paired.
    """

    def __init__(self, generators):
        self.generators = exponent_set(generators)
        self.dimension = len(self.generators.points[0])
        self._pairing = None, ()

    @lazy
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

    def _least_on(self, phi):
        """The list of ``_least(w)`` over the facet rows (w, t) of the
        weight ``phi``, in row order.

        It is kept for the last weight paired, in one slot keyed by that
        weight's identity: the slot holds the weight itself, so the
        identity cannot pass to another object while the list is kept, and
        a psh paired with many weights holds one list. The slot is one
        tuple, read and replaced whole, so threads that share a psh may
        compute a pairing twice but never read a list with another weight.
        """
        weight, least = self._pairing
        if weight is not phi:
            least = [self._least(w) for w, _ in phi.polyhedron._facet_rows]
            self._pairing = phi, least
        return least

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

    @lazy
    def _residual_mass(self) -> Fraction:
        # n! times the covolume: the int sum of the cone totals over L^n.
        poly = self.polyhedron
        return Fraction(sum(poly._facet_cone_volumes), poly.generators.scale**self.dimension)

    def residual_mass(self) -> Fraction:
        """Total mass of the measure; n! times the covolume. Positive."""
        return self._residual_mass

    @lazy
    def _measure(self) -> LelongMeasure:
        poly = self.polyhedron
        scale = poly.generators.scale
        # n! times the cone volume: the int total over L^n.
        denominator = scale**self.dimension
        # One Fraction per distinct value: the coordinate -w_k/h = -w_k L/t
        # keyed by (w_k, t), and the mass keyed by its cone total.
        coordinates, masses, atoms = {}, {}, []
        for (w, t), total in zip(poly._facet_rows, poly._facet_cone_volumes):
            vertex = []
            for c in w:
                x = coordinates.get((c, t))
                if x is None:
                    x = coordinates[c, t] = Fraction(-c * scale, t)
                vertex.append(x)
            mass = masses.get(total)
            if mass is None:
                mass = masses[total] = Fraction(total, denominator)
            atoms.append(LelongAtom(tuple(vertex), mass))
        return LelongMeasure(tuple(atoms))

    def lelong_measure(self) -> LelongMeasure:
        """One atom per compact facet with normal w and support h: the
        extreme point -w/h of {f = -1} weighted by n! times the volume of
        the cone over the facet."""
        return self._measure

    @lazy
    def _mass_over_support(self) -> tuple[int, tuple[int, ...]]:
        """The ratios mass / h of the atoms, in atom order, brought to
        integers c over their least common denominator Q, as (Q, c).

        With the cone total T, the mass is T / L^n, and for the support
        h = t/L, not reduced, the ratio is T / (L^(n-1) t); over
        D = L^(n-1) lcm(t) it is c = T lcm(t)/t. Dividing D and every c by
        their gcd leaves the least common denominator, as for the ratios'
        own denominators.
        """
        poly = self.polyhedron
        supports = [t for _, t in poly._facet_rows]
        top = math.lcm(*supports)
        coefficients = [total * (top // t) for total, t in zip(poly._facet_cone_volumes, supports)]
        common = poly.generators.scale ** (self.dimension - 1) * top
        g = math.gcd(common, *coefficients)
        return common // g, tuple(c // g for c in coefficients)

    def _aggregate_parts(self, least, scale) -> tuple[int, int]:
        """Sum over atoms of mass * least / (scale * h), for per-atom
        integers ``least`` in atom order, as the unreduced int pair
        (sum c * least, Q * scale).

        A psh u with integer points P_j = L b_j has the number
        min_j <P_j, w> / (L h) at the atom of the facet (w, h), so its
        aggregate is this with least = u._least_on(self) and scale = L;
        the axis probe e_k has least = the w_k of the rows and scale = 1.
        """
        common, coefficients = self._mass_over_support
        return sum(map(mul, coefficients, least)), common * scale

    def _aggregate(self, least, scale, tau=None) -> Fraction:
        """``_aggregate_parts`` as one Fraction, over ``tau`` too when given."""
        total, common = self._aggregate_parts(least, scale)
        if tau is None:
            return Fraction(total, common)
        return Fraction(total * tau.denominator, common * tau.numerator)

    def extremal_direction(self) -> "DirectionalWeight":
        """The barycenter a of the normalized measure: a_k is the axis
        aggregate over the residual mass. The simplicial weight it
        defines is the extremal upper-envelope singularity."""
        tau = self.residual_mass()
        columns = zip(*(w for w, _ in self.polyhedron._facet_rows))
        return DirectionalWeight(tuple(self._aggregate(column, 1, tau) for column in columns))

    def is_flat(self) -> bool:
        """True iff the polyhedron has a single compact facet, i.e. the
        model is simplicial and its normalized aggregates equal types."""
        return len(self.polyhedron._facet_rows) == 1

    def flatness_witness(self) -> HomogeneousPsh | None:
        """The first axis probe e_k whose normalized aggregate exceeds its
        relative type, or None when the weight is flat.

        Against e_k the number at the atom t is -t_k, so the normalized
        aggregate is the mass-weighted mean of -t_k and the relative type
        its minimum. The masses are positive, so the mean exceeds the
        minimum exactly on the axes where the atoms' coordinates differ;
        distinct atoms differ on some axis, and a flat weight has one atom.
        """
        first, *rest = (atom.vertex for atom in self.lelong_measure().atoms)
        for k in range(self.dimension):
            if any(t[k] != first[k] for t in rest):
                probe = tuple(int(i == k) for i in range(self.dimension))
                return HomogeneousPsh(_ExponentSet(1, [probe]))
        return None

    def lojasiewicz_exponent(self) -> Fraction:
        """Largest axis intercept of the polyhedron; finite by validity:
        the largest M_k over the least pure powers M_k e_k, over L."""
        gens = self.generators
        top = max(gens.points[i][k] for k, i in enumerate(gens.pure_powers))
        return Fraction(top, gens.scale)


class DirectionalWeight(MonomialWeight):
    """Simplicial weight with generators e_k / a_k for a positive a.

    Its polyhedron has the single compact facet through the points
    e_k / a_k, the measure is one atom at -a with mass 1/(a_1...a_n),
    and the weight is flat.
    """

    def __init__(self, direction):
        d = self.direction = positive_direction(direction)
        n = len(d)
        # For a_k = p_k/q_k the lcm of the denominators of the q_k/p_k is
        # L = lcm(p_k), and the integer points are (L/p_k) q_k e_k.
        scale = math.lcm(*(a.numerator for a in d))
        points = [
            tuple(scale // a.numerator * a.denominator if i == k else 0 for i in range(n))
            for k, a in enumerate(d)
        ]
        super().__init__(_ExponentSet(scale, points))


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
    tau = phi.residual_mass() if normalized else None
    return phi._aggregate(u._least_on(phi), u.generators.scale, tau)


def relative_type(u: HomogeneousPsh, phi: MonomialWeight) -> Fraction:
    """min over atoms t of min_j <b_j, -t>: at the atom of the facet
    (w, h), u._least(w) / (L h) for u's scale L.

    The minimum over the whole level set {f_phi = -1} is attained at its
    extreme points because the objective is nondecreasing along the
    recession cone; the float oracle ``relative_type_numeric`` of
    ``tests/float_oracles.py`` cross-checks this reduction.
    """
    _check_pair(u, phi)
    scale = phi.generators.scale
    best = None
    for (_, t), least in zip(phi.polyhedron._facet_rows, u._least_on(phi)):
        # u._least(w) L_phi / t for the support h = t/L_phi, compared cross-multiplied.
        num = least * scale
        if best is None or num * best[1] < best[0] * t:
            best = num, t
    return Fraction(best[0], best[1] * u.generators.scale)
