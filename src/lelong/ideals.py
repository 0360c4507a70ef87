"""Monomial ideals: Samuel and mixed multiplicities, containment reports.

A monomial ideal is a finite set of integer exponent vectors; an ideal
containing a pure power of every variable has finite colength and its
multiplicity theory is carried entirely by the weight max_j log|z^(g_j)|.
Mixed multiplicities are computed through the measure aggregation path
(one code path, verified independently by the Minkowski polarization
oracle). An ideal builds its psh and weight on its checked exponent
set, whose integer points (lcm L = 1) are its int generators and whose
record of unreached axes its pure-power check reads; the set's Fraction
vectors are never built. Multiplicities are ints, read off the weight's
integer aggregates, and a containment report takes its exponents from
``containment_exponents``, so the rule ceil(p / e_k) is written once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import InvalidInputError, NotPrimaryError
from .weights import HomogeneousPsh, MonomialWeight, generalized_lelong
from .rationals import exponent_set, format_rational


def _as_int(value: Fraction, what: str) -> int:
    """``value``, a multiplicity, as an int. It is one; the guard stays so
    that a kernel fault raises instead of surfacing as a wrong integer."""
    if value.denominator != 1:
        raise AssertionError(f"{what} must be an integer, got {value}")
    return int(value)


class MonomialIdeal:
    """Finite set of integer exponent vectors, deduplicated and sorted."""

    def __init__(self, generators):
        vecs = self._exponents = exponent_set(generators)
        if vecs.scale != 1:
            v = next(v for v in vecs if any(c.denominator != 1 for c in v))
            got = ", ".join(map(format_rational, v))
            raise InvalidInputError(f"ideal exponents must be integers, got ({got})")
        self.dimension = len(vecs.points[0])
        self.generators = vecs.points

    @cached_property
    def psh(self) -> HomogeneousPsh:
        return HomogeneousPsh(self._exponents)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.generators)!r})"


class PrimaryMonomialIdeal(MonomialIdeal):
    """A monomial ideal with a pure power of every variable (and no unit)."""

    def __init__(self, generators):
        super().__init__(generators)
        vecs = self._exponents
        if not any(vecs.points[0]):
            raise NotPrimaryError("the ideal contains a unit")
        if vecs.unreached:
            raise NotPrimaryError(f"no pure power of variable {vecs.unreached[0]}")

    @cached_property
    def weight(self) -> MonomialWeight:
        return MonomialWeight(self._exponents)


def _require_primary(ideal, message):
    if not isinstance(ideal, PrimaryMonomialIdeal):
        raise NotPrimaryError(message)


def samuel_multiplicity(ideal: PrimaryMonomialIdeal) -> int:
    """Residual mass of the associated weight; a positive integer. Both
    guards stay, so that a kernel fault raises, not a wrong integer."""
    _require_primary(ideal, "Samuel multiplicity needs a primary ideal")
    e = _as_int(ideal.weight.residual_mass(), "Samuel multiplicity")
    if e <= 0:
        raise AssertionError("Samuel multiplicity must be positive")
    return e


def mixed_multiplicity(j: MonomialIdeal, i: PrimaryMonomialIdeal) -> int:
    """Multiplicity of j against n-1 copies of i, via the measure of i."""
    _require_primary(i, "mixed multiplicity needs a primary second ideal")
    if j.dimension != i.dimension:
        raise InvalidInputError("ideals have different dimensions")
    return _as_int(generalized_lelong(j.psh, i.weight), "mixed multiplicity")


def minimal_multiplicity(j: MonomialIdeal) -> int:
    """Least total degree of a generator; equals the mixed multiplicity
    against the maximal ideal."""
    return min(sum(g) for g in j.generators)


def axis_multiplicities(i: PrimaryMonomialIdeal) -> tuple[int, ...]:
    """Mixed multiplicity of each coordinate ideal (z_k) against i: the
    axis aggregates of i's weight, sum over atoms of mass * -t_k."""
    _require_primary(i, "mixed multiplicity needs a primary second ideal")
    return tuple(_as_int(c, "mixed multiplicity") for c in i.weight._axis_aggregates)


def containment_exponents(i: PrimaryMonomialIdeal, p: int) -> tuple[int, ...]:
    """Per axis, the least integer q with p/q at most the axis multiplicity."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise InvalidInputError("p must be a positive integer")
    return tuple(-(-p // e) for e in axis_multiplicities(i))


class GeneratorContainment(
    namedtuple("GeneratorContainment", "exponent axis_bound closure_member literal_member")
):
    """One generator's exponent (a tuple of ints) and its three containment
    flags, as described in ContainmentReport."""

    __slots__ = ()


class ContainmentReport(
    namedtuple(
        "ContainmentReport",
        "p mixed_multiplicity hypothesis axis_multiplicities exponents generators",
    )
):
    """Per-generator containment facts for (j, i, p).

    ``hypothesis`` records whether the mixed multiplicity of j against i
    reaches p. When it does, ``axis_bound`` holds for every generator
    (sum_k beta_k e_k >= p follows from linearity of the aggregate in a
    principal probe). ``closure_member`` tests beta against the hull of
    the integer points p_k e_k and ``literal_member`` tests a literal
    single-power domination; neither is implied by the hypothesis, the
    report only states them.
    """

    __slots__ = ()

    @property
    def all_axis_bound(self) -> bool:
        return all(g.axis_bound for g in self.generators)

    @property
    def all_closure(self) -> bool:
        return all(g.closure_member for g in self.generators)

    @property
    def all_literal(self) -> bool:
        return all(g.literal_member for g in self.generators)


def closure_containment_check(
    j: MonomialIdeal, i: PrimaryMonomialIdeal, p: int
) -> ContainmentReport:
    """Assemble the containment report for (j, i, p) from the axis
    multiplicities e_k and the exponents of ``containment_exponents``."""
    p_k = containment_exponents(i, p)
    e_axes = axis_multiplicities(i)
    e = mixed_multiplicity(j, i)
    # sum_k beta_k / p_k >= 1, times M = lcm(p_k).
    m = math.lcm(*p_k)
    steps = [m // q for q in p_k]
    rows = []
    for beta in j.generators:
        axis_bound = sum(b * ek for b, ek in zip(beta, e_axes)) >= p
        closure = sum(map(mul, beta, steps)) >= m
        literal = any(b >= q for b, q in zip(beta, p_k))
        rows.append(GeneratorContainment(beta, axis_bound, closure, literal))
    return ContainmentReport(
        p=p,
        mixed_multiplicity=e,
        hypothesis=e >= p,
        axis_multiplicities=e_axes,
        exponents=p_k,
        generators=tuple(rows),
    )
