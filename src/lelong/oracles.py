"""Independent verification paths for the exact kernel.

Each oracle recomputes a kernel quantity by different means: an exact
2-D staircase sum for covolumes, seeded Monte Carlo volume estimates
whose every sample is an int vector in the checked set's intercept box,
decided exactly by the integer membership LP of ``linprog`` on the
checked generators (no kernel code, not even the vertex reduction), and
polarization over Minkowski sums, each the polyhedron of the pairwise
sums of the two ideals' generators, for mixed multiplicities.
The Monte Carlo estimate reports a value and its standard error; it
never feeds back into exact results. Its sample count and seed must be
ints; anything else is an InvalidInputError. So is a sample box whose
volume a float cannot hold: exact values become floats through
``_float``, which rejects one past the float range.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .errors import InvalidInputError, NotPrimaryError
from .ideals import PrimaryMonomialIdeal
from .linprog import _check_ints, _feasible
from .newton import NewtonPolyhedron
from .rationals import exponent_set
from .weights import MonomialWeight


def covolume_staircase_2d(generators) -> Fraction:
    """Exact 2-D covolume as a trapezoid sum under the staircase.

    Independent of the facet machinery: in one pass over the sorted set,
    keeps the Pareto-minimal points and takes their lower hull by a
    monotone chain, then integrates the resulting piecewise-linear
    boundary between the two axis intercepts.
    The kernel's plane path (``newton._plane_rays``) takes a monotone
    chain too, but shares no code with this one: it runs on the integer
    points and reads dual rays, and its rays are checked against the
    double description's in the tests.
    """
    pts = exponent_set(generators)
    if len(pts[0]) != 2:
        raise InvalidInputError("the staircase oracle is for dimension 2")
    for k in range(2):
        if not any(p[k] > 0 and p[1 - k] == 0 for p in pts):
            raise NotPrimaryError(f"no pure power on axis {k}")
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        # The set is sorted, so p is Pareto-minimal iff it is lower than
        # every point before it, and the last point kept is the lowest.
        if hull and p[1] >= hull[-1][1]:
            continue
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    area = Fraction(0)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        area += (x1 - x0) * (y0 + y1) / 2
    return area


def _float(name, value):
    """float(value) for an exact value, or InvalidInputError when the
    value is past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise InvalidInputError(f"{name} is too large for a float") from None


def _check_sampling(samples, seed):
    """Int samples, at least 1000 of them, and an int seed >= 0."""
    for name, value in (("samples", samples), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if samples < 1000:
        raise InvalidInputError("need at least 1000 samples")
    if seed < 0:
        raise InvalidInputError("seed must be nonnegative")


class McEstimate(namedtuple("McEstimate", "value standard_error samples seed")):
    """Seeded Monte Carlo estimate with its standard error."""

    __slots__ = ()


def covolume_monte_carlo(poly: NewtonPolyhedron, samples: int, seed: int) -> McEstimate:
    """Estimate the covolume by uniform sampling in the box of the checked
    set's intercepts (all 0 when the zero vector is a generator).

    Membership is decided by the LP of ``linprog.feasible`` on the checked
    generators, not the kernel's vertices, so the indicator is exact and
    independent of the vertex reduction. A sample is k / 2^53 of the box
    side per coordinate, k = getrandbits(53) of random.Random(seed), so
    scaled by 2^53 L it is the int vector k * (L box) >= 0, tested against
    the integer points shifted left by 53 bits. A box volume past the
    float range is rejected first. ``standard_error`` is
    the plug-in binomial SE, 0 when no sample falls outside (as is usual
    at n = 6), where a within-k-SE check says nothing.
    """
    _check_sampling(samples, seed)
    gens = poly.generators
    if gens.unreached:
        raise NotPrimaryError("covolume is infinite: some axis is never reached")
    box_volume = _float("the sample box volume", math.prod(gens.intercepts))
    top = [int(m * gens.scale) for m in gens.intercepts]
    columns = [[c << 53 for c in point] for point in gens.points]
    _check_ints(columns)
    rng = random.Random(seed)
    draws = ([rng.getrandbits(53) * m for m in top] for _ in range(samples))
    outside = sum(not _feasible(columns, x) for x in draws)
    p = outside / samples
    std = math.sqrt(p * (1 - p) * samples / (samples - 1))
    return McEstimate(box_volume * p, box_volume * std / math.sqrt(samples), samples, seed)


def _slope_at_zero(values):
    """T'(0) for the polynomial T of degree len(values) - 1 with
    T(t) = values[t], from the forward differences of the values:
    T'(0) = sum_{k >= 1} (-1)^(k-1) Delta^k T(0) / k."""
    slope = Fraction(0)
    diffs = list(values)
    for k in range(1, len(values)):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        slope += Fraction((-1) ** (k - 1) * diffs[0], k)
    return slope


def mixed_multiplicity_polarization(
    j: PrimaryMonomialIdeal, i: PrimaryMonomialIdeal
) -> Fraction:
    """Mixed multiplicity via dilated Minkowski sums.

    Evaluates T(t) = n! covol(Gamma_i + t Gamma_j) at t = 0..n: T(0) is the
    residual mass of i's weight, and for t >= 1, Gamma_i + t Gamma_j is the
    Newton polyhedron of the sums a + t b over the int generators a of i
    and b of j, so T(t) is the residual mass of the weight on those sums.
    Takes the exact slope of the degree-n polynomial at t = 0 from their
    forward differences, and returns it over n. Entirely disjoint from the
    measure aggregation path.
    """
    if not isinstance(j, PrimaryMonomialIdeal) or not isinstance(i, PrimaryMonomialIdeal):
        raise NotPrimaryError("polarization needs two primary ideals")
    if j.dimension != i.dimension:
        raise InvalidInputError("ideals have different dimensions")
    n = i.dimension
    values = [i.weight.residual_mass()]
    for t in range(1, n + 1):
        sums = [tuple(a + t * b for a, b in zip(p, q)) for p in i.generators for q in j.generators]
        values.append(MonomialWeight(sums).residual_mass())
    return _slope_at_zero(values) / n
