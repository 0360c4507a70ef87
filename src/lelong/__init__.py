"""Exact invariants of monomial plurisubharmonic singularities.

The kernel works with piecewise-linear homogeneous models
``max_j <b_j, t>`` of monomial singularities ``max_j log|z^(b_j)|``.
All core quantities are read off the Newton polyhedron of the exponent
set in exact rational arithmetic: residual Monge-Ampere masses, the
atomic measure carried by the extreme points of the level set
``{f = -1}``, directional and generalized Lelong numbers, relative
types, extremal simplicial directions, flatness, Lojasiewicz exponents,
and the multiplicity theory of monomial ideals built on top of them.

Floating point appears in three places: :mod:`lelong.oracles`, which
re-derives selected values by independent means (staircase sums, Monte
Carlo, Minkowski polarization, direct liminf sampling) for verification;
:mod:`lelong.render`, which draws its SVG in floats; and
``HomogeneousPsh.evaluate``, which takes the float -inf as a coordinate
and returns it when every term is -inf.
"""

from .errors import InvalidInputError, LelongError, NotPrimaryError
from .geometry import cone_point_member
from .newton import Facet, NewtonPolyhedron
from .weights import (
    DirectionalWeight,
    HomogeneousPsh,
    LelongAtom,
    LelongMeasure,
    MonomialWeight,
    generalized_lelong,
    relative_type,
)
from .ideals import (
    ContainmentReport,
    GeneratorContainment,
    MonomialIdeal,
    PrimaryMonomialIdeal,
    axis_multiplicities,
    closure_containment_check,
    containment_exponents,
    minimal_multiplicity,
    mixed_multiplicity,
    samuel_multiplicity,
)

__version__ = "0.1.0"

__all__ = [
    "ContainmentReport",
    "DirectionalWeight",
    "Facet",
    "GeneratorContainment",
    "HomogeneousPsh",
    "InvalidInputError",
    "LelongAtom",
    "LelongError",
    "LelongMeasure",
    "MonomialIdeal",
    "MonomialWeight",
    "NewtonPolyhedron",
    "NotPrimaryError",
    "PrimaryMonomialIdeal",
    "axis_multiplicities",
    "closure_containment_check",
    "cone_point_member",
    "containment_exponents",
    "generalized_lelong",
    "minimal_multiplicity",
    "mixed_multiplicity",
    "relative_type",
    "samuel_multiplicity",
]
