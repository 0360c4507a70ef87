"""The product identity: the invariants of a join of weights.

For weights phi_1, ..., phi_r whose generators are placed side by side in
disjoint coordinates (``reference.join``; for ideals, their sum in
disjoint variables), the compact facets of the join are the joins of one
compact facet of each factor, and a simplex of the cone over such a face
has a block-diagonal determinant. So the residual mass is the product of
the factors', the measure is the product measure (the atom at
(t_1, ..., t_r) has mass m_1 ... m_r), the extremal direction is the
concatenation of the factors', the join is flat iff every factor is, its
Lojasiewicz exponent is the largest of the factors', its facet count is
the product of theirs, and the Samuel multiplicity of a sum of primary
ideals in disjoint variables is the product of theirs.

The join of plane factors runs the double description, the pulling
triangulation and the determinants at n = 4..6, while each plane factor
is checked on its own against the staircase oracle, which shares no code
with them.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelong.ideals import PrimaryMonomialIdeal, samuel_multiplicity
from lelong.oracles import covolume_staircase_2d
from lelong.weights import MonomialWeight

from reference import join
from support import random_primary_ideal, random_weight, unit, vertex_rich

FACTOR_DIMENSIONS = [(2, 2), (2, 2, 2), (2, 3), (3, 3), (2, 4)]


def _atoms(phi):
    return sorted(phi.lelong_measure().atoms)


def _assert_product_identity(factors):
    """Every invariant of the join of the weights ``factors`` is the one
    the factors' invariants give, and each plane factor's residual mass is
    twice its staircase covolume."""
    phi = MonomialWeight(join(*(f.generators for f in factors)))
    assert phi.residual_mass() == math.prod(f.residual_mass() for f in factors)
    product_measure = [
        (sum((a.vertex for a in atoms), ()), math.prod(a.mass for a in atoms))
        for atoms in product(*map(_atoms, factors))
    ]
    assert _atoms(phi) == sorted(product_measure)
    assert phi.extremal_direction().direction == sum(
        (f.extremal_direction().direction for f in factors), ()
    )
    assert phi.is_flat() == all(f.is_flat() for f in factors)
    assert phi.lojasiewicz_exponent() == max(f.lojasiewicz_exponent() for f in factors)
    count = len(phi.polyhedron.compact_facets)
    assert count == math.prod(len(f.polyhedron.compact_facets) for f in factors)
    for f in factors:
        if f.dimension == 2:
            assert f.residual_mass() == 2 * covolume_staircase_2d(f.generators)
    return phi


@pytest.mark.parametrize("dims", FACTOR_DIMENSIONS, ids=str)
def test_seeded_joins(dims):
    # A flat weight takes the hull's closed form, so the floors keep the
    # double description in the draws: eight non-flat joins, at n = 4..6,
    # and five non-flat factors of each dimension 3 or 4.
    rng = random.Random(600 + sum(d * 10**k for k, d in enumerate(dims)))
    nonflat = 0
    solid = {d: 0 for d in dims if d > 2}
    for _ in range(24):
        factors = [random_weight(rng, d, max_exp=16) for d in dims]
        nonflat += not _assert_product_identity(factors).is_flat()
        for f in factors:
            if f.dimension > 2:
                solid[f.dimension] += not f.is_flat()
    assert nonflat >= 8 and all(count >= 5 for count in solid.values()), (nonflat, solid)


@pytest.mark.parametrize("m, facets", [(4, 64), (6, 216), (8, 512)])
def test_vertex_rich_plane_cubed(m, facets):
    plane = MonomialWeight(vertex_rich(2, m))
    phi = _assert_product_identity([plane] * 3)
    assert len(phi.polyhedron.compact_facets) == facets
    assert phi.residual_mass() == plane.residual_mass() ** 3


@pytest.mark.parametrize("sizes, facets", [(((3, 5), (2, 6)), 150), (((4, 3), (2, 5)), 75)])
def test_vertex_rich_joins(sizes, facets):
    # The join with the (4, 3) factor pairs degenerate rays, so its hull
    # takes the adjacency scan.
    phi = _assert_product_identity([MonomialWeight(vertex_rich(n, m)) for n, m in sizes])
    assert len(phi.polyhedron.compact_facets) == facets


def test_collinear_staircases():
    # (4, 1) and (2, 2) lie inside the edge from (6, 0) to (0, 3), and
    # (1, 1, 1) inside the facet of the 3-D simplex: generators that are
    # not vertices lie on the join's compact facets.
    plane = MonomialWeight([(6, 0), (4, 1), (2, 2), (0, 3)])
    solid = MonomialWeight([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
    for factors in ([plane, plane], [plane, solid], [plane, plane, plane]):
        phi = _assert_product_identity(factors)
        assert len(phi.polyhedron.vertices) < len(phi.generators)


@pytest.mark.parametrize("dims", FACTOR_DIMENSIONS, ids=str)
def test_samuel_multiplicity_of_a_sum_in_disjoint_variables(dims):
    rng = random.Random(620 + sum(d * 10**k for k, d in enumerate(dims)))
    for _ in range(6):
        factors = [random_primary_ideal(rng, d) for d in dims]
        total = PrimaryMonomialIdeal(join(*(i.generators for i in factors)))
        assert samuel_multiplicity(total) == math.prod(map(samuel_multiplicity, factors))


@st.composite
def plane_weights(draw):
    """A plane weight: both pure powers, a few extras, and often a run of
    collinear points on a segment between two of them, so that
    generators that are not vertices lie on compact facets."""
    entry = st.integers(1, 12)
    gens = [unit(2, 0, draw(entry)), unit(2, 1, draw(entry))]
    gens += draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=3))
    a, b = draw(st.sampled_from([(gens[0], gens[1]), *((gens[0], g) for g in gens[2:])]))
    steps = draw(st.integers(0, 4))
    gens += [
        tuple(Fraction(x * (steps + 1 - s) + y * s, steps + 1) for x, y in zip(a, b))
        for s in range(1, steps + 1)
    ]
    return MonomialWeight([g for g in gens if any(g)])


@settings(max_examples=60, deadline=None)
@given(st.lists(plane_weights(), min_size=2, max_size=3))
def test_joins_of_plane_weights_property(factors):
    _assert_product_identity(factors)
