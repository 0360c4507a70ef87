"""Singularity invariants of homogeneous models and monomial weights."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelong.errors import InvalidInputError, NotPrimaryError
from lelong.geometry import cone_point_member
from lelong.ideals import (
    MonomialIdeal,
    PrimaryMonomialIdeal,
    axis_multiplicities,
    closure_containment_check,
    mixed_multiplicity,
    samuel_multiplicity,
)
from lelong.newton import NewtonPolyhedron
from lelong.oracles import covolume_staircase_2d
from lelong.rationals import exponent_set, positive_direction
from lelong.weights import (
    DirectionalWeight,
    HomogeneousPsh,
    MonomialWeight,
    generalized_lelong,
    relative_type,
)

from reference import fraction_evaluate, join, polytope_volume
from support import (
    ASTAR,
    random_direction,
    random_ideal,
    random_primary_ideal,
    random_psh,
    random_rational,
    random_weight,
    unit,
    vertex_rich,
)

PHI_STAR = MonomialWeight(ASTAR)
M2 = MonomialWeight([(1, 0), (0, 1)])
# The vertex-rich sizes of the benchmark's vertex_rich workload.
VERTEX_RICH_SIZES = [(2, 32), (3, 5), (3, 6), (4, 3), (5, 2)]


def F(*args):
    return tuple(Fraction(a) for a in args)


class TestValidation:
    def test_missing_axis_power(self):
        with pytest.raises(NotPrimaryError):
            MonomialWeight([(2, 0), (1, 1)])

    def test_zero_generator(self):
        with pytest.raises(NotPrimaryError):
            MonomialWeight([(0, 0), (1, 0), (0, 1)])

    def test_rational_pure_powers_accepted(self):
        w = MonomialWeight([(Fraction(1, 2), 0), (0, Fraction(3, 4))])
        assert w.residual_mass() == Fraction(1, 2) * Fraction(3, 4)

    def test_empty(self):
        with pytest.raises(InvalidInputError):
            HomogeneousPsh([])

    @pytest.mark.parametrize(
        "generators, message",
        [
            ([(0, 0), (1, 0), (0, 1)], "a zero exponent vector forces zero residual mass"),
            ([(2, 0), (1, 1)], "no pure power on axis 1"),
            ([(0, 1, 0), (1, 1, 1)], "no pure power on axis 0"),
            ([(1, 0, 0), (0, 1, 0), (0, 1, 1)], "no pure power on axis 2"),
        ],
    )
    def test_messages(self, generators, message):
        with pytest.raises(NotPrimaryError) as info:
            MonomialWeight(generators)
        assert str(info.value) == message


@pytest.mark.parametrize("cls", [HomogeneousPsh, NewtonPolyhedron, MonomialIdeal])
def test_exponent_set_rule(cls):
    with pytest.raises(InvalidInputError, match="at least one generator is required"):
        cls([])
    with pytest.raises(InvalidInputError, match="generators mix dimensions"):
        cls([(1, 0), (0, 1, 0)])
    assert cls([(2, 0), (0, 1), (2, 0), (1, 1)]).generators == ((0, 1), (1, 1), (2, 0))


@pytest.mark.parametrize("cls", [HomogeneousPsh, NewtonPolyhedron, MonomialIdeal])
def test_plain_tuple_is_checked_in_full(cls):
    # Shaped like a checked set (sorted, deduplicated Fraction vectors),
    # but a plain tuple: it gets every check.
    negative = ((Fraction(-1), Fraction(2)), (Fraction(0), Fraction(1)))
    with pytest.raises(InvalidInputError, match="exponents must be nonnegative"):
        cls(negative)
    mixed = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(0)))
    with pytest.raises(InvalidInputError, match="generators mix dimensions"):
        cls(mixed)


def test_exponent_set_dedupes_and_sorts_across_denominators():
    half = ["1/2", "2/4", Fraction(1, 2)]
    vectors = [(h, "3/6") for h in half] + [(1, "1/3"), ("6/4", 0), ("3/2", "0/5"), (0, 2)]
    got = exponent_set(vectors)
    assert got == ((0, 2), (Fraction(1, 2), Fraction(1, 2)), (1, Fraction(1, 3)), (Fraction(3, 2), 0))
    parsed = [tuple(Fraction(c) for c in v) for v in vectors]
    assert got == tuple(sorted(set(parsed)))
    assert _all_fractions(got)
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(2, 6)
        vecs = [
            tuple(Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n))
            for _ in range(rng.randint(1, 12))
        ]
        vecs += rng.sample(vecs, rng.randint(0, len(vecs)))
        assert exponent_set([tuple(map(str, v)) for v in vecs]) == tuple(sorted(set(vecs)))


def test_checked_set_is_returned_as_is():
    checked = exponent_set(ASTAR)
    assert exponent_set(checked) is checked
    plain = tuple(checked)
    assert exponent_set(plain) == checked and exponent_set(plain) is not plain


def _all_fractions(generators):
    return all(type(c) is Fraction for g in generators for c in g)


def test_derived_objects_match_public_construction():
    rng = random.Random(40)
    for n in range(2, 7):
        for _ in range(6):
            gens = random_primary_ideal(rng, n).generators
            psh, weight = HomogeneousPsh(gens), MonomialWeight(gens)
            extremal = weight.extremal_direction()
            axes = [unit(n, k, 1 / c) for k, c in enumerate(extremal.direction)]
            derived = [
                (MonomialIdeal(gens).psh, psh),
                (PrimaryMonomialIdeal(gens).weight, weight),
                (psh.polyhedron, NewtonPolyhedron(gens)),
                (extremal, MonomialWeight(axes)),
            ]
            for got, want in derived:
                assert got.generators == want.generators
                assert _all_fractions(got.generators) and _all_fractions(want.generators)


class TestResidualMass:
    def test_worked_example(self):
        assert PHI_STAR.residual_mass() == 6

    def test_maximal_ideal_weight(self):
        for n in (2, 3, 4):
            gens = [tuple(int(i == k) for i in range(n)) for k in range(n)]
            assert MonomialWeight(gens).residual_mass() == 1

    def test_directional(self):
        assert DirectionalWeight((1, 2)).residual_mass() == Fraction(1, 2)

    def test_directional_random(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.choice((2, 3, 4))
            a = random_direction(rng, n)
            assert DirectionalWeight(a).residual_mass() == 1 / math.prod(a)


class TestLelongMeasure:
    def test_worked_example_atoms(self):
        atoms = PHI_STAR.lelong_measure().atoms
        assert [(a.vertex, a.mass) for a in atoms] == [
            (F(Fraction(-1, 3), Fraction(-2, 3)), Fraction(3)),
            (F(Fraction(-2, 3), Fraction(-1, 3)), Fraction(3)),
        ]
        assert PHI_STAR.lelong_measure().total_mass == 6

    def test_maximal_ideal_weight(self):
        atoms = M2.lelong_measure().atoms
        assert len(atoms) == 1
        assert atoms[0].vertex == F(-1, -1)
        assert atoms[0].mass == 1

    def test_directional(self):
        a = (Fraction(1), Fraction(2))
        atoms = DirectionalWeight(a).lelong_measure().atoms
        assert len(atoms) == 1
        assert atoms[0].vertex == F(-1, -2)
        assert atoms[0].mass == Fraction(1, 2)

    def test_mass_conservation_randomized(self):
        rng = random.Random(4)
        for _ in range(40):
            phi = random_weight(rng, rng.choice((2, 3, 4)))
            assert phi.lelong_measure().total_mass == phi.residual_mass()

    def test_atoms_on_level_set(self):
        # Each atom lies on the level set and is -normal/support of its
        # Facet record, in Fractions, with n! times the brute-force volume
        # of the cone over the facet as its mass. Beside the random
        # weights: the benchmark's vertex-rich sizes and a product, whose
        # atoms repeat coordinates and masses, and rational weights (L > 1).
        rng = random.Random(5)
        weights = [random_weight(rng, rng.choice((2, 3))) for _ in range(30)]
        weights += [MonomialWeight(vertex_rich(n, m)) for n, m in VERTEX_RICH_SIZES]
        weights.append(MonomialWeight(join(vertex_rich(2, 5), ASTAR)))
        weights += [_rational_weight(rng, n) for n in range(2, 7) for _ in range(3)]
        repeats = rational = 0
        for phi in weights:
            poly, n = phi.polyhedron, phi.dimension
            atoms = phi.lelong_measure().atoms
            assert len(atoms) == len(poly.compact_facets)
            for facet, atom in zip(poly.compact_facets, atoms):
                assert atom.vertex == tuple(-c / facet.support for c in facet.normal)
                assert all(type(x) is Fraction for x in (*atom.vertex, atom.mass))
                assert phi.evaluate(atom.vertex) == -1
                cone = polytope_volume([(0,) * n, *poly.facet_points(facet)])
                assert atom.mass == math.factorial(n) * cone
            values = [c for atom in atoms for c in atom.vertex] + [a.mass for a in atoms]
            repeats += len(values) - len(set(values))
            rational += phi.generators.scale > 1
        assert repeats and rational


class TestDirectionalLelong:
    def test_single_monomial(self):
        assert HomogeneousPsh([(1, 1)]).directional_lelong((1, 2)) == 3

    def test_classical_lelong_of_phi_star(self):
        assert PHI_STAR.directional_lelong((1, 1)) == 2

    def test_two_powers(self):
        assert HomogeneousPsh([(2, 0), (0, 2)]).directional_lelong((1, 1)) == 2

    def test_nonpositive_direction_rejected(self):
        with pytest.raises(InvalidInputError):
            PHI_STAR.directional_lelong((1, 0))


@st.composite
def planar_rational_weights(draw):
    """A MonomialWeight in dimension 2: rational pure powers on both axes
    plus up to three nonzero rational extras."""
    entry = st.fractions(min_value=0, max_value=9, max_denominator=6)
    power = entry.filter(bool)
    gens = [(draw(power), 0), (0, draw(power))]
    gens += draw(st.lists(st.tuples(entry, entry).filter(any), max_size=3))
    return MonomialWeight(gens)


class TestGeneralizedLelong:
    @settings(max_examples=100, deadline=None)
    @given(planar_rational_weights(), planar_rational_weights())
    def test_planar_pairing_is_symmetric(self, psi, phi):
        # In dimension 2 the aggregate is the mixed multiplicity of the two
        # polyhedra, read off two different measures.
        assert generalized_lelong(psi, phi) == generalized_lelong(phi, psi)

    def test_intro_example(self):
        assert generalized_lelong(HomogeneousPsh([(1, 0)]), PHI_STAR) == 3

    def test_square_probe_normalized(self):
        u = HomogeneousPsh([(2, 0)])
        assert generalized_lelong(u, PHI_STAR) == 6
        assert generalized_lelong(u, PHI_STAR, normalized=True) == 1

    def test_max_of_probes_drops(self):
        u = HomogeneousPsh([(2, 0), (0, 2)])
        assert generalized_lelong(u, PHI_STAR) == 4
        assert generalized_lelong(u, PHI_STAR, normalized=True) == Fraction(2, 3)

    def test_self_aggregate_is_mass(self):
        rng = random.Random(6)
        for _ in range(30):
            phi = random_weight(rng, rng.choice((2, 3, 4)))
            assert generalized_lelong(phi, phi) == phi.residual_mass()

    def test_directional_scaling_identity(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.choice((2, 3, 4))
            u = random_psh(rng, n)
            a = random_direction(rng, n)
            nu = generalized_lelong(u, DirectionalWeight(a))
            assert u.directional_lelong(a) == math.prod(a) * nu

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            generalized_lelong(HomogeneousPsh([(1, 0, 0)]), PHI_STAR)

    def test_plain_psh_weight_rejected(self):
        with pytest.raises(NotPrimaryError):
            generalized_lelong(PHI_STAR, HomogeneousPsh([(1, 0)]))

    def test_tropical_upper_bound(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.choice((2, 3))
            phi = random_weight(rng, n)
            us = [random_psh(rng, n) for _ in range(rng.randint(2, 3))]
            union = HomogeneousPsh([g for u in us for g in u.generators])
            bound = min(generalized_lelong(u, phi) for u in us)
            combined = generalized_lelong(union, phi)
            assert combined <= bound
            if phi.is_flat():
                assert combined == bound


def _aggregates_by_directional_numbers(u, phi):
    """generalized_lelong, its normalized form and relative_type, taken
    atom by atom through the public directional number."""
    numbers = [
        (atom.mass, u.directional_lelong(tuple(-c for c in atom.vertex)))
        for atom in phi.lelong_measure().atoms
    ]
    total = sum((mass * nu for mass, nu in numbers), Fraction(0))
    return total, total / phi.residual_mass(), min(nu for _, nu in numbers)


def _rational_weight(rng, n):
    """A random_weight with each entry divided by a random rational, so
    its facet supports and atom masses have denominators."""
    gens = random_weight(rng, n, max_exp=16).generators
    return MonomialWeight([
        tuple(c / Fraction(rng.randint(1, 9), rng.randint(1, 9)) for c in g) for g in gens
    ])


@pytest.mark.parametrize("n", range(2, 7))
def test_aggregates_match_directional_numbers(n):
    # Beside each integer weight, a weight with rational generators from
    # a second stream, so facet supports and masses have denominators.
    rng, qrng = random.Random(30 + n), random.Random(60 + n)
    nonflat = scaled = 0
    for _ in range(15):
        phi = random_weight(rng, n, max_exp=16)
        nonflat += not phi.is_flat()
        weights = (phi, _rational_weight(qrng, n))
        for w in weights:
            # The extremal direction is the axis aggregates over the
            # residual mass; here each is taken atom by atom through the
            # public directional number.
            axes = [
                _aggregates_by_directional_numbers(HomogeneousPsh([unit(n, k)]), w)[1]
                for k in range(n)
            ]
            assert w.extremal_direction().direction == tuple(axes)
        for u in (random_psh(rng, n), DirectionalWeight(random_direction(rng, n))):
            scaled += any(c.denominator > 1 for g in u.generators for c in g)
            for w in weights:
                got = (
                    generalized_lelong(u, w),
                    generalized_lelong(u, w, normalized=True),
                    relative_type(u, w),
                )
                assert got == _aggregates_by_directional_numbers(u, w)
    assert nonflat > 0 and scaled > 0


def _section(generators, k):
    """The generators with g_k = 0, with coordinate k dropped."""
    return [g[:k] + g[k + 1 :] for g in generators if g[k] == 0]


@pytest.mark.parametrize("n", range(3, 7))
def test_axis_aggregates_by_divergence_theorem(n):
    # The constant field e_k has no divergence, so its flux out of R_+^n
    # minus P is 0. Out through the facet (w, h) it is the facet's area
    # times w_k / |w|, which is n vol(cone) w_k / h; in through {x_k = 0}
    # it is the covolume of P's section there, the polyhedron of the
    # generators with g_k = 0. So axis aggregate k, the sum of
    # mass * w_k / h, is (n-1)! times that covolume. At n = 3 the
    # staircase sum takes it, sharing no code with the double description.
    def section_mass(generators, k):
        section = _section(generators, k)
        if n == 3:
            return 2 * covolume_staircase_2d(section)
        return math.factorial(n - 1) * NewtonPolyhedron(section).covolume()

    rng = random.Random(70 + n)
    nonflat = 0
    for _ in range(8):
        phi = _rational_weight(rng, n)
        nonflat += not phi.is_flat()
        tau, direction = phi.residual_mass(), phi.extremal_direction().direction
        for k in range(n):
            want = section_mass(phi.generators, k)
            assert generalized_lelong(HomogeneousPsh([unit(n, k)]), phi) == want
            assert direction[k] * tau == want
        i = random_primary_ideal(rng, n, max_exp=16)
        nonflat += not i.weight.is_flat()
        assert axis_multiplicities(i) == tuple(
            samuel_multiplicity(PrimaryMonomialIdeal(_section(i.generators, k)))
            for k in range(n)
        )
    assert nonflat > 0


class TestRelativeType:
    def test_square_probe(self):
        assert relative_type(HomogeneousPsh([(2, 0)]), PHI_STAR) == Fraction(2, 3)

    def test_self_type_is_one(self):
        assert relative_type(PHI_STAR, PHI_STAR) == 1
        rng = random.Random(9)
        for _ in range(20):
            phi = random_weight(rng, rng.choice((2, 3)))
            assert relative_type(phi, phi) == 1

    def test_classical_lelong_number(self):
        assert relative_type(HomogeneousPsh([(1, 2)]), M2) == 3

    def test_aggregate_dominates_type(self):
        rng = random.Random(10)
        for _ in range(50):
            n = rng.choice((2, 3, 4))
            u, phi = random_psh(rng, n), random_weight(rng, n)
            assert generalized_lelong(u, phi, normalized=True) >= relative_type(u, phi)


class TestExtremalDirection:
    def test_worked_example(self):
        d = PHI_STAR.extremal_direction()
        assert d.direction == F(Fraction(1, 2), Fraction(1, 2))

    def test_maximal_ideal_weight(self):
        assert M2.extremal_direction().direction == F(1, 1)

    def test_directional_fixed_point(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_direction(rng, rng.choice((2, 3, 4)))
            assert DirectionalWeight(a).extremal_direction().direction == a

    def test_bound_and_equality_at_axes(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.choice((2, 3, 4))
            phi = random_weight(rng, n)
            direction = phi.extremal_direction().direction
            u = random_psh(rng, n)
            assert u.directional_lelong(direction) >= generalized_lelong(u, phi, normalized=True)
            for k in range(n):
                probe = HomogeneousPsh([tuple(
                    1 / direction[k] if i == k else Fraction(0) for i in range(n)
                )])
                assert probe.directional_lelong(direction) == 1
                assert generalized_lelong(probe, phi, normalized=True) == 1


@st.composite
def spelled_directions(draw):
    """A positive direction in dimension 2..6 whose entries are ints,
    Fractions or unreduced "p/q" strings, with numerators drawn from a
    small pool so that they repeat."""
    n = draw(st.integers(2, 6))
    numerators = st.sampled_from([1, 2, 3, 4, 6, 12, 35])
    a = []
    for _ in range(n):
        p, q, k = draw(numerators), draw(st.integers(1, 9)), draw(st.integers(1, 3))
        a.append(draw(st.sampled_from([p, Fraction(p, q), f"{p * k}/{q * k}"])))
    return tuple(a)


class TestDirectionalWeightSet:
    @settings(max_examples=200, deadline=None)
    @given(spelled_directions())
    def test_equals_the_exponent_set_of_the_points(self, direction):
        # The weight builds its set from the integer points (L/p_k) q_k e_k;
        # it is the set exponent_set makes of the vectors e_k / a_k.
        a = positive_direction(direction)
        n = len(a)
        want = exponent_set(tuple(1 / a[k] if i == k else 0 for i in range(n)) for k in range(n))
        got = DirectionalWeight(direction).generators
        assert got.scale == want.scale
        assert got.points == want.points
        assert got == want
        assert [type(c) for g in got for c in g] == [type(c) for g in want for c in g]
        assert got.intercepts == want.intercepts

    def test_the_set_is_built_on_first_read(self):
        # Both the public constructor and the extremal direction's weight
        # build no set until it is read, and then the set exponent_set
        # makes of the vectors e_k / a_k, with the same scale, points,
        # equality, hash and repr.
        rng = random.Random(16)
        fractional = 0
        for _ in range(60):
            n = rng.randint(2, 6)
            phi = random_weight(rng, n, max_exp=16)
            for weight in (DirectionalWeight(random_direction(rng, n)), phi.extremal_direction()):
                assert "generators" not in vars(weight)
                a = weight.direction
                fractional += any(c.denominator > 1 for c in a)
                want = exponent_set(
                    tuple(1 / a[k] if i == k else 0 for i in range(n)) for k in range(n)
                )
                got = weight.generators
                assert vars(weight)["generators"] is got
                assert (got.scale, got.points) == (want.scale, want.points)
                assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert fractional >= 60

    @pytest.mark.parametrize(
        "direction",
        [
            (0, 1),
            (1, -2),
            ("-1/2", 1),
            (1, 1.5),
            (True, 1),
            ("1/0", 1),
            ("x", 1),
            ("+1", 1),
            (1,),
            (1,) * 7,
            (1, None),
        ],
    )
    def test_bad_direction_raises_as_positive_direction(self, direction):
        with pytest.raises(InvalidInputError) as expected:
            positive_direction(direction)
        with pytest.raises(InvalidInputError, match=re.escape(str(expected.value))):
            DirectionalWeight(direction)


class TestClosedFormReads:
    def test_queries_build_neither_rays_nor_the_extremal_set(self):
        # The queries of a benchmark operation on weights whose hull takes
        # the closed form read neither the polyhedron's rays nor the
        # extremal direction's exponent set, so neither is built.
        rng = random.Random(17)
        closed, ideals = 0, 0
        for _ in range(40):
            n = rng.randint(3, 6)
            phi = random_weight(rng, n)
            if len(phi.polyhedron._facet_rows) > 1:
                continue
            closed += 1
            phi.residual_mass()
            phi.lelong_measure()
            extremal = phi.extremal_direction()
            extremal.direction
            phi.is_flat()
            phi.flatness_witness()
            phi.lojasiewicz_exponent()
            for _ in range(2):
                u = random_psh(rng, n)
                generalized_lelong(u, phi)
                generalized_lelong(u, phi, normalized=True)
                relative_type(u, phi)
            i, j = random_primary_ideal(rng, n), random_ideal(rng, n)
            samuel_multiplicity(i)
            mixed_multiplicity(j, i)
            closure_containment_check(j, i, rng.randint(1, 40))
            assert "_rays" not in vars(phi.polyhedron)
            if len(i.weight.polyhedron._facet_rows) == 1:
                ideals += 1
                assert "_rays" not in vars(i.weight.polyhedron)
            assert "generators" not in vars(extremal)
        assert closed >= 20 and ideals >= 10, (closed, ideals)


class TestFlatness:
    def test_directional_weights_flat(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_direction(rng, rng.choice((2, 3, 4)))
            assert DirectionalWeight(a).is_flat()

    def test_worked_example_not_flat(self):
        assert not PHI_STAR.is_flat()
        witness = PHI_STAR.flatness_witness()
        assert witness is not None
        nt = generalized_lelong(witness, PHI_STAR, normalized=True)
        assert nt > relative_type(witness, PHI_STAR)

    def test_flat_reads_the_facets_without_the_triangulation(self):
        for gens, flat in ((ASTAR, False), ([(1, 0), (0, 2)], True)):
            phi = MonomialWeight(gens)
            assert phi.is_flat() == flat
            assert "_facet_cone_volumes" not in vars(phi.polyhedron)

    def test_maximal_ideal_weight_flat(self):
        assert M2.is_flat()
        assert M2.flatness_witness() is None

    def test_flat_means_equality_for_all_probes(self):
        rng = random.Random(14)
        for _ in range(30):
            n = rng.choice((2, 3))
            phi = DirectionalWeight(random_direction(rng, n))
            u = random_psh(rng, n)
            assert generalized_lelong(u, phi, normalized=True) == relative_type(u, phi)

    def test_nonflat_has_witness(self):
        rng = random.Random(15)
        found = 0
        for _ in range(40):
            phi = random_weight(rng, rng.choice((2, 3)))
            if phi.is_flat():
                continue
            found += 1
            witness = phi.flatness_witness()
            assert witness is not None
            assert generalized_lelong(witness, phi, normalized=True) > relative_type(witness, phi)
        assert found > 5

    @staticmethod
    def _separating_axis_probes(phi):
        probes = [HomogeneousPsh([unit(phi.dimension, k)]) for k in range(phi.dimension)]
        return [
            p for p in probes
            if generalized_lelong(p, phi, normalized=True) > relative_type(p, phi)
        ]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_witness_is_first_separating_axis_probe(self, n):
        rng = random.Random(16 + n)
        found = 0
        for _ in range(20):
            phi = random_weight(rng, n, max_exp=16)
            separating = self._separating_axis_probes(phi)
            witness = phi.flatness_witness()
            if phi.is_flat():
                assert witness is None and separating == []
            else:
                found += 1
                assert witness.generators == separating[0].generators
        assert found > 0

    @pytest.mark.parametrize("n", range(3, 7))
    def test_witness_past_axis_zero(self, n):
        # Every compact facet passes through 2 e_0, so all atoms share
        # t_0 and the first separating axis probe is e_1.
        gens = [unit(n, 0, 2), unit(n, 1, 6), unit(n, 2, 4), (0, 1, 1) + (0,) * (n - 3)]
        phi = MonomialWeight(gens + [unit(n, k, 3) for k in range(3, n)])
        assert len({atom.vertex[0] for atom in phi.lelong_measure().atoms}) == 1
        e_1 = (F(*unit(n, 1)),)
        assert phi.flatness_witness().generators == e_1
        assert self._separating_axis_probes(phi)[0].generators == e_1


def _lojasiewicz_numeric(phi, span=26.0, steps=40):
    """sup of -f(t) over {t <= -1 componentwise, max_k t_k = -1}, sampled
    face by face; independent of the axis-intercept closed form."""
    n = phi.dimension
    gens = [[float(c) for c in g] for g in phi.generators]
    grid = [1.0 + (span - 1.0) * i / (steps - 1) for i in range(steps)]
    best = 0.0
    stack = [[]]
    for _ in range(n - 1):
        stack = [prefix + [g] for prefix in stack for g in grid]
    for k in range(n):
        for rest in stack:
            magnitudes = rest[:k] + [1.0] + rest[k:]
            value = min(sum(g[i] * magnitudes[i] for i in range(n)) for g in gens)
            best = max(best, value)
    return best


class TestLojasiewicz:
    def test_worked_example(self):
        # Frozen from the numeric supremum oracle below.
        assert PHI_STAR.lojasiewicz_exponent() == 3
        assert abs(_lojasiewicz_numeric(PHI_STAR) - 3.0) < 1e-9

    def test_maximal_ideal_weight(self):
        assert M2.lojasiewicz_exponent() == 1

    def test_directional(self):
        phi = DirectionalWeight((1, 2))
        assert phi.lojasiewicz_exponent() == 1
        assert abs(_lojasiewicz_numeric(phi) - 1.0) < 1e-9

    def test_reads_the_intercepts_without_the_hull(self):
        phi = MonomialWeight(ASTAR)
        assert phi.lojasiewicz_exponent() == 3
        assert "polyhedron" not in vars(phi)

    def test_matches_numeric_supremum_randomized(self):
        rng = random.Random(16)
        for _ in range(15):
            phi = random_weight(rng, 2, max_exp=9)
            exact = float(phi.lojasiewicz_exponent())
            sampled = _lojasiewicz_numeric(phi)
            assert sampled <= exact + 1e-9
            assert sampled >= exact - 1e-9


class TestEvaluate:
    def test_plain(self):
        assert PHI_STAR.evaluate((-1, -10)) == -3

    def test_minus_infinity_coordinate(self):
        assert PHI_STAR.evaluate((-1, float("-inf"))) == -3

    def test_origin(self):
        rng = random.Random(17)
        for _ in range(10):
            u = random_psh(rng, rng.choice((2, 3)))
            assert u.evaluate((0,) * u.dimension) == 0

    def test_positive_coordinate_rejected(self):
        with pytest.raises(InvalidInputError):
            PHI_STAR.evaluate((1, -1))

    def test_all_terms_dead(self):
        u = HomogeneousPsh([(1, 1)])
        assert u.evaluate((-1, float("-inf"))) == float("-inf")

    def test_homogeneity(self):
        rng = random.Random(18)
        for _ in range(30):
            n = rng.choice((2, 3))
            u = random_psh(rng, n)
            t = tuple(-Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n))
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert u.evaluate(tuple(c * x for x in t)) == c * u.evaluate(t)

    def test_float_coordinate_rejected(self):
        with pytest.raises(InvalidInputError):
            PHI_STAR.evaluate((-0.5, -1))

    def test_matches_fraction_reference(self):
        # Generators divided by rationals, so that L > 1, and points of
        # nonpositive rationals, zeros and -inf, in every grammar form.
        rng = random.Random(19)
        inf = float("-inf")
        scaled = dead_on_zero_exponent = 0
        for n in range(2, 7):
            for _ in range(12):
                drawn = random_psh(rng, n) if rng.random() < 0.5 else random_weight(rng, n)
                gens = [tuple(c / random_rational(rng) for c in g) for g in drawn.generators]
                u = HomogeneousPsh(gens)
                scaled += u.generators.scale > 1
                for _ in range(8):
                    t = [
                        rng.choice((0, inf, -random_rational(rng), f"-{rng.randint(0, 9)}/7"))
                        for _ in range(n)
                    ]
                    dead_on_zero_exponent += any(
                        c == inf and any(g[k] == 0 for g in gens) for k, c in enumerate(t)
                    )
                    reference = fraction_evaluate(u.generators, t)
                    assert u.evaluate(t) == reference, (u, t)
                    assert u.evaluate(iter(t)) == reference
                    bad_points = [t[:-1], t + [0]]
                    for bad in (1, -0.5, "-1/0", "x"):
                        bad_points.append(list(t))
                        bad_points[-1][rng.randrange(n)] = bad
                    for point in bad_points:
                        for f in (u.evaluate, lambda p: fraction_evaluate(u.generators, p)):
                            with pytest.raises(InvalidInputError):
                                f(point)
        assert scaled > 50 and dead_on_zero_exponent > 50
        message = "expected a vector of length 2, got 3"
        with pytest.raises(InvalidInputError, match=message):
            PHI_STAR.evaluate((-1, -1, -1))
        with pytest.raises(InvalidInputError, match=message):
            cone_point_member((1, 1, 1), ASTAR)
