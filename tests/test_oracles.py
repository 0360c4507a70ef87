"""The independent verification paths themselves."""

import math
import random
from fractions import Fraction

import pytest

from lelong.errors import InvalidInputError, NotPrimaryError
from lelong.ideals import PrimaryMonomialIdeal, mixed_multiplicity
from lelong.newton import NewtonPolyhedron
from lelong.oracles import (
    McEstimate,
    covolume_monte_carlo,
    covolume_staircase_2d,
    mixed_multiplicity_polarization,
)
from lelong.weights import HomogeneousPsh, MonomialWeight, relative_type

from float_oracles import directional_lelong_numeric, quasi_triangle_check, relative_type_numeric
from support import ASTAR, random_direction, random_primary_ideal, random_weight

PHI_STAR = MonomialWeight(ASTAR)


class TestStaircase:
    def test_worked_example(self):
        assert covolume_staircase_2d(ASTAR) == 3

    def test_unit_simplex(self):
        assert covolume_staircase_2d([(1, 0), (0, 1)]) == Fraction(1, 2)

    def test_axis_triangle(self):
        assert covolume_staircase_2d([(2, 0), (0, 3)]) == 3

    def test_requires_pure_powers(self):
        with pytest.raises(NotPrimaryError):
            covolume_staircase_2d([(2, 0), (1, 1)])

    def test_requires_dimension_two(self):
        with pytest.raises(InvalidInputError):
            covolume_staircase_2d([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_agrees_with_facet_decomposition(self):
        rng = random.Random(41)
        for _ in range(50):
            phi = random_weight(rng, 2, max_exp=12)
            assert covolume_staircase_2d(phi.generators) == phi.polyhedron.covolume()


class TestMonteCarlo:
    def test_worked_example_within_three_se(self):
        est = covolume_monte_carlo(NewtonPolyhedron(ASTAR), 4000, seed=20240801)
        assert abs(est.value - 3.0) <= 3 * est.standard_error

    def test_simplex_within_three_se(self):
        est = covolume_monte_carlo(NewtonPolyhedron([(1, 0), (0, 1)]), 2000, seed=7)
        assert abs(est.value - 0.5) <= 3 * est.standard_error

    def test_reproducible(self):
        poly = NewtonPolyhedron([(2, 0), (0, 3)])
        a = covolume_monte_carlo(poly, 1500, seed=99)
        b = covolume_monte_carlo(poly, 1500, seed=99)
        assert a == b
        c = covolume_monte_carlo(poly, 1500, seed=100)
        assert c != a

    def test_sample_floor(self):
        with pytest.raises(InvalidInputError):
            covolume_monte_carlo(NewtonPolyhedron(ASTAR), 999, seed=1)

    def test_infinite_region_rejected(self):
        with pytest.raises(NotPrimaryError):
            covolume_monte_carlo(NewtonPolyhedron([(2, 0), (1, 1)]), 1000, seed=1)

    @pytest.mark.parametrize(
        "samples, seed", [(1000, -1), (1000.0, 1), (1000, 1.5), (1000, True)]
    )
    def test_bad_samples_or_seed(self, samples, seed):
        with pytest.raises(InvalidInputError):
            covolume_monte_carlo(NewtonPolyhedron(ASTAR), samples, seed=seed)

    def test_reads_the_generators_not_the_vertices(self):
        # A vertex-reduction bug that drops (1, 1) must not move the
        # estimate along with the kernel's covolume.
        expected = covolume_monte_carlo(NewtonPolyhedron(ASTAR), 1000, seed=11)
        tampered = NewtonPolyhedron(ASTAR)
        tampered.vertices = tuple(v for v in tampered.vertices if v != (1, 1))
        assert covolume_monte_carlo(tampered, 1000, seed=11) == expected

    def test_box_past_float_range_rejected(self):
        with pytest.raises(InvalidInputError, match="too large for a float"):
            covolume_monte_carlo(NewtonPolyhedron([(10**400, 0), (0, 1)]), 1000, seed=0)

    def test_estimates_pinned(self):
        # Recorded with the same random.Random(seed).getrandbits(53) draws
        # scaled to the box as Fractions, and membership decided by
        # reference.fraction_feasible on the set's Fraction vectors. The
        # indicator is exact, so a correct membership test reproduces
        # every estimate bit for bit.
        assert repr(covolume_monte_carlo(NewtonPolyhedron(ASTAR), 1000, seed=11).value) == (
            "3.1679999999999997"
        )
        rng = random.Random(0)
        expected = {3: "2.528", 4: "6.12", 5: "0.495", 6: "0.9"}
        for n, samples in ((3, 1000), (4, 1000), (5, 2000), (6, 4000)):
            poly = NewtonPolyhedron(random_primary_ideal(rng, n, max_exp=6).generators)
            assert repr(covolume_monte_carlo(poly, samples, seed=n).value) == expected[n]
        # Rational generators (L = 6), so the samples are scaled by 2^53 L.
        third = NewtonPolyhedron(
            [(Fraction(3, 2), 0, 0), (0, Fraction(5, 3), 0), (0, 0, 2),
             (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))]
        )
        assert third.generators.scale == 6
        assert repr(covolume_monte_carlo(third, 1000, seed=3).value) == "0.605"

    @pytest.mark.parametrize(
        "generators", [[(0, 0), (1, 0)], [(0, 0, 0), (0, 1, 1), (2, 0, 0)]], ids=str
    )
    def test_zero_vector_gives_an_empty_box(self, generators):
        # The zero vector makes every intercept 0 and may leave an axis
        # without a pure power: the box is the origin and the covolume 0.
        poly = NewtonPolyhedron(generators)
        assert None in poly.generators.pure_powers
        assert covolume_monte_carlo(poly, 1000, 0) == McEstimate(0.0, 0.0, 1000, 0)
        assert poly.covolume() == 0


class TestPolarization:
    def test_worked_example(self):
        j = PrimaryMonomialIdeal([(2, 0), (0, 2), (1, 1)])
        i = PrimaryMonomialIdeal(ASTAR)
        assert mixed_multiplicity_polarization(j, i) == 4

    def test_maximal_ideal(self):
        m = PrimaryMonomialIdeal([(1, 0), (0, 1)])
        assert mixed_multiplicity_polarization(m, m) == 1

    def test_equal_arguments_give_samuel(self):
        i = PrimaryMonomialIdeal(ASTAR)
        assert mixed_multiplicity_polarization(i, i) == 6

    def test_agrees_with_measure_path(self):
        rng = random.Random(42)
        for _ in range(20):
            n = rng.choice((2, 3))
            i = random_primary_ideal(rng, n, max_exp=6)
            j = random_primary_ideal(rng, n, max_exp=6)
            assert mixed_multiplicity_polarization(j, i) == mixed_multiplicity(j, i)

    def test_planar_binomial_expansion(self):
        # n = 2: the mass of a Minkowski sum expands as e(I) + 2 e_1(J, I) + e(J).
        rng = random.Random(46)
        for _ in range(15):
            i = random_primary_ideal(rng, 2, max_exp=6)
            j = random_primary_ideal(rng, 2, max_exp=6)
            pi = NewtonPolyhedron(i.generators)
            pj = NewtonPolyhedron(j.generators)
            sums = [tuple(map(sum, zip(a, b))) for a in i.generators for b in j.generators]
            total = 2 * NewtonPolyhedron(sums).covolume()
            expected = (
                2 * pi.covolume()
                + 2 * mixed_multiplicity(j, i)
                + 2 * pj.covolume()
            )
            assert total == expected

    def test_requires_primary(self):
        with pytest.raises(NotPrimaryError):
            mixed_multiplicity_polarization(
                PrimaryMonomialIdeal(ASTAR).psh, PrimaryMonomialIdeal(ASTAR)
            )

    def test_dimension_mismatch(self):
        m3 = PrimaryMonomialIdeal([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(InvalidInputError, match="^ideals have different dimensions$"):
            mixed_multiplicity_polarization(m3, PrimaryMonomialIdeal(ASTAR))

    def test_one_polyhedron_per_dilation(self, monkeypatch):
        # With i's weight built (the mixed multiplicity reads its facets),
        # T(0) builds no hull and each T(t), t = 1..n, one hull of pairwise
        # sums: j's own polyhedron is never built.
        rng = random.Random(48)
        i = random_primary_ideal(rng, 3, max_exp=6)
        j = random_primary_ideal(rng, 3, max_exp=6)
        expected = mixed_multiplicity(j, i)
        built = []
        init = NewtonPolyhedron.__init__

        def counting(self, generators):
            built.append(generators)
            init(self, generators)

        monkeypatch.setattr(NewtonPolyhedron, "__init__", counting)
        assert mixed_multiplicity_polarization(j, i) == expected
        assert len(built) == 3


class TestNumericDirectional:
    def test_single_monomial(self):
        u = HomogeneousPsh([(1, 1)])
        assert abs(directional_lelong_numeric(u, (1, 2)) - 3.0) < 1e-9

    def test_phi_star_diagonal(self):
        assert abs(directional_lelong_numeric(PHI_STAR, (1, 1)) - 2.0) < 1e-9

    def test_two_powers(self):
        u = HomogeneousPsh([(2, 0), (0, 2)])
        assert abs(directional_lelong_numeric(u, (1, 1)) - 2.0) < 1e-9

    def test_matches_exact_randomized(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.choice((2, 3))
            u = HomogeneousPsh([tuple(rng.randint(0, 8) for _ in range(n))
                                for _ in range(rng.randint(1, 3))])
            a = tuple(Fraction(rng.randint(1, 6)) for _ in range(n))
            exact = float(u.directional_lelong(a))
            assert abs(directional_lelong_numeric(u, a) - exact) < 1e-8 * max(1.0, exact)

    def test_exponent_past_float_range(self):
        u = HomogeneousPsh([(10**400, 0), (0, 1)])
        with pytest.raises(InvalidInputError, match="too large for a float"):
            directional_lelong_numeric(u, (1, 1))

    def test_overflowing_value_rejected(self):
        # Each exponent is a float, but g r = -1e309 overflows to -inf.
        u = HomogeneousPsh([(10**306, 0), (0, 10**306)])
        with pytest.raises(InvalidInputError, match="overflows"):
            directional_lelong_numeric(u, (1, 1))


class TestNumericRelativeType:
    def test_square_probe(self):
        u = HomogeneousPsh([(2, 0)])
        got = relative_type_numeric(u, PHI_STAR, grid_depth=48)
        assert abs(got - 2.0 / 3.0) < 1e-3

    def test_self_type(self):
        assert abs(relative_type_numeric(PHI_STAR, PHI_STAR, grid_depth=48) - 1.0) < 1e-9

    def test_axis_probe(self):
        u = HomogeneousPsh([(1, 0)])
        got = relative_type_numeric(u, PHI_STAR, grid_depth=48)
        assert abs(got - 1.0 / 3.0) < 1e-3

    def test_upper_bound_and_monotone_refinement(self):
        rng = random.Random(44)
        for _ in range(15):
            n = rng.choice((2, 3))
            phi = random_weight(rng, n, max_exp=6)
            u = HomogeneousPsh([tuple(rng.randint(0, 6) for _ in range(n))
                                for _ in range(rng.randint(1, 2))])
            exact = float(relative_type(u, phi))
            coarse = relative_type_numeric(u, phi, grid_depth=12)
            fine = relative_type_numeric(u, phi, grid_depth=24)
            finest = relative_type_numeric(u, phi, grid_depth=48)
            assert coarse >= fine >= finest >= exact - 1e-6

    def test_depth_guard(self):
        with pytest.raises(InvalidInputError):
            relative_type_numeric(PHI_STAR, PHI_STAR, grid_depth=5)

    def test_exponent_past_float_range(self):
        u = HomogeneousPsh([(10**400, 0), (0, 1)])
        with pytest.raises(InvalidInputError, match="too large for a float"):
            relative_type_numeric(u, MonomialWeight([(1, 0), (0, 1)]))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="^dimension mismatch$"):
            relative_type_numeric(HomogeneousPsh([(1, 1, 1)]), PHI_STAR)

    @pytest.mark.parametrize("grid_depth", [10.5, 12.0])
    def test_depth_must_be_int(self, grid_depth):
        with pytest.raises(InvalidInputError):
            relative_type_numeric(PHI_STAR, PHI_STAR, grid_depth=grid_depth)


class TestQuasiTriangle:
    def test_isotropic(self):
        report = quasi_triangle_check((1, 1), samples=10000, seed=3)
        assert report.passed
        assert report.max_violation <= 1e-12

    def test_anisotropic(self):
        report = quasi_triangle_check((1, 2), samples=10000, seed=4)
        assert report.passed
        assert abs(report.constant - math.log(2.0)) < 1e-12

    def test_zero_constant_fails(self):
        report = quasi_triangle_check((1, 1), samples=10000, seed=5, constant=0.0)
        assert not report.passed
        assert report.max_violation > 0

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sample_guard(self, samples):
        with pytest.raises(InvalidInputError, match="need at least 1 sample"):
            quasi_triangle_check((1, 1), samples=samples)

    @pytest.mark.parametrize("samples, seed", [(10, -1), (True, 0), (10.0, 0), (10, 0.5)])
    def test_bad_samples_or_seed(self, samples, seed):
        with pytest.raises(InvalidInputError):
            quasi_triangle_check((1, 1), samples=samples, seed=seed)

    @pytest.mark.parametrize(
        "direction, match",
        [((10**400, 1), "too large for a float"), ((Fraction(1, 10**400), 1), "rounds to 0.0")],
        ids=["10**400", "1/10**400"],
    )
    def test_direction_a_float_cannot_hold(self, direction, match):
        with pytest.raises(InvalidInputError, match=match):
            quasi_triangle_check(direction, samples=10)

    @pytest.mark.parametrize(
        "constant", ["abc", True, math.nan, math.inf], ids=["str", "bool", "nan", "inf"]
    )
    def test_constant_must_be_finite_real(self, constant):
        with pytest.raises(InvalidInputError, match="constant"):
            quasi_triangle_check((1, 1), samples=10, constant=constant)

    def test_random_directions(self):
        rng = random.Random(45)
        for _ in range(5):
            n = rng.choice((2, 3))
            a = random_direction(rng, n)
            assert quasi_triangle_check(a, samples=4000, seed=rng.randint(0, 10**6)).passed
