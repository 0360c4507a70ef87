"""Monomial ideal multiplicities and containment reports."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelong.errors import InvalidInputError, NotPrimaryError
from lelong.ideals import (
    MonomialIdeal,
    PrimaryMonomialIdeal,
    axis_multiplicities,
    closure_containment_check,
    containment_exponents,
    minimal_multiplicity,
    mixed_multiplicity,
    samuel_multiplicity,
)
from lelong.oracles import mixed_multiplicity_polarization

from reference import closure_member
from support import ASTAR, random_ideal, random_primary_ideal, unit

I_STAR = PrimaryMonomialIdeal(ASTAR)
M2 = PrimaryMonomialIdeal([(1, 0), (0, 1)])


class TestConstruction:
    def test_not_primary(self):
        with pytest.raises(NotPrimaryError):
            PrimaryMonomialIdeal([(2, 0), (1, 1)])

    def test_unit_rejected(self):
        with pytest.raises(NotPrimaryError):
            PrimaryMonomialIdeal([(0, 0), (1, 0), (0, 1)])

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidInputError):
            MonomialIdeal([(Fraction(1, 2), 1)])

    @pytest.mark.parametrize("cls", [MonomialIdeal, PrimaryMonomialIdeal])
    def test_non_integer_message_names_first_in_sorted_order(self, cls):
        # Listed third, (0, 1/2) sorts first among the non-integer vectors.
        gens = [(3, 0), (1, "1/3"), (0, "1/2"), (0, 2)]
        with pytest.raises(InvalidInputError) as info:
            cls(gens)
        assert str(info.value) == (
            "ideal exponents must be integers, got (0, 1/2)"
        )

    def test_duplicates_removed(self):
        assert MonomialIdeal([(1, 1), (1, 1), (2, 0)]).generators == ((1, 1), (2, 0))

    @pytest.mark.parametrize("cls", [MonomialIdeal, PrimaryMonomialIdeal])
    def test_generators_are_ints(self, cls):
        # Fraction(2) == 2, so a comparison by value alone cannot tell.
        ideal = cls([("4/2", 0), (Fraction(1), 1), (0, 3)])
        assert ideal.generators == ((0, 3), (1, 1), (2, 0))
        assert all(type(c) is int for g in ideal.generators for c in g)
        rng = random.Random(17)
        for n in range(2, 7):
            for make in (random_ideal, random_primary_ideal):
                gens = make(rng, n).generators
                assert all(type(c) is int for g in gens for c in g)

    @pytest.mark.parametrize(
        "generators, message",
        [
            ([(0, 0), (1, 0), (0, 1)], "the ideal contains a unit"),
            ([(2, 0), (1, 1)], "no pure power of variable 1"),
            ([(0, 1, 0), (1, 1, 1)], "no pure power of variable 0"),
            ([(1, 0, 0), (0, 1, 0), (0, 1, 1)], "no pure power of variable 2"),
        ],
    )
    def test_messages(self, generators, message):
        with pytest.raises(NotPrimaryError) as info:
            PrimaryMonomialIdeal(generators)
        assert str(info.value) == message


class TestSamuel:
    def test_worked_example(self):
        assert samuel_multiplicity(I_STAR) == 6

    def test_maximal_ideal(self):
        assert samuel_multiplicity(M2) == 1

    def test_complete_intersection(self):
        assert samuel_multiplicity(PrimaryMonomialIdeal([(2, 0), (0, 3)])) == 6

    def test_integer_randomized(self):
        rng = random.Random(31)
        for _ in range(25):
            e = samuel_multiplicity(random_primary_ideal(rng, rng.choice((2, 3))))
            assert isinstance(e, int) and e >= 1

    def test_needs_a_primary_ideal(self):
        with pytest.raises(NotPrimaryError, match="^Samuel multiplicity needs a primary ideal$"):
            samuel_multiplicity(MonomialIdeal([(2, 0), (1, 1)]))

    @pytest.mark.parametrize(
        "mass, message",
        [
            (Fraction(1, 2), "Samuel multiplicity must be an integer, got 1/2"),
            (Fraction(0), "Samuel multiplicity must be positive"),
        ],
    )
    def test_guards_turn_a_kernel_fault_into_an_error(self, monkeypatch, mass, message):
        # A multiplicity is a positive integer; a kernel that returned
        # anything else must raise, not yield a wrong integer.
        ideal = PrimaryMonomialIdeal(ASTAR)
        monkeypatch.setattr(ideal.weight, "residual_mass", lambda: mass)
        with pytest.raises(AssertionError, match=f"^{message}$"):
            samuel_multiplicity(ideal)


@st.composite
def planar_primary_ideals(draw):
    """A primary monomial ideal of C[z1, z2]: pure powers on both axes
    plus up to three nonzero extras."""
    entry = st.integers(0, 9)
    gens = [(draw(st.integers(1, 9)), 0), (0, draw(st.integers(1, 9)))]
    gens += draw(st.lists(st.tuples(entry, entry).filter(any), max_size=3))
    return PrimaryMonomialIdeal(gens)


class TestMixed:
    @settings(max_examples=100, deadline=None)
    @given(planar_primary_ideals(), planar_primary_ideals())
    def test_planar_mixed_multiplicity_is_symmetric(self, j, i):
        assert mixed_multiplicity(j, i) == mixed_multiplicity(i, j)

    def test_cross_principal(self):
        assert mixed_multiplicity(MonomialIdeal([(1, 1)]), I_STAR) == 6

    def test_worked_polarization_instance(self):
        j = MonomialIdeal([(2, 0), (0, 2), (1, 1)])
        assert mixed_multiplicity(j, I_STAR) == 4
        assert mixed_multiplicity_polarization(PrimaryMonomialIdeal(j.generators), I_STAR) == 4

    def test_intro_example(self):
        assert mixed_multiplicity(MonomialIdeal([(1, 0)]), I_STAR) == 3

    def test_principal_linearity(self):
        rng = random.Random(32)
        for _ in range(30):
            n = rng.choice((2, 3))
            i = random_primary_ideal(rng, n)
            axes = axis_multiplicities(i)
            beta = tuple(rng.randint(0, 6) for _ in range(n))
            if not any(beta):
                continue
            expected = sum(b * e for b, e in zip(beta, axes))
            assert mixed_multiplicity(MonomialIdeal([beta]), i) == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_axis_multiplicities_are_coordinate_mixed_multiplicities(self, n):
        rng = random.Random(40 + n)
        for _ in range(6):
            i = random_primary_ideal(rng, n, max_exp=6)
            assert axis_multiplicities(i) == tuple(
                mixed_multiplicity(MonomialIdeal([unit(n, k)]), i) for k in range(n)
            )

    def test_axis_multiplicities_need_primary(self):
        with pytest.raises(NotPrimaryError):
            axis_multiplicities(MonomialIdeal(ASTAR))

    def test_monotone_in_first_argument(self):
        rng = random.Random(33)
        for _ in range(25):
            n = rng.choice((2, 3))
            i = random_primary_ideal(rng, n)
            j = random_ideal(rng, n)
            extra = tuple(rng.randint(0, 6) for _ in range(n))
            if not any(extra):
                continue
            enlarged = MonomialIdeal(list(j.generators) + [extra])
            assert mixed_multiplicity(enlarged, i) <= mixed_multiplicity(j, i)

    def test_minimal_multiplicity_identity(self):
        assert minimal_multiplicity(MonomialIdeal([(2, 3), (4, 1)])) == 5
        assert minimal_multiplicity(MonomialIdeal([(0, 0)])) == 0
        j = MonomialIdeal([(1, 1)])
        assert minimal_multiplicity(j) == mixed_multiplicity(j, M2) == 2
        rng = random.Random(34)
        for _ in range(25):
            n = rng.choice((2, 3))
            j = random_ideal(rng, n)
            m = PrimaryMonomialIdeal([tuple(int(i == k) for i in range(n)) for k in range(n)])
            assert minimal_multiplicity(j) == mixed_multiplicity(j, m)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            mixed_multiplicity(MonomialIdeal([(1, 0, 0)]), I_STAR)

    def test_second_ideal_must_be_primary(self):
        message = "^mixed multiplicity needs a primary second ideal$"
        with pytest.raises(NotPrimaryError, match=message):
            mixed_multiplicity(I_STAR, MonomialIdeal([(2, 0), (1, 1)]))


class TestContainmentExponents:
    def test_worked_example(self):
        assert containment_exponents(I_STAR, 6) == (2, 2)
        assert containment_exponents(I_STAR, 7) == (3, 3)

    def test_maximal_ideal(self):
        for p in (1, 2, 5):
            assert containment_exponents(M2, p) == (p, p)

    def test_p_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            containment_exponents(I_STAR, 0)
        with pytest.raises(InvalidInputError):
            closure_containment_check(MonomialIdeal([(1, 1)]), I_STAR, -2)


class TestContainmentReport:
    def test_literal_discrepancy_instance(self):
        report = closure_containment_check(MonomialIdeal([(1, 1)]), I_STAR, 6)
        assert report.hypothesis
        assert report.all_axis_bound
        assert report.all_closure
        assert not report.all_literal

    def test_fully_contained_instance(self):
        report = closure_containment_check(MonomialIdeal([(2, 0)]), I_STAR, 6)
        assert report.hypothesis and report.all_axis_bound
        assert report.all_closure and report.all_literal

    def test_hypothesis_fails(self):
        report = closure_containment_check(MonomialIdeal([(1, 0), (0, 1)]), M2, 2)
        assert report.mixed_multiplicity == 1
        assert not report.hypothesis

    def test_axis_bound_follows_from_hypothesis(self):
        rng = random.Random(35)
        checked = 0
        for _ in range(60):
            n = rng.choice((2, 3))
            i = random_primary_ideal(rng, n)
            j = random_ideal(rng, n)
            e = mixed_multiplicity(j, i)
            if e < 1:
                continue
            p = rng.randint(1, e)
            report = closure_containment_check(j, i, p)
            assert report.hypothesis
            assert report.all_axis_bound
            checked += 1
        assert checked > 30

    @pytest.mark.parametrize("n", range(2, 7))
    def test_closure_member_matches_the_fraction_form(self, n):
        # The report decides sum_k beta_k M/p_k >= M on ints, M = lcm(p_k).
        rng = random.Random(60 + n)
        seen = set()
        for _ in range(30):
            i = random_primary_ideal(rng, n)
            j = random_ideal(rng, n)
            p = rng.randint(1, 12 * max(axis_multiplicities(i)))
            report = closure_containment_check(j, i, p)
            for g in report.generators:
                assert g.closure_member == closure_member(g.exponent, report.exponents)
                seen.add(g.closure_member)
        assert seen == {True, False}

    def test_closure_implies_axis_bound(self):
        rng = random.Random(36)
        for _ in range(60):
            n = rng.choice((2, 3))
            i = random_primary_ideal(rng, n)
            j = random_ideal(rng, n)
            p = rng.randint(1, 12)
            report = closure_containment_check(j, i, p)
            for g in report.generators:
                if g.closure_member:
                    assert g.axis_bound

    def test_closure_not_implied_by_hypothesis(self):
        # The integer-rounded exponents lose the sharp axis bound: here
        # e_k = (3, 2), e(J, I) = 5 >= p = 5, yet 1/2 + 1/3 < 1. The sharp
        # consequence of the extremal bound is the axis inequality (b).
        i = PrimaryMonomialIdeal([(2, 0), (0, 3)])
        assert axis_multiplicities(i) == (3, 2)
        report = closure_containment_check(MonomialIdeal([(1, 1)]), i, 5)
        assert report.hypothesis
        assert report.exponents == (2, 3)
        assert report.all_axis_bound
        assert not report.all_closure

    def test_closure_holds_when_axis_multiplicities_divide_p(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(80):
            n = rng.choice((2, 3))
            i = random_primary_ideal(rng, n)
            j = random_ideal(rng, n)
            e = mixed_multiplicity(j, i)
            axes = axis_multiplicities(i)
            lcm = math.lcm(*axes)
            if lcm > e:
                continue
            p = lcm * rng.randint(1, e // lcm)
            report = closure_containment_check(j, i, p)
            assert report.hypothesis
            assert report.all_closure
            checked += 1
        assert checked > 10
