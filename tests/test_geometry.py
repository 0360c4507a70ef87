"""Exact geometry: determinants, volumes, cone membership, and LP feasibility."""

import random
from fractions import Fraction

import pytest

from lelong.errors import InvalidInputError
from lelong.geometry import (
    cone_point_member,
    det,
    polytope_volume,
    simplex_volume,
)
from lelong.linprog import feasible

from support import ASTAR


class TestDet:
    def test_known_2x2(self):
        assert det([[Fraction(3), Fraction(0)], [Fraction(1), Fraction(1)]]) == 3

    def test_known_3x3(self):
        m = [[Fraction(v) for v in row] for row in ((2, 0, 1), (1, 1, 0), (0, 3, 1))]
        assert det(m) == 2 * 1 - 0 + 1 * 3

    def test_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert det(m) == 0


class TestSimplexVolume:
    def test_unit_triangle(self):
        assert simplex_volume([(0, 0), (1, 0), (0, 1)]) == Fraction(1, 2)

    def test_hand_determinant(self):
        assert simplex_volume([(0, 0), (3, 0), (1, 1)]) == Fraction(3, 2)

    def test_collinear(self):
        assert simplex_volume([(0, 0), (1, 0), (2, 0)]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            simplex_volume([(0, 0), (1, 0)])
        with pytest.raises(InvalidInputError):
            simplex_volume([(0, 0), (1, 0), (0, 1, 2)])

    def test_permutation_and_translation_invariance(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.choice((2, 3, 4))
            pts = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
                   for _ in range(n + 1)]
            ref = simplex_volume(pts)
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert simplex_volume(shuffled) == ref
            shift = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
            moved = [tuple(a + b for a, b in zip(p, shift)) for p in pts]
            assert simplex_volume(moved) == ref


class TestPolytopeVolume:
    def test_matches_simplex_volume(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.choice((2, 3))
            pts = [tuple(Fraction(rng.randint(0, 6)) for _ in range(n)) for _ in range(n + 1)]
            assert polytope_volume(pts) == simplex_volume(pts)

    def test_unit_square(self):
        assert polytope_volume([(0, 0), (1, 0), (0, 1), (1, 1)]) == 1

    def test_cube_with_interior_point(self):
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert polytope_volume(cube + [(Fraction(1, 2),) * 3]) == 1

    def test_degenerate(self):
        assert polytope_volume([(0, 0), (1, 1), (2, 2)]) == 0


class TestConePointMember:
    def test_segment_midpoint(self):
        assert cone_point_member((1, 1), [(2, 0), (0, 2)])

    def test_axis_point_outside(self):
        assert not cone_point_member((1, 0), ASTAR)

    def test_dominating_point(self):
        assert cone_point_member((5, 5), ASTAR)

    def test_generators_are_members(self):
        for g in ASTAR:
            assert cone_point_member(g, ASTAR)

    def test_negative_point(self):
        assert not cone_point_member((-1, 2), ASTAR)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            cone_point_member((1, 1, 1), ASTAR)

    def test_monotone(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.choice((2, 3))
            gens = [tuple(Fraction(rng.randint(0, 5)) for _ in range(n)) for _ in range(3)]
            x = tuple(Fraction(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(n))
            if cone_point_member(x, gens):
                y = tuple(c + Fraction(rng.randint(0, 3)) for c in x)
                assert cone_point_member(y, gens)

    def test_boundary_decided_exactly(self):
        # Points on the hull boundary are members; just below are not.
        assert cone_point_member((Fraction(1, 2), Fraction(3, 2)), [(2, 0), (0, 2)])
        assert not cone_point_member((Fraction(1, 2), Fraction(3, 2) - Fraction(1, 10**12)),
                                     [(2, 0), (0, 2)])


class TestLinprog:
    def test_infeasible(self):
        assert not feasible([[1, 0], [1, 0]], [1, 2])
