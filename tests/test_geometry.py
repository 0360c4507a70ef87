"""Exact geometry: the determinant, normals, volumes, cone membership and the membership LP."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelong.errors import InvalidInputError
from lelong.geometry import cone_point_member, hyperplane_normal, int_det
from lelong.linprog import feasible
from lelong.newton import NewtonPolyhedron
from lelong.rationals import exponent_set, integer_scaling

from reference import fraction_feasible, polytope_volume, simplex_volume
from support import ASTAR, random_primary_ideal, random_vertex_rich, vertex_rich


def leibniz(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


@st.composite
def square_matrices(draw, entries=st.integers(-9, 9) | st.integers(-(10**30), 10**30)):
    """Square matrices of size 1..6, with entries in -9..9 or up to 10^30
    in size: unconstrained, with a zero leading minor of some order k (so
    elimination meets a zero pivot at step k and must swap rows), or
    singular (one row a multiple of another, or a zero row)."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(("any", "zero_pivot", "singular")))
    if shape == "zero_pivot" and n > 1:
        k = draw(st.integers(0, n - 2))
        if k == 0:
            rows[0][0] = 0
        else:
            rows[k][: k + 1] = rows[0][: k + 1]
    elif shape == "singular":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(entries)
        rows[j] = [c * x for x in rows[i]] if i != j else [0] * n
    return rows


class TestIntDet:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_matches_leibniz(self, rows):
        got = int_det(rows)
        assert type(got) is int and got == leibniz(rows)

    def test_zero_pivots_are_swapped(self):
        # 2 x 2 and 3 x 3 take the cofactor expansion.
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([[0, 2, 1], [0, 1, 1], [3, 0, 0]]) == 3
        # Leading 2x2 minor zero: the pivot of the second step is zero.
        assert int_det([[1, 2, 0], [2, 4, 1], [0, 1, 1]]) == -1
        assert int_det([[0, 0], [1, 2]]) == 0
        # A zero first pivot, then a zero leading 2x2 minor: the closed
        # forms at 4 x 4 and 5 x 5, and Bareiss, which swaps rows, at 6 x 6.
        for rows in (
            [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 5]],
            [[1, 2, 0, 1], [2, 4, 1, 3], [0, 1, 1, 2], [3, 1, 2, 4]],
            [[0, 2, 1, 0, 3], [0, 1, 1, 2, 1], [4, 0, 0, 1, 2], [1, 3, 2, 0, 1], [2, 1, 0, 3, 1]],
            [[1, 2, 0, 1, 3], [2, 4, 1, 3, 1], [0, 1, 3, 2, 0], [3, 1, 2, 0, 1], [1, 0, 2, 1, 4]],
            [
                [0, 1, 2, 3, 1, 2],
                [1, 0, 1, 2, 3, 1],
                [2, 1, 0, 1, 2, 3],
                [3, 2, 1, 5, 0, 1],
                [1, 3, 2, 0, 4, 2],
                [2, 1, 3, 1, 0, 5],
            ],
            [
                [1, 2, 0, 1, 3, 1],
                [2, 4, 1, 3, 1, 0],
                [0, 1, 3, 2, 0, 2],
                [3, 1, 2, 0, 1, 4],
                [1, 0, 2, 1, 4, 3],
                [2, 3, 1, 4, 0, 1],
            ],
        ):
            assert rows[0][0] == 0 or rows[0][0] * rows[1][1] == rows[0][1] * rows[1][0]
            assert int_det(rows) == leibniz(rows) != 0

    @pytest.mark.parametrize("bound", [9, 10**30])
    def test_closed_forms_match_leibniz(self, bound):
        # Seeded 4 x 4 and 5 x 5 draws, each expansion against the signed
        # sum over permutations.
        rng = random.Random(bound)
        for n in (4, 5):
            for _ in range(300):
                rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                assert int_det(rows) == leibniz(rows)

    def test_empty_matrix(self):
        assert int_det([]) == 1

    def test_rows_are_left_unchanged(self):
        # The elimination runs in place, on its own copy of the rows.
        lists = [[0, 2, 1], [0, 1, 1], [3, 0, 0]]
        tuples = tuple(map(tuple, lists))
        assert int_det(lists) == 3 and lists == [[0, 2, 1], [0, 1, 1], [3, 0, 0]]
        assert int_det(tuples) == 3 and tuples == ((0, 2, 1), (0, 1, 1), (3, 0, 0))


class TestHyperplaneNormal:
    def test_matches_leibniz_cofactors(self):
        # d rational points in dimension d, some affinely dependent: the
        # normal is the signed cofactor row of the difference matrix.
        rng = random.Random(12)
        for _ in range(200):
            d = rng.randint(2, 6)
            pts = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(d))
                   for _ in range(d)]
            if rng.random() < 0.2:
                pts[-1] = pts[0]
            rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
            expected = tuple(
                (-1) ** j * Fraction(leibniz([r[:j] + r[j + 1 :] for r in rows]))
                for j in range(d)
            )
            got = hyperplane_normal(pts)
            assert got == expected and all(type(c) is Fraction for c in got)


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

    def test_generators_follow_the_exponent_set_rules(self):
        # (-1, 0) = (-2, 0) + (1, 0) would lie in conv(G) + R_+^2, but the
        # LP assumes G >= 0: negative generators are rejected, not decided.
        with pytest.raises(InvalidInputError, match="exponents must be nonnegative"):
            cone_point_member((-1, 0), [(-2, 0), (0, -2)])
        with pytest.raises(InvalidInputError, match="at least one generator"):
            cone_point_member((1, 1), [])
        with pytest.raises(InvalidInputError, match="generators mix dimensions"):
            cone_point_member((1, 1), [(1, 0), (0, 1, 0)])

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

    def test_int_generators_build_no_vectors(self):
        # The point is scaled to the set's L (rescaling the set's integer
        # points only when the point's denominators need it), so a set of
        # int tuples builds none of its Fraction vectors. The answers are
        # those of scaling the generators and the point together.
        rng = random.Random(1974)
        sets = [vertex_rich(4, 6), random_vertex_rich(rng, 5, 4)]
        sets += [random_primary_ideal(rng, n).weight.generators.points for n in range(2, 7)]
        answers = []
        for gens in sets:
            checked = exponent_set(gens)
            n, top = len(gens[0]), max(map(max, gens))
            for _ in range(40):
                den = rng.choice((1, 1, 2, 3, 7))
                x = tuple(Fraction(rng.randint(0, top), den) for _ in range(n))
                *int_cols, int_x = integer_scaling([*gens, x])[1]
                answer = feasible(int_cols, int_x)
                assert cone_point_member(x, checked) == answer, (gens, x)
                answers.append(answer)
            assert "_vectors" not in vars(checked)
        assert answers.count(True) > 50 and answers.count(False) > 50

    def test_agrees_with_vertex_set(self):
        # x lies in P = conv(G) + R_+^n iff adding it to G leaves the vertex
        # set unchanged; the double description hull shares no code with
        # the LP. Points: quarter-integer points of the lower half of the
        # intercept box, points of compact facets shifted by +-1e-9, and
        # Monte Carlo style Fraction(float) * m.
        rng = random.Random(2026)
        eps = Fraction(1, 10**9)
        for _ in range(30):
            n = rng.randint(2, 6)
            poly = random_primary_ideal(rng, n, max_exp=6).weight.polyhedron
            gens = list(poly.generators)
            box = poly.axis_intercepts
            facet = rng.choice(poly.compact_facets)
            weights = [Fraction(rng.randint(1, 9)) for _ in facet.vertex_indices]
            on_facet = [
                sum(w * v[k] for w, v in zip(weights, poly.facet_points(facet))) / sum(weights)
                for k in range(n)
            ]
            points = [
                tuple(Fraction(rng.randint(0, int(2 * m)), 4) for m in box),
                tuple(max(c + rng.choice((-eps, eps)), 0) for c in on_facet),
                tuple(Fraction(rng.random()) * m for m in box),
            ]
            for x in points:
                unchanged = set(NewtonPolyhedron(gens + [x]).vertices) == set(poly.vertices)
                assert cone_point_member(x, gens) == unchanged


class TestFeasible:
    # feasible takes ints only; each hand case is its rational case
    # scaled by the lcm of the denominators.

    def test_boundary_is_feasible(self):
        # Columns (2, 1), (1, 2) and x = (3/2, 3/2), scaled by 2.
        assert feasible([(4, 2), (2, 4)], (3, 3))

    def test_non_int_entries_raise(self):
        # The same rational case unscaled: a Fraction would be
        # floor-divided by the pivots and answer False.
        with pytest.raises(TypeError):
            feasible([(2, 1), (1, 2)], (Fraction(3, 2), Fraction(3, 2)))
        with pytest.raises(TypeError):
            feasible([(Fraction(2), 1), (1, 2)], (3, 3))
        with pytest.raises(TypeError):
            feasible([(2, 1), (1, 2)], (3.0, 3))

    def test_just_below_boundary_is_infeasible(self):
        # x = (3/2, 3/2 - 1/10^9), scaled by d = 10^9.
        d = 10**9
        assert not feasible([(2 * d, d), (d, 2 * d)], (3 * d // 2, 3 * d // 2 - 1))

    def test_zero_column_is_feasible(self):
        # The zero column can grow without bound, so every x >= 0 is reached.
        assert feasible([(5, 5), (0, 0)], (1, 1))
        assert feasible([(0, 0, 0)], (0, 0, 0))

    def test_int_columns_stay_exact(self):
        # x = (1, 2 - 1/10^17) against (3, 0), (0, 3), scaled by d = 10^17.
        # In floats, 2 - 1e-17 rounds to 2 and x lands on the boundary.
        d = 10**17
        assert not feasible([(3 * d, 0), (0, 3 * d)], (d, 2 * d - 1))

    def test_agrees_with_fraction_simplex(self):
        # The fraction-free pivots against the Fraction tableau, seeded at
        # n = 2..6: points on conv(G), where sum(lambda) reaches exactly 1
        # and ratios tie (a column itself ties in every row), points
        # scaled just off it, random points, zero columns, and entries
        # over several distinct denominators. feasible gets the columns
        # and point scaled together to ints; cone_point_member gets the
        # rationals and scales them itself, with the point's denominators
        # differing from the set's lcm L.
        rng = random.Random(1968)
        dens = (1, 2, 3, 4, 5, 7, 9)
        answers = []
        for n in range(2, 7):
            for _ in range(80):
                cols = [
                    tuple(Fraction(rng.randint(0, 8), rng.choice(dens)) for _ in range(n))
                    for _ in range(rng.randint(1, 6))
                ]
                if rng.random() < 0.1:
                    cols.insert(rng.randint(0, len(cols)), (0,) * n)
                weights = [rng.randint(0, 3) for _ in cols]
                weights[rng.randrange(len(cols))] += 1
                on_hull = [
                    sum(w * c[k] for w, c in zip(weights, cols)) / sum(weights) for k in range(n)
                ]
                near = Fraction(rng.choice((-1, 1)), rng.choice((7, 1000, 10**9)))
                points = [
                    on_hull,
                    rng.choice(cols),
                    [c * (1 + near) for c in on_hull],
                    [max(c + rng.choice((-near, 0, near)), 0) for c in on_hull],
                    [Fraction(rng.randint(0, 16), rng.choice(dens)) for _ in range(n)],
                ]
                for x in points:
                    *int_cols, int_x = integer_scaling([*cols, x])[1]
                    answer = feasible(int_cols, int_x)
                    assert answer == fraction_feasible(cols, x), (cols, x)
                    assert cone_point_member(x, cols) == answer, (cols, x)
                    answers.append(answer)
        assert answers.count(True) > 600 and answers.count(False) > 300
