"""Newton polyhedron construction, covolume, intercepts, Minkowski sums."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelong.errors import InvalidInputError, NotPrimaryError
from lelong.geometry import cone_point_member
from lelong.newton import NewtonPolyhedron
from lelong.oracles import covolume_staircase_2d
from lelong.weights import MonomialWeight

from reference import polytope_volume
from support import ASTAR, random_psh, random_weight, unit, vertex_rich


def F(*args):
    return tuple(Fraction(a) for a in args)


class TestBuild:
    def test_astar_vertices_and_facets(self):
        poly = NewtonPolyhedron(ASTAR)
        assert poly.vertices == (F(0, 3), F(1, 1), F(3, 0))
        facets = {(f.normal, f.support): poly.facet_points(f) for f in poly.compact_facets}
        assert facets == {
            ((1, 2), 3): (F(1, 1), F(3, 0)),
            ((2, 1), 3): (F(0, 3), F(1, 1)),
        }

    def test_standard_simplex(self):
        poly = NewtonPolyhedron([(1, 0), (0, 1)])
        assert len(poly.compact_facets) == 1
        facet = poly.compact_facets[0]
        assert facet.normal == (1, 1)
        assert facet.support == 1

    def test_midpoint_redundancy(self):
        poly = NewtonPolyhedron([(2, 0), (0, 2), (1, 1)])
        assert poly.vertices == (F(0, 2), F(2, 0))
        assert len(poly.compact_facets) == 1
        assert poly.compact_facets[0].normal == (1, 1)
        assert poly.compact_facets[0].support == 2

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            NewtonPolyhedron([])

    def test_normals_are_primitive_and_positive(self):
        rng = random.Random(5)
        for _ in range(25):
            poly = random_weight(rng, rng.choice((2, 3)), max_exp=8).polyhedron
            for f in poly.compact_facets:
                assert all(c > 0 for c in f.normal)
                assert math.gcd(*(abs(c) for c in f.normal)) == 1
                assert f.support > 0

    def test_facets_supporting_with_n_incident_vertices(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.choice((2, 3))
            poly = random_weight(rng, n, max_exp=9).polyhedron
            for f in poly.compact_facets:
                vals = [sum(w * c for w, c in zip(f.normal, v)) for v in poly.vertices]
                assert min(vals) == f.support
                assert len(f.vertex_indices) >= n
                on_facet = [i for i, v in enumerate(vals) if v == f.support]
                assert tuple(on_facet) == f.vertex_indices


class TestCovolume:
    def test_astar(self):
        # Frozen from the 2-D staircase oracle (trapezoids 2 + 1).
        poly = NewtonPolyhedron(ASTAR)
        assert poly.covolume() == 3
        assert covolume_staircase_2d(ASTAR) == 3

    def test_unit_corner_simplex(self):
        for n in (2, 3, 4):
            gens = [tuple(int(i == k) for i in range(n)) for k in range(n)]
            assert NewtonPolyhedron(gens).covolume() == Fraction(1, math.factorial(n))

    def test_axis_triangle(self):
        assert NewtonPolyhedron([(2, 0), (0, 3)]).covolume() == 3

    def test_infinite_raises(self):
        with pytest.raises(NotPrimaryError):
            NewtonPolyhedron([(2, 0), (1, 1)]).covolume()

    def test_redundant_generator_is_noop(self):
        rng = random.Random(10)
        for _ in range(20):
            n = rng.choice((2, 3))
            poly = random_weight(rng, n, max_exp=6).polyhedron
            v = poly.vertices[0]
            bump = tuple(c + rng.randint(0, 3) for c in v)
            enlarged = NewtonPolyhedron(list(poly.generators) + [bump])
            assert enlarged.vertices == poly.vertices
            assert enlarged.compact_facets == poly.compact_facets
            assert enlarged.covolume() == poly.covolume()

    def test_matches_staircase_randomized(self):
        rng = random.Random(12)
        for _ in range(60):
            phi = random_weight(rng, 2, max_exp=12)
            assert phi.polyhedron.covolume() == covolume_staircase_2d(phi.generators)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_covolume_is_the_sum_of_the_cone_volumes(self, n):
        # covolume() is one Fraction of the sum of the int cone totals;
        # the same cones summed as Fractions, on sets with L = 1..4.
        rng = random.Random(50 + n)
        for _ in range(8):
            scale = rng.randint(1, 4)
            gens = random_weight(rng, n, max_exp=9).generators
            poly = NewtonPolyhedron([tuple(c / scale for c in g) for g in gens])
            assert poly.generators.scale == scale
            denominator = scale**n * math.factorial(n)
            volumes = [Fraction(t, denominator) for t in poly._facet_cone_volumes]
            assert type(poly.covolume()) is Fraction
            assert poly.covolume() == sum(volumes, Fraction(0))
            masses = [a.mass for a in MonomialWeight(poly.generators).lelong_measure().atoms]
            assert masses == [math.factorial(n) * v for v in volumes]

    def test_at_least_one_facet_for_weights(self):
        rng = random.Random(13)
        for _ in range(20):
            poly = random_weight(rng, rng.choice((2, 3, 4))).polyhedron
            assert len(poly.compact_facets) >= 1


class TestAxisIntercepts:
    def test_astar(self):
        assert NewtonPolyhedron(ASTAR).axis_intercepts == (3, 3)

    def test_missing_axis(self):
        assert NewtonPolyhedron([(2, 0), (1, 1)]).axis_intercepts == (2, math.inf)

    def test_maximal_ideal(self):
        gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert NewtonPolyhedron(gens).axis_intercepts == (1, 1, 1)

    def test_zero_generator(self):
        assert NewtonPolyhedron([(0, 0), (1, 2)]).axis_intercepts == (0, 0)


class TestMinkowski:
    def test_hand_hull(self):
        left = NewtonPolyhedron(ASTAR)
        right = NewtonPolyhedron([(2, 0), (0, 2)])
        total = left.minkowski_sum(right)
        assert total.vertices == (F(0, 5), F(1, 3), F(3, 1), F(5, 0))

    def test_doubling_scales_covolume(self):
        for n in (2, 3):
            gens = [tuple(int(i == k) for i in range(n)) for k in range(n)]
            poly = NewtonPolyhedron(gens)
            doubled = poly.minkowski_sum(poly)
            assert doubled.vertices == tuple(
                tuple(2 * c for c in v) for v in poly.vertices
            )
            assert doubled.covolume() == Fraction(2**n, math.factorial(n))

    def test_identity_element(self):
        poly = NewtonPolyhedron(ASTAR)
        total = poly.minkowski_sum(NewtonPolyhedron([(0, 0)]))
        assert total.dimension == poly.dimension
        assert total.vertices == poly.vertices

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            NewtonPolyhedron(ASTAR).minkowski_sum(NewtonPolyhedron([(1, 0, 0)]))


def assert_masses_match_polytope_volume(phi):
    """Each atom mass equals n! times the brute-force volume of the cone
    over its facet."""
    poly = phi.polyhedron
    n = poly.dimension
    origin = (0,) * n
    for facet, atom in zip(poly.compact_facets, phi.lelong_measure().atoms):
        ref = polytope_volume([origin, *poly.facet_points(facet)])
        assert atom.mass == math.factorial(n) * ref


class TestVertexRich:
    # Residual masses and facet counts frozen from the brute-force
    # C(V, n) facet scan.
    @pytest.mark.parametrize(
        "n, m, tau, facets",
        [(4, 4, 1504, 34), (5, 3, 613, 21), (6, 2, 76, 7)],
    )
    def test_residual_mass(self, n, m, tau, facets):
        gens = vertex_rich(n, m)
        phi = MonomialWeight(gens)
        assert phi.residual_mass() == tau
        assert len(phi.polyhedron.vertices) == len(gens)
        assert len(phi.polyhedron.compact_facets) == facets


class TestAgainstReferences:
    def test_vertices_and_masses_match_independent_references(self):
        # Vertices against exact LP membership of each generator in the
        # hull of the others. The inputs: weights at n = 2..5, and at
        # n = 6 with max_exp=16 (at the default most n = 6 draws are
        # simplicial); each weight again with the midpoint of two vertices
        # of a compact facet added, a non-vertex on the boundary; and psh
        # sets with unreached axes, whose polyhedra have unbounded faces.
        rng = random.Random(31)
        weights = [random_weight(rng, n, max_exp=9) for n in (2, 3, 4, 5) for _ in range(8)]
        weights += [random_weight(rng, 6, max_exp=16) for _ in range(8)]
        for phi in list(weights):
            a, b = phi.polyhedron.facet_points(phi.polyhedron.compact_facets[0])[:2]
            midpoint = tuple((x + y) / 2 for x, y in zip(a, b))
            weights.append(MonomialWeight([*phi.generators, midpoint]))
            assert midpoint not in weights[-1].polyhedron.vertices
        psh = [random_psh(rng, n) for n in range(2, 7) for _ in range(6)]
        psh = [u for u in psh if u.generators.unreached]
        assert len(psh) > 20
        for u in weights + psh:
            poly = u.polyhedron
            for g in poly.generators:
                others = [q for q in poly.generators if q != g]
                redundant = bool(others) and cone_point_member(g, others)
                assert (g in poly.vertices) != redundant
            if isinstance(u, MonomialWeight):
                assert_masses_match_polytope_volume(u)

    @pytest.mark.parametrize("n, m, non_simplicial", [(4, 2, 1), (4, 3, 4)])
    def test_masses_on_non_simplicial_facets(self, n, m, non_simplicial):
        phi = MonomialWeight(vertex_rich(n, m))
        facets = phi.polyhedron.compact_facets
        assert sum(len(f.vertex_indices) > n for f in facets) == non_simplicial
        assert_masses_match_polytope_volume(phi)


@st.composite
def integer_weights(draw, max_exp=7):
    """Generators of a MonomialWeight in dimension 2..6: a pure power on
    every axis plus a few nonzero extras."""
    n = draw(st.integers(2, 6))
    gens = [unit(n, k, draw(st.integers(1, max_exp))) for k in range(n)]
    coords = st.lists(st.integers(0, max_exp), min_size=n, max_size=n)
    gens += [tuple(e) for e in draw(st.lists(coords, max_size=4)) if any(e)]
    return gens


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(integer_weights(), st.randoms(use_true_random=False))
    def test_permuting_coordinates_permutes_vertices_and_atoms(self, gens, rng):
        n = len(gens[0])
        perm = list(range(n))
        rng.shuffle(perm)

        def move(v):
            return tuple(v[perm[i]] for i in range(n))

        phi = MonomialWeight(gens)
        moved = MonomialWeight([move(g) for g in gens])
        assert moved.polyhedron.vertices == tuple(sorted(move(v) for v in phi.polyhedron.vertices))
        atoms = sorted((move(a.vertex), a.mass) for a in phi.lelong_measure().atoms)
        assert sorted((a.vertex, a.mass) for a in moved.lelong_measure().atoms) == atoms

    @settings(max_examples=50, deadline=None)
    @given(integer_weights(), st.data())
    def test_monotone_under_generators(self, gens, data):
        # Adding a generator can only enlarge the polyhedron.
        n = len(gens[0])
        extra = data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n).filter(any))
        bigger = NewtonPolyhedron(gens + [tuple(extra)])
        assert bigger.covolume() <= NewtonPolyhedron(gens).covolume()

    @settings(max_examples=40, deadline=None)
    @given(integer_weights(), st.integers(1, 5), st.integers(1, 4))
    def test_covolume_homogeneous(self, gens, num, den):
        k = Fraction(num, den)
        n = len(gens[0])
        scaled = NewtonPolyhedron([tuple(k * c for c in g) for g in gens])
        assert scaled.covolume() == k**n * NewtonPolyhedron(gens).covolume()

    @settings(max_examples=40, deadline=None)
    @given(integer_weights())
    def test_integer_generators_give_integer_masses(self, gens):
        for atom in MonomialWeight(gens).lelong_measure().atoms:
            assert atom.mass.denominator == 1
