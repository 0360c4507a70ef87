"""Newton polyhedron construction, covolume, intercepts, and the
polyhedra of pairwise generator sums (Minkowski sums); the hull routines
against the orthant double description, on generator masks; the closed
form of simplicial sets against the general path; the hull certificate
of valid facet rows and a radial tiling."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelong import newton
from lelong.errors import InvalidInputError, NotPrimaryError
from lelong.geometry import cone_point_member, int_det
from lelong.newton import NewtonPolyhedron, _bits, _dual_rays, _plane_rays, _pull
from lelong.oracles import covolume_staircase_2d
from lelong.rationals import exponent_set
from lelong.weights import DirectionalWeight, MonomialWeight

from reference import (
    bareiss_det,
    certify,
    orthant_dual_rays,
    polytope_volume,
    pull_every_side,
)
from support import (
    ASTAR,
    random_direction,
    random_ideal,
    random_primary_ideal,
    random_psh,
    random_vertex_rich,
    random_weight,
    unit,
    vertex_rich,
)


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


def minkowski(left, right):
    """The polyhedron of the pairwise sums of two generator lists, which is
    the Minkowski sum of their polyhedra."""
    return NewtonPolyhedron([tuple(a + b for a, b in zip(p, q)) for p in left for q in right])


class TestMinkowski:
    def test_hand_hull(self):
        hull = (F(0, 5), F(1, 3), F(3, 1), F(5, 0))
        assert minkowski(ASTAR, [(2, 0), (0, 2)]).vertices == hull
        # A generator that is no vertex adds only sums inside the polyhedron.
        assert minkowski(ASTAR, [(2, 0), (0, 2), (1, 1)]).vertices == hull

    def test_doubling_scales_covolume(self):
        for n in (2, 3):
            gens = [tuple(int(i == k) for i in range(n)) for k in range(n)]
            poly = NewtonPolyhedron(gens)
            doubled = minkowski(gens, gens)
            assert doubled.vertices == tuple(
                tuple(2 * c for c in v) for v in poly.vertices
            )
            assert doubled.covolume() == Fraction(2**n, math.factorial(n))

    def test_identity_element(self):
        poly = NewtonPolyhedron(ASTAR)
        total = minkowski(ASTAR, [(0, 0)])
        assert total.dimension == poly.dimension
        assert total.vertices == poly.vertices


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
    # C(V, n) facet scan; (5,6) and (6,5), where the insertion order of the
    # double description changes its work most, from the set-order hull;
    # the plane sizes from the staircase oracle, which the test checks
    # again, (2,32) also as the benchmark pins it.
    @pytest.mark.parametrize(
        "n, m, tau, facets",
        [
            (2, 32, 350208, 32),
            (2, 300, 2700060000, 300),
            (4, 4, 1504, 34),
            (5, 3, 613, 21),
            (6, 2, 76, 7),
            (5, 6, 146938, 246),
            (6, 5, 136865, 210),
        ],
    )
    def test_residual_mass(self, n, m, tau, facets):
        gens = vertex_rich(n, m)
        phi = MonomialWeight(gens)
        assert phi.residual_mass() == tau
        assert len(phi.polyhedron.vertices) == len(gens)
        assert len(phi.polyhedron.compact_facets) == facets
        if n == 2:
            assert 2 * covolume_staircase_2d(gens) == tau


class TestAgainstReferences:
    def test_vertices_and_masses_match_independent_references(self):
        # Vertices against exact LP membership of each generator in the
        # hull of the others. The inputs: weights at n = 2..5, and at
        # n = 6 with max_exp=16 (at the default most n = 6 draws are
        # simplicial); each weight again with the midpoint of two vertices
        # of a compact facet added, a non-vertex on the boundary; and psh
        # sets with unreached axes, whose polyhedra have unbounded faces.
        # Three random vertex-rich weights per n = 3..6, drawn apart, keep
        # the double description in the draws: most others are simplicial
        # and take the closed form.
        rng = random.Random(31)
        weights = [random_weight(rng, n, max_exp=9) for n in (2, 3, 4, 5) for _ in range(8)]
        weights += [random_weight(rng, 6, max_exp=16) for _ in range(8)]
        rich = random.Random(32)
        weights += [
            MonomialWeight(random_vertex_rich(rich, n, m))
            for n, m in SMALL_VERTEX_RICH
            for _ in range(3)
        ]
        multi_facet = {n: 0 for n in range(3, 7)}
        for phi in weights[8:]:
            multi_facet[phi.dimension] += len(phi.polyhedron._facet_rows) > 1
        assert min(multi_facet.values()) >= 3, multi_facet
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

    # The whole family when the seed is None, else a seeded random third of
    # it with the pure powers: pulled facets at n = 5 and 6 as well.
    @pytest.mark.parametrize(
        "n, m, seed, non_simplicial",
        [(4, 2, None, 1), (4, 3, None, 4), (4, 5, 1, 3), (5, 4, 1, 13), (6, 3, 1, 14)],
        ids=["4-2-1", "4-3-4", "draw-4-5-3", "draw-5-4-13", "draw-6-3-14"],
    )
    def test_masses_on_non_simplicial_facets(self, n, m, seed, non_simplicial):
        if seed is None:
            phi = MonomialWeight(vertex_rich(n, m))
        else:
            phi = MonomialWeight(random_vertex_rich(random.Random(seed), n, m))
        facets = phi.polyhedron.compact_facets
        assert sum(len(f.vertex_indices) > n for f in facets) == non_simplicial
        assert_masses_match_polytope_volume(phi)


class TestCertificate:
    # The five benchmark vertex-rich sizes, then three grown ones.
    @pytest.mark.parametrize(
        "n, m", [(2, 32), (3, 5), (3, 6), (4, 3), (5, 2), (5, 6), (6, 5), (3, 30)]
    )
    def test_vertex_rich(self, n, m):
        assert certify(NewtonPolyhedron(vertex_rich(n, m))) == []

    def test_seeded_weights(self):
        # Most random weights take the closed form; three random
        # vertex-rich sets per n, drawn apart, keep the double description
        # in at least five draws at each n.
        rng, rich = random.Random(61), random.Random(64)
        for n, m in SMALL_VERTEX_RICH:
            polys = [random_weight(rng, n, max_exp=16).polyhedron for _ in range(15)]
            polys += [NewtonPolyhedron(random_vertex_rich(rich, n, m)) for _ in range(3)]
            assert sum(len(poly._facet_rows) > 1 for poly in polys) >= 5
            for poly in polys:
                assert certify(poly) == []

    @staticmethod
    def _mutable_polyhedra():
        """Polyhedra with two or more compact facets, each with the first,
        a middle and the last facet's index to mutate."""
        rng = random.Random(62)
        sets = [ASTAR, vertex_rich(3, 5), vertex_rich(4, 3), vertex_rich(5, 2)]
        sets += [random_vertex_rich(rng, n, m) for n, m in VERTEX_RICH_DRAWS]
        draws = [random_weight(rng, n, max_exp=16) for n in range(3, 7) for _ in range(6)]
        sets += [phi.generators for phi in draws]
        for gens in sets:
            poly = NewtonPolyhedron(gens)
            count = len(poly._facet_rows)
            if count >= 2:
                yield poly, sorted({0, count // 2, count - 1})

    def test_rejects_a_dropped_facet(self):
        for poly, indices in self._mutable_polyhedra():
            rows, masks = poly._facet_rows, poly._facet_masks
            for i in indices:
                poly._facet_rows = rows[:i] + rows[i + 1 :]
                poly._facet_masks = masks[:i] + masks[i + 1 :]
                (fault,) = certify(poly)
                assert "cover" in fault

    def test_rejects_a_support_shifted_down(self):
        for poly, indices in self._mutable_polyhedra():
            rows = poly._facet_rows
            for i in indices:
                w, t = rows[i]
                poly._facet_rows = rows[:i] + ((w, t - 1),) + rows[i + 1 :]
                assert certify(poly) == [f"row {w, t - 1} is not tight on its mask"]

    def test_own_determinant_equals_int_det(self):
        rng = random.Random(63)
        for _ in range(400):
            n = rng.randint(1, 7)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                # A zero first pivot, so that a row swap must run.
                rows[0][0] = 0
            assert bareiss_det(rows) == int_det(rows)


# Sizes of the random vertex-rich draws; the start cone and the pulling
# tests take 12 of each.
VERTEX_RICH_DRAWS = [(4, 6), (5, 5), (6, 4)]

# Per n = 3..6, a small vertex-rich size, for random thirds of it.
SMALL_VERTEX_RICH = [(3, 4), (4, 3), (5, 2), (6, 2)]


def _plane_sets(rng):
    """Generator lists at n = 2 that the staircase chain must get right:
    vertex_rich(2, m) for m = 1..40; every lattice point of a segment from
    (0, a) to (b, 0), so that the chain drops collinear points; dominated
    points that share x or y with a vertex; and ties on the least
    coordinate, whose axis rays are tight on several points."""
    sets = [vertex_rich(2, m) for m in range(1, 41)]
    for _ in range(12):
        a, b = rng.randint(1, 24), rng.randint(1, 24)
        g = math.gcd(a, b)
        sets.append([(i * b // g, a - i * a // g) for i in range(g + 1)])
    for m in range(2, 14):
        gens = vertex_rich(2, m)
        x, y = rng.choice(gens)
        d = rng.randint(1, 5)
        sets.append(gens + [(x, y + d), (x + d, y)])
    for _ in range(12):
        x, y = rng.randint(1, 6), rng.randint(1, 6)
        sets.append(
            [(x, y + rng.randint(1, 9)) for _ in range(3)]
            + [(x + rng.randint(1, 9), y) for _ in range(3)]
            + [(x + rng.randint(0, 5), y + rng.randint(0, 5)) for _ in range(3)]
        )
    return sets


def _start_cone_sets():
    """Seeded checked sets at n = 2..6: weights, primary ideals, psh sets
    (many with unreached axes) and ideals, each family's sets again over
    rationals (L > 1), with the zero vector, and with a second, larger
    pure power on one axis; then the vertex-rich sizes, and random thirds
    of three more with their pure powers; then the sets of
    ``_plane_sets``, each again with the zero vector, over rationals and
    with the points on one axis dropped."""
    rng = random.Random(47)
    for n in range(2, 7):
        for _ in range(36):
            for gens in (
                random_weight(rng, n).generators,
                random_primary_ideal(rng, n).weight.generators,
                random_psh(rng, n).generators,
                random_ideal(rng, n).psh.generators,
            ):
                yield gens
                yield exponent_set(tuple(c / rng.randint(1, 6) for c in g) for g in gens)
                yield exponent_set([*gens, (0,) * n])
                k = rng.randrange(n)
                top = max(g[k] for g in gens)
                yield exponent_set([*gens, unit(n, k, top + rng.randint(1, 3))])
    for n, m in [(2, 32), (3, 5), (3, 6), (4, 3), (5, 2), (5, 6), (6, 5)]:
        yield exponent_set(vertex_rich(n, m))
    for n, m in VERTEX_RICH_DRAWS:
        for _ in range(12):
            yield exponent_set(random_vertex_rich(rng, n, m))
    rng = random.Random(59)
    for gens in _plane_sets(rng):
        yield exponent_set(gens)
        yield exponent_set([*gens, (0, 0)])
        yield exponent_set(tuple(Fraction(c, rng.randint(1, 6)) for c in g) for g in gens)
        k = rng.randrange(2)
        if any(g[k] for g in gens):
            yield exponent_set(g for g in gens if g[k])


def _least_pure_powers(points):
    """Per axis, the index of the least pure power among ``points`` by
    definition, or None."""
    n = len(points[0])
    least = []
    for k in range(n):
        on_axis = [j for j, p in enumerate(points) if p[k] and not any(p[:k] + p[k + 1 :])]
        least.append(min(on_axis, key=lambda j: points[j][k], default=None))
    return tuple(least)


def _generator_masks(rays, n):
    """The orthant reference's (ray, zero set) pairs as the hull routines
    return them, sorted: the zero sets shifted right past the n + 1
    constraint bits. Those bits follow from the ray, so nothing is lost:
    bit k < n is set iff w_k = 0, and bit n iff t = 0."""
    for r, z in rays:
        assert z & ((1 << (n + 1)) - 1) == sum(1 << k for k, c in enumerate(r) if not c)
    return sorted((r, z >> (n + 1)) for r, z in rays)


class TestStartCone:
    @pytest.mark.parametrize("n, m", [(6, 2), (6, 3), (5, 4), (5, 5)])
    def test_degenerate_pairs_take_the_scan(self, n, m):
        # At these sizes the scan rejects pairs of degenerate rays with
        # d - 2 common tight inequalities, some of them tight on exactly d.
        # Combining such a pair changes the rays here; on the sweep below
        # it blows the ray count up before any comparison.
        gens = exponent_set(vertex_rich(n, m))
        rays = _generator_masks(orthant_dual_rays(gens.points, n), n)
        assert sorted(_dual_rays(gens)) == rays

    def test_rays_and_zero_sets_equal_the_orthant_start(self):
        # The double description started from the cone of the least pure
        # powers, and at n = 2 the staircase chain, give the rays and the
        # generator masks of the double description started from the
        # orthant that inserts every point; the masks index the points only.
        seen = {"sets": 0, "rational": 0, "zero": 0, "second power": 0, "unreached": 0}
        for gens in _start_cone_sets():
            points, n = gens.points, len(gens[0])
            assert gens.pure_powers == _least_pure_powers(points)
            rays = _generator_masks(orthant_dual_rays(points, n), n)
            hull = _dual_rays(gens)
            assert sorted(hull) == rays
            assert all(z >> len(points) == 0 for _, z in hull)
            if n == 2:
                plane = _plane_rays(gens)
                assert sorted(plane) == rays
                assert all(z >> len(points) == 0 for _, z in plane)
            on_axes = [sum(p[k] and not any(p[:k] + p[k + 1 :]) for p in points) for k in range(n)]
            seen["sets"] += 1
            seen["rational"] += gens.scale > 1
            seen["zero"] += not any(points[0])
            seen["second power"] += max(on_axes) > 1
            seen["unreached"] += None in gens.pure_powers
        assert seen["sets"] >= 1000
        assert min(seen.values()) >= 150, seen

    def test_pull_gives_the_simplices_of_every_side(self):
        # Dropping the sides with fewer than dim vertices before the
        # maximality test leaves the triangulation of each compact facet.
        rng = random.Random(53)
        polys = [NewtonPolyhedron(vertex_rich(n, m)) for n, m in [(3, 6), (4, 3), (5, 6), (6, 5)]]
        polys += [
            random_weight(rng, n, max_exp=16).polyhedron for n in range(3, 7) for _ in range(10)
        ]
        polys += [
            NewtonPolyhedron(random_vertex_rich(rng, n, m))
            for n, m in VERTEX_RICH_DRAWS
            for _ in range(12)
        ]
        non_simplicial = 0
        for poly in polys:
            n, ids = poly.dimension, poly._vertex_ids
            cuts = [tight for _, tight in poly._rays]
            assert len(poly._facet_masks) == len(poly.compact_facets)
            for facet, face in zip(poly.compact_facets, poly._facet_masks):
                assert face == sum(1 << ids[i] for i in facet.vertex_indices)
                simplices = _pull(face, n - 1, cuts)
                assert sorted(simplices) == sorted(pull_every_side(face, n - 1, cuts))
                assert all(len(_bits(s)) == n for s in simplices)
                non_simplicial += len(simplices) > 1
        assert non_simplicial > 100


class TestPlaneRays:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=12))
    def test_equal_the_double_description(self, gens):
        gens = exponent_set(gens)
        rays = _generator_masks(orthant_dual_rays(gens.points, 2), 2)
        assert sorted(_dual_rays(gens)) == rays
        plane = _plane_rays(gens)
        assert sorted(plane) == rays
        assert all(z >> len(gens) == 0 for _, z in plane)

    def test_the_plane_never_runs_the_double_description(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("the double description ran")

        monkeypatch.setattr(newton, "_dual_rays", refuse)
        assert NewtonPolyhedron(ASTAR).covolume() == 3
        with pytest.raises(RuntimeError, match="double description"):
            NewtonPolyhedron([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0)])


def _general_path(gens):
    """The polyhedron of the checked set ``gens`` with its rays, vertices
    and facet rows taken by calling ``_dual_rays``, ``_minimal_vertices``
    and ``_compact_facets`` directly, whatever the set."""
    poly = NewtonPolyhedron.__new__(NewtonPolyhedron)
    poly.generators, poly.dimension = gens, len(gens.points[0])
    poly._rays = _dual_rays(gens)
    poly._vertex_ids = poly._minimal_vertices()
    poly._facet_rows, poly._facet_masks = poly._compact_facets()
    return poly


def _below_the_pure_powers(gens):
    """Whether a vector v of the checked set ``gens``, every axis reached,
    has sum_k v_k / M_k < 1 for the least pure powers M_k e_k, taken by
    definition: whether it lies below their hyperplane."""
    powers = [gens[i][k] for k, i in enumerate(_least_pure_powers(gens.points))]
    return any(sum(map(Fraction.__truediv__, v, powers)) < 1 for v in gens)


def _on_the_hyperplane(rng, n):
    """Pure powers M_k e_k with q | M_k, and one to four points
    sum_k (c_k / q) M_k e_k of their simplex, c >= 0 summing to q, each
    with two or more c_k > 0: on the hyperplane, and none a vertex."""
    q = rng.choice((2, 3, 4))
    powers = [q * rng.randint(1, 4) for _ in range(n)]
    gens = [unit(n, k, m) for k, m in enumerate(powers)]
    while len(gens) == n or rng.random() < 0.6 and len(gens) < n + 4:
        c = [0] * n
        for _ in range(q):
            c[rng.randrange(n)] += 1
        if max(c) < q:
            gens.append(tuple(ck * m // q for ck, m in zip(c, powers)))
    return gens


def _closed_form_sets():
    """Seeded (family, checked set) pairs at n = 3..6: weights at max_exp
    6, 12 and 16, primary ideals, directional weights, pure powers with
    non-vertex points on their hyperplane, each of those scaled by 1/s
    (L > 1) and with every coordinate over its own denominator; and the
    points on the hyperplane with one of them moved just below it, by 1
    off a positive coordinate, which must take the general path."""
    rng = random.Random(71)
    for n in range(3, 7):
        for _ in range(50):
            families = {
                "weight 6": random_weight(rng, n, max_exp=6).generators,
                "weight 12": random_weight(rng, n).generators,
                "weight 16": random_weight(rng, n, max_exp=16).generators,
                "ideal": random_primary_ideal(rng, n).weight.generators,
                "directional": DirectionalWeight(random_direction(rng, n)).generators,
                "on the hyperplane": exponent_set(_on_the_hyperplane(rng, n)),
            }
            s = rng.randint(2, 6)
            families["scaled"] = exponent_set(
                tuple(Fraction(c, s) for c in g) for g in families["on the hyperplane"]
            )
            families["rational"] = exponent_set(
                tuple(Fraction(c, rng.randint(1, 6)) for c in g) for g in families["weight 12"]
            )
            yield from families.items()
            # Moved so that it stays off the axes, or it would be a new
            # least pure power with a hyperplane of its own.
            gens = list(families["on the hyperplane"].points)
            moves = [
                (j, k)
                for j, g in enumerate(gens)
                for k, c in enumerate(g)
                if c > 1 and g.count(0) < n - 1 or c == 1 and g.count(0) < n - 2
            ]
            if moves:
                j, k = rng.choice(moves)
                gens[j] = tuple(c - (i == k) for i, c in enumerate(gens[j]))
                yield "just below", exponent_set(gens)


class TestClosedForm:
    ATTRIBUTES = (
        "_rays",
        "_vertex_ids",
        "_facet_rows",
        "_facet_masks",
        "_facet_cone_volumes",
        "compact_facets",
        "vertices",
    )

    def test_equals_the_general_path(self, monkeypatch):
        # The closed form is taken exactly when no vector lies below the
        # hyperplane of the least pure powers, and then every attribute,
        # the rays in order, equals the general path's; the polyhedron is
        # certified. A set with a point below runs the double description.
        ran = []
        monkeypatch.setattr(newton, "_dual_rays", lambda gens: ran.append(gens) or _dual_rays(gens))
        closed = {}
        for family, gens in _closed_form_sets():
            ran.clear()
            poly = NewtonPolyhedron(gens)
            below = _below_the_pure_powers(gens)
            assert ran == ([gens] if below else [])
            if family == "just below":
                assert below
            elif family in ("directional", "on the hyperplane", "scaled"):
                assert not below
            general = _general_path(gens)
            for name in self.ATTRIBUTES:
                assert getattr(poly, name) == getattr(general, name), name
            if not below:
                assert len(poly._facet_rows) == 1 and certify(poly) == []
            key = family, len(gens.points[0])
            closed[key] = closed.get(key, 0) + (not below)
        for (family, n), count in closed.items():
            if family == "just below":
                assert count == 0
            elif family != "rational":
                assert count >= 2, (family, n, count)
        assert sum(closed.values()) >= 1200

    @pytest.mark.parametrize("n", range(3, 7))
    def test_an_unreached_axis_takes_the_general_path(self, n, monkeypatch):
        # No point lies below the hyperplane of the pure powers that there
        # are, but the last axis has none, so the polyhedron has unbounded
        # faces and the double description runs.
        ran = []
        monkeypatch.setattr(newton, "_dual_rays", lambda gens: ran.append(gens) or _dual_rays(gens))
        rng = random.Random(90 + n)
        for _ in range(10):
            gens = [unit(n, k, rng.randint(1, 6)) for k in range(n - 1)]
            gens += [tuple(c + rng.randint(0, 2) for c in g[:-1]) + (rng.randint(1, 4),) for g in gens]
            gens = exponent_set(gens)
            assert gens.unreached == (n - 1,)
            poly = NewtonPolyhedron(gens)
            assert ran.pop() is gens
            general = _general_path(gens)
            for name in ("_rays", "_vertex_ids", "_facet_rows", "_facet_masks"):
                assert getattr(poly, name) == getattr(general, name), name

    @pytest.mark.parametrize("n", range(3, 7))
    def test_simplicial_sets_skip_the_three_passes(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("a pass of the general path ran")

        monkeypatch.setattr(newton, "_dual_rays", refuse)
        monkeypatch.setattr(NewtonPolyhedron, "_minimal_vertices", refuse)
        monkeypatch.setattr(NewtonPolyhedron, "_compact_facets", refuse)
        rng = random.Random(80 + n)
        for _ in range(10):
            # The measure of e_k / a_k is one atom at -a of mass 1/(a_1...a_n).
            a = random_direction(rng, n)
            phi = DirectionalWeight(a)
            (atom,) = phi.lelong_measure().atoms
            assert atom == (tuple(-c for c in a), 1 / math.prod(a))
            assert phi.extremal_direction().direction == a
            gens = _on_the_hyperplane(rng, n)
            poly = NewtonPolyhedron(gens)
            assert len(poly.vertices) == n < len(gens)
            assert poly.covolume() == Fraction(math.prod(map(max, gens[:n])), math.factorial(n))


def _one_facet_sets():
    """Seeded (family, checked set) pairs at n = 2..6: weights at max_exp
    6, 12 and 16, primary ideals, directional weights and pure powers with
    points on their hyperplane. The ones with one compact facet are the
    closed form at n >= 3 and the plane sets with one edge at n = 2."""
    rng = random.Random(97)
    for n in range(2, 7):
        for _ in range(25):
            yield "weight 6", random_weight(rng, n, max_exp=6).generators
            yield "weight 12", random_weight(rng, n).generators
            yield "weight 16", random_weight(rng, n, max_exp=16).generators
            yield "ideal", random_primary_ideal(rng, n).weight.generators
            yield "directional", DirectionalWeight(random_direction(rng, n)).generators
            yield "on the hyperplane", exponent_set(_on_the_hyperplane(rng, n))


def _triangulated_volumes(poly):
    """Per compact facet, the sum of |int_det| over the simplices of
    ``_pull`` on its mask, cut by the masks of ``poly._rays``."""
    points, n = poly.generators.points, poly.dimension
    cuts = [tight for _, tight in poly._rays]
    return tuple(
        sum(abs(int_det([points[j] for j in _bits(s)])) for s in _pull(face, n - 1, cuts))
        for face in poly._facet_masks
    )


def _brute_force_volumes(poly):
    """Per compact facet, L^n n! times the brute-force volume of the
    cone from the origin over its vertices."""
    n = poly.dimension
    factor = poly.generators.scale**n * math.factorial(n)
    return tuple(
        factor * polytope_volume([(0,) * n, *poly.facet_points(facet)])
        for facet in poly.compact_facets
    )


class TestOneFacetVolume:
    def test_the_product_of_the_pure_powers_is_the_cone_volume(self, monkeypatch):
        # One compact facet with every axis reached: the cone volume is the
        # product of the least pure powers, read without the triangulation,
        # and equals the triangulated and the brute-force volumes.
        def refuse(*args):
            raise AssertionError("the facet was triangulated")

        seen = {}
        for family, gens in _one_facet_sets():
            poly = NewtonPolyhedron(gens)
            if len(poly._facet_rows) > 1:
                continue
            n = poly.dimension
            with monkeypatch.context() as m:
                m.setattr(newton, "_pull", refuse)
                m.setattr(newton, "int_det", refuse)
                volumes = poly._facet_cone_volumes
            (volume,) = volumes
            assert volume == math.prod(gens.points[i][k] for k, i in enumerate(gens.pure_powers))
            assert volumes == _triangulated_volumes(poly) == _brute_force_volumes(poly)
            key = family, n
            seen[key] = seen.get(key, 0) + 1
            if family == "directional" and gens.scale > 1:
                seen["directional, L > 1"] = seen.get("directional, L > 1", 0) + 1
            if len(gens) > n:
                seen["more points than vertices"] = seen.get("more points than vertices", 0) + 1
        assert len(seen) == 6 * 5 + 2
        assert min(seen.values()) >= 3, seen
        assert seen["directional, L > 1"] >= 100 and seen["more points than vertices"] >= 100

    def test_several_facets_are_triangulated(self, monkeypatch):
        # The control: every facet of a polyhedron with more than one is
        # triangulated, as the brute-force volumes confirm.
        pulled = []
        monkeypatch.setattr(newton, "_pull", lambda *args: pulled.append(args) or _pull(*args))
        rng = random.Random(98)
        sets = [ASTAR, vertex_rich(3, 3), [(4, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)]]
        sets += [random_vertex_rich(rng, n, m) for n, m in [(4, 4), (5, 3), (6, 3)]]
        for gens in sets:
            poly = NewtonPolyhedron(gens)
            facets = len(poly._facet_rows)
            assert facets > 1
            pulled.clear()
            volumes = poly._facet_cone_volumes
            # One call per facet; its recursion calls on lower dimensions.
            assert sum(dim == poly.dimension - 1 for _, dim, _ in pulled) == facets
            assert volumes == _brute_force_volumes(poly)

    def test_an_unreached_axis_is_triangulated(self):
        # One compact facet, but the last axis has no pure power: the facet
        # is not the simplex of pure powers, and the volume is triangulated.
        poly = NewtonPolyhedron([(0, 5, 0), (3, 1, 3), (4, 0, 0)])
        assert poly.generators.unreached == (2,) and len(poly._facet_rows) == 1
        assert poly._facet_cone_volumes == _triangulated_volumes(poly) == (60,)


@st.composite
def integer_weights(draw, max_exp=7):
    """Generators of a MonomialWeight in dimension 2..6: a pure power on
    every axis plus a few nonzero extras."""
    n = draw(st.integers(2, 6))
    gens = [unit(n, k, draw(st.integers(1, max_exp))) for k in range(n)]
    coords = st.lists(st.integers(0, max_exp), min_size=n, max_size=n)
    gens += [tuple(e) for e in draw(st.lists(coords, max_size=4)) if any(e)]
    return gens


@st.composite
def simplicial_weights(draw, max_exp=4):
    """Generators that take the closed form at n = 3..6: pure powers
    q m_k e_k, and points of their simplex sum_k (c_k / q) q m_k e_k,
    c >= 0 summing to q, each plus a small nonnegative vector, so on or
    above the hyperplane of the pure powers."""
    n = draw(st.integers(3, 6))
    q = draw(st.integers(1, 3))
    powers = [q * draw(st.integers(1, max_exp)) for _ in range(n)]
    gens = [unit(n, k, m) for k, m in enumerate(powers)]
    for _ in range(draw(st.integers(0, 4))):
        cut = sorted(draw(st.lists(st.integers(0, q), min_size=n - 1, max_size=n - 1)))
        c = [b - a for a, b in zip([0, *cut], [*cut, q])]
        up = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        gens.append(tuple(ck * m // q + u for ck, m, u in zip(c, powers, up)))
    return gens


# Both sources: weights with a few uniform extras, and the closed form.
WEIGHT_SETS = st.one_of(integer_weights(), simplicial_weights())


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(WEIGHT_SETS, st.randoms(use_true_random=False))
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
    @given(WEIGHT_SETS, st.data())
    def test_monotone_under_generators(self, gens, data):
        # Adding a generator can only enlarge the polyhedron.
        n = len(gens[0])
        extra = data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n).filter(any))
        bigger = NewtonPolyhedron(gens + [tuple(extra)])
        assert bigger.covolume() <= NewtonPolyhedron(gens).covolume()

    @settings(max_examples=40, deadline=None)
    @given(WEIGHT_SETS, st.integers(1, 5), st.integers(1, 4))
    def test_covolume_homogeneous(self, gens, num, den):
        k = Fraction(num, den)
        n = len(gens[0])
        scaled = NewtonPolyhedron([tuple(k * c for c in g) for g in gens])
        assert scaled.covolume() == k**n * NewtonPolyhedron(gens).covolume()

    @settings(max_examples=60, deadline=None)
    @given(WEIGHT_SETS)
    def test_the_hull_equals_the_general_path(self, gens):
        gens = exponent_set(gens)
        if len(gens.points[0]) > 2:
            poly, general = NewtonPolyhedron(gens), _general_path(gens)
            for name in TestClosedForm.ATTRIBUTES:
                assert getattr(poly, name) == getattr(general, name), name

    @settings(max_examples=40, deadline=None)
    @given(WEIGHT_SETS)
    def test_integer_generators_give_integer_masses(self, gens):
        for atom in MonomialWeight(gens).lelong_measure().atoms:
            assert atom.mass.denominator == 1
