"""The integer query code against the Fraction code it replaced, kept in
``tests/reference.py``, and the flatness witness against its definition:
equal values and equal result types on seeded draws and on a
``hypothesis`` property. The seeded containment draws put generators on
the closure boundary. And the queries read the checked set's integer
points and the hull's int facet rows only, so they never build the set's
Fraction vectors or the polyhedron's Facet records."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelong.ideals import (
    MonomialIdeal,
    PrimaryMonomialIdeal,
    axis_multiplicities,
    closure_containment_check,
    containment_exponents,
    mixed_multiplicity,
    samuel_multiplicity,
)
from lelong.weights import HomogeneousPsh, MonomialWeight, generalized_lelong, relative_type

from reference import (
    fraction_closure_containment_check,
    fraction_extremal_direction,
    fraction_flatness_witness,
    fraction_generalized_lelong,
    fraction_mass_over_support,
    fraction_relative_type,
)
from support import (
    random_ideal,
    random_primary_ideal,
    random_psh,
    random_weight,
    vertex_rich,
)

VERTEX_RICH_SIZES = [(2, 32), (3, 5), (3, 6), (4, 3), (5, 2), (5, 6)]


def _assert_same_fraction(got, want):
    assert got == want and type(got) is Fraction


def _assert_weight_parity(phi, probes):
    """Every weight query on ``phi``, and its pairings with ``probes``,
    equal the Fraction code's, as Fractions."""
    common, coefficients = phi._mass_over_support
    assert (common, coefficients) == fraction_mass_over_support(phi)
    assert type(common) is int and all(type(c) is int for c in coefficients)
    direction = phi.extremal_direction().direction
    assert direction == fraction_extremal_direction(phi)
    assert all(type(c) is Fraction for c in direction)
    witness, want = phi.flatness_witness(), fraction_flatness_witness(phi)
    assert (witness is None) == (want is None)
    if witness is not None:
        assert witness.generators == want.generators
    for u in probes:
        for normalized in (False, True):
            _assert_same_fraction(
                generalized_lelong(u, phi, normalized=normalized),
                fraction_generalized_lelong(u, phi, normalized=normalized),
            )
        _assert_same_fraction(relative_type(u, phi), fraction_relative_type(u, phi))


def _assert_containment_parity(j, i, ps):
    """The shipped report equals the one built from the Fraction atoms of
    i's measure, and its multiplicities and exponents are ints."""
    for p in ps:
        report = closure_containment_check(j, i, p)
        assert report == fraction_closure_containment_check(j, i, p)
        assert all(type(e) is int for e in report.axis_multiplicities + report.exponents)


def _rational_weight(rng, n, max_exp=12):
    """A random_weight with each entry divided by a random rational, so
    that L > 1 and the supports, masses and residual mass have
    denominators."""
    gens = random_weight(rng, n, max_exp=max_exp).generators.points
    return MonomialWeight([
        tuple(Fraction(c * rng.randint(1, 9), rng.randint(2, 9)) for c in g) for g in gens
    ])


def _probes(rng, n):
    """Two random_psh probes, one of them often missing an axis, and a
    rational one with L > 1."""
    points = random_psh(rng, n).generators.points
    rational = [tuple(Fraction(c, rng.randint(1, 5)) for c in g) for g in points]
    return [random_psh(rng, n), random_psh(rng, n, max_gens=1), HomogeneousPsh(rational)]


class _Tally:
    def __init__(self):
        self.nonflat = self.unreached = self.rational = self.tau_den = 0

    def add(self, phi, probes):
        self.nonflat += not phi.is_flat()
        self.unreached += sum(bool(u.generators.unreached) for u in probes)
        self.rational += phi.generators.scale > 1
        self.tau_den += phi.residual_mass().denominator > 1


@pytest.mark.parametrize("n", range(2, 7))
def test_weight_queries_equal_the_fraction_code(n):
    rng = random.Random(500 + n)
    tally = _Tally()
    for _ in range(6):
        for phi in (
            random_weight(rng, n),
            random_weight(rng, n, max_exp=16),
            random_primary_ideal(rng, n).weight,
            _rational_weight(rng, n),
            _rational_weight(rng, n, max_exp=16),
        ):
            probes = _probes(rng, n)
            tally.add(phi, probes)
            _assert_weight_parity(phi, probes)
    assert tally.nonflat and tally.unreached and tally.rational and tally.tau_den


def _assert_pairing(u, phi):
    """u's aggregate, normalized aggregate and type against ``phi`` equal
    a fresh psh's and the Fraction code's, and u keeps one pairing: the
    one with ``phi``."""
    for normalized in (False, True):
        got = generalized_lelong(u, phi, normalized=normalized)
        fresh = generalized_lelong(HomogeneousPsh(u.generators), phi, normalized=normalized)
        _assert_same_fraction(got, fraction_generalized_lelong(u, phi, normalized=normalized))
        assert got == fresh
    got = relative_type(u, phi)
    _assert_same_fraction(got, fraction_relative_type(u, phi))
    assert got == relative_type(HomogeneousPsh(u.generators), phi)
    assert u._pairing[0] is phi


@pytest.mark.parametrize("n", range(2, 7))
def test_pairing_follows_the_weight(n):
    # One psh paired in turn with weights A, B, A, an ideal's weight, and
    # a weight C that is itself a psh paired with A; then C with itself
    # and with A again. B has L > 1, and A and the ideal's weight share
    # L = 1, so a pairing kept by scale, or kept whatever the weight,
    # gives a wrong value on some step.
    rng = random.Random(600 + n)
    max_exp = 16 if n == 6 else 12
    seen = set()
    for _ in range(4):
        a, c = (random_weight(rng, n, max_exp=max_exp) for _ in range(2))
        b = _rational_weight(rng, n, max_exp=max_exp)
        ideal_weight = random_primary_ideal(rng, n).weight
        _assert_pairing(c, a)
        for u in _probes(rng, n):
            for phi in (a, b, a, ideal_weight, c):
                _assert_pairing(u, phi)
                seen.add(tuple(u._least_on(phi)))
        for phi in (c, a):
            _assert_pairing(c, phi)
        assert b.generators.scale > 1 and a.generators.scale == ideal_weight.generators.scale
    assert len(seen) > 20


def test_pairing_shared_by_threads():
    # Four threads share one psh and four fresh weights, each thread
    # pairing the psh with the weights in its own order under a short
    # switch interval, so pairings replace each other and the weights'
    # lazy values are first read at once; every value equals the Fraction
    # code's on a psh of its own.
    rng = random.Random(620)
    drawn = [random_weight(rng, 4, max_exp=16) for _ in range(4)]
    u = random_psh(rng, 4)
    want = [fraction_generalized_lelong(HomogeneousPsh(u.generators), phi) for phi in drawn]
    shared = [MonomialWeight(phi.generators) for phi in drawn]
    wrong = []

    def pair(k):
        for step in range(200):
            m = (k + step) % len(shared)
            if generalized_lelong(u, shared[m]) != want[m]:
                wrong.append((k, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pair, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _closure_boundary(p_k):
    """Points on sum_k beta_k / p_k = 1: each p_k e_k, and for each pair
    of axes whose exponents share a factor g > 1 the point with
    beta_k = p_k / g and beta_l = (g - 1) p_l / g."""
    n = len(p_k)
    points = [tuple(q if i == k else 0 for i in range(n)) for k, q in enumerate(p_k)]
    for k in range(n):
        for l in range(k + 1, n):
            g = math.gcd(p_k[k], p_k[l])
            if g > 1:
                beta = {k: p_k[k] // g, l: (g - 1) * p_k[l] // g}
                points.append(tuple(beta.get(i, 0) for i in range(n)))
    return points


@pytest.mark.parametrize("n", range(2, 7))
def test_containment_equals_the_fraction_code(n):
    # With the closure boundary among j's generators, a strict closure
    # test differs from the Fraction one on every draw.
    rng = random.Random(520 + n)
    mixed = 0
    for _ in range(8):
        i, j = random_primary_ideal(rng, n), random_ideal(rng, n)
        for p in [1, rng.randint(1, 40), rng.randint(41, 400)]:
            boundary = _closure_boundary(containment_exponents(i, p))
            mixed += len(boundary) - n
            _assert_containment_parity(MonomialIdeal(j.generators + tuple(boundary)), i, [p])
    assert mixed


@pytest.mark.parametrize("n, m", VERTEX_RICH_SIZES, ids=str)
def test_vertex_rich_queries_equal_the_fraction_code(n, m):
    rng = random.Random(540 + 10 * n + m)
    gens = vertex_rich(n, m)
    i = PrimaryMonomialIdeal(gens)
    _assert_weight_parity(i.weight, _probes(rng, n))
    _assert_containment_parity(random_ideal(rng, n), i, [1, 7, m * m * n])


@st.composite
def weights_and_probes(draw):
    """A rational weight at n = 2..4 with up to four extras, a probe whose
    generators may miss axes, and a primary ideal with an ideal against it."""
    n = draw(st.integers(2, 4))
    entry = st.fractions(min_value=0, max_value=12, max_denominator=5)
    gens = [tuple(draw(entry.filter(bool)) if i == k else 0 for i in range(n)) for k in range(n)]
    gens += draw(st.lists(st.tuples(*[entry] * n).filter(any), max_size=4))
    point = st.tuples(*[st.integers(0, 9)] * n)
    probe = draw(st.lists(point, min_size=1, max_size=3))
    ideal = [tuple(draw(st.integers(1, 12)) if i == k else 0 for i in range(n)) for k in range(n)]
    ideal += draw(st.lists(point.filter(any), max_size=3))
    j = draw(st.lists(point.filter(any), min_size=1, max_size=3))
    return MonomialWeight(gens), HomogeneousPsh(probe), (ideal, j, draw(st.integers(1, 60)))


@settings(max_examples=150, deadline=None)
@given(weights_and_probes())
def test_queries_equal_the_fraction_code_property(drawn):
    phi, u, (ideal, j, p) = drawn
    _assert_weight_parity(phi, [u])
    _assert_containment_parity(MonomialIdeal(j), PrimaryMonomialIdeal(ideal), [p])


def _vectors_built(checked):
    return "_vectors" in vars(checked)


def _run_every_query(phi, u, i, j):
    """Mass, measure, aggregates, type, the extremal direction, the
    witness, the Lojasiewicz exponent, the ideal multiplicities and a
    containment report; returns the extremal weight and the witness."""
    phi.residual_mass()
    phi.lelong_measure()
    generalized_lelong(u, phi)
    generalized_lelong(u, phi, normalized=True)
    relative_type(u, phi)
    extremal = phi.extremal_direction()
    extremal.residual_mass()
    witness = phi.flatness_witness()
    phi.lojasiewicz_exponent()
    samuel_multiplicity(i), mixed_multiplicity(j, i), axis_multiplicities(i)
    closure_containment_check(j, i, 7)
    return extremal, witness


@pytest.mark.parametrize("n", range(2, 7))
def test_queries_build_no_vectors(n):
    # Weights, probes and ideals of int tuples: mass, measure, aggregates,
    # type, the extremal direction, the witness, the Lojasiewicz exponent
    # and the ideal multiplicities all run on the integer points.
    rng = random.Random(560 + n)
    for _ in range(10):
        gens = [tuple(g) for g in random_weight(rng, n).generators.points]
        u = HomogeneousPsh([tuple(g) for g in random_psh(rng, n).generators.points])
        phi = MonomialWeight(gens)
        i = PrimaryMonomialIdeal(gens)
        j = MonomialIdeal(random_ideal(rng, n).generators)
        extremal, witness = _run_every_query(phi, u, i, j)
        sets = [phi.generators, u.generators, extremal.generators, i._exponents, j._exponents]
        sets += [] if witness is None else [witness.generators]
        assert not any(map(_vectors_built, sets))
        # The first read that needs the vectors builds them, once.
        assert phi.generators[0] == phi.generators[0] and _vectors_built(phi.generators)


def _records_built(poly):
    return "compact_facets" in vars(poly)


@pytest.mark.parametrize(
    "n, m", [(n, None) for n in range(2, 7)] + VERTEX_RICH_SIZES, ids=str
)
def test_queries_build_no_facet_records(n, m):
    # Every query reads the hull's int rows (w, t), so none builds the
    # Facet records, on seeded draws (m None) and on vertex-rich sets.
    rng = random.Random(580 + 10 * n + (m or 0))
    for _ in range(1 if m else 10):
        gens = vertex_rich(n, m) if m else random_weight(rng, n).generators.points
        u = random_psh(rng, n)
        phi, i = MonomialWeight(gens), PrimaryMonomialIdeal(gens)
        extremal, _ = _run_every_query(phi, u, i, random_ideal(rng, n))
        polys = [phi.polyhedron, extremal.polyhedron, i.weight.polyhedron]
        assert not any(map(_records_built, polys))
        # The first read of the records builds them, once.
        assert phi.polyhedron.compact_facets is phi.polyhedron.compact_facets
        assert _records_built(phi.polyhedron)
