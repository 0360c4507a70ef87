"""Deterministic instance generators and helpers shared by the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

from lelong.ideals import MonomialIdeal, PrimaryMonomialIdeal
from lelong.weights import HomogeneousPsh, MonomialWeight

ASTAR = ((3, 0), (0, 3), (1, 1))
"""Shared worked example: the exponent set {(3,0), (0,3), (1,1)}."""

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args, **kwargs):
    """subprocess.run of this interpreter with ``args``, and ``src`` first
    on the child's PYTHONPATH (any value it had follows), so the child
    imports this checkout's ``lelong`` without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def unit(n, k, scale=1):
    return tuple(scale if i == k else 0 for i in range(n))


def vertex_rich(n, m):
    """Generators (s_1^2, ..., s_n^2) over the weak compositions s of m
    into n parts; every one of them is a vertex."""

    def compositions(m, n):
        if n == 1:
            return [(m,)]
        return [(a, *rest) for a in range(m + 1) for rest in compositions(m - a, n - 1)]

    return [tuple(s * s for s in c) for c in compositions(m, n)]


def random_vertex_rich(rng, n, m):
    """A random third of ``vertex_rich(n, m)`` and the pure powers M e_k,
    M = m^2 the family's largest coordinate, as a list of generators.

    Every axis is reached and every generator is a vertex, so the
    polyhedron has many compact facets: about 60 to 250 at (4,6), (5,5)
    and (6,4), where ``random_weight`` rarely gives more than 9."""
    gens = vertex_rich(n, m)
    return rng.sample(gens, len(gens) // 3) + [unit(n, k, m * m) for k in range(n)]


def random_exponent(rng, n, max_exp):
    return tuple(rng.randint(0, max_exp) for _ in range(n))


def _interior_diagonal(rng, powers):
    """A diagonal point strictly below the pure-power facet, when one exists."""
    bound = sum(Fraction(1, c) for c in powers)
    limit = 1 / bound
    dmax = (limit.numerator - 1) // limit.denominator
    if dmax < 1:
        return None
    d = rng.randint(1, dmax)
    return (d,) * len(powers)


def random_weight(rng, n, max_exp=12, max_extra=3) -> MonomialWeight:
    powers = [rng.randint(1, max_exp) for _ in range(n)]
    gens = [unit(n, k, powers[k]) for k in range(n)]
    for _ in range(rng.randint(0, max_extra)):
        g = random_exponent(rng, n, max_exp)
        if any(g):
            gens.append(g)
    # Uniform extras rarely fall below the pure-power facet, so half the
    # time plant one there; this keeps non-simplicial polyhedra frequent.
    if rng.random() < 0.5:
        diag = _interior_diagonal(rng, powers)
        if diag is not None:
            gens.append(diag)
    return MonomialWeight(gens)


def random_psh(rng, n, max_exp=9, max_gens=3) -> HomogeneousPsh:
    gens = [random_exponent(rng, n, max_exp) for _ in range(rng.randint(1, max_gens))]
    return HomogeneousPsh(gens)


def random_rational(rng, max_num=9, max_den=9) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_direction(rng, n, max_num=9, max_den=9):
    return tuple(random_rational(rng, max_num, max_den) for _ in range(n))


def random_primary_ideal(rng, n, max_exp=9, max_extra=2) -> PrimaryMonomialIdeal:
    powers = [rng.randint(1, max_exp) for _ in range(n)]
    gens = [unit(n, k, powers[k]) for k in range(n)]
    for _ in range(rng.randint(0, max_extra)):
        g = random_exponent(rng, n, max_exp)
        if any(g):
            gens.append(g)
    if rng.random() < 0.5:
        diag = _interior_diagonal(rng, powers)
        if diag is not None:
            gens.append(diag)
    return PrimaryMonomialIdeal(gens)


def random_ideal(rng, n, max_exp=9, max_gens=3) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        g = random_exponent(rng, n, max_exp)
        if not any(g):
            g = unit(n, rng.randrange(n), 1 + rng.randint(0, max_exp - 1))
        gens.append(g)
    return MonomialIdeal(gens)
