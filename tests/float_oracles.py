"""Floating-point validators of the exact kernel: direct liminf sampling
for directional numbers and relative types, and a sampled quasi-triangle
inequality for directional weights.

They only re-derive values that tests compare against the exact kernel,
so they live with the tests and do not ship. Each converts an exact
value to a float through ``lelong.oracles._float``, the package's one
conversion, which rejects a value past the float range. Sample counts,
seeds and grid depths must be ints, and the quasi-triangle constant a
finite real that is not a bool; anything else is an InvalidInputError.
``quasi_triangle_check`` imports numpy itself.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from itertools import combinations

from lelong.errors import InvalidInputError
from lelong.oracles import _float
from lelong.rationals import positive_direction
from lelong.weights import HomogeneousPsh, MonomialWeight


def _require_int(name, value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def directional_lelong_numeric(u: HomogeneousPsh, direction) -> float:
    """f_u(r a) / r in floating point at r = -1000; exact for homogeneous
    data, where it does not depend on r.

    Exponents and direction entries past the float range, and an f_u(r a)
    that overflows, raise InvalidInputError.
    """
    r = -1000.0
    a = [_float("a direction entry", c) for c in positive_direction(direction, u.dimension)]
    gens = [[_float("an exponent", c) for c in g] for g in u.generators]
    best = max(sum(g * r * c for g, c in zip(gen, a)) for gen in gens)
    if not math.isfinite(best):
        raise InvalidInputError(f"f_u(r a) overflows a float at r = {r!r}")
    return best / r


def relative_type_numeric(u: HomogeneousPsh, phi: MonomialWeight, grid_depth: int = 32) -> float:
    """Sampled minimum of f_u / f_phi over the level set {f_phi = -1}.

    Directions run over a nested simplex grid plus a family pushed
    toward the recession cone, so the estimate converges to the type
    from above as grid_depth grows.
    """
    _require_int("grid_depth", grid_depth)
    if grid_depth < 10:
        raise InvalidInputError("need grid_depth >= 10")
    n = u.dimension
    if phi.dimension != n:
        raise InvalidInputError("dimension mismatch")
    gens_u = [[_float("an exponent", c) for c in g] for g in u.generators]
    gens_phi = [[_float("an exponent", c) for c in g] for g in phi.generators]

    def f(gens, t):
        return max(sum(g[k] * t[k] for k in range(n)) for g in gens)

    directions = []
    for combo in combinations(range(1, grid_depth), n - 1):
        parts = []
        prev = 0
        for c in combo:
            parts.append(c - prev)
            prev = c
        parts.append(grid_depth - prev)
        directions.append([-p / grid_depth for p in parts])
    push = 1e-8
    for mask in range(1, 2**n - 1):
        d = [-1.0 if mask & (1 << k) else -push for k in range(n)]
        directions.append(d)
    best = math.inf
    for d in directions:
        fphi = f(gens_phi, d)
        if fphi >= 0:
            continue
        t = [c / -fphi for c in d]
        best = min(best, -f(gens_u, t))
    return best


class QuasiTriangleReport(
    namedtuple("QuasiTriangleReport", "max_violation passed samples seed constant")
):
    """Result of ``quasi_triangle_check``: the largest sampled violation
    and whether it stayed <= 1e-12, with the run's samples, seed and K."""

    __slots__ = ()


def quasi_triangle_check(
    direction, samples: int = 10000, seed: int = 0, constant: float | None = None
) -> QuasiTriangleReport:
    """Sampled check of phi(y - x) <= K + max(phi(x), phi(y)).

    phi is the directional weight max_k log|z_k| / a_k on the unit
    polydisk and the default constant is K = log(2) / min(a). Points are
    complex, so near-antipodal coordinate pairs (the tight case) occur.
    Samples must be at least 1 and the seed nonnegative. Each a_k must be
    a nonzero float, and K a finite real that is not a bool; anything
    else is an InvalidInputError.
    """
    import numpy as np

    _require_int("samples", samples)
    _require_int("seed", seed)
    if samples < 1:
        raise InvalidInputError("need at least 1 sample")
    if seed < 0:
        raise InvalidInputError("seed must be nonnegative")
    a = positive_direction(direction)
    af = np.array([_float("a direction entry", c) for c in a])
    if not af.all():
        raise InvalidInputError("a direction entry rounds to 0.0 as a float")
    n = len(a)
    if constant is None:
        k_const = math.log(2.0) / float(af.min())
    elif isinstance(constant, bool) or not isinstance(constant, numbers.Real):
        raise InvalidInputError(f"need a real constant, got {constant!r}")
    else:
        k_const = _float("the constant", constant)
    if not math.isfinite(k_const):
        raise InvalidInputError(f"need a finite constant K, got {k_const!r}")
    rng = np.random.Generator(np.random.Philox(seed))

    def draw():
        radius = rng.random((samples, n))
        angle = rng.random((samples, n)) * (2.0 * math.pi)
        return radius * np.exp(1j * angle)

    x = draw()
    y = draw()

    def phi(z):
        with np.errstate(divide="ignore"):
            return np.max(np.log(np.abs(z)) / af, axis=1)

    violation = phi(y - x) - k_const - np.maximum(phi(x), phi(y))
    worst = float(np.max(violation))
    return QuasiTriangleReport(
        max_violation=worst,
        passed=worst <= 1e-12,
        samples=samples,
        seed=seed,
        constant=k_const,
    )
