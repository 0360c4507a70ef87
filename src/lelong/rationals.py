"""Exact rational parsing, formatting, and vector coercion.

This is the one module that turns outside values into exact numbers:
exponent vectors and sets, points and directions are all read here, so
every public entry accepts the same grammar (ints, Fractions and "p/q"
strings). Floats, bools, Decimals and every other string are rejected
rather than converted, so inexact values can never leak into the kernel.

Validation happens once, at the boundary. ``exponent_set`` checks its
input and returns the set as a private read-only sequence; handed back
in, that set is returned as is, so objects derived from it (polyhedra,
weights of ideals, the psh of an ideal) run on the trusted set without
parsing it again. A list or tuple of ints is checked as ints and is its
own integer point; any other vector goes through ``exponent_vector``
and ``parse_rational``, which raise every error. The checked set holds
ints: the lcm L of the denominators and the integer points L*v, from
which it derives, once per set, the record of the least pure power on
each axis, the unreached axes and the intercepts. Its Fraction vectors
are built on the first read that needs them, which the kernel and the
queries never make, so a set of int tuples builds no Fraction. The set
dedupes and sorts its integer points itself, so ``exponent_set`` only
checks and scales, and a caller that has the integer points and their
lcm already, as ``DirectionalWeight`` does, builds the set directly.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .errors import InvalidInputError

MIN_DIMENSION = 2
MAX_DIMENSION = 6

# At most this many digits in each numeral of a "p/q" string: the
# interpreter's default limit for int(str), which also caps the integers
# that json.loads accepts, so strings and JSON integers share one bound.
MAX_DIGITS = 4300
_RATIONAL = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}(?:/[0-9]{{1,{MAX_DIGITS}}})?")


def parse_rational(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    A string must be ASCII ``-?[0-9]+(/[0-9]+)?`` with at most
    MAX_DIGITS digits per numeral: no sign "+", spaces, underscores,
    decimal points, exponents or non-ASCII digits.
    """
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise InvalidInputError(f"expected a rational number, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise InvalidInputError(
                f"not a valid rational: {value!r} (expected an integer or 'p/q', "
                f"at most {MAX_DIGITS} digits each)"
            )
        num, _, den = value.partition("/")
        if den and not int(den):
            raise InvalidInputError(f"not a valid rational: {value!r} (zero denominator)")
        return Fraction(int(num), int(den or 1))
    raise InvalidInputError(f"expected an integer or 'p/q' string, got {value!r}")


def format_rational(value) -> str:
    """Canonical string form: decimal when integral, else "p/q".

    A numeral past the interpreter's limit for int -> str, MAX_DIGITS
    digits by default, raises InvalidInputError naming the limit. The
    limit stays as it is, because it also bounds the JSON integers that
    the input parser accepts.
    """
    q = Fraction(value)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise InvalidInputError(
            f"the exact result has a numeral of more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for printing an integer"
        ) from None


def vector(coords, dimension: int | None = None) -> tuple[Fraction, ...]:
    """Coerce a sequence of rationals to a tuple, checking the dimension."""
    v = tuple(parse_rational(c) for c in coords)
    if dimension is not None and len(v) != dimension:
        raise InvalidInputError(f"expected a vector of length {dimension}, got {len(v)}")
    if not MIN_DIMENSION <= len(v) <= MAX_DIMENSION:
        raise InvalidInputError(
            f"supported dimensions are {MIN_DIMENSION}..{MAX_DIMENSION}, got {len(v)}"
        )
    return v


def exponent_vector(coords) -> tuple[Fraction, ...]:
    """A vector whose entries must in addition be nonnegative."""
    v = vector(coords)
    if any(c.numerator < 0 for c in v):
        raise InvalidInputError(f"exponents must be nonnegative, got {coords!r}")
    return v


def positive_direction(coords, dimension: int | None = None) -> tuple[Fraction, ...]:
    """A vector whose entries must in addition be strictly positive."""
    v = vector(coords, dimension)
    if any(c.numerator <= 0 for c in v):
        raise InvalidInputError("direction must be componentwise positive")
    return v


class _ExponentSet(Sequence):
    """A checked exponent set: nonnegative, deduplicated, sorted,
    nonempty, of one dimension in MIN_DIMENSION..MAX_DIMENSION. It is
    built from ints that the caller vouches for: ``scale``, the lcm L of
    the denominators, and ``points``, the integer points L*v, which it
    dedupes and sorts itself (the zero vector first, when it is one);
    ``pure_powers``, ``unreached`` and ``intercepts`` are derived once,
    on first use.

    Read as a sequence it is the tuple of its Fraction vectors v = P/L,
    which are built once, on the first read that needs them: indexing,
    iteration, ``==``, ``hash`` or ``repr``. It compares equal to, and
    hashes like, that tuple. It is read-only and not a tuple subclass.
    """

    def __init__(self, scale, points):
        self.scale = scale
        # Scaling by L > 0 is injective and keeps the order, so the integer
        # points L*v dedupe and sort the set as the vectors themselves would,
        # and dropping duplicates keeps the set of denominators, hence L.
        self.points = tuple(sorted(set(points)))

    @cached_property
    def _vectors(self):
        """The vectors P/L: one Fraction per distinct entry."""
        values = {c: Fraction(c, self.scale) for c in {c for p in self.points for c in p}}
        return tuple(tuple(map(values.__getitem__, p)) for p in self.points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, index):
        return self._vectors[index]

    def __iter__(self):
        return iter(self._vectors)

    def __eq__(self, other):
        if type(other) is _ExponentSet:
            # L and the points determine the vectors, and the vectors them.
            return self.scale == other.scale and self.points == other.points
        if isinstance(other, tuple):
            return self._vectors == other
        return NotImplemented

    def __hash__(self):
        return hash(self._vectors)

    def __repr__(self):
        return repr(self._vectors)

    @cached_property
    def pure_powers(self):
        """Per axis k, the index of the least pure power M_k e_k (M_k > 0)
        of the set, or None when there is none.

        The points are sorted, and the pure powers of one axis differ in
        that coordinate alone, so the first one met is the least.
        """
        n = len(self.points[0])
        least = [None] * n
        for i, p in enumerate(self.points):
            if p.count(0) == n - 1:
                k = next(k for k, c in enumerate(p) if c)
                if least[k] is None:
                    least[k] = i
        return tuple(least)

    @cached_property
    def unreached(self):
        """The axes without a pure power, read off the pure-power record;
        the zero vector, when it is a generator, reaches every axis."""
        if not any(self.points[0]):
            return ()
        return tuple(k for k, i in enumerate(self.pure_powers) if i is None)

    @cached_property
    def intercepts(self):
        """Per axis k, the least g_k over the generators that vanish off
        axis k, or math.inf when there is none.

        This is the intercept of conv(generators) + R_+^n on axis k. A 0
        entry means the zero vector is a generator; an inf entry means no
        pure power lies on that axis: the one ``math.inf`` object. The
        finite entries are the set's own Fractions.
        """
        if not any(self.points[0]):
            return self[0]
        return tuple(
            math.inf if i is None else self[i][k] for k, i in enumerate(self.pure_powers)
        )


def exponent_set(vectors) -> _ExponentSet:
    """Exponent vectors deduplicated and sorted; nonempty, one dimension.

    A set this function returned is returned as is.
    """
    if type(vectors) is _ExponentSet:
        return vectors
    vecs = []
    rational = False
    for v in vectors:
        if type(v) in (tuple, list) and MIN_DIMENSION <= len(v) <= MAX_DIMENSION and not any(
            type(c) is not int or c < 0 for c in v
        ):
            vecs.append(tuple(v))
        else:
            vecs.append(exponent_vector(v))
            rational = True
    if not vecs:
        raise InvalidInputError("at least one generator is required")
    if len({len(v) for v in vecs}) != 1:
        raise InvalidInputError("generators mix dimensions")
    scale, points = integer_scaling(vecs) if rational else (1, vecs)
    return _ExponentSet(scale, points)


def integer_scaling(vectors) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lcm L of the denominators of rational ``vectors`` and the
    integer points L*v, in order."""
    # The distinct denominators are few. Unpacking one argument per
    # coordinate into math.lcm instead raised the peak RSS of a long run
    # by about 1 MB over a few thousand operations on CPython 3.11.
    scale = math.lcm(*{c.denominator for v in vectors for c in v})
    return scale, tuple(
        tuple(c.numerator * (scale // c.denominator) for c in v) for v in vectors
    )
