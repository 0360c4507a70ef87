"""Exact rational parsing, formatting, and vector coercion.

Every quantity in this package is a ``fractions.Fraction``; these helpers
keep the interchange conventions (integers, "p/q" strings, fixed-length
nonnegative exponent vectors, exponent sets) in one place. Floats are
rejected rather than converted, so inexact values can never leak into
the kernel.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError

MIN_DIMENSION = 2
MAX_DIMENSION = 6


def parse_rational(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, bool):
        raise InvalidInputError(f"expected a rational number, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"not a valid rational: {value!r} ({exc})") from None
    raise InvalidInputError(f"expected an integer or 'p/q' string, got {value!r}")


def format_rational(value) -> str:
    """Canonical string form: decimal when integral, else "p/q"."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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


def exponent_vector(coords, dimension: int | None = None) -> tuple[Fraction, ...]:
    """A vector whose entries must in addition be nonnegative."""
    v = vector(coords, dimension)
    if any(c < 0 for c in v):
        raise InvalidInputError(f"exponents must be nonnegative, got {coords!r}")
    return v


def exponent_set(vectors) -> tuple[tuple[Fraction, ...], ...]:
    """Exponent vectors deduplicated and sorted; nonempty, one dimension."""
    vecs = sorted({exponent_vector(v) for v in vectors})
    if not vecs:
        raise InvalidInputError("at least one generator is required")
    if len({len(v) for v in vecs}) != 1:
        raise InvalidInputError("generators mix dimensions")
    return tuple(vecs)
