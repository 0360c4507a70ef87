"""One input grammar for every public entry that takes coordinates or a
direction: each coerces through ``lelong.rationals``, so each accepts and
rejects exactly what ``parse_rational`` does. And the checked exponent
set: what it carries equals what its generators define."""

import math
import operator
import random
from collections.abc import Sequence
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest

from lelong import rationals
from lelong.errors import InvalidInputError
from lelong.geometry import cone_point_member
from lelong.rationals import exponent_set, integer_scaling, parse_rational
from lelong.weights import DirectionalWeight, MonomialWeight

from float_oracles import directional_lelong_numeric, quasi_triangle_check
from support import ASTAR, run_python

PHI_STAR = MonomialWeight(ASTAR)

# name -> (entry taking one coordinate x, sign of the coordinates it accepts)
ENTRIES = {
    "cone_point_member.point": (lambda x: cone_point_member((x, 1), ASTAR), 1),
    "cone_point_member.generators": (lambda x: cone_point_member((2, 1), [(x, 0), (0, 3)]), 1),
    "evaluate": (lambda x: PHI_STAR.evaluate((x, -1)), -1),
    "directional_lelong": (lambda x: PHI_STAR.directional_lelong((x, 1)), 1),
    "DirectionalWeight": (lambda x: DirectionalWeight((x, 1)).generators, 1),
    "directional_lelong_numeric": (lambda x: directional_lelong_numeric(PHI_STAR, (x, 1)), 1),
    "quasi_triangle_check": (lambda x: quasi_triangle_check((x, 1), samples=16), 1),
}

# The three messages of parse_rational, so that a rejection by a later
# check (the sign of an evaluation point, say) does not count.
GRAMMAR = r"not a valid rational|expected a rational number|expected an integer or 'p/q' string"

DIRECTIONS = {
    "directional_lelong": lambda a: PHI_STAR.directional_lelong(a),
    "DirectionalWeight": DirectionalWeight,
    "directional_lelong_numeric": lambda a: directional_lelong_numeric(PHI_STAR, a),
    "quasi_triangle_check": lambda a: quasi_triangle_check(a, samples=16),
}


@pytest.mark.parametrize("form", ["1.5", "1e2", "+3", " 3 ", True, Decimal("1"), 0.5], ids=repr)
@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_rejects_forms_outside_the_grammar(name, form):
    entry, _ = ENTRIES[name]
    with pytest.raises(InvalidInputError, match=GRAMMAR):
        entry(form)


@pytest.mark.parametrize("text", ["3/2", "2", "007"])
@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_reads_strings_as_parse_rational_does(name, text):
    entry, sign = ENTRIES[name]
    if sign < 0:
        text = "-" + text
    assert entry(text) == entry(parse_rational(text))


@pytest.mark.parametrize(
    "call",
    [
        lambda: cone_point_member((1,), [(1,)]),
        lambda: cone_point_member((1,) * 7, [(1,) * 7]),
        lambda: quasi_triangle_check((1,), samples=16),
        lambda: DirectionalWeight((1,) * 7),
    ],
    ids=["member-1", "member-7", "quasi-triangle-1", "directional-7"],
)
def test_dimension_outside_two_to_six_rejected(call):
    with pytest.raises(InvalidInputError, match="supported dimensions are 2..6"):
        call()


@pytest.mark.parametrize("a", [(0, 1), (1, -2), ("-1/2", 1)])
@pytest.mark.parametrize("name", list(DIRECTIONS))
def test_direction_must_be_positive(name, a):
    with pytest.raises(InvalidInputError, match="^direction must be componentwise positive$"):
        DIRECTIONS[name](a)


@pytest.mark.parametrize("name", ["directional_lelong", "directional_lelong_numeric"])
def test_direction_must_match_the_dimension(name):
    with pytest.raises(InvalidInputError, match="expected a vector of length 2, got 3"):
        DIRECTIONS[name]((1, 1, 1))


@pytest.mark.parametrize(
    "code",
    [
        "cone_point_member(('1e999999999', 0), [(1, 0), (0, 1)])",
        "HomogeneousPsh([(1, 0)]).evaluate(('-1e999999999', -1))",
    ],
)
def test_exponent_notation_exits_fast(code):
    # Fraction("1e999999999") would build a billion-digit integer.
    script = (
        "from lelong import HomogeneousPsh, InvalidInputError, cone_point_member\n"
        f"try:\n    {code}\nexcept InvalidInputError as exc:\n    print(exc)\n"
    )
    proc = run_python("-c", script, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("not a valid rational: '")


def _intercepts_by_definition(generators):
    """Per axis k, the least c > 0 with c*e_k a generator, or inf; the
    zero vector when it is a generator."""
    n = len(generators[0])
    if (0,) * n in generators:
        return (0,) * n
    return tuple(
        min((g[k] for g in generators if g[k] and not any(g[:k] + g[k + 1 :])), default=math.inf)
        for k in range(n)
    )


def _random_rational_set(rng, n):
    def entry():
        return Fraction(rng.randint(0, 9), rng.choice([1, 1, 2, 3, 4, 6]))

    vecs = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(1, 8))]
    # Pure powers on a random subset of the axes, sometimes two on one.
    for k in rng.sample(range(n), rng.randint(0, n)):
        for _ in range(rng.randint(1, 2)):
            vecs.append(tuple(entry() + 1 if i == k else Fraction(0) for i in range(n)))
    if rng.random() < 0.15:
        vecs.append((Fraction(0),) * n)
    rng.shuffle(vecs)
    return [tuple(map(str, v)) for v in vecs]


@pytest.mark.parametrize("n", range(2, 7))
def test_checked_set_carries_what_its_generators_define(n):
    rng = random.Random(90 + n)
    for _ in range(40):
        checked = exponent_set(_random_rational_set(rng, n))
        assert (checked.scale, checked.points) == integer_scaling(checked)
        assert all(type(c) is int for p in checked.points for c in p)
        assert checked.intercepts == _intercepts_by_definition(checked)
        fields = checked.scale, checked.points, checked.intercepts
        again = exponent_set(checked)
        assert again is checked
        assert all(map(operator.is_, (again.scale, again.points, again.intercepts), fields))


@pytest.mark.parametrize(
    "generators, intercepts",
    [
        ([(0, 0), (1, 0), (0, 1)], (0, 0)),
        ([(1, 1), (0, 0)], (0, 0)),
        ([(2, 0), (1, 1)], (2, math.inf)),
        (
            [("1/2", 0, 0), (0, 3, 0), (0, "5/2", 0), (1, 1, 1)],
            (Fraction(1, 2), Fraction(5, 2), math.inf),
        ),
        ([(1, 1, 0), (0, 1, 1)], (math.inf,) * 3),
        ([(5, 0), (0, 4), (3, 0), (1, 1), (7, 0), (0, 9)], (3, 4)),
        (
            [("7/3", 0, 0), ("5/2", 0, 0), (0, "3/4", 0), (0, 2, 0), ("1/6", "1/6", 1)],
            (Fraction(7, 3), Fraction(3, 4), math.inf),
        ),
        ([("1/2", 0, 0), (0, 0, 0), (0, 3, 0), (0, 0, "4/3")], (0, 0, 0)),
    ],
    ids=[
        "zero-vector",
        "zero-vector-no-pure-power",
        "missing-axis",
        "least-on-axis",
        "none",
        "several-on-one-axis",
        "rational",
        "zero-vector-rational",
    ],
)
def test_intercepts_edge_cases(generators, intercepts):
    checked = exponent_set(generators)
    assert checked.intercepts == intercepts == _intercepts_by_definition(checked)
    # An unreached axis reads the one math.inf object; every other entry
    # is one of the set's own Fractions.
    entries = {id(c) for g in checked for c in g}
    for c in checked.intercepts:
        assert c is math.inf or (type(c) is Fraction and id(c) in entries)


@pytest.mark.parametrize("n", range(2, 7))
def test_checked_set_reads_as_the_tuple_of_its_vectors(n):
    rng = random.Random(130 + n)
    for _ in range(30):
        spelled = _random_rational_set(rng, n)
        checked = exponent_set(spelled)
        vectors = tuple(sorted({tuple(map(Fraction, v)) for v in spelled}))
        assert checked == vectors and vectors == checked
        assert not checked != vectors and not vectors != checked
        assert hash(checked) == hash(vectors)
        assert {vectors: 1}[checked] == 1 and {checked: 1}[vectors] == 1
        again = exponent_set([tuple(map(str, v)) for v in reversed(spelled)])
        assert again is not checked and again == checked and hash(again) == hash(checked)
        outside = (Fraction(100),) * n
        assert checked != vectors[:-1] + (outside,) and checked != list(vectors)
        assert len(checked) == len(vectors) == len(checked.points)
        assert checked[-1] == vectors[-1] and checked[-len(vectors)] == vectors[0]
        assert checked[1:] == vectors[1:] and checked[::-1] == vectors[::-1]
        assert all(v in checked for v in vectors) and outside not in checked
        assert list(checked) == list(vectors) and repr(checked) == repr(vectors)
        assert checked.index(vectors[-1]) == len(vectors) - 1
        assert exponent_set(checked) is checked
        # The intercept entries are the set's own Fractions.
        for k, c in enumerate(checked.intercepts):
            assert c is math.inf or any(c is v[k] for v in checked)


def test_checked_set_is_a_read_only_sequence_not_a_tuple():
    checked = exponent_set(ASTAR)
    assert isinstance(checked, Sequence) and not isinstance(checked, tuple)
    with pytest.raises(TypeError):
        checked + ()
    with pytest.raises(TypeError):
        checked[0] = (1, 1)


def _spell(rng, c):
    """The Fraction ``c`` as an int when it is integral and ``rng`` says
    so, else as a Fraction or an unreduced "p/q" string."""
    k = rng.randint(1, 3)
    return rng.choice(
        [int(c)] * (c.denominator == 1) + [c, f"{c.numerator * k}/{c.denominator * k}"]
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_int_path_equals_the_general_path(n, monkeypatch):
    # Vectors of ints are their own integer points and skip exponent_vector;
    # the same sets as Fractions, as "p/q" strings or spelled entry by entry
    # at random go through it.
    calls = []
    general = rationals.exponent_vector
    monkeypatch.setattr(rationals, "exponent_vector", lambda v: calls.append(v) or general(v))
    rng = random.Random(110 + n)
    for k in range(40):
        exact = [tuple(map(Fraction, v)) for v in _random_rational_set(rng, n)]
        if k % 2:
            scale = math.lcm(*(c.denominator for v in exact for c in v))
            exact = [tuple(c * scale for c in v) for v in exact]
        as_ints = [
            tuple(map(int, v)) if all(c.denominator == 1 for c in v) else v for v in exact
        ]
        calls.clear()
        first = exponent_set(as_ints)
        assert len(calls) == sum(v is w for v, w in zip(exact, as_ints))
        forms = [
            exact,
            [tuple(f"{c.numerator}/{c.denominator}" for c in v) for v in exact],
            [rng.choice([tuple, list])(_spell(rng, c) for c in v) for v in exact],
        ]
        for form in forms:
            checked = exponent_set(form)
            assert checked == first
            assert all(type(c) is Fraction for v in checked for c in v)
            assert (checked.scale, checked.points) == (first.scale, first.points)
            assert checked.intercepts == first.intercepts
            assert list(map(type, checked.intercepts)) == list(map(type, first.intercepts))
        assert all(type(c) is Fraction for c in first.intercepts if c != math.inf)


@pytest.mark.parametrize("kind", [list, tuple])
@pytest.mark.parametrize(
    "vectors, message",
    [
        ([[1, -2], [3, 0]], "exponents must be nonnegative, got [1, -2]"),
        ([[True, 2], [3, 0]], "expected a rational number, got True"),
        ([[1]], "supported dimensions are 2..6, got 1"),
        ([[1] * 7], "supported dimensions are 2..6, got 7"),
        ([[1] * 6 + [-1]], "supported dimensions are 2..6, got 7"),
        ([[1, 2], [1, 2, 3]], "generators mix dimensions"),
        ([], "at least one generator is required"),
        (
            [[1, 2], [1, "x"]],
            "not a valid rational: 'x' (expected an integer or 'p/q', at most 4300 digits each)",
        ),
        ([[1, 2], [0, -1, 1]], "exponents must be nonnegative, got [0, -1, 1]"),
    ],
    ids=["negative", "bool", "one", "seven", "seven-negative", "mixed-lengths", "empty",
         "bad-after-good", "negative-after-good"],
)
def test_int_path_keeps_every_message(vectors, message, kind):
    # A negative vector is named as given: in brackets for a list, in
    # parentheses for a tuple.
    if kind is tuple:
        message = message.translate(str.maketrans("[]", "()"))
    with pytest.raises(InvalidInputError) as info:
        exponent_set(kind(kind(v) for v in vectors))
    assert str(info.value) == message


class _Three(IntEnum):
    THREE = 3


class _Half(Fraction):
    pass


@pytest.mark.parametrize("flag", [True, False])
def test_parse_rational_rejects_bools(flag):
    with pytest.raises(InvalidInputError, match=f"^expected a rational number, got {flag}$"):
        parse_rational(flag)


@pytest.mark.parametrize("value", [_Three.THREE, _Half(1, 2)], ids=["IntEnum", "Fraction-subclass"])
def test_parse_rational_returns_plain_fractions(value):
    q = parse_rational(value)
    assert type(q) is Fraction and q == value
    (v,) = exponent_set([(value, 0)])
    assert all(type(c) is Fraction for c in v) and v == (value, 0)
