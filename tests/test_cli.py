"""Command-line interface: subcommands, exit codes, byte stability."""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lelong.cli import COMMANDS, main, parse_argv
from lelong.errors import InvalidInputError
from lelong.rationals import MAX_DIGITS, parse_rational

from reference import build_parser
from support import run_python

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

PHI_STAR = str(DATA / "phi_star.json")
U_Z1 = str(DATA / "u_z1.json")
J_Z1Z2 = str(DATA / "j_z1z2.json")
SQUARE_CROSS = str(DATA / "square_cross.json")
DIR_1_2 = str(DATA / "dir_1_2.json")


REFERENCE = build_parser()


def argparse_reading(argv):
    """What the argparse parser the table replaced made of ``argv``: the
    handler and its fields, or the exit code (0 after help, 2 on error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(REFERENCE.parse_args(argv))
        except SystemExit as exc:
            return exc.code
    del fields["command"]
    return fields.pop("handler"), fields


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_mass(self, capsys):
        code, out, _ = run(capsys, "mass", PHI_STAR)
        assert code == 0
        assert out == '{"tau": "6"}\n'

    def test_dir_lelong(self, capsys):
        code, out, _ = run(capsys, "dir-lelong", PHI_STAR, "--a", "1,1")
        assert code == 0
        assert out == '{"nu": "2"}\n'

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma", PHI_STAR)
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "atoms": [
                {"t": ["-1/3", "-2/3"], "mass": "3"},
                {"t": ["-2/3", "-1/3"], "mass": "3"},
            ],
            "total": "6",
        }

    def test_gamma_total_matches_mass(self, capsys):
        _, gamma_out, _ = run(capsys, "gamma", PHI_STAR)
        _, mass_out, _ = run(capsys, "mass", PHI_STAR)
        assert json.loads(gamma_out)["total"] == json.loads(mass_out)["tau"]

    def test_lelong(self, capsys):
        code, out, _ = run(capsys, "lelong", U_Z1, PHI_STAR)
        assert code == 0
        assert out == '{"nu": "3"}\n'

    def test_lelong_normalized(self, capsys):
        code, out, _ = run(capsys, "lelong", U_Z1, PHI_STAR, "--normalized")
        assert code == 0
        assert out == '{"nu_tilde": "1/2"}\n'

    def test_type(self, capsys):
        code, out, _ = run(capsys, "type", U_Z1, PHI_STAR)
        assert code == 0
        assert out == '{"sigma": "1/3"}\n'

    def test_extremal(self, capsys):
        code, out, _ = run(capsys, "extremal", PHI_STAR)
        assert code == 0
        assert json.loads(out) == {"a": ["1/2", "1/2"], "flat": False}

    def test_flat_with_witness(self, capsys):
        code, out, _ = run(capsys, "flat", PHI_STAR)
        assert code == 0
        payload = json.loads(out)
        assert payload["flat"] is False
        assert "witness" in payload

    def test_flat_true(self, capsys):
        code, out, _ = run(capsys, "flat", DIR_1_2)
        assert code == 0
        assert json.loads(out) == {"flat": True}

    def test_mixed(self, capsys):
        code, out, _ = run(capsys, "mixed", SQUARE_CROSS, PHI_STAR)
        assert code == 0
        assert out == '{"e": "4"}\n'

    def test_mixed_with_oracle(self, capsys):
        code, out, _ = run(capsys, "mixed", SQUARE_CROSS, PHI_STAR, "--oracle", "polarization")
        assert code == 0
        assert json.loads(out) == {"e": "4", "oracle": "4"}

    def test_contain(self, capsys):
        code, out, _ = run(capsys, "contain", J_Z1Z2, PHI_STAR, "-p", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["hypothesis"] is True
        assert payload["p_k"] == [2, 2]
        assert payload["all_axis_bound"] is True
        assert payload["all_closure"] is True
        assert payload["all_literal"] is False

    def test_loj(self, capsys):
        code, out, _ = run(capsys, "loj", PHI_STAR)
        assert code == 0
        assert out == '{"L": "3"}\n'

    def test_plot(self, capsys, tmp_path):
        target = tmp_path / "diagram.svg"
        code, out, _ = run(capsys, "plot", PHI_STAR, "-o", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text


class TestErrors:
    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "mass", str(bad))
        assert code == 2
        assert "malformed JSON" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"n": 2}')
        code, _, err = run(capsys, "mass", str(bad))
        assert code == 2
        assert "not UTF-8" in err
        assert err.count("\n") == 1

    def test_deep_nesting(self, capsys, tmp_path):
        depth = 100_000
        deep = tmp_path / "deep.json"
        deep.write_text('{"n": 2, "generators": ' + "[" * depth + "]" * depth + "}")
        code, _, err = run(capsys, "mass", str(deep))
        assert code == 2
        assert "malformed JSON" in err
        assert err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "mass", "/nonexistent/x.json")
        assert code == 2
        assert err

    @pytest.mark.parametrize("role", ["input", "output"])
    def test_newline_in_a_file_name_stays_on_one_line(self, capsys, tmp_path, role):
        # The error line quotes the name, so a newline in it cannot split it.
        name = str(tmp_path / "no\nsuch" / "x.json")
        argv = ["mass", name] if role == "input" else ["plot", PHI_STAR, "-o", name]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"{name!r}: ")

    def test_dimension_cap(self, capsys, tmp_path):
        doc = {"n": 7, "generators": [[1, 0, 0, 0, 0, 0, 0]] * 7}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "mass", str(path))
        assert code == 2

    def test_not_primary_exit_three(self, capsys, tmp_path):
        doc = {"n": 2, "generators": [[2, 0], [1, 1]]}
        path = tmp_path / "np.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "mass", str(path))
        assert code == 3
        assert "pure power" in err

    def test_plot_needs_dimension_two(self, capsys, tmp_path):
        doc = {"n": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "plot", str(path), "-o", str(tmp_path / "x.svg"))
        assert code == 2

    @pytest.mark.parametrize(
        "generators",
        [[[10**400, 0], [0, 1]], [[1, 0], [0, 1], [10**400, 10**400]]],
        ids=["vertex", "non-vertex"],
    )
    def test_plot_coordinates_past_float_range(self, capsys, tmp_path, generators):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "generators": generators}))
        target = tmp_path / "x.svg"
        code, out, err = run(capsys, "plot", str(path), "-o", str(target))
        assert code == 2
        assert out == ""
        assert err == "SVG rendering needs coordinates of at most 2**1020\n"
        assert not target.exists()

    def test_mixed_non_integer_ideal(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"n": 2, "generators": [[2, "1/3"], [1, "1/2"], [3, 0]]}))
        code, out, err = run(capsys, "mixed", str(path), PHI_STAR)
        assert code == 2
        assert out == ""
        assert err == "ideal exponents must be integers, got (1, 1/2)\n"

    def test_contain_p_zero(self, capsys):
        code, _, err = run(capsys, "contain", J_Z1Z2, PHI_STAR, "-p", "0")
        assert code == 2
        assert err == "p must be a positive integer\n"

    def test_negative_exponent_reports_the_input(self, capsys, tmp_path):
        # The entries reach the library as read, so the message shows them
        # as the library would, not as parsed Fractions.
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"n": 2, "generators": [[-1, 2], [3, 0]]}))
        code, out, err = run(capsys, "mass", str(path))
        assert code == 2
        assert out == ""
        assert err == "exponents must be nonnegative, got (-1, 2)\n"

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 2, "generators": [[1' + "0" * 5000 + ', 0], [0, 1]]}')
        code, _, err = run(capsys, "mass", str(path))
        assert code == 2
        assert "malformed JSON: an integer has too many digits" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "entry",
        ["1.5", "1e2", " 3 ", "3\n", "1_000", "\u0663", "+3", ".5", "1/-2", "1/2/3", "", "1/",
         "1/0", "1" * (MAX_DIGITS + 1)],
    )
    def test_entry_outside_the_grammar(self, capsys, tmp_path, entry):
        doc = {"n": 2, "generators": [[entry, 0], [0, 1]]}
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "mass", str(path))
        assert code == 2
        assert err.startswith("not a valid rational") and err.count("\n") == 1

    @pytest.mark.parametrize("a", ["1.5,1", "1e2,1", "1,+3"])
    def test_direction_outside_the_grammar(self, capsys, a):
        code, _, err = run(capsys, "dir-lelong", PHI_STAR, "--a", a)
        assert code == 2
        assert err.startswith("not a valid rational") and err.count("\n") == 1

    def test_float_generator_rejected(self, capsys, tmp_path):
        doc = {"n": 2, "generators": [[1.5, 0], [0, 1]]}
        path = tmp_path / "float.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "mass", str(path))
        assert code == 2


class TestArgv:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["foo", PHI_STAR],
            ["mass"],
            ["lelong", U_Z1],
            ["mass", PHI_STAR, PHI_STAR],
            ["mass", PHI_STAR, "--bogus"],
            ["contain", J_Z1Z2, PHI_STAR, "-p"],
            ["contain", J_Z1Z2, PHI_STAR, "-p", "x"],
            ["contain", J_Z1Z2, PHI_STAR, "-p", "1" + "0" * 5000],
            ["mixed", SQUARE_CROSS, PHI_STAR, "--oracle", "foo"],
            ["dir-lelong", PHI_STAR],
            ["contain", J_Z1Z2, PHI_STAR],
            ["plot", PHI_STAR],
        ],
        ids=["empty", "unknown-command", "no-positional", "one-positional-short", "extra-positional",
             "unknown-flag", "flag-without-value", "p-not-int", "p-5000-digits", "bad-oracle",
             "missing-a", "missing-p", "missing-o"],
    )
    def test_malformed_argv_exits_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(f"lelong {argv[0]}: " if argv and argv[0] in COMMANDS else "lelong: ")

    def test_malformed_argv_in_a_child(self):
        proc = run_python("-m", "lelong.cli", "contain", J_Z1Z2, PHI_STAR, "-p", "x",
                          capture_output=True)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"lelong contain: -p takes an integer, got 'x'\n"

    @pytest.mark.parametrize(
        "argv, lines",
        [(["-h"], len(COMMANDS)), (["--help", "mass"], len(COMMANDS)), (["mass", "-h"], 1),
         (["contain", J_Z1Z2, "--help", "-p"], 1)],
    )
    def test_help(self, capsys, argv, lines):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == ""
        assert out.startswith("usage: lelong ") and out.count("\n") == lines
        if lines == 1:
            assert out.split()[2] == argv[0]

    def test_help_names_every_field(self, capsys):
        _, out, _ = run(capsys, "--help")
        assert "lelong plot FILE -o/--output OUTPUT\n" in out
        assert "lelong mixed JFILE IFILE [--oracle {polarization}]\n" in out
        assert "lelong lelong UFILE PHIFILE [--normalized]\n" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["lelong", "u", "phi", "--norm"],
            ["plot", "phi", "--out", "x.svg"],
            ["plot", "phi", "--out=x.svg"],
            ["mixed", "j", "i", "--orac", "polarization"],
            ["mass", "phi", "--he"],
            ["--bogus", "-h"],
            ["mass", "--", "-x.json"],
            ["mass", "x.json", "--"],
        ],
    )
    def test_dropped_forms(self, argv):
        """Argv forms argparse took that the table rejects on purpose:
        unique prefixes of long flags, an unknown flag before the command
        (argparse reported it only when no ``-h`` followed), and ``--``."""
        assert argparse_reading(argv) != 2
        with pytest.raises(InvalidInputError):
            parse_argv(argv)


@pytest.mark.parametrize(
    "text, value",
    [("3", 3), ("-1/2", Fraction(-1, 2)), ("007", 7), ("4/6", Fraction(2, 3)), ("-0", 0),
     ("9" * MAX_DIGITS + "/" + "9" * MAX_DIGITS, 1)],
)
def test_rational_grammar(text, value):
    assert parse_rational(text) == value


class TestStability:
    def test_byte_stable(self, capsys):
        _, first, _ = run(capsys, "gamma", PHI_STAR)
        _, second, _ = run(capsys, "gamma", PHI_STAR)
        assert first == second

    def test_rationals_round_trip(self, capsys):
        _, out, _ = run(capsys, "gamma", PHI_STAR)
        payload = json.loads(out)
        for atom in payload["atoms"]:
            for coord in atom["t"]:
                q = parse_rational(coord)
                assert str(q.numerator) == coord.split("/")[0]
            assert parse_rational(atom["mass"]) == Fraction(3)
        assert parse_rational(payload["total"]) == 6


class TestGoldenSubprocess:
    def _invoke(self, *argv):
        return run_python("-m", "lelong.cli", *argv, capture_output=True)

    def test_lelong_golden(self):
        proc = self._invoke("lelong", U_Z1, PHI_STAR)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "lelong_u_z1_phi_star.stdout").read_bytes()

    def test_mass_golden(self):
        proc = self._invoke("mass", PHI_STAR)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "mass_phi_star.stdout").read_bytes()

    def test_contain_p_zero_golden(self):
        proc = self._invoke("contain", J_Z1Z2, PHI_STAR, "-p", "0")
        assert proc.returncode == 2
        assert proc.stderr == (GOLDEN / "contain_p0.stderr").read_bytes()

    def test_import_leaves_numpy_unloaded(self):
        code = "import sys, lelong.cli; print('numpy' in sys.modules, 'lelong.oracles' in sys.modules)"
        proc = run_python("-c", code, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"

    def test_import_adds_no_heavy_modules(self):
        # Only what the import adds counts, so modules the interpreter's
        # own start-up loads do not.
        code = (
            "import sys; before = set(sys.modules); import lelong.cli; "
            "cli = set(sys.modules) - before; import lelong.oracles; "
            "oracles = set(sys.modules) - before - cli; "
            "print(*cli); print(*oracles)"
        )
        proc = run_python("-c", code, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        cli_added, oracles_added = (set(line.split()) for line in proc.stdout.splitlines())
        heavy = {
            "dataclasses", "inspect", "ast", "dis", "tokenize", "numpy", "argparse", "gettext",
            "lelong.render", "lelong.oracles",
        }
        assert "lelong.cli" in cli_added
        assert not cli_added & heavy
        assert "lelong.oracles" in oracles_added
        assert "dataclasses" not in oracles_added

    def test_command_leaves_locale_unloaded(self):
        code = (
            "import sys; from lelong.cli import main; "
            f"code = main(['mass', {PHI_STAR!r}]); print(code, 'locale' in sys.modules)"
        )
        proc = run_python("-c", code, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == '{"tau": "6"}\n0 False\n'

    def test_exponent_notation_exits_fast(self, tmp_path):
        # Fraction("1e999999999") would build a billion-digit integer.
        path = tmp_path / "exp.json"
        path.write_text('{"n": 2, "generators": [["1e999999999", 0], [0, 1]]}')
        for argv in (["mass", str(path)], ["dir-lelong", PHI_STAR, "--a", "1e999999999,1"]):
            proc = run_python("-m", "lelong.cli", *argv, capture_output=True, timeout=20)
            assert proc.returncode == 2
            assert proc.stderr.count(b"\n") == 1


# Entries in the grammar: ints up to 10**30 and "p/q" strings.
RATIONALS = st.one_of(
    st.integers(0, 9),
    st.integers(0, 10**30),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(1, 9)),
)
# Entries of every JSON type: the above, negative ints, "p/q" strings
# with zero or negative parts, other text, floats, bools, null, lists and
# dicts.
ENTRIES = st.one_of(
    RATIONALS,
    st.integers(-(10**30), -1),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-1, 0)),
    st.text(max_size=4),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


@st.composite
def documents(draw, n):
    """A document of 0 to 5 generators. Half are well formed: dimension
    ``n``, entries in the grammar (for some documents only ints, as ideals
    need), and often a pure power on every axis.
    The rest draw the field n from -1..8 or a non-integer, entries from
    ENTRIES, and the generator lengths freely."""
    if draw(st.booleans()):
        entries = draw(st.sampled_from([st.integers(0, 10**30), RATIONALS]))
        row = st.lists(entries, min_size=n, max_size=n)
        gens = draw(st.lists(row, min_size=1, max_size=5))
        if draw(st.booleans()):
            gens += [[draw(st.integers(1, 9)) * (i == k) for i in range(n)] for k in range(n)]
        return {"n": n, "generators": gens}
    n = draw(st.one_of(st.integers(-1, 8), st.sampled_from([2.0, "2", None, True, [2]])))
    length = n if isinstance(n, int) and 0 <= n else 2
    sizes = st.one_of(st.just(length), st.integers(0, 7))
    gens = [
        draw(st.lists(ENTRIES, min_size=size, max_size=size))
        for size in draw(st.lists(sizes, max_size=5))
    ]
    return {"n": n, "generators": gens}


SUBCOMMANDS = {
    "mass": 1, "dir-lelong": 1, "gamma": 1, "lelong": 2, "type": 2, "extremal": 1,
    "flat": 1, "mixed": 2, "contain": 2, "loj": 1, "plot": 1,
}


@st.composite
def invocations(draw):
    """A subcommand, its documents and its flags. Well-formed documents
    share one dimension; ``--a`` has that many positive ints or up to 7
    entries of any kind, and ``-p`` runs over -3..8."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    n = draw(st.integers(2, 6))
    docs = [draw(documents(n)) for _ in range(SUBCOMMANDS[command])]
    flags = []
    if command == "dir-lelong":
        a = draw(st.one_of(
            st.lists(st.integers(1, 9).map(str), min_size=n, max_size=n),
            st.lists(ENTRIES.map(str), max_size=7),
        ))
        flags = [f"--a={','.join(a)}"]
    elif command == "contain":
        flags = ["-p", str(draw(st.integers(-3, 8)))]
    elif command in ("lelong", "mixed") and draw(st.booleans()):
        flags = ["--normalized"] if command == "lelong" else ["--oracle", "polarization"]
    return command, docs, flags


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_contract(fuzz_dir, invocation):
    """Every subcommand, in process, on any document ends with exit 0, 2 or
    3; a nonzero exit prints exactly one stderr line, and a zero exit one
    JSON line on stdout (``plot`` writes its file instead)."""
    _assert_contract(fuzz_dir, *invocation)


def _assert_contract(fuzz_dir, command, docs, flags):
    """Run ``command`` on ``docs`` with ``flags`` and check the contract of
    ``test_cli_contract``."""
    argv = [command]
    for k, doc in enumerate(docs):
        path = fuzz_dir / f"doc{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv.append(str(path))
    if command == "plot":
        flags = ["-o", str(fuzz_dir / "out.svg")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + flags)
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        return
    assert err.getvalue() == ""
    if command == "plot":
        assert out.getvalue() == ""
    else:
        assert out.getvalue().count("\n") == 1 and json.loads(out.getvalue())


def _long_denominators(q, r, q2, r2):
    """The generators (10, 0), (0, 10), (2 + 1/q, 4 + 1/r) and
    (4 + 1/q2, 2 + 1/r2): each entry is far below MAX_DIGITS digits, but
    the lcm L of the denominators has about four times as many, and the
    residual mass, the atoms and the extremal direction have L^2 in
    their denominators."""
    def entry(whole, d):
        return f"{whole * d + 1}/{d}"

    return {"n": 2, "generators": [
        [10, 0], [0, 10], [entry(2, q), entry(4, r)], [entry(4, q2), entry(2, r2)],
    ]}


# Denominators of 1 to 3 or of 1200 to 1400 digits: small ones give
# results that print, large ones mostly results past the digit limit.
LONG_DENOMINATORS = st.builds(
    _long_denominators,
    *[
        st.one_of(st.integers(1, 3), st.integers(1200, 1400)).flatmap(
            lambda k: st.integers(10 ** (k - 1), 10**k - 1)
        )
    ] * 4,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(sorted(set(SUBCOMMANDS) - {"mixed", "contain"})),
    LONG_DENOMINATORS,
    LONG_DENOMINATORS,
)
def test_cli_contract_on_long_denominators(fuzz_dir, command, doc, other):
    docs = [doc, other][: SUBCOMMANDS[command]]
    flags = ["--a=1,2"] if command == "dir-lelong" else []
    _assert_contract(fuzz_dir, command, docs, flags)


@pytest.mark.parametrize("command", ["mass", "gamma", "extremal"])
def test_result_past_the_digit_limit_exits_2(fuzz_dir, command):
    big = [10**1199 + k for k in (7, 11, 13, 17)]
    path = fuzz_dir / "long.json"
    path.write_text(json.dumps(_long_denominators(*big)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main([command, str(path)]) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == (
        f"the exact result has a numeral of more than {MAX_DIGITS} digits, "
        "the interpreter's limit for printing an integer\n"
    )


# Valid values of each flag, written apart from it, and attached to it
# after "=" (and directly after a one-letter flag). Flags of kind bool
# take none.
GOOD_VALUES = {"--a": ["1,2", "-1", "1/2,3"], "-p": ["6", "-3", "0", " 6", "+6", "1_0"],
               "--oracle": ["polarization"], "-o": ["x.svg", "-"], "--output": ["x.svg"]}
# Tokens of every kind the table must read as argparse did: file names
# (some starting with "-"), every command's flags, values good and bad
# for each of them, flags with values attached, unknown flags and help.
TOKENS = [
    "a.json", "b.json", "-", "-3", "-.5", "-3.", "-1,2", "x y", "-x y", "-p 6",
    "--a", "--normalized", "--oracle", "-p", "-o", "--output", "-h", "--help", "--bogus", "-x",
    "polarization", "foo", "", "x", "1" + "0" * 5000, "3", "1.5",
    "--a=1,2", "--a=", "-p=3", "-p6", "-p-2", "-px", "--oracle=polarization", "--oracle=foo",
    "--oracle=", "--normalized=1", "--normalized=", "-o=x.svg", "-ox.svg", "--output=x.svg",
    "-h=1", "-hx", "--help=", "--bogus=1",
]


@st.composite
def argvs(draw):
    """An argv of one command, its flags in any of their forms with good
    values (three times in four) or any token, and its arguments in any
    order, then with up to three tokens inserted and up to two removed."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, positionals, flags = COMMANDS[command]
    units = [[f"{name}.json"] for name in positionals]
    for spelling in flags:
        if spelling == "--output" and draw(st.booleans()) or spelling == "--oracle" and draw(st.booleans()):
            continue
        if spelling not in GOOD_VALUES:
            units.append([spelling])
            continue
        value = draw(st.sampled_from(GOOD_VALUES[spelling] if draw(st.integers(0, 3)) else TOKENS))
        forms = [[spelling, value], [f"{spelling}={value}"]] + [[spelling + value]] * (len(spelling) == 2)
        units.append(draw(st.sampled_from(forms)))
    argv = [token for unit in draw(st.permutations(units)) for token in unit]
    for _ in range(draw(st.integers(0, 3))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
    for _ in range(draw(st.integers(0, 2))):
        if argv:
            del argv[draw(st.integers(0, len(argv) - 1))]
    head = draw(st.sampled_from([[command]] * 8 + [["-h"], ["--help"], ["foo"], ["MASS"], [""]]))
    return head + argv


@settings(max_examples=1000, deadline=None)
@given(argvs())
@example(["contain", "j.json", "i.json", "-p", "-3"])
@example(["dir-lelong", "a.json", "--a", "-.5"])
@example(["plot", "a.json", "-o", "-3."])
@example(["mass", "-x y"])
@example(["contain", "j.json", "i.json", "-p 6"])
@example(["plot", "a.json", "-ox.svg"])
def test_table_reads_argv_as_argparse_did(argv):
    """Where argparse read ``argv``, the table gives the same handler and
    fields; where it printed help, the table prints usage and exits 0;
    where it failed, ``parse_argv`` raises and ``main`` returns 2 with one
    stderr line. The forms the table drops on purpose are not drawn."""
    want = argparse_reading(argv)
    out, err = io.StringIO(), io.StringIO()
    if want == 2:
        with pytest.raises(InvalidInputError):
            parse_argv(argv)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    elif want == 0:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0
        assert out.getvalue().startswith("usage: lelong ") and err.getvalue() == ""
    else:
        assert parse_argv(argv) == want
