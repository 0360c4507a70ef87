"""Command-line interface: JSON documents in, exact JSON results out.

Input documents have the schema
``{"n": int, "generators": [[entry, ...], ...], "name"?: str}``. Entries,
and those of the comma-separated ``dir-lelong --a``, reach the library
as read: each is an integer or an exact "p/q" string. Output rationals
are decimal strings when integral and "p/q" otherwise, with a fixed key
order, so results are byte-stable.

The command line is read against one table, ``COMMANDS``, without
argparse. Exit codes: 0 on success, 2 on input errors (a malformed
command line among them), 3 when an operation needs pure-power
(primary) structure the input lacks; a nonzero exit prints one line,
in which a file name is quoted by ``repr``.
"""

from __future__ import annotations

import json
import sys

from .errors import InvalidInputError, NotPrimaryError
from .ideals import (
    MonomialIdeal,
    PrimaryMonomialIdeal,
    closure_containment_check,
    mixed_multiplicity,
)
from .rationals import format_rational
from .weights import HomogeneousPsh, MonomialWeight, generalized_lelong, relative_type


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"{path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path!r}: not UTF-8 text: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path!r}: malformed JSON: {exc}") from None
    except RecursionError:
        raise InvalidInputError(f"{path!r}: malformed JSON: nested too deeply") from None
    except ValueError:
        # json.loads raises a plain ValueError for an integer literal
        # longer than int() accepts.
        raise InvalidInputError(f"{path!r}: malformed JSON: an integer has too many digits") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path!r}: expected a JSON object")
    n = doc.get("n")
    gens = doc.get("generators")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidInputError(f"{path!r}: field 'n' must be an integer")
    if not isinstance(gens, list) or not gens:
        raise InvalidInputError(f"{path!r}: field 'generators' must be a nonempty list")
    out = []
    for g in gens:
        if not isinstance(g, list) or len(g) != n:
            raise InvalidInputError(f"{path!r}: each generator must be a list of length {n}")
        out.append(tuple(g))
    return out


def _rats(values):
    return [format_rational(v) for v in values]


def _cmd_mass(file):
    phi = MonomialWeight(_load_document(file))
    return {"tau": format_rational(phi.residual_mass())}


def _cmd_dir_lelong(file, a):
    u = HomogeneousPsh(_load_document(file))
    return {"nu": format_rational(u.directional_lelong(a.split(",")))}


def _cmd_gamma(file):
    phi = MonomialWeight(_load_document(file))
    measure = phi.lelong_measure()
    atoms = [
        {"t": _rats(atom.vertex), "mass": format_rational(atom.mass)}
        for atom in measure.atoms
    ]
    return {"atoms": atoms, "total": format_rational(measure.total_mass)}


def _cmd_lelong(ufile, phifile, normalized):
    u = HomogeneousPsh(_load_document(ufile))
    phi = MonomialWeight(_load_document(phifile))
    if normalized:
        return {"nu_tilde": format_rational(generalized_lelong(u, phi, normalized=True))}
    return {"nu": format_rational(generalized_lelong(u, phi))}


def _cmd_type(ufile, phifile):
    u = HomogeneousPsh(_load_document(ufile))
    phi = MonomialWeight(_load_document(phifile))
    return {"sigma": format_rational(relative_type(u, phi))}


def _cmd_extremal(file):
    phi = MonomialWeight(_load_document(file))
    return {"a": _rats(phi.extremal_direction().direction), "flat": phi.is_flat()}


def _cmd_flat(file):
    phi = MonomialWeight(_load_document(file))
    if phi.is_flat():
        return {"flat": True}
    witness = phi.flatness_witness()
    return {"flat": False, "witness": _rats(witness.generators[0])}


def _cmd_mixed(jfile, ifile, oracle):
    j = MonomialIdeal(_load_document(jfile))
    i = PrimaryMonomialIdeal(_load_document(ifile))
    payload = {"e": format_rational(mixed_multiplicity(j, i))}
    if oracle == "polarization":
        from .oracles import mixed_multiplicity_polarization

        jp = PrimaryMonomialIdeal(j.generators)
        payload["oracle"] = format_rational(mixed_multiplicity_polarization(jp, i))
    return payload


def _cmd_contain(jfile, ifile, p):
    j = MonomialIdeal(_load_document(jfile))
    i = PrimaryMonomialIdeal(_load_document(ifile))
    report = closure_containment_check(j, i, p)
    return {
        "p": report.p,
        "e": format_rational(report.mixed_multiplicity),
        "hypothesis": report.hypothesis,
        "e_k": _rats(report.axis_multiplicities),
        "p_k": list(report.exponents),
        "generators": [
            {
                "beta": _rats(g.exponent),
                "axis_bound": g.axis_bound,
                "closure": g.closure_member,
                "literal": g.literal_member,
            }
            for g in report.generators
        ],
        "all_axis_bound": report.all_axis_bound,
        "all_closure": report.all_closure,
        "all_literal": report.all_literal,
    }


def _cmd_loj(file):
    phi = MonomialWeight(_load_document(file))
    return {"L": format_rational(phi.lojasiewicz_exponent())}


def _cmd_plot(file, output):
    from .render import render_weight_svg

    phi = MonomialWeight(_load_document(file))
    svg = render_weight_svg(phi)
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise InvalidInputError(f"{output!r}: {exc}") from None
    return None


# command: (handler, positional fields, {flag spelling: (field, kind)}).
# A flag of kind str or int takes a value and is required; one of kind
# bool takes none and defaults to False; one whose kind is a tuple takes
# one of its values and defaults to None.
COMMANDS = {
    "mass": (_cmd_mass, ("file",), {}),
    "dir-lelong": (_cmd_dir_lelong, ("file",), {"--a": ("a", str)}),
    "gamma": (_cmd_gamma, ("file",), {}),
    "lelong": (_cmd_lelong, ("ufile", "phifile"), {"--normalized": ("normalized", bool)}),
    "type": (_cmd_type, ("ufile", "phifile"), {}),
    "extremal": (_cmd_extremal, ("file",), {}),
    "flat": (_cmd_flat, ("file",), {}),
    "mixed": (_cmd_mixed, ("jfile", "ifile"), {"--oracle": ("oracle", ("polarization",))}),
    "contain": (_cmd_contain, ("jfile", "ifile"), {"-p": ("p", int)}),
    "loj": (_cmd_loj, ("file",), {}),
    "plot": (_cmd_plot, ("file",), {"-o": ("output", str), "--output": ("output", str)}),
}
HELP = ("-h", "--help")


def _cmd_help(commands):
    lines = []
    for command in commands:
        _, positionals, flags = COMMANDS[command]
        words = ["lelong", command, *map(str.upper, positionals)]
        for field, kind in dict.fromkeys(flags.values()):
            flag = "/".join(spelling for spelling, entry in flags.items() if entry == (field, kind))
            if kind is bool:
                words.append(f"[{flag}]")
            elif isinstance(kind, tuple):
                words.append(f"[{flag} {{{','.join(kind)}}}]")
            else:
                words.append(f"{flag} {field.upper()}")
        lines.append(" ".join(words))
    sys.stdout.write("usage: " + "\n       ".join(lines) + "\n")


def _flag(token, spellings):
    """``(spelling, attached value or None)`` when ``token`` is a flag,
    None when it is a value. As in argparse, ``-1``, ``-.5`` and a token
    with a space that names no flag are values, and any other token
    starting with ``-`` is a flag, known or not."""
    if token in spellings:
        return token, None
    spelling, eq, value = token.partition("=")
    if eq and spelling in spellings:
        return spelling, value
    if token[1:2] != "-" and token[:2] in spellings:
        return token[:2], token[2:]
    whole, dot, frac = token[1:].partition(".")
    negative = (whole.isdecimal() or dot and not whole) and (not dot or frac.isdecimal())
    if token[:1] != "-" or token == "-" or negative or " " in token:
        return None
    return token, None


def parse_argv(argv):
    """The handler for ``argv`` and the fields to call it with. Flags
    come before, between or after the positionals, as ``--a X``,
    ``--a=X`` or ``-pX``; ``-h`` or ``--help`` gives the help handler. A
    malformed ``argv`` raises InvalidInputError with one line naming the
    bad argument."""
    if not argv or argv[0] not in COMMANDS and argv[0] not in HELP:
        got = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise InvalidInputError(f"lelong: {got}; expected one of {', '.join(COMMANDS)}")
    command = argv[0]
    if command in HELP:
        return _cmd_help, {"commands": tuple(COMMANDS)}
    handler, positionals, flags = COMMANDS[command]
    spellings = {**flags, **dict.fromkeys(HELP, (None, bool))}
    fields = {field: False if kind is bool else None for field, kind in flags.values()}
    values, unknown = [], []

    def bad(problem):
        return InvalidInputError(f"lelong {command}: {problem}")

    tokens = iter(argv[1:])
    for token in tokens:
        flag = _flag(token, spellings)
        if flag is None:
            values.append(token)
        elif flag[0] not in spellings:
            unknown.append(token)
        else:
            spelling, value = flag
            field, kind = spellings[spelling]
            if kind is bool:
                if value is not None:
                    raise bad(f"{spelling} takes no value, got {value!r}")
                if field is None:
                    return _cmd_help, {"commands": (command,)}
                value = True
            elif value is None:
                value = next(tokens, None)
                if value is None or _flag(value, spellings):
                    raise bad(f"{spelling} needs a value")
            if isinstance(kind, tuple) and value not in kind:
                raise bad(f"{spelling} takes one of {', '.join(kind)}, got {value!r}")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise bad(f"{spelling} takes an integer, got {value!r}") from None
            fields[field] = value
    unknown += values[len(positionals):]
    if unknown:
        raise bad(f"unrecognized argument {unknown[0]!r}")
    if len(values) < len(positionals):
        raise bad(f"missing {positionals[len(values)].upper()}")
    for spelling, (field, kind) in flags.items():
        if fields[field] is None and kind in (str, int):
            raise bad(f"missing {spelling} {field.upper()}")
    fields.update(zip(positionals, values))
    return handler, fields


def main(argv=None) -> int:
    try:
        handler, fields = parse_argv(sys.argv[1:] if argv is None else argv)
        payload = handler(**fields)
    except NotPrimaryError as exc:
        print(exc, file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(exc, file=sys.stderr)
        return 2
    if payload is not None:
        sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
