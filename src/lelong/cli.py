"""Command-line interface: JSON documents in, exact JSON results out.

Input documents have the schema
``{"n": int, "generators": [[entry, ...], ...], "name"?: str}`` where
each entry is an integer or an exact "p/q" string. All rationals in the
output are serialized as decimal strings when integral and "p/q"
otherwise, with a fixed key order, so results are byte-stable.

Exit codes: 0 on success, 2 on input errors, 3 when an operation needs
pure-power (primary) structure the input lacks.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvalidInputError, NotPrimaryError
from .ideals import (
    MonomialIdeal,
    PrimaryMonomialIdeal,
    closure_containment_check,
    mixed_multiplicity,
)
from .oracles import mixed_multiplicity_polarization
from .rationals import format_rational, parse_rational
from .render import render_weight_svg
from .weights import HomogeneousPsh, MonomialWeight, generalized_lelong, relative_type


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: malformed JSON: {exc}") from None
    except RecursionError:
        raise InvalidInputError(f"{path}: malformed JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    n = doc.get("n")
    gens = doc.get("generators")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidInputError(f"{path}: field 'n' must be an integer")
    if not isinstance(gens, list) or not gens:
        raise InvalidInputError(f"{path}: field 'generators' must be a nonempty list")
    out = []
    for g in gens:
        if not isinstance(g, list) or len(g) != n:
            raise InvalidInputError(f"{path}: each generator must be a list of length {n}")
        out.append(tuple(parse_rational(c) for c in g))
    return out


def _load_psh(path) -> HomogeneousPsh:
    return HomogeneousPsh(_load_document(path))


def _load_weight(path) -> MonomialWeight:
    return MonomialWeight(_load_document(path))


def _load_ideal(path) -> MonomialIdeal:
    return MonomialIdeal(_load_document(path))


def _load_primary(path) -> PrimaryMonomialIdeal:
    return PrimaryMonomialIdeal(_load_document(path))


def _rats(values):
    return [format_rational(v) for v in values]


def _parse_direction(text):
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except InvalidInputError:
        raise InvalidInputError(f"bad direction {text!r}: expected comma-separated rationals")


def _cmd_mass(args):
    phi = _load_weight(args.file)
    return {"tau": format_rational(phi.residual_mass())}


def _cmd_dir_lelong(args):
    u = _load_psh(args.file)
    return {"nu": format_rational(u.directional_lelong(_parse_direction(args.a)))}


def _cmd_gamma(args):
    phi = _load_weight(args.file)
    measure = phi.lelong_measure()
    atoms = [
        {"t": _rats(atom.vertex), "mass": format_rational(atom.mass)}
        for atom in measure.atoms
    ]
    return {"atoms": atoms, "total": format_rational(measure.total_mass)}


def _cmd_lelong(args):
    u = _load_psh(args.ufile)
    phi = _load_weight(args.phifile)
    if args.normalized:
        return {"nu_tilde": format_rational(generalized_lelong(u, phi, normalized=True))}
    return {"nu": format_rational(generalized_lelong(u, phi))}


def _cmd_type(args):
    u = _load_psh(args.ufile)
    phi = _load_weight(args.phifile)
    return {"sigma": format_rational(relative_type(u, phi))}


def _cmd_extremal(args):
    phi = _load_weight(args.file)
    return {"a": _rats(phi.extremal_direction().direction), "flat": phi.is_flat()}


def _cmd_flat(args):
    phi = _load_weight(args.file)
    if phi.is_flat():
        return {"flat": True}
    witness = phi.flatness_witness()
    return {"flat": False, "witness": _rats(witness.generators[0])}


def _cmd_mixed(args):
    j = _load_ideal(args.jfile)
    i = _load_primary(args.ifile)
    payload = {"e": format_rational(mixed_multiplicity(j, i))}
    if args.oracle == "polarization":
        jp = PrimaryMonomialIdeal(j.generators)
        payload["oracle"] = format_rational(mixed_multiplicity_polarization(jp, i))
    return payload


def _cmd_contain(args):
    if args.p < 1:
        raise InvalidInputError("p must be a positive integer")
    j = _load_ideal(args.jfile)
    i = _load_primary(args.ifile)
    report = closure_containment_check(j, i, args.p)
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


def _cmd_loj(args):
    phi = _load_weight(args.file)
    return {"L": format_rational(phi.lojasiewicz_exponent())}


def _cmd_plot(args):
    phi = _load_weight(args.file)
    svg = render_weight_svg(phi)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise InvalidInputError(f"{args.output}: {exc}") from None
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lelong",
        description="Exact Newton-polyhedron invariants of monomial singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("mass", help="residual Monge-Ampere mass of a weight")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_mass)

    s = sub.add_parser("dir-lelong", help="directional number along a positive direction")
    s.add_argument("file")
    s.add_argument("--a", required=True, help="comma-separated positive rationals")
    s.set_defaults(handler=_cmd_dir_lelong)

    s = sub.add_parser("gamma", help="atomic measure on the level set {f = -1}")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_gamma)

    s = sub.add_parser("lelong", help="aggregate of u against the measure of phi")
    s.add_argument("ufile")
    s.add_argument("phifile")
    s.add_argument("--normalized", action="store_true")
    s.set_defaults(handler=_cmd_lelong)

    s = sub.add_parser("type", help="relative type of u with respect to phi")
    s.add_argument("ufile")
    s.add_argument("phifile")
    s.set_defaults(handler=_cmd_type)

    s = sub.add_parser("extremal", help="extremal simplicial direction of a weight")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_extremal)

    s = sub.add_parser("flat", help="flatness test with witness probe when false")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_flat)

    s = sub.add_parser("mixed", help="mixed multiplicity of ideals")
    s.add_argument("jfile")
    s.add_argument("ifile")
    s.add_argument("--oracle", choices=["polarization"])
    s.add_argument("--seed", type=int, default=0, help="seed for sampling-based oracles")
    s.add_argument("--samples", type=int, default=10000, help="sample count for sampling-based oracles")
    s.set_defaults(handler=_cmd_mixed)

    s = sub.add_parser("contain", help="containment report for (J, I, p)")
    s.add_argument("jfile")
    s.add_argument("ifile")
    s.add_argument("-p", type=int, required=True)
    s.set_defaults(handler=_cmd_contain)

    s = sub.add_parser("loj", help="Lojasiewicz exponent of a weight")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_loj)

    s = sub.add_parser("plot", help="SVG rendering of a 2-D Newton diagram")
    s.add_argument("file")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(handler=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
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
