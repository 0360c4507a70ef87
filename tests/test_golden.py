"""Byte identity of the weight invariants against a committed golden file.

``golden/invariants.json`` holds fixed inputs and, for each, the
invariants in the canonical ``format_rational`` form: the residual mass,
the atoms, the extremal direction, the flatness witness, the Lojasiewicz
exponent and, for integer sets, the axis multiplicities. The inputs are
the vertex-rich sets (s_1^2, ..., s_n^2) over the weak compositions s of
m into n parts, and seeded draws at n = 2..6: weights whose generators
are divided by random rationals (so the lcm of the denominators exceeds
1), directional weights and primary ideals. The test rebuilds every
output from the stored inputs, so it does not depend on the generators
in ``support.py``. The file was written by

    PYTHONPATH=src python tests/test_golden.py

and is regenerated only when an output is meant to change.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from lelong.ideals import PrimaryMonomialIdeal, axis_multiplicities
from lelong.rationals import format_rational
from lelong.weights import DirectionalWeight, MonomialWeight

GOLDEN = Path(__file__).resolve().parent / "golden" / "invariants.json"

# The five vertex-rich sizes of the benchmark, then three larger ones.
VERTEX_RICH = ((2, 32), (3, 5), (3, 6), (4, 3), (5, 2), (4, 4), (5, 3), (6, 2))


def _qs(values):
    return [format_rational(c) for c in values]


def invariants(case):
    """The outputs of one stored input, as JSON values."""
    if case["kind"] == "direction":
        phi = DirectionalWeight(case["input"])
    else:
        phi = MonomialWeight(case["input"])
    witness = phi.flatness_witness()
    out = {
        "tau": format_rational(phi.residual_mass()),
        "atoms": [[_qs(a.vertex), format_rational(a.mass)] for a in phi.lelong_measure().atoms],
        "a": _qs(phi.extremal_direction().direction),
        "witness": None if witness is None else _qs(witness.generators[0]),
        "loj": format_rational(phi.lojasiewicz_exponent()),
    }
    if case["kind"] == "ideal":
        out["axis_multiplicities"] = list(axis_multiplicities(PrimaryMonomialIdeal(case["input"])))
    return out


def _inputs():
    from support import random_direction, random_primary_ideal, random_weight, vertex_rich

    cases = [
        {"kind": "ideal", "name": f"vertex_rich_{n}_{m}", "input": vertex_rich(n, m)}
        for n, m in VERTEX_RICH
    ]
    rng = random.Random(2009)
    for n in range(2, 7):
        for i in range(6):
            gens = random_weight(rng, n, max_exp=16).generators
            scaled = []
            for g in gens:
                r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                scaled.append(_qs(c / r for c in g))
            cases.append({"kind": "weight", "name": f"rational_{n}_{i}", "input": scaled})
        for i in range(2):
            cases.append({"kind": "direction", "name": f"direction_{n}_{i}",
                          "input": _qs(random_direction(rng, n))})
        for i in range(2):
            gens = random_primary_ideal(rng, n).generators
            cases.append({"kind": "ideal", "name": f"ideal_{n}_{i}",
                          "input": [[int(c) for c in g] for g in gens]})
    return cases


def test_invariants_match_golden():
    cases = json.loads(GOLDEN.read_text())
    assert [case["name"] for case in cases if invariants(case) != case["output"]] == []


def test_golden_covers_rational_generators():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) >= 50
    assert any(
        "/" in c for case in cases if case["kind"] == "weight" for g in case["input"] for c in g
    )


if __name__ == "__main__":
    cases = _inputs()
    for case in cases:
        case["output"] = invariants(case)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
