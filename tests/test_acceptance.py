"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. All exact criteria use zero tolerance (Fraction arithmetic); the
Monte Carlo criterion uses its stated 3-standard-error band.

Criterion 11 is split in two tests: the axis bound together with the
literal-membership discrepancy instance (both hold), and the
integer-exponent closure bound, which fails on reachable instances; the
failing test's message carries an explicit counterexample.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

from lelong.ideals import (
    MonomialIdeal,
    PrimaryMonomialIdeal,
    closure_containment_check,
    mixed_multiplicity,
)
from lelong.oracles import (
    covolume_monte_carlo,
    covolume_staircase_2d,
    mixed_multiplicity_polarization,
)
from lelong.weights import (
    DirectionalWeight,
    HomogeneousPsh,
    MonomialWeight,
    generalized_lelong,
    relative_type,
)

from float_oracles import quasi_triangle_check
from support import (
    ASTAR,
    random_direction,
    random_ideal,
    random_primary_ideal,
    random_psh,
    random_weight,
    run_python,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

PHI_STAR = MonomialWeight(ASTAR)


def check(criterion, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_1_residual_mass():
    ok = PHI_STAR.residual_mass() == 6
    assert check("1", ok, "residual mass of the worked weight is 6")


def test_criterion_2_generalized_lelong():
    ok = generalized_lelong(HomogeneousPsh([(1, 0)]), PHI_STAR) == 3
    assert check("2", ok, "aggregate of the coordinate probe is 3")


def test_criterion_3_normalized_values():
    one = generalized_lelong(HomogeneousPsh([(2, 0)]), PHI_STAR, normalized=True)
    two_thirds = generalized_lelong(
        HomogeneousPsh([(2, 0), (0, 2)]), PHI_STAR, normalized=True
    )
    ok = one == 1 and two_thirds == Fraction(2, 3)
    assert check("3", ok, "normalized aggregates are 1 and 2/3")


def test_criterion_4_type_gap():
    u = HomogeneousPsh([(1, 0)])
    sigma = relative_type(u, PHI_STAR)
    nu = generalized_lelong(u, PHI_STAR, normalized=True)
    ok = sigma == Fraction(1, 3) and nu == Fraction(1, 2) and sigma < nu
    assert check("4", ok, "type 1/3 strictly below normalized aggregate 1/2")


def test_criterion_5_extremal_direction():
    direction = PHI_STAR.extremal_direction().direction
    ok = direction == (Fraction(1, 2), Fraction(1, 2))
    rng = random.Random(2024_05)
    for _ in range(1000):
        n = rng.choice((2, 3, 4))
        phi = random_weight(rng, n, max_exp=9, max_extra=2)
        u = random_psh(rng, n)
        a = phi.extremal_direction().direction
        if u.directional_lelong(a) < generalized_lelong(u, phi, normalized=True):
            ok = False
            break
    assert check("5", ok, "extremal direction (1/2, 1/2); bound on 1000 instances")


def test_criterion_6_mass_conservation():
    rng = random.Random(2024_06)
    ok = True
    for _ in range(500):
        phi = random_weight(rng, rng.choice((2, 3, 4)), max_exp=12)
        if phi.lelong_measure().total_mass != phi.residual_mass():
            ok = False
            break
    assert check("6", ok, "total measure equals residual mass on 500 weights")


def test_criterion_7_polarization_oracle():
    ok = (
        mixed_multiplicity_polarization(
            PrimaryMonomialIdeal([(2, 0), (0, 2), (1, 1)]), PrimaryMonomialIdeal(ASTAR)
        )
        == 4
    )
    rng = random.Random(2024_07)
    for _ in range(200):
        n = rng.choice((2, 3))
        i = random_primary_ideal(rng, n, max_exp=6)
        j = random_primary_ideal(rng, n, max_exp=6)
        if mixed_multiplicity_polarization(j, i) != mixed_multiplicity(j, i):
            ok = False
            break
    assert check("7", ok, "measure path equals polarization on 200 pairs")


def test_criterion_8_directional_scaling_identity():
    rng = random.Random(2024_08)
    ok = True
    for _ in range(500):
        n = rng.choice((2, 3, 4))
        u = random_psh(rng, n)
        a = random_direction(rng, n)
        nu = generalized_lelong(u, DirectionalWeight(a))
        if u.directional_lelong(a) != math.prod(a) * nu:
            ok = False
            break
    assert check("8", ok, "directional number equals scaled aggregate on 500 draws")


def test_criterion_9_type_bound_flatness():
    rng = random.Random(2024_09)
    ok = True
    witnessed = 0
    for _ in range(400):
        n = rng.choice((2, 3, 4))
        phi = random_weight(rng, n, max_exp=9, max_extra=2)
        u = random_psh(rng, n)
        nu = generalized_lelong(u, phi, normalized=True)
        sigma = relative_type(u, phi)
        if nu < sigma:
            ok = False
            break
        if phi.is_flat():
            if nu != sigma:
                ok = False
                break
        else:
            witness = phi.flatness_witness()
            if witness is None or not (
                generalized_lelong(witness, phi, normalized=True)
                > relative_type(witness, phi)
            ):
                ok = False
                break
            witnessed += 1
    ok = ok and witnessed > 50
    assert check("9", ok, f"aggregate >= type; {witnessed} non-simplicial witnesses")


def test_criterion_10_covolume_cross_checks():
    rng = random.Random(2024_10)
    ok = True
    for _ in range(500):
        phi = random_weight(rng, 2, max_exp=12)
        if phi.polyhedron.covolume() != covolume_staircase_2d(phi.generators):
            ok = False
            break
    hits = 0
    runs = 100
    for seed in range(runs):
        n = rng.choice((2, 3, 4))
        poly = random_weight(rng, n, max_exp=6, max_extra=2).polyhedron
        exact = float(poly.covolume())
        est = covolume_monte_carlo(poly, samples=1200, seed=seed)
        if abs(est.value - exact) <= 3 * est.standard_error:
            hits += 1
    ok = ok and hits >= 99
    assert check("10", ok, f"staircase exact on 500; Monte Carlo {hits}/{runs} within 3 SE")


def _random_containment_instances(count):
    rng = random.Random(2024_11)
    instances = []
    while len(instances) < count:
        n = rng.choice((2, 3))
        i = random_primary_ideal(rng, n, max_exp=6)
        j = random_ideal(rng, n, max_exp=6)
        e = mixed_multiplicity(j, i)
        if e < 1:
            continue
        p = rng.randint(1, e)
        instances.append((j, i, p))
    return instances


def test_criterion_11_axis_bound_and_literal_discrepancy():
    ok = True
    for j, i, p in _random_containment_instances(200):
        report = closure_containment_check(j, i, p)
        if not (report.hypothesis and report.all_axis_bound):
            ok = False
            break
    discrepancy = closure_containment_check(
        MonomialIdeal([(1, 1)]), PrimaryMonomialIdeal(ASTAR), 6
    )
    ok = ok and discrepancy.hypothesis and discrepancy.all_closure
    ok = ok and not discrepancy.all_literal
    assert check(
        "11 (axis bound, literal discrepancy)",
        ok,
        "axis bound on 200 instances; worked instance reports literal=false",
    )


def test_criterion_11_closure_membership():
    """Integer-rounded exponents do not preserve the closure bound.

    The sharp consequence of the extremal bound is the axis inequality
    sum_k beta_k e_k >= p (criterion part above). Rounding p/e_k up to
    integers strengthens the claim beyond what the bound gives, and
    reachable instances violate it, e.g. J = (z1 z2), I = (z1^2, z2^3),
    p = 5: e = (3, 2), mixed multiplicity 5 >= p, exponents (2, 3), and
    1/2 + 1/3 = 5/6 < 1. This test states the criterion as written and
    is expected to fail; the analysis lives in the project notes.
    """
    violations = []
    for j, i, p in _random_containment_instances(200):
        report = closure_containment_check(j, i, p)
        if not report.all_closure:
            violations.append(
                (j.generators, i.generators, p, report.axis_multiplicities, report.exponents)
            )
    ok = not violations
    check("11 (closure membership)", ok, f"{len(violations)} violations in 200 instances")
    assert ok, (
        "integer closure exponents lose the sharp axis bound; first violation "
        f"(J, I, p, e_k, p_k) = {violations[0]}"
    )


def test_criterion_12_quasi_triangle():
    rng = random.Random(2024_12)
    ok = True
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        a = random_direction(rng, n)
        report = quasi_triangle_check(a, samples=10**4, seed=rng.randint(0, 2**32))
        if not report.passed:
            ok = False
            break
    assert check("12", ok, "20 directional weights, 10^4 samples each")


def test_criterion_13_cli_golden():
    def invoke(*argv):
        return run_python("-m", "lelong.cli", *argv, capture_output=True)

    lelong_proc = invoke("lelong", str(DATA / "u_z1.json"), str(DATA / "phi_star.json"))
    mass_proc = invoke("mass", str(DATA / "phi_star.json"))
    contain_proc = invoke(
        "contain", str(DATA / "j_z1z2.json"), str(DATA / "phi_star.json"), "-p", "0"
    )
    ok = (
        lelong_proc.returncode == 0
        and lelong_proc.stdout == (GOLDEN / "lelong_u_z1_phi_star.stdout").read_bytes()
        and mass_proc.returncode == 0
        and mass_proc.stdout == (GOLDEN / "mass_phi_star.stdout").read_bytes()
        and contain_proc.returncode == 2
        and contain_proc.stderr == (GOLDEN / "contain_p0.stderr").read_bytes()
    )
    assert check("13", ok, "three CLI invocations byte-match their golden files")
