"""The value records: exact reprs, equality with equal hashes, immutability.
And the reprs of the objects that are not records.

One concrete instance of each record is built twice through the library,
on the worked example phi* = {(3,0), (0,3), (1,1)}, the ideal (z1 z2)
against it, and seeded oracle runs.
"""

import pytest

from lelong.ideals import MonomialIdeal, PrimaryMonomialIdeal, closure_containment_check
from lelong.newton import NewtonPolyhedron
from lelong.oracles import covolume_monte_carlo
from lelong.weights import HomogeneousPsh, MonomialWeight

from float_oracles import quasi_triangle_check
from support import ASTAR

ATOM = "LelongAtom(vertex=(Fraction(-1, 3), Fraction(-2, 3)), mass=Fraction(3, 1))"
GENERATOR = "GeneratorContainment(exponent=(1, 1), axis_bound=True, closure_member=True, literal_member=True)"

RECORDS = {
    "Facet": (
        lambda: NewtonPolyhedron(ASTAR).compact_facets[0],
        "Facet(normal=(1, 2), support=Fraction(3, 1), vertex_indices=(1, 2))",
        "support",
    ),
    "LelongAtom": (lambda: MonomialWeight(ASTAR).lelong_measure().atoms[0], ATOM, "mass"),
    "LelongMeasure": (
        lambda: MonomialWeight(ASTAR).lelong_measure(),
        f"LelongMeasure(atoms=({ATOM}, LelongAtom(vertex=(Fraction(-2, 3), Fraction(-1, 3)), mass=Fraction(3, 1))))",
        "atoms",
    ),
    "GeneratorContainment": (
        lambda: closure_containment_check(MonomialIdeal([(1, 1)]), PrimaryMonomialIdeal(ASTAR), 2).generators[0],
        GENERATOR,
        "closure_member",
    ),
    "ContainmentReport": (
        lambda: closure_containment_check(MonomialIdeal([(1, 1)]), PrimaryMonomialIdeal(ASTAR), 2),
        "ContainmentReport(p=2, mixed_multiplicity=6, hypothesis=True, axis_multiplicities=(3, 3), "
        f"exponents=(1, 1), generators=({GENERATOR},))",
        "p",
    ),
    "McEstimate": (
        lambda: covolume_monte_carlo(NewtonPolyhedron(ASTAR), 1000, seed=7),
        "McEstimate(value=3.024, standard_error=0.13449726210415405, samples=1000, seed=7)",
        "value",
    ),
    "QuasiTriangleReport": (
        lambda: quasi_triangle_check((1, 2), 100, seed=1),
        "QuasiTriangleReport(max_violation=-0.09074047344468103, passed=True, samples=100, seed=1, "
        "constant=0.6931471805599453)",
        "passed",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, expected_repr, field = RECORDS[name]
    first, second = build(), build()
    assert type(first).__name__ == name
    assert repr(first) == expected_repr
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    with pytest.raises(AttributeError):
        setattr(first, field, None)
    assert repr(first) == expected_repr


# name -> (build, expected repr) for the objects that are not value records.
REPRS = {
    "NewtonPolyhedron": (
        lambda: NewtonPolyhedron(ASTAR),
        "NewtonPolyhedron(dim=2, vertices=[('0', '3'), ('1', '1'), ('3', '0')])",
    ),
    "HomogeneousPsh": (
        lambda: HomogeneousPsh([("1/2", 0), (0, "3/2")]),
        "HomogeneousPsh([('0', '3/2'), ('1/2', '0')])",
    ),
    "MonomialIdeal": (lambda: MonomialIdeal([(1, 1)]), "MonomialIdeal([(1, 1)])"),
}


@pytest.mark.parametrize("name", REPRS)
def test_repr(name):
    build, expected_repr = REPRS[name]
    assert repr(build()) == expected_repr
