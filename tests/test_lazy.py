"""The lazy attributes: one descriptor, ``rationals.lazy``, a subclass of
``functools.cached_property``. Code that wraps lazy attributes by type,
as ``perfbench/tracer.py`` does, finds every one of them; the first read
stores the value in the instance's ``__dict__`` under the attribute's
own name; and the function runs once, however often the value is read."""

import functools
import importlib
import inspect
import pkgutil

import pytest

import lelong
from lelong import ideals, newton, rationals, weights
from lelong.rationals import exponent_set, lazy

GENS = [(4, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)]
# No point below the hyperplane of the pure powers: the hull's closed form,
# whose rays are lazy too (the double description sets them when built).
CLOSED = [(4, 0, 0), (0, 3, 0), (0, 0, 5), (2, 2, 2)]

# Per owner class, a fresh instance and the names of its lazy attributes.
LAZY = {
    rationals._ExponentSet: (
        lambda: exponent_set(GENS),
        ["_vectors", "pure_powers", "pure_power_plane", "unreached", "intercepts"],
    ),
    newton.NewtonPolyhedron: (
        lambda: newton.NewtonPolyhedron(CLOSED),
        ["_rays", "compact_facets", "vertices", "axis_intercepts", "_facet_cone_volumes"],
    ),
    weights.HomogeneousPsh: (lambda: weights.HomogeneousPsh(GENS), ["polyhedron"]),
    weights.MonomialWeight: (
        lambda: weights.MonomialWeight(GENS),
        ["_residual_mass", "_measure", "_mass_over_support", "_axis_sums"],
    ),
    weights.DirectionalWeight: (lambda: weights.DirectionalWeight((1, "2/3", 5)), ["generators"]),
    ideals.MonomialIdeal: (lambda: ideals.MonomialIdeal(GENS), ["psh"]),
    ideals.PrimaryMonomialIdeal: (
        lambda: ideals.PrimaryMonomialIdeal(GENS),
        ["weight", "_axis_multiplicities"],
    ),
}
CASES = [(cls, name) for cls, (_, names) in LAZY.items() for name in names]
IDS = [f"{cls.__name__}.{name}" for cls, name in CASES]


def test_every_lazy_attribute_is_listed():
    found = set()
    for info in pkgutil.iter_modules(lelong.__path__):
        module = importlib.import_module(f"lelong.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                found |= {(cls, n) for n, m in vars(cls).items() if isinstance(m, lazy)}
    assert found == set(CASES)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_member_is_a_cached_property(case):
    cls, name = case
    member = vars(cls)[name]
    assert isinstance(member, functools.cached_property) and type(member) is lazy
    assert member.attrname == name
    assert getattr(cls, name) is member


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_first_read_stores_the_value_under_its_name(case):
    cls, name = case
    obj = LAZY[cls][0]()
    assert type(obj) is cls and name not in vars(obj)
    value = getattr(obj, name)
    assert vars(obj)[name] is value
    assert getattr(obj, name) is value


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_the_function_runs_once(case, monkeypatch):
    cls, name = case
    func = vars(cls)[name].func
    calls = []

    def counted(obj):
        calls.append(obj)
        return func(obj)

    stub = lazy(counted)
    stub.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, stub)
    obj = LAZY[cls][0]()
    first = getattr(obj, name)
    assert getattr(obj, name) is first
    assert len(calls) == 1 and calls[0] is obj
