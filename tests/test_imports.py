"""No module of the package imports a name that it never reads or a
module from outside the standard library, and only ``rationals`` binds
``functools.cached_property``: it defines the one lazy descriptor that
every other module uses."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lelong"
NOQA = "# noqa: F401"


def unused_imports(source):
    """The names that ``source`` binds by import and never reads, sorted.

    ``__future__`` features, the names listed in ``__all__`` and the names
    imported on a line marked ``# noqa: F401`` count as read.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if NOQA not in lines[node.lineno - 1] and NOQA not in lines[alias.lineno - 1]:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_finds_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .errors import InvalidInputError, NotPrimaryError\n"
        "from .geometry import (\n"
        "    hyperplane_normal,  # noqa: F401\n"
        "    int_det,\n"
        ")\n"
        "from .newton import Facet\n"
        "__all__ = ['Facet']\n"
        "def f(x: int_det) -> None:\n"
        "    raise NotPrimaryError(os.sep)\n"
    )
    assert unused_imports(source) == ["InvalidInputError"]
    assert unused_imports(source.replace("int_det)", "None)")) == ["InvalidInputError", "int_det"]


def binds_cached_property(source):
    """True iff ``source`` imports ``cached_property`` from ``functools``
    or reads it as an attribute, such as ``functools.cached_property``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in ("cached_property", "*") for alias in node.names):
                return True
        if isinstance(node, ast.Attribute) and node.attr == "cached_property":
            return True
    return False


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_rationals_binds_cached_property(path):
    # Every other module declares its lazy attributes with rationals.lazy.
    assert binds_cached_property(path.read_text()) == (path.name == "rationals.py")


def test_the_cached_property_guard():
    assert binds_cached_property("from functools import cached_property as cp\n")
    assert binds_cached_property("import functools\nx = functools.cached_property\n")
    assert binds_cached_property("from functools import *\n")
    assert not binds_cached_property("from functools import reduce\nfrom .rationals import lazy\n")


def outside_imports(source):
    """The top-level modules that ``source`` imports and that are not in
    the standard library, sorted. Every import counts, function bodies
    included; a relative import is the package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert outside_imports(path.read_text()) == []


def test_the_standard_library_guard():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from . import errors\n"
        "from .geometry import int_det\n"
        "from collections.abc import Sequence\n"
        "import scipy.spatial as sp\n"
        "def f():\n"
        "    import numpy as np\n"
        "    from hypothesis import given\n"
    )
    assert outside_imports(source) == ["hypothesis", "numpy", "scipy"]
    assert outside_imports("import random\nfrom .oracles import _float\n") == []
