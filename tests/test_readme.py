"""The README's library quickstart runs as written and gives the values
that its comments state, so a renamed name or a changed value cannot leave
the README wrong."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart():
    """The first ``python`` block of the README, run statement by statement,
    as the (value, comment) pair of each expression statement in order."""
    source = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = source.splitlines()
    namespace = {}
    results = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.lineno - 1].partition("#")[2].strip()
            results.append((eval(code, namespace), comment))
        else:
            exec(code, namespace)
    return results


def test_quickstart_values():
    third = Fraction(1, 3)
    values = [value for value, _ in quickstart()]
    tau, atoms, direction, flat, loj, nu, sigma, samuel, mixed, literal = values
    assert tau == 6
    assert [(atom.vertex, atom.mass) for atom in atoms] == [
        ((-third, -2 * third), 3),
        ((-2 * third, -third), 3),
    ]
    assert direction == (Fraction(1, 2), Fraction(1, 2))
    assert flat is False
    assert loj == 3
    assert nu == 3
    assert sigma == third
    assert (samuel, mixed) == (6, 6)
    assert literal is False


def test_comments_are_the_reprs():
    # Every comment but the atoms' prose is the repr of its value.
    results = quickstart()
    assert results[1][1] == "atoms at (-1/3, -2/3) and (-2/3, -1/3), mass 3 each"
    for value, comment in results[:1] + results[2:]:
        assert repr(value) == comment
