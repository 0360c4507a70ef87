"""Line census of the package: the executable lines of ``src/lelong/``
that a pytest run never executes.

Run it by hand from the repository root; pytest does not collect it:

    python tests/census.py

It runs the whole suite (tier-1) in this process under a ``sys.settrace``
collector that traces only frames whose code lies in ``src/lelong/``,
then prints each executable line that never ran as ``file:line: source``
and the count. A line is executable if the compiler attributes an
instruction to it. Only the standard library is used. The collector
sees the main thread of this process only: a test that runs the package
in a child process (``python -m lelong.cli`` through
``support.run_python``) counts for nothing, so lines reached only that
way, such as the ``__main__`` line of ``cli.py``, are listed. Tracing
makes the suite about 3.5 times slower, and a test with a deadline may
fail under it.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lelong"
PREFIX = str(PACKAGE) + os.sep


def executable_lines(path):
    """The line numbers that the code compiled from ``path`` attributes
    an instruction to, in every nested code object."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main():
    import pytest

    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PREFIX):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - {ln for f, ln in ran if f == str(path)}):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} executable lines of src/lelong never ran (pytest exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
