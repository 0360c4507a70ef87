"""The A/B timing tool ``tests/ab.py`` runs against this checkout itself,
so a renamed workload or name in ``perfbench/workloads.py`` cannot leave
it broken unseen, and it rejects a bad round count or workload before it
times anything."""

from pathlib import Path

import pytest

from support import run_python

ROOT = Path(__file__).resolve().parent.parent
AB = str(ROOT / "tests" / "ab.py")


def test_runs_against_the_checkout_itself():
    proc = run_python(
        AB, ".", "--workload", "vertex_rich", "--rounds", "2",
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "vertex_rich: 40 operations, outputs equal under both packages" in proc.stdout
    assert "over 2 rounds" in proc.stdout


def test_seed_picks_the_pool():
    # Another seed draws another pool of the same size, compared alike.
    proc = run_python(
        AB, ".", "--workload", "vertex_rich", "--rounds", "2", "--seed", "2",
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "vertex_rich: 40 operations, outputs equal under both packages" in proc.stdout
    assert "over 2 rounds on the seed-2 pool" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rounds", "1"], "at least 2 rounds are needed, got 1"),
        (["--workload", "no_such_workload"], "unknown workload 'no_such_workload'"),
    ],
)
def test_rejects_bad_arguments_up_front(argv, message):
    proc = run_python(AB, ".", *argv, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2
    assert message in proc.stderr and proc.stdout == ""
