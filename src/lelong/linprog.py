"""Exact LP feasibility over the rationals.

A small dense phase-one primal simplex with Bland's rule decides whether
``rows . x == rhs``, ``x >= 0`` has a solution. Every pivot is carried
out in Fraction arithmetic, so the answer is exact; Bland's rule
guarantees termination under degeneracy. The problems solved here are
tiny (tens of variables), which makes the dense tableau the right tool.
Its caller is ``geometry.cone_point_member`` and, through it, the
Monte Carlo oracle.
"""

from __future__ import annotations

from fractions import Fraction


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f:
            tab[i] = [a - f * b for a, b in zip(r, prow)]
    basis[row] = col


def _run_simplex(tab, basis, ncols):
    """Pivot until optimal.

    The last tableau row holds reduced costs with -objective in its final
    cell; only the first ``ncols`` columns may enter the basis. The
    phase-one objective is bounded below by zero, so the ratio test
    always finds a leaving row.
    """
    nrows = len(tab) - 1
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return
        best_row = None
        best_ratio = None
        for i in range(nrows):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_row, best_ratio = i, ratio
        _pivot(tab, basis, best_row, col)


def feasible(rows, rhs) -> bool:
    """Exact feasibility of ``rows . x == rhs``, ``x >= 0``.

    Phase one: minimize the sum of one artificial variable per row; the
    system is feasible iff that minimum is zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    zero, one = Fraction(0), Fraction(1)
    tab = []
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        r = [Fraction(v) for v in rows[i]]
        if b[i] < 0:
            r = [-v for v in r]
            b[i] = -b[i]
        art = [one if j == i else zero for j in range(m)]
        tab.append(r + art + [b[i]])
    obj = [-sum(tab[i][j] for i in range(m)) for j in range(n)]
    obj += [zero] * m + [-sum(b)]
    tab.append(obj)
    basis = [n + i for i in range(m)]
    _run_simplex(tab, basis, n)
    return tab[-1][-1] == 0
