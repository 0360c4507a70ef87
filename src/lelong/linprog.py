"""Exact cone-membership LP over the rationals.

For columns G >= 0 (exponent vectors) and a point x >= 0,

    x in conv(G) + R_+^n  iff  max { sum(lambda) : G lambda <= x, lambda >= 0 } >= 1:

a convex combination below x has sum 1, and if s = sum(lambda) >= 1
then G (lambda / s) <= x / s <= x. The slack basis is feasible because
x >= 0, so one primal simplex decides, with no phase one. Pivots are
exact Fraction arithmetic, and Bland's rule (Bland, Math. Oper. Res. 2,
1977) guarantees termination. The callers are
``geometry.cone_point_member`` and the Monte Carlo oracle.
"""

from __future__ import annotations

from fractions import Fraction


def feasible(columns, x) -> bool:
    """True iff some lambda >= 0 with sum(lambda) >= 1 has
    sum_j lambda_j columns[j] <= x, for x >= 0.

    Maximizes sum(lambda) from the slack basis until it reaches 1. The
    lowest column with a negative reduced cost enters, and ratio ties
    leave by the lowest basis index. An unbounded column has no positive
    entry: the zero generator, which every x >= 0 dominates.
    """
    n, m = len(x), len(columns)
    # Fraction(...) on every entry: with int columns, v / piv below would
    # otherwise be float division.
    tab = [
        [Fraction(g[i]) for g in columns] + [Fraction(k == i) for k in range(n)] + [Fraction(x[i])]
        for i in range(n)
    ]
    # Reduced costs of min -sum(lambda); the last cell is sum(lambda).
    tab.append([Fraction(-1)] * m + [Fraction(0)] * (n + 1))
    basis = list(range(m, m + n))
    while tab[-1][-1] < 1:
        col = next((j for j in range(m + n) if tab[-1][j] < 0), None)
        if col is None:
            return False
        rows = [i for i in range(n) if tab[i][col] > 0]
        if not rows:
            return True
        row = min(rows, key=lambda i: (tab[i][-1] / tab[i][col], basis[i]))
        piv = tab[row][col]
        prow = tab[row] = [v / piv for v in tab[row]]
        for i, r in enumerate(tab):
            f = r[col]
            if i != row and f:
                tab[i] = [a - f * b for a, b in zip(r, prow)]
        basis[row] = col
    return True
