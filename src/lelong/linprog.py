"""Exact cone-membership LP in integers.

For integer columns G >= 0 (exponent vectors) and an integer point x >= 0,

    x in conv(G) + R_+^n  iff  max { sum(lambda) : G lambda <= x, lambda >= 0 } >= 1:

a convex combination below x has sum 1, and if s = sum(lambda) >= 1
then G (lambda / s) <= x / s <= x. The slack basis is feasible because
x >= 0, so one primal simplex decides, with no phase one. Its pivots
are fraction-free (Edmonds, J. Res. NBS 71B, 1967; the rule of Bareiss
that ``geometry.int_det`` uses), and Bland's rule (Bland, Math. Oper.
Res. 2, 1977) guarantees termination. It takes ints only and raises
TypeError on anything else, as a Fraction would be floor-divided:
``cone_point_member`` brings its point and the checked set's integer
points to one common scale, and the Monte Carlo oracle passes exact int
samples; it checks its columns once per estimate and then calls
``_feasible``, which checks only the point of each sample.
"""

from __future__ import annotations

import math


def feasible(columns, x) -> bool:
    """True iff some lambda >= 0 with sum(lambda) >= 1 has
    sum_j lambda_j columns[j] <= x, for int columns >= 0 and int x >= 0.

    The tableau is T / d, d the last pivot (1 at the start): a pivot p at
    (r, c) keeps row r and sets every other row to (p row - row[c] row_r)
    // d, exact as each entry of T is a minor of the starting tableau. The
    lowest column with a negative reduced cost enters, ratio ties leave by
    the lowest basis index, and an unbounded column is the zero generator.
    Any entry that is not an int raises TypeError.
    """
    _check_ints(columns)
    return _feasible(columns, x)


def _check_ints(vectors):
    if not all(isinstance(a, int) for v in vectors for a in v):
        raise TypeError("feasible takes int columns and an int point")


def _feasible(columns, x) -> bool:
    """``feasible`` on columns that ``_check_ints`` passed; checks ``x``."""
    _check_ints((x,))
    n, m = len(x), len(columns)
    tab = [[g[i] for g in columns] + [int(k == i) for k in range(n)] + [x[i]] for i in range(n)]
    # Reduced costs of min -sum(lambda); the last cell is d sum(lambda).
    tab.append([-1] * m + [0] * (n + 1))
    basis = list(range(m, m + n))
    d = 1
    while tab[-1][-1] < d:
        col = next((j for j in range(m + n) if tab[-1][j] < 0), None)
        if col is None:
            return False
        rows = [i for i in range(n) if tab[i][col] > 0]
        if not rows:
            return True
        # The ratios rhs / entry in integers: each times the product of the entries.
        common = math.prod(tab[i][col] for i in rows)
        row = min(rows, key=lambda i: (tab[i][-1] * common // tab[i][col], basis[i]))
        prow = tab[row]
        p = prow[col]
        for i, r in enumerate(tab):
            if i != row:
                f = r[col]
                tab[i] = [(p * a - f * b) // d for a, b in zip(r, prow)]
        basis[row] = col
        d = p
    return True
