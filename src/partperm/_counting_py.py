"""Pure-Python lattice-point counter for integer halfspace systems over a box.

Counts integer points x with lows[j] <= x[j] <= highs[j] for all j and
a_i . x <= b_i for every row i.  Depth-first search over coordinates with
exact bound propagation: at depth d, each still-active row i yields a bound
on x[d] from its slack b_i - (partial sum over fixed coords) - (minimum the
row can still contribute from coords > d).  The innermost level is counted
in bulk (ub - lb + 1) without iterating.

A row becomes inactive past its last nonzero coefficient: the bound it
imposed at that level was exact, so no recheck is needed deeper down.

Arbitrary-precision Python integers keep every count exact, whatever the
magnitudes of the rows and the box.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def count_lattice_points(
    rows_a: Sequence[Sequence[int]],
    rows_b: Sequence[int],
    lows: Sequence[int],
    highs: Sequence[int],
) -> int:
    m = len(lows)
    if len(highs) != m:
        raise ValueError("lows/highs length mismatch")
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return 0
    a_rows: List[List[int]] = []
    b_vals: List[int] = []
    for a, b in zip(rows_a, rows_b):
        a = list(map(int, a))
        if len(a) != m:
            raise ValueError("row length mismatch")
        if all(c == 0 for c in a):
            if b < 0:
                return 0
            continue  # trivially satisfied, drop
        a_rows.append(a)
        b_vals.append(int(b))
    if m == 0:
        return 1
    nrows = len(a_rows)
    # minrest[i][d] = minimal possible value of sum_{j>=d} a[i][j]*x[j].
    minrest = [[0] * (m + 1) for _ in range(nrows)]
    for i in range(nrows):
        for d in range(m - 1, -1, -1):
            c = a_rows[i][d]
            contrib = min(c * lows[d], c * highs[d])
            minrest[i][d] = minrest[i][d + 1] + contrib
    lastnz = [max(j for j in range(m) if a_rows[i][j] != 0) for i in range(nrows)]
    # Rows active at depth d (their bound is not yet finalized).
    active = [[i for i in range(nrows) if lastnz[i] >= d] for d in range(m)]
    # Infeasibility over the whole box.
    for i in range(nrows):
        if minrest[i][0] > b_vals[i]:
            return 0
    partial = [0] * nrows

    def rec(d: int) -> int:
        lb = lows[d]
        ub = highs[d]
        for i in active[d]:
            c = a_rows[i][d]
            s = b_vals[i] - partial[i] - minrest[i][d + 1]
            if c > 0:
                q = s // c
                if q < ub:
                    ub = q
            elif c < 0:
                q = -(s // (-c))
                if q > lb:
                    lb = q
            elif s < 0:
                return 0
        if lb > ub:
            return 0
        if d == m - 1:
            return ub - lb + 1
        total = 0
        touched = [(i, a_rows[i][d]) for i in active[d] if a_rows[i][d] != 0]
        for i, c in touched:
            partial[i] += c * lb
        x = lb
        while True:
            total += rec(d + 1)
            if x == ub:
                break
            x += 1
            for i, c in touched:
                partial[i] += c
        for i, c in touched:
            partial[i] -= c * ub
        return total

    return rec(0)
