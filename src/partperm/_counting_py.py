"""Pure-Python lattice-point counter for integer halfspace systems over a box.

Counts integer points x with lows[j] <= x[j] <= highs[j] for all j and
a_i . x <= b_i for every row i, by a depth-first search over coordinates
that caches every subcount.  The coefficients must be integers (others
raise ValueError); a rational b_i or box bound is rounded inward, since on
integer points a_i . x <= b_i is a_i . x <= floor(b_i).

The state.  Once x[:d] is fixed, row i asks a_i[d:] . x[d:] <= s_i with
the slack s_i = b_i - a_i[:d] . x[:d].  Rows with the same coefficient
suffix a_i[d:] form one group, and only the smallest slack in a group can
bind.  A row leaves the search past its last nonzero coefficient: the bound
it put on that coordinate was exact.  A suffix that starts with 0 still
checks that its slack can be met by the coordinates after d.

Clipping.  A slack at or above the group's maximum of a[d:] . x[d:] over the
remaining box can never bind, so it is clipped to that maximum; a row that
cannot bind anywhere in the box is dropped before the search.  The tuple
of clipped group slacks is then the whole state of the subproblem at depth
d: two prefixes with equal states have equal subcounts.

The memo.  Subcounts are cached on (depth, state) in dictionaries that
belong to one call and are dropped when it returns, so no state survives
between calls; the cache holds at most one entry per distinct state
reached.  The group structure of depth d+1 is derived once from that of
depth d.  The innermost level is counted in bulk (ub - lb + 1) with no
cache: at depth m-2 each group bounds the last coordinate directly.

Arbitrary-precision Python integers keep every count exact, whatever the
magnitudes of the rows and the box.
"""

from __future__ import annotations

from math import ceil, floor
from typing import Dict, List, Sequence, Tuple

from .exactmath import _as_int


def count_lattice_points(
    rows_a: Sequence[Sequence[int]],
    rows_b: Sequence[int],
    lows: Sequence[int],
    highs: Sequence[int],
) -> int:
    m = len(lows)
    if len(highs) != m:
        raise ValueError("lows/highs length mismatch")
    # Rational bounds round inward: lows up, highs and right-hand sides down.
    lows = [ceil(v) for v in lows]
    highs = [floor(v) for v in highs]
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return 0
    # Each distinct coefficient row that can bind, with its least right-hand
    # side; a row whose maximum over the box is within its rhs is dropped.
    # What is left of a zero row is 0 <= b < 0.
    least: Dict[Tuple[int, ...], int] = {}
    for a, b in zip(rows_a, rows_b):
        a = tuple(_as_int(c, "row coefficient") for c in a)
        if len(a) != m:
            raise ValueError("row length mismatch")
        b = floor(b)
        top = 0
        for c, lo, hi in zip(a, lows, highs):
            top += c * hi if c > 0 else c * lo
        if top <= b:
            continue
        if not any(a):
            return 0
        if a not in least or b < least[a]:
            least[a] = b
    if m == 0:
        return 1
    # groups[d]: the distinct nonzero suffixes a[d:], the groups at depth d;
    # target[d][g]: the group at depth d+1 of group g's rest, or -1 when the
    # rest is zero and the group leaves the search.
    level = list(least)
    groups = [level]
    target: List[List[int]] = []
    for d in range(1, m):
        index: Dict[Tuple[int, ...], int] = {}
        tg = []
        for k in level:
            rest = k[1:]
            tg.append(index.setdefault(rest, len(index)) if any(rest) else -1)
        target.append(tg)
        level = list(index)
        groups.append(level)
    target.append([-1] * len(level))
    # Per depth: (coefficient, least value of the rest over the box) of each
    # group, for the bound on x[d]; each group's greatest value over the
    # remaining box, its clip; and (group, coefficient, group at d+1) for
    # every group that stays active.
    bounds: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    caps: List[List[int]] = [[] for _ in range(m)]
    moves: List[List[Tuple[int, int, int]]] = [[] for _ in range(m)]
    low_next: List[int] = []
    high_next: List[int] = []
    for d in range(m - 1, -1, -1):
        lo, hi = lows[d], highs[d]
        low_here = []
        for g, (k, h) in enumerate(zip(groups[d], target[d])):
            c = k[0]
            u, v = (c * lo, c * hi) if c >= 0 else (c * hi, c * lo)
            rest_low, rest_high = (low_next[h], high_next[h]) if h >= 0 else (0, 0)
            bounds[d].append((c, rest_low))
            low_here.append(u + rest_low)
            caps[d].append(v + rest_high)
            if h >= 0:
                moves[d].append((g, c, h))
        low_next, high_next = low_here, caps[d]
    # At depth m-2 each group that stays active bounds x[m-1] directly, so
    # the innermost level needs no state.
    ups: List[Tuple[int, int, int]] = []
    downs: List[Tuple[int, int, int]] = []
    if m >= 2:
        for g, c, h in moves[m - 2]:
            c2 = groups[m - 1][h][0]
            if c2 > 0:
                ups.append((g, c, c2))
            else:
                downs.append((g, c, -c2))
    memos: List[Dict[Tuple[int, ...], int]] = [{} for _ in range(m)]
    last = m - 1
    last_lo, last_hi = lows[last], highs[last]

    def rec(d: int, state: Tuple[int, ...]) -> int:
        lb = lows[d]
        ub = highs[d]
        for (c, rest_low), s in zip(bounds[d], state):
            s -= rest_low
            if c > 0:
                q = s // c
                if q < ub:
                    ub = q
            elif c < 0:
                q = -(s // -c)
                if q > lb:
                    lb = q
            elif s < 0:
                return 0
        if lb > ub:
            return 0
        if d == last:  # only when m == 1
            return ub - lb + 1
        total = 0
        if d == last - 1:
            up = [(state[g], c, c2) for g, c, c2 in ups]
            down = [(state[g], c, c2) for g, c, c2 in downs]
            for x in range(lb, ub + 1):
                hi = last_hi
                for s, c, c2 in up:
                    q = (s - c * x) // c2
                    if q < hi:
                        hi = q
                lo = last_lo
                for s, c, c2 in down:
                    q = -((s - c * x) // c2)
                    if q > lo:
                        lo = q
                if lo <= hi:
                    total += hi - lo + 1
            return total
        cap = caps[d + 1]
        move = moves[d]
        memo = memos[d + 1]
        for x in range(lb, ub + 1):
            nxt = cap[:]
            for g, c, h in move:
                v = state[g] - c * x
                if v < nxt[h]:
                    nxt[h] = v
            key = tuple(nxt)
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = rec(d + 1, key)
            total += sub
        return total

    return rec(0, tuple(min(least[k], c) for k, c in zip(groups[0], caps[0])))
