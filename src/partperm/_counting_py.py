"""Pure-Python lattice-point counter for integer halfspace systems over a box.

Counts integer points x with lows[j] <= x[j] <= highs[j] for all j and
a_i . x <= b_i for every row i, by a depth-first search over coordinates
that caches every subcount.  The coefficients must be integers (others
raise ValueError); a rational b_i or box bound is rounded inward, since on
integer points a_i . x <= b_i is a_i . x <= floor(b_i).

Two stages.  ``prepare`` reads a system over an integer box once: it
checks the coefficient rows, keeps the rows that can bind and builds their
suffix groups and moves.  ``count_dilate`` then counts the t-th dilate,
rows a . x <= t*b (or a . x < t*b, strictly) over t times the box, from
that preparation; ``count_lattice_points`` is the two stages at t = 1.
Nothing of the preparation depends on t.  A row's greatest value top over
an integer box is an integer, and so is t*top: t*top <= floor(t*b) exactly
when top <= b, and t*top <= ceil(t*b) - 1 exactly when top < b, so one
test on the undilated box decides which rows can bind at every t >= 1.
floor(t*b) and ceil(t*b) grow with b, so the least b of a coefficient row
stays the least at every t, and the box bounds, clips and row minima below
scale by t.

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
belong to one dilate's pass and are dropped when it returns; the cache
holds at most one entry per distinct state reached.  A preparation holds
only the system's structure, never a subcount, so it can serve any number
of passes.  The group structure of depth d+1 is derived once from that of
depth d.  A group whose coefficient at depth d is 0 carries its slack to
depth d+1 unchanged, so it is applied once per state, not once per value
of x[d].  The innermost level is counted in bulk (ub - lb + 1) with no
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
    # Rational bounds round inward: lows up, highs and right-hand sides down.
    return count_dilate(prepare(rows_a, rows_b, [ceil(v) for v in lows],
                                [floor(v) for v in highs]), 1)


def prepare(rows_a, rows_b, lows: Sequence[int], highs: Sequence[int], strict: bool = False):
    """What ``count_dilate`` needs of the rows a . x <= b (a . x < b when
    ``strict``) over the integer box [lows, highs], at every dilate.

    Returns () when no dilate t >= 1 holds a point: the box is empty, or a
    zero row reads 0 <= b with b < 0.  Otherwise a tuple (lows, highs, the
    least b of each binding coefficient row, strict, and per depth the
    groups' bounds, clips, moves and still groups, then the innermost
    level's rows), each box-dependent entry at t = 1.
    """
    m = len(lows)
    if len(highs) != m:
        raise ValueError("lows/highs length mismatch")
    lows, highs = list(lows), list(highs)
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return ()
    # Each distinct coefficient row that can bind, with its least right-hand
    # side; a row whose maximum over the box meets its rhs is dropped.
    # What is left of a zero row is 0 <= b < 0 (0 < b <= 0, strictly).
    least: Dict[Tuple[int, ...], int] = {}
    for a, b in zip(rows_a, rows_b):
        a = tuple(_as_int(c, "row coefficient") for c in a)
        if len(a) != m:
            raise ValueError("row length mismatch")
        top = 0
        for c, lo, hi in zip(a, lows, highs):
            top += c * hi if c > 0 else c * lo
        if top < b if strict else top <= b:
            continue
        if not any(a):
            return ()
        if a not in least or b < least[a]:
            least[a] = b
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
    # remaining box, its clip; (group, coefficient, group at d+1) for every
    # group that stays active with a nonzero coefficient; and (group, group
    # at d+1) for those with coefficient 0, whose slack does not move.
    bounds: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    caps: List[List[int]] = [[] for _ in range(m)]
    moves: List[List[Tuple[int, int, int]]] = [[] for _ in range(m)]
    still: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
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
                if c:
                    moves[d].append((g, c, h))
                else:
                    still[d].append((g, h))
        low_next, high_next = low_here, caps[d]
    # At depth m-2 each group that stays active bounds x[m-1] directly, so
    # the innermost level needs no state.
    ups: List[Tuple[int, int, int]] = []
    downs: List[Tuple[int, int, int]] = []
    if m >= 2:
        for g, c, h in moves[m - 2] + [(g, 0, h) for g, h in still[m - 2]]:
            c2 = groups[m - 1][h][0]
            if c2 > 0:
                ups.append((g, c, c2))
            else:
                downs.append((g, c, -c2))
    return lows, highs, list(least.values()), strict, bounds, caps, moves, still, ups, downs


def count_dilate(prepared, t: int) -> int:
    """The number of integer points of the t-th dilate (t >= 1) of a
    system ``prepare`` read: rows a . x <= t*b, or a . x < t*b when strict,
    over t times the box."""
    if not prepared:
        return 0
    lows, highs, least, strict, bounds, caps, moves, still, ups, downs = prepared
    m = len(lows)
    if m == 0:
        return 1
    if t != 1:
        lows = [lo * t for lo in lows]
        highs = [hi * t for hi in highs]
        bounds = [[(c, r * t) for c, r in level] for level in bounds]
        caps = [[v * t for v in level] for level in caps]
    if strict:  # an integer point has a . x < t*b exactly when a . x <= ceil(t*b) - 1
        rhs = [ceil(b * t) - 1 for b in least]
    else:
        rhs = [floor(b * t) for b in least]
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
            hi0, lo0 = last_hi, last_lo
            up, down = [], []
            for g, c, c2 in ups:
                if c:
                    up.append((state[g], c, c2))
                else:
                    q = state[g] // c2
                    if q < hi0:
                        hi0 = q
            for g, c, c2 in downs:
                if c:
                    down.append((state[g], c, c2))
                else:
                    q = -(state[g] // c2)
                    if q > lo0:
                        lo0 = q
            for x in range(lb, ub + 1):
                hi = hi0
                for s, c, c2 in up:
                    q = (s - c * x) // c2
                    if q < hi:
                        hi = q
                lo = lo0
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
        if still[d]:
            cap = cap[:]
            for g, h in still[d]:
                v = state[g]
                if v < cap[h]:
                    cap[h] = v
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

    return rec(0, tuple(min(b, c) for b, c in zip(rhs, caps[0])))
