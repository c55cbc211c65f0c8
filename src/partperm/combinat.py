"""Chains of subsets, R-set order witnesses, and draconian sequences.

The face lattice of the partial permutohedron P(m,n) is indexed by chains
A_1 < A_2 < ... < A_l of subsets of [m] = {1..m} subject to a width bound:
|A_l \\ A_1| <= n-1 when A_1 is nonempty, and |A_l \\ A_2| <= n-1 when
A_1 is empty and l >= 2.  The single chain (emptyset) is always admitted.
The empty face corresponds to the empty chain (), which is *not* a member
of the chain family but may be requested explicitly.

A chain's face has dimension equal to its number of "missing ranks",
|A_l| - l + 1.  The partial order on faces is read off from R-sets:
each chain maps to a set of markers (points of [m] and blocks of [m]),
and C1 <= C2 in the face order iff R(C2) is a subset of R(C1).

Draconian sequences drive the Lawrence-style volume and lattice-point
summation formulas: nonnegative integer vectors a indexed by the singleton
and pair supports I_1..I_K (singletons {1}..{m} first, then pairs {i,j} in
lexicographic order), capped at 1 on singletons and 2 on pairs, subject to
Hall's condition sum_{k in S} a_k <= |union of I_k, k in S| for every
subset S, with total sum exactly m (volume mode) or at most m (ehrhart
mode).  Hall's condition is tested by a bipartite matching between unit
tokens of a and the ground set, which is exact and fast at these sizes.

The draconian engines need only the shape census: how many sequences have
each shape (s, p1, p2), with s singletons used and p1, p2 pairs at value 1
and 2.  Read as a multigraph on [m] (a pair at 1 is an edge, a pair at 2 a
double edge, a singleton a token on its vertex), Hall's condition says
that no connected component has more edges plus tokens than vertices.  So
every component is a tree, a tree with one token, a tree with one doubled
edge, or a unicyclic graph with a cycle of length >= 3, and the census
follows from the exponential formula without enumerating any sequence.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

Chain = Tuple[frozenset, ...]
Shape = Tuple[int, int, int]

# The draconian engines (n >= m-1) are exact for every m; they are checked
# against the independent closed forms up to this size and refuse beyond it.
DRACONIAN_MAX_M = 12

# The counting oracle (ehr_interpolate, nvol_oracle) is offered on this grid.
# pp_count reaches far beyond it, but the CLI runs the oracle under
# --all-methods wherever this grid allows, so widening it adds counting work
# to every such call in the new range.
ORACLE_MAX_M, ORACLE_MAX_N = 5, 6

# enumerate_chains lists at most this many chains (at most about 2.5 s with
# the sort); every shape the earlier subset search admitted stays inside.
CHAIN_WORK_MAX = 2**18


def _validate_chain_shape(chain: Sequence, m: int) -> Chain:
    c = tuple(frozenset(a) for a in chain)
    ground = set(range(1, m + 1))
    for a in c:
        if not set(a) <= ground:
            raise ValueError(f"chain member {sorted(a)} not a subset of [{m}]")
    for a, b in zip(c, c[1:]):
        if not (a < b):
            raise ValueError("chain members must be strictly increasing")
    return c


def chain_in_family(chain: Sequence, m: int, n: int) -> bool:
    """Membership test for the width-bounded chain family on [m]."""
    c = _validate_chain_shape(chain, m)
    if not c:
        return False  # the empty chain is not a member
    if c[0]:
        return len(c[-1] - c[0]) <= n - 1
    if len(c) >= 2:
        return len(c[-1] - c[1]) <= n - 1
    return True  # the chain (emptyset)


def enumerate_chains(m: int, n: int, include_empty: bool = False) -> List[Chain]:
    """All chains of the family on [m] with width bound n, deterministic order.

    Built from the decomposition of a chain with nonempty bottom: A_1 plus
    an ordered set partition of the at most n-1 elements added above it.
    With C those chains, the family is (emptyset), C, and (emptyset) + c
    for each c in C.  With ``include_empty`` the empty chain () is appended
    as a final extra element (it indexes the empty face but is not itself a
    family member).  Chains are ordered by (length, sorted member tuples).
    Shapes with more than ``CHAIN_WORK_MAX`` chains are refused up front.
    """
    if m < 1 or n < 1:
        raise ValueError("enumerate_chains requires m >= 1 and n >= 1")
    from .faces import f_vector  # faces imports this module

    total = sum(f_vector(m, n))
    if total > CHAIN_WORK_MAX:
        raise ValueError(
            f"chain enumeration for (m,n)=({m},{n}) lists {total} chains, "
            f"above the listing bound CHAIN_WORK_MAX = {CHAIN_WORK_MAX}"
        )
    ground = frozenset(range(1, m + 1))
    empty = frozenset()
    members = {empty: ()}  # each member -> its sorted tuple, for the sort key
    above: List[Chain] = []  # chains with a nonempty bottom

    def extend(chain: Chain, budget: int) -> None:
        above.append(chain)
        if not budget:
            return
        top = chain[-1]
        rest = sorted(ground - top)
        for size in range(1, min(budget, len(rest)) + 1):
            for block in combinations(rest, size):
                grown = top | frozenset(block)
                if grown not in members:
                    members[grown] = tuple(sorted(grown))
                extend(chain + (grown,), budget - size)

    for size in range(1, m + 1):
        for bottom in combinations(range(1, m + 1), size):
            members[frozenset(bottom)] = bottom
            extend((frozenset(bottom),), n - 1)
    out = [(empty,)] + above + [(empty,) + c for c in above]
    out.sort(key=lambda c: (len(c), [members[a] for a in c]))
    if include_empty:
        out.append(())
    return out


def missing_ranks(chain: Sequence) -> int:
    """|A_l| - l + 1, the dimension of the face indexed by the chain.

    The empty chain has no well-defined missing-rank count and raises.
    """
    c = tuple(frozenset(a) for a in chain)
    if not c:
        raise ValueError("missing_ranks is undefined for the empty chain")
    return len(c[-1]) - len(c) + 1


def r_set(chain: Sequence, m: int, n: int) -> frozenset:
    """Marker set R(C): point markers ('pt', i) and block markers ('set', S).

    For the empty chain, R is the full marker family: all points of [m]
    plus every nonempty block S with |S| <= n-1 or |S| = m.  For a chain
    with top A_l, the markers are the points of [m] \\ A_l plus the blocks
    A_l \\ A_j running down the chain; when A_1 is empty and |A_l| >= n the
    full block [m] stands in for A_l \\ A_1.
    """
    c = tuple(frozenset(a) for a in chain)
    ground = frozenset(range(1, m + 1))
    markers = set()
    if not c:
        for i in ground:
            markers.add(("pt", i))
        for r in range(1, m + 1):
            if r <= n - 1 or r == m:
                for combo in combinations(sorted(ground), r):
                    markers.add(("set", frozenset(combo)))
        return frozenset(markers)
    top = c[-1]
    for i in ground - top:
        markers.add(("pt", i))
    if c[0] and len(c) == 1:
        return frozenset(markers)
    if (not c[0]) and len(top) >= n:
        for a in c[1:-1]:
            markers.add(("set", top - a))
        markers.add(("set", ground))
    else:
        for a in c[:-1]:
            markers.add(("set", top - a))
    return frozenset(markers)


def r_set_and_order(c1: Sequence, c2: Sequence, m: int, n: int):
    """R-sets of two chains plus the face-order verdict c1 <= c2.

    The face of c1 is contained in the face of c2 exactly when R(c2) is a
    subset of R(c1) (more markers pin down a smaller face).
    """
    for c in (c1, c2):
        cc = tuple(frozenset(a) for a in c)
        if cc and not chain_in_family(cc, m, n):
            raise ValueError("chain outside the family")
    r1 = r_set(c1, m, n)
    r2 = r_set(c2, m, n)
    return r1, r2, r2 <= r1


def draconian_indices(m: int) -> List[frozenset]:
    """Index supports I_1..I_K: singletons {1}..{m}, then pairs in lex order."""
    singles = [frozenset([i]) for i in range(1, m + 1)]
    pairs = [frozenset(p) for p in combinations(range(1, m + 1), 2)]
    return singles + pairs


def _hall_ok(a: Sequence[int], supports: Sequence[frozenset]) -> bool:
    """Hall's condition via bipartite matching of unit tokens into [m].

    Token k (one per unit of a_k) may occupy any element of its support
    I_k; the condition sum_{k in S} a_k <= |union I_k| for all S holds iff
    a perfect matching of all tokens exists (defect Hall theorem).
    """
    tokens: List[frozenset] = []
    for ak, sup in zip(a, supports):
        tokens.extend([sup] * ak)
    match = {}  # ground element -> token index

    def try_assign(t: int, seen: set) -> bool:
        for x in tokens[t]:
            if x in seen:
                continue
            seen.add(x)
            if x not in match or try_assign(match[x], seen):
                match[x] = t
                return True
        return False

    for t in range(len(tokens)):
        if not try_assign(t, set()):
            return False
    return True


def draconian_check(a: Sequence[int], m: int) -> bool:
    """Is ``a`` a draconian sequence for ground set [m]? (caps + Hall.)

    ``a`` is indexed by draconian_indices(m); its length must match.
    """
    supports = draconian_indices(m)
    if len(a) != len(supports):
        raise ValueError(f"sequence length {len(a)} != {len(supports)} supports")
    if any(x < 0 for x in a):
        return False
    for x, sup in zip(a, supports):
        if len(sup) == 1 and x > 1:
            return False
        if len(sup) == 2 and x > 2:
            return False
    return _hall_ok(a, supports)


@lru_cache(maxsize=None)
def _enumerate_draconian_cached(m: int, mode: str) -> Tuple[Tuple[int, ...], ...]:
    supports = draconian_indices(m)
    caps = [1 if len(s) == 1 else 2 for s in supports]
    nslots = len(supports)
    # Remaining capacity below each slot, for exact-sum pruning in volume mode.
    suffix_cap = [0] * (nslots + 1)
    for k in range(nslots - 1, -1, -1):
        suffix_cap[k] = suffix_cap[k + 1] + caps[k]
    results: List[Tuple[int, ...]] = []
    a = [0] * nslots
    match: dict = {}  # ground element -> (slot, copy) token it serves
    sup_list = [tuple(sorted(s)) for s in supports]

    def augment(token, slot_elems, seen: set) -> bool:
        for x in slot_elems:
            if x in seen:
                continue
            seen.add(x)
            occupant = match.get(x)
            if occupant is None or augment(occupant, sup_list[occupant[0]], seen):
                match[x] = token
                return True
        return False

    def rec(k: int, total: int):
        if k == nslots:
            if mode != "volume" or total == m:
                results.append(tuple(a))
            return
        hi = min(caps[k], m - total)
        for v in range(hi + 1):
            if mode == "volume" and total + v + suffix_cap[k + 1] < m:
                continue
            a[k] = v
            if v == 0:
                rec(k + 1, total)
                continue
            # Incrementally match the v new unit tokens of slot k; if any
            # fails, Hall's condition is violated for this prefix and for
            # every extension of it (extensions only add tokens), so prune.
            saved = dict(match)
            ok = all(augment((k, c), sup_list[k], set()) for c in range(v))
            if ok:
                rec(k + 1, total + v)
            match.clear()
            match.update(saved)
        a[k] = 0

    rec(0, 0)
    return tuple(results)


def enumerate_draconian(m: int, mode: str = "volume") -> List[Tuple[int, ...]]:
    """All draconian sequences on [m]: sum == m (volume) or sum <= m (ehrhart).

    Sequences are tuples indexed by draconian_indices(m), emitted in
    lexicographic order.
    """
    if mode not in ("volume", "ehrhart"):
        raise ValueError(f"unknown draconian mode {mode!r}")
    if m < 1:
        raise ValueError("enumerate_draconian requires m >= 1")
    return [tuple(t) for t in _enumerate_draconian_cached(m, mode)]


class Engine(NamedTuple):
    """One route to an invariant of P(m,n): the (m,n) it covers, and its value.

    ``value(m, n)`` raises ValueError exactly where ``domain(m, n)`` is
    false.  Each invariant keeps an ordered table of these, name -> Engine
    (``VOLUME_ENGINES``, ``EHRHART_ENGINES``, ``H_POLY_ENGINES``); the CLI
    methods, ``verify`` and the cross-engine tests all iterate over it.
    """

    domain: Callable[[int, int], bool]
    value: Callable[[int, int], Any]


def draconian_domain(m: int, n: int) -> bool:
    """Is (m,n) in the domain of the draconian engines (n >= m-1, m capped)?"""
    return 1 <= m <= DRACONIAN_MAX_M and n >= max(m - 1, 0)


def require_draconian(engine: str, m: int, n: int) -> None:
    """Raise ValueError naming the violated bound unless draconian_domain(m, n)."""
    if not 1 <= m <= DRACONIAN_MAX_M:
        raise ValueError(f"{engine} is limited to 1 <= m <= {DRACONIAN_MAX_M}")
    if not draconian_domain(m, n):
        raise ValueError(f"{engine} requires n >= m-1")


def oracle_domain(m: int, n: int) -> bool:
    """Is (m,n) in the domain of the counting oracle (m, n capped)?"""
    return 1 <= m <= ORACLE_MAX_M and 0 <= n <= ORACLE_MAX_N


def require_oracle(engine: str, m: int, n: int) -> None:
    """Raise ValueError naming the bounds unless oracle_domain(m, n)."""
    if not oracle_domain(m, n):
        raise ValueError(
            f"{engine} is limited to m <= {ORACLE_MAX_M}, n <= {ORACLE_MAX_N}"
        )


def _draconian_shape(a: Sequence[int], m: int) -> Shape:
    """(s, p1, p2): singleton total, pairs at value 1, pairs at value 2."""
    pairs = a[m:]
    return sum(a[:m]), sum(1 for x in pairs if x == 1), sum(1 for x in pairs if x == 2)


def draconian_shape_tally(m: int, mode: str = "volume") -> Dict[Shape, int]:
    """Shape census by enumeration: the independent check of draconian_census."""
    return dict(Counter(_draconian_shape(a, m) for a in enumerate_draconian(m, mode)))


def _component_kinds(v: int, mode: str) -> List[Tuple[int, Shape]]:
    """(count, shape) of each admissible component kind on v labelled vertices."""
    trees = v ** (v - 2) if v >= 2 else 1
    kinds = [(v * trees, (1, v - 1, 0))]  # a tree plus one token
    if mode == "ehrhart":
        kinds.append((trees, (0, v - 1, 0)))  # a bare tree
    if v >= 2:
        kinds.append(((v - 1) * trees, (0, v - 2, 1)))  # one edge doubled
    if v >= 3:
        # cycle of length k >= 3 with rooted trees hanging off it:
        # (1/2) sum_k v!/(v-k)! v^(v-k-1), here with the 1/v taken out.
        unicyclic = sum(
            factorial(v - 1) // factorial(v - k) * v ** (v - k) for k in range(3, v + 1)
        ) // 2
        kinds.append((unicyclic, (0, v, 0)))
    return kinds


@lru_cache(maxsize=None)
def _census_cached(m: int, mode: str) -> Tuple[Tuple[Shape, int], ...]:
    tables: List[Dict[Shape, int]] = [{(0, 0, 0): 1}]
    for k in range(1, m + 1):
        table: Dict[Shape, int] = {}
        # Exponential formula: the component holding element 1 has v
        # vertices, C(k-1, v-1) ways to pick the others.
        for v in range(1, k + 1):
            ways = comb(k - 1, v - 1)
            for count, (s, p1, p2) in _component_kinds(v, mode):
                for (s2, q1, q2), rest in tables[k - v].items():
                    key = (s + s2, p1 + q1, p2 + q2)
                    table[key] = table.get(key, 0) + ways * count * rest
        tables.append(table)
    return tuple(sorted(tables[m].items()))


def draconian_census(m: int, mode: str = "volume") -> Dict[Shape, int]:
    """Number of draconian sequences on [m] of each shape (s, p1, p2).

    Computed from the component structure, so its cost grows polynomially
    in m instead of with the number of sequences; it equals
    draconian_shape_tally(m, mode).
    """
    if mode not in ("volume", "ehrhart"):
        raise ValueError(f"unknown draconian mode {mode!r}")
    if m < 1:
        raise ValueError("draconian_census requires m >= 1")
    return dict(_census_cached(m, mode))


def descents(seq: Sequence[int]) -> int:
    """Number of descents in a sequence: positions i with seq[i] > seq[i+1]."""
    return sum(1 for x, y in zip(seq, seq[1:]) if x > y)


def permutation_inverse(perm: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of a permutation of 1..k given in one-line notation."""
    k = len(perm)
    inv = [0] * k
    for pos, val in enumerate(perm, start=1):
        inv[val - 1] = pos
    return tuple(inv)
