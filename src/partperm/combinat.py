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

The draconian engines list no sequence.  As a multigraph on [m] (a pair at 1
is an edge, at 2 a double edge, a singleton a token), a sequence meets Hall's
condition iff each component is a tree, a tree with one token, a tree with one
doubled edge, or a unicyclic graph with a cycle of length >= 3; its shape
(s, p1, p2) counts tokens and pairs at 1 and 2.  Summands are products over
components, so ``draconian_sum`` runs the exponential formula on each engine's
per-component weight, and so does the shape census.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from .exactmath import check_bound

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

# enumerate_chains lists at most this many chains; the slowest admitted
# shape, (17,1), takes about 0.75 s (2-core VM, Python 3.11).  Every shape
# the earlier subset search admitted stays inside.
CHAIN_WORK_MAX = 2**18

# enumerate_draconian lists at most this many sequences; m = 6 in ehrhart
# mode, 74,670 of them, takes about 0.65 s (2-core VM, Python 3.11), and
# m = 7 would list 1,261,748.
DRACONIAN_LIST_MAX = 2**17


def _validate_chain_shape(chain: Sequence, m: int) -> Chain:
    c = tuple(frozenset(a) for a in chain)
    ground = frozenset(range(1, m + 1))
    for a in c:
        if not a <= ground:
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

    Chains are ordered by (length, sorted member tuples), and the listing is
    built in that order level by level, with no sort.  Level 1 is the
    nonempty subsets of [m]; level l extends each chain of level l-1, in
    order, by the supersets of its top that keep |A_l \\ A_1| <= n-1.  Both
    lists come in lex order of their sorted tuples (``supersets``, memoized
    per top and remaining budget).  With C the chains of every level, the
    family is (emptyset), C, and (emptyset) + c for each c in C; since the
    empty member sorts first, each (emptyset) + c of length l precedes
    level l.  Every member subset is one shared frozenset.  With
    ``include_empty`` the empty chain () is appended as a final extra
    element (it indexes the empty face but is not itself a family member).
    Shapes with more than ``CHAIN_WORK_MAX`` chains are refused up front.
    """
    if m < 1 or n < 1:
        raise ValueError("enumerate_chains requires m >= 1 and n >= 1")
    from .faces import f_vector  # faces imports this module

    check_bound(f"enumerate_chains({m}, {n})", "chain count", sum(f_vector(m, n)),
                "CHAIN_WORK_MAX", CHAIN_WORK_MAX)
    empty = frozenset()
    members: Dict[Tuple[int, ...], frozenset] = {}  # sorted tuple -> shared set
    memo: Dict[Tuple[frozenset, int], List[frozenset]] = {}

    def supersets(top: frozenset, budget: int) -> List[frozenset]:
        """Supersets of top with 1..budget more elements, lex by sorted tuple.

        A depth-first walk over increasing tuples: it may not skip an
        element of top, and it emits a tuple once all of top is in it.
        """
        key = (top, budget)
        if key in memo:
            return memo[key]
        need = sorted(top)
        found: List[frozenset] = []

        def walk(prefix: Tuple[int, ...], start: int, k: int, extra: int) -> None:
            stop = need[k] if k < len(need) else m
            for i in range(start, stop + 1):
                if k < len(need) and i == stop:
                    grown, k2, e2 = prefix + (i,), k + 1, extra
                elif extra < budget:
                    grown, k2, e2 = prefix + (i,), k, extra + 1
                else:
                    continue
                if k2 == len(need):
                    if e2:
                        s = members.get(grown)
                        if s is None:
                            s = members[grown] = frozenset(grown)
                        found.append(s)
                    if e2 == budget:
                        continue
                walk(grown, i + 1, k2, e2)

        walk((), 1, 0, 0)
        memo[key] = found
        return found

    level: List[Chain] = [(a,) for a in supersets(empty, m)]
    out: List[Chain] = [(empty,)] + level
    while level:
        nxt: List[Chain] = []
        for c in level:
            top = c[-1]
            budget = n - 1 - len(top) + len(c[0])
            if budget:
                nxt.extend([c + (a,) for a in supersets(top, budget)])
        out.extend([(empty,) + c for c in level])
        out.extend(nxt)
        level = nxt
    if include_empty:
        out.append(())
    return out


def missing_ranks(chain: Sequence) -> int:
    """|A_l| - l + 1, the dimension of the face indexed by the chain.

    The empty chain has no well-defined missing-rank count and raises.
    """
    c = tuple(chain)
    if not c:
        raise ValueError("missing_ranks is undefined for the empty chain")
    return len(frozenset(c[-1])) - len(c) + 1


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


def draconian_indices(m: int) -> List[frozenset]:
    """Index supports I_1..I_K: singletons {1}..{m}, then pairs in lex order."""
    singles = [frozenset([i]) for i in range(1, m + 1)]
    pairs = [frozenset(p) for p in combinations(range(1, m + 1), 2)]
    return singles + pairs


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
    lexicographic order.  Outside ``draconian_domain`` at (m, m-1) it
    refuses first: the count grows with m (a token on the new element maps
    the sequences on [m-1] into those on [m]), so the listing bound would
    refuse those m too.  Then they are counted by ``draconian_sum``, and
    more than ``DRACONIAN_LIST_MAX`` of them are refused up front.
    """
    draconian_domain.require("enumerate_draconian", m, m - 1)
    check_bound(f"enumerate_draconian({m}, {mode!r})", "sequence count",
                draconian_sum(m, mode, lambda v, shape: 1),
                "DRACONIAN_LIST_MAX", DRACONIAN_LIST_MAX)
    return [tuple(t) for t in _enumerate_draconian_cached(m, mode)]


class Engine(NamedTuple):
    """One route to an invariant of P(m,n): the (m,n) it covers, and its value.

    ``value(m, n)`` raises ValueError exactly where ``domain(m, n)`` is
    false, as it refuses through ``domain.require``.  Each invariant keeps
    an ordered table of these, name -> Engine (``VOLUME_ENGINES``,
    ``EHRHART_ENGINES``, ``H_POLY_ENGINES``); the CLI methods, ``verify``
    and the cross-engine tests all iterate over it.
    """

    domain: Callable[[int, int], bool]
    value: Callable[[int, int], Any]


class Rule:
    """A condition on (m,n), and what a route outside it requires."""

    __slots__ = ("test", "words")

    def __init__(self, test: Callable[[int, int], bool], words: str) -> None:
        self.test, self.words = test, words

    def refuse(self, route: str, m: int, n: int) -> None:
        raise ValueError(f"{route} {self.words}")


class Bound:
    """A declared bound: ``size(m, n)``, m by default, may not pass the
    constant ``name`` of the module whose globals are ``scope``.  The
    constant is read at each call, so a patched bound is the one applied."""

    __slots__ = ("name", "scope", "quantity", "size")

    def __init__(self, name: str, scope: Dict[str, Any], quantity: str = "m",
                 size: Callable[[int, int], int] = lambda m, n: m) -> None:
        self.name, self.scope, self.quantity, self.size = name, scope, quantity, size

    def test(self, m: int, n: int) -> bool:
        return self.size(m, n) <= self.scope[self.name]

    def refuse(self, route: str, m: int, n: int) -> None:
        check_bound(f"{route} at (m,n)=({m},{n})", self.quantity, self.size(m, n),
                    self.name, self.scope[self.name])


class Domain:
    """The (m,n) a route covers, declared once: clauses (a ``Rule`` or a
    ``Bound``, or a Domain for all of its clauses) that must all hold.

    Calling a domain tests a shape.  ``require(route, m, n)`` is how every
    engine refuses: it raises the ValueError of the first clause that
    fails, naming the route and what it requires, or, for a bound, the
    size and the bound's name and value.
    """

    def __init__(self, *parts) -> None:
        self.clauses = tuple(clause for part in parts for clause in
                             (part.clauses if isinstance(part, Domain) else (part,)))

    def __call__(self, m: int, n: int) -> bool:
        for clause in self.clauses:
            if not clause.test(m, n):
                return False
        return True

    def require(self, route: str, m: int, n: int) -> None:
        for clause in self.clauses:
            if not clause.test(m, n):
                clause.refuse(route, m, n)


# The range of the paper's pyramidal results.
PYRAMIDAL = Rule(lambda m, n: n >= m - 1, "requires n >= m-1")

# Where v(m,n) is the polynomial nvol_poly(m, "n") and the Ehrhart
# generating function holds; the recursive, closed and three-term volume
# engines add their work bounds to it.
polynomial_domain = Domain(Rule(lambda m, n: m >= 1, "requires m >= 1"), PYRAMIDAL)

# The domain of the draconian engines.
draconian_domain = Domain(polynomial_domain, Bound("DRACONIAN_MAX_M", globals()))

# The domain of the counting oracle, ehr_interpolate and nvol_oracle.
oracle_domain = Domain(Rule(
    lambda m, n: 1 <= m <= ORACLE_MAX_M and 0 <= n <= ORACLE_MAX_N,
    f"is limited to m <= {ORACLE_MAX_M}, n <= {ORACLE_MAX_N} (ORACLE_MAX_M, ORACLE_MAX_N)"))


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


def draconian_sum(m: int, mode: str, weight: Callable[[int, Shape], int]) -> int:
    """Sum over draconian sequences on [m] of the product of their components'
    weights weight(v, shape), v the vertex count (see the module docstring).

    By the exponential formula, E_0 = 1 and E_k = sum_{v=1}^{k} C(k-1, v-1)
    w_v E_{k-v}: the component holding element 1 has v vertices, chosen in
    C(k-1, v-1) ways, and w_v sums count * weight(v, shape) over
    ``_component_kinds(v, mode)``.  Returns E_m.
    """
    if mode not in ("volume", "ehrhart"):
        raise ValueError(f"unknown draconian mode {mode!r}")
    w, e = [0], [1]
    for k in range(1, m + 1):
        w.append(sum(count * weight(k, shape) for count, shape in _component_kinds(k, mode)))
        e.append(sum(comb(k - 1, v - 1) * w[v] * e[k - v] for v in range(1, k + 1)))
    return e[m]


def draconian_coefficients(m: int, mode: str, weight: Callable[..., int]) -> List[int]:
    """Coefficients, low to high, of ``draconian_sum`` for a weight(x, v, shape)
    polynomial in x with nonnegative integer coefficients.  By Kronecker
    substitution: the sum at x = 1 bounds each coefficient, so at x = 2^k
    above it the base-2^k digits of the sum are the coefficients."""
    k = draconian_sum(m, mode, lambda v, shape: weight(1, v, shape)).bit_length()
    total = draconian_sum(m, mode, lambda v, shape: weight(1 << k, v, shape))
    return [total >> (k * d) & ((1 << k) - 1) for d in range(-(-total.bit_length() // k))]


def draconian_census(m: int, mode: str = "volume") -> Dict[Shape, int]:
    """Number of draconian sequences on [m] of each shape (s, p1, p2): the
    coefficients of ``draconian_coefficients`` with weight x^(s + B p1 + B^2 p2),
    B = m+1 (s, p1, p2 <= m, so the exponent fixes the shape).  So checking it
    against draconian_shape_tally(m, mode) checks the engines' own routine.
    Outside ``draconian_domain`` at (m, m-1), m above ``DRACONIAN_MAX_M``
    included, it refuses up front, as the draconian engines do."""
    draconian_domain.require("draconian_census", m, m - 1)
    b = m + 1
    coeffs = draconian_coefficients(
        m, mode, lambda x, v, shape: x ** (shape[0] + b * shape[1] + b * b * shape[2]))
    return dict(sorted(((e % b, e // b % b, e // (b * b)), c)
                       for e, c in enumerate(coeffs) if c))
