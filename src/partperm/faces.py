"""Faces of P(m,n) from subset chains; f- and h-polynomials four ways.

Every nonempty face of P(m,n) is indexed by a chain A_1 < ... < A_l from
the width-bounded chain family (see ``combinat``), the face dimension being
the chain's missing-rank count |A_l| - l + 1.  Two equality systems carve
out the face, each right-hand side a value of the profile g of P(m,n)
(``polytope.pp_profile``, g(k) = C(n+1,2) - C(n+1-k,2)):

* the case form —
    x_i = 0 for i outside A_l;
    sum_{i in A_l \\ A_j} x_i = g(|A_l \\ A_j|) for
    j = l-1, ..., 2, and also j = 1 unless (A_1 = empty and |A_l| >= n);
    sum_{i in [m]} x_i = g(m) = C(n+1,2) when A_1 = empty and |A_l| >= n;

* the compact form —
    sum_{i in [m] \\ A_j} x_i = g(|A_l \\ A_j|) for
    j = 1..l (the j = l row reduces to a zero-sum row over [m] \\ A_l).

The two forms can span different affine subspaces (e.g. for the chain
(emptyset), whose face is the origin) yet always cut the same face out of
P(m,n); equivalence is therefore verified on vertex sets, never on spans.
``face_from_chain`` lists the vertices of P(m,n) on which each form is
tight and requires both lists to equal the blockwise construction
``face_vertices``, so a form that misses a vertex or selects an extra one
raises ``EngineDisagreement``.  The listing never scans V(P): a
depth-first search places the values n, n-1, ... one at a time into free
coordinates (every placement so far is a vertex) and cuts a branch once a
row's sum passes its right-hand side or the values left can no longer
reach it.  The search runs once per size class of chains.  P(m,n) is
invariant under permuting coordinates, so relabelling them in the order
they enter the chain (A_1, then A_2 \\ A_1, ..., then [m] \\ A_l) maps the
vertices a form selects onto those its relabelled rows select; chains
with the same member sizes share their relabelled rows, and those rows
key a memo of the vertex set they select.  Each chain's own constructed
vertices, relabelled the same way, are compared with that set, so the
check stays exact.  The memo is keyed on the rows, never on the sizes: a
row built wrong for one label gets a search of its own, and on a
mismatch the chain's unrelabelled rows are searched again to name the
vertices missed and added.  The blocks ``face_vertices`` passes to
``polytope.placements`` and the face's vertex count depend only on the
chain's member sizes and n, and are held once per such key;
``face_vertex_count`` reads the count without building a vertex, and
``face_records`` reads it, with the dimension, for every listed chain
without validating the chains again.

The h-polynomial h(t) = f(t-1) is computed independently from the face
census, from a closed Eulerian-polynomial sum, from the stellohedron
specialization (n >= m), and from an edge-orientation/indegree statistic
on the vertex graph.  ``H_POLY_ENGINES`` is the ordered table of these
routes, method name -> (domain, value); each route refuses through its
domain, its bound included, and all are cross-checked in the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .combinat import (
    Bound,
    Chain,
    Domain,
    Engine,
    Rule,
    chain_in_family,
    enumerate_chains,
    missing_ranks,
    r_set,
)
from .exactmath import EngineDisagreement, Polynomial, check_bound, eulerian_rows, stirling2
from .polytope import (
    VERTEX_LIST_MAX,
    _HeldMemo,
    placement_count,
    placements,
    pp_profile,
    pp_vertices,
)

# comb_equiv_check builds comparability matrices of at most this many chain
# pairs.  Its rows are bitmasks (_face_order_rows), so the largest shapes
# admitted take about 0.1 s: (m,n1) = (8,2) with 2,544^2 pairs 0.11 s and
# (5,5) with 2,164^2 0.09-0.10 s (2-core VM).
COMB_EQUIV_WORK_MAX = 2**23

# f_vector refuses shapes whose census terms times m (the integers grow
# with m) exceed this, about 2 s: (99,99) takes 1.9 s and (4096,1) 1.3 s,
# against 2.5 s for (100,100) and 2.5 s for (5000,1) (2-core VM).
F_VECTOR_WORK_MAX = 2**24

# The closed h-route refuses shapes whose h_closed_work exceeds this, about
# 2 s: the slowest admitted shapes lie near k = 470-505 with m = 2^18 - k^2,
# (41244,470) and (26919,485) 1.6 s, while (511,511) takes 0.5 s, (200,150)
# 0.02 s and (262143,1) 0.03 s (2-core VM).  Every shape under the earlier
# dense-product measure is under this one too.
H_CLOSED_WORK_MAX = 2**18

# The stellohedron h-route refuses m above this, about 2 s: (800,800) takes
# 1.6-2.1 s and (900,900) 3.3 s (2-core VM).
H_STELLOHEDRON_MAX_M = 800


class FaceSystem(NamedTuple):
    """A face of P(m,n) cut out by equality rows (coeffs, rhs) over P."""

    chain: Tuple[frozenset, ...]
    dimension: int
    case_rows: Tuple[Tuple[Tuple[int, ...], int], ...]
    compact_rows: Tuple[Tuple[Tuple[int, ...], int], ...]


def _indicator(members, m: int) -> Tuple[int, ...]:
    a = [0] * m
    for i in members:
        a[i - 1] = 1
    return tuple(a)


def face_from_chain(chain: Sequence, m: int, n: int) -> FaceSystem:
    """Equality systems (case and compact form) of the face indexed by a chain.

    Raises ValueError for chains outside the family, and for faces with
    more than ``VERTEX_LIST_MAX`` vertices (see ``face_vertices``).  Each
    system is verified to select, among all vertices of P(m,n), exactly
    the face's constructed vertices; a mismatch raises EngineDisagreement
    naming the chain, the form and the vertices missing or extra.
    """
    c = tuple(frozenset(a) for a in chain)
    want = set(face_vertices(c, m, n))  # checks the chain is in the family
    top = c[-1]
    ell = len(c)
    ground = frozenset(range(1, m + 1))
    special = (not c[0]) and len(top) >= n  # empty bottom, wide top
    g = pp_profile(m, n)

    case_rows = []
    for i in sorted(ground - top):
        e = [0] * m
        e[i - 1] = 1
        case_rows.append((tuple(e), 0))
    for j in range(1, ell):  # chain indices 1..l-1
        if j == 1 and special:
            continue
        diff = top - c[j - 1]
        case_rows.append((_indicator(diff, m), g[len(diff)]))
    if special:
        case_rows.append((_indicator(ground, m), g[m]))

    compact_rows = []
    for j in range(1, ell + 1):
        outside = ground - c[j - 1]
        compact_rows.append((_indicator(outside, m), g[len(top - c[j - 1])]))

    dim = missing_ranks(c)
    face = FaceSystem(c, dim, tuple(case_rows), tuple(compact_rows))
    _verify_forms(face, want, m, n)
    return face


def _vertices_on(rows, m: int, n: int) -> List[Tuple[int, ...]]:
    """The vertices of P(m,n) on which every 0/1 row (coeffs, rhs) is tight.

    A depth-first search places the values n, n-1, ... one at a time into
    free coordinates, so every node is a vertex, and keeps the node when
    each row's sum has reached its right-hand side.  ``need`` holds what
    each row still lacks and ``free`` its free coordinates; a branch is cut
    when some row needs more than its free coordinates can still take
    (the top values v, v-1, ... of what is left), and a coordinate is
    skipped when the value placed there would pass a row it hits.  One
    point list is mutated and every change is undone on return.
    """
    if any(a not in (0, 1) for coeffs, _ in rows for a in coeffs):
        raise ValueError(f"_vertices_on takes 0/1 rows, got {rows}")
    if any(rhs < 0 for _, rhs in rows):
        return []  # a sum of nonnegative coordinates
    need = [rhs for _, rhs in rows]
    free = [sum(coeffs) for coeffs, _ in rows]
    columns = zip(*(coeffs for coeffs, _ in rows)) if rows else [()] * m
    hits = [[r for r, a in enumerate(col) if a] for col in columns]
    reach = _reach(m, n)
    rows_range = range(len(rows))
    point = [0] * m
    found: List[Tuple[int, ...]] = []

    def place(v):
        for r in rows_range:
            if need[r]:
                break
        else:
            found.append(tuple(point))
        if not v:
            return
        reach_v = reach[v]
        for r in rows_range:
            if need[r] > reach_v[free[r]]:
                return
        for i, hit in enumerate(hits):
            if point[i]:
                continue
            for r in hit:
                if need[r] < v:
                    break
            else:
                point[i] = v
                for r in hit:
                    need[r] -= v
                    free[r] -= 1
                place(v - 1)
                for r in hit:
                    need[r] += v
                    free[r] += 1
                point[i] = 0

    place(n)
    return found


@lru_cache(maxsize=None)
def _reach(m: int, n: int) -> Tuple[Tuple[int, ...], ...]:
    """reach[v][k]: the most k free coordinates can still take when the
    values v, v-1, ... are left to place, g(k) of P(m,v)."""
    return tuple(pp_profile(m, v) for v in range(n + 1))


# _tight_sets keeps at most this many face vertices: all 127 size classes
# of P(6,6) take 5,690, while the whole of P(8,8), 109,601 vertices, would
# hold 27.7 MB for the life of the process.
_TIGHT_VERTICES_MAX = 2**13


_tight_memo = _HeldMemo()  # face vertex set pairs; held counts their vertices


def _tight_sets(case_rows, compact_rows, m: int, n: int) -> Tuple[frozenset, frozenset]:
    """The vertex sets that ``_vertices_on`` lists for the case and the
    compact rows, memoised on the exact rows of both.

    ``_verify_forms`` passes rows relabelled so that the chain's blocks
    are consecutive, which every chain of one size class shares.  Two
    forms that select one set share one frozenset, so with the rows built
    right the memo holds at most one face vertex set per size class.  It
    holds whole classes of at most ``_TIGHT_VERTICES_MAX`` vertices in all
    (a shared set counted twice), dropping the class it kept first; a class
    above that is searched again each time.
    """
    key = (case_rows, compact_rows, m, n)
    sets = _tight_memo.get(key)
    if sets is None:
        case = frozenset(_vertices_on(case_rows, m, n))
        compact = frozenset(_vertices_on(compact_rows, m, n))
        sets = case, case if compact == case else compact
        size = len(case) + len(compact)
        if size <= _TIGHT_VERTICES_MAX:
            while _tight_memo.held + size > _TIGHT_VERTICES_MAX:
                a, b = _tight_memo.pop(next(iter(_tight_memo)))
                _tight_memo.held -= len(a) + len(b)
            _tight_memo[key] = sets
            _tight_memo.held += size
    return sets


def _verify_forms(face: FaceSystem, want: set, m: int, n: int) -> None:
    c = face.chain
    # sigma lists the coordinates in the order they enter the chain
    blocks = [b - a for a, b in zip((frozenset(),) + c, c + (frozenset(range(1, m + 1)),))]
    order = [i - 1 for block in blocks for i in sorted(block)]
    sigma = itemgetter(*order) if m > 1 else tuple  # one index gives no tuple
    want_sigma = set(map(sigma, want))
    forms = (("case", face.case_rows), ("compact", face.compact_rows))
    rows_sigma = [tuple((sigma(coeffs), rhs) for coeffs, rhs in rows) for _, rows in forms]
    for (form, rows), got_sigma in zip(forms, _tight_sets(*rows_sigma, m, n)):
        if got_sigma == want_sigma:
            continue
        got = set(_vertices_on(rows, m, n))  # the chain's own rows decide and name the difference
        if got != want:
            raise EngineDisagreement(
                f"the {form} form of chain {[sorted(a) for a in c]} at (m,n)="
                f"({m},{n}) misses {sorted(want - got)} and adds {sorted(got - want)}")


def _family_chain(chain: Sequence, m: int, n: int) -> Tuple[frozenset, ...]:
    """The chain as frozensets; ValueError outside the chain family."""
    c = tuple(frozenset(a) for a in chain)
    if not chain_in_family(c, m, n):
        raise ValueError("chain is not in the face-indexing family")
    return c


@lru_cache(maxsize=None)
def _face_blocks(sizes: Tuple[int, ...], n: int):
    """The blocks of the face of every family chain with these member sizes.

    A block is (j, values, lengths): the coordinates of A_{j+1} \\ A_j (A_0
    the empty set, so block 0 is A_1) take values[:k] placed injectively,
    for each k in lengths, as ``placements`` fills a block.  They depend on
    the chain only through its sizes.
    """
    top = sizes[-1]
    special = sizes[0] == 0 and top >= n

    blocks = []
    for j in range(1, len(sizes)):  # block A_{j+1} \ A_j, values fixed
        if j == 1 and special:
            continue
        blocks.append((j, range(n - (top - sizes[j]), 0, -1), (sizes[j] - sizes[j - 1],)))
    if sizes[0]:  # a sliding top interval, padded with zeros
        topval = n - (top - sizes[0])
        blocks.append((0, range(topval, 0, -1), range(min(sizes[0], topval) + 1)))
    elif special and len(sizes) >= 2:  # every value down to 1, padded with top - n zeros
        topval = n - (top - sizes[1])
        blocks.append((1, range(topval, 0, -1), (topval,)))
    return tuple(blocks)


@lru_cache(maxsize=None)
def _face_count(sizes: Tuple[int, ...], n: int, bound: Optional[int] = None) -> int:
    """The vertex count of the face blocks of these sizes, by
    ``placement_count``: exact, or given ``bound`` a count that stops once
    it passes it."""
    return placement_count(((sizes[j] - (sizes[j - 1] if j else 0), lengths)
                            for j, _, lengths in _face_blocks(sizes, n)), bound)


def face_vertex_count(chain: Sequence, m: int, n: int) -> int:
    """The number of vertices of the face indexed by a chain, read from the
    member sizes without building any vertex."""
    c = _family_chain(chain, m, n)
    return _face_count(tuple(map(len, c)), n)


def face_records(m: int, n: int) -> Iterator[Tuple[Chain, int, int]]:
    """(chain, dimension, vertex count) for every nonempty face of P(m,n),
    in ``enumerate_chains`` order.

    Both numbers are read from the member sizes: the dimension is the
    missing-rank count |A_l| - l + 1 and the count comes from the size-keyed
    face blocks.  The chains are the family as ``enumerate_chains`` builds
    it, so none is validated again.
    """
    for c in enumerate_chains(m, n):
        sizes = tuple(map(len, c))
        yield c, sizes[-1] - len(c) + 1, _face_count(sizes, n)


def face_vertices(chain: Sequence, m: int, n: int) -> List[Tuple[int, ...]]:
    """The vertex set of the face indexed by a chain, by direct construction.

    Blockwise, through ``placements``: coordinates outside A_l are zero;
    each consecutive block A_{j+1} \\ A_j carries a fixed interval of values
    in every order; the bottom block carries a sliding top interval padded
    with zeros (when A_1 is nonempty) or the full interval down to 1 padded
    with exactly |A_l| - n zeros (when A_1 is empty and |A_l| >= n).  The
    vertex count, a product over the blocks (``face_vertex_count``), is
    tested before any vertex is built: faces with more than
    ``VERTEX_LIST_MAX`` vertices are refused with a ValueError, on a count
    that stops once it passes the bound, so no exact count is formed.
    """
    c = _family_chain(chain, m, n)
    sizes = tuple(map(len, c))
    check_bound(f"a face of P({m},{n})", "vertices counted",
                _face_count(sizes, n, VERTEX_LIST_MAX), "VERTEX_LIST_MAX", VERTEX_LIST_MAX)
    blocks = [(sorted(c[j] - c[j - 1]) if j else sorted(c[0]), values, lengths)
              for j, values, lengths in _face_blocks(sizes, n)]
    return sorted(placements(blocks, m))


def f_vector(m: int, n: int) -> Tuple[int, ...]:
    """(f_0, ..., f_m): face counts of P(m,n) by dimension, with f_m = 1.

    A census of the chain family, with no chain listed.  A chain with
    nonempty bottom is A_1 (a = |A_1|) plus an ordered set partition of
    w <= n-1 added elements into k blocks: C(m,a) C(m-a,w) k! S(w,k)
    chains of dimension a + w - k.  Prefixing each with (emptyset) gives
    the same number of dimension a + w - k - 1, and the chain (emptyset)
    is the origin.  Shapes whose ``f_vector_work`` exceeds
    ``F_VECTOR_WORK_MAX`` are refused up front with a ValueError.
    """
    from_f_domain.require("f_vector", m, n)  # the census is the from_f route
    widest = min(n - 1, m - 1)
    # ordered[w][k]: ordered set partitions of a w-set into k blocks
    ordered = [[factorial(k) * stirling2(w, k) for k in range(w + 1)]
               for w in range(widest + 1)]
    counts = [0] * (m + 1)
    counts[0] = 1
    for a in range(1, m + 1):
        for w in range(min(widest, m - a) + 1):
            ways = comb(m, a) * comb(m - a, w)
            for k in range(w + 1):
                chains = ways * ordered[w][k]
                counts[a + w - k] += chains
                counts[a + w - k - 1] += chains
    return tuple(counts)


def f_vector_work(m: int, n: int) -> int:
    """The work of f_vector(m, n): its (a, w, k) census terms times m.

    With W = min(n-1, m-1) there are (m-W) C(W+2,2) + C(W+2,3) terms.
    """
    widest = min(n - 1, m - 1)
    return m * ((m - widest) * comb(widest + 2, 2) + comb(widest + 2, 3))


def f_polynomial(m: int, n: int) -> Polynomial:
    """f(t) = sum_i f_i t^i over nonempty faces (top face included)."""
    return Polynomial(f_vector(m, n))


def is_palindromic(p: Polynomial, d: int) -> bool:
    """Does p satisfy t^d p(1/t) = p(t), i.e. coefficient symmetry at degree d?"""
    if p.degree > d:
        return False
    return all(p.coefficient(i) == p.coefficient(d - i) for i in range(d + 1))


def h_closed_work(m: int, n: int) -> int:
    """The work of the closed route, k^2 + m with k = min(m,n): the
    Eulerian rows A_0..A_{k-1} with their scaled entries, then one prefix
    sum over the m+2 degrees.
    """
    k = min(m, n)
    return k * k + m


# The domain of each h-route: h_domain, where every route is defined, and
# the route's own bound.
h_domain = Domain(Rule(lambda m, n: m >= 1 and n >= 1, "requires m >= 1 and n >= 1"))
from_f_domain = Domain(h_domain, Bound("F_VECTOR_WORK_MAX", globals(), "work", f_vector_work))
closed_domain = Domain(h_domain, Bound("H_CLOSED_WORK_MAX", globals(), "work", h_closed_work))
stellohedron_domain = Domain(
    h_domain, Rule(lambda m, n: n >= m, "requires n >= m in the stellohedron form"),
    Bound("H_STELLOHEDRON_MAX_M", globals()))
orientation_domain = Domain(h_domain, Bound(
    "VERTEX_LIST_MAX", globals(), "vertices counted",
    lambda m, n: placement_count([(m, range(min(m, n) + 1))], VERTEX_LIST_MAX)))


def _h_from_f(m: int, n: int) -> Polynomial:
    from_f_domain.require("h_poly", m, n)
    return f_polynomial(m, n)(Polynomial([-1, 1]))


def _h_closed(m: int, n: int) -> Polynomial:
    closed_domain.require("h_poly", m, n)
    # Times t + ... + t^{m-i}, a coefficient at degree d adds to degrees
    # d+1..d+m-i: a difference list marks each run, one prefix sum adds them.
    diff = [0] * (m + 2)
    for i, row in enumerate(eulerian_rows(min(n, m))):
        scale = comb(m, i)
        for d, a in enumerate(row):
            a *= scale
            diff[d + 1] += a
            diff[d + m - i + 1] -= a
    h = list(accumulate(diff))
    h[0] = 1
    return Polynomial(h)


def _h_stellohedron(m: int, n: int) -> Polynomial:
    stellohedron_domain.require("h_poly", m, n)
    h = [0] * (m + 1)  # sum_i C(m,i) A_i(t) t^{m-i}
    for i, row in enumerate(eulerian_rows(m + 1)):
        scale = comb(m, i)
        for d, a in enumerate(row):
            h[d + m - i] += a * scale
    return Polynomial(h)


def _h_orientation(m: int, n: int) -> Polynomial:
    orientation_domain.require("h_poly", m, n)
    # A nonzero vertex with k nonzero entries has indegree 1 + des(pi^-1),
    # plus beta when k = n: pos[x] is where the value x sits, so pi^-1 has
    # a descent at x - (n-k) exactly when x+1 sits left of x, n-k < x < n.
    coeffs = [1] + [0] * m
    pos = [0] * (n + 1)
    for v in pp_vertices(m, n).points:
        for i, x in enumerate(v):
            pos[x] = i  # pos[0] is overwritten and never read
        k = m - v.count(0)
        if not k:
            continue
        e = 1 + sum(pos[x + 1] < pos[x] for x in range(n - k + 1, n))
        if k == n:
            e += v[pos[1] + 1:].count(0)
        coeffs[e] += 1
    return Polynomial(coeffs)


# Method name -> Engine, in the order the CLI offers them.  The routes are
# private: callers go through h_poly, the entry point to patch or trace.
H_POLY_ENGINES: Dict[str, Engine] = {
    "from_f": Engine(from_f_domain, _h_from_f),
    "closed": Engine(closed_domain, _h_closed),
    "stellohedron": Engine(stellohedron_domain, _h_stellohedron),
    "orientation": Engine(orientation_domain, _h_orientation),
}


def h_poly(m: int, n: int, method: str = "from_f") -> Polynomial:
    """h-polynomial of P(m,n) by one of the routes of H_POLY_ENGINES.

    from_f        h(t) = f(t-1) from the chain census;
    closed        1 + sum_{i<n} sum_{j=1}^{m-i} C(m,i) A_i(t) t^j;
    stellohedron  sum_i C(m,i) A_i(t) t^{m-i} (requires n >= m);
    orientation   1 + sum over nonzero vertices of t^{indegree} with
                  indegree 1 + des of the inverse permutation, plus the
                  trailing-zero count beta for vertices containing 1.

    Raises ValueError for an unknown method or outside the method's domain.
    """
    if method not in H_POLY_ENGINES:
        raise ValueError(f"unknown h_poly method {method!r}")
    return H_POLY_ENGINES[method].value(m, n)


def _face_order_rows(r_sets: Sequence[frozenset]) -> List[int]:
    """The face-order comparability matrix of chains given by their R-sets,
    one bitmask per row: bit j of row i is set exactly when
    R(c_j) is a subset of R(c_i).

    Bit-parallel: for each marker, the mask of the chains whose R-set holds
    it.  Row i is every chain minus those holding a marker outside
    R(c_i), at a cost of N times the marker count in integer ORs instead
    of N^2 set tests.
    """
    holders: Dict[object, int] = {}
    for j, r in enumerate(r_sets):
        bit = 1 << j
        for x in r:
            holders[x] = holders.get(x, 0) | bit
    every = (1 << len(r_sets)) - 1
    rows = []
    for r in r_sets:
        outside = 0
        for x, mask in holders.items():
            if x not in r:
                outside |= mask
        rows.append(every & ~outside)
    return rows


def comb_equiv_check(m: int, n1: int, n2: int) -> bool:
    """Are P(m,n1) and P(m,n2) combinatorially equivalent?

    Tests equality of the f-vectors, of the indexing chain families, and of
    the full face-order comparability matrices (``_face_order_rows`` of the
    marker sets under each n separately, empty face included).  The work
    is measured in chain pairs, the size of each matrix, and shapes whose
    chain count squared exceeds ``COMB_EQUIV_WORK_MAX`` are refused up
    front with a ValueError.
    """
    f1 = f_vector(m, n1)
    pairs = (sum(f1) + 1) ** 2  # the empty face included
    check_bound(f"comb_equiv_check({m}, {n1}, {n2})", "chain pairs", pairs,
                "COMB_EQUIV_WORK_MAX", COMB_EQUIV_WORK_MAX)
    if f1 != f_vector(m, n2):
        return False
    chains1 = enumerate_chains(m, n1, include_empty=True)
    chains2 = enumerate_chains(m, n2, include_empty=True)
    if set(chains1) != set(chains2):
        return False
    rows1 = _face_order_rows([r_set(c, m, n1) for c in chains1])
    rows2 = _face_order_rows([r_set(c, m, n2) for c in chains1])
    return rows1 == rows2
