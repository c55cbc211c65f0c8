"""Faces of P(m,n) from subset chains; f- and h-polynomials four ways.

Every nonempty face of P(m,n) is indexed by a chain A_1 < ... < A_l from
the width-bounded chain family (see ``combinat``), the face dimension being
the chain's missing-rank count |A_l| - l + 1.  Two equality systems carve
out the face:

* the case form —
    x_i = 0 for i outside A_l;
    sum_{i in A_l \\ A_j} x_i = C(n+1,2) - C(n+1-|A_l \\ A_j|,2) for
    j = l-1, ..., 2, and also j = 1 unless (A_1 = empty and |A_l| >= n);
    sum_{i in [m]} x_i = C(n+1,2) when A_1 = empty and |A_l| >= n;

* the compact form —
    sum_{i in [m] \\ A_j} x_i = C(n+1,2) - C(n+1-|A_l \\ A_j|,2) for
    j = 1..l (the j = l row reduces to a zero-sum row over [m] \\ A_l).

The two forms can span different affine subspaces (e.g. for the chain
(emptyset), whose face is the origin) yet always cut the same face out of
P(m,n); equivalence is therefore verified on vertex sets, never on spans.

The h-polynomial h(t) = f(t-1) is computed independently from the face
census, from a closed Eulerian-polynomial sum, from the stellohedron
specialization (n >= m), and from an edge-orientation/indegree statistic
on the vertex graph.  ``H_POLY_ENGINES`` is the ordered table of these
routes, method name -> (domain, value); all are cross-checked in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .combinat import (
    Engine,
    chain_in_family,
    descents,
    enumerate_chains,
    missing_ranks,
    permutation_inverse,
    r_set,
)
from .exactmath import EngineDisagreement, Polynomial, eulerian, stirling2
from .polytope import VERTEX_LIST_MAX, _facet_rhs, pp_vertex_count, pp_vertices

# Above this vertex count, face_from_chain verifies its two equality systems
# on the face's own constructed vertices instead of filtering all of V(P).
_FULL_VERIFY_LIMIT = 20000


@dataclass(frozen=True)
class FaceSystem:
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

    Raises ValueError for chains outside the family.  The two systems are
    verified to select the same vertex set (on all of V(P) when that is
    small enough, else on the face's own vertex list).
    """
    c = tuple(frozenset(a) for a in chain)
    if not chain_in_family(c, m, n):
        raise ValueError("chain is not in the face-indexing family")
    top = c[-1]
    ell = len(c)
    ground = frozenset(range(1, m + 1))
    special = (not c[0]) and len(top) >= n  # empty bottom, wide top

    case_rows = []
    for i in sorted(ground - top):
        e = [0] * m
        e[i - 1] = 1
        case_rows.append((tuple(e), 0))
    for j in range(1, ell):  # chain indices 1..l-1
        if j == 1 and special:
            continue
        diff = top - c[j - 1]
        case_rows.append((_indicator(diff, m), _facet_rhs(len(diff), n)))
    if special:
        case_rows.append((_indicator(ground, m), comb(n + 1, 2)))

    compact_rows = []
    for j in range(1, ell + 1):
        outside = ground - c[j - 1]
        w = len(top - c[j - 1])
        compact_rows.append((_indicator(outside, m), _facet_rhs(w, n)))

    dim = missing_ranks(c)
    face = FaceSystem(c, dim, tuple(case_rows), tuple(compact_rows))
    _verify_forms(face, m, n)
    return face


def _on_rows(point, rows) -> bool:
    return all(sum(a * x for a, x in zip(coeffs, point)) == rhs for coeffs, rhs in rows)


def _verify_forms(face: FaceSystem, m: int, n: int) -> None:
    if pp_vertex_count(m, n) <= _FULL_VERIFY_LIMIT:
        sel_case = set()
        sel_compact = set()
        for p in pp_vertices(m, n).points:
            if _on_rows(p, face.case_rows):
                sel_case.add(p)
            if _on_rows(p, face.compact_rows):
                sel_compact.add(p)
        if sel_case != sel_compact:
            raise EngineDisagreement(
                f"face forms select different vertex sets for chain {face.chain}"
            )
    else:
        for p in face_vertices(face.chain, m, n):
            if not (_on_rows(p, face.case_rows) and _on_rows(p, face.compact_rows)):
                raise EngineDisagreement(
                    f"face vertex violates a face equality system for chain {face.chain}"
                )


def _check_block(vals, positions, chain) -> None:
    if len(vals) != len(positions):
        raise EngineDisagreement(
            f"chain {chain}: {len(vals)} values for {len(positions)} positions"
        )


def face_vertices(chain: Sequence, m: int, n: int) -> List[Tuple[int, ...]]:
    """The vertex set of the face indexed by a chain, by direct construction.

    Blockwise: coordinates outside A_l are zero; each consecutive block
    A_{j+1} \\ A_j carries a fixed interval of values in every order; the
    bottom block carries a sliding top interval padded with zeros (when
    A_1 is nonempty) or the full interval down to 1 padded with exactly
    |A_l| - n zeros (when A_1 is empty and |A_l| >= n).
    """
    c = tuple(frozenset(a) for a in chain)
    if not chain_in_family(c, m, n):
        raise ValueError("chain is not in the face-indexing family")
    top = c[-1]
    ell = len(c)
    special = (not c[0]) and len(top) >= n

    blocks: List[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]] = []
    for j in range(1, ell):  # block A_{j+1} \ A_j, values fixed
        if j == 1 and special:
            continue
        positions = tuple(sorted(c[j] - c[j - 1]))
        hi = n - len(top - c[j])
        lo = n - len(top - c[j - 1]) + 1
        vals = tuple(range(hi, lo - 1, -1))
        _check_block(vals, positions, c)
        blocks.append((positions, sorted(set(permutations(vals)))))
    if c[0]:
        positions = tuple(sorted(c[0]))
        topval = n - len(top - c[0])
        arrangements = set()
        for k in range(min(len(positions), topval) + 1):
            vals = tuple(range(topval, topval - k, -1)) + (0,) * (len(positions) - k)
            arrangements.update(permutations(vals))
        blocks.append((positions, sorted(arrangements)))
    elif special and ell >= 2:
        positions = tuple(sorted(c[1]))
        hi = n - len(top - c[1])
        vals = tuple(range(hi, 0, -1)) + (0,) * (len(top) - n)
        _check_block(vals, positions, c)
        blocks.append((positions, sorted(set(permutations(vals)))))

    verts = [[0] * m]
    for positions, choices in blocks:
        grown = []
        for base in verts:
            for choice in choices:
                w = list(base)
                for p, val in zip(positions, choice):
                    w[p - 1] = val
                grown.append(w)
        verts = grown
    return sorted(tuple(v) for v in verts)


def f_vector(m: int, n: int) -> Tuple[int, ...]:
    """(f_0, ..., f_m): face counts of P(m,n) by dimension, with f_m = 1.

    A census of the chain family, with no chain listed.  A chain with
    nonempty bottom is A_1 (a = |A_1|) plus an ordered set partition of
    w <= n-1 added elements into k blocks: C(m,a) C(m-a,w) k! S(w,k)
    chains of dimension a + w - k.  Prefixing each with (emptyset) gives
    the same number of dimension a + w - k - 1, and the chain (emptyset)
    is the origin.
    """
    if m < 1 or n < 1:
        raise ValueError("f_vector requires m >= 1 and n >= 1")
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


def f_polynomial(m: int, n: int) -> Polynomial:
    """f(t) = sum_i f_i t^i over nonempty faces (top face included)."""
    return Polynomial(f_vector(m, n))


def is_palindromic(p: Polynomial, d: int) -> bool:
    """Does p satisfy t^d p(1/t) = p(t), i.e. coefficient symmetry at degree d?"""
    if p.degree > d:
        return False
    return all(p.coefficient(i) == p.coefficient(d - i) for i in range(d + 1))


@dataclass(frozen=True)
class VertexStats:
    """Orientation statistics of one vertex of P(m,n).

    ``category`` is 'zero' for the origin, 'V1' for vertices containing
    every value of [n] (equivalently: containing 1), and 'V2' for the
    remaining nonzero vertices.  ``des``/``des_inv`` count descents of the
    induced permutation and its inverse; ``beta`` (V1 only) counts zeros to
    the right of the unique entry 1.
    """

    vertex: Tuple[int, ...]
    category: str
    des: int
    des_inv: int
    beta: Optional[int]


def vertex_stats(m: int, n: int) -> List[VertexStats]:
    """Orientation statistics for every vertex of P(m,n).

    For a nonzero vertex with k nonzero entries, delete the zeros and
    subtract n-k from the rest to get a permutation of [k]; a vertex is in
    V1 exactly when k = n (its smallest nonzero entry is 1).
    """
    out = []
    for v in pp_vertices(m, n).points:
        nz = [x for x in v if x > 0]
        k = len(nz)
        if k == 0:
            out.append(VertexStats(v, "zero", 0, 0, None))
            continue
        perm = tuple(x - (n - k) for x in nz)
        des = descents(perm)
        des_inv = descents(permutation_inverse(perm))
        if k == n:
            pos_one = v.index(1)
            beta = sum(1 for x in v[pos_one + 1 :] if x == 0)
            out.append(VertexStats(v, "V1", des, des_inv, beta))
        else:
            out.append(VertexStats(v, "V2", des, des_inv, None))
    return out


def h_domain(m: int, n: int) -> bool:
    """The domain of the from_f and closed routes."""
    return m >= 1 and n >= 1


def stellohedron_domain(m: int, n: int) -> bool:
    """The domain of the stellohedron route, n >= m >= 1."""
    return h_domain(m, n) and n >= m


def orientation_domain(m: int, n: int) -> bool:
    """The domain of the orientation route: at most VERTEX_LIST_MAX vertices."""
    return h_domain(m, n) and pp_vertex_count(m, n) <= VERTEX_LIST_MAX


def _require_h(m: int, n: int) -> None:
    if not h_domain(m, n):
        raise ValueError("h_poly requires m >= 1 and n >= 1")


def _h_from_f(m: int, n: int) -> Polynomial:
    _require_h(m, n)
    return f_polynomial(m, n)(Polynomial([-1, 1]))


def _h_closed(m: int, n: int) -> Polynomial:
    _require_h(m, n)
    h = Polynomial([1])
    for i in range(min(n, m)):
        ai = eulerian(i) * comb(m, i)
        geom = Polynomial([0] + [1] * (m - i))  # t + ... + t^{m-i}
        h = h + ai * geom
    return h


def _h_stellohedron(m: int, n: int) -> Polynomial:
    _require_h(m, n)
    if not stellohedron_domain(m, n):
        raise ValueError("stellohedron form requires n >= m")
    h1 = Polynomial([1])
    h2 = Polynomial()
    t = Polynomial.x()
    for i in range(m + 1):
        term = eulerian(i) * comb(m, i)
        h2 = h2 + term * t ** (m - i)
        if i >= 1:
            h1 = h1 + term * t
    if h1 != h2:
        raise EngineDisagreement("the two stellohedron h-forms disagree")
    return h2


def _h_orientation(m: int, n: int) -> Polynomial:
    _require_h(m, n)  # pp_vertices refuses shapes above VERTEX_LIST_MAX
    coeffs = {0: 1}
    for st in vertex_stats(m, n):
        if st.category == "zero":
            continue
        e = 1 + st.des_inv + (st.beta if st.category == "V1" else 0)
        coeffs[e] = coeffs.get(e, 0) + 1
    return Polynomial([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


# Method name -> Engine, in the order the CLI offers them.  The routes are
# private: callers go through h_poly, the entry point to patch or trace.
H_POLY_ENGINES: Dict[str, Engine] = {
    "from_f": Engine(h_domain, _h_from_f),
    "closed": Engine(h_domain, _h_closed),
    "stellohedron": Engine(stellohedron_domain, _h_stellohedron),
    "orientation": Engine(orientation_domain, _h_orientation),
}


def h_poly(m: int, n: int, method: str = "from_f") -> Polynomial:
    """h-polynomial of P(m,n) by one of the routes of H_POLY_ENGINES.

    from_f        h(t) = f(t-1) from the chain census;
    closed        1 + sum_{i<n} sum_{j=1}^{m-i} C(m,i) A_i(t) t^j;
    stellohedron  sum_i C(m,i) A_i(t) t^{m-i} (requires n >= m), checked
                  internally against 1 + t sum_{i>=1} C(m,i) A_i(t);
    orientation   1 + sum over nonzero vertices of t^{indegree} with
                  indegree 1 + des of the inverse permutation, plus the
                  trailing-zero count beta for vertices containing 1.

    Raises ValueError for an unknown method or outside the method's domain.
    """
    if method not in H_POLY_ENGINES:
        raise ValueError(f"unknown h_poly method {method!r}")
    return H_POLY_ENGINES[method].value(m, n)


def comb_equiv_check(m: int, n1: int, n2: int) -> bool:
    """Are P(m,n1) and P(m,n2) combinatorially equivalent?

    Tests equality of the indexing chain families, of the f-vectors, and of
    the full face-order comparability matrices (computed from marker sets
    under each n separately, empty face included).
    """
    chains1 = enumerate_chains(m, n1, include_empty=True)
    chains2 = enumerate_chains(m, n2, include_empty=True)
    if set(chains1) != set(chains2):
        return False
    if f_vector(m, n1) != f_vector(m, n2):
        return False
    chains = chains1
    r1 = [r_set(c, m, n1) for c in chains]
    r2 = [r_set(c, m, n2) for c in chains]
    for i in range(len(chains)):
        for j in range(len(chains)):
            if (r1[j] <= r1[i]) != (r2[j] <= r2[i]):
                return False
    return True
