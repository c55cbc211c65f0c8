"""Partial permutohedra as explicit V- and H-representations, exactly.

The partial permutohedron P(m,n) is the convex hull of all vectors in
{0,...,n}^m whose nonzero entries are pairwise distinct.  Its vertices are
the vectors whose k nonzero entries are exactly the top values
{n, n-1, ..., n-k+1} placed injectively, 0 <= k <= min(m,n); its facet
inequalities are x_i >= 0 together with, for every nonempty S in [m] with
|S| <= n-1 or |S| = m,

    sum_{i in S} x_i  <=  C(n+1,2) - C(n+1-|S|,2),

where C(a,2) is taken as 0 for a <= 1 (equivalently the right-hand side is
|S|*n - C(|S|,2) when |S| <= n and C(n+1,2) otherwise).

Also here: exact lattice-point counting of dilates, by a symmetric
dynamic programme over sorted values for P(m,n) itself and by a generic box
kernel for any system; exact hull conversion in both directions by integer
double description, halfspace cuts for strip-decomposition arguments, and
the anti-blocking polytope of a weakly decreasing score vector together
with its vertex-edge graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, floor, ceil, gcd, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ._counting_py import count_lattice_points
from .exactmath import int_det

# The one counting kernel; kept as a name because benchmark records and the
# ``verify`` summary report it.
KERNEL_NAME = "pure"


@dataclass(frozen=True)
class HRep:
    """Halfspace system a . x <= b: rows of (coefficients, rhs), plus dimension."""

    rows: Tuple[Tuple[Tuple[int, ...], int], ...]
    dim: int

    def dilate(self, t: int) -> "HRep":
        return HRep(tuple((a, b * t) for a, b in self.rows), self.dim)

    def with_rows(self, extra) -> "HRep":
        return HRep(self.rows + tuple(extra), self.dim)

    def to_jsonable(self):
        return {
            "dim": self.dim,
            "rows": [{"coeffs": list(a), "rhs": b} for a, b in self.rows],
        }


@dataclass(frozen=True)
class VRep:
    """Vertex list of a polytope (exact coordinates), plus ambient dimension."""

    points: Tuple[Tuple, ...]
    dim: int

    def to_jsonable(self):
        return {
            "dim": self.dim,
            "points": [[_coord_json(c) for c in p] for p in self.points],
        }


def _coord_json(c):
    return c if isinstance(c, int) else str(c)


# pp_vertices lists at most this many vertices (about 2 s); P(8,8) has
# 109,601 and P(9,9) 986,410.
VERTEX_LIST_MAX = 2**19


def pp_vertex_count(m: int, n: int) -> int:
    """Number of vertices of P(m,n): sum_{k <= min(m,n)} m!/(m-k)!."""
    return sum(factorial(m) // factorial(m - k) for k in range(min(m, n) + 1))


@lru_cache(maxsize=8)
def pp_vertices(m: int, n: int) -> VRep:
    """All vertices of P(m,n), lexicographically sorted.

    For each k = 0..min(m,n), place the values n, n-1, ..., n-k+1 injectively
    into k of the m positions; the total count is ``pp_vertex_count``.
    P(m,0) is the single point at the origin.  The VRep is frozen, so the
    few most recent ones are memoised and shared between callers.  Shapes
    with more than ``VERTEX_LIST_MAX`` vertices are refused up front.
    """
    if m < 1 or n < 0:
        raise ValueError("pp_vertices requires m >= 1 and n >= 0")
    count = pp_vertex_count(m, n)
    if count > VERTEX_LIST_MAX:
        raise ValueError(
            f"P({m},{n}) has {count} vertices, above the listing bound "
            f"VERTEX_LIST_MAX = {VERTEX_LIST_MAX}"
        )
    pts = []
    values = list(range(n, 0, -1))
    for k in range(min(m, n) + 1):
        vals = values[:k]
        for pos in permutations(range(m), k):
            v = [0] * m
            for p, val in zip(pos, vals):
                v[p] = val
            pts.append(tuple(v))
    pts = sorted(set(pts))
    return VRep(tuple(pts), m)


def _facet_rhs(k: int, n: int) -> int:
    """C(n+1,2) - C(n+1-k,2) with C(a,2)=0 for a<=1; equals kn-C(k,2) for k<=n."""
    a = n + 1 - k
    return comb(n + 1, 2) - (comb(a, 2) if a >= 2 else 0)


def pp_facets(m: int, n: int) -> HRep:
    """The irredundant facet system of P(m,n).

    Nonnegativity rows -x_i <= 0 first, then the subset rows over all
    nonempty S with |S| <= n-1 or |S| = m, ordered by (|S|, S).
    For n = 0 the system pins the single point at the origin.
    """
    if m < 1 or n < 0:
        raise ValueError("pp_facets requires m >= 1 and n >= 0")
    rows = []
    for i in range(m):
        a = [0] * m
        a[i] = -1
        rows.append((tuple(a), 0))
    for k in range(1, m + 1):
        if not (k <= n - 1 or k == m):
            continue
        rhs = _facet_rhs(k, n)
        for S in combinations(range(m), k):
            a = [0] * m
            for i in S:
                a[i] = 1
            rows.append((tuple(a), rhs))
    return HRep(tuple(rows), m)


def pp_box(m: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """Coordinate bounding box of P(m,n): [0, n] in every coordinate."""
    return tuple((0, n) for _ in range(m))


def contains_point(h: HRep, x: Sequence) -> bool:
    """Exact membership test of a (rational) point in the halfspace system."""
    if len(x) != h.dim:
        raise ValueError("point dimension mismatch")
    return all(sum(c * xi for c, xi in zip(a, x)) <= b for a, b in h.rows)


def count_points(
    h: HRep,
    t: int,
    box: Optional[Sequence[Tuple[int, int]]] = None,
) -> int:
    """Number of lattice points in the t-th dilate of the polytope.

    The generic route: a depth-first search of the dilated box that bounds
    each coordinate by the slack of every row.  ``box`` bounds the
    *undilated* polytope coordinatewise; when omitted it is derived by exact
    vertex enumeration (affordable only for small systems — callers with
    known geometry should pass it).  For P(m,n) itself ``pp_count`` is far
    faster.
    """
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    if t == 0:
        return 1
    if box is None:
        box = bounding_box(h)
    if len(box) != h.dim:
        raise ValueError("box dimension mismatch")
    rows_a = [list(a) for a, _ in h.rows]
    rows_b = [b * t for _, b in h.rows]
    lows = [lo * t for lo, _ in box]
    highs = [hi * t for _, hi in box]
    return count_lattice_points(rows_a, rows_b, lows, highs)


# pp_count tries at most m-k copy counts at each state (value, k positions
# filled, prefix sum); it refuses shapes whose sum of these exceeds this
# many steps (at most about 2 s).
PP_COUNT_WORK_MAX = 2**23


def pp_count(m: int, n: int, t: int) -> int:
    """Number of lattice points in t*P(m,n), counted by sorted values.

    Reads the anti-blocking description of P(m,n), not the facet list: an
    integer x >= 0 lies in t*P(m,n) exactly when, for every k, the sum of
    its k largest coordinates is at most t*g(k), where g(k) = z_1 + ... + z_k
    is a prefix sum of the score vector z_i = max(n-i+1, 0).

    A dynamic programme places the values t*n, ..., 1 from the largest
    down, c copies at a time, in C(free, c) ways.  Its state is (positions
    filled, prefix sum), and each prefix sum is tested against t*g(k).
    Zeros fill the positions that remain, so the count is the sum over all
    states.  Shapes above ``PP_COUNT_WORK_MAX`` steps are refused up front.
    """
    if m < 1 or n < 0 or t < 0:
        raise ValueError("pp_count requires m >= 1, n >= 0 and t >= 0")
    bound = [0]
    for i in range(m):
        bound.append(bound[-1] + t * max(n - i, 0))
    work = t * n * sum((b + 1) * (m - k) for k, b in enumerate(bound[:m]))
    if work > PP_COUNT_WORK_MAX:
        raise ValueError(
            f"pp_count({m},{n},{t}) needs {work} steps, "
            f"above the work bound PP_COUNT_WORK_MAX = {PP_COUNT_WORK_MAX}"
        )
    ways_to_place = [[comb(free, c) for c in range(free + 1)] for free in range(m + 1)]
    # layers[k][s]: weighted placements that fill k positions with sum s
    layers = [[0] * (b + 1) for b in bound]
    layers[0][0] = 1
    for v in range(t * n, 0, -1):
        # Sources from the most filled down, so no source has gained v yet.
        for k in range(m - 1, -1, -1):
            ways_c = ways_to_place[m - k]
            for s, ways in enumerate(layers[k]):
                if not ways:
                    continue
                for c in range(1, m - k + 1):
                    s += v
                    if s > bound[k + c]:
                        break
                    layers[k + c][s] += ways * ways_c[c]
    return sum(map(sum, layers))


def vertex_box(points: Sequence[Sequence]) -> Tuple[Tuple[int, int], ...]:
    """Integer coordinate box enclosing a nonempty point set."""
    return tuple((floor(min(xs)), ceil(max(xs))) for xs in zip(*points))


def bounding_box(h: HRep) -> Tuple[Tuple[int, int], ...]:
    """Integer coordinate box enclosing the polytope, via vertex enumeration."""
    v = hull_convert(h)
    if not v.points:
        raise ValueError("empty polytope has no bounding box")
    return vertex_box(v.points)


# ---------------------------------------------------------------------------
# Exact hull conversion by integer double description.


def _integral(row) -> Tuple[int, ...]:
    """The row times the least common denominator of its entries."""
    den = lcm(*(x.denominator for x in row))
    return tuple(int(x * den) for x in row)


def _primitive(v) -> Tuple[int, ...]:
    g = gcd(*v)
    return tuple(x // g for x in v)


def _row_basis(gens, d: int) -> List[int]:
    """Indices of a greedy row basis: each row independent of the earlier
    ones, at most d of them, so fewer than d exactly when the rank is.

    Fraction-free elimination: each accepted row is reduced against the
    earlier ones by integer cross-multiplication and kept primitive.
    """
    basis, echelon = [], []
    for i, g in enumerate(gens):
        v = g
        for col, e in echelon:
            if v[col]:
                v = [e[col] * x - v[col] * y for x, y in zip(v, e)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            continue
        echelon.append((col, _primitive(v)))
        basis.append(i)
        if len(basis) == d:
            break
    return basis


def _adjacent(common: int, zeros: List[int]) -> bool:
    """Combinatorial test: only the two rays themselves vanish on ``common``."""
    seen = 0
    for z in zeros:
        if z & common == common:
            seen += 1
            if seen > 2:
                return False
    return True


def _extreme_rays(gens) -> Optional[List[Tuple[int, ...]]]:
    """Primitive extreme rays of the cone {y : g . y >= 0 for every g in gens}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) in
    integer arithmetic.  It starts from the simplicial cone on d
    independent rows, whose rays are the columns of their adjugate, and
    adds the other rows one at a time: rays on the violated side are
    dropped, and every adjacent pair across the new hyperplane gives one
    new ray.  Each ray keeps its zero set (the rows it lies on) as a
    bitmask, and two rays are adjacent when no third ray vanishes on all
    the rows they share.  Returns None when the rows have rank below d,
    that is when the cone contains a line.
    """
    gens = [_integral(g) for g in gens]
    d = len(gens[0])
    basis = _row_basis(gens, d)
    if len(basis) < d:
        return None
    rows = [gens[i] for i in basis]
    sign = 1 if int_det(rows) > 0 else -1
    rays, zeros = [], []
    everything = sum(1 << i for i in basis)
    for k, i in enumerate(basis):
        rest = rows[:k] + rows[k + 1:]
        adj = [(-1) ** (j + k) * int_det([r[:j] + r[j + 1:] for r in rest])
               for j in range(d)]
        rays.append(_primitive([sign * x for x in adj]))
        zeros.append(everything & ~(1 << i))
    skip = set(basis)
    for i, g in enumerate(gens):
        if i in skip:
            continue
        bit = 1 << i
        vals = [sum(a * y for a, y in zip(g, r)) for r in rays]
        pos = [k for k, s in enumerate(vals) if s > 0]
        neg = [k for k, s in enumerate(vals) if s < 0]
        new_rays, new_zeros = [], []
        for p in pos:
            for q in neg:
                common = zeros[p] & zeros[q]
                if common.bit_count() < d - 2 or not _adjacent(common, zeros):
                    continue
                ray = [vals[p] * y - vals[q] * x for x, y in zip(rays[p], rays[q])]
                new_rays.append(_primitive(ray))
                new_zeros.append(common | bit)
        keep = [k for k, s in enumerate(vals) if s >= 0]
        rays = [rays[k] for k in keep] + new_rays
        zeros = [zeros[k] | (bit if vals[k] == 0 else 0) for k in keep] + new_zeros
    return rays


def hull_convert(rep):
    """Exact hull conversion: VRep -> HRep (facets) or HRep -> VRep (vertices).

    Both directions compute the extreme rays of a homogenised cone with
    ``_extreme_rays``.  V->H: the cone of valid inequalities a . x <= c,
    with one row (1, -p) per point; its rays with a != 0 are the facets,
    each with a primitive integer normal, sorted.  The input must be full
    dimensional; degenerate point sets raise ValueError.  H->V: the cone
    {(w, x) : a . x <= b w, w >= 0}; its rays with w > 0 are the vertices
    x / w, sorted, each coordinate an int when integral and a Fraction
    otherwise.  A system whose rows have rank below m has no vertex and
    gives the empty VRep.
    """
    if isinstance(rep, VRep):
        return _hull_v_to_h(rep)
    if isinstance(rep, HRep):
        return _hull_h_to_v(rep)
    raise TypeError("hull_convert expects a VRep or an HRep")


def _exact(num: int, den: int):
    return num // den if num % den == 0 else Fraction(num, den)


def _hull_v_to_h(v: VRep) -> HRep:
    if len(v.points) < v.dim + 1:
        raise ValueError("point set is degenerate (too few points)")
    rays = _extreme_rays([(1,) + tuple(-x for x in p) for p in v.points])
    if rays is None:
        raise ValueError("point set is degenerate (affine rank below dimension)")
    rows = []
    for c, *a in rays:
        g = gcd(*a)
        if g:
            rows.append((tuple(x // g for x in a), _exact(c, g)))
    return HRep(tuple(sorted(rows)), v.dim)


def _hull_h_to_v(h: HRep) -> VRep:
    gens = [(1,) + (0,) * h.dim] + [(b,) + tuple(-x for x in a) for a, b in h.rows]
    rays = _extreme_rays(gens) or []
    pts = [tuple(_exact(x, w) for x in xs) for w, *xs in rays if w > 0]
    return VRep(tuple(sorted(pts)), h.dim)


# ---------------------------------------------------------------------------
# Halfspace cuts (strip decompositions).


class CutResult(NamedTuple):
    pprime: HRep  # P intersect {a.x <= b}
    q: HRep  # P intersect {a.x >= b}
    f: HRep  # P intersect {a.x  = b}
    q_empty: bool  # true when max_P a.x < b (the cut misses P entirely)


def cut(h: HRep, a: Sequence[int], b: int) -> CutResult:
    """Split a polytope by the hyperplane a . x = b.

    Returns the two closed sides and the slice, each as halfspace systems
    obtained by appending rows, plus a flag telling whether the far side
    P intersect {a.x >= b} is empty (then the cut did not meet P and the
    near side equals P).  Emptiness is decided exactly by evaluating a on
    the vertices of P, so this is intended for small systems.
    """
    a = tuple(int(x) for x in a)
    if len(a) != h.dim:
        raise ValueError("cut normal dimension mismatch")
    neg = tuple(-x for x in a)
    pprime = h.with_rows([(a, b)])
    q = h.with_rows([(neg, -b)])
    f = h.with_rows([(a, b), (neg, -b)])
    verts = hull_convert(h)
    if not verts.points:
        raise ValueError("cut of an empty polytope")
    top = max(sum(c * x for c, x in zip(a, p)) for p in verts.points)
    return CutResult(pprime, q, f, top < b)


# ---------------------------------------------------------------------------
# Anti-blocking polytopes of weakly decreasing score vectors.


def antiblocking_vertices_edges(z: Sequence[int]) -> Tuple[VRep, Tuple[Tuple[int, int], ...]]:
    """Vertices and edges of the anti-blocking polytope of z_1 >= ... >= z_m >= 0.

    Vertices are the injective placements of the prefixes z_1..z_k
    (k = 0..m) into the m coordinates, with duplicates removed (placing a
    zero value changes nothing).  Edges join u to v when v arises from u by
    one of three moves, with j the number of nonzeros of u and K that of z:

      1. zero out one occurrence of the smallest nonzero value z_j of u;
      2. swap the positions of one occurrence of z_i and one of z_{i+1},
         for any i < j with z_i > z_{i+1};
      3. when j = K < m, relocate one occurrence of z_K to an empty
         coordinate.

    Returned edges are index pairs (i, j), i < j, into the sorted vertex
    list.
    """
    m = len(z)
    if m < 1:
        raise ValueError("empty score vector")
    z = [int(x) for x in z]
    if any(x < 0 for x in z):
        raise ValueError("scores must be nonnegative")
    if any(z[i] < z[i + 1] for i in range(m - 1)):
        raise ValueError("scores must be weakly decreasing")
    bigk = sum(1 for x in z if x > 0)
    verts = set()
    for k in range(m + 1):
        vals = z[:k]
        for pos in permutations(range(m), k):
            v = [0] * m
            for p, val in zip(pos, vals):
                v[p] = val
            verts.add(tuple(v))
    vlist = sorted(verts)
    vindex = {v: i for i, v in enumerate(vlist)}
    edges = set()
    for u in vlist:
        j = sum(1 for x in u if x > 0)
        neighbours = set()
        if j >= 1:
            small = z[j - 1]
            for p in range(m):
                if u[p] == small:
                    w = list(u)
                    w[p] = 0
                    neighbours.add(tuple(w))
            for i in range(j - 1):
                if z[i] > z[i + 1]:
                    for p in range(m):
                        if u[p] != z[i]:
                            continue
                        for q in range(m):
                            if u[q] != z[i + 1]:
                                continue
                            w = list(u)
                            w[p], w[q] = w[q], w[p]
                            neighbours.add(tuple(w))
            if j == bigk and bigk < m:
                for p in range(m):
                    if u[p] != z[bigk - 1]:
                        continue
                    for q in range(m):
                        if u[q] == 0:
                            w = list(u)
                            w[p] = 0
                            w[q] = z[bigk - 1]
                            neighbours.add(tuple(w))
        ui = vindex[u]
        for w in neighbours:
            wi = vindex[w]
            if wi != ui:
                edges.add((min(ui, wi), max(ui, wi)))
    return VRep(tuple(vlist), m), tuple(sorted(edges))


def verify_antiblocking_identity(m: int, n: int) -> bool:
    """Does the anti-blocking polytope of (n, n-1, ..., down to 0) equal P(m,n)?

    Compares vertex sets exactly: the score vector is z_i = max(n-i+1, 0).
    """
    z = [max(n - i, 0) for i in range(m)]
    av, _ = antiblocking_vertices_edges(z)
    pv = pp_vertices(m, n)
    return set(av.points) == set(pv.points)
