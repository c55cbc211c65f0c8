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

Also here: exact lattice-point counting of dilates (compiled kernel with a
pure-Python fallback, optional process-parallel splitting), exact hull
conversion in both directions by brute subset enumeration, halfspace cuts
for strip-decomposition arguments, and the anti-blocking polytope of a
weakly decreasing score vector together with its vertex-edge graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, floor, ceil, gcd
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .exactmath import int_det, solve_linear

if os.environ.get("PARTPERM_PURE") == "1":
    from . import _counting_py as _kernel

    KERNEL_NAME = "pure"
else:
    try:
        from . import _countcore as _kernel  # type: ignore[attr-defined]

        KERNEL_NAME = "compiled"
    except ImportError:
        from . import _counting_py as _kernel

        KERNEL_NAME = "pure"

count_lattice_points = _kernel.count_lattice_points


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


@lru_cache(maxsize=8)
def pp_vertices(m: int, n: int) -> VRep:
    """All vertices of P(m,n), lexicographically sorted.

    For each k = 0..min(m,n), place the values n, n-1, ..., n-k+1 injectively
    into k of the m positions; the total count is sum_k m!/(m-k)!.
    P(m,0) is the single point at the origin.  The VRep is frozen, so the
    few most recent ones are memoised and shared between callers.
    """
    if m < 1 or n < 0:
        raise ValueError("pp_vertices requires m >= 1 and n >= 0")
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


def _count_chunk(payload):
    rows_a, rows_b, lows, highs = payload
    return count_lattice_points(rows_a, rows_b, lows, highs)


def count_points(
    h: HRep,
    t: int,
    box: Optional[Sequence[Tuple[int, int]]] = None,
    parallel: int = 1,
) -> int:
    """Number of lattice points in the t-th dilate of the polytope.

    ``box`` bounds the *undilated* polytope coordinatewise; when omitted it
    is derived by exact vertex enumeration (affordable only for small
    systems — callers with known geometry should pass it).  ``parallel``
    splits the first coordinate range into that many contiguous chunks
    counted in separate processes; the result is their deterministic sum.
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
    if parallel <= 1 or h.dim == 0:
        return count_lattice_points(rows_a, rows_b, lows, highs)
    width = highs[0] - lows[0] + 1
    nchunks = min(parallel, max(width, 1))
    bounds = [lows[0] + (width * i) // nchunks for i in range(nchunks + 1)]
    payloads = []
    for c in range(nchunks):
        lo0, hi0 = bounds[c], bounds[c + 1] - 1
        if lo0 > hi0:
            continue
        payloads.append((rows_a, rows_b, [lo0] + lows[1:], [hi0] + highs[1:]))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
        return sum(pool.map(_count_chunk, payloads))


def bounding_box(h: HRep) -> Tuple[Tuple[int, int], ...]:
    """Integer coordinate box enclosing the polytope, via vertex enumeration."""
    v = hull_convert(h)
    if not v.points:
        raise ValueError("empty polytope has no bounding box")
    lows = [min(p[j] for p in v.points) for j in range(h.dim)]
    highs = [max(p[j] for p in v.points) for j in range(h.dim)]
    return tuple((floor(lo), ceil(hi)) for lo, hi in zip(lows, highs))


# ---------------------------------------------------------------------------
# Exact hull conversion by brute subset enumeration.


def _det_small(rows) -> Fraction:
    """Exact determinant; direct formulas up to 3x3, elimination above."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(rows[0][0])
    if k == 2:
        return Fraction(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return Fraction(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    if all(isinstance(x, int) for row in rows for x in row):
        return Fraction(int_det(rows))
    # Fraction Gaussian elimination for the rare non-integer case.
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, k):
            if mat[r][col] != 0:
                f = mat[r][col] * inv
                for cc in range(col, k):
                    mat[r][cc] -= f * mat[col][cc]
    return det


def _affine_rank(points) -> int:
    base = points[0]
    vecs = [[Fraction(c - b) for c, b in zip(p, base)] for p in points[1:]]
    rank = 0
    ncols = len(base)
    for col in range(ncols):
        piv = next((r for r in range(rank, len(vecs)) if vecs[r][col] != 0), None)
        if piv is None:
            continue
        vecs[rank], vecs[piv] = vecs[piv], vecs[rank]
        inv = 1 / vecs[rank][col]
        for r in range(len(vecs)):
            if r != rank and vecs[r][col] != 0:
                f = vecs[r][col] * inv
                for cc in range(col, ncols):
                    vecs[r][cc] -= f * vecs[rank][cc]
        rank += 1
    return rank


def _normal_through(points_subset):
    """Primitive normal of the hyperplane through m affinely independent points.

    Returns (nu, c) with <nu, p> = c on the subset, or None if the subset is
    affinely dependent.  nu is computed from signed maximal minors of the
    difference matrix, so it is exact; the caller fixes the orientation.
    """
    m = len(points_subset[0])
    base = points_subset[0]
    diffs = [[p[j] - base[j] for j in range(m)] for p in points_subset[1:]]
    nu = []
    sign = 1
    for j in range(m):
        minor = [row[:j] + row[j + 1 :] for row in diffs]
        d = _det_small(minor)
        nu.append(sign * d)
        sign = -sign
    if all(x == 0 for x in nu):
        return None
    # Clear denominators, then divide by the gcd (signs preserved).
    dens = [x.denominator for x in nu]
    lcm = 1
    for d in dens:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(x * lcm) for x in nu]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    c = sum(v * p for v, p in zip(ints, base))
    return ints, c


def hull_convert(rep, m: Optional[int] = None):
    """Exact hull conversion: VRep -> HRep (facets) or HRep -> VRep (vertices).

    Brute force over all m-element subsets of points (resp. rows), intended
    as an independent cross-check of structured constructions rather than a
    scalable hull code.  The V->H direction requires a full-dimensional
    input and raises ValueError on degenerate point sets.
    """
    if isinstance(rep, VRep):
        return _hull_v_to_h(rep, m if m is not None else rep.dim)
    if isinstance(rep, HRep):
        return _hull_h_to_v(rep, m if m is not None else rep.dim)
    raise TypeError("hull_convert expects a VRep or an HRep")


def _hull_v_to_h(v: VRep, m: int) -> HRep:
    pts = list(v.points)
    if len(pts) < m + 1:
        raise ValueError("point set is degenerate (too few points)")
    if _affine_rank(pts) < m:
        raise ValueError("point set is degenerate (affine rank below dimension)")
    facets = {}
    nfacets = 0
    point_masks = [0] * len(pts)  # per point: bitmask of facets through it
    for subset in combinations(range(len(pts)), m):
        acc = point_masks[subset[0]]
        for idx in subset[1:]:
            acc &= point_masks[idx]
            if not acc:
                break
        if acc:
            continue  # subset lies inside an already-found facet hyperplane
        res = _normal_through([pts[i] for i in subset])
        if res is None:
            continue
        nu, c = res
        below = above = False
        vals = []
        for p in pts:
            s = sum(a * x for a, x in zip(nu, p))
            vals.append(s)
            if s > c:
                above = True
            elif s < c:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if above:
            nu = [-x for x in nu]
            c = -c
            vals = [-s for s in vals]
        key = (tuple(nu), c)
        if key in facets:
            continue
        facets[key] = nfacets
        bit = 1 << nfacets
        for i, s in enumerate(vals):
            if s == c:
                point_masks[i] |= bit
        nfacets += 1
    rows = sorted(facets.keys())
    return HRep(tuple((tuple(a), c) for a, c in rows), m)


def _hull_h_to_v(h: HRep, m: int) -> VRep:
    rows = list(h.rows)
    found = set()
    for subset in combinations(range(len(rows)), m):
        a_mat = [list(rows[i][0]) for i in subset]
        b_vec = [rows[i][1] for i in subset]
        x = solve_linear(a_mat, b_vec)
        if x is None:
            continue
        if all(sum(c * xi for c, xi in zip(a, x)) <= b for a, b in rows):
            found.add(tuple(x))
    pts = []
    for p in sorted(found):
        pts.append(tuple(int(c) if c.denominator == 1 else c for c in p))
    return VRep(tuple(sorted(pts)), m)


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
