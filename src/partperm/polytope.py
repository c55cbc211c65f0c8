"""Partial permutohedra as explicit V- and H-representations, exactly.

The partial permutohedron P(m,n) is the convex hull of all vectors in
{0,...,n}^m whose nonzero entries are pairwise distinct.  Its vertices are
the vectors whose k nonzero entries are exactly the top values
{n, n-1, ..., n-k+1} placed injectively, 0 <= k <= min(m,n).

P(m,n) is the anti-blocking polytope of the score vector z_i = max(n-i+1, 0):
the x >= 0 whose k largest coordinates sum to at most g(k) = z_1 + ... + z_k,
for every k.  ``pp_profile`` returns (g(0), ..., g(m)), and every reader of
the description indexes it.  g(k) = kn - C(k,2) for k <= n, and C(n+1,2)
beyond.  The facet inequalities are x_i >= 0 together with, for every
nonempty S in [m] with |S| <= n-1 or |S| = m,

    sum_{i in S} x_i  <=  g(|S|),

the sizes where z_{|S|+1} > 0, or S = [m].

``placements`` lists and ``placement_count`` counts the vertices of P(m,n),
of its faces and of anti-blocking polytopes.  Also here: exact
lattice-point counting of dilates, by a symmetric dynamic programme over
sorted values for P(m,n) itself and by a cached box search for any system;
exact hull conversion in both directions by integer double description,
halfspace cuts for strip-decomposition arguments, and the anti-blocking
polytope of a weakly decreasing score vector with its vertex-edge graph.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import comb, floor, ceil, gcd
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ._counting_py import count_dilate, count_lattice_points, prepare
from .exactmath import _as_int, _integral, check_bound, row_reduce

# The one counting kernel; kept as a name because benchmark records and the
# ``verify`` summary report it.
KERNEL_NAME = "pure"


class HRep(NamedTuple):
    """Halfspace system a . x <= b: rows of (coefficients, rhs), plus dimension."""

    rows: Tuple[Tuple[Tuple[int, ...], int], ...]
    dim: int

    def dilate(self, t: int) -> "HRep":
        return HRep(tuple((a, b * t) for a, b in self.rows), self.dim)

    def with_rows(self, extra) -> "HRep":
        return HRep(self.rows + tuple(extra), self.dim)


class VRep(NamedTuple):
    """Vertex list of a polytope (exact coordinates), plus ambient dimension."""

    points: Tuple[Tuple, ...]
    dim: int


# pp_vertices lists at most this many vertices (about 2 s); P(8,8) has
# 109,601 and P(9,9) 986,410.
VERTEX_LIST_MAX = 2**19


def placements(blocks, m: int) -> List[Tuple[int, ...]]:
    """The points of length m that each block (positions, values, lengths)
    fills with values[:k] placed injectively into its positions, for one k
    in lengths, with zeros in every other coordinate.  Positions count from
    1, and the blocks' positions are disjoint.

    Every vertex set the package lists is such a placement: P(m,n) is one
    block, n, n-1, ... placed into the m coordinates (``pp_vertices``); a
    face of it is one block per member of its chain (``faces``); an
    anti-blocking polytope is one block of prefixes of its scores.  Points
    come in no particular order, once per placement.
    """
    points = [(0,) * m]
    for positions, values, lengths in blocks:
        grown = []
        for k in lengths:
            for pos in permutations(positions, k):
                for base in points:
                    w = list(base)
                    for p, val in zip(pos, values):  # values[:k], as pos has k
                        w[p - 1] = val
                    grown.append(tuple(w))
        points = grown
    return points


def placement_count(blocks, bound: Optional[int] = None) -> int:
    """The number of points ``placements`` lists for blocks of these
    (width, lengths), a width being a block's number of positions: the
    product over the blocks of sum_{k in lengths} P(width, k), each
    P(width, k) = width!/(width-k)! from the last by one product.  The
    lengths of a block increase and do not pass its width.

    Given ``bound``, the count stops once it passes it: it is exact when at
    most ``bound``, else a partial count above it, formed in a few products
    at any size.  A bound on a vertex count is tested on this.
    """
    count = 1
    for width, lengths in blocks:
        total, term, k = 0, 1, 0
        for length in lengths:
            while k < length:
                term *= width - k
                k += 1
            total += term
            if bound is not None and count * total > bound:
                break
        count *= total
        if bound is not None and count > bound:
            break
    return count


def pp_vertex_count(m: int, n: int) -> int:
    """Number of vertices of P(m,n): sum_{k <= min(m,n)} m!/(m-k)!."""
    return placement_count([(m, range(min(m, n) + 1))])


@lru_cache(maxsize=8)
def pp_vertices(m: int, n: int) -> VRep:
    """All vertices of P(m,n), lexicographically sorted.

    One block of ``placements``: for each k = 0..min(m,n), the values n,
    n-1, ..., n-k+1 placed injectively into k of the m positions; the total
    count is ``pp_vertex_count``.  P(m,0) is the single point at the origin.
    The VRep is frozen, so the few most recent ones are memoised and shared
    between callers.  Shapes with more than ``VERTEX_LIST_MAX`` vertices are
    refused up front, on a count that stops once it passes the bound.
    """
    if m < 1 or n < 0:
        raise ValueError("pp_vertices requires m >= 1 and n >= 0")
    lengths = range(min(m, n) + 1)
    check_bound(f"P({m},{n})", "vertices counted", placement_count([(m, lengths)], VERTEX_LIST_MAX),
                "VERTEX_LIST_MAX", VERTEX_LIST_MAX)
    pts = placements([(range(1, m + 1), range(n, 0, -1), lengths)], m)
    return VRep(tuple(sorted(pts)), m)


def pp_profile(m: int, n: int) -> Tuple[int, ...]:
    """(g(0), ..., g(m)): the prefix sums g(k) = z_1 + ... + z_k of the
    score vector z_i = max(n-i+1, 0) of P(m,n).

    g(k) = C(n+1,2) - C(n+1-k,2), with C(a,2) = 0 for a <= 1: kn - C(k,2)
    for k <= n, and C(n+1,2) from k = n on.  It is the facet right-hand
    side of every k-subset row, and t*g(k) bounds the sum of the k largest
    coordinates of a point of t*P(m,n).
    """
    if m < 0 or n < 0:
        raise ValueError("pp_profile requires m >= 0 and n >= 0")
    # z is n, n-1, ..., 1 and then zeros, so g stays at C(n+1,2) from k = n
    g = list(accumulate(range(n, max(n - m, 0), -1), initial=0))
    return tuple(g + g[-1:] * (m + 1 - len(g)))


# pp_facets lists at most this many rows (about 1.2 s); P(19,19) has
# 524,306 and P(20,20) 1,048,595.
FACET_LIST_MAX = 2**20


def _facet_rows_counted(m: int, n: int, bound: Optional[int]) -> int:
    """m + sum of C(m,k) over 1 <= k <= m with k <= n-1 or k = m, each
    C(m,k) from the last by one product.  Given ``bound``, the count stops
    once it passes it, as ``placement_count`` does."""
    count, term = m, 1
    for k in range(1, min(n, m + 1)):  # 1 <= k <= min(n-1, m)
        term = term * (m - k + 1) // k
        count += term
        if bound is not None and count > bound:
            return count
    if m >= n:  # the row of S = [m], not reached above
        count += 1
    return count


def pp_facet_count(m: int, n: int) -> int:
    """Number of rows of pp_facets(m, n): m + sum of C(m,k) over 1 <= k <= m
    with k <= n-1 or k = m."""
    return _facet_rows_counted(m, n, None)


def pp_facets(m: int, n: int) -> HRep:
    """The irredundant facet system of P(m,n).

    Nonnegativity rows -x_i <= 0 first, then the subset rows
    sum_S x_i <= g(|S|) (``pp_profile``), ordered by (|S|, S), for the
    sizes k = m and those with g(k+1) > g(k), that is |S| <= n-1.  For
    n = 0 only the row over [m] is kept, and the system pins the single
    point at the origin.  Shapes with more than ``FACET_LIST_MAX`` rows
    (``pp_facet_count``) are refused up front, on a count that stops once
    it passes the bound.
    """
    if m < 1 or n < 0:
        raise ValueError("pp_facets requires m >= 1 and n >= 0")
    check_bound(f"P({m},{n})", "facet rows counted", _facet_rows_counted(m, n, FACET_LIST_MAX),
                "FACET_LIST_MAX", FACET_LIST_MAX)
    g = pp_profile(m, n)
    rows = []
    for i in range(m):
        a = [0] * m
        a[i] = -1
        rows.append((tuple(a), 0))
    for k in range(1, m + 1):
        if k < m and g[k + 1] == g[k]:
            continue
        for S in combinations(range(m), k):
            a = [0] * m
            for i in S:
                a[i] = 1
            rows.append((tuple(a), g[k]))
    return HRep(tuple(rows), m)


def pp_box(m: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """Coordinate bounding box of P(m,n): [0, n] in every coordinate."""
    return tuple((0, n) for _ in range(m))


def _require_dilation(t, what: str) -> None:
    """Refuse, with a ValueError naming t, a dilation factor that is not a
    nonnegative int: the counters scale the box and rows by t exactly."""
    if not isinstance(t, int) or t < 0:
        raise ValueError(f"{what} requires a nonnegative int dilation factor t, got t = {t!r}")


# count_points keeps what the counter prepares (``_counting_py.prepare``)
# for this many systems at most, dropping the one it prepared first.
_PREPARED_MAX = 16
_prepared: dict = {}


def count_points(
    h: HRep,
    t: int,
    box: Optional[Sequence[Tuple[int, int]]] = None,
    interior: bool = False,
) -> int:
    """Number of lattice points in the t-th dilate of the polytope, or in
    its interior when ``interior`` is true.

    The generic route: a depth-first search of the dilated box that bounds
    each coordinate by the slack of every row and caches each subcount on
    the clipped slacks of the rows grouped by coefficient suffix, so its
    cost follows the number of distinct states rather than of points
    (6*P(5,6), 55 million points, takes about 0.01 s).  ``box`` bounds the
    *undilated* polytope coordinatewise; when omitted it is derived by exact
    vertex enumeration (``bounding_box``), which is affordable only for
    small systems, so callers with known geometry should pass it.  Without
    a box, an empty or unbounded system is refused with ValueError rather
    than counted inside the box of its vertices, at t = 0 too.  A caller
    who passes a box vouches for a nonempty polytope: t = 0 then counts
    the one point 0 unchecked.  t must be a nonnegative int; anything else
    raises ValueError.

    What the counter reads of a system over an integer box does not depend
    on t, so it is prepared once per (rows, box, interior) and kept for the
    last ``_PREPARED_MAX`` systems; the dilates of one system, as
    ``interpolate_counts`` asks for them, share it.  A box with a rational
    bound is rounded inward at each t and prepared for that t alone.

    On P(m,n) itself the crossover with ``pp_count`` is at m = 4, where
    the two are within 30% of each other.  From m = 5 ``pp_count`` is the
    faster: 2.2x at 6*P(5,6), 5.3x at 4*P(5,4) and 23x at 2*P(7,5).  At
    m <= 3 this counter is, and by far at large t: 0.24 ms against 1.21 ms
    at 9*P(3,6), 0.47 against 1.37 at 20*P(3,3), and 0.05 against 4.3 at
    30*P(2,6) (medians of 31 single-use counts, 2-core VM, Python 3.11.7).

    The interior count reads every row strictly: an integer point has
    a . x < t*b exactly when a . x <= ceil(t*b) - 1, since the rows are
    integral.  That is the interior of a full-dimensional polytope, whose
    every valid row is strict inside it; the dilate t = 0 has no interior.
    """
    _require_dilation(t, "count_points")
    if box is None:
        box = bounding_box(h)
    if t == 0:
        return 0 if interior else 1
    if len(box) != h.dim:
        raise ValueError("box dimension mismatch")
    rows_a = [a for a, _ in h.rows]
    if all(type(v) is int for bounds in box for v in bounds):
        key = (h.rows, tuple(map(tuple, box)), interior)
        prepared = _prepared.get(key)
        if prepared is None:
            prepared = prepare(rows_a, [b for _, b in h.rows], [lo for lo, _ in box],
                               [hi for _, hi in box], interior)
            if len(_prepared) >= _PREPARED_MAX:
                del _prepared[next(iter(_prepared))]
            _prepared[key] = prepared
        return count_dilate(prepared, t)
    # Rational bounds round inward at this t: lows up, highs down.
    return count_dilate(prepare(rows_a, [b * t for _, b in h.rows],
                                [ceil(lo * t) for lo, _ in box],
                                [floor(hi * t) for _, hi in box], interior), 1)


# pp_count tries at most m-k copy counts at each state (value, k positions
# filled, prefix sum); it refuses shapes whose sum of these exceeds this
# many steps (at most about 2 s).
PP_COUNT_WORK_MAX = 2**23


def pp_count(m: int, n: int, t: int, interior: bool = False) -> int:
    """Number of lattice points in t*P(m,n), or in its interior when
    ``interior`` is true, counted by sorted values.

    Reads the anti-blocking description of P(m,n), not the facet list: an
    integer x >= 0 lies in t*P(m,n) exactly when, for every k, the sum of
    its k largest coordinates is at most t*g(k), where g(k) = z_1 + ... + z_k
    is a prefix sum of the score vector z_i = max(n-i+1, 0) (``pp_profile``).

    A dynamic programme places the values t*n, ..., 1 from the largest
    down, c copies at a time, in C(free, c) ways.  Its state is (positions
    filled, prefix sum), and each prefix sum is tested against t*g(k).
    Zeros fill the positions that remain, so the count is the sum over all
    states.  Shapes above ``PP_COUNT_WORK_MAX`` steps are refused up front.

    The interior (n >= 1) asks every coordinate to be at least 1 and each
    prefix sum at most t*g(k) - 1 for k >= 1: the facet rows strictly, and
    the prefix rows that are not facets follow from those.  The same
    programme places the values t*n - 1, ..., 1, and only the states with
    all m positions filled count, so no zeros are placed.
    """
    if m < 1 or n < 0:
        raise ValueError("pp_count requires m >= 1 and n >= 0")
    _require_dilation(t, "pp_count")
    bound = [t * x for x in pp_profile(m, n)]
    check_bound(f"pp_count({m}, {n}, {t})", "steps",
                t * n * sum((b + 1) * (m - k) for k, b in enumerate(bound[:m])),
                "PP_COUNT_WORK_MAX", PP_COUNT_WORK_MAX)
    top = t * n
    if interior:
        bound[1:] = [b - 1 for b in bound[1:]]
        top -= 1
    ways_to_place = [[comb(free, c) for c in range(free + 1)] for free in range(m + 1)]
    # layers[k][s]: weighted placements that fill k positions with sum s
    layers = [[0] * (b + 1) for b in bound]
    layers[0][0] = 1
    for v in range(top, 0, -1):
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
    if interior:
        return sum(layers[m])
    return sum(map(sum, layers))


def vertex_box(points: Sequence[Sequence]) -> Tuple[Tuple[int, int], ...]:
    """Integer coordinate box enclosing a nonempty point set."""
    return tuple((floor(min(xs)), ceil(max(xs))) for xs in zip(*points))


def bounding_box(h: HRep) -> Tuple[Tuple[int, int], ...]:
    """Integer coordinate box enclosing the polytope, via vertex enumeration.

    Reads the extreme rays (w, x) of the homogenised cone that
    ``hull_convert`` converts, in one conversion.  Raises ValueError when
    the system has no vertex (it is empty), when the cone also has a ray
    with w = 0 (a direction in which the polytope is unbounded), and when
    the rows have rank below the dimension (the cone contains a line, so
    the system is empty or unbounded).
    """
    rays = _cone_rays(h)
    if rays is None:
        raise ValueError("polytope has no bounding box: its rows have rank below "
                         f"the dimension {h.dim}, so it is empty or unbounded")
    points = _vertices(rays)
    if not points:
        raise ValueError("empty polytope has no bounding box")
    if any(w == 0 for w, *_ in rays):
        raise ValueError("unbounded polytope has no bounding box: it has a direction of recession")
    return vertex_box(points)


# ---------------------------------------------------------------------------
# Exact hull conversion by integer double description.


def _primitive(v) -> Tuple[int, ...]:
    g = gcd(*v)
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def _adjacent(common: int, zeros: List[int]) -> bool:
    """Combinatorial test: only the two rays themselves vanish on ``common``."""
    seen = 0
    for z in zeros:
        if z & common == common:
            seen += 1
            if seen > 2:
                return False
    return True


class _HeldMemo(dict):
    """A dict that counts what its entries hold, in ``held``."""

    held = 0

    def clear(self) -> None:
        super().clear()
        self.held = 0


# _extreme_rays keeps the generators and final rays of recent conversions,
# at most this many vectors in all: the 36 conversions of a generic-hull
# round of the benchmark hold 859.  A larger conversion is not kept, and the
# conversion kept first is dropped first.
_RAY_MEMO_MAX = 2**12
_ray_memo = _HeldMemo()


def _start_cone(gens):
    """(rays, zero sets, basis) of the simplicial cone on the first d
    independent generators, or None when the generators have rank below d.

    All are read from one ``row_reduce`` of [G^T | I_d], G having the N
    generators as rows.  The pivots in the first N columns pick the basis
    R: the first d generators that are independent.  Row k then ends in D
    times column k of R^-1 (D the common pivot value), the ray that lies on
    every row of R but the k-th.  As [G^T | I_d] has rank d, fewer than d
    pivots among the generators put one in the identity block: the cone
    contains a line.
    """
    n, d = len(gens), len(gens[0])
    unit = (0,) * d
    reduced, basis, _ = row_reduce(
        [col + unit[:k] + (1,) + unit[k + 1:] for k, col in enumerate(zip(*gens))])
    if basis[-1] >= n:
        return None
    sign = 1 if reduced[0][basis[0]] > 0 else -1
    rays = [_primitive([sign * x for x in row[n:]]) for row in reduced]
    everything = sum(1 << i for i in basis)
    return rays, [everything & ~(1 << i) for i in basis], basis


def _add_generator(rays, zeros, g, bit: int, d: int):
    """The rays and zero sets of the cone cut by g . y >= 0, whose zero-set
    bit is ``bit``: rays on the violated side are dropped, and every
    adjacent pair across the hyperplane gives one new ray."""
    # Rays with g . y >= 0 stay, in order; those on g = 0 gain its bit.
    new_rays, new_zeros, pos, neg = [], [], [], []
    for r, z in zip(rays, zeros):
        s = sum(map(mul, g, r))
        if s < 0:
            neg.append((s, r, z))
            continue
        if s > 0:
            pos.append((s, r, z))
        else:
            z |= bit
        new_rays.append(r)
        new_zeros.append(z)
    for sp, rp, zp in pos:
        for sq, rq, zq in neg:
            common = zp & zq
            if common.bit_count() >= d - 2 and _adjacent(common, zeros):
                new_rays.append(_primitive([sp * y - sq * x for x, y in zip(rp, rq)]))
                new_zeros.append(common | bit)
    return new_rays, new_zeros


def _extreme_rays(gens) -> Optional[List[Tuple[int, ...]]]:
    """Primitive extreme rays of the cone {y : g . y >= 0 for every g in gens}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) in
    integer arithmetic; rational generators are first scaled to integer
    rows (``_integral``).  It starts from the simplicial cone on d
    independent generators (``_start_cone``); when the generators have
    rank below d the cone contains a line, and None is returned.  The other
    generators are then added one at a time (``_add_generator``).  Each ray
    keeps its zero set (the generators it lies on) as a bitmask, and two
    rays are adjacent when no third ray vanishes on all the generators
    they share.

    The conversion is incremental, so it resumes.  The final rays and zero
    sets of recent conversions are kept on their integer generators, within
    ``_RAY_MEMO_MAX``.  Generators that extend a kept list by trailing
    generators start from its rays and add only the new ones: the list's
    basis is the first d independent generators of the extension too, so
    the steps, and the rays in their order, are those of a full
    conversion.  ``cut`` and the boxless counts on its sides convert the
    system once and then add one or two generators.
    """
    if not all(type(x) is int for g in gens for x in g):
        gens = [_integral(g) for g in gens]
    gens = tuple(map(tuple, gens))
    held = _ray_memo.get(gens)
    if held is not None:
        return list(held[0])
    n, d = len(gens), len(gens[0])
    for k in sorted({len(key) for key in _ray_memo if len(key) < n}, reverse=True):
        held = _ray_memo.get(gens[:k])
        if held is not None:
            rays, zeros = held
            begin, basis = k, ()
            break
    else:
        start = _start_cone(gens)
        if start is None:
            return None
        rays, zeros, basis = start
        begin = 0
    skip = set(basis)
    for i in range(begin, n):
        if i not in skip:
            rays, zeros = _add_generator(rays, zeros, gens[i], 1 << i, d)
    size = n + len(rays)
    if size <= _RAY_MEMO_MAX:
        while _ray_memo.held + size > _RAY_MEMO_MAX:
            old = next(iter(_ray_memo))
            _ray_memo.held -= len(old) + len(_ray_memo.pop(old)[0])
        _ray_memo[gens] = (tuple(rays), tuple(zeros))
        _ray_memo.held += size
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
    gives the empty VRep.  H->V resumes from a kept conversion of a system
    whose rows the given ones extend (``_extreme_rays``).
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


def _cone_rays(h: HRep) -> Optional[List[Tuple[int, ...]]]:
    """Extreme rays (w, x) of {(w, x) : a . x <= b w, w >= 0}; None when
    the cone contains a line, that is when the rows have rank below dim."""
    gens = [(1,) + (0,) * h.dim] + [(b,) + tuple(-x for x in a) for a, b in h.rows]
    return _extreme_rays(gens)


def _vertices(rays) -> List[tuple]:
    """The vertices x / w of the cone rays with w > 0."""
    return [tuple(_exact(x, w) for x in xs) for w, *xs in rays if w > 0]


def _hull_h_to_v(h: HRep) -> VRep:
    return VRep(tuple(sorted(_vertices(_cone_rays(h) or []))), h.dim)


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
    near side equals P).  Emptiness is decided exactly from the extreme
    rays (w, x) of one conversion (``_cone_rays``), so this is intended for
    small systems: the far side is nonempty when a direction of recession
    (a ray with w = 0) has a . x > 0, and otherwise when a . x reaches b at
    a vertex.  An empty system, and one whose rows have rank below the
    dimension, raise ValueError.  The conversion is kept, so a boxless
    ``count_points`` on a side resumes it with the side's one or two rows.
    """
    a = tuple(_as_int(x, "cut normal entry") for x in a)
    if len(a) != h.dim:
        raise ValueError("cut normal dimension mismatch")
    neg = tuple(-x for x in a)
    pprime = h.with_rows([(a, b)])
    q = h.with_rows([(neg, -b)])
    f = h.with_rows([(a, b), (neg, -b)])
    rays = _cone_rays(h)
    if rays is None:
        raise ValueError(f"cut of a system whose rows have rank below the dimension "
                         f"{h.dim}: it is empty or holds a line")
    points = _vertices(rays)
    if not points:
        raise ValueError("cut of an empty polytope")
    if any(w == 0 and sum(c * x for c, x in zip(a, xs)) > 0 for w, *xs in rays):
        return CutResult(pprime, q, f, False)
    top = max(sum(c * x for c, x in zip(a, p)) for p in points)
    return CutResult(pprime, q, f, top < b)


# ---------------------------------------------------------------------------
# Anti-blocking polytopes of weakly decreasing score vectors.


def _antiblocking_points(z: Sequence[int]) -> List[Tuple[int, ...]]:
    """The sorted vertices of the anti-blocking polytope of the weakly
    decreasing, nonnegative scores z: the injective placements of the
    prefixes z_1..z_k (k = 0..m) into the m coordinates, with duplicates
    removed (placing a zero value changes nothing)."""
    m = len(z)
    if m < 1:
        raise ValueError("empty score vector")
    z = [_as_int(x, "score") for x in z]
    if any(x < 0 for x in z):
        raise ValueError("scores must be nonnegative")
    if any(z[i] < z[i + 1] for i in range(m - 1)):
        raise ValueError("scores must be weakly decreasing")
    # equal scores, or a zero, place equal points
    return sorted(set(placements([(range(1, m + 1), z, range(m + 1))], m)))


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
    vlist = _antiblocking_points(z)
    m = len(z)
    z = [int(x) for x in z]
    bigk = sum(1 for x in z if x > 0)
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

    Compares vertex sets exactly, by two independent routes: the score
    vector z, the differences of ``pp_profile``, placed as the vertices of
    ``antiblocking_vertices_edges`` are, and the vertices that hull
    conversion finds for the facet system ``pp_facets``.
    """
    g = pp_profile(m, n)
    av = _antiblocking_points([b - a for a, b in zip(g, g[1:])])
    return set(av) == set(hull_convert(pp_facets(m, n)).points)
