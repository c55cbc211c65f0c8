"""Tests for polytope representations, hull conversion, counting, and cuts.

Oracle strategy: vertex and facet counts are checked against the closed
counting formulas; hull conversions are validated by round trips on both
P(m,n) representations; the cut decomposition is checked by the additive
lattice-count identity |P'| = |P| - |Q| + |F| on hand-computed instances;
anti-blocking graphs are pinned to small frozen neighborhoods.
"""

import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partperm import (
    FACET_LIST_MAX,
    ORACLE_MAX_M,
    ORACLE_MAX_N,
    PP_COUNT_WORK_MAX,
    VERTEX_LIST_MAX,
    HRep,
    VRep,
    antiblocking_vertices_edges,
    bounding_box,
    count_points,
    cut,
    ehr_recurrence,
    hull_convert,
    int_det,
    oracle_domain,
    pp_box,
    pp_count,
    pp_facet_count,
    pp_facets,
    pp_profile,
    pp_vertex_count,
    pp_vertices,
    solve_linear,
    verify_antiblocking_identity,
)
from partperm import polytope as PT
from partperm.polytope import _extreme_rays, vertex_box


def contains_point(h, x):
    """Exact membership of a (rational) point in the halfspace system."""
    return all(sum(c * xi for c, xi in zip(a, x)) <= b for a, b in h.rows)


# --------------------------------------------------------------------------
# Vertices


def _vertex_count_formula(m, n):
    return sum(
        math.factorial(m) // math.factorial(m - k) for k in range(min(m, n) + 1)
    )


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(0, 6))
def test_pp_vertices_count_formula(m, n):
    v = pp_vertices(m, n)
    assert len(v.points) == _vertex_count_formula(m, n) == pp_vertex_count(m, n)
    assert len(set(v.points)) == len(v.points)
    assert v.dim == m


def test_pp_vertices_refuses_above_the_listing_bound():
    # P(8,8) is listed (109,601 vertices); P(9,9) (986,410) is refused up front
    assert pp_vertex_count(8, 8) <= VERTEX_LIST_MAX < pp_vertex_count(9, 9)
    with pytest.raises(ValueError, match="VERTEX_LIST_MAX"):
        pp_vertices(9, 9)


def test_vertex_bound_is_tested_without_the_full_count(capsys):
    # the count of P(2000,2000) has about 5,700 digits and that of
    # P(10^9,4) takes m! to form; the bound stops counting once passed
    from partperm.cli import main
    from partperm.faces import orientation_domain

    with pytest.raises(ValueError, match="VERTEX_LIST_MAX") as refusal:
        pp_vertices(2000, 2000)
    assert len(str(refusal.value)) < 200
    assert main(["vertices", "--m", "2000", "--n", "2000"]) == 1
    err = capsys.readouterr().err
    assert "VERTEX_LIST_MAX" in err and len(err) < 200
    assert not orientation_domain(10**9, 4) and not orientation_domain(2000, 2000)
    assert orientation_domain(8, 8) and not orientation_domain(9, 9)


def test_pp_vertices_keeps_no_listing():
    # each listing is the caller's alone: a cache of the last 8 listings
    # would hold 4,174 KiB after these three, and 93 MB after P(8,8..15)
    gc.collect()
    tracemalloc.start()
    try:
        for n in (7, 8, 9):
            pp_vertices(7, n)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20


def test_pp_vertices_pentagon():
    v = pp_vertices(2, 2)
    assert v.points == ((0, 0), (0, 2), (1, 2), (2, 0), (2, 1))


def test_pp_vertices_distinct_nonzero_entries():
    for m, n in [(3, 2), (3, 3), (4, 2)]:
        for p in pp_vertices(m, n).points:
            nz = [x for x in p if x]
            assert len(nz) == len(set(nz))
            assert all(0 <= x <= n for x in p)
            # vertex values are the top k values n, n-1, ..., n-k+1
            assert sorted(nz) == list(range(n - len(nz) + 1, n + 1))


def test_pp_vertices_n0_origin():
    assert pp_vertices(3, 0).points == ((0, 0, 0),)


# --------------------------------------------------------------------------
# Facets


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_pp_facets_row_census(m, n):
    h = pp_facets(m, n)
    # m nonnegativity rows plus one row per admissible subset
    subset_rows = sum(
        math.comb(m, k) for k in range(1, m + 1) if k <= n - 1 or k == m
    )
    assert len(h.rows) == m + subset_rows == pp_facet_count(m, n)
    assert h.dim == m


def test_pp_facets_refuses_above_its_listing_bound():
    assert pp_facet_count(20, 19) == 2**20 - 1 <= FACET_LIST_MAX
    assert pp_facet_count(20, 20) > FACET_LIST_MAX
    start = time.perf_counter()
    with pytest.raises(ValueError, match="FACET_LIST_MAX"):
        pp_facets(30, 30)
    assert time.perf_counter() - start < 1


def test_pp_facets_pentagon_rows():
    h = pp_facets(2, 2)
    assert len(h.rows) == 5
    assert ((-1, 0), 0) in h.rows and ((0, -1), 0) in h.rows
    assert ((1, 0), 2) in h.rows and ((0, 1), 2) in h.rows
    assert ((1, 1), 3) in h.rows


def test_pp_facets_32_has_seven_rows():
    assert len(pp_facets(3, 2).rows) == 7


def test_pp_facets_rhs_values():
    # the rhs for a k-subset is C(n+1,2) - C(n+1-k,2) = kn - C(k,2) for k <= n
    m, n = 4, 3
    h = pp_facets(m, n)
    for a, b in h.rows:
        k = sum(x for x in a if x > 0)
        if k == 0:
            assert b == 0
        elif k <= n:
            assert b == k * n - math.comb(k, 2)
        else:
            assert b == math.comb(n + 1, 2)


def test_every_vertex_satisfies_every_facet():
    for m, n in [(2, 2), (3, 2), (3, 4), (4, 3)]:
        h = pp_facets(m, n)
        for p in pp_vertices(m, n).points:
            assert contains_point(h, p)


def test_simplicity_vertex_on_exactly_m_facets():
    # P(m,n) is a simple polytope: every vertex lies on exactly m facet rows
    for m in range(1, 5):
        for n in range(1, 5):
            h = pp_facets(m, n)
            for p in pp_vertices(m, n).points:
                tight = sum(
                    1
                    for a, b in h.rows
                    if sum(c * x for c, x in zip(a, p)) == b
                )
                assert tight == m, (m, n, p)


# --------------------------------------------------------------------------
# Point counting on the polytope level


def test_count_points_pentagon_dilates():
    h = pp_facets(2, 2)
    assert [count_points(h, t) for t in range(4)] == [1, 8, 22, 43]


def test_count_points_floors_rational_rhs():
    # x >= 3/2 and x <= 3: the points 2 and 3.
    h = HRep((((-1,), Fraction(-3, 2)), ((1,), 3)), 1)
    assert count_points(h, 1, box=((0, 3),)) == 2


def test_count_points_t0_is_one():
    assert count_points(pp_facets(3, 3), 0) == 1


def test_count_points_t0_refuses_an_empty_system_without_a_box():
    # x1 <= -1, x1 >= 0, |x2| <= 1: 0 times the empty set holds no point
    empty = HRep((((1, 0), -1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)), 2)
    for interior in (False, True):
        with pytest.raises(ValueError, match="empty polytope"):
            count_points(empty, 0, interior=interior)
    # a caller who passes a box vouches for a nonempty polytope
    assert count_points(empty, 0, box=((0, 0), (0, 0))) == 1


def test_count_points_matches_direct_scan():
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        h = pp_facets(m, n)
        for t in (1, 2):
            ht = h.dilate(t)
            brute = 0
            for x in product(range(0, n * t + 1), repeat=m):
                if contains_point(ht, x):
                    brute += 1
            assert count_points(h, t) == brute


def test_count_points_known_values():
    assert count_points(pp_facets(2, 3), 1) == 15
    assert count_points(pp_facets(3, 3), 1) == 51
    assert count_points(pp_facets(4, 4), 1) == 455


@pytest.mark.parametrize("t", [1.5, 2.0, Fraction(3, 2), Fraction(2), -1, "2", None])
def test_count_points_and_pp_count_refuse_a_t_that_is_not_a_nonnegative_int(t):
    # a float t was counted from float products, and pp_count raised a
    # TypeError on it
    with pytest.raises(ValueError, match=r"count_points requires .* t = "):
        count_points(pp_facets(2, 2), t, box=((0, 2), (0, 2)))
    with pytest.raises(ValueError, match=r"count_points requires .* t = "):
        count_points(pp_facets(2, 2), t)
    with pytest.raises(ValueError, match=r"pp_count requires .* t = "):
        pp_count(2, 2, t)


def _dilate_scan(h, t, box, interior):
    """Points of t times the box, rounded inward, on every row of h, strictly
    when ``interior``."""
    ranges = [range(math.ceil(lo * t), math.floor(hi * t) + 1) for lo, hi in box]
    return sum(1 for x in product(*ranges)
               if all(sum(c * xi for c, xi in zip(a, x)) < b * t if interior
                      else sum(c * xi for c, xi in zip(a, x)) <= b * t for a, b in h.rows))


def _prepared_cases():
    """Systems with integer and rational right-hand sides, over integer and
    rational boxes: P(3,3), the pentagon with a cut at a rational offset,
    and a triangle with rows that never bind and a suffix that starts at 0."""
    pentagon = pp_facets(2, 2).with_rows([((1, 2), Fraction(7, 2)), ((-1, 1), Fraction(3, 2))])
    triangle = HRep((((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 3),
                     ((0, 1, 1), 9), ((0, 0, 1), Fraction(5, 2)), ((1, 1, 1), 4)), 3)
    return [(pp_facets(3, 3), pp_box(3, 3)), (pentagon, ((0, 2), (0, 2))),
            (pentagon, ((Fraction(1, 3), Fraction(5, 2)), (0, Fraction(7, 3)))),
            (triangle, ((0, 3), (0, 3), (0, 3))),
            (triangle, ((Fraction(-1, 2), 3), (0, Fraction(10, 3)), (0, 3)))]


@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("interior", [False, True])
def test_count_points_at_dilates_in_any_order_equals_a_fresh_count(case, interior):
    # one preparation serves every dilate of an integer box, whatever the
    # order; a rational box is prepared at each t
    h, box = _prepared_cases()[case]
    ts = list(range(7))
    random.Random(f"{case}-{interior}").shuffle(ts)
    PT._prepared.clear()
    warm = [count_points(h, t, box=box, interior=interior) for t in ts]
    fresh = []
    for t in ts:
        PT._prepared.clear()
        fresh.append(count_points(h, t, box=box, interior=interior))
    assert warm == fresh
    assert warm == [_dilate_scan(h, t, box, interior) if t else int(not interior) for t in ts]
    integral = all(type(v) is int for bounds in box for v in bounds)
    assert len(PT._prepared) == int(integral)


def test_prepared_memo_holds_at_most_its_bound():
    PT._prepared.clear()
    boxes = [((0, k), (0, k)) for k in range(1, PT._PREPARED_MAX + 5)]
    h = pp_facets(2, 2)
    for box in boxes:
        count_points(h, 2, box=box)
        assert len(PT._prepared) <= PT._PREPARED_MAX
    # the systems prepared first are dropped first
    held = [key[1] for key in PT._prepared]
    assert held == boxes[-PT._PREPARED_MAX:]


# --------------------------------------------------------------------------
# The symmetric counter pp_count


@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("n", range(0, 4))
def test_pp_count_matches_box_brute_force(m, n):
    h = pp_facets(m, n)
    for t in range(0, 4):
        ht = h.dilate(t)
        brute = sum(1 for x in product(range(n * t + 1), repeat=m)
                    if contains_point(ht, x))
        assert pp_count(m, n, t) == brute, (m, n, t)


@pytest.mark.parametrize("m", range(1, ORACLE_MAX_M + 1))
@pytest.mark.parametrize("n", range(0, ORACLE_MAX_N + 1))
def test_pp_count_matches_generic_counter_on_oracle_domain(m, n):
    # closed counts at t = 1..m+1 and interior counts at t = 1..m//2+1:
    # every count the oracle interpolates from or verifies with, and more
    assert oracle_domain(m, n)
    h, box = pp_facets(m, n), pp_box(m, n)
    for t in range(1, m + 2):
        assert pp_count(m, n, t) == count_points(h, t, box=box), t
    for t in range(1, m // 2 + 2):
        assert pp_count(m, n, t, True) == count_points(h, t, box=box, interior=True), t


def _interior_brute(m, n, t):
    """Points with every coordinate >= 1 and each sorted prefix sum at most
    t*g(k) - 1, by a scan of the box [1, t*n]^m."""
    g = [0]
    for i in range(m):
        g.append(g[-1] + max(n - i, 0))
    total = 0
    for x in product(range(1, t * n + 1), repeat=m):
        acc, ok = 0, True
        for k, v in enumerate(sorted(x, reverse=True), 1):
            acc += v
            if acc > t * g[k] - 1:
                ok = False
                break
        total += ok
    return total


@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_pp_count_interior_matches_box_brute_force(m, n, t):
    assert pp_count(m, n, t, interior=True) == _interior_brute(m, n, t)


def _strict_scan(h, t, box):
    """Points of the dilated box that satisfy every row of h strictly."""
    ranges = [range(lo * t, hi * t + 1) for lo, hi in box]
    return sum(1 for x in product(*ranges)
               if all(sum(c * xi for c, xi in zip(a, x)) < b * t for a, b in h.rows))


@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("n", range(0, 4))
def test_count_points_interior_matches_strict_filter_on_pp(m, n):
    h, box = pp_facets(m, n), pp_box(m, n)
    for t in range(0, 4):
        assert count_points(h, t, box=box, interior=True) == _strict_scan(h, t, box), t


@pytest.mark.parametrize("which,m", [("aux1", 3), ("aux1", 4), ("aux2", 3), ("aux2", 4)])
def test_count_points_interior_matches_strict_filter_on_aux_hulls(which, m):
    from partperm import aux1_vertices, aux2_vertices

    v = (aux1_vertices if which == "aux1" else aux2_vertices)(m)
    h, box = hull_convert(v), vertex_box(v.points)
    for t in range(0, 3):
        got = count_points(h, t, box=box, interior=True)
        assert got == _strict_scan(h, t, box), t
        if t:  # the interior lies inside the closed dilate
            assert got < count_points(h, t, box=box)


@pytest.mark.parametrize("m,n,t", [(5, 6, 6), (6, 6, 2), (6, 5, 3), (7, 7, 1)])
def test_pp_count_matches_generic_counter_beyond_oracle_domain(m, n, t):
    assert count_points(pp_facets(m, n), t, box=pp_box(m, n)) == pp_count(m, n, t)


def test_pp_count_known_values():
    assert [pp_count(2, 2, t) for t in range(4)] == [1, 8, 22, 43]
    assert pp_count(3, 3, 1) == 51
    assert pp_count(4, 4, 1) == 455
    assert pp_count(7, 0, 5) == 1
    assert pp_count(9, 4, 0) == 1


def test_pp_count_admits_p_10_11_up_to_t_11():
    # the work grows with t, so t = 11 is the largest shape admitted here;
    # the value is the conjectural recurrence's, which counts confirm
    assert pp_count(10, 11, 11) == ehr_recurrence(10, 11)(11)


def test_pp_count_refuses_work_above_bound():
    with pytest.raises(ValueError, match="PP_COUNT_WORK_MAX"):
        pp_count(2, 10**4, 10)
    with pytest.raises(ValueError, match="PP_COUNT_WORK_MAX"):
        pp_count(30, 31, 30)
    assert PP_COUNT_WORK_MAX == 2**23


@pytest.mark.parametrize("m,n,t", [(0, 2, 1), (-1, 2, 1), (2, -1, 1), (2, 2, -1)])
def test_pp_count_rejects_bad_arguments(m, n, t):
    with pytest.raises(ValueError, match="pp_count requires"):
        pp_count(m, n, t)


# --------------------------------------------------------------------------
# Hull conversion


def _vset(v):
    return set(v.points)


def _det(rows):
    """Exact determinant by cofactor expansion (tiny matrices only)."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def _exact(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else x


def _brute_hull(rep):
    """Reference hull conversion by brute force over all m-subsets.

    V->H: every m points spanning a hyperplane with all points on one side
    give a facet (primitive integer normal).  H->V: every m rows with a
    unique common solution that satisfies all rows give a vertex.  This is
    the enumeration the library used before its double-description routine.
    """
    m = rep.dim
    if isinstance(rep, HRep):
        found = set()
        for subset in combinations(rep.rows, m):
            x = solve_linear([list(a) for a, _ in subset], [b for _, b in subset])
            if x is not None and contains_point(rep, x):
                found.add(tuple(_exact(c) for c in x))
        return VRep(tuple(sorted(found)), m)
    pts = rep.points
    full = any(
        _det([[c - b for c, b in zip(p, sub[0])] for p in sub[1:]])
        for sub in combinations(pts, m + 1)
    )
    if not full:
        raise ValueError("point set is degenerate")
    facets = set()
    for sub in combinations(pts, m):
        diffs = [[c - b for c, b in zip(p, sub[0])] for p in sub[1:]]
        nu = [Fraction((-1) ** j * _det([r[:j] + r[j + 1:] for r in diffs]))
              for j in range(m)]
        if not any(nu):
            continue
        den = math.lcm(*(x.denominator for x in nu))
        ints = [int(x * den) for x in nu]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        c = sum(v * p for v, p in zip(ints, sub[0]))
        vals = [sum(v * x for v, x in zip(ints, p)) for p in pts]
        if all(s <= c for s in vals):
            facets.add((tuple(ints), _exact(c)))
        elif all(s >= c for s in vals):
            facets.add((tuple(-x for x in ints), _exact(-c)))
    return HRep(tuple(sorted(facets)), m)


def _random_hrep(rng, kind, m):
    rows = [
        (tuple(rng.randrange(-3, 4) for _ in range(m)), rng.randrange(-2, 6))
        for _ in range(rng.randrange(m, m + 5))
    ]
    if kind == "unbounded":
        rows = rows[: max(1, len(rows) // 2)]
    elif kind == "empty":
        a = tuple(rng.randrange(-2, 3) for _ in range(m))
        rows += [(a, -1), (tuple(-x for x in a), -1)]
    elif kind == "equality":
        a = tuple(rng.randrange(-2, 3) for _ in range(m))
        b = rng.randrange(0, 4)
        rows += [(a, b), (tuple(-x for x in a), -b)]
    return HRep(tuple(rows), m)


def _random_vrep(rng, kind, m):
    npts = rng.randrange(m + 1, m + 7)
    if kind == "rational":
        def coord():
            return Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    else:
        def coord():
            return rng.randrange(-3, 4)
    pts = [tuple(coord() for _ in range(m)) for _ in range(npts)]
    if kind == "degenerate":  # all points on the hyperplane x_m = x_1
        pts = [p[:-1] + (p[0],) for p in pts]
    return VRep(tuple(pts), m)


def _outcome(convert, rep):
    try:
        return repr(convert(rep))
    except ValueError:
        return "degenerate"


@pytest.mark.parametrize("kind", ["bounded", "unbounded", "empty", "equality"])
def test_hull_h_to_v_matches_brute_force(kind):
    rng = random.Random(f"h-{kind}")
    for _ in range(60):
        rep = _random_hrep(rng, kind, rng.randrange(1, 4))
        assert _outcome(hull_convert, rep) == _outcome(_brute_hull, rep), rep


@pytest.mark.parametrize("kind", ["integral", "rational", "degenerate"])
def test_hull_v_to_h_matches_brute_force(kind):
    rng = random.Random(f"v-{kind}")
    for _ in range(60):
        rep = _random_vrep(rng, kind, rng.randrange(1, 4))
        assert _outcome(hull_convert, rep) == _outcome(_brute_hull, rep), rep


def test_hull_random_inputs_cover_every_case():
    # the seeded inputs above do reach empty systems, rational vertices and
    # degenerate point sets
    rng = random.Random("h-bounded")
    hs = [hull_convert(_random_hrep(rng, "bounded", rng.randrange(1, 4)))
          for _ in range(60)]
    assert any(not v.points for v in hs)
    assert any(isinstance(c, Fraction) for v in hs for p in v.points for c in p)
    rng = random.Random("v-degenerate")
    outs = [_outcome(hull_convert, _random_vrep(rng, "degenerate", rng.randrange(1, 4)))
            for _ in range(60)]
    assert "degenerate" in outs


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3)])
def test_hull_matches_brute_force_on_pp(m, n):
    assert hull_convert(pp_vertices(m, n)) == _brute_hull(pp_vertices(m, n))
    assert hull_convert(pp_facets(m, n)) == _brute_hull(pp_facets(m, n))


@pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (2, 5), (3, 2), (3, 3), (3, 5)])
def test_hull_round_trip_small(m, n):
    v = pp_vertices(m, n)
    h = pp_facets(m, n)
    # V -> H: same solution set as the facet system (check by vertex filter
    # and by converting back)
    h2 = hull_convert(v)
    assert _vset(hull_convert(h2)) == _vset(v)
    # H -> V directly
    assert _vset(hull_convert(h)) == _vset(v)


@pytest.mark.parametrize("m,n", [(4, 4), (5, 5)])
def test_hull_round_trip_heavier(m, n):
    v = pp_vertices(m, n)
    assert hull_convert(hull_convert(v)) == v


def test_hull_v_to_h_matches_pp_facets_as_sets():
    # the produced facet system must be exactly the irredundant pp_facets rows
    for m, n in [(2, 2), (3, 2), (3, 3), (4, 4), (5, 3), (5, 4)]:
        got = hull_convert(pp_vertices(m, n))
        assert set(got.rows) == set(pp_facets(m, n).rows)
        assert len(got.rows) == len(pp_facets(m, n).rows)


def test_hull_fraction_coordinates():
    # the triangle (0,0), (3/2,0), (0,1/2): 1/3 x + y <= 1/2 scales to the
    # primitive normal (1, 3) with rhs 3/2
    half = Fraction(1, 2)
    v = VRep(((0, 0), (Fraction(3, 2), 0), (0, half), (half, Fraction(1, 4))), 2)
    h = hull_convert(v)
    assert h.rows == (((-1, 0), 0), ((0, -1), 0), ((1, 3), Fraction(3, 2)))
    assert hull_convert(h).points == ((0, 0), (0, half), (Fraction(3, 2), 0))
    assert h == _brute_hull(v)


def test_hull_degenerate_input_raises():
    # a segment in R^2 is not full-dimensional
    with pytest.raises(ValueError):
        hull_convert(VRep(((0, 0), (1, 1)), 2))


def test_hull_simplex():
    v = VRep(((0, 0), (1, 0), (0, 1)), 2)
    h = hull_convert(v)
    assert len(h.rows) == 3
    assert _vset(hull_convert(h)) == _vset(v)


def test_bounding_box():
    h = pp_facets(2, 3)
    assert bounding_box(h) == ((0, 3), (0, 3))
    tri = hull_convert(VRep(((0, 0), (2, 0), (0, 2)), 2))
    assert bounding_box(tri) == ((0, 2), (0, 2))


def test_bounding_box_refuses_unbounded_systems():
    # the strip |x1 - x2| <= 1 in the quadrant runs off along (1, 1); its
    # vertices (0,0), (1,0), (0,1) span a box with 4 points, not the count
    strip = HRep((((-1, 0), 0), ((0, -1), 0), ((1, -1), 1), ((-1, 1), 1)), 2)
    assert hull_convert(strip).points == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(ValueError, match="unbounded polytope"):
        bounding_box(strip)
    with pytest.raises(ValueError, match="unbounded polytope"):
        count_points(strip, 1)
    assert count_points(strip, 1, box=((0, 3), (0, 3))) == 10
    # rows of rank below the dimension: the cone holds a line
    half_plane = HRep((((1, 0), 1),), 2)
    with pytest.raises(ValueError, match="empty or unbounded"):
        count_points(half_plane, 2)
    # an empty system is still refused as empty
    empty = HRep((((1, 0), -1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)), 2)
    with pytest.raises(ValueError, match="empty polytope"):
        bounding_box(empty)


def _unimodular(rng, m):
    """A random unimodular matrix and its inverse, from elementary steps:
    row i += c * row j on the matrix is column j -= c * column i on the
    inverse."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    inv = [row[:] for row in u]
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    return u, inv


@pytest.mark.parametrize("m,n", [(4, 2), (4, 3), (5, 2)])
def test_hull_convert_of_lattice_transformed_pp(m, n):
    # y = U x + s with U unimodular takes P(m,n) to a lattice polytope with
    # no coordinate symmetry, and runs the double description at d = m + 1.
    # a . x <= b becomes (a U^-1) . y <= b + (a U^-1) . s, whose normal is
    # still primitive, so both conversions are known exactly.
    rng = random.Random(f"lattice-{m}-{n}")
    u, inv = _unimodular(rng, m)
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*inv)] for row in u] == \
        [[int(i == j) for j in range(m)] for i in range(m)]
    shift = [rng.randrange(-5, 6) for _ in range(m)]
    points = sorted(tuple(sum(c * x for c, x in zip(row, p)) + t for row, t in zip(u, shift))
                    for p in pp_vertices(m, n).points)
    rows = []
    for a, b in pp_facets(m, n).rows:
        normal = tuple(sum(a[i] * inv[i][j] for i in range(m)) for j in range(m))
        rows.append((normal, b + sum(c * t for c, t in zip(normal, shift))))
    v, h = VRep(tuple(points), m), HRep(tuple(sorted(rows)), m)
    assert hull_convert(v) == h
    assert hull_convert(h) == v


def _brute_rays(gens):
    """Extreme rays of the pointed cone {y : g . y >= 0}, by brute force:
    the primitive cofactor vector of every d-1 generators that spans a
    line, on whichever side of it satisfies every generator."""
    d = len(gens[0])
    found = set()
    for sub in combinations(gens, d - 1):
        r = [(-1) ** j * int_det([g[:j] + g[j + 1:] for g in sub]) for j in range(d)]
        if not any(r):
            continue
        g = math.gcd(*r)
        for ray in (tuple(x // g for x in r), tuple(-x // g for x in r)):
            if all(sum(a * y for a, y in zip(gen, ray)) >= 0 for gen in gens):
                found.add(ray)
    return found


@pytest.mark.parametrize("d", [4, 5, 6])
def test_extreme_rays_refuses_rank_deficient_generators(d):
    # rank below d: the cone holds a line, and in [G^T | I_d] a pivot lands
    # in the identity block, with fewer, as many or more generators than d
    rng = random.Random(f"rank-{d}")
    for rank in range(1, d):
        span = [[rng.randrange(-3, 4) for _ in range(d)] for _ in range(rank)]
        for count in (rank, d, d + 4):
            gens = []
            for _ in range(count):
                coeffs = [rng.randrange(-2, 3) for _ in span]
                gens.append(tuple(sum(c * x for c, x in zip(coeffs, col)) for col in zip(*span)))
            assert _extreme_rays(gens) is None, gens
    # the last coordinate is free: three pivots among the generators, the
    # fourth in the identity block
    assert _extreme_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)]) is None


@pytest.mark.parametrize("d", [4, 5, 6])
def test_extreme_rays_when_the_first_d_generators_are_dependent(d):
    # the homogenised V->H cone of points whose first d lie on the hyperplane
    # x_1 = x_2: the starting basis must take a later generator, and the
    # full-rank set must not be refused
    rng = random.Random(f"lead-{d}")
    for _ in range(4):
        points = [(x,) + (x,) + tuple(rng.randrange(-3, 4) for _ in range(d - 3))
                  for x in (rng.randrange(-3, 4) for _ in range(d))]
        points += [tuple(rng.randrange(-3, 4) for _ in range(d - 1)) for _ in range(3)]
        gens = [(1,) + tuple(-x for x in p) for p in points]
        assert int_det(gens[:d]) == 0
        rays = _extreme_rays(gens)
        assert rays is not None
        assert len(set(rays)) == len(rays)
        assert set(rays) == _brute_rays(gens)


def _chain_gens(rng, d, count):
    """``count`` generators in dimension d: small integer rows, with now and
    then a rational one."""
    gens = []
    for _ in range(count):
        if rng.random() < 0.2:
            gens.append(tuple(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                              for _ in range(d)))
        else:
            gens.append(tuple(rng.randrange(-3, 4) for _ in range(d)))
    return gens


def test_resumed_conversions_equal_full_conversions(monkeypatch):
    # prefix chains extended by 1-2 generators at a time; some prefixes
    # have rank below d (None), and the extension then converts in full
    rng = random.Random("resume")
    starts = []
    start_cone = PT._start_cone
    monkeypatch.setattr(PT, "_start_cone", lambda gens: starts.append(1) or start_cone(gens))
    resumed_steps = 0
    for trial in range(300):
        d = rng.randrange(2, 6)
        chain = [_chain_gens(rng, d, rng.randrange(1, 9))]
        if trial % 10 == 0:  # a rank-deficient prefix: the last coordinate is free
            chain = [[g[:-1] + (0,) for g in chain[0]]]
        for _ in range(rng.randrange(1, 4)):
            chain.append(chain[-1] + _chain_gens(rng, d, rng.randrange(1, 3)))
        full = []
        for gens in chain:
            PT._ray_memo.clear()
            full.append(_extreme_rays(gens))
        PT._ray_memo.clear()
        del starts[:]
        assert [_extreme_rays(gens) for gens in chain] == full
        # a conversion starts afresh only until one has full rank
        converted = [i for i, rays in enumerate(full) if rays is not None]
        assert len(starts) == (converted[0] + 1 if converted else len(chain))
        resumed_steps += len(chain) - len(starts)
    assert resumed_steps > 300


def test_cut_sides_resume_from_the_cut_conversion(monkeypatch):
    # cut converts h once; the boxless counts of both sides add one row
    starts = []
    start_cone = PT._start_cone
    monkeypatch.setattr(PT, "_start_cone", lambda gens: starts.append(1) or start_cone(gens))
    PT._ray_memo.clear()
    h = pp_facets(3, 3)
    res = cut(h, (1, 2, 0), 4)
    near, far = count_points(res.pprime, 2), count_points(res.q, 2)
    assert len(starts) == 1
    PT._ray_memo.clear()
    assert (near, far) == (count_points(res.pprime, 2), count_points(res.q, 2))
    assert len(starts) == 3


def test_ray_memo_holds_within_its_bound(monkeypatch):
    monkeypatch.setattr(PT, "_RAY_MEMO_MAX", 80)
    PT._ray_memo.clear()
    # the cone of P(4,4): 20 generators and 65 rays, above the bound
    assert len(PT._cone_rays(pp_facets(4, 4))) == 65
    assert len(PT._ray_memo) == 0 and PT._ray_memo.held == 0
    rng = random.Random("held")
    kept = []
    for _ in range(40):
        gens = _chain_gens(rng, 3, 6)
        rays = _extreme_rays(gens)
        if rays is not None:
            kept.append(tuple(tuple(PT._integral(g)) if any(type(x) is not int for x in g)
                              else g for g in gens))
        held = sum(len(key) + len(rays) for key, (rays, _) in PT._ray_memo.items())
        assert PT._ray_memo.held == held <= 80
    # the conversions kept first are dropped first
    assert list(PT._ray_memo) == kept[-len(PT._ray_memo):]
    PT._ray_memo.clear()
    assert PT._ray_memo.held == 0


# --------------------------------------------------------------------------
# Cuts and the strip identity


def _square(side):
    rows = [((-1, 0), 0), ((0, -1), 0), ((1, 0), side), ((0, 1), side)]
    return HRep(tuple(rows), 2)


def test_cut_strip_identity_square():
    # [0,2]^2 cut by x1 + x2 <= 3: |P'| = |P| - |Q| + |F| at t = 1
    p = _square(2)
    res = cut(p, (1, 1), 3)
    assert not res.q_empty
    assert count_points(res.pprime, 1) == 8
    assert count_points(p, 1) == 9
    assert count_points(res.q, 1) == 3
    assert count_points(res.f, 1) == 2
    assert count_points(res.pprime, 1) == count_points(p, 1) - count_points(
        res.q, 1
    ) + count_points(res.f, 1)


def test_cut_strip_identity_simplex():
    # 3Δ_3 cut by x1 <= 1; the identity holds for every dilate checked
    rows = [
        ((-1, 0, 0), 0),
        ((0, -1, 0), 0),
        ((0, 0, -1), 0),
        ((1, 1, 1), 3),
    ]
    p = HRep(tuple(rows), 3)
    res = cut(p, (1, 0, 0), 1)
    for t in (1, 2):
        lhs = count_points(res.pprime, t)
        rhs = count_points(p, t) - count_points(res.q, t) + count_points(res.f, t)
        assert lhs == rhs


def test_cut_degenerate_misses_polytope():
    p = _square(2)
    res = cut(p, (1, 1), 100)
    assert res.q_empty
    # the near side equals P
    for t in (1, 2):
        assert count_points(res.pprime, t) == count_points(p, t)


def test_cut_far_side_of_an_unbounded_system():
    # the strip |x1 - x2| <= 1 in the quadrant runs off along (1, 1)
    strip = HRep((((-1, 0), 0), ((0, -1), 0), ((1, -1), 1), ((-1, 1), 1)), 2)
    res = cut(strip, (1, 1), 10)
    assert not res.q_empty
    assert count_points(res.q, 1, box=((0, 8), (0, 8))) == 10
    # no direction of recession raises these normals: the vertices decide
    assert cut(strip, (-1, -1), 1).q_empty
    assert cut(strip, (1, -1), 2).q_empty
    assert not cut(strip, (1, -1), 1).q_empty


def test_cut_refuses_rows_of_rank_below_the_dimension():
    band = HRep((((1, 0), 1), ((-1, 0), 1)), 2)  # |x1| <= 1 in R^2
    with pytest.raises(ValueError, match="rank below the dimension 2"):
        cut(band, (1, 0), 0)
    empty = HRep((((1, 0), -1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)), 2)
    with pytest.raises(ValueError, match="cut of an empty polytope"):
        cut(empty, (1, 0), 0)


def test_cut_dimension_mismatch():
    with pytest.raises(ValueError):
        cut(_square(2), (1, 0, 0), 1)


def test_cut_refuses_fractional_normal():
    with pytest.raises(ValueError, match="1/2"):
        cut(pp_facets(2, 2), (Fraction(1, 2), 1), 1)


# --------------------------------------------------------------------------
# Anti-blocking polytopes


def test_antiblocking_pentagon():
    v, edges = antiblocking_vertices_edges((2, 1))
    assert _vset(v) == {(0, 0), (0, 2), (1, 2), (2, 0), (2, 1)}
    assert len(edges) == 5


def test_antiblocking_rejects_bad_z():
    with pytest.raises(ValueError):
        antiblocking_vertices_edges((1, 2))  # not weakly decreasing
    with pytest.raises(ValueError):
        antiblocking_vertices_edges((2, -1))  # negative entry
    with pytest.raises(ValueError, match="5/2"):
        antiblocking_vertices_edges((Fraction(5, 2), 1))  # not an integer


def test_antiblocking_1100_neighborhood():
    # the vertex (1,1,0,0) of the anti-blocking polytope of (1,1,0,0) has
    # exactly these 6 neighbors
    v, edges = antiblocking_vertices_edges((1, 1, 0, 0))
    pts = v.points
    target = pts.index((1, 1, 0, 0))
    nbrs = {pts[b] for a, b in edges if a == target} | {
        pts[a] for a, b in edges if b == target
    }
    assert nbrs == {
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
    }


def test_antiblocking_e1_e2_not_adjacent():
    v, edges = antiblocking_vertices_edges((1, 1, 0, 0))
    pts = v.points
    i = pts.index((1, 0, 0, 0))
    j = pts.index((0, 1, 0, 0))
    assert tuple(sorted((i, j))) not in set(edges)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_antiblocking_pm1_edge_count(m):
    # P(m,1) is the anti-blocking polytope of e_1; its graph is the complete
    # graph on the m+1 vertices {0, e_1..e_m}: C(m+1,2) edges
    z = tuple([1] + [0] * (m - 1))
    v, edges = antiblocking_vertices_edges(z)
    assert len(v.points) == m + 1
    assert len(edges) == math.comb(m + 1, 2)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_antiblocking_identity_grid(m, n):
    assert verify_antiblocking_identity(m, n)


# Profiles with ties and zeros; Q(z) need not be simple at a tie.
TIED_PROFILES = [(1,), (2, 1), (1, 1, 0, 0), (3, 3, 1), (5, 3, 3, 1), (2, 2, 2),
                 (4, 3, 2, 1, 0), (3, 0, 0), (4, 4, 2, 1), (6, 3, 1, 1), (5, 5, 5, 2, 2),
                 (7, 4, 4, 1, 0)]


@pytest.mark.parametrize("z", TIED_PROFILES)
def test_antiblocking_vertices_match_the_hull_of_the_full_h_form(z):
    # Q(z): x >= 0 and, for every nonempty S, sum_S x <= z_1 + ... + z_|S|;
    # the hull conversion finds its vertices without placing any value
    m = len(z)
    rows = [(tuple(-int(i == j) for i in range(m)), 0) for j in range(m)]
    for k in range(1, m + 1):
        for S in combinations(range(m), k):
            rows.append((tuple(int(i in S) for i in range(m)), sum(z[:k])))
    v, _ = antiblocking_vertices_edges(z)
    assert set(v.points) == set(hull_convert(HRep(tuple(rows), m)).points)


def test_pp_profile_is_the_facet_right_hand_side():
    for m in range(0, 9):
        for n in range(0, 11):
            g = pp_profile(m, n)
            assert len(g) == m + 1 and g[0] == 0
            for k in range(m + 1):
                a = n + 1 - k
                assert g[k] == math.comb(n + 1, 2) - (math.comb(a, 2) if a >= 2 else 0)
    assert pp_profile(4, 2) == (0, 2, 3, 3, 3)
    for m, n in [(-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match="pp_profile requires"):
            pp_profile(m, n)


def test_antiblocking_edges_are_valid_indices():
    v, edges = antiblocking_vertices_edges((3, 2, 0))
    npts = len(v.points)
    for a, b in edges:
        assert 0 <= a < b < npts
    assert len(set(edges)) == len(edges)


def test_hrep_dilate():
    h = pp_facets(2, 2).dilate(3)
    assert ((1, 1), 9) in h.rows
    assert ((-1, 0), 0) in h.rows
