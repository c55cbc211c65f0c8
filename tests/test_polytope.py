"""Tests for polytope representations, hull conversion, counting, and cuts.

Oracle strategy: vertex and facet counts are checked against the closed
counting formulas; hull conversions are validated by round trips on both
P(m,n) representations; the cut decomposition is checked by the additive
lattice-count identity |P'| = |P| - |Q| + |F| on hand-computed instances;
anti-blocking graphs are pinned to small frozen neighborhoods.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from partperm import (
    ORACLE_MAX_M,
    ORACLE_MAX_N,
    PP_COUNT_WORK_MAX,
    VERTEX_LIST_MAX,
    HRep,
    VRep,
    antiblocking_vertices_edges,
    bounding_box,
    contains_point,
    count_points,
    cut,
    ehr_recurrence,
    hull_convert,
    oracle_domain,
    pp_box,
    pp_count,
    pp_facets,
    pp_vertex_count,
    pp_vertices,
    solve_linear,
    verify_antiblocking_identity,
)

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
    assert len(h.rows) == m + subset_rows
    assert h.dim == m


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


def test_count_points_t0_is_one():
    assert count_points(pp_facets(3, 3), 0) == 1


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
    assert oracle_domain(m, n)
    h, box = pp_facets(m, n), pp_box(m, n)
    for t in (1, 2):
        assert pp_count(m, n, t) == count_points(h, t, box=box)


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


def test_cut_dimension_mismatch():
    with pytest.raises(ValueError):
        cut(_square(2), (1, 0, 0), 1)


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


def test_antiblocking_edges_are_valid_indices():
    v, edges = antiblocking_vertices_edges((3, 2, 0))
    npts = len(v.points)
    for a, b in edges:
        assert 0 <= a < b < npts
    assert len(set(edges)) == len(edges)


# --------------------------------------------------------------------------
# JSON forms


def test_reps_jsonable():
    v = pp_vertices(2, 2)
    h = pp_facets(2, 2)
    jv = v.to_jsonable()
    jh = h.to_jsonable()
    assert jv["dim"] == 2 and len(jv["points"]) == 5
    assert jh["dim"] == 2 and len(jh["rows"]) == 5
    assert all(isinstance(r["rhs"], int) for r in jh["rows"])


def test_hrep_dilate():
    h = pp_facets(2, 2).dilate(3)
    assert ((1, 1), 9) in h.rows
    assert ((-1, 0), 0) in h.rows
