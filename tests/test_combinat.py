"""Tests for chain families, R-sets, and draconian sequences.

Oracle strategy: chain enumeration is cross-checked against a filtered
brute-force walk over all chains of subsets, and the f-vector census
against the enumeration's missing-rank tally; the Hall-style feasibility test
behind draconian sequences is checked against a direct subset scan; frozen
census numbers (51 chains for m = n = 3; 4 / 8 / 51 / 455 draconian
sequences) pin the semantics; the shape census from the component formula
is checked against the shape tally of the enumeration.
"""

import time
from itertools import combinations

import pytest

from partperm import (
    CHAIN_WORK_MAX,
    DRACONIAN_LIST_MAX,
    DRACONIAN_MAX_M,
    chain_in_family,
    draconian_census,
    draconian_domain,
    draconian_indices,
    draconian_shape_tally,
    enumerate_chains,
    enumerate_draconian,
    f_vector,
    missing_ranks,
    r_set,
)

# --------------------------------------------------------------------------
# Brute-force chain oracle


def _all_subset_chains(m):
    """Every chain (A_1 ⊊ … ⊊ A_ell) of subsets of [m], ell >= 1, as tuples of
    frozensets of 1-based elements; grown recursively by strict extension."""
    subsets = [frozenset(s) for k in range(m + 1) for s in combinations(range(1, m + 1), k)]
    out = []

    def grow(prefix):
        out.append(tuple(prefix))
        for s in subsets:
            if prefix[-1] < s:
                grow(prefix + [s])

    for s in subsets:
        grow([s])
    return out


def _in_family_oracle(c, n):
    if not c:
        return False
    a1, al = c[0], c[-1]
    if a1:
        return len(al - a1) <= n - 1
    if len(c) == 1:
        return True  # the chain (∅)
    return len(al - c[1]) <= n - 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_chains_matches_brute_force(m, n):
    # the listing is built in order, with no sort: it must equal the
    # brute-force family sorted by (length, sorted member tuples)
    brute = sorted((c for c in _all_subset_chains(m) if _in_family_oracle(c, n)),
                   key=lambda c: (len(c), [tuple(sorted(a)) for a in c]))
    got = enumerate_chains(m, n)
    assert got == brute
    assert enumerate_chains(m, n, include_empty=True) == brute + [()]
    assert all(chain_in_family(c, m, n) for c in got)


@pytest.mark.parametrize(
    "m,n,count",
    [
        (1, 1, 3),
        (2, 1, 7),
        (2, 2, 11),
        (2, 3, 11),
        (2, 6, 11),
        (3, 3, 51),
        (4, 4, 299),  # every chain of subsets of [4]
        (4, 9, 299),
    ],
)
def test_enumerate_chains_frozen_counts(m, n, count):
    assert len(enumerate_chains(m, n)) == count
    assert len(enumerate_chains(m, n, include_empty=True)) == count + 1


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 8))
def test_chain_count_matches_enumeration(m, n):
    # the f-vector census, graded by dimension, against the listing's tally
    counts = [0] * (m + 1)
    for c in enumerate_chains(m, n):
        counts[missing_ranks(c)] += 1
    assert f_vector(m, n) == tuple(counts)


def test_chain_work_bound_refuses_up_front():
    # P(30,2) has 34,359,738,307 chains and P(8,8) 2,183,339
    for m, n in [(30, 2), (8, 8), (18, 1)]:
        with pytest.raises(ValueError, match="CHAIN_WORK_MAX"):
            enumerate_chains(m, n)
    # the largest shapes in use stay inside the bound, as does every shape
    # the earlier subset search admitted: at most 2^25 / 2^m chains
    for m, n in [(9, 2), (10, 2), (11, 2), (7, 3), (6, 4), (5, 6), (4, 8),
                 (7, 7), (17, 1)]:
        assert sum(f_vector(m, n)) <= CHAIN_WORK_MAX


def test_enumerate_chains_33_census_by_missing_ranks():
    by_dim = {}
    for c in enumerate_chains(3, 3):
        by_dim[missing_ranks(c)] = by_dim.get(missing_ranks(c), 0) + 1
    assert by_dim == {0: 16, 1: 24, 2: 10, 3: 1}


def test_enumerate_chains_contains_empty_set_chain():
    chains = enumerate_chains(2, 2)
    assert (frozenset(),) in chains
    assert () not in chains
    assert () in enumerate_chains(2, 2, include_empty=True)


def test_enumerate_chains_n_ge_m_is_all_chains():
    # for n >= m the family is unrestricted: every subset chain qualifies
    assert set(enumerate_chains(3, 3)) == set(_all_subset_chains(3))
    assert set(enumerate_chains(3, 5)) == set(_all_subset_chains(3))


def test_chain_in_family_examples():
    assert chain_in_family((frozenset({1}),), 3, 1)
    # |A_l \ A_1| = 2 > n-1 = 0
    assert not chain_in_family((frozenset({1}), frozenset({1, 2, 3})), 3, 1)
    # empty-start chain: |A_l \ A_2| rules
    assert chain_in_family((frozenset(), frozenset({1, 2, 3})), 3, 1)
    assert not chain_in_family(
        (frozenset(), frozenset({1}), frozenset({1, 2, 3})), 3, 2
    )
    assert chain_in_family(
        (frozenset(), frozenset({1, 2}), frozenset({1, 2, 3})), 3, 2
    )


def test_chain_in_family_rejects_malformed():
    with pytest.raises(ValueError):
        chain_in_family((frozenset({1}), frozenset({1})), 2, 2)  # not strict
    with pytest.raises(ValueError):
        chain_in_family((frozenset({5}),), 2, 2)  # out of ground set
    assert not chain_in_family((), 2, 2)  # empty chain is not in C(m,n)


# --------------------------------------------------------------------------
# missing_ranks


@pytest.mark.parametrize(
    "c,expected",
    [
        ((frozenset(),), 0),
        ((frozenset({1, 2}),), 2),
        ((frozenset({1}), frozenset({1, 2, 3})), 2),
        ((frozenset(), frozenset({1, 2, 3})), 2),
    ],
)
def test_missing_ranks_values(c, expected):
    assert missing_ranks(c) == expected


def test_missing_ranks_takes_any_member_type():
    assert missing_ranks(([1], [1, 2, 3])) == 2
    assert missing_ranks([(), {1, 2}, range(1, 5)]) == 2


def test_missing_ranks_of_empty_chain_raises():
    with pytest.raises(ValueError):
        missing_ranks(())


def test_missing_ranks_full_chain_is_zero():
    full = tuple(frozenset(range(1, k + 1)) for k in range(0, 4))
    assert missing_ranks(full) == 0


# --------------------------------------------------------------------------
# R-sets and the face order


def r_set_and_order(c1, c2, m, n):
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


def test_r_set_golden_m6_n4():
    c1 = (frozenset(), frozenset({1, 2}), frozenset({1, 2, 3}), frozenset({1, 2, 3, 4}))
    c2 = (frozenset({1, 2, 5}), frozenset({1, 2, 3, 4, 5}))
    r1 = r_set(c1, 6, 4)
    r2 = r_set(c2, 6, 4)
    assert r2 < r1  # strict inclusion of marker sets
    assert r_set_and_order(c1, c2, 6, 4)[2] is True  # c1 <= c2 in the face order


def test_r_set_top_face_is_maximum():
    # the chain ([m]) indexes P(m,n) itself, the maximum face; in the
    # reverse-inclusion order its R-set is contained in every other R-set
    m, n = 3, 2
    top_chain = (frozenset(range(1, m + 1)),)
    top = r_set(top_chain, m, n)
    for c in enumerate_chains(m, n):
        assert top <= r_set(c, m, n)
        assert r_set_and_order(c, top_chain, m, n)[2] is True


def test_face_order_antisymmetry_and_reflexivity():
    m, n = 3, 2
    chains = enumerate_chains(m, n)
    for c in chains[:20]:
        assert r_set_and_order(c, c, m, n)[2] is True
    # antisymmetry: distinct chains with mutual <= cannot exist
    for c1 in chains[:15]:
        for c2 in chains[:15]:
            if c1 == c2:
                continue
            le = r_set_and_order(c1, c2, m, n)[2]
            ge = r_set_and_order(c2, c1, m, n)[2]
            assert not (le and ge)


def test_face_order_dimension_monotone():
    # c1 <= c2 in the face order implies dim(c1) <= dim(c2)
    m, n = 3, 3
    chains = enumerate_chains(m, n)
    for c1 in chains:
        for c2 in chains:
            if r_set_and_order(c1, c2, m, n)[2]:
                assert missing_ranks(c1) <= missing_ranks(c2)


# --------------------------------------------------------------------------
# Draconian sequences


def _hall_ok(a, supports):
    """Hall's condition via bipartite matching of unit tokens into [m].

    Token k (one per unit of a_k) may occupy any element of its support
    I_k; the condition sum_{k in S} a_k <= |union I_k| for all S holds iff
    a perfect matching of all tokens exists (defect Hall theorem).
    """
    tokens = []
    for ak, sup in zip(a, supports):
        tokens.extend([sup] * ak)
    match = {}  # ground element -> token index

    def try_assign(t, seen):
        for x in tokens[t]:
            if x in seen:
                continue
            seen.add(x)
            if x not in match or try_assign(match[x], seen):
                match[x] = t
                return True
        return False

    return all(try_assign(t, set()) for t in range(len(tokens)))


def draconian_check(a, m):
    """Is ``a`` a draconian sequence for ground set [m]? (caps + Hall.)

    ``a`` is indexed by draconian_indices(m); its length must match.  The
    reference for the listing, which keeps its own incremental Hall test.
    """
    supports = draconian_indices(m)
    if len(a) != len(supports):
        raise ValueError(f"sequence length {len(a)} != {len(supports)} supports")
    if any(x < 0 for x in a):
        return False
    for x, sup in zip(a, supports):
        if x > len(sup):  # caps: 1 on a singleton, 2 on a pair
            return False
    return _hall_ok(a, supports)


def _hall_oracle(a, supports):
    """Direct subset-union scan of the Hall condition."""
    idx = [i for i, v in enumerate(a) for _ in range(v)]
    # check every nonempty subset of support indices with multiplicity via
    # the standard equivalent: for every subset S of positions,
    # sum_{i in S} a_i <= |union of supports over S|
    npos = len(supports)
    for r in range(1, npos + 1):
        for S in combinations(range(npos), r):
            tot = sum(a[i] for i in S)
            union = set().union(*(supports[i] for i in S))
            if tot > len(union):
                return False
    return True


@pytest.mark.parametrize("m", [1, 2, 3])
def test_draconian_check_matches_subset_scan(m):
    supports = draconian_indices(m)
    npos = len(supports)
    # exhaustive over small vectors with entries <= 2
    def vectors(k):
        if k == 0:
            yield ()
            return
        for rest in vectors(k - 1):
            for v in range(3):
                yield rest + (v,)

    for a in vectors(npos):
        if sum(a) > m + 2:
            continue
        expected = _hall_oracle(a, supports) and sum(a) <= m
        assert draconian_check(a, m) == expected


def test_draconian_indices_order():
    # singletons {1}..{m} first, then pairs in lexicographic order
    idx = draconian_indices(3)
    assert idx == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    ]


def test_draconian_singleton_caps():
    # a singleton support {i} can carry at most 1; a pair at most 2
    assert draconian_check((1, 0, 0, 0, 0, 0), 3)
    assert not draconian_check((2, 0, 0, 0, 0, 0), 3)
    assert draconian_check((0, 0, 0, 2, 0, 0), 3)
    assert not draconian_check((0, 0, 0, 3, 0, 0), 3)


def test_enumerate_draconian_volume_m2_census():
    seqs = enumerate_draconian(2, "volume")
    assert seqs == [(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


@pytest.mark.parametrize("m,count", [(2, 8), (3, 51), (4, 455)])
def test_enumerate_draconian_ehrhart_census(m, count):
    assert len(enumerate_draconian(m, "ehrhart")) == count


def test_enumerate_draconian_modes_nested():
    # volume mode = ehrhart mode restricted to total exactly m
    m = 3
    vol = set(enumerate_draconian(m, "volume"))
    ehr = set(enumerate_draconian(m, "ehrhart"))
    assert vol == {a for a in ehr if sum(a) == m}
    assert all(sum(a) <= m for a in ehr)


def test_enumerate_draconian_sorted_and_valid():
    for m in (2, 3, 4):
        seqs = enumerate_draconian(m, "ehrhart")
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        for a in seqs:
            assert draconian_check(a, m)


def test_enumerate_draconian_ehrhart_complete_vs_filter():
    # independent completeness check: filter the full product space for m = 3
    m = 3
    npos = len(draconian_indices(m))

    def vectors(k):
        if k == 0:
            yield ()
            return
        for rest in vectors(k - 1):
            for v in range(m + 1):
                yield rest + (v,)

    brute = sorted(a for a in vectors(npos) if draconian_check(a, m))
    assert brute == enumerate_draconian(m, "ehrhart")


def test_enumerate_draconian_bad_mode():
    with pytest.raises(ValueError):
        enumerate_draconian(2, "nonsense")


def test_enumerate_draconian_refuses_above_its_listing_bound():
    # m = 6 is the largest listing the bound admits in either mode
    assert len(enumerate_draconian(6, "ehrhart")) == 74670 <= DRACONIAN_LIST_MAX
    for m, mode in [(7, "volume"), (7, "ehrhart"), (8, "volume")]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="DRACONIAN_LIST_MAX"):
            enumerate_draconian(m, mode)
        assert time.perf_counter() - start < 1
    # above DRACONIAN_MAX_M the count is not formed: it grows with m
    for m in (DRACONIAN_MAX_M + 1, 1000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"DRACONIAN_MAX_M: m <= {DRACONIAN_MAX_M}"):
            enumerate_draconian(m, "volume")
        assert time.perf_counter() - start < 1


# --------------------------------------------------------------------------
# Shape census


@pytest.mark.parametrize("mode", ["volume", "ehrhart"])
@pytest.mark.parametrize("m", range(1, 7))
def test_census_matches_enumeration(m, mode):
    assert draconian_census(m, mode) == draconian_shape_tally(m, mode)


def test_census_m2_by_hand():
    # sequences (a_1, a_2, a_12): (0,0,2) is a doubled edge, shape (0,0,1);
    # (0,1,1) and (1,0,1) are an edge with a token, (1,1,0); (1,1,0) is two
    # lone vertices with a token each, (2,0,0)
    assert draconian_census(2, "volume") == {(0, 0, 1): 1, (1, 1, 0): 2, (2, 0, 0): 1}


def test_census_modes_nested_beyond_enumeration():
    # as for the sequences: the volume census is the part of the ehrhart
    # census whose shapes use exactly m units (s + p1 + 2 p2 = m)
    m = 9
    vol = draconian_census(m, "volume")
    ehr = draconian_census(m, "ehrhart")
    assert all(s + p1 + 2 * p2 <= m for s, p1, p2 in ehr)
    assert vol == {(s, p1, p2): c for (s, p1, p2), c in ehr.items()
                   if s + p1 + 2 * p2 == m}


def test_census_bad_arguments():
    with pytest.raises(ValueError):
        draconian_census(2, "nonsense")
    with pytest.raises(ValueError):
        draconian_census(0)


def test_census_refuses_outside_the_draconian_domain():
    assert draconian_census(DRACONIAN_MAX_M, "ehrhart")
    for m in (DRACONIAN_MAX_M + 1, 1000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"DRACONIAN_MAX_M: m <= {DRACONIAN_MAX_M}"):
            draconian_census(m, "ehrhart")
        assert time.perf_counter() - start < 1


def test_draconian_domain():
    assert draconian_domain(1, 0)
    assert draconian_domain(DRACONIAN_MAX_M, DRACONIAN_MAX_M - 1)
    assert not draconian_domain(4, 2)
    assert not draconian_domain(DRACONIAN_MAX_M + 1, 100)
    assert not draconian_domain(0, 3)
