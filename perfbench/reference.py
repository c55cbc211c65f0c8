"""Independent answers for the benchmark's checks.

Nothing here imports ``partperm``.  Every value is derived from the paper's
descriptions of P(m,n):

* the anti-blocking description: x >= 0 and, for every k, the sum of the
  k largest coordinates is at most t * g(k), g(k) = sum_{i<k} max(n-i, 0);
* the vertex description: the values n, n-1, ..., n-k+1 placed injectively;
* the facet description: x_i >= 0 and x(S) <= g(|S|) for nonempty S with
  |S| <= n-1 or |S| = m;
* the width rule of the chains that index the faces;
* the closed volumes of the two auxiliary polytopes.

Lattice counts come from a dynamic programme over sorted coordinates: the
values are placed from the largest down, c copies of a value at a time,
with C(free positions, c) ways to place them, and every prefix sum is
tested against the anti-blocking bound.  ``naive_count`` enumerates the
whole box and serves the self-checks as a second route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial


def g(k: int, n: int) -> int:
    """Anti-blocking bound on the sum of the k largest coordinates of P(m,n)."""
    return sum(max(n - i, 0) for i in range(k))


def count(m: int, n: int, t: int, interior: bool = False) -> int:
    """Lattice points of t*P(m,n); with ``interior`` only the strict interior."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    bound = [t * g(k, n) for k in range(m + 1)]
    low = 1 if interior else 0
    # states: (positions filled, prefix sum) -> weighted number of placements
    states = {(0, 0): 1}
    for v in range(t * n, low - 1, -1):
        nxt = dict(states)
        for (k, s), ways in states.items():
            ss = s
            for c in range(1, m - k + 1):
                ss += v
                if ss > bound[k + c] or (interior and ss == bound[k + c]):
                    break
                key = (k + c, ss)
                nxt[key] = nxt.get(key, 0) + ways * comb(m - k, c)
        states = nxt
    return sum(w for (k, _), w in states.items() if k == m)


def contains(x, n: int, t: int = 1, interior: bool = False) -> bool:
    """Membership of an integer point in t*P(m,n) by the anti-blocking rows."""
    if any(v < (1 if interior else 0) for v in x):
        return False
    s = 0
    for k, v in enumerate(sorted(x, reverse=True), start=1):
        s += v
        if s > t * g(k, n) or (interior and s == t * g(k, n)):
            return False
    return True


def naive_count(m: int, n: int, t: int, interior: bool = False) -> int:
    """Box enumeration of t*P(m,n); for small cases only."""
    return sum(1 for x in product(range(t * n + 1), repeat=m)
               if contains(x, n, t, interior))


def interpolate(points):
    """Lagrange interpolation: coefficient list (low to high) of the unique
    polynomial of degree < len(points) through the (x, y) pairs."""
    k = len(points)
    out = [Fraction(0)] * k
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for d in range(len(basis) - 1):
                basis[d] -= xj * basis[d + 1]
            denom *= xi - xj
        for d in range(k):
            out[d] += yi * basis[d] / denom
    return out


def evaluate(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def ehrhart(m: int, n: int):
    """Ehrhart polynomial of P(m,n) from counts at t = 0..m, low to high."""
    return interpolate([(t, count(m, n, t)) for t in range(m + 1)])


def volume(m: int, n: int) -> int:
    """Normalized volume: m! times the leading Ehrhart coefficient."""
    lead = ehrhart(m, n)[m] * factorial(m)
    if lead.denominator != 1:
        raise ArithmeticError(f"non-integral normalized volume for P({m},{n})")
    return int(lead)


def vertices(m: int, n: int):
    """Sorted vertex list: the top k values of [n] placed injectively."""
    pts = set()
    for k in range(min(m, n) + 1):
        for pos in permutations(range(m), k):
            v = [0] * m
            for p, val in zip(pos, range(n, n - k, -1)):
                v[p] = val
            pts.add(tuple(v))
    return sorted(pts)


def facets(m: int, n: int):
    """Facet rows (coefficients, rhs) of a . x <= rhs, as a set."""
    rows = set()
    for i in range(m):
        rows.add((tuple(-1 if j == i else 0 for j in range(m)), 0))
    for k in range(1, m + 1):
        if k <= n - 1 or k == m:
            for s in combinations(range(m), k):
                rows.add((tuple(1 if j in s else 0 for j in range(m)), g(k, n)))
    return rows


def f0(m: int, n: int) -> int:
    return sum(factorial(m) // factorial(m - k) for k in range(min(m, n) + 1))


def f_facets(m: int, n: int) -> int:
    return m + sum(comb(m, k) for k in range(1, m + 1) if k <= n - 1 or k == m)


def fvector_properties(fv, m: int, n: int):
    """Names of the f-vector properties that ``fv`` violates (empty if none).

    f_0 counts the vertices, f_{m-1} the facets, f_m = 1, Euler's relation
    sum (-1)^i f_i = 1 holds, and P(m,n) is simple, so 2 f_1 = m f_0.
    """
    bad = []
    if len(fv) != m + 1:
        return ["length"]
    if fv[0] != f0(m, n):
        bad.append("f0")
    if fv[m - 1] != f_facets(m, n):
        bad.append("facets")
    if fv[m] != 1:
        bad.append("top")
    if sum((-1) ** i * f for i, f in enumerate(fv)) != 1:
        bad.append("euler")
    if m >= 2 and 2 * fv[1] != m * fv[0]:
        bad.append("simple")
    return bad


def compose_shift(coeffs):
    """Coefficients of p(t-1) from those of p(t), low to high."""
    out = [Fraction(0)] * len(coeffs)
    for d, c in enumerate(coeffs):
        for j in range(d + 1):
            out[j] += c * comb(d, j) * (-1) ** (d - j)
    return out


def in_family(chain, m: int, n: int) -> bool:
    """The width rule: |A_l - A_1| <= n-1 when A_1 is nonempty, else
    |A_l - A_2| <= n-1 when there is an A_2; the chain (empty set) counts."""
    c = [frozenset(a) for a in chain]
    if not c or any(not a < b for a, b in zip(c, c[1:])):
        return False
    if any(not a <= frozenset(range(1, m + 1)) for a in c):
        return False
    if c[0]:
        return len(c[-1] - c[0]) <= n - 1
    if len(c) >= 2:
        return len(c[-1] - c[1]) <= n - 1
    return True


def chains(m: int, n: int):
    """All chains of the face-indexing family, as tuples of sorted tuples."""
    subsets = [frozenset(s) for r in range(m + 1)
               for s in combinations(range(1, m + 1), r)]
    out = []

    # The width only grows as a chain grows, so a prefix outside the family
    # has no extension inside it.
    def grow(chain):
        out.append(tuple(tuple(sorted(a)) for a in chain))
        for s in subsets:
            if chain[-1] < s and in_family(chain + [s], m, n):
                grow(chain + [s])

    for s in subsets:
        if in_family([s], m, n):
            grow([s])
    return sorted(out)


def face_of_chain(chain, m: int, n: int):
    """Vertices of the face indexed by a chain, read off the vertex list:
    zero outside A_l, and x(A_l - A_j) = g(|A_l - A_j|) for every j."""
    c = [frozenset(a) for a in chain]
    top = c[-1]
    rows = [(top - a, g(len(top - a), n)) for a in c]
    return [v for v in vertices(m, n)
            if all(v[i - 1] == 0 for i in range(1, m + 1) if i not in top)
            and all(sum(v[i - 1] for i in s) == b for s, b in rows)]


def affine_rank(points) -> int:
    """Dimension of the affine hull of a nonempty point list."""
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def aux1_volume(m: int) -> int:
    """Normalized volume of the first auxiliary polytope."""
    return 2 ** m - 3 ** m + m * 3 ** (m - 1)


def aux2_volume(m: int) -> int:
    """Normalized volume of the second auxiliary polytope."""
    return 3 * m * m - 6 * m + 1
