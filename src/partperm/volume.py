"""Normalized volumes of P(m,n) by several independent exact engines.

``v(m,n)`` denotes the normalized volume: m! times the Euclidean volume,
an integer for lattice polytopes.  Engines implemented here:

* ``nvol_oracle``      — lattice-point counting: leading Ehrhart coefficient
                         times m! (oracle domain only; ground truth);
* ``nvol_recursive``   — a facet-coning recursion over the non-origin
                         facets, valid for n >= m-1;
* ``nvol_closed``      — three closed forms (a double sum in 2n, a single
                         sum in 2n+1, and (m!)^2 [z^m] sqrt(1-z)e^{(n+1/2)z}),
                         cross-checked against each other;
* ``nvol_three_term``  — a three-term recurrence in k for W = v/m!;
* ``nvol_draconian``   — a sum of multinomial coefficients times powers of
                         (n-m+1) over draconian sequences, taken shape by
                         shape from the census, n >= m-1;
* ``nvol_lambda``      — a permutation sum with free distinct parameters
                         lambda_1..lambda_{m+1} whose value is independent
                         of the lambdas, n >= m-1;
* ``nvol_small_n``     — closed formulas for n <= 4 valid for every m.

``VOLUME_ENGINES`` is the ordered table of these engines, method name ->
(domain, value); each engine validates its arguments with the same domain
predicate.

``nvol_poly`` packages v(m,n) as a polynomial in n (closed form) or in
N = n-m+1 (draconian form); ``conj_vmn_fit`` fits the conjectural
alternating expansion v(m,n) = C(n+1,2)^m - m C(n,2)^m - sum_i p_{n,i}(m)
C(n-i,2)^m exactly and reports the degrees and leading signs of the fitted
polynomials p_{n,i}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .combinat import (
    DRACONIAN_MAX_M,
    Engine,
    draconian_census,
    draconian_domain,
    oracle_domain,
    require_draconian,
    require_oracle,
)
from .exactmath import (
    EngineDisagreement,
    Polynomial,
    Series,
    double_factorial,
    series_coeff,
    series_exp,
    solve_linear,
    sqrt_one_minus,
)
from .polytope import VRep, count_points, hull_convert, vertex_box
from . import ehrhart as _ehrhart


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _integral(val: Fraction, what: str) -> int:
    """val as an int; a fractional normalized volume is an engine fault."""
    if val.denominator != 1:
        raise EngineDisagreement(f"{what} gave the non-integral volume {val}")
    return int(val)


# nvol_lambda sums over the (m+1)! permutations of S_{m+1}.
LAMBDA_MAX_M = 5


def polynomial_domain(m: int, n: int) -> bool:
    """n >= m-1, where v(m,n) is the polynomial nvol_poly(m, "n"): the domain
    of the recursive, closed and three-term engines."""
    return m >= 1 and n >= m - 1


def lambda_domain(m: int, n: int) -> bool:
    """The domain of nvol_lambda: n >= m-1 with m capped."""
    return 1 <= m <= LAMBDA_MAX_M and n >= m - 1


def small_n_domain(m: int, n: int) -> bool:
    """The domain of nvol_small_n: 0 <= n <= 4, every m."""
    return m >= 1 and 0 <= n <= 4


def nvol_oracle(m: int, n: int) -> int:
    """Ground-truth normalized volume from exact lattice-point counts.

    m! times the leading coefficient of the Ehrhart polynomial that
    ``ehr_interpolate`` builds from ``pp_count``; restricted to the oracle
    domain m <= ORACLE_MAX_M, n <= ORACLE_MAX_N.
    """
    require_oracle("nvol_oracle", m, n)
    poly = _ehrhart.ehr_interpolate(m, n)
    lead = poly.coefficient(m) * factorial(m)
    if lead.denominator != 1:
        raise EngineDisagreement(
            f"leading Ehrhart coefficient of P({m},{n}) is not 1/m! integral"
        )
    return int(lead)


def nvol_of_vrep(v: VRep) -> int:
    """Normalized volume of an arbitrary full-dimensional lattice polytope.

    Facets by exact hull conversion, then generic lattice counts at
    t = 0..dim, interpolation verified at t = dim+1, and m! times the
    leading coefficient.  Affordable only for small vertex sets; used to
    audit auxiliary polytope formulas.
    """
    m = v.dim
    h = hull_convert(v)
    box = vertex_box(v.points)
    poly = _ehrhart.interpolate_counts(
        lambda t: count_points(h, t, box=box), m,
        f"the hull of {len(v.points)} points in dimension {m}",
    )
    lead = poly.coefficient(m) * factorial(m)
    if lead.denominator != 1:
        raise EngineDisagreement("normalized volume came out non-integral")
    return int(lead)


@lru_cache(maxsize=None)
def _nvol_rec(m: int, n: int) -> Fraction:
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(max(n, 0))
    total = Fraction(0)
    for k in range(1, m + 1):
        trees = 1 if k == 1 else k ** (k - 2)
        sub = _nvol_rec(m - k, n - k) / factorial(m - k)
        cap = k * n - comb(k, 2)
        total += trees * sub * cap * comb(m, k)
    return factorial(m - 1) * total


def nvol_recursive(m: int, n: int) -> int:
    """Facet-coning recursion: cones from the origin over the non-origin
    facets, each contributing a forest-counting factor k^{k-2}, a smaller
    partial permutohedron, and the facet height kn - C(k,2).  Valid for
    n >= m-1.
    """
    _require(polynomial_domain(m, n), "nvol_recursive requires m >= 1 and n >= m-1")
    return _integral(_nvol_rec(m, n), f"nvol_recursive({m},{n})")


def nvol_closed(m: int, n: int) -> Tuple[int, int, int]:
    """Three closed forms of v(m,n), cross-checked; returns all three.

    (1) -(m!/2^m) sum_{0<=i<=j<=m} C(m,j) C(j,i) (2i-3)!! (2n)^{m-j};
    (2) -(m!/2^m) sum_{i=0}^{m} C(m,i) (2i-3)!! (2n+1)^{m-i};
    (3) (m!)^2 [z^m] sqrt(1-z) e^{(n+1/2)z}.
    All use the convention (-3)!! = -1 baked into double_factorial.
    """
    _require(polynomial_domain(m, n), "nvol_closed requires m >= 1 and n >= m-1")
    scale = -Fraction(factorial(m), 2**m)
    s1 = Fraction(0)
    for j in range(m + 1):
        for i in range(j + 1):
            s1 += comb(m, j) * comb(j, i) * double_factorial(i) * (2 * n) ** (m - j)
    v1 = scale * s1
    s2 = Fraction(0)
    for i in range(m + 1):
        s2 += comb(m, i) * double_factorial(i) * (2 * n + 1) ** (m - i)
    v2 = scale * s2
    z = Series([0, 1], m)
    root = sqrt_one_minus(z)
    expo = Series([Fraction(0), Fraction(2 * n + 1, 2)], m)
    v3 = series_coeff(root * series_exp(expo), m) * factorial(m) ** 2
    if not (v1 == v2 == v3 and v1.denominator == 1):
        raise EngineDisagreement(f"closed volume forms disagree at ({m},{n})")
    return int(v1), int(v2), int(v3)


def nvol_three_term(m: int, n: int) -> int:
    """Three-term recurrence for W_k = v(k,n)/k!:
    W_0 = 1, W_1 = n, W_k = (k+n-1) W_{k-1} - (k-1)(n+1/2) W_{k-2}.
    """
    _require(polynomial_domain(m, n), "nvol_three_term requires m >= 1 and n >= m-1")
    w_prev, w = Fraction(1), Fraction(n)
    for k in range(2, m + 1):
        w_prev, w = w, (k + n - 1) * w - (k - 1) * (n + Fraction(1, 2)) * w_prev
    return _integral(w * factorial(m), f"nvol_three_term({m},{n})")


def _draconian_terms(m: int):
    """(census, multinomial, s) per volume-mode shape; the multinomial
    m!/prod a_k! of a sequence of shape (s, p1, p2) is m!/2^p2."""
    for (s, _, p2), count in draconian_census(m, "volume").items():
        yield count, factorial(m) // 2**p2, s


def nvol_draconian(m: int, n: int) -> int:
    """Draconian-sequence sum for v(m,n), n >= m-1 (m <= DRACONIAN_MAX_M).

    The sum over volume-mode sequences of the multinomial coefficient times
    (n-m+1)^{total on singletons}, taken over the shape census, not over
    the sequences.
    """
    require_draconian("nvol_draconian", m, n)
    base = n - m + 1
    return sum(count * multinomial * base**s
               for count, multinomial, s in _draconian_terms(m))


def nvol_lambda(m: int, n: int, lam: Optional[Sequence] = None) -> Fraction:
    """Permutation-sum volume formula with free parameters (n >= m-1,
    m <= LAMBDA_MAX_M).

    For any pairwise distinct lambda_1..lambda_{m+1},

        v(m,n) = sum_{sigma in S_{m+1}}  A(sigma)^m / prod_{i=1}^{m}
                 (lambda_{sigma(i)} - lambda_{sigma(i+1)}),

    where, with p the position of m+1 in sigma,
    A(sigma) = sum_{i<p} (n-i+1) lambda_{sigma(i)}
               + (m-p+1)(2n-m-p+2)/2 * lambda_{m+1}.
    The value is independent of the lambdas; the default is (1,...,m+1).
    """
    from itertools import permutations as _perms

    _require(lambda_domain(m, n),
             f"nvol_lambda requires 1 <= m <= {LAMBDA_MAX_M} and n >= m-1")
    if lam is None:
        lam = tuple(range(1, m + 2))
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != m + 1:
        raise ValueError("need exactly m+1 lambda values")
    if len(set(lam)) != m + 1:
        raise ValueError("lambda values must be pairwise distinct")
    total = Fraction(0)
    for sigma in _perms(range(1, m + 2)):
        p = sigma.index(m + 1) + 1
        acc = Fraction(0)
        for i in range(1, p):
            acc += (n - i + 1) * lam[sigma[i - 1] - 1]
        acc += Fraction((m - p + 1) * (2 * n - m - p + 2), 2) * lam[m]
        denom = Fraction(1)
        for i in range(m):
            denom *= lam[sigma[i] - 1] - lam[sigma[i + 1] - 1]
        total += acc**m / denom
    return total


def nvol_small_n(m: int, n: int) -> int:
    """Closed volume formulas for 0 <= n <= 4, valid for every m >= 1.

    v(m,0) = 0 (P(m,0) is the origin);  v(m,1) = 1;  v(m,2) = 3^m - m;
    v(m,3) = 6^m - m 3^m - (m-1) C(m,2);
    v(m,4) = 10^m - m 6^m - [m(m-1)(m-3)/6] 3^m - (3m^2-6m+1) C(m,3).
    """
    _require(small_n_domain(m, n), "nvol_small_n covers only m >= 1, 0 <= n <= 4")
    if n == 0:
        return 0
    if n == 1:
        return 1
    if n == 2:
        return 3**m - m
    if n == 3:
        return 6**m - m * 3**m - (m - 1) * comb(m, 2)
    val = (
        Fraction(10**m)
        - m * Fraction(6**m)
        - Fraction(m * (m - 1) * (m - 3), 6) * 3**m
        - (3 * m * m - 6 * m + 1) * comb(m, 3)
    )
    return _integral(val, f"nvol_small_n({m},{n})")


# Method name -> Engine, in the order the CLI offers them.  Each value looks
# its engine up in this module at call time, so patched or traced engines
# are the ones called.
VOLUME_ENGINES: Dict[str, Engine] = {
    "oracle": Engine(oracle_domain, lambda m, n: nvol_oracle(m, n)),
    "recursive": Engine(polynomial_domain, lambda m, n: nvol_recursive(m, n)),
    "closed": Engine(polynomial_domain, lambda m, n: nvol_closed(m, n)[0]),
    "three_term": Engine(polynomial_domain, lambda m, n: nvol_three_term(m, n)),
    "draconian": Engine(draconian_domain, lambda m, n: nvol_draconian(m, n)),
    "lambda": Engine(lambda_domain, lambda m, n: _integral(
        nvol_lambda(m, n), f"nvol_lambda({m},{n})")),
    "small_n": Engine(small_n_domain, lambda m, n: nvol_small_n(m, n)),
}


def nvol_poly(m: int, variable: str = "n") -> Polynomial:
    """v(m, .) as an exact polynomial.

    variable 'n' (m <= 8): expansion of the closed forms in n, with the two
    independent closed forms cross-checked; leading coefficient m!, all
    lower coefficients nonpositive integers.
    variable 'N' (m <= DRACONIAN_MAX_M): expansion of the draconian sum in
    N = n-m+1;
    all coefficients positive integers, leading coefficient m!.
    """
    if variable == "n":
        _require(1 <= m <= 8, "nvol_poly in n is limited to m <= 8")
        scale = -Fraction(factorial(m), 2**m)
        coef1 = [Fraction(0)] * (m + 1)
        for j in range(m + 1):
            for i in range(j + 1):
                coef1[m - j] += (
                    comb(m, j) * comb(j, i) * double_factorial(i) * 2 ** (m - j)
                )
        poly1 = Polynomial([scale * c for c in coef1])
        coef2 = [Fraction(0)] * (m + 1)
        for i in range(m + 1):
            for d in range(m - i + 1):
                coef2[d] += comb(m, i) * double_factorial(i) * comb(m - i, d) * 2**d
        poly2 = Polynomial([scale * c for c in coef2])
        if poly1 != poly2:
            raise EngineDisagreement("the two closed n-polynomial forms disagree")
        if any(c.denominator != 1 for c in poly1.coeffs):
            raise EngineDisagreement(f"v({m}, n) has a non-integral coefficient")
        return poly1
    if variable == "N":
        _require(
            1 <= m <= DRACONIAN_MAX_M,
            f"nvol_poly in N is limited to 1 <= m <= {DRACONIAN_MAX_M}",
        )
        coef = [0] * (m + 1)
        for count, multinomial, s in _draconian_terms(m):
            coef[s] += count * multinomial
        return Polynomial(coef)
    raise ValueError(f"unknown nvol_poly variable {variable!r}")


def aux1_vertices(m: int) -> VRep:
    """First auxiliary polytope: conv{4e1+4e2+2w, 4e1+3e2+3w, 3e1+4e2+3w}
    over w in {0, e3, ..., em}; normalized volume 2^m - 3^m + m 3^{m-1}.
    """
    _require(m >= 3, "aux1_vertices requires m >= 3")
    ws = [tuple(0 for _ in range(m))]
    for j in range(3, m + 1):
        w = [0] * m
        w[j - 1] = 1
        ws.append(tuple(w))
    pts = []
    for w in ws:
        for c1, c2, cw in ((4, 4, 2), (4, 3, 3), (3, 4, 3)):
            p = [cw * x for x in w]
            p[0] += c1
            p[1] += c2
            pts.append(tuple(p))
    return VRep(tuple(sorted(set(pts))), m)


def aux1_nvol(m: int) -> int:
    """Normalized volume 2^m - 3^m + m 3^{m-1} of the first auxiliary polytope."""
    _require(m >= 3, "aux1_nvol requires m >= 3")
    return 2**m - 3**m + m * 3 ** (m - 1)


def aux2_vertices(m: int) -> VRep:
    """Second auxiliary polytope: three apexes 4e1+3e2+3e3 (cyclically) plus
    the product of the permutohedron of (4,3,2) in coordinates 1..3 with the
    simplex conv{0, e4, ..., em}; normalized volume 3m^2 - 6m + 1.
    """
    from itertools import permutations as _perms

    _require(m >= 3, "aux2_vertices requires m >= 3")
    pts = []
    for apex in ((4, 3, 3), (3, 4, 3), (3, 3, 4)):
        p = list(apex) + [0] * (m - 3)
        pts.append(tuple(p))
    ws = [tuple(0 for _ in range(m - 3))]
    for j in range(m - 3):
        w = [0] * (m - 3)
        w[j] = 1
        ws.append(tuple(w))
    for perm in _perms((4, 3, 2)):
        for w in ws:
            pts.append(tuple(perm) + w)
    return VRep(tuple(sorted(set(pts))), m)


def aux2_nvol(m: int) -> int:
    """Normalized volume 3m^2 - 6m + 1 of the second auxiliary polytope."""
    _require(m >= 3, "aux2_nvol requires m >= 3")
    return 3 * m * m - 6 * m + 1


def conj_vmn_fit(n: int, m_values: Optional[Sequence[int]] = None) -> Dict:
    """Exact fit of the conjectural alternating volume expansion at fixed n.

    Writes v(m,n) = C(n+1,2)^m - m C(n,2)^m - sum_{i=1}^{n-2} p_{n,i}(m)
    C(n-i,2)^m with unknown polynomials p_{n,i} of degree 2i+1, solves for
    their coefficients exactly from small m, verifies on extra m, and
    reports each fitted degree and leading sign.  Data comes from the
    small-n closed volumes, so n is limited to 2..4.
    """
    _require(2 <= n <= 4, "conj_vmn_fit is limited to 2 <= n <= 4")
    terms = list(range(1, n - 1))  # i = 1..n-2
    widths = [2 * i + 2 for i in terms]  # p_{n,i} has degree 2i+1
    nunk = sum(widths)
    if m_values is None:
        m_values = list(range(1, nunk + 4))
    m_values = list(m_values)
    if len(m_values) < nunk + 1:
        raise ValueError("need at least one more m value than unknowns")

    def rhs(m: int) -> int:
        return comb(n + 1, 2) ** m - m * comb(n, 2) ** m - nvol_small_n(m, n)

    def row(m: int) -> List[int]:
        r = []
        for i, width in zip(terms, widths):
            base = comb(n - i, 2) ** m
            for d in range(width):
                r.append(m**d * base)
        return r

    report: Dict = {"n": n, "fit_m": m_values[:nunk], "check_m": m_values[nunk:]}
    if nunk == 0:
        ok = all(rhs(m) == 0 for m in m_values)
        report.update({"consistent": ok, "polynomials": {}})
        return report
    sol = solve_linear([row(m) for m in m_values[:nunk]], [rhs(m) for m in m_values[:nunk]])
    if sol is None:
        report.update({"consistent": False, "polynomials": {}})
        return report
    ok = all(
        sum(c * v for c, v in zip(row(m), sol)) == rhs(m) for m in m_values[nunk:]
    )
    polys = {}
    offset = 0
    for i, width in zip(terms, widths):
        coeffs = sol[offset : offset + width]
        offset += width
        p = Polynomial(coeffs)
        polys[i] = {
            "coefficients": p.to_strings(),
            "degree": p.degree,
            "leading": str(p.coefficient(p.degree)) if not p.is_zero() else "0",
            "leading_positive": (not p.is_zero()) and p.coefficient(p.degree) > 0,
            "stated_degree": 2 * i + 1,
            "matches_stated_degree": p.degree == 2 * i + 1,
        }
    report.update({"consistent": ok, "polynomials": polys})
    return report
