"""Normalized volumes of P(m,n) by several independent exact engines.

``v(m,n)`` denotes the normalized volume: m! times the Euclidean volume,
an integer for lattice polytopes.  Engines implemented here:

* ``nvol_oracle``      — lattice-point counting: leading Ehrhart coefficient
                         times m! (oracle domain only; ground truth);
* ``nvol_recursive``   — a facet-coning recursion over the non-origin
                         facets, valid for n >= m-1;
* ``nvol_closed``      — the closed form (m!)^2 [z^m] sqrt(1-z)e^{(n+1/2)z},
                         read as -(m!/2^m) Q_m(2n+1) with Q_m an integer
                         polynomial, n >= m-1;
* ``nvol_three_term``  — a three-term recurrence in k for W = v/m!;
* ``nvol_draconian``   — a sum of multinomial coefficients times powers of
                         (n-m+1) over draconian sequences, by the weighted
                         exponential formula ``draconian_sum``, n >= m-1;
* ``nvol_lambda``      — a permutation sum with free distinct parameters
                         lambda_1..lambda_{m+1} whose value is independent
                         of the lambdas, n >= m-1;
* ``nvol_small_n``     — closed formulas for n <= 4 valid for every m.

``VOLUME_ENGINES`` is the ordered table of these engines, method name ->
(domain, value).  Each domain (a ``combinat.Domain``) is the one statement
of its engine's range, bounds included (``NVOL_*_WORK_MAX``,
``LAMBDA_MAX_M``, ``NVOL_SMALL_N_MAX_M``), and each engine refuses a shape
outside it up front through ``domain.require``.

``nvol_poly`` packages v(m,n) as a polynomial in n (closed form) or in
N = n-m+1 (draconian form); ``conj_vmn_fit`` fits the conjectural
alternating expansion v(m,n) = C(n+1,2)^m - m C(n,2)^m - sum_i p_{n,i}(m)
C(n-i,2)^m exactly and reports the degrees and leading signs of the fitted
polynomials p_{n,i}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm, prod
from typing import Dict, List, Optional, Sequence

from .combinat import (
    Bound,
    Domain,
    Engine,
    Rule,
    draconian_coefficients,
    draconian_domain,
    draconian_sum,
    oracle_domain,
    polynomial_domain,
)
from .exactmath import EngineDisagreement, Polynomial, solve_linear
from .polytope import VRep, count_points, hull_convert, pp_profile, vertex_box
from . import ehrhart as _ehrhart
from .ehrhart import quadratic_work, value_bits


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


# Work bounds of the recursive, closed and three-term engines, each at most
# about 2 s at its edge (2-core VM, Python 3.11): recursive 0.6 s at
# (390,390) and 1.6 s at (42, 10^4299); three-term 1.4 s at (5926,5926) and
# 1.2 s at (88, 10^4299).  The closed engine, one Horner evaluation of Q_m
# (nvol_closed_work), takes 0.1-0.2 s at (1746,1746) and 0.2-0.4 s at
# (68, 10^4299).  Its bound stops there, short of 2 s, so that every engine
# still refuses (100, 10^4000): at 2^27 closed would admit it (0.5 s).
NVOL_RECURSIVE_WORK_MAX = 2**30
NVOL_CLOSED_WORK_MAX = 2**26
NVOL_THREE_TERM_WORK_MAX = 2**47

# nvol_small_n raises 10 to the m-th power; m = 2^20 takes 0.7 s.
NVOL_SMALL_N_MAX_M = 2**20


def nvol_closed_work(m: int, n: int) -> int:
    """The work of the closed engine, one Horner evaluation of Q_m: m steps
    on integers of up to value_bits(m, n) bits."""
    return m * value_bits(m, n)


def nvol_three_term_work(m: int, n: int) -> int:
    """The work of the three-term engine: m Fraction steps, each reducing by
    a gcd quadratic in the size value_bits(m, n)."""
    return m * value_bits(m, n) ** 2


# The domain of each engine (polynomial_domain and the draconian and oracle
# domains are declared in combinat), work bounds included.
recursive_domain = Domain(polynomial_domain,
                          Bound("NVOL_RECURSIVE_WORK_MAX", globals(), "work", quadratic_work))
closed_domain = Domain(polynomial_domain,
                       Bound("NVOL_CLOSED_WORK_MAX", globals(), "work", nvol_closed_work))
three_term_domain = Domain(polynomial_domain, Bound(
    "NVOL_THREE_TERM_WORK_MAX", globals(), "work", nvol_three_term_work))
lambda_domain = Domain(polynomial_domain, Bound("LAMBDA_MAX_M", globals()))
small_n_domain = Domain(
    Rule(lambda m, n: m >= 1 and 0 <= n <= 4, "covers only m >= 1, 0 <= n <= 4"),
    Bound("NVOL_SMALL_N_MAX_M", globals()))
# nvol_poly takes m alone: its forms in n and in N cover P(m, m-1).  In n
# it expands Q_m for the m of the paper's table.
poly_n_domain = Domain(polynomial_domain, Rule(lambda m, n: m <= 8, "is limited to m <= 8"))


def nvol_oracle(m: int, n: int) -> int:
    """Ground-truth normalized volume from exact lattice-point counts.

    m! times the leading coefficient of the Ehrhart polynomial that
    ``ehr_interpolate`` builds from closed and interior ``pp_count`` counts
    paired by reciprocity; restricted to the oracle domain
    m <= ORACLE_MAX_M, n <= ORACLE_MAX_N.
    """
    oracle_domain.require("nvol_oracle", m, n)
    poly = _ehrhart.ehr_interpolate(m, n)
    return _integral(poly.coefficient(m) * factorial(m), f"nvol_oracle({m},{n})")


def nvol_of_vrep(v: VRep) -> int:
    """Normalized volume of an arbitrary full-dimensional lattice polytope.

    Facets by exact hull conversion, then generic closed and interior
    lattice counts, paired by reciprocity in ``interpolate_counts``
    (closed at t = 0..a-1, interior at t = 1..b, a + b = dim+1), the
    interpolant verified against a closed count at t = a, and m! times the
    leading coefficient.  Affordable only for small vertex sets; used to
    audit auxiliary polytope formulas.
    """
    m = v.dim
    h = hull_convert(v)
    box = vertex_box(v.points)
    poly = _ehrhart.interpolate_counts(
        lambda t, interior: count_points(h, t, box=box, interior=interior), m,
        f"the hull of {len(v.points)} points in dimension {m}",
    )
    return _integral(poly.coefficient(m) * factorial(m), "nvol_of_vrep")


def _nvol_rec(m: int, n: int) -> int:
    """v(m,n) for n >= m-1 by the facet-coning recursion, in integers along
    the diagonal d = n-m, which every term keeps: v_0 = 1 and

        v_j = sum_{k=1}^{j} k^{k-2} g_{j+d}(k) C(j,k) (j-1)!/(j-k)! v_{j-k},

    reading k^{k-2} as 1 at k = 1.  The height g_{j+d}(k) is the profile
    value g(k) of P(j, j+d) (``pp_profile``); as k <= j <= j+d+1 it is
    k(j+d) - C(k,2), written inline so the inner loop builds no profile.
    A loop, so no shape exhausts the stack.
    """
    d = n - m
    trees = [1, 1] + [k ** (k - 2) for k in range(2, m + 1)]
    v = [1]
    for j in range(1, m + 1):
        total, ways = 0, j  # ways = C(j,k) (j-1)!/(j-k)!
        for k in range(1, j + 1):
            total += trees[k] * (k * (j + d) - k * (k - 1) // 2) * ways * v[j - k]
            ways = ways * (j - k) ** 2 // (k + 1)
        v.append(total)
    return v[m]


def nvol_recursive(m: int, n: int) -> int:
    """Facet-coning recursion: cones from the origin over the non-origin
    facets, each contributing a forest-counting factor k^{k-2}, a smaller
    partial permutohedron, and the facet height kn - C(k,2).  Valid for
    n >= m-1.
    """
    recursive_domain.require("nvol_recursive", m, n)
    return _integral(_nvol_rec(m, n), f"nvol_recursive({m},{n})")


def _closed_q(m: int) -> Polynomial:
    """Q_m(x) = sum_{i=0}^{m} C(m,i) c_i x^{m-i}, with c_0 = -1 and
    c_i = c_{i-1} (2i-3): the integer polynomial of the closed form."""
    high_to_low, c = [], -1
    for i in range(m + 1):
        high_to_low.append(comb(m, i) * c)
        c *= 2 * i - 1
    return Polynomial(reversed(high_to_low))


def nvol_closed(m: int, n: int) -> int:
    """The closed form v(m,n) = (m!)^2 [z^m] sqrt(1-z) e^{(n+1/2)z}, n >= m-1.

    The coefficient of z^i in sqrt(1-z) is -c_i/(2^i i!) and that of z^j in
    e^{(n+1/2)z} is (2n+1)^j/(2^j j!), so their Cauchy product is
    v(m,n) = -(m!/2^m) Q_m(2n+1), with Q_m from ``_closed_q``.  A
    fractional value raises EngineDisagreement.
    """
    closed_domain.require("nvol_closed", m, n)
    return _integral(Fraction(-factorial(m) * _closed_q(m)(2 * n + 1), 2**m),
                     f"nvol_closed({m},{n})")


def nvol_three_term(m: int, n: int) -> int:
    """Three-term recurrence for W_k = v(k,n)/k!:
    W_0 = 1, W_1 = n, W_k = (k+n-1) W_{k-1} - (k-1)(n+1/2) W_{k-2}.
    """
    three_term_domain.require("nvol_three_term", m, n)
    w_prev, w = Fraction(1), Fraction(n)
    for k in range(2, m + 1):
        w_prev, w = w, (k + n - 1) * w - (k - 1) * (n + Fraction(1, 2)) * w_prev
    return _integral(w * factorial(m), f"nvol_three_term({m},{n})")


def nvol_draconian(m: int, n: int) -> int:
    """Draconian-sequence sum for v(m,n), n >= m-1 (m <= DRACONIAN_MAX_M).

    The sum over volume-mode sequences of m!/prod a_k! times (n-m+1)^{total on
    singletons}; a sequence of shape (s, p1, p2) has m!/prod a_k! = m!/2^p2,
    so it is m!/2^m times ``draconian_sum`` with weight (n-m+1)^s 2^(v-p2).
    """
    draconian_domain.require("nvol_draconian", m, n)
    base = n - m + 1
    total = draconian_sum(m, "volume", lambda v, shape: base ** shape[0] * 2 ** (v - shape[2]))
    return _integral(Fraction(factorial(m) * total, 2**m), f"nvol_draconian({m},{n})")


def nvol_lambda(m: int, n: int, lam: Optional[Sequence] = None) -> Fraction:
    """Permutation-sum volume formula with free parameters (n >= m-1,
    m <= LAMBDA_MAX_M).

    For any pairwise distinct lambda_1..lambda_{m+1},

        v(m,n) = sum_{sigma in S_{m+1}}  A(sigma)^m / prod_{i=1}^{m}
                 (lambda_{sigma(i)} - lambda_{sigma(i+1)}),

    where, with p the 0-based position of m+1 in sigma and g the profile
    of P(m,n) (``pp_profile``, z_i = g(i) - g(i-1)),
    A(sigma) = sum_{i<p} z_{i+1} lambda_{sigma(i)} + (g(m) - g(p)) lambda_{m+1}.
    The value is independent of the lambdas; the default is (1,...,m+1).

    Every term is homogeneous of degree 0 in lambda (A^m and the product
    of m differences both have degree m), so the lambdas are first scaled
    by the lcm of their denominators to integers.  Then A is an integer,
    and all (m+1)! terms are summed as integers A^m, grouped by their
    integer product of differences; one Fraction is built per distinct
    product at the end.
    """
    lambda_domain.require("nvol_lambda", m, n)
    if lam is None:
        lam = tuple(range(1, m + 2))
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != m + 1:
        raise ValueError("need exactly m+1 lambda values")
    if len(set(lam)) != m + 1:
        raise ValueError("lambda values must be pairwise distinct")
    scale = lcm(*(x.denominator for x in lam))
    mu = [int(x * scale) for x in lam]
    g = pp_profile(m, n)
    # sigma runs over orderings of the indices 0..m; index m is lambda_{m+1}
    sums: Dict[int, int] = {}
    for sigma in permutations(range(m + 1)):
        p = sigma.index(m)
        a = sum((g[i + 1] - g[i]) * mu[sigma[i]] for i in range(p)) + (g[m] - g[p]) * mu[m]
        denom = prod(mu[sigma[i]] - mu[sigma[i + 1]] for i in range(m))
        sums[denom] = sums.get(denom, 0) + a**m
    return sum((Fraction(s, denom) for denom, s in sums.items()), Fraction(0))


def nvol_small_n(m: int, n: int) -> int:
    """Closed volume formulas for 0 <= n <= 4, valid for every m >= 1.

    v(m,0) = 0 (P(m,0) is the origin);  v(m,1) = 1;  v(m,2) = 3^m - m;
    v(m,3) = 6^m - m 3^m - (m-1) C(m,2);
    v(m,4) = 10^m - m 6^m - [m(m-1)(m-3)/6] 3^m - (3m^2-6m+1) C(m,3).
    """
    small_n_domain.require("nvol_small_n", m, n)
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
    "recursive": Engine(recursive_domain, lambda m, n: nvol_recursive(m, n)),
    "closed": Engine(closed_domain, lambda m, n: nvol_closed(m, n)),
    "three_term": Engine(three_term_domain, lambda m, n: nvol_three_term(m, n)),
    "draconian": Engine(draconian_domain, lambda m, n: nvol_draconian(m, n)),
    "lambda": Engine(lambda_domain, lambda m, n: _integral(
        nvol_lambda(m, n), f"nvol_lambda({m},{n})")),
    "small_n": Engine(small_n_domain, lambda m, n: nvol_small_n(m, n)),
}


def nvol_poly(m: int, variable: str = "n") -> Polynomial:
    """v(m, .) as an exact polynomial.

    variable 'n' (m <= 8, ``poly_n_domain``): the closed form
    -(m!/2^m) Q_m(2n+1) expanded in n; leading coefficient m!, all lower
    coefficients nonpositive integers.
    variable 'N' (m <= DRACONIAN_MAX_M): the draconian sum in N = n-m+1,
    component weight N^s 2^(v-p2); all coefficients positive integers,
    leading coefficient m!.
    """
    if variable == "n":
        poly_n_domain.require("nvol_poly in n", m, m - 1)
        poly = _closed_q(m)(Polynomial([1, 2])) * Fraction(-factorial(m), 2**m)
        if any(c.denominator != 1 for c in poly.coeffs):
            raise EngineDisagreement(f"v({m}, n) has a non-integral coefficient")
        return poly
    if variable == "N":
        draconian_domain.require("nvol_poly in N", m, m - 1)
        coeffs = draconian_coefficients(
            m, "volume", lambda x, v, shape: x ** shape[0] * 2 ** (v - shape[2]))
        return Polynomial([_integral(Fraction(factorial(m) * c, 2**m), f"v({m}, N)")
                           for c in coeffs])
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
    for perm in permutations((4, 3, 2)):
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
