"""Ehrhart polynomials of P(m,n): counting, closed forms, and conjectures.

ehr(P, t) = #(tP intersect Z^m) is a degree-m polynomial in t.  Routes:

* ``ehr_interpolate``   — exact counts at t = 0..m by the symmetric counter
                          ``pp_count``, interpolated, then verified against
                          a fresh count at t = m+1;
* ``ehr_closed_small_n`` — closed forms for n <= 3, every m;
* ``ehr_closed_small_m`` — closed forms for m <= 4 (n >= max(1, m-1));
* ``ehr_draconian``     — a positive sum of products of binomials over
                          draconian sequences, taken shape by shape from
                          the census (n >= m-1, m <= DRACONIAN_MAX_M);
* ``ehr_parking``       — the pairs-only specialization at n = m-1, whose
                          summand count equals the lattice-point count of
                          P(m, m-1) itself;
* ``ehr_conjecture``    — two conjectural closed forms (a finite double
                          sum and m! [z^m] sqrt(1-tz)e^{(nt+t/2+1)z-tz^2/4}),
                          cross-checked against each other;
* ``ehr_recurrence``    — a conjectural three-term recurrence in m.

``EHRHART_ENGINES`` is the ordered table of the four proved routes, method
name -> (domain, value); each validates its arguments with the same domain
predicate.

Also here: h*-vector helpers (basis change between the monomial and
binomial-coefficient bases) and the closed quasi-difference polynomial for
the auxiliary four-dimensional cut polytope used in the volume analysis.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, List, Sequence, Tuple

from .combinat import (
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
    binomial_poly,
    double_factorial,
    interpolate,
    series_coeff,
    series_exp,
    solve_linear,
    sqrt_one_minus,
)
from .polytope import pp_count

_INTERP_CACHE: Dict[Tuple[int, int], Polynomial] = {}


def interpolate_counts(count: Callable[[int], int], m: int, what: str) -> Polynomial:
    """Ehrhart polynomial of an m-dimensional lattice polytope from counts.

    ``count(t)`` is the number of lattice points in its t-th dilate.  The
    counts at t = 0..m are interpolated, and the interpolant is verified
    against a fresh count at t = m+1; a mismatch raises EngineDisagreement
    naming ``what``.
    """
    poly = interpolate([(t, count(t)) for t in range(m + 1)])
    fresh = count(m + 1)
    if poly(m + 1) != fresh:
        raise EngineDisagreement(
            f"Ehrhart interpolation of {what} failed its t={m+1} verification: "
            f"the interpolant gives {poly(m + 1)}, the count {fresh}"
        )
    return poly


def ehr_interpolate(m: int, n: int) -> Polynomial:
    """Ehrhart polynomial from exact counts on the oracle domain
    (m <= ORACLE_MAX_M, n <= ORACLE_MAX_N).

    The counts come from ``pp_count`` at t = 0..m, and the interpolant is
    verified against a fresh count at t = m+1; any mismatch raises
    EngineDisagreement.  Results are cached per (m,n).  P(m,0) is the
    origin, so n = 0 yields the constant polynomial 1.
    """
    require_oracle("ehr_interpolate", m, n)
    key = (m, n)
    if key not in _INTERP_CACHE:
        _INTERP_CACHE[key] = interpolate_counts(
            lambda t: pp_count(m, n, t), m, f"P({m},{n})"
        )
    return _INTERP_CACHE[key]


def _tpoly(a0, a1) -> Polynomial:
    return Polynomial([a0, a1])


def small_n_domain(m: int, n: int) -> bool:
    """The domain of ehr_closed_small_n: 0 <= n <= 3, every m."""
    return m >= 1 and 0 <= n <= 3


def small_m_domain(m: int, n: int) -> bool:
    """The domain of ehr_closed_small_m: m <= 4, n >= max(1, m-1)."""
    return 1 <= m <= 4 and n >= max(1, m - 1)


def ehr_closed_small_n(m: int, n: int) -> Polynomial:
    """Closed Ehrhart polynomials for 0 <= n <= 3, valid for every m >= 1.

    n=0: 1 (P(m,0) is the origin);
    n=1: C(t+m, m);
    n=2: C(3t+m, m) - m C(t+m-1, m);
    n=3: C(6t+m, m) - m C(3t+m-1, m)
         - C(m,2) [ C(t+m-1, m) + (m-2) C(t+m-2, m) ].
    """
    if not small_n_domain(m, n):
        raise ValueError("ehr_closed_small_n covers only m >= 1, 0 <= n <= 3")
    if n == 0:
        return Polynomial([1])
    if n == 1:
        return binomial_poly(_tpoly(m, 1), m)
    if n == 2:
        return binomial_poly(_tpoly(m, 3), m) - m * binomial_poly(_tpoly(m - 1, 1), m)
    return (
        binomial_poly(_tpoly(m, 6), m)
        - m * binomial_poly(_tpoly(m - 1, 3), m)
        - comb(m, 2)
        * (
            binomial_poly(_tpoly(m - 1, 1), m)
            + (m - 2) * binomial_poly(_tpoly(m - 2, 1), m)
        )
    )


def ehr_closed_small_m(m: int, n: int) -> Polynomial:
    """Closed Ehrhart polynomials for m <= 4, valid for n >= max(1, m-1).

    Coefficients (highest degree last):
    m=1: 1, n;
    m=2: 1, 2n-1/2, n^2-1/2;
    m=3: 1, 3n-3/2, 3n^2-3n/2-3/2, n^3-3n/2-1;
    m=4: 1, 4n-3, 6n^2-6n-9/4, 4n^3-3n^2-6n-5/2, n^4-3n^2-4n-9/4.
    """
    if not small_m_domain(m, n):
        raise ValueError("ehr_closed_small_m covers only 1 <= m <= 4, n >= max(1, m-1)")
    half = Fraction(1, 2)
    if m == 1:
        return Polynomial([1, n])
    if m == 2:
        return Polynomial([1, 2 * n - half, n * n - half])
    if m == 3:
        return Polynomial(
            [
                1,
                3 * n - Fraction(3, 2),
                3 * n * n - Fraction(3 * n, 2) - Fraction(3, 2),
                n**3 - Fraction(3 * n, 2) - 1,
            ]
        )
    return Polynomial(
        [
            1,
            4 * n - 3,
            6 * n * n - 6 * n - Fraction(9, 4),
            4 * n**3 - 3 * n * n - 6 * n - Fraction(5, 2),
            n**4 - 3 * n * n - 4 * n - Fraction(9, 4),
        ]
    )


def _draconian_sum(census, base: int) -> Polynomial:
    """Sum over shapes of census * (base t)^s t^p1 C(t+1,2)^p2.

    Each term is base^s t^(s+p1+p2) (t+1)^p2 / 2^p2, expanded directly.
    """
    coeffs: Dict[int, Fraction] = {}
    for (s, p1, p2), count in census.items():
        weight = Fraction(count * base**s, 2**p2)
        low = s + p1 + p2
        for j in range(p2 + 1):
            coeffs[low + j] = coeffs.get(low + j, 0) + weight * comb(p2, j)
    return Polynomial([coeffs.get(d, 0) for d in range(max(coeffs) + 1)])


def ehr_draconian(m: int, n: int) -> Polynomial:
    """Draconian-sequence Ehrhart sum (n >= m-1, m <= DRACONIAN_MAX_M):

        sum over sequences a (sum <= m) of
            prod_{singletons i} C((n-m+1)t + a_i - 1, a_i)
          * prod_{pairs k}      C(t + a_k - 1, a_k).

    A summand depends only on the shape (s, p1, p2) of a, where it is
    ((n-m+1)t)^s t^p1 C(t+1,2)^p2, so the sum runs over the shape census.
    """
    require_draconian("ehr_draconian", m, n)
    return _draconian_sum(draconian_census(m, "ehrhart"), n - m + 1)


# Method name -> Engine, in the order the CLI offers them.  Each value looks
# its engine up in this module at call time, so patched or traced engines
# are the ones called.
EHRHART_ENGINES: Dict[str, Engine] = {
    "interpolate": Engine(oracle_domain, lambda m, n: ehr_interpolate(m, n)),
    "small_n": Engine(small_n_domain, lambda m, n: ehr_closed_small_n(m, n)),
    "small_m": Engine(small_m_domain, lambda m, n: ehr_closed_small_m(m, n)),
    "draconian": Engine(draconian_domain, lambda m, n: ehr_draconian(m, n)),
}


def ehr_parking(m: int) -> Tuple[Polynomial, int]:
    """Ehrhart polynomial of P(m, m-1) as a pairs-only draconian sum
    (m <= DRACONIAN_MAX_M).

    Returns (polynomial, number of summands).  Evaluating each binomial
    product at t = 1 gives 1, so the summand count equals the polynomial's
    value at 1, i.e. the lattice-point count of P(m, m-1) itself
    (1, 3, 17, 144, ... for m = 1, 2, 3, 4, ...).
    """
    require_draconian("ehr_parking", m, m - 1)
    pairs_only = {
        shape: count
        for shape, count in draconian_census(m, "ehrhart").items()
        if shape[0] == 0
    }
    return _draconian_sum(pairs_only, 0), sum(pairs_only.values())


def ehr_conjecture(m: int, n: int) -> Tuple[Polynomial, Polynomial, bool]:
    """Two conjectural closed Ehrhart forms, cross-checked (n >= m-1).

    (1) (1/2^m) sum_{i=0}^{floor(m/2)} sum_{j=2i}^{m} (-1)^{i+1}
        m!/((m-j)!(j-2i)!i!) (2(j-2i)-3)!! t^{j-i} (2nt+t+2)^{m-j};
    (2) m! [z^m] sqrt(1-tz) exp((nt+t/2+1)z - (t/4)z^2).
    Both are conjectural; they are verified equal to each other here and
    against interpolation in the test suite.
    """
    if m < 1:
        raise ValueError("ehr_conjecture requires m >= 1")
    if n < m - 1 or n < 0:
        raise ValueError("ehr_conjecture requires n >= m-1")
    t = Polynomial.x()
    base = Polynomial([2, 2 * n + 1])  # (2n+1)t + 2
    total = Polynomial()
    for i in range(m // 2 + 1):
        for j in range(2 * i, m + 1):
            c = Fraction(
                (-1) ** (i + 1) * factorial(m),
                factorial(m - j) * factorial(j - 2 * i) * factorial(i),
            )
            total = total + c * double_factorial(j - 2 * i) * t ** (j - i) * base ** (
                m - j
            )
    p1 = total / Fraction(2**m)

    root = sqrt_one_minus(Series([Polynomial(), t], m))
    expo = Series(
        [
            Polynomial(),
            Polynomial([1, n + Fraction(1, 2)]),
            Polynomial([0, -Fraction(1, 4)]),
        ],
        m,
    )
    coeff = series_coeff(root * series_exp(expo), m)
    if not isinstance(coeff, Polynomial):
        coeff = Polynomial([coeff])
    p2 = coeff * factorial(m)
    if p1 != p2:
        raise EngineDisagreement(f"conjectural Ehrhart forms disagree at ({m},{n})")
    return p1, p2, True


def ehr_recurrence(m: int, n: int) -> Polynomial:
    """Conjectural three-term recurrence in m (empirically exact on the
    verified grid):

        E_k = (kt + nt - t + 1) E_{k-1}
              - (k-1) t (nt + t/2 + 3/2) E_{k-2}
              + (k-1)(k-2)/2 t^2 E_{k-3},      E_0 = 1.
    """
    if m < 0:
        raise ValueError("ehr_recurrence requires m >= 0")
    if n < 0:
        raise ValueError("ehr_recurrence requires n >= 0")
    e: List[Polynomial] = [Polynomial([1])]
    for k in range(1, m + 1):
        term = Polynomial([1, k + n - 1]) * e[k - 1]
        if k >= 2:
            term = term - (k - 1) * Polynomial(
                [0, Fraction(3, 2), n + Fraction(1, 2)]
            ) * e[k - 2]
        if k >= 3:
            term = term + Fraction((k - 1) * (k - 2), 2) * Polynomial([0, 0, 1]) * e[
                k - 3
            ]
        e.append(term)
    return e[m]


def _binom_basis(m: int) -> List[Polynomial]:
    """B_i(t) = C(t + m - i, m) for i = 0..m, the h*-expansion basis."""
    return [binomial_poly(Polynomial([m - i, 1]), m) for i in range(m + 1)]


def to_hstar(poly, m: int) -> List[Fraction]:
    """[h*_0..h*_m] with poly = sum h*_i C(t+m-i, m); ValueError when
    deg(poly) > m."""
    if not isinstance(poly, Polynomial):
        poly = Polynomial(poly)
    if poly.degree > m:
        raise ValueError("polynomial degree exceeds the declared dimension")
    basis = _binom_basis(m)
    a_rows = [[b.coefficient(d) for b in basis] for d in range(m + 1)]
    rhs = [poly.coefficient(d) for d in range(m + 1)]
    sol = solve_linear(a_rows, rhs)
    if sol is None:
        raise EngineDisagreement(f"the degree-{m} binomial basis is not unisolvent")
    return sol


def from_hstar(entries: Sequence) -> Polynomial:
    """The Ehrhart polynomial sum h*_i C(t+m-i, m) of an h*-vector, m = len - 1."""
    total = Polynomial()
    for h, b in zip(entries, _binom_basis(len(entries) - 1)):
        total = total + h * b
    return total


def aux3_points(n: int) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
    """Vertex data of the auxiliary 4-dimensional cut polytope (n >= 4).

    Q is the hull of 4 'forbidden' points (n,n,*,*) together with 10 cut
    points {(n,n-1),(n-1,n)} x {(n-2,n-3),(n-3,n-2),(n-2,0),(0,n-2),(0,0)};
    F = Q intersect {x1 + x2 = 2n-1} is the hull of the 10 cut points.
    """
    if n < 4:
        raise ValueError("aux3_points requires n >= 4")
    forbidden = [
        (n, n, n - 3, n - 3),
        (n, n, n - 3, 0),
        (n, n, 0, n - 3),
        (n, n, 0, 0),
    ]
    heads = [(n, n - 1), (n - 1, n)]
    tails = [(n - 2, n - 3), (n - 3, n - 2), (n - 2, 0), (0, n - 2), (0, 0)]
    cut_pts = [h + t for h in heads for t in tails]
    return tuple(forbidden) + tuple(cut_pts), tuple(cut_pts)


def aux_lemma3(n: int) -> Polynomial:
    """Closed form of |tQ| - |tF| for the auxiliary cut polytope (n >= 4):

        (n^2/2 - 7n/3 + 21/8) t^4 + (n^2/2 - 2n + 23/12) t^3
        + (n/3 - 5/8) t^2 + t/12,   with no constant term.
    """
    if n < 4:
        raise ValueError("aux_lemma3 requires n >= 4")
    return Polynomial(
        [
            0,
            Fraction(1, 12),
            Fraction(n, 3) - Fraction(5, 8),
            Fraction(n * n, 2) - 2 * n + Fraction(23, 12),
            Fraction(n * n, 2) - Fraction(7 * n, 3) + Fraction(21, 8),
        ]
    )
