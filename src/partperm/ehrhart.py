"""Ehrhart polynomials of P(m,n): counting, closed forms, and generating
functions.

ehr(P, t) = #(tP intersect Z^m) is a degree-m polynomial in t.  Routes:

* ``ehr_interpolate``   — exact counts by the symmetric counter
                          ``pp_count``: closed counts at t = 0..a-1 and,
                          by Ehrhart-Macdonald reciprocity, interior counts
                          at t = 1..b for the nodes -b..-1 (a = ceil((m+1)/2),
                          b = m+1-a), interpolated, then verified against a
                          fresh closed count at t = a;
* ``ehr_closed_small_n`` — closed forms for n <= 3, every m (the engine
                          stops at m <= EHR_SMALL_N_MAX_M);
* ``ehr_closed_small_m`` — closed forms for m <= 4 (n >= max(1, m-1));
* ``ehr_draconian``     — a positive sum of products of binomials over
                          draconian sequences by ``draconian_sum``
                          (n >= m-1, m <= DRACONIAN_MAX_M);
* ``ehr_parking``       — the pairs-only specialization at n = m-1, whose
                          summand count equals the lattice-point count of
                          P(m, m-1) itself;
* ``ehr_conjecture``    — the generating function
                          m! [z^m] sqrt(1-tz)e^{(nt+t/2+1)z-tz^2/4}, read as
                          one Cauchy product (n >= m-1);
* ``ehr_recurrence``    — the three-term recurrence in m of that generating
                          function (n >= m-1).

``EHRHART_ENGINES`` is the ordered table of the four table routes, method
name -> (domain, value); each route refuses through its domain, and the
last three routes above read the same declarations.  ``verify --suite
engines`` compares the last two routes with it.

Why the generating-function forms hold for n >= m-1 (Postnikov,
arXiv:math/0507163, for the draconian sum; Flajolet & Sedgewick, *Analytic
Combinatorics*, ch. II for the exponential formula and the tree and
unicyclic EGFs, and A.6 for Lagrange inversion).  ``draconian_sum`` is the
exponential formula over four component kinds.  Weight each component by
its share of the draconian summand, with b = n-m+1, x = tz and T = T(x) the
tree function, T = x e^T:

* a tree with a token contributes b T;
* a bare tree contributes (T - T^2/2)/t;
* a tree with a doubled edge contributes ((t+1)/(2t)) T^2/2;
* a unicyclic graph contributes (-log(1-T) - T - T^2/2)/2.

Their sum is F = (b + 1/t - 1/2) T - T^2/(4t) - log(1-T)/2, and
ehr(P(m,n), t) = m! [z^m] exp(F).  Lagrange inversion,
[x^m] H(T) = [u^m] H(u)(1-u)e^{mu}, with m + b - 1/2 = n + 1/2, gives
m! t^m [u^m] sqrt(1-u) exp((n + 1/2 + 1/t)u - u^2/(4t)), and u = tz gives
m! [z^m] G(z) with G = sqrt(1-tz) exp((nt + t/2 + 1)z - tz^2/4), the
form ``ehr_conjecture`` reads.  G satisfies
(1-tz) G' = (nt + 1 - t(nt + t/2 + 3/2) z + (t^2/2) z^2) G, and reading off
the coefficient of z^(k-1) gives the recurrence of ``ehr_recurrence``.

Also here: h*-vector helpers (basis change between the monomial and
binomial-coefficient bases) and the closed quasi-difference polynomial for
the auxiliary four-dimensional cut polytope used in the volume analysis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Dict, List, Sequence, Tuple

from .combinat import (
    PYRAMIDAL,
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
from .exactmath import (
    EngineDisagreement,
    Polynomial,
    binomial_poly,
    interpolate,
)
from .polytope import pp_count


def interpolate_counts(count: Callable[[int, bool], int], m: int, what: str) -> Polynomial:
    """Ehrhart polynomial of an m-dimensional lattice polytope from counts.

    ``count(t, interior)`` is the number of lattice points in the t-th
    dilate, or in its interior when ``interior`` is true; the polytope must
    be full-dimensional.  By Ehrhart-Macdonald reciprocity the polynomial L
    has L(-t) = (-1)^m #interior(tP) for t >= 1, so one run of m+1
    consecutive nodes t = -b..a-1, with a = ceil((m+1)/2) and b = m+1-a,
    needs closed counts only at t = 0..a-1 and interior counts at t = 1..b,
    about half the dilates of t = 0..m.  The interpolant is verified against
    a fresh closed count at t = a; a mismatch raises EngineDisagreement
    naming ``what``.
    """
    a = (m + 2) // 2
    b = m + 1 - a
    points = [(-t, (-1) ** m * count(t, True)) for t in range(b, 0, -1)]
    points += [(t, count(t, False)) for t in range(a)]
    poly = interpolate(points)
    fresh = count(a, False)
    if poly(a) != fresh:
        raise EngineDisagreement(
            f"Ehrhart interpolation of {what} failed its t={a} verification: "
            f"the interpolant gives {poly(a)}, the count {fresh}"
        )
    return poly


@lru_cache(maxsize=None)
def ehr_interpolate(m: int, n: int) -> Polynomial:
    """Ehrhart polynomial from exact counts on the oracle domain
    (m <= ORACLE_MAX_M, n <= ORACLE_MAX_N).

    ``interpolate_counts`` pairs closed and interior counts of ``pp_count``
    by reciprocity and verifies the interpolant against a fresh closed
    count; any mismatch raises EngineDisagreement.  Results are cached per
    (m,n).  P(m,0) is the origin, not full-dimensional, so reciprocity does
    not hold there: n = 0 yields the constant polynomial 1 before any
    counting.
    """
    oracle_domain.require("ehr_interpolate", m, n)
    if n == 0:
        return Polynomial([1])
    return interpolate_counts(lambda t, interior: pp_count(m, n, t, interior), m, f"P({m},{n})")


# ehr_closed_small_n expands binomials of degree m; (700,3) takes 2.1 s
# (2-core VM, Python 3.11).
EHR_SMALL_N_MAX_M = 700

# Work bounds of the two generating-function routes, in quadratic_work, each
# at most about 2 s at its edge (2-core VM, Python 3.11): ehr_conjecture
# 1.2-1.5 s at (232,232) and 0.4 s at (24, 10^4299); ehr_recurrence
# 1.8-2.3 s at (316,316) and 1.8-1.9 s at (33, 10^4299).
EHR_CONJECTURE_WORK_MAX = 3 * 2**26
EHR_RECURRENCE_WORK_MAX = 2**29


def value_bits(m: int, n: int) -> int:
    """m times the bit length of mn: at least the bit length of v(m,n), which
    is at most m! n^m <= (mn)^m, as P(m,n) lies in the cube [0,n]^m."""
    return m * (m * n).bit_length()


def quadratic_work(m: int, n: int) -> int:
    """m^2 steps on values of up to value_bits(m, n) bits: the work of the
    generating-function routes, m polynomials of up to m coefficients, and
    of the volume recursion, m^2 terms."""
    return m * m * value_bits(m, n)


# The domains of ehr_closed_small_n, ehr_closed_small_m, ehr_conjecture and
# ehr_recurrence.
small_n_domain = Domain(
    Rule(lambda m, n: m >= 1 and 0 <= n <= 3, "covers only m >= 1, 0 <= n <= 3"),
    Bound("EHR_SMALL_N_MAX_M", globals()))
small_m_domain = Domain(polynomial_domain,
                        Rule(lambda m, n: m <= 4 and n >= 1, "covers only m <= 4, n >= 1"))
conjecture_domain = Domain(polynomial_domain, Bound(
    "EHR_CONJECTURE_WORK_MAX", globals(), "work", quadratic_work))
recurrence_domain = Domain(Rule(lambda m, n: m >= 0 and n >= 0, "requires m >= 0 and n >= 0"),
                           PYRAMIDAL, Bound(
                               "EHR_RECURRENCE_WORK_MAX", globals(), "work", quadratic_work))


def ehr_closed_small_n(m: int, n: int) -> Polynomial:
    """Closed Ehrhart polynomials for 0 <= n <= 3, valid for every m >= 1.

    n=0: 1 (P(m,0) is the origin);
    n=1: C(t+m, m);
    n=2: C(3t+m, m) - m C(t+m-1, m);
    n=3: C(6t+m, m) - m C(3t+m-1, m)
         - C(m,2) [ C(t+m-1, m) + (m-2) C(t+m-2, m) ].
    """
    small_n_domain.require("ehr_closed_small_n", m, n)
    if n == 0:
        return Polynomial([1])
    if n == 1:
        return binomial_poly(Polynomial([m, 1]), m)
    if n == 2:
        return binomial_poly(Polynomial([m, 3]), m) - m * binomial_poly(Polynomial([m - 1, 1]), m)
    return (
        binomial_poly(Polynomial([m, 6]), m)
        - m * binomial_poly(Polynomial([m - 1, 3]), m)
        - comb(m, 2)
        * (
            binomial_poly(Polynomial([m - 1, 1]), m)
            + (m - 2) * binomial_poly(Polynomial([m - 2, 1]), m)
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
    small_m_domain.require("ehr_closed_small_m", m, n)
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


def _ehrhart_poly(m: int, base: int) -> Polynomial:
    """The draconian Ehrhart sum at base = n-m+1.  A component's weight is
    2^v times its share (base t)^s t^p1 C(t+1,2)^p2 of a summand, that is
    base^s 2^(v-p2) t^(s+p1+p2) (1+t)^p2, integral as p2 <= 1."""
    def weight(t: int, v: int, shape) -> int:
        s, p1, p2 = shape
        return base**s * 2 ** (v - p2) * t ** (s + p1 + p2) * (1 + t) ** p2
    return Polynomial(draconian_coefficients(m, "ehrhart", weight)) / 2**m


def ehr_draconian(m: int, n: int) -> Polynomial:
    """Draconian-sequence Ehrhart sum (n >= m-1, m <= DRACONIAN_MAX_M):

        sum over sequences a (sum <= m) of
            prod_{singletons i} C((n-m+1)t + a_i - 1, a_i)
          * prod_{pairs k}      C(t + a_k - 1, a_k).

    A summand depends only on the shape (s, p1, p2) of a, where it is
    ((n-m+1)t)^s t^p1 C(t+1,2)^p2, a product over the components of a; so
    the sum is ``draconian_coefficients`` with the weight of ``_ehrhart_poly``.
    """
    draconian_domain.require("ehr_draconian", m, n)
    return _ehrhart_poly(m, n - m + 1)


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

    Returns (polynomial, number of summands): ``_ehrhart_poly`` at base 0, which
    drops every sequence with a singleton unit, and draconian_sum with weight
    [s == 0].  Each binomial product is 1 at t = 1, so the count is the value at
    1, the lattice-point count of P(m, m-1) (1, 3, 17, 144, ... for m = 1..4).
    """
    draconian_domain.require("ehr_parking", m, m - 1)
    return _ehrhart_poly(m, 0), draconian_sum(m, "ehrhart", lambda v, shape: int(shape[0] == 0))


def ehr_conjecture(m: int, n: int) -> Polynomial:
    """The closed Ehrhart form m! [z^m] sqrt(1-tz) exp((nt+t/2+1)z - (t/4)z^2)
    from the generating function (n >= m-1; the module docstring derives it
    from the draconian sum), within ``EHR_CONJECTURE_WORK_MAX``;
    ``verify --suite engines`` compares it with the engine table.

    It is the Cauchy product sum_a r_a g_{m-a} of the two factors'
    coefficients in z, each from a recurrence.  With b = (n+1/2)t + 1,
    r_0 = 1 and r_a = r_{a-1} t (2a-3)/(2a) for sqrt(1-tz); g_0 = 1, g_1 = b
    and (k+1) g_{k+1} = b g_k - (t/2) g_{k-1}, the ODE g' = (b - (t/2)z) g
    of exp(bz - tz^2/4).
    """
    conjecture_domain.require("ehr_conjecture", m, n)
    t = Polynomial.x()
    b = Polynomial([1, n + Fraction(1, 2)])
    half_t = Polynomial([0, Fraction(1, 2)])
    root, expo = [Polynomial([1])], [Polynomial([1]), b]
    for k in range(1, m + 1):
        root.append(root[-1] * t * Fraction(2 * k - 3, 2 * k))
    for k in range(1, m):
        expo.append((b * expo[k] - half_t * expo[k - 1]) / (k + 1))
    return factorial(m) * sum(r * g for r, g in zip(root, reversed(expo)))


def ehr_recurrence(m: int, n: int) -> Polynomial:
    """Three-term recurrence in m, read off the ODE of the generating
    function of ``ehr_conjecture`` (see the module docstring):

        E_k = (kt + nt - t + 1) E_{k-1}
              - (k-1) t (nt + t/2 + 3/2) E_{k-2}
              + (k-1)(k-2)/2 t^2 E_{k-3},      E_0 = 1.

    E_m is ehr(P(m,n), t).  Domain: m >= 0 and n >= max(0, m-1), within
    ``EHR_RECURRENCE_WORK_MAX``; m = 0 gives the constant 1.  Below n = m-1
    the recurrence is not the Ehrhart polynomial (at (5,2) its value at
    t = 1 is -119, where P(5,2) has 51 lattice points), so those shapes
    are refused.
    """
    recurrence_domain.require("ehr_recurrence", m, n)
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


def to_hstar(poly, m: int) -> List[Fraction]:
    """[h*_0..h*_m] with poly = sum h*_i C(t+m-i, m); ValueError when
    deg(poly) > m.

    From sum_t L(t) z^t = h*(z) / (1-z)^(m+1), with L = poly,

        h*_i = sum_{j=0}^{i} (-1)^j C(m+1, j) L(i-j),

    so only the values L(0..m) are needed.
    """
    if not isinstance(poly, Polynomial):
        poly = Polynomial(poly)
    if poly.degree > m:
        raise ValueError("polynomial degree exceeds the declared dimension")
    values = [poly(t) for t in range(m + 1)]
    return [Fraction(sum((-1) ** j * comb(m + 1, j) * values[i - j] for j in range(i + 1)))
            for i in range(m + 1)]


def from_hstar(entries: Sequence) -> Polynomial:
    """The Ehrhart polynomial sum h*_i C(t+m-i, m) of an h*-vector, m = len - 1."""
    m = len(entries) - 1
    total = Polynomial()
    for i, h in enumerate(entries):
        total = total + h * binomial_poly(Polynomial([m - i, 1]), m)
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
