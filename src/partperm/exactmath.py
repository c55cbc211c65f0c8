"""Exact rational polynomials, truncated power series, and small linear algebra.

Everything here is computed over ``fractions.Fraction`` — no floating point.
The module supplies the scalar/polynomial plumbing used by the rest of the
package (Ehrhart, f/h and volume polynomials), the combinatorial number
tables (Eulerian, Stirling), exact interpolation, exact Gaussian
elimination, and truncated power-series arithmetic for the generating
functions sqrt(1-z)*exp(...) and the tree function T(z) = sum i^{i-1} z^i/i!.

Sign convention: ``double_factorial(i)`` returns the value of (2i-3)!! under
the convention (-3)!! = -1, (-1)!! = 1, i.e. -prod_{j=1}^{i}(2j-3).  Note
that this differs in sign at i=0 from libraries that define (-1)!! = 1 and
leave (-3)!! undefined; the minus sign at i=0 is intentional and is relied
on by the closed volume and Ehrhart formulas.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence


class EngineDisagreement(RuntimeError):
    """Two independent computations of the same quantity disagree.

    Raised when internal cross-checks fail (e.g. two closed forms of the
    same volume differ, or an interpolated polynomial fails its fresh-count
    verification).  CLI maps this to exit code 3.
    """


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Polynomial:
    """Dense univariate polynomial over Fraction, coefficients low-to-high.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Arithmetic is exact; scalars (int/Fraction) mix freely on either side.
    Calling a Polynomial evaluates it (Horner), and the point may itself be
    a Polynomial, which composes: f(Polynomial([-1, 1])) is f(t-1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial([-_frac(other)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = _frac(scalar)
        return Polynomial([c / s for c in self.coeffs])

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x):
        """Evaluate at x (int/Fraction) or compose with x (Polynomial)."""
        if not self.coeffs:
            return Polynomial() if isinstance(x, Polynomial) else Fraction(0)
        acc = self.coeffs[-1] if not isinstance(x, Polynomial) else Polynomial([self.coeffs[-1]])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_strings(self) -> list:
        """Coefficients as exact 'p/q' strings, low-to-high (JSON form)."""
        return [str(c) for c in self.coeffs] if self.coeffs else ["0"]

    def render(self, var: str = "t") -> str:
        """Human-readable rendering, highest degree first."""
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                v = var if i == 1 else f"{var}^{i}"
                body = v if mag == 1 else f"{mag}*{v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def binomial_poly(p, k: int):
    """Generalized binomial coefficient C(p, k) = p(p-1)...(p-k+1)/k!.

    ``p`` may be a Polynomial (result is a Polynomial in the same variable)
    or an int/Fraction (result is a Fraction).  For constant integer p >= 0
    this equals the ordinary binomial coefficient, including the value 0
    for 0 <= p < k; for negative integer p it is the signed falling
    factorial value.
    """
    if k < 0:
        raise ValueError("binomial_poly requires k >= 0")
    if isinstance(p, Polynomial):
        acc = Polynomial([1])
        for j in range(k):
            acc = acc * (p - j)
        return acc / factorial(k)
    acc = Fraction(1)
    p = _frac(p)
    for j in range(k):
        acc *= p - j
    return acc / factorial(k)


def double_factorial(i: int) -> int:
    """(2i-3)!! with (-3)!! = -1 and (-1)!! = 1, i.e. -prod_{j=1}^{i}(2j-3).

    Values: i=0 -> -1, i=1 -> 1, i=2 -> 1, i=3 -> 3, i=4 -> 15.  The global
    minus sign (visible at i=0) is deliberate; see the module docstring.
    """
    if i < 0:
        raise ValueError("double_factorial requires i >= 0")
    prod = 1
    for j in range(1, i + 1):
        prod *= 2 * j - 3
    return -prod


def eulerian(m: int) -> Polynomial:
    """Eulerian polynomial A_m(t) = sum over S_m of t^{des}, with A_0 = 1.

    Computed from the triangle A(n,k) = (k+1) A(n-1,k) + (n-k) A(n-1,k-1).
    Satisfies A_m(1) = m! and the symmetry A(m,i) = A(m,m-1-i).
    """
    if m < 0:
        raise ValueError("eulerian requires m >= 0")
    row = [1]  # A(0, .)
    for n in range(1, m + 1):
        new = [0] * n
        for k in range(n):
            a = (k + 1) * row[k] if k < len(row) else 0
            b = (n - k) * row[k - 1] if k - 1 >= 0 else 0
            new[k] = a + b
        row = new
    return Polynomial(row)


def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind S(m,k): partitions of [m] into k blocks."""
    if m < 0 or k < 0:
        raise ValueError("stirling2 requires nonnegative arguments")
    if k > m:
        return 0
    row = [1]  # S(0, 0..0)
    for n in range(1, m + 1):
        new = [0] * (n + 1)
        for j in range(1, n + 1):
            new[j] = j * (row[j] if j < len(row) else 0) + row[j - 1]
        row = new
    return row[k]


class Series:
    """Truncated power series in z, exact, with explicit truncation order.

    ``coeffs[i]`` is the coefficient of z^i for i = 0..order.  Coefficients
    may be Fractions or Polynomials (in some other variable such as t);
    operations never read beyond the truncation order, and binary
    operations require matching orders.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = list(coeffs[: order + 1])
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.coeffs = cs
        self.order = order

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([Fraction(1)], order)

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other: "Series") -> "Series":
        self._check(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return Series([c * other for c in self.coeffs], self.order)
        self._check(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] = out[i + j] + a * b
        return Series(out, self.order)

    __rmul__ = __mul__

    def _check(self, other: "Series"):
        if not isinstance(other, Series):
            raise TypeError("expected a Series operand")
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"Series({self.coeffs!r}, order={self.order})"


def series_exp(f: Series) -> Series:
    """exp(f) for a series with zero constant term, to f's order."""
    if f.coeffs[0] != 0:
        raise ValueError("series_exp requires zero constant term")
    acc = Series.one(f.order)
    power = Series.one(f.order)
    for k in range(1, f.order + 1):
        power = power * f
        acc = acc + power * Fraction(1, factorial(k))
    return acc


def sqrt_one_minus(f: Series) -> Series:
    """sqrt(1 - f) for a series f with zero constant term, to f's order.

    Binomial series: sum_k C(1/2, k) (-f)^k.  For f = z the coefficient of
    z^i is -double_factorial(i) / (2^i i!), which tests cross-check.
    """
    if f.coeffs[0] != 0:
        raise ValueError("sqrt_one_minus requires zero constant term")
    acc = Series.one(f.order)
    power = Series.one(f.order)
    for k in range(1, f.order + 1):
        power = power * f
        c = binomial_poly(Fraction(1, 2), k) * (-1) ** k
        acc = acc + power * c
    return acc


def series_coeff(f: Series, i: int):
    """Coefficient of z^i; i must not exceed the truncation order."""
    if not 0 <= i <= f.order:
        raise ValueError(f"coefficient index {i} outside order {f.order}")
    return f.coeffs[i]


def tree_function(order: int) -> Series:
    """The tree function T(z) = sum_{i>=1} i^{i-1} z^i / i!, truncated.

    Satisfies the functional equation T = z e^T (tested coefficientwise).
    """
    coeffs = [Fraction(0)] + [
        Fraction(i ** (i - 1), factorial(i)) for i in range(1, order + 1)
    ]
    return Series(coeffs, order)


def interpolate(points: Sequence) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given (x, y) pairs.

    Exact Newton divided differences.  Duplicate x-values raise ValueError.
    """
    if not points:
        raise ValueError("interpolate requires at least one point")
    xs = [_frac(x) for x, _ in points]
    ys = [_frac(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolate requires pairwise distinct x-values")
    # Divided-difference coefficients c[i] = f[x_0..x_i].
    coef = list(ys)
    n = len(xs)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    # Horner assembly of the Newton form.
    poly = Polynomial([coef[-1]])
    for i in range(n - 2, -1, -1):
        poly = poly * Polynomial([-xs[i], 1]) + coef[i]
    if any(poly(x) != y for x, y in zip(xs, ys)):
        raise EngineDisagreement("interpolant misses one of its own points")
    return poly


def solve_linear(a_rows: Sequence[Sequence], b: Sequence):
    """Exact Gaussian elimination for A x = b; None if singular/inconsistent.

    Accepts square or overdetermined systems.  Returns the unique solution
    as a list of Fractions, or None when the system is inconsistent or the
    solution is not unique.
    """
    rows = [[_frac(v) for v in row] + [_frac(rhs)] for row, rhs in zip(a_rows, b)]
    if len(rows) != len(a_rows) or len(rows) != len(b):
        raise ValueError("matrix/vector size mismatch")
    if not rows:
        return []
    ncols = len(rows[0]) - 1
    if any(len(r) != ncols + 1 for r in rows):
        raise ValueError("ragged matrix")
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    # Inconsistent: a zero row with nonzero rhs.
    for i in range(r, len(rows)):
        if any(rows[i][c] != 0 for c in range(ncols)):
            # Unreached pivot rows can only occur if we ran out of rows.
            continue
        if rows[i][ncols] != 0:
            return None
    if len(pivot_cols) < ncols:
        return None  # not unique
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        x[c] = rows[i][ncols]
    # Overdetermined consistency check.
    for row, rhs in zip(a_rows, b):
        if sum(_frac(v) * xi for v, xi in zip(row, x)) != _frac(rhs):
            return None
    return x


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss fraction-free elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ValueError("int_det requires a square matrix")
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
