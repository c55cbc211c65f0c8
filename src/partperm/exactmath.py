"""Exact rational polynomials, number tables, and small linear algebra.

Everything here is exact rational arithmetic — no floating point.
``Polynomial`` keeps each coefficient as an ``int`` when it is integral and
as a ``fractions.Fraction`` otherwise (a Fraction with denominator 1 is
stored as its numerator), so integer polynomials never build a Fraction.
Division always goes through a Fraction divisor, never ``int / int``;
floats are refused with TypeError.  The module supplies the
scalar/polynomial plumbing used by the rest of the package (Ehrhart, f/h
and volume polynomials), the combinatorial number tables (Eulerian,
Stirling), exact interpolation, and the package's one elimination routine
``row_reduce`` (fraction-free Gauss-Jordan, which ``solve_linear``,
``int_det`` and the hull conversion of ``polytope`` all read from).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Iterator, List, Sequence


class EngineDisagreement(RuntimeError):
    """Two independent computations of the same quantity disagree.

    Raised when internal cross-checks fail (e.g. an interpolated polynomial
    fails its fresh-count verification, or an engine gives a non-integral
    volume).  CLI maps this to exit code 3.
    """


def check_bound(what: str, quantity: str, size: int, name: str, bound: int) -> None:
    """Refuse up front, with a ValueError, a call whose size passes a
    declared bound.  Every work, listing and range bound of the package is
    refused here, so each message names the call, its size, and the bound
    with its value."""
    if size > bound:
        raise ValueError(f"{what} has {quantity} = {size}, above the bound {name}: "
                         f"{quantity} <= {bound}")


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _coef(x):
    """x as a Polynomial coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients, low-to-high.

    Each coefficient is an ``int`` when integral and a ``Fraction``
    otherwise; equality and hashing do not see the difference, since
    ``2 == Fraction(2)`` and both hash alike.  Division by a scalar divides
    by it as a Fraction, so it never yields a float.  The zero polynomial
    has an empty coefficient tuple and degree -1.  Arithmetic is exact;
    scalars (int/Fraction) mix freely on either side; floats raise TypeError.
    Calling a Polynomial evaluates it (Horner), and the point may itself be
    a Polynomial, which composes: f(Polynomial([-1, 1])) is f(t-1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coef(c) for c in coeffs]
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

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for i, c in enumerate(shorter):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial([-_coef(other)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
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
            return Polynomial() if isinstance(x, Polynomial) else 0
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


def eulerian(m: int) -> Polynomial:
    """Eulerian polynomial A_m(t) = sum over S_m of t^{des}, with A_0 = 1.

    Computed from the triangle A(n,k) = (k+1) A(n-1,k) + (n-k) A(n-1,k-1).
    Satisfies A_m(1) = m! and the symmetry A(m,i) = A(m,m-1-i).
    """
    if m < 0:
        raise ValueError("eulerian requires m >= 0")
    for row in eulerian_rows(m + 1):
        pass  # the last row is A_m
    return Polynomial(row)


def eulerian_rows(count: int) -> Iterator[List[int]]:
    """The coefficient lists of A_0(t), ..., A_{count-1}(t), each row built
    from the one before by the triangle recurrence of ``eulerian``."""
    row = [1]  # A(0, .)
    for n in range(count):
        if n:
            last = len(row)
            row = [(k + 1) * (row[k] if k < last else 0)
                   + (n - k) * (row[k - 1] if k else 0) for k in range(n)]
        yield row


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


def interpolate(points: Sequence) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given (x, y) pairs.

    The x-values must be consecutive integers x0, x0+1, ..., in that order;
    any other x raises ValueError.  The work is in integers: with L the lcm
    of the y denominators and k = len(points), the forward differences
    D_j of L*y at x0 give the Newton form

        (k-1)! L p(x) = sum_j D_j (k-1)!/j! (x-x0)(x-x0-1)...(x-x0-j+1),

    whose coefficients are integers.  It is checked against (k-1)! L y at
    every node, and only then is each coefficient divided, one Fraction
    per coefficient.
    """
    if not points:
        raise ValueError("interpolate requires at least one point")
    xs = [_frac(x) for x, _ in points]
    ys = [_frac(y) for _, y in points]
    x0 = xs[0]
    if x0.denominator != 1 or any(x != x0 + i for i, x in enumerate(xs)):
        raise ValueError("interpolate requires consecutive integer x-values")
    x0 = x0.numerator
    scale = lcm(*(y.denominator for y in ys))
    vals = [y.numerator * (scale // y.denominator) for y in ys]
    k = len(vals)
    diffs = list(vals)  # diffs[j] becomes the j-th forward difference at x0
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    # Horner assembly of the scaled Newton form, low-to-high integer lists:
    # q <- q * (x - x0 - j) + D_j (k-1)!/j!, for j = k-1 down to 0.
    weight = 1  # (k-1)!/j!
    q = [diffs[-1]]
    for j in range(k - 2, -1, -1):
        weight *= j + 1
        root = x0 + j
        nxt = [0] + q
        for d, c in enumerate(q):
            nxt[d] -= root * c
        nxt[0] += diffs[j] * weight
        q = nxt
    # weight is now (k-1)!
    for i, v in enumerate(vals):
        acc = 0
        for c in reversed(q):
            acc = acc * (x0 + i) + c
        if acc != v * weight:
            raise EngineDisagreement("interpolant misses one of its own points")
    den = scale * weight
    return Polynomial([Fraction(c, den) for c in q])


def _as_int(x, what: str) -> int:
    """x as an int; ValueError naming x when it is not an integer."""
    n = int(x)
    if n != x:
        raise ValueError(f"{what} must be an integer, got {x}")
    return n


def _integral(row) -> List[int]:
    """The rational row times the least common denominator of its entries."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def row_reduce(rows: Sequence[Sequence[int]]):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968).

    Returns ``(reduced, pivots, det)``.  Each step multiplies every other
    row by the new pivot, subtracts, and divides exactly by the previous
    pivot, so every entry stays an integer (a minor of the input).
    ``pivots`` are the pivot columns, each the first column not spanned by
    those before it.  Row i of ``reduced`` carries the common pivot value D
    in column pivots[i] and 0 in the other pivot columns; rows past the
    rank are zero.  So [R | I] with R invertible reduces to [D*I | D*R^-1].
    ``det`` is the determinant of the pivot columns (of the matrix, when it
    is square) if the rows are independent, and 0 if they are not.
    """
    a = [list(row) for row in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    pivots: List[int] = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        pv = top[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        pivots.append(c)
    return a, pivots, sign * prev if len(pivots) == nrows else 0


def solve_linear(a_rows: Sequence[Sequence], b: Sequence):
    """Exact solution of A x = b; None if singular/inconsistent.

    Accepts square or overdetermined systems of ints and Fractions.  The
    rows of [A | b], scaled to integers, go through ``row_reduce``: the
    solution is unique exactly when the pivots are the columns of A, and
    then x_i is the b entry of row i over D.  Returns a list of Fractions.
    """
    if len(a_rows) != len(b):
        raise ValueError("matrix/vector size mismatch")
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    augmented = [[_frac(v) for v in row] + [_frac(rhs)] for row, rhs in zip(a_rows, b)]
    reduced, pivots, _ = row_reduce([_integral(row) for row in augmented])
    if pivots != list(range(ncols)):
        return None
    x = [Fraction(reduced[i][ncols], reduced[i][i]) for i in range(ncols)]
    # Substitution check against the input.
    for row in augmented:
        if sum(v * xi for v, xi in zip(row, x)) != row[-1]:
            return None
    return x


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free, ``row_reduce``)."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("int_det requires a square matrix")
    return row_reduce([[_as_int(x, "matrix entry") for x in row] for row in matrix])[2]
