"""Exact rational matrix arithmetic for small dimensions.

Matrices are tuples of tuples of ``fractions.Fraction``. Products run on the
scaled form ``(den, rows)``: integer rows over one positive denominator, reduced
so that ``gcd(den, *entries) == 1``. The reduced form is canonical: from
``rows / den == rows' / den'`` follows ``rows * den' == rows' * den``, so ``den``
divides ``den' * gcd(rows)`` and hence ``den'`` (and the other way round), which
makes both pairs equal. Equal rational matrices thus have equal scaled tuples, and
those tuples are the dict keys of exact word deduplication. A product costs one
integer matrix product and one gcd over its entries, where ``Fraction``
arithmetic reduces every partial sum and hashes every entry through a modular
inverse.
"""

from fractions import Fraction
from itertools import chain
import math
from operator import mul

from .errors import SlnLabError

ExactMatrix = tuple  # tuple[tuple[Fraction, ...], ...]


def parse_entry(text):
    """Parse 'p/q' or a bare integer/decimal string into a Fraction."""
    return Fraction(str(text).strip())


def from_rows(rows):
    """Build an ExactMatrix from any nested iterable of Fraction-convertibles."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def to_scaled(a):
    """The scaled form of a Fraction matrix: the common denominator is the lcm of
    the entries' denominators, which leaves it coprime to the scaled entries."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in a)


def scaled_mul(a, b):
    """The canonical scaled form of the product of two scaled matrices."""
    den_a, rows_a = a
    den_b, rows_b = b
    cols = tuple(zip(*rows_b))
    rows = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in rows_a)
    den = den_a * den_b
    g = math.gcd(den, *chain.from_iterable(rows))
    if g > 1:
        den //= g
        rows = tuple(tuple(x // g for x in row) for row in rows)
    return den, rows


def from_scaled(a):
    """The Fraction matrix of a scaled matrix."""
    den, rows = a
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def mat_mul(a, b):
    return from_scaled(scaled_mul(to_scaled(a), to_scaled(b)))


def mat_det(a):
    """Determinant by fraction-free elimination (n is tiny here)."""
    n = len(a)
    m = [list(row) for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def mat_inv(a):
    """Inverse by Gauss-Jordan elimination over Fractions."""
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise SlnLabError("exact matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def to_float(a):
    return [[float(x) for x in row] for row in a]
