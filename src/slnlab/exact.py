"""Exact rational matrix arithmetic for small dimensions.

An exact matrix is one pair ``(den, rows)``: integer rows over one positive
denominator, reduced so that ``gcd(den, *entries) == 1``. The pair is canonical:
from ``rows / den == rows' / den'`` follows ``rows * den' == rows' * den``, so ``den``
divides ``den' * gcd(rows)`` and hence ``den'``, and the other way round. Equal
rational matrices thus have equal pairs, which key exact word deduplication.
Products, determinants and inverses run on integers; ``Fraction`` appears only
when parsing entries and in ``from_scaled``, which feeds mpmath.
"""

from fractions import Fraction
from itertools import chain
import math
from operator import mul

from .errors import SlnLabError


def from_rows(rows):
    """Parse rows of 'p/q' strings, integers, decimals or Fractions into the exact
    matrix. The denominator is the lcm of the entries' denominators, which leaves it
    coprime to the scaled entries."""
    a = [[Fraction(str(x).strip()) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in a for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in a)


def identity(n):
    return 1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _reduced(den, rows):
    g = math.gcd(den, *chain.from_iterable(rows))
    if g > 1:
        den //= g
        rows = tuple(tuple(x // g for x in row) for row in rows)
    return den, rows


def from_scaled(a):
    """The Fraction entries of an exact matrix, each reduced on its own."""
    den, rows = a
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def mat_mul(a, b):
    den_a, rows_a = a
    den_b, rows_b = b
    cols = tuple(zip(*rows_b))
    return _reduced(
        den_a * den_b, tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in rows_a)
    )


def _int_det(rows):
    """Determinant of an integer matrix by Bareiss elimination; every division is exact."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def mat_det(a):
    """det(rows / den) = det(rows) / den^n."""
    den, rows = a
    return Fraction(_int_det(rows), den ** len(rows))


def mat_inv(a):
    """(rows / den)^-1 = den * adj(rows) / det(rows), from integer cofactors."""
    den, rows = a
    det = _int_det(rows)
    if det == 0:
        raise SlnLabError("exact matrix is singular")
    idx = range(len(rows))
    cof = [[(-1) ** (i + j) * _int_det([r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i])
            for j in idx] for i in idx]
    scale = den if det > 0 else -den
    return _reduced(abs(det), tuple(tuple(scale * cof[j][i] for j in idx) for i in idx))


def to_float(a):
    """Correctly rounded float entries: int / int rounds once, as float(Fraction) does."""
    den, rows = a
    return [[x / den for x in row] for row in rows]
