"""Exact rational matrix arithmetic for small dimensions.

Matrices are tuples of tuples of ``fractions.Fraction``. Fractions normalize
themselves, so a matrix tuple is directly usable as a canonical dict key.
"""

from fractions import Fraction

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


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


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
