"""Exact rational arithmetic: the integer kernels of the (den, rows) format against
Fraction arithmetic, and the exact word enumerators against Fraction-keyed references."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, strategies as st
import pytest

from slnlab import SlnLabError, enumerate_ball, exact_freeness_crosscheck
from slnlab.exact import (
    from_rows,
    from_scaled,
    identity,
    mat_det,
    mat_inv,
    mat_mul,
    to_float,
)

entries = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))


@st.composite
def matrices(draw, n=None):
    n = draw(st.sampled_from((2, 3, 4))) if n is None else n
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@st.composite
def matrix_triples(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    return tuple(draw(matrices(n)) for _ in range(3))


def fraction_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def fraction_mul(a, b):
    """The entrywise sum of Fraction products."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def fraction_det(a):
    """Determinant by elimination over Fractions, the loop mat_det used to run."""
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


def fraction_inv(a):
    """Inverse by Gauss-Jordan elimination over Fractions, the loop mat_inv used to run."""
    n = len(a)
    m = [list(row) + list(fraction_identity(n)[i]) for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def has_no_common_factor(a):
    den, rows = a
    return den > 0 and gcd(den, *(x for row in rows for x in row)) == 1


class TestScaledKernel:
    @given(matrix_triples())
    def test_product_equals_fraction_product(self, abc):
        a, b, _ = abc
        product = mat_mul(from_rows(a), from_rows(b))
        assert from_scaled(product) == fraction_mul(a, b)
        assert product == from_rows(fraction_mul(a, b))

    @given(matrices())
    def test_round_trip_is_identity(self, a):
        assert from_scaled(from_rows(a)) == a

    @given(matrices(), st.integers(2, 10**6))
    def test_common_factor_reduces_to_the_same_key(self, a, factor):
        den, rows = from_rows(a)
        inflated = (den * factor, tuple(tuple(x * factor for x in row) for row in rows))
        assert from_scaled(inflated) == a
        assert mat_mul(inflated, identity(len(a))) == from_rows(a)

    @given(matrix_triples())
    def test_keys_equal_exactly_when_rationals_equal(self, abc):
        a, b, c = abc
        # both groupings give one rational matrix through different denominators
        left = mat_mul(mat_mul(from_rows(a), from_rows(b)), from_rows(c))
        right = mat_mul(from_rows(a), mat_mul(from_rows(b), from_rows(c)))
        assert left == right == from_rows(fraction_mul(fraction_mul(a, b), c))
        assert (from_rows(a) == from_rows(b)) == (a == b)
        # moving one entry by a unit fraction over another entry's denominator
        i = len(a) - 1
        moved = a[:i] + ((a[i][0] + Fraction(1, a[0][0].denominator),) + a[i][1:],)
        assert from_rows(moved) != from_rows(a)

    @given(matrix_triples())
    def test_key_has_no_common_factor(self, abc):
        a, b, _ = abc
        assert has_no_common_factor(from_rows(a))
        assert has_no_common_factor(mat_mul(from_rows(a), from_rows(b)))
        assert has_no_common_factor(identity(len(a)))


class TestInverseAndDeterminant:
    @given(matrices())
    def test_determinant_equals_fraction_elimination(self, a):
        assert mat_det(from_rows(a)) == fraction_det(a)

    @given(matrices())
    def test_inverse_equals_fraction_elimination(self, a):
        assume(fraction_det(a) != 0)
        inv = mat_inv(from_rows(a))
        assert from_scaled(inv) == fraction_inv(a)
        assert has_no_common_factor(inv)

    @given(matrices())
    def test_inverse_times_matrix_is_identity(self, a):
        assume(fraction_det(a) != 0)
        assert mat_mul(mat_inv(from_rows(a)), from_rows(a)) == identity(len(a))

    @given(matrix_triples())
    def test_determinant_is_multiplicative(self, abc):
        a, b, _ = abc
        assert mat_det(mat_mul(from_rows(a), from_rows(b))) == mat_det(from_rows(a)) * mat_det(from_rows(b))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_pivots_take_row_swaps(self, n):
        # the reversed identity with a rational last row: every leading entry is 0
        rows = [[Fraction(int(i + j == n - 1)) for j in range(n)] for i in range(n - 1)]
        rows.append([Fraction(1)] + [Fraction(j, 7) for j in range(1, n)])
        a = from_rows(rows)
        assert mat_det(a) == fraction_det(rows) != 0
        assert from_scaled(mat_inv(a)) == fraction_inv(rows)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singular_inverse_raises(self, n):
        rows = [[Fraction(i + 1, 3) * (j + 1) for j in range(n)] for i in range(n)]
        with pytest.raises(SlnLabError):
            mat_inv(from_rows(rows))


class TestFloatImage:
    def test_each_entry_is_the_rounded_fraction(self, strong_rational_pair):
        d, conj = strong_rational_pair
        word = identity(2)
        for g in [d, conj, conj, d, conj, d] * 2:
            word = mat_mul(word, g.exact)
        assert word[0] > 2**53  # the denominator alone does not fit a float exactly
        # numerators and a denominator past the float range: only the quotient of the
        # integers, not of their floats, rounds right
        huge = (3 * 10**399, ((10**400 + 1, 1), (2**1100 + 1, 3 * 10**399)))
        for den, rows in (word, huge):
            got = to_float((den, rows))
            want = [[float(Fraction(x, den)) for x in row] for row in rows]
            assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in want]

    @given(matrices())
    def test_float_image_matches_fraction_floats(self, a):
        assert to_float(from_rows(a)) == [[float(x) for x in row] for row in a]


def reference_crosscheck(S, max_len):
    """Collision count over Fraction-keyed words, the loop the crosscheck used to run."""
    seen, witnesses, checked = {}, [], 0
    frontier = [((), fraction_identity(S[0].n))]
    for _ in range(max_len):
        nxt = []
        for word, mat in frontier:
            for i, g in enumerate(S):
                w, m = word + (i,), fraction_mul(mat, from_scaled(g.exact))
                nxt.append((w, m))
                checked += 1
                if m in seen:
                    first, mult = seen[m]
                    seen[m] = (first, mult + 1)
                    if len(witnesses) < 16:
                        witnesses.append((first, w))
                else:
                    seen[m] = (w, 1)
        frontier = nxt
    return checked, sum(mult * (mult - 1) // 2 for _, mult in seen.values()), witnesses


def fraction_dedup_ball(generators, radius):
    """Words and entries of enumerate_ball(dedup='exact') on positive words, keyed on Fractions."""
    letters = [(k + 1, from_scaled(g.exact)) for k, g in enumerate(generators)]
    seen, out, frontier = set(), [], [((), fraction_identity(generators[0].n))]
    for _ in range(radius):
        nxt = []
        for letter, g in letters:
            for word, mat in frontier:
                m = fraction_mul(mat, g)
                if m not in seen:
                    seen.add(m)
                    nxt.append((word + (letter,), m))
        out += nxt
        frontier = nxt
    return out


@pytest.fixture(scope="module")
def colliding_sets(strong_rational_pair):
    d, conj = strong_rational_pair
    return {
        "d, d^2": ([d, d @ d], 9),
        "d, d^-1": ([d, d.inverse()], 9),
        "d, s d s^-1, d^2": ([d, conj, d @ d], 6),
        "strong pair": (strong_rational_pair, 10),
    }


class TestCrosscheckAgainstFractionReference:
    @pytest.mark.parametrize("name", ["d, d^2", "d, d^-1", "d, s d s^-1, d^2", "strong pair"])
    def test_same_report(self, colliding_sets, name):
        S, max_len = colliding_sets[name]
        report = exact_freeness_crosscheck(S, max_len)
        checked, collisions, witnesses = reference_crosscheck(S, max_len)
        assert report.words_checked == checked
        assert report.collisions == collisions
        assert report.witnesses == witnesses
        if name != "strong pair":
            assert collisions > 0

    @pytest.mark.parametrize("name", ["d, d^2", "d, d^-1"])
    def test_exact_dedup_keeps_the_fraction_keyed_rows(self, colliding_sets, name):
        S, _ = colliding_sets[name]
        ball = enumerate_ball(S, 7, dedup="exact")
        ref = fraction_dedup_ball(S, 7)
        assert ball.words == [w for w, _ in ref]
        assert ball.exact == [from_rows(m) for _, m in ref]
        assert len(ball) < 2**8 - 2
