"""Exact rational arithmetic: the scaled-integer product kernel against Fraction
arithmetic, and the exact word enumerators against Fraction-keyed references."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings, strategies as st
import pytest

from slnlab import enumerate_ball, exact_freeness_crosscheck
from slnlab.exact import (
    from_scaled,
    identity,
    mat_det,
    mat_inv,
    mat_mul,
    scaled_mul,
    to_scaled,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

entries = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))


@st.composite
def matrices(draw, n=None):
    n = draw(st.sampled_from((2, 3, 4))) if n is None else n
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@st.composite
def matrix_triples(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    return tuple(draw(matrices(n)) for _ in range(3))


def fraction_mul(a, b):
    """The entrywise sum of Fraction products."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


class TestScaledKernel:
    @PROPERTY
    @given(matrix_triples())
    def test_product_equals_fraction_product(self, abc):
        a, b, _ = abc
        assert from_scaled(scaled_mul(to_scaled(a), to_scaled(b))) == fraction_mul(a, b)
        assert mat_mul(a, b) == fraction_mul(a, b)

    @PROPERTY
    @given(matrices())
    def test_round_trip_is_identity(self, a):
        assert from_scaled(to_scaled(a)) == a

    @PROPERTY
    @given(matrices(), st.integers(2, 10**6))
    def test_common_factor_reduces_to_the_same_key(self, a, factor):
        den, rows = to_scaled(a)
        inflated = (den * factor, tuple(tuple(x * factor for x in row) for row in rows))
        assert from_scaled(inflated) == a
        assert scaled_mul(inflated, to_scaled(identity(len(a)))) == to_scaled(a)

    @PROPERTY
    @given(matrix_triples())
    def test_keys_equal_exactly_when_rationals_equal(self, abc):
        a, b, c = abc
        # both groupings give one rational matrix through different denominators
        left = scaled_mul(scaled_mul(to_scaled(a), to_scaled(b)), to_scaled(c))
        right = scaled_mul(to_scaled(a), scaled_mul(to_scaled(b), to_scaled(c)))
        assert left == right == to_scaled(fraction_mul(fraction_mul(a, b), c))
        assert (to_scaled(a) == to_scaled(b)) == (a == b)
        # moving one entry by a unit fraction over another entry's denominator
        i = len(a) - 1
        moved = a[:i] + ((a[i][0] + Fraction(1, a[0][0].denominator),) + a[i][1:],)
        assert to_scaled(moved) != to_scaled(a)

    @PROPERTY
    @given(matrices())
    def test_key_has_no_common_factor(self, a):
        den, rows = to_scaled(a)
        assert den > 0
        assert gcd(den, *(x for row in rows for x in row)) == 1


class TestInverseAndDeterminant:
    @PROPERTY
    @given(matrices())
    def test_inverse_times_matrix_is_identity(self, a):
        assume(mat_det(a) != 0)
        assert mat_mul(mat_inv(a), a) == identity(len(a))

    @PROPERTY
    @given(matrix_triples())
    def test_determinant_is_multiplicative(self, abc):
        a, b, _ = abc
        assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def reference_crosscheck(S, max_len):
    """Collision count over Fraction-keyed words, the loop the crosscheck used to run."""
    seen, witnesses, checked = {}, [], 0
    frontier = [((), identity(S[0].n))]
    for _ in range(max_len):
        nxt = []
        for word, mat in frontier:
            for i, g in enumerate(S):
                w, m = word + (i,), fraction_mul(mat, g.exact)
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
    letters = [(k + 1, g.exact) for k, g in enumerate(generators)]
    seen, out, frontier = set(), [], [((), identity(generators[0].n))]
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
        assert ball.exact == [m for _, m in ref]
        assert len(ball) < 2**8 - 2
