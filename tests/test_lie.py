from fractions import Fraction
import math

from hypothesis import given, strategies as st
import numpy as np
import pytest
import scipy.linalg
from mpmath import mp

from slnlab import (
    CartanVector,
    GroupElement,
    SingularMatrix,
    SlnLabError,
    cartan_of_power,
    cartan_projection,
    enumerate_ball,
    is_loxodromic,
    iwasawa_cocycle,
    jordan_projection,
    kak_decomposition,
    min_root_value,
    opposition_involution,
    random_unimodular,
    simple_root_values,
    standard_flag,
    symmetric_space_distance,
    flag_from_frame,
)
from slnlab import lie


def diag(*vals):
    return GroupElement.from_matrix(np.diag(vals))


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return GroupElement.from_matrix([[c, -s], [s, c]])


@pytest.fixture(scope="module")
def sanov_ball_12():
    """The positive Sanov words up to length 12; entries reach 3.3e4 at length 12."""
    return enumerate_ball(
        [GroupElement.from_matrix([[1, 2], [0, 1]]), GroupElement.from_matrix([[1, 0], [2, 1]])], 12
    )


class TestGroupElement:
    def test_rejects_bad_determinant(self):
        with pytest.raises(SlnLabError):
            GroupElement.from_matrix([[2, 0], [0, 1]])

    def test_rejects_small_determinant_error(self):
        with pytest.raises(SlnLabError):
            GroupElement.from_matrix([[1.001, 0], [0, 1]])

    def test_float_words_of_a_long_ball_reload(self, sanov_ball_12):
        assert len(sanov_ball_12) == 8190
        for m in sanov_ball_12.matrices:
            GroupElement(m.tolist())

    def test_rejects_a_long_word_off_by_a_scale(self, sanov_ball_12):
        longest = sanov_ball_12.matrices[sanov_ball_12.lengths == 12]
        worst = longest[np.argmax(np.abs(longest).max(axis=(1, 2)))]
        GroupElement(worst.tolist())
        with pytest.raises(SlnLabError):
            GroupElement((worst * (1 + 1e-4)).tolist())

    def test_rejects_non_square(self):
        with pytest.raises(SlnLabError):
            GroupElement.from_matrix([[1, 0, 0], [0, 1, 0]])

    def test_exact_entries_must_match_float_image(self):
        diag = (2, ((4, 0), (0, 1)))  # diag(2, 1/2) as integer rows over one denominator
        assert GroupElement(np.array([[2.0, 0.0], [0.0, 0.5]]), exact=diag).exact == diag
        with pytest.raises(SlnLabError):
            GroupElement(np.array([[2.0, 0.0], [0.0, 0.5000001]]), exact=diag)

    def test_exact_inverse_stays_exact(self):
        g = GroupElement.from_exact([[1, 2], [0, 1]])
        inv = g.inverse()
        assert inv.exact is not None
        assert np.allclose(inv.entries, [[1, -2], [0, 1]])


class TestCartanProjection:
    def test_identity(self):
        assert np.allclose(cartan_projection(GroupElement.identity(3)).coords, 0.0)

    def test_ordered_diagonal_is_its_own_chamber_factor(self):
        g = diag(math.e, 1.0, 1.0 / math.e)
        assert np.allclose(cartan_projection(g).coords, [1.0, 0.0, -1.0], atol=1e-12)

    def test_antidiagonal_two_by_two(self):
        # oracle: g^T g = diag(1/4, 4), singular values (2, 1/2)
        g = GroupElement.from_matrix([[0.0, 2.0], [-0.5, 0.0]])
        assert np.allclose(cartan_projection(g).coords, [math.log(2), -math.log(2)], atol=1e-12)

    def test_result_is_chamber_vector(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = cartan_projection(random_unimodular(rng, 3)).coords
            assert abs(k.sum()) < 1e-9
            assert np.all(np.diff(k) <= 1e-12)

    def test_bi_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        g = random_unimodular(rng, 3)
        for _ in range(10):
            k = GroupElement.from_matrix(np.linalg.qr(rng.standard_normal((3, 3)))[0] * 1.0)
            entries = k.entries
            if np.linalg.det(entries) < 0:
                entries = entries.copy()
                entries[:, 0] = -entries[:, 0]
            k = GroupElement.from_matrix(entries)
            lhs = cartan_projection(k.matmul(g)).coords
            assert np.allclose(lhs, cartan_projection(g).coords, atol=1e-9)

    def test_extended_precision_kicks_in_for_exact_products(self):
        d = GroupElement.from_exact([["148", "0"], ["0", "1/148"]])
        s = GroupElement.from_exact([["4/5", "-3/5"], ["3/5", "4/5"]])
        g2 = s.matmul(d).matmul(s.inverse())
        w = d
        for _ in range(5):
            w = w.matmul(g2).matmul(d)
        # spread ~ e^{+-55}: float64 svd alone cannot see the bottom singular value
        k = cartan_projection(w).coords
        assert abs(k.sum()) < 1e-9
        assert k[0] > 40.0


class TestKAK:
    def test_identity(self):
        k = kak_decomposition(GroupElement.identity(3))
        assert np.allclose(k.a.coords, 0.0)
        assert np.allclose(k.k @ k.l, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        g = diag(math.e**2, math.e**-2)
        k = kak_decomposition(g)
        assert np.allclose(k.a.coords, [2.0, -2.0], atol=1e-12)
        assert np.allclose(k.reconstruct(), g.entries, atol=1e-12)

    def test_random_reconstruction_and_special_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = random_unimodular(rng, 3)
            dec = kak_decomposition(g)
            assert np.abs(dec.reconstruct() - g.entries).max() < 1e-8
            assert np.abs(dec.k.T @ dec.k - np.eye(3)).max() < 1e-9
            assert np.abs(dec.l.T @ dec.l - np.eye(3)).max() < 1e-9
            assert np.linalg.det(dec.k) > 0
            assert np.linalg.det(dec.l) > 0
            assert np.allclose(dec.a.coords, cartan_projection(g).coords, atol=1e-10)


class TestJordanProjection:
    def test_diagonal(self):
        g = diag(4.0, 1.0, 0.25)
        assert np.allclose(jordan_projection(g).coords, [math.log(4), 0.0, -math.log(4)], atol=1e-12)

    def test_rotation_is_flat(self):
        assert np.allclose(jordan_projection(rotation(math.radians(30))).coords, 0.0, atol=1e-12)

    def test_fibonacci_matrix(self):
        # oracle: roots of x^2 - 3x + 1; dominant root (3+sqrt(5))/2
        g = GroupElement.from_matrix([[2, 1], [1, 1]])
        lam = math.log((3 + math.sqrt(5)) / 2)
        assert np.allclose(jordan_projection(g).coords, [lam, -lam], atol=1e-12)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(5)
        g = diag(3.0, 1.0, 1 / 3.0)
        for _ in range(10):
            h = random_unimodular(rng, 3, cond_cap=1e3)
            conj = h.matmul(g).matmul(h.inverse())
            assert np.allclose(
                jordan_projection(conj).coords, jordan_projection(g).coords, atol=1e-7
            )

    def test_cesaro_limit_moderate(self):
        # orthogonally conjugated diagonals make kappa(g^m) = m * lambda exactly
        rng = np.random.default_rng(9)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        g = GroupElement.from_matrix(q @ np.diag([math.e, 1.0, 1.0 / math.e]) @ q.T)
        lam = jordan_projection(g).coords
        k64 = cartan_of_power(g, 64).coords / 64
        assert np.linalg.norm(lam - k64) < 1e-4


def schur_moduli(m):
    """Eigenvalue moduli from the real Schur form; conjugate pairs read off 2x2 blocks."""
    t = scipy.linalg.schur(m, output="real")[0]
    moduli = []
    i = 0
    while i < len(t):
        if i + 1 < len(t) and t[i + 1, i] != 0.0:
            r = math.sqrt(abs(t[i, i] * t[i + 1, i + 1] - t[i, i + 1] * t[i + 1, i]))
            moduli += [r, r]
            i += 2
        else:
            moduli.append(abs(t[i, i]))
            i += 1
    return np.sort(moduli)[::-1]


@pytest.fixture(scope="module")
def sl3_pair():
    """The SL(3) pair of the golden runs."""
    pair = ([[1, 1, 0], [1, 2, 1], [0, 1, 2]], [[2, 0, 1], [1, 1, 1], [1, 0, 1]])
    return [GroupElement.from_exact(m) for m in pair]


class TestJordanAgainstSchur:
    """jordan_projection's eigvals moduli against a real-Schur-form oracle."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
    def test_random_unimodular(self, seed, n):
        g = random_unimodular(np.random.default_rng(seed), n)
        oracle = np.log(schur_moduli(g.entries))
        oracle -= oracle.mean()
        err = np.abs(jordan_projection(g).coords - oracle).max()
        assert err <= 1e-9 * max(1.0, np.abs(oracle).max())

    @pytest.mark.parametrize(
        "pair,radius", [("sanov_pair", 6), ("sl3_pair", 5), ("strong_rational_pair", 6)]
    )
    def test_balls_route_and_decide_as_the_oracle(self, pair, radius, request, monkeypatch):
        gens = request.getfixturevalue(pair)
        ball = enumerate_ball(gens, radius, include_inverses=True)
        routed = []
        eig = lie.mp.eig

        def counted_eig(m):
            routed.append(m)
            return eig(m)

        monkeypatch.setattr(lie.mp, "eig", counted_eig)
        route_diffs, lox_diffs, n_routed = [], [], 0
        for word, g in zip(ball.words, ball.elements()):
            before = len(routed)
            lam = jordan_projection(g)
            took_mp = len(routed) > before
            moduli = schur_moduli(g.entries)
            if took_mp != lie._needs_extended(moduli):
                route_diffs.append(word)
            n_routed += took_mp
            # a routed row reads mpmath's eigenvalues on either path
            if not took_mp:
                oracle = lie._chamber(np.log(moduli))
                if lie.has_loxodromic_gaps(lam, 1e-6) != lie.has_loxodromic_gaps(oracle, 1e-6):
                    lox_diffs.append(word)
        assert route_diffs == []
        assert lox_diffs == []
        assert (n_routed > 0) == (pair == "strong_rational_pair")


class TestJordanMisreadings:
    """Two float64 misreadings of the Jordan projection that stand on both the eigvals
    and the Schur path; the n = 2 closed form from the integer or rational trace would
    mend both."""

    @pytest.mark.xfail(
        strict=True,
        reason="a defective eigenvalue carries about sqrt(eps * |g|) of float64 noise, "
        "above gap_tol 1e-6: 12 of the 264 parabolic words of the radius-7 Sanov ball "
        "read as loxodromic (16 through a Schur form); no hyperbolic word is misread",
    )
    def test_parabolic_words_are_not_loxodromic(self, sanov_pair):
        ball = enumerate_ball(sanov_pair, 7, dedup="float", include_inverses=True)
        wrong = []
        for word, g in zip(ball.words, ball.elements()):
            den, rows = g.exact
            if is_loxodromic(g) != (abs(Fraction(rows[0][0] + rows[1][1], den)) > 2):
                wrong.append(word)
        assert wrong == []

    @pytest.mark.xfail(
        strict=True,
        reason="for b^-1 a^3 b on the strong pair the float moduli are [3.24e6, 0.026]: "
        "the range guard compares the small modulus with the large one, but its error "
        "scales with |g|^2 / lambda_max (|g| about 3.4e10), so the chamber reads "
        "+-9.32 instead of +-3 log 148 = +-14.99",
    )
    def test_deep_strong_conjugate(self, strong_rational_pair):
        a, b = strong_rational_pair
        g = b.inverse().matmul(a.matmul(a).matmul(a)).matmul(b)
        lam = 3 * math.log(148)
        assert np.abs(jordan_projection(g).coords - [lam, -lam]).max() < 1e-9


class TestOppositionInvolution:
    def test_symmetric_vector_fixed(self):
        h = CartanVector(np.array([1.0, 0.0, -1.0]))
        assert np.allclose(opposition_involution(h).coords, h.coords)

    def test_reverse_and_negate(self):
        h = CartanVector(np.array([3.0, -1.0, -2.0]))
        assert np.allclose(opposition_involution(h).coords, [2.0, 1.0, -3.0])

    def test_matches_inverse_cartan(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = random_unimodular(rng, 3)
            lhs = opposition_involution(cartan_projection(g)).coords
            rhs = cartan_projection(g.inverse()).coords
            assert np.allclose(lhs, rhs, atol=1e-8)


class TestSimpleRoots:
    @pytest.mark.parametrize(
        "coords,expected",
        [
            ([0.0, 0.0, 0.0], [0.0, 0.0]),
            ([2.0, 0.0, -2.0], [2.0, 2.0]),
            ([5.0, 1.0, -6.0], [4.0, 7.0]),
        ],
    )
    def test_consecutive_differences(self, coords, expected):
        vals = simple_root_values(CartanVector(np.array(coords)))
        assert [rv.index for rv in vals] == list(range(1, len(coords)))
        assert np.allclose([rv.value for rv in vals], expected)
        assert min_root_value(CartanVector(np.array(coords))) == min(expected)


class TestIwasawaCocycle:
    def test_diagonal_on_standard_flag(self):
        g = diag(math.e**3, math.e**-1, math.e**-2)
        b = iwasawa_cocycle(g, standard_flag(3))
        assert np.allclose(b, [3.0, -1.0, -2.0], atol=1e-12)

    def test_orthogonal_gives_zero(self):
        rng = np.random.default_rng(17)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        g = GroupElement.from_matrix(q)
        f = flag_from_frame(np.linalg.qr(rng.standard_normal((3, 3)))[0])
        assert np.allclose(iwasawa_cocycle(g, f), 0.0, atol=1e-12)

    def test_cocycle_identity_bulk(self):
        from slnlab import act_on_flag

        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(1000):
            g = random_unimodular(rng, 3)
            h = random_unimodular(rng, 3)
            f = flag_from_frame(rng.standard_normal((3, 3)))
            lhs = iwasawa_cocycle(g.matmul(h), f)
            rhs = iwasawa_cocycle(g, act_on_flag(h, f)) + iwasawa_cocycle(h, f)
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst < 1e-8


class TestSymmetricSpaceDistance:
    def test_zero_on_diagonal(self):
        rng = np.random.default_rng(23)
        g = random_unimodular(rng, 3)
        assert symmetric_space_distance(g, g) < 1e-9

    def test_identity_to_diagonal(self):
        d = symmetric_space_distance(GroupElement.identity(2), diag(math.e**2, math.e**-2))
        assert abs(d - math.sqrt(8.0)) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g, h = random_unimodular(rng, 3), random_unimodular(rng, 3)
            assert abs(symmetric_space_distance(g, h) - symmetric_space_distance(h, g)) < 1e-9


class TestLoxodromic:
    def test_diagonal_with_gap(self):
        assert is_loxodromic(diag(3.0, 1 / 3.0), gap_tol=0.1)

    def test_rotation(self):
        assert not is_loxodromic(rotation(math.radians(30)), gap_tol=1e-8)

    def test_unipotent(self):
        assert not is_loxodromic(GroupElement.from_matrix([[1, 1], [0, 1]]), gap_tol=1e-8)


class TestWorkingPrecision:
    """The extended-precision paths leave mpmath's working precision as they found it."""

    @pytest.mark.parametrize(
        "call",
        [
            cartan_projection,
            jordan_projection,
            lambda g: iwasawa_cocycle(g, standard_flag(2)),
            lambda g: cartan_of_power(g, 8),
        ],
        ids=["cartan", "jordan", "iwasawa", "power"],
    )
    def test_dps_unchanged(self, call):
        # s d^5 s^-1 for d = diag(148, 1/148): a spread far past float64's range
        s = GroupElement.from_exact([["4/5", "-3/5"], ["3/5", "4/5"]])
        d5 = GroupElement.from_exact([[148**5, 0], [0, "1/" + str(148**5)]])
        g = s.matmul(d5).matmul(s.inverse())
        with mp.workdps(21):
            call(g)
            assert mp.dps == 21


class TestCartanDifferenceBounds:
    def test_products_stay_within_factor_norms(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            g, h = random_unimodular(rng, 3), random_unimodular(rng, 3)
            kg, kh = cartan_projection(g), cartan_projection(h)
            kgh = cartan_projection(g.matmul(h))
            assert np.linalg.norm(kgh.coords - kh.coords) <= kg.norm + 1e-7
            assert np.linalg.norm(kgh.coords - kg.coords) <= kh.norm + 1e-7
