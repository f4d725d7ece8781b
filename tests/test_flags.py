import math

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from slnlab import (
    Flag,
    GroupElement,
    NotLoxodromic,
    OppositeFlag,
    RankDeficient,
    act_on_flag,
    attracting_flag,
    flag_distance,
    flag_from_frame,
    opposite_distance,
    opposite_from_frame,
    repelling_flag,
    standard_flag,
    standard_opposite,
    transversality_margin,
)
from slnlab.flags import (
    batch_projector_distance,
    batch_transversality_margin,
    flag_from_json,
    flag_to_json,
)
from slnlab.sampling import haar_frames


def diag(*vals):
    return GroupElement.from_matrix(np.diag(vals))


def random_special_orthogonal(rng, n):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestFrames:
    def test_identity_frame(self):
        assert np.allclose(flag_from_frame(np.eye(3)).frame, np.eye(3))

    def test_triangular_orthonormalizes_to_identity(self):
        m = np.array([[2.0, 1.0], [0.0, 0.5]])
        assert np.allclose(flag_from_frame(m).frame, np.eye(2), atol=1e-12)

    def test_permuted_columns_stay(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(np.abs(flag_from_frame(m).frame), np.abs(m))

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            flag_from_frame(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_sign_flips_are_distance_zero(self):
        f1 = Flag(np.eye(3))
        flipped = np.eye(3)
        flipped[:, 1] = -flipped[:, 1]
        assert flag_distance(f1, Flag(flipped)) < 1e-9

    def test_json_round_trip(self):
        f = standard_flag(3)
        assert isinstance(flag_from_json(flag_to_json(f)), Flag)
        y = standard_opposite(3)
        assert isinstance(flag_from_json(flag_to_json(y)), OppositeFlag)


class TestAction:
    def test_identity_action(self):
        rng = np.random.default_rng(1)
        f = flag_from_frame(rng.standard_normal((3, 3)))
        g = GroupElement.identity(3)
        assert flag_distance(act_on_flag(g, f), f) < 1e-12

    def test_projective_action_oracle(self, rp1):
        g = diag(math.e**5, math.e**-5)
        theta = 0.7
        f = Flag(rp1.flag_frame(theta))
        image = act_on_flag(g, f)
        expected = rp1.act(g.entries, theta)
        got = rp1.angle_of(image.frame[:, 0])
        assert abs(math.sin(expected - got)) < 1e-12

    def test_action_law(self):
        rng = np.random.default_rng(2)
        from slnlab import random_unimodular

        worst = 0.0
        for _ in range(1000):
            g, h = random_unimodular(rng, 3), random_unimodular(rng, 3)
            f = flag_from_frame(rng.standard_normal((3, 3)))
            lhs = act_on_flag(g.matmul(h), f)
            rhs = act_on_flag(g, act_on_flag(h, f))
            worst = max(worst, flag_distance(lhs, rhs))
        assert worst < 1e-8

    def test_opposite_action_preserves_trailing_spans(self):
        rng = np.random.default_rng(3)
        from slnlab import random_unimodular

        g = random_unimodular(rng, 3)
        y = opposite_from_frame(rng.standard_normal((3, 3)))
        moved = act_on_flag(g, y)
        # trailing span of image frame == g * trailing span of y, per level
        for i in range(1, 3):
            a = moved.frame[:, 3 - i :]
            b = g.entries @ y.frame[:, 3 - i :]
            combined = np.concatenate([a, b], axis=1)
            assert np.linalg.matrix_rank(combined, tol=1e-8) == i


class TestFlagDistance:
    def test_zero_on_self(self):
        f = standard_flag(3)
        assert flag_distance(f, f) == 0.0

    def test_orthogonal_lines_full_distance(self):
        f1 = standard_flag(2)
        f2 = Flag(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert abs(flag_distance(f1, f2) - 1.0) < 1e-12

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(4)
        f1 = flag_from_frame(rng.standard_normal((3, 3)))
        f2 = flag_from_frame(rng.standard_normal((3, 3)))
        d = flag_distance(f1, f2)
        for _ in range(10):
            k = GroupElement.from_matrix(random_special_orthogonal(rng, 3))
            assert abs(flag_distance(act_on_flag(k, f1), act_on_flag(k, f2)) - d) < 1e-9

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f1 = flag_from_frame(rng.standard_normal((3, 3)))
            f2 = flag_from_frame(rng.standard_normal((3, 3)))
            f3 = flag_from_frame(rng.standard_normal((3, 3)))
            d12, d21 = flag_distance(f1, f2), flag_distance(f2, f1)
            assert abs(d12 - d21) < 1e-12
            assert flag_distance(f1, f3) <= d12 + flag_distance(f2, f3) + 1e-9

    def test_opposite_metric(self):
        rng = np.random.default_rng(6)
        y1 = opposite_from_frame(rng.standard_normal((2, 2)))
        assert opposite_distance(y1, y1) == 0.0
        a = OppositeFlag(np.eye(2))
        b = OppositeFlag(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert abs(opposite_distance(a, b) - 1.0) < 1e-12
        for _ in range(25):
            u = opposite_from_frame(rng.standard_normal((3, 3)))
            v = opposite_from_frame(rng.standard_normal((3, 3)))
            w = opposite_from_frame(rng.standard_normal((3, 3)))
            assert opposite_distance(u, w) <= opposite_distance(u, v) + opposite_distance(v, w) + 1e-9


class TestTransversalityMargin:
    def test_standard_pair(self):
        assert transversality_margin(standard_flag(2), standard_opposite(2)).value == pytest.approx(1.0)

    def test_collision_is_zero(self):
        x = standard_flag(2)
        y = OppositeFlag(np.array([[0.0, 1.0], [1.0, 0.0]]))  # last column e1
        assert transversality_margin(x, y).value < 1e-12

    def test_45_degree_oracle(self, rp1):
        # svd oracle of [[1, sqrt(2)/2], [0, sqrt(2)/2]]
        x = standard_flag(2)
        y = OppositeFlag(rp1.opposite_frame(math.pi / 4))
        expected = math.sqrt(1.0 - math.cos(math.pi / 4))
        assert transversality_margin(x, y).value == pytest.approx(expected, abs=1e-12)

    def test_positive_iff_full_rank_bruteforce(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            for _ in range(30):
                x = flag_from_frame(rng.standard_normal((n, n)))
                y = opposite_from_frame(rng.standard_normal((n, n)))
                margin = transversality_margin(x, y).value
                full = all(
                    np.linalg.matrix_rank(
                        np.concatenate([x.frame[:, :i], y.frame[:, i:]], axis=1), tol=1e-10
                    )
                    == n
                    for i in range(1, n)
                )
                assert (margin > 1e-10) == full

    def test_adversarial_shared_subspace(self):
        # X and Y share the plane spanned by e1, e2 at complementary levels
        x = standard_flag(4)
        perm = np.eye(4)[:, [2, 3, 0, 1]]
        y = OppositeFlag(perm)  # last two columns span e1, e2
        assert transversality_margin(x, y).value < 1e-12

    def test_margin_lipschitz_in_first_argument(self):
        rng = np.random.default_rng(8)
        n = 3
        y = opposite_from_frame(rng.standard_normal((n, n)))
        for _ in range(50):
            x1 = flag_from_frame(rng.standard_normal((n, n)))
            x2 = flag_from_frame(rng.standard_normal((n, n)))
            z1 = transversality_margin(x1, y).value
            z2 = transversality_margin(x2, y).value
            assert abs(z1 - z2) <= 2.0 * math.sqrt(n) * flag_distance(x1, x2) + 1e-9


class TestPrincipalAngleReference:
    """The batched kernels against principal angles from scipy, at n = 3 and 4.

    On level i the projector difference of two i-planes has operator norm the sine
    of their largest principal angle; (first i of x, last n-i of y) has smallest
    singular value sqrt(1 - cos) of the smallest angle between the two spans.
    """

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_projector_metric(self, n, reverse):
        rng = np.random.default_rng(40 + n)
        a, b = haar_frames(rng, n, 40), haar_frames(rng, n, 40)
        cols = [slice(n - i, None) if reverse else slice(0, i) for i in range(1, n)]
        expected = np.array(
            [max(math.sin(subspace_angles(fa[:, c], fb[:, c])[0]) for c in cols) for fa, fb in zip(a, b)]
        )
        assert np.allclose(batch_projector_distance(a, b, reverse=reverse), expected, atol=1e-12)
        against_one = batch_projector_distance(a, b[0], reverse=reverse)
        assert against_one[0] == batch_projector_distance(a[0], b[0], reverse=reverse)
        single = opposite_distance if reverse else flag_distance
        kind = OppositeFlag if reverse else Flag
        for fa, fb, d in zip(a, b, expected):
            assert single(kind(fa), kind(fb)) == pytest.approx(d, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_transversality_margin(self, n):
        rng = np.random.default_rng(50 + n)
        x, y = haar_frames(rng, n, 40), haar_frames(rng, n, 40)
        expected = np.array(
            [
                min(math.sqrt(1.0 - math.cos(subspace_angles(fx[:, :i], fy[:, i:])[-1])) for i in range(1, n))
                for fx, fy in zip(x, y)
            ]
        )
        assert np.allclose(batch_transversality_margin(x, y), expected, atol=1e-9)
        for fx, fy, m in zip(x, y, expected):
            assert transversality_margin(Flag(fx), OppositeFlag(fy)).value == pytest.approx(m, abs=1e-9)


class TestAttractingRepelling:
    def test_diagonal(self):
        g = diag(3.0, 1.0, 1 / 3.0)
        assert flag_distance(attracting_flag(g), standard_flag(3)) < 1e-9
        assert opposite_distance(repelling_flag(g), standard_opposite(3)) < 1e-9

    def test_fibonacci_eigenvector_oracle(self, rp1):
        g = GroupElement.from_matrix([[2, 1], [1, 1]])
        phi_plus = rp1.angle_of(np.array([(1 + math.sqrt(5)) / 2, 1.0]))
        got = rp1.angle_of(attracting_flag(g).frame[:, 0])
        assert abs(math.sin(got - phi_plus)) < 1e-10
        phi_minus = rp1.angle_of(np.array([(1 - math.sqrt(5)) / 2, 1.0]))
        got_minus = rp1.angle_of(repelling_flag(g).frame[:, -1])
        assert abs(math.sin(got_minus - phi_minus)) < 1e-10

    def test_fixed_points(self):
        rng = np.random.default_rng(9)
        q = random_special_orthogonal(rng, 3)
        g = GroupElement.from_matrix(q @ np.diag([4.0, 1.0, 0.25]) @ q.T)
        xp = attracting_flag(g)
        assert flag_distance(act_on_flag(g, xp), xp) < 1e-7
        xm = repelling_flag(g)
        assert opposite_distance(act_on_flag(g, xm), xm) < 1e-7

    def test_power_iteration_convergence(self):
        g = diag(math.e**3, math.e**-3)
        target = attracting_flag(g)
        rng = np.random.default_rng(10)
        f = flag_from_frame(rng.standard_normal((2, 2)))
        g8 = GroupElement.from_matrix(np.linalg.matrix_power(g.entries, 8))
        assert flag_distance(act_on_flag(g8, f), target) < 1e-6

    def test_repelling_is_attracting_data_of_inverse(self):
        rng = np.random.default_rng(11)
        q = random_special_orthogonal(rng, 3)
        m = q @ np.diag([5.0, 1.0, 0.2]) @ q.T + 0.01 * rng.standard_normal((3, 3))
        g = GroupElement.from_matrix(m / np.linalg.det(m) ** (1 / 3))
        direct = repelling_flag(g)
        # independent path: dominant data of the inverse, assembled back to front
        ginv = g.inverse()
        w, v = np.linalg.eig(ginv.entries)
        order = np.argsort(np.abs(w))  # ascending modulus of g^-1 = descending of g
        from slnlab.flags import batch_orthonormalize

        two_path = OppositeFlag(batch_orthonormalize(np.real(v[:, order]), reverse=True))
        assert opposite_distance(direct, two_path) < 1e-8

    def test_rotation_refused(self):
        g = GroupElement.from_matrix(
            [[math.cos(0.5), -math.sin(0.5)], [math.sin(0.5), math.cos(0.5)]]
        )
        with pytest.raises(NotLoxodromic):
            attracting_flag(g)
        with pytest.raises(NotLoxodromic):
            repelling_flag(g)

    def test_near_tie_refused(self):
        g = diag(1.0001, 1.0, 1.0 / 1.0001)
        with pytest.raises(NotLoxodromic):
            attracting_flag(g, gap_tol=1e-3)


class TestNorthSouthDynamics:
    def test_uniform_convergence_on_margin_set(self):
        g = diag(math.e**5, 1.0, math.e**-5)
        xp, xm = attracting_flag(g), repelling_flag(g)
        g8 = GroupElement.from_matrix(np.linalg.matrix_power(g.entries, 8))
        rng = np.random.default_rng(12)
        tested = 0
        while tested < 200:
            f = flag_from_frame(rng.standard_normal((3, 3)))
            if transversality_margin(f, xm).value < 0.1:
                continue
            tested += 1
            assert flag_distance(act_on_flag(g8, f), xp) < 1e-5
