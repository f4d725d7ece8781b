import math
from dataclasses import dataclass

import numpy as np
import pytest

from slnlab import (
    CartanVector,
    DegenerateFit,
    GroupElement,
    TooFewRecords,
    anosov_slope,
    attracting_flag,
    busemann_cartan_constant,
    cartan_projection,
    check_extension_sum_growth,
    enumerate_ball,
    estimate_delta,
    generator_sum_condition,
    growth_indicator_estimate,
    limit_cone_sample,
    min_root_value,
    poincare_partial_sum,
    subadditivity_defect,
)
from slnlab.orbits import barycentric_axis


@dataclass
class Syn:
    """Synthetic ball columns: all the growth estimators read are norms and lengths."""

    kappas: np.ndarray
    lengths: np.ndarray

    @property
    def norms(self):
        return np.sqrt(np.vecdot(self.kappas, self.kappas))


def synthetic_free_records(L=5.0, depth=12):
    lengths = np.repeat(np.arange(1, depth + 1), 2 ** np.arange(1, depth + 1))
    x = L * lengths / math.sqrt(2)
    return Syn(np.stack([x, -x], axis=1), lengths)


def diag(*vals):
    return GroupElement.from_matrix(np.diag(vals))


@pytest.fixture(scope="module")
def schottky_ball(strong_rational_pair):
    return enumerate_ball(strong_rational_pair, 10, dedup="none")


class TestPoincareSum:
    def test_empty(self):
        assert poincare_partial_sum(Syn(np.empty((0, 2)), np.empty(0, dtype=int)), 1.0) == 0.0

    def test_single_record(self):
        x = 2.0 / math.sqrt(2)
        rec = Syn(np.array([[x, -x]]), np.array([1]))
        assert poincare_partial_sum(rec, 1.0) == pytest.approx(math.exp(-2.0))

    def test_zero_exponent_counts_words(self, schottky_ball):
        assert poincare_partial_sum(schottky_ball, 0.0) == pytest.approx(2**11 - 2)

    def test_monotone_in_s(self, schottky_ball):
        vals = [poincare_partial_sum(schottky_ball, s) for s in np.linspace(0, 2, 9)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestEstimateDelta:
    def test_synthetic_free_semigroup(self):
        records = synthetic_free_records(L=5.0)
        rep = estimate_delta(records, bins=5.0)
        assert rep.delta_hat == pytest.approx(math.log(2) / 5.0, rel=0.02)

    def test_cyclic_semigroup_rate_zero(self):
        g_norm = 2.0
        k = np.arange(1, 201)
        records = Syn(np.stack([g_norm * k, -g_norm * k], axis=1) / math.sqrt(2), k)
        rep = estimate_delta(records, bins=1.0)
        assert rep.delta_hat < 0.05

    def test_too_few_records(self):
        with pytest.raises(TooFewRecords):
            estimate_delta(synthetic_free_records(depth=4))

    def test_single_bin_degenerate(self):
        x = 3.0 / math.sqrt(2)
        records = Syn(np.tile([x, -x], (200, 1)), np.ones(200, dtype=int))
        with pytest.raises(DegenerateFit):
            estimate_delta(records, bins=1.0)

    def test_matrix_level_schottky(self, schottky_ball, strong_rational_pair):
        l_bar = float(
            np.mean([cartan_projection(g).norm for g in strong_rational_pair])
        )
        rep = estimate_delta(schottky_ball, bins=2.0)
        assert rep.delta_hat == pytest.approx(math.log(2) / l_bar, rel=0.15)


class TestLimitCone:
    def test_single_direction(self):
        g = diag(math.e**3, math.e**-3)
        records = enumerate_ball([g], 5)
        sample = limit_cone_sample(records, floor=2.0)
        assert not sample.empty
        assert np.allclose(sample.kappa_directions, sample.kappa_directions[0])

    def test_schottky_directions_stay_interior(self, schottky_ball):
        sample = limit_cone_sample(schottky_ball, floor=5.0)
        for v in sample.kappa_directions:
            assert min_root_value(CartanVector(v)) > 0.1
        for v in sample.lambda_directions:
            assert min_root_value(CartanVector(v)) > 0.1

    def test_empty_after_floor(self, schottky_ball):
        sample = limit_cone_sample(schottky_ball, floor=1e6)
        assert sample.empty


class TestGrowthIndicator:
    def test_single_generator_rate_zero(self):
        g = diag(math.e**2, math.e**-2)
        records = enumerate_ball([g], 150)
        axis = barycentric_axis(2)
        curve = growth_indicator_estimate(records, axis, [0.2, 0.5])
        for point in curve:
            assert point.tau_hat is not None
            assert point.tau_hat < 0.05

    def test_direction_off_support_gives_errors(self, schottky_ball):
        # n=2 chamber is one ray: shrink the cone so nothing of low norm enters
        axis = barycentric_axis(2)
        curve = growth_indicator_estimate(schottky_ball[:120], axis, [1e-9])
        assert curve[0].tau_hat is None

    def test_schottky_curve_bounded_by_delta(self, schottky_ball):
        rep = estimate_delta(schottky_ball, bins=2.0)
        axis = barycentric_axis(2)
        curve = growth_indicator_estimate(schottky_ball, axis, [0.2, 0.4, 0.8], bins=2.0)
        finite = [c.tau_hat for c in curve if c.tau_hat is not None]
        assert finite
        assert finite[-1] <= rep.delta_hat * 1.10


class TestSubadditivityDefect:
    def test_commuting_diagonals(self):
        g = diag(math.e**2, math.e**-2)
        h = diag(math.e**3, math.e**-3)
        mx, mean, hist = subadditivity_defect(None, pairs=[(g, h), (h, g)])
        assert mx < 1e-9

    def test_inverse_pair_cancels_completely(self):
        rng = np.random.default_rng(0)
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        g = GroupElement.from_matrix(q @ np.diag([math.e**2, math.e**-2]) @ q.T)
        mx, _, _ = subadditivity_defect(None, pairs=[(g, g.inverse())])
        assert mx == pytest.approx(2 * cartan_projection(g).norm, abs=1e-8)

    def test_certified_words_have_small_defect(self, strong_rational_pair):
        words = _words_up_to(strong_rational_pair, 3)
        pairs = [(a, b) for a in words for b in words]
        mx, mean, _ = subadditivity_defect(None, pairs=pairs)
        assert mx < 0.5
        assert mean < mx + 1e-12

    def test_triple_busemann_bound(self, strong_rational_pair):
        # defects over pairs of length <= 3 are bounded by three times the
        # measured cocycle deviation over words of length <= 6
        words3 = _words_up_to(strong_rational_pair, 3)
        pairs = [(a, b) for a in words3 for b in words3]
        mx, _, _ = subadditivity_defect(None, pairs=pairs)
        anchor = attracting_flag(strong_rational_pair[0])
        c_hat = busemann_cartan_constant(_words_up_to(strong_rational_pair, 6), anchor)
        assert mx <= 3 * c_hat


class TestAnosovSlope:
    def test_single_diagonal_exact(self):
        g = diag(math.e**2, math.e**-2)
        records = enumerate_ball([g], 8)
        C, c, ratio = anosov_slope(records)
        assert C == pytest.approx(4.0, abs=1e-9)
        assert c == pytest.approx(0.0, abs=1e-9)
        assert ratio == pytest.approx(4.0, abs=1e-9)

    def test_schottky_ball_bounded_below(self, schottky_ball, strong_rational_pair):
        records = schottky_ball[schottky_ball.lengths <= 8]
        C, c, ratio = anosov_slope(records)
        assert C > 0
        gen_gap = min(
            min_root_value(cartan_projection(g)) for g in strong_rational_pair
        )
        gen_cost = max(cartan_projection(g).norm for g in strong_rational_pair)
        assert ratio > 0.5 * gen_gap / gen_cost

    def test_unipotent_fails(self):
        g = GroupElement.from_matrix([[1, 1], [0, 1]])
        records = enumerate_ball([g], 40)
        C, c, ratio = anosov_slope(records)
        assert ratio < 0.2
        assert C < 0.2


class TestGeneratorSumGrowth:
    def test_extension_sums_hold_on_fixture(self, strong_rational_pair):
        norms = [cartan_projection(g).norm for g in strong_rational_pair]
        # pick the largest delta for which the selection sum still reaches 1
        delta = math.log(2) / max(norms) * 0.98
        assert generator_sum_condition(norms, delta) >= 1.0
        words = _words_up_to(strong_rational_pair, 4)
        holds, worst = check_extension_sum_growth(strong_rational_pair, words, delta)
        assert holds
        assert worst >= 1.0

    def test_refuses_without_selection_sum(self, strong_rational_pair):
        from slnlab import SlnLabError

        with pytest.raises(SlnLabError):
            check_extension_sum_growth(strong_rational_pair, [], delta=5.0)


def _words_up_to(gens, depth):
    words = list(gens)
    frontier = list(gens)
    for _ in range(depth - 1):
        frontier = [w.matmul(g) for w in frontier for g in gens]
        words.extend(frontier)
    return words
