import dataclasses
import math

import numpy as np
import pytest

from slnlab import (
    BudgetExceeded,
    Cone,
    DedupUnavailable,
    FilterSpec,
    GroupElement,
    SlnLabError,
    attracting_flag,
    barycentric_axis,
    cartan_projection,
    enumerate_ball,
    filter_gamma_set,
    fixed_flags,
    flag_distance,
    greedy_disjoint_pack,
    measure_cone_width_constant,
    repelling_flag,
    zariski_heuristic,
)
from slnlab.flags import Flag
from slnlab.lie import CartanVector


def diag(*vals):
    return GroupElement.from_matrix(np.diag(vals))


@pytest.fixture(scope="module")
def schottky_ball(strong_rational_pair):
    return enumerate_ball(strong_rational_pair, 5, dedup="none")


class TestCone:
    def test_membership(self):
        axis = barycentric_axis(3)
        cone = Cone(axis=axis, half_angle=0.3)
        assert cone.contains(axis)
        assert cone.contains(CartanVector(np.array([1.01, 0.0, -1.01]) / np.linalg.norm([1.01, 0, -1.01])))
        # a wall direction is outside any interior cone of small angle
        wall = np.array([1.0, 1.0, -2.0])
        assert not cone.contains(wall - wall.mean())

    def test_rejects_wall_axis(self):
        v = np.array([1.0, 1.0, -2.0])
        v = v - v.mean()
        with pytest.raises(SlnLabError):
            Cone(axis=CartanVector(v / np.linalg.norm(v)), half_angle=0.3)


class TestEnumerateBall:
    def test_single_generator_powers(self):
        g = diag(2.0, 0.5)
        records = enumerate_ball([g], 3)
        assert [r.word for r in records] == [(1,), (1, 1), (1, 1, 1)]
        assert np.allclose(records[2].kappa.coords, [3 * math.log(2), -3 * math.log(2)])

    def test_two_generators_no_dedup_counts(self, strong_rational_pair):
        records = enumerate_ball(strong_rational_pair, 2, dedup="none")
        assert len(records) == 6  # 2 + 4

    def test_records_are_complete(self, schottky_ball):
        for i, r in enumerate(schottky_ball[:20]):
            assert np.allclose(
                r.kappa.coords, cartan_projection(r.element).coords, atol=1e-9
            )
            # reconstruction degrades with conditioning; stay in the float envelope
            if np.linalg.cond(r.element.entries) < 1e9:
                recon = r.kak.reconstruct()
                scale = max(1.0, np.abs(r.element.entries).max())
                assert np.abs(recon - r.element.entries).max() < 1e-7 * scale
            assert np.abs(schottky_ball.k_frames[i] - r.kak.k).max() == 0.0

    def test_sanov_free_group_ball(self, sanov_pair):
        records = enumerate_ball(sanov_pair, 4, dedup="exact", include_inverses=True)
        # reduced words in rank-2 free group: 4 * 3^(k-1) per length k
        assert len(records) == 4 + 12 + 36 + 108

    def test_exact_dedup_collapses_relations(self):
        # rotation by 90 degrees has order 4: the ball collapses accordingly
        r = GroupElement.from_exact([[0, -1], [1, 0]])
        records = enumerate_ball([r], 8, dedup="exact")
        assert len(records) == 4  # r, r^2, r^3, r^4 = id; higher powers repeat

    def test_exact_dedup_requires_exact(self):
        g = diag(math.e, math.e**-1)
        with pytest.raises(DedupUnavailable):
            enumerate_ball([g], 3, dedup="exact")

    def test_budget(self, sanov_pair):
        with pytest.raises(BudgetExceeded):
            enumerate_ball(sanov_pair, 12, include_inverses=True, node_budget=1000)

    def test_float_dedup_no_duplicate_keys(self, sanov_pair):
        records = enumerate_ball(sanov_pair, 5, dedup="float", include_inverses=True)
        keys = {np.round(r.element.entries, 9).tobytes() for r in records}
        assert len(keys) == len(records)


class TestFilterGammaSet:
    def test_vacuous_thresholds_keep_generic_records(self, strong_rational_pair, schottky_ball):
        x = attracting_flag(strong_rational_pair[0])
        y = repelling_flag(strong_rational_pair[0])
        spec = FilterSpec(
            cone=Cone(axis=barycentric_axis(2), half_angle=1.5), x=x, y=y,
            n_min=0.0, epsilon=0.124,
        )
        kept = filter_gamma_set(schottky_ball, spec)
        # words starting and ending with the first generator survive
        assert any(r.word[0] == 1 and r.word[-1] == 1 for r in kept)

    def test_unreachable_norm_floor_empties(self, strong_rational_pair, schottky_ball):
        x = attracting_flag(strong_rational_pair[0])
        y = repelling_flag(strong_rational_pair[0])
        spec = FilterSpec(
            cone=Cone(axis=barycentric_axis(2), half_angle=1.5), x=x, y=y,
            n_min=1e4, epsilon=0.1,
        )
        assert len(filter_gamma_set(schottky_ball, spec)) == 0

    def test_schottky_anchor_selects_first_letter(self, strong_rational_pair, schottky_ball):
        g1 = strong_rational_pair[0]
        x, y = attracting_flag(g1), repelling_flag(g1)
        spec = FilterSpec(
            cone=Cone(axis=barycentric_axis(2), half_angle=1.5),
            x=x, y=y, n_min=0.0, epsilon=0.1,
        )
        kept = filter_gamma_set(schottky_ball, spec)
        assert kept, "anchored filter should be nonempty on the fixture ball"
        for r in kept:
            assert r.word[0] == 1, "k-flag close to the anchor forces the first letter"
            assert r.word[-1] == 1, "repelling data close to the anchor forces the last letter"
        assert all(flag_distance(Flag(r.kak.k), x) < 0.1 for r in kept)

    def test_monotone_in_epsilon_and_floor(self, strong_rational_pair, schottky_ball):
        g1 = strong_rational_pair[0]
        x, y = attracting_flag(g1), repelling_flag(g1)
        cone = Cone(axis=barycentric_axis(2), half_angle=1.5)
        wide = filter_gamma_set(schottky_ball, FilterSpec(cone=cone, x=x, y=y, n_min=0.0, epsilon=0.12))
        narrow = filter_gamma_set(schottky_ball, FilterSpec(cone=cone, x=x, y=y, n_min=6.0, epsilon=0.05))
        wide_words = {r.word for r in wide}
        assert all(r.word in wide_words for r in narrow)

    def test_annular_window(self, strong_rational_pair, schottky_ball):
        g1 = strong_rational_pair[0]
        x, y = attracting_flag(g1), repelling_flag(g1)
        cone = Cone(axis=barycentric_axis(2), half_angle=1.5)
        ann = filter_gamma_set(
            schottky_ball,
            FilterSpec(cone=cone, x=x, y=y, n_min=10.0, width=15.0, epsilon=0.12),
        )
        assert ann
        for r in ann:
            assert 10.0 <= r.kappa.norm < 25.0

    def test_standing_bound_enforced(self, strong_rational_pair):
        g1 = strong_rational_pair[0]
        x, y = attracting_flag(g1), repelling_flag(g1)
        with pytest.raises(SlnLabError):
            FilterSpec(cone=Cone(axis=barycentric_axis(2), half_angle=1.5),
                       x=x, y=y, n_min=0.0, epsilon=0.2)


class TestGreedyPack:
    def test_single_candidate_survives(self, schottky_ball):
        assert greedy_disjoint_pack(schottky_ball[:1], R=1.0).words == schottky_ball[:1].words

    def test_identical_matrices_collapse(self, schottky_ball):
        twice = schottky_ball[[0, 0]]
        word = twice.words[0]
        # distinct label, same matrix
        dup = dataclasses.replace(twice, words=[word, word + (0,)])
        packed = greedy_disjoint_pack(dup, R=1.0)
        assert len(packed) == 1

    def test_selection_is_deterministic_and_disjoint(self, schottky_ball):
        packed = greedy_disjoint_pack(schottky_ball, R=1.0)
        packed2 = greedy_disjoint_pack(schottky_ball, R=1.0)
        assert [r.word for r in packed] == [r.word for r in packed2]
        from slnlab import shadows_certified_disjoint

        for i, a in enumerate(packed):
            for b in packed[i + 1 :]:
                assert shadows_certified_disjoint(a.element, b.element, 1.0)

    def test_probe_reverification(self, strong_rational_pair):
        # no Haar probe may fall into two packed shadows
        from slnlab import GroupElement, SymShadowQuery, sym_shadow_membership
        from slnlab.sampling import haar_frames
        from slnlab.flags import Flag

        ball = enumerate_ball(strong_rational_pair, 3, dedup="none")
        packed = greedy_disjoint_pack(ball, R=0.5)[:4]
        rng = np.random.default_rng(3)
        probes = haar_frames(rng, 2, 25)
        ident = GroupElement.identity(2)
        for i in range(probes.shape[0]):
            hits = 0
            for rec in packed:
                q = SymShadowQuery(ident, rec.element, 0.5)
                if sym_shadow_membership(q, Flag(probes[i])).member:
                    hits += 1
            assert hits <= 1


class TestZariskiHeuristic:
    def test_single_diagonal_inconclusive(self):
        g = diag(2.0, 0.5)
        records = enumerate_ball([g], 5)
        rep = zariski_heuristic(records)
        assert rep.verdict == "inconclusive"
        assert rep.span_dimension == 2

    def test_sanov_ball_consistent(self, sanov_pair):
        records = enumerate_ball(sanov_pair, 4, dedup="exact", include_inverses=True)
        rep = zariski_heuristic(records)
        assert rep.full_matrix_algebra
        assert rep.span_dimension == 4
        assert rep.verdict == "consistent with Zariski dense"

    def test_rotations_only_inconclusive(self):
        r = GroupElement.from_exact([[0, -1], [1, 0]])
        records = enumerate_ball([r], 4, dedup="exact")
        rep = zariski_heuristic(records)
        assert rep.loxodromic_count == 0
        assert rep.verdict == "inconclusive"


class TestConeWidthConstant:
    def test_annulus_bound(self, schottky_ball):
        lam = measure_cone_width_constant(schottky_ball, n_min=10.0, width=15.0)
        assert lam >= 0.0
        # every pair in the annulus obeys the measured constant by construction
        anns = [r.kappa.coords for r in schottky_ball if 10.0 <= r.kappa.norm < 25.0]
        for a in anns[:10]:
            for b in anns[:10]:
                assert np.linalg.norm(a - b) <= lam * 25.0 + 1e-9


class TestTranslationStability:
    def test_left_translation_lands_in_translated_filter(self):
        # mild-strength pair in n=3 so the tighter filter is populated
        c, s = 4 / 5, 3 / 5
        q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        d1 = diag(math.e**1.2, 1.0, math.e**-1.2)
        d2 = GroupElement.from_matrix(q @ d1.entries @ q.T)
        ball = enumerate_ball([d1, d2], 8, dedup="none")

        g = d1
        x, y = attracting_flag(g, 1e-8), repelling_flag(g, 1e-8)
        gx = x  # g fixes its own attracting flag
        eps = 0.12
        # measured Lipschitz constant of g on the flag variety
        from slnlab.flags import flag_from_frame, act_on_flag
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(400):
            f1 = flag_from_frame(rng.standard_normal((3, 3)))
            f2f = f1.frame + 1e-4 * rng.standard_normal((3, 3))
            f2 = flag_from_frame(f2f)
            d0 = flag_distance(f1, f2)
            if d0 > 1e-9:
                ratios.append(flag_distance(act_on_flag(g, f1), act_on_flag(g, f2)) / d0)
        L_hat = max(ratios)

        axis = barycentric_axis(3)
        tight = FilterSpec(cone=Cone(axis=axis, half_angle=0.3), x=x, y=y,
                           n_min=3.0 + cartan_projection(g).norm, epsilon=eps / (2 * L_hat))
        loose = FilterSpec(cone=Cone(axis=axis, half_angle=0.5), x=gx, y=y,
                           n_min=3.0, epsilon=eps)
        tight_records = filter_gamma_set(ball, tight)
        assert tight_records, "tighter filter must be populated for a meaningful check"

        failures = []
        for r in tight_records:
            moved = g.matmul(r.element)
            kap = cartan_projection(moved)
            ok = (
                loose.cone.contains(kap)
                and kap.norm >= loose.n_min
                and flag_distance(
                    attracting_flag(moved, 1e-9) if False else _k_flag(moved), gx
                ) < eps
            )
            if not ok:
                failures.append((r.word, r.kappa.norm))
        # above a fitted norm threshold there are no counterexamples
        if failures:
            tau = max(n for _, n in failures)
            clean = [r for r in tight_records if r.kappa.norm > tau]
            assert clean, f"no clean norm slice; failures up to {tau}"
        else:
            tau = 0.0
        max_norm = max(r.kappa.norm for r in tight_records)
        assert tau < max_norm


def _k_flag(element):
    from slnlab import kak_decomposition
    from slnlab.flags import Flag

    return Flag(kak_decomposition(element).k)


SL3_PAIR = ([[1, 1, 0], [1, 2, 1], [0, 1, 2]], [[2, 0, 1], [1, 1, 1], [1, 0, 1]])
# a loxodromic word of each ball whose fixed flags anchor the filter
ANCHOR_WORD = {"sanov": (1, 2), "strong": (1,), "sl3": (1, 1, 2)}


def _columns_case(name, sanov_pair, strong_rational_pair):
    """A ball at n = 2 or n = 3 and the element of its anchor word."""
    if name == "sanov":
        ball = enumerate_ball(sanov_pair, 6, dedup="float", include_inverses=True)
    elif name == "strong":
        # deep words take the extended-precision chamber vectors
        ball = enumerate_ball(strong_rational_pair, 5)
    else:
        gens = [GroupElement.from_exact(m) for m in SL3_PAIR]
        ball = enumerate_ball(gens, 4, dedup="float", include_inverses=True)
    return ball, ball[ball.words.index(ANCHOR_WORD[name])].element


def _assert_rows_equal(a, b):
    assert a.word == b.word
    assert np.array_equal(a.element.entries, b.element.entries)
    assert a.element.exact == b.element.exact
    assert np.array_equal(a.kappa.coords, b.kappa.coords)
    assert np.array_equal(a.kak.k, b.kak.k)
    assert np.array_equal(a.kak.l, b.kak.l)


@pytest.mark.parametrize("name", ["sanov", "strong", "sl3"])
class TestBallColumns:
    """The columns of an OrbitBall agree bit for bit with the rows built from them."""

    def test_rows_match_columns(self, name, sanov_pair, strong_rational_pair):
        ball, _ = _columns_case(name, sanov_pair, strong_rational_pair)
        assert len(ball) == len(ball.words) == len(ball.lengths)
        for i, r in enumerate(ball):
            assert ball.norms[i] == r.kappa.norm
            assert ball.lengths[i] == len(r.word)
            assert np.array_equal(ball.kappas[i], r.kappa.coords)
            assert np.array_equal(ball.k_frames[i], r.kak.k)
            assert np.array_equal(ball.l_frames[i], r.kak.l)
            assert np.array_equal(ball.matrices[i], r.element.entries)
            _assert_rows_equal(ball[i], r)

    def test_sub_balls_are_parent_rows(self, name, sanov_pair, strong_rational_pair):
        ball, anchor = _columns_case(name, sanov_pair, strong_rational_pair)
        x, y = fixed_flags(anchor)
        spec = FilterSpec(cone=Cone(axis=barycentric_axis(anchor.n), half_angle=0.6),
                          x=x, y=y, n_min=0.0, epsilon=0.07)
        kept = filter_gamma_set(ball, spec)
        packed = greedy_disjoint_pack(kept, R=0.05)
        assert len(packed) >= 2
        row_of = {w: i for i, w in enumerate(ball.words)}
        kept_rows = [row_of[w] for w in kept.words]
        assert kept_rows == sorted(kept_rows)
        for sub in (kept, packed):
            for r, i in zip(sub, [row_of[w] for w in sub.words]):
                _assert_rows_equal(r, ball[i])
