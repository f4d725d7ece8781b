import math

import numpy as np
import pytest

from slnlab import contraction
from slnlab import (
    Flag,
    GroupElement,
    MembershipUnverified,
    SymShadowQuery,
    calibrate_radius,
    cartan_projection,
    enumerate_ball,
    flag_shadow_in_sym_shadow,
    kak_decomposition,
    overlap_distance_bound,
    project_chamber,
    ray_distance_bound,
    shadows_certified_disjoint,
    sym_shadow_membership,
)


def diag(*vals):
    return GroupElement.from_matrix(np.diag(vals))


IDENT2 = GroupElement.identity(2)
# A^10 for A = [[1, 1, 0], [1, 2, 1], [0, 1, 2]]: contracts at epsilon 0.1
SL3_POWER = GroupElement.from_exact(
    [[14041, 31501, 25213], [31501, 70755, 56714], [25213, 56714, 45542]]
)


class TestChamberProjection:
    def test_idempotent_and_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal(4) * 3
            p = project_chamber(v)
            assert abs(p.sum()) < 1e-9
            assert np.all(np.diff(p) <= 1e-12)
            assert np.allclose(project_chamber(p), p, atol=1e-12)

    def test_projection_is_closest_point(self):
        # brute force over a grid for n=2: chamber is {(t, -t), t >= 0}
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.standard_normal(2) * 2
            p = project_chamber(v)
            ts = np.linspace(0, 5, 2001)
            cand = np.stack([ts, -ts], axis=1)
            best = cand[np.argmin(np.linalg.norm(cand - v, axis=1))]
            assert np.linalg.norm(p - best) < 5e-3


class TestMembership:
    def test_own_kak_flag_is_member(self):
        rng = np.random.default_rng(2)
        from slnlab import random_unimodular

        for _ in range(10):
            g = random_unimodular(rng, 3)
            f = Flag(kak_decomposition(g).k)
            res = sym_shadow_membership(SymShadowQuery(GroupElement.identity(3), g, 1e-3), f)
            assert res.member
            assert res.achieved < 1e-3

    def test_identity_target_contains_everything(self):
        rng = np.random.default_rng(3)
        from slnlab.sampling import haar_frames

        for fr in haar_frames(rng, 2, 5):
            res = sym_shadow_membership(SymShadowQuery(IDENT2, IDENT2, 0.1), Flag(fr))
            assert res.member

    def test_opposite_direction_excluded_with_lower_bound(self):
        # flag pointing at the repelling direction: distance stays >= kappa norm-ish
        g = diag(math.e**5, math.e**-5)
        f = Flag(np.array([[0.0, 1.0], [1.0, 0.0]]))
        res = sym_shadow_membership(SymShadowQuery(IDENT2, g, 1.0), f)
        assert not res.member
        # 1-d oracle: min over h of ||kappa(diag(e^-h, e^h) swap diag(e^5,e^-5))||
        hs = np.linspace(0, 20, 4001)
        vals = [np.sqrt(2) * (h + 5) for h in hs]
        assert res.achieved >= min(vals) - 1e-6

    def test_monotone_in_radius(self):
        g = diag(math.e**2, math.e**-2)
        rng = np.random.default_rng(4)
        from slnlab.sampling import haar_frames

        for fr in haar_frames(rng, 2, 10):
            f = Flag(fr)
            small = sym_shadow_membership(SymShadowQuery(IDENT2, g, 0.5), f)
            large = sym_shadow_membership(SymShadowQuery(IDENT2, g, 2.0), f)
            if small.member:
                assert large.member

    def test_equivariance_under_translation(self):
        rng = np.random.default_rng(5)
        from slnlab import random_unimodular
        from slnlab.flags import act_on_flag

        g = diag(math.e**2, 1.0, math.e**-2)
        h = random_unimodular(rng, 3)
        f = Flag(kak_decomposition(g).k)
        direct = sym_shadow_membership(SymShadowQuery(GroupElement.identity(3), g, 0.25), f)
        translated = sym_shadow_membership(
            SymShadowQuery(h, h.matmul(g), 0.25), act_on_flag(h, f)
        )
        assert direct.member == translated.member


class TestRayDistanceBound:
    def test_own_flag_zero(self):
        g = diag(math.e**3, math.e**-3)
        f = Flag(kak_decomposition(g).k)
        lhs, bound, holds = ray_distance_bound(f, g, R=1.0)
        assert lhs < 1e-9
        assert holds

    def test_nonmember_rejected(self):
        g = diag(math.e**5, math.e**-5)
        f = Flag(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(MembershipUnverified):
            ray_distance_bound(f, g, R=0.5)

    def test_enumerated_records(self, strong_rational_pair):
        records = enumerate_ball(strong_rational_pair, 3, dedup="none")
        for r in records:
            lhs, bound, holds = ray_distance_bound(Flag(r.kak.k), r.element, R=1.0)
            assert holds, f"violation at word {r.word}: {lhs} > {bound}"


class TestOverlapDistanceBound:
    def test_same_element_intersects(self):
        g = diag(math.e**2, math.e**-2)
        intersects, bound_holds = overlap_distance_bound(g, g, R=0.5, probe_budget=8)
        assert intersects
        assert bound_holds

    def test_orthogonal_axes_disjoint(self):
        g1 = diag(math.e**6, math.e**-6)
        r = GroupElement.from_matrix([[0.0, -1.0], [1.0, 0.0]])
        g2 = r.matmul(g1).matmul(r.inverse())
        intersects, bound_holds = overlap_distance_bound(g1, g2, R=0.25, probe_budget=24)
        assert not intersects
        assert bound_holds
        assert shadows_certified_disjoint(g1, g2, 0.25)

    def test_nearby_pair_intersects_with_slack(self):
        g1 = diag(math.e**2, math.e**-2)
        bump = GroupElement.from_matrix([[1.0, 0.01], [0.0, 1.0]])
        g2 = g1.matmul(bump)
        intersects, bound_holds = overlap_distance_bound(g1, g2, R=0.5, probe_budget=8)
        assert intersects
        assert bound_holds


class TestFlagShadowInsideSymShadow:
    def test_calibrated_radius_holds(self, strong_rational_pair):
        g = strong_rational_pair[0]
        rows, r_min = calibrate_radius(g, 0.1, radii=[0.05, 0.2, 0.5, 1.0, 2.0], probe_budget=24)
        assert r_min is not None
        rep = flag_shadow_in_sym_shadow(g, 0.1, r_min, probe_budget=24)
        assert rep.holds

    def test_tiny_radius_violates(self, strong_rational_pair):
        g = strong_rational_pair[0]
        rep = flag_shadow_in_sym_shadow(g, 0.1, R=1e-4, probe_budget=16)
        assert not rep.holds
        assert rep.violations > 0

    def test_calibration_certifies_once(self, monkeypatch, strong_rational_pair):
        calls = []
        check = contraction.check_contracting

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(contraction, "check_contracting", counted)
        calibrate_radius(strong_rational_pair[0], 0.1, radii=[0.05, 0.5, 2.0], probe_budget=4)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "g, radii",
        [
            (GroupElement.from_exact([["148", "0"], ["0", "1/148"]]), [0.05, 0.2, 0.5, 1.0, 2.0]),
            (SL3_POWER, [0.25, 1.0, 4.0]),
        ],
        ids=["n2", "n3"],
    )
    def test_rows_match_per_radius_reports(self, g, radii):
        rows, r_min = calibrate_radius(g, 0.1, radii, probe_budget=8, seed=5)
        reports = [flag_shadow_in_sym_shadow(g, 0.1, R, probe_budget=8, seed=5, cert=None) for R in radii]
        assert rows == [(0.1, g.n, R, rep.violations, rep.probes) for R, rep in zip(radii, reports)]
        assert r_min == next((R for R, rep in zip(radii, reports) if rep.holds), None)

    def test_zero_budget_vacuous(self, strong_rational_pair):
        rep = flag_shadow_in_sym_shadow(strong_rational_pair[0], 0.1, R=1.0, probe_budget=0)
        assert rep.holds
        assert rep.vacuous


class TestViewpointContinuity:
    def test_membership_sandwich_along_diagonal_sequence(self):
        # growing-gap diagonals: radii R -/+ 0.1 sandwich the limiting viewpoint,
        # proxied by a much deeper element of the same sequence
        R = 0.6
        rng = np.random.default_rng(6)
        from slnlab.sampling import haar_frames

        probes = [Flag(fr) for fr in haar_frames(rng, 2, 12)]
        deep = diag(math.e**9, math.e**-9)

        def member(base_elem, radius, f):
            q = SymShadowQuery(base_elem, GroupElement.identity(2), radius)
            return sym_shadow_membership(q, f).member

        reference = [member(deep, R, f) for f in probes]
        for k in (6, 7, 8):
            g = diag(math.e**k, math.e**-k)
            inner = [member(g, R - 0.1, f) for f in probes]
            outer = [member(g, R + 0.1, f) for f in probes]
            for i_flag in range(len(probes)):
                if inner[i_flag]:
                    assert reference[i_flag], "inner membership must imply the limit"
                if reference[i_flag]:
                    assert outer[i_flag], "limit membership must imply outer"
