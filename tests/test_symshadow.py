import inspect
import math
import sys

from hypothesis import given, strategies as st
import numpy as np
import pytest
import scipy.optimize

from slnlab import contraction, symshadow
from slnlab import (
    CartanVector,
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
    random_unimodular,
    ray_distance_bound,
    shadows_certified_disjoint,
    sym_shadow_membership,
)
from slnlab.flags import batch_orthonormalize
from slnlab.sampling import haar_frames
from slnlab.symshadow import MembershipResult


def diag(*vals):
    return GroupElement.from_matrix(np.diag(vals))


IDENT2 = GroupElement.identity(2)
# A^10 for A = [[1, 1, 0], [1, 2, 1], [0, 1, 2]]: contracts at epsilon 0.1
SL3_POWER = GroupElement.from_exact(
    [[14041, 31501, 25213], [31501, 70755, 56714], [25213, 56714, 45542]]
)


def scan_membership(query, f, rays=9, radii=20, refine_iters=200):
    """(branch, result) of the seed-by-seed grid scan that the stacked grid replaced,
    with the objective written by mean and norm.

    The branch is "kappa", "grid" (a seed at or below R/2), "near" (refinement after a
    seed at or below R) or "refine". By the 1-Lipschitz Cartan projection a seed h within
    R/2 puts the kappa point within |kappa - h| + R/2 <= R, so "grid" needs rounding.
    """
    base_inv = query.base.inverse()
    target = base_inv.matmul(query.target)
    core = batch_orthonormalize(base_inv.entries @ f.frame).T @ target.entries

    def objective(h_raw):
        h = project_chamber(h_raw)
        svals = np.linalg.svd(np.exp(-h)[:, None] * core, compute_uv=False)
        if svals[-1] <= 0 or not np.all(np.isfinite(svals)):
            return 1e18
        logs = np.log(svals)
        return float(np.linalg.norm(logs - logs.mean()))

    n = target.n
    kappa_t = cartan_projection(target).coords
    scale = max(float(np.linalg.norm(kappa_t)), 1.0)
    best_h = project_chamber(kappa_t)
    best = objective(best_h)
    if best <= query.R:
        return "kappa", MembershipResult(True, best, CartanVector(best_h))
    seeds = [np.zeros(n)]
    for ray in symshadow._chamber_rays(n, rays):
        for t in np.linspace(0.0, 1.5 * scale, radii):
            seeds.append(t * ray)
    for h in seeds:
        val = objective(h)
        if val < best:
            best, best_h = val, project_chamber(h)
            if best <= query.R * 0.5:
                return "grid", MembershipResult(True, best, CartanVector(best_h))
    branch = "near" if best <= query.R else "refine"
    res = scipy.optimize.minimize(
        objective, best_h, method="Nelder-Mead",
        options={"maxiter": refine_iters, "xatol": 1e-8, "fatol": 1e-10},
    )
    if res.fun < best:
        best, best_h = float(res.fun), project_chamber(res.x)
    return branch, MembershipResult(bool(best <= query.R), best, CartanVector(best_h))


def membership_cases(n, count, seed):
    """Seeded (query, flag) pairs: spread targets, random or near-own or repelling flags."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = np.exp(rng.uniform(-3.0, 3.0, n))
        target = random_unimodular(rng, n).matmul(GroupElement.from_matrix(np.diag(d / np.prod(d) ** (1 / n))))
        base = GroupElement.identity(n) if i % 2 == 0 else random_unimodular(rng, n)
        k = base.entries @ kak_decomposition(base.inverse().matmul(target)).k
        frame = [haar_frames(rng, n, 1)[0], k + 0.05 * rng.standard_normal((n, n)), k[:, ::-1]][i % 3]
        R = float(rng.choice([0.05, 0.3, 1.0, 3.0, 6.0]))
        yield SymShadowQuery(base, target, R), Flag(batch_orthonormalize(frame))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def plateau(x):
    # steps of 1/4 in the 1-norm: flat stretches tie simplex values and force shrinks
    return math.floor(4 * np.abs(x - 0.3).sum()) / 4


def nelder_mead_cases(name):
    """(objective, x0, maxiter) triples of one named kind."""
    if name.startswith("membership"):
        n = int(name[-1])
        cases = []
        for query, f in membership_cases(n, 6, seed=70 + n):
            frame = batch_orthonormalize(query.base_inv.entries @ f.frame)
            objective = symshadow._objective_factory(frame, query.translated.entries)[0]
            cases += [(objective, project_chamber(query.kappa), 200), (objective, np.zeros(n), 200)]
        return cases
    return {
        "rosenbrock": [(rosenbrock, np.array([-1.2, 1.0]), 200), (rosenbrock, np.array([1.3, 0.7, 0.8, 1.9]), 400)],
        "plateau": [(plateau, np.array([0.0, 2.0, -1.0]), 200), (plateau, np.array([5.0, 5.0]), 200)],
        "zero-coordinates": [(rosenbrock, np.array([0.0, 1.0, 0.0]), 200)],
        "maxiter-3": [(rosenbrock, np.array([-1.2, 1.0]), 3)],
    }[name]


NELDER_MEAD_KINDS = ["membership-n2", "membership-n3", "membership-n4", "rosenbrock", "plateau",
                     "zero-coordinates", "maxiter-3"]

# the line of nelder_mead that only each kind of step runs
NELDER_MEAD_STEPS = {
    "expansion": "xe = 3 * xbar - 2 * sim[-1]",
    "reflection": "sim[-1], fsim[-1] = xr, fxr",
    "outside contraction": "sim[-1], fsim[-1] = xc, fxc",
    "inside contraction": "sim[-1], fsim[-1] = xcc, fxcc",
    "shrink": "sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])",
}


def executed_lines(fn, *args):
    """Line numbers of fn's own frame that a call fn(*args) runs."""
    code, seen = fn.__code__, set()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            seen.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return seen


class TestNelderMead:
    # nelder_mead is scipy 1.17's algorithm; another release may change its steps
    @pytest.mark.skipif(not scipy.__version__.startswith("1.17."),
                        reason=f"nelder_mead follows scipy 1.17, not {scipy.__version__}")
    @pytest.mark.parametrize("kind", NELDER_MEAD_KINDS)
    def test_matches_scipy_step_for_step(self, kind):
        for objective, x0, maxiter in nelder_mead_cases(kind):
            want = scipy.optimize.minimize(
                objective, x0, method="Nelder-Mead", options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-10}
            )
            got = symshadow.nelder_mead(objective, x0, maxiter, xatol=1e-8, fatol=1e-10)
            assert [x.hex() for x in got.x] == [float(x).hex() for x in want.x]
            assert float(got.fun).hex() == float(want.fun).hex()
            assert got.nfev == want.nfev

    def test_every_kind_of_step_runs(self):
        lines, start = inspect.getsourcelines(symshadow.nelder_mead)
        step_lines = {
            step: start + next(i for i, line in enumerate(lines) if text in line)
            for step, text in NELDER_MEAD_STEPS.items()
        }
        seen = set()
        for kind in NELDER_MEAD_KINDS:
            for objective, x0, maxiter in nelder_mead_cases(kind):
                seen |= executed_lines(symshadow.nelder_mead, objective, x0, maxiter, 1e-8, 1e-10)
        assert {step for step, line in step_lines.items() if line not in seen} == set()


class TestChamberProjection:
    @staticmethod
    def extreme_rays(n):
        return [np.array([1.0] * i + [0.0] * (n - i)) - i / n for i in range(1, n)]

    @given(st.integers(2, 5).flatmap(lambda n: st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
    def test_idempotent_and_feasible(self, v):
        p = project_chamber(v)
        assert abs(p.sum()) < 1e-9
        assert np.all(np.diff(p) <= 0)
        assert np.allclose(project_chamber(p), p, atol=1e-12)

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-50, 50), min_size=n, max_size=n),
                st.lists(st.floats(0, 10), min_size=n - 1, max_size=n - 1),
            )
        )
    )
    def test_closest_chamber_point(self, args):
        # variational inequality <v - p, c - p> <= 0 for every chamber point c
        v, weights = np.array(args[0]), args[1]
        p = project_chamber(v)
        rays = self.extreme_rays(len(v))
        for c in rays + [10 * r for r in rays] + [sum(w * r for w, r in zip(weights, rays))]:
            assert np.dot(v - p, c - p) <= 1e-9 * (1 + np.linalg.norm(v) * (1 + np.linalg.norm(c)))

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, -2.5])),
                min_size=n, max_size=n,
            )
        )
    )
    def test_nonincreasing_input_is_only_centered(self, h):
        # the stacked grid relies on this: no block merges, bit for bit
        h = np.array(sorted(h, reverse=True))
        assert project_chamber(h).tobytes() == (h - h.sum() / len(h)).tobytes()

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacked_grid_matches_seed_scan(self, n):
        branches = set()
        for query, f in membership_cases(n, 24, seed=40 + n):
            branch, want = scan_membership(query, f)
            got = sym_shadow_membership(query, f)
            branches.add(branch)
            assert got.member == want.member
            assert float(got.achieved).hex() == float(want.achieved).hex()
            assert [x.hex() for x in got.minimizer.coords] == [x.hex() for x in want.minimizer.coords]
        # "near" is where an exit at R instead of R/2 would return early
        assert {"kappa", "near", "refine"} <= branches


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
        for seed in (0, 5, 11):
            # add a radius strictly between two probes' missed distances at the smallest radius
            cert = contraction._certify_at_eps_or_2eps(
                g, 0.1, contraction.MIN_BUDGET, contraction.DEFAULT_GAP_TOL, seed
            )
            missed = sorted(set(symshadow._missed_probes(g, cert, 0.1, radii[0], 8, seed)[0]))
            assert len(missed) >= 2
            swept = sorted(radii + [(missed[0] + missed[1]) / 2])
            rows, r_min = calibrate_radius(g, 0.1, swept, probe_budget=8, seed=seed)
            reports = [flag_shadow_in_sym_shadow(g, 0.1, R, probe_budget=8, seed=seed, cert=None) for R in swept]
            assert rows == [(0.1, g.n, R, rep.violations, rep.probes) for R, rep in zip(swept, reports)]
            assert r_min == next((R for R, rep in zip(swept, reports) if rep.holds), None)

    def test_unsorted_and_duplicate_radii(self):
        rows, r_min = calibrate_radius(SL3_POWER, 0.1, [4.0, 0.25, 1.0, 0.25, 1.0], probe_budget=8, seed=3)
        swept = [0.25, 0.25, 1.0, 1.0, 4.0]
        reports = [flag_shadow_in_sym_shadow(SL3_POWER, 0.1, R, probe_budget=8, seed=3) for R in swept]
        assert rows == [(0.1, 3, R, rep.violations, rep.probes) for R, rep in zip(swept, reports)]
        assert r_min == next((R for R, rep in zip(swept, reports) if rep.holds), None)

    def test_calibration_projects_its_target_once(self, monkeypatch):
        calls = []
        project = symshadow.cartan_projection
        monkeypatch.setattr(symshadow, "cartan_projection", lambda g: calls.append(g) or project(g))
        rows, _ = calibrate_radius(SL3_POWER, 0.1, [0.25, 1.0, 4.0], probe_budget=8)
        assert rows[0][4] == 8
        assert len(calls) == 1

    def test_no_radii_still_certifies_once(self, monkeypatch):
        calls = []
        check = contraction.check_contracting
        monkeypatch.setattr(contraction, "check_contracting", lambda *a, **k: calls.append(a) or check(*a, **k))
        assert calibrate_radius(SL3_POWER, 0.1, radii=[], probe_budget=8) == ([], None)
        assert len(calls) == 1

    def test_zero_budget_rows_are_vacuous(self):
        rows, r_min = calibrate_radius(SL3_POWER, 0.1, radii=[1.0, 0.25, 4.0], probe_budget=0)
        assert rows == [(0.1, 3, R, 0, 0) for R in (0.25, 1.0, 4.0)]
        assert r_min == 0.25

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
