from dataclasses import fields
import json
import math

from hypothesis import given, strategies as st
import numpy as np
import pytest

from slnlab import (
    ExactEntriesMissing,
    Flag,
    GroupElement,
    HypothesisViolated,
    NotLoxodromic,
    OppositeFlag,
    SlnLabError,
    attracting_flag,
    check_contracting,
    contraction_criterion,
    exact_freeness_crosscheck,
    flag_distance,
    freeness_certificate,
    opposite_distance,
    pingpong_certificate,
    repelling_flag,
    shadow_inclusion_check,
    shadow_membership,
    shadow_of,
    standard_flag,
    standard_opposite,
    transversality_margin,
)
from slnlab.contraction import ContractionCertificate, CrosscheckReport, FreenessCertificate


def diag(*vals):
    return GroupElement.from_matrix(np.diag(vals))


STRONG = diag(math.e**10, math.e**-10)
WEAK = diag(math.e**0.1, math.e**-0.1)


class TestCheckContracting:
    def test_strong_diagonal_passes(self):
        cert = check_contracting(STRONG, 0.1)
        assert cert.passed
        assert cert.margin_a >= 0.0
        assert cert.image_radius < 1e-3
        assert cert.lipschitz_bound < 0.01

    def test_rotation_raises(self):
        g = GroupElement.from_matrix(
            [[math.cos(0.17), -math.sin(0.17)], [math.sin(0.17), math.cos(0.17)]]
        )
        with pytest.raises(NotLoxodromic):
            check_contracting(g, 0.1)

    def test_weak_diagonal_fails_on_lipschitz(self):
        cert = check_contracting(WEAK, 0.1)
        assert not cert.passed
        assert cert.lipschitz_bound > 0.1

    def test_oracle_cross_validation(self, rp1):
        # library action and metric agree with the closed form on sampled lines
        g = STRONG
        xp = attracting_flag(g)
        rng = np.random.default_rng(0)
        for _ in range(200):
            phi = rng.uniform(0, math.pi)
            if rp1.margin(phi, math.pi / 2) < 0.1:
                continue
            f = Flag(rp1.flag_frame(phi))
            from slnlab import act_on_flag

            img = act_on_flag(g, f)
            lib = flag_distance(img, xp)
            oracle = rp1.dist(rp1.act(g.entries, phi), 0.0)
            assert abs(lib - oracle) < 1e-9

    def test_determinism(self):
        c1 = check_contracting(STRONG, 0.1, seed=5)
        c2 = check_contracting(STRONG, 0.1, seed=5)
        assert c1.image_radius == c2.image_radius
        assert c1.lipschitz_bound == c2.lipschitz_bound

    def test_monotone_separation_at_doubled_epsilon(self, strong_rational_pair):
        for g in strong_rational_pair:
            c1 = check_contracting(g, 0.1)
            c2 = check_contracting(g, 0.2)
            assert c1.passed
            # condition (a) never fails when the threshold doubles from a pass
            assert c2.margin_a >= 0.0

    def test_power_stability(self, strong_rational_pair):
        g = strong_rational_pair[0]
        assert check_contracting(g, 0.1).passed
        gk = g
        for _ in (2, 3):
            gk = gk.matmul(g)
            assert check_contracting(gk, 0.1).passed

    def test_certificate_roundtrip(self):
        cert = check_contracting(STRONG, 0.1)
        back = ContractionCertificate.from_dict(cert.to_dict())
        assert back.verdict == cert.verdict
        assert back.recheck_verdict() == cert.verdict


class TestContractionCriterion:
    def test_matching_targets_pass(self):
        ok, cert = contraction_criterion(
            STRONG, standard_flag(2), standard_opposite(2), 0.05
        )
        assert ok
        assert cert.epsilon == pytest.approx(0.1)
        assert cert.recheck_verdict() == cert.verdict == "pass"
        assert flag_distance(cert.attracting, standard_flag(2)) < 0.05

    def test_wrong_attracting_target_fails_image(self, rp1):
        x_off = Flag(rp1.flag_frame(math.radians(60)))
        ok, reason = contraction_criterion(STRONG, x_off, standard_opposite(2), 0.05)
        assert not ok
        assert reason.which == "image"

    def test_separation_precondition(self, rp1):
        x = standard_flag(2)
        y = standard_opposite(2)
        # margin(x, y) = 1; shrink it below 6*eps by tilting y
        phi = math.pi / 2 - 0.2
        y_close = Flag(rp1.opposite_frame(phi))
        y_close = OppositeFlag(rp1.opposite_frame(phi))
        sep = transversality_margin(x, y_close).value
        eps = sep / 6 + 0.02
        with pytest.raises(HypothesisViolated) as err:
            contraction_criterion(STRONG, x, y_close, eps)
        assert err.value.which == "separation"


class TestShadows:
    def test_attracting_point_in_shadow(self):
        cert = check_contracting(STRONG, 0.1)
        s = shadow_of(cert, 0.2)
        assert shadow_membership(s, cert.attracting)

    def test_definition_unwound(self, rp1):
        g = diag(math.e**5, math.e**-5)
        cert = check_contracting(g, 0.1)
        r = 0.1
        s = shadow_of(cert, r)
        # f = g f0 with margin(f0, repelling) = r/2 must be outside
        phi0 = math.pi / 2 + 1e-4
        # walk phi0 until margin is r/2
        lo, hi = math.pi / 2 + 1e-6, math.pi - 1e-6
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if rp1.margin(mid, math.pi / 2) < r / 2:
                lo = mid
            else:
                hi = mid
        phi0 = 0.5 * (lo + hi)
        from slnlab import act_on_flag

        f = act_on_flag(g, Flag(rp1.flag_frame(phi0)))
        assert not shadow_membership(s, f)

    def test_interval_oracle(self, rp1):
        # the shadow of a diagonal on lines is an explicit interval around 0
        g = diag(math.e**5, math.e**-5)
        cert = check_contracting(g, 0.1)
        s = shadow_of(cert, 0.1)
        for phi in (0.3, 1.2, 2.8):
            f = Flag(rp1.flag_frame(phi))
            pulled = rp1.act(np.linalg.inv(g.entries), phi)
            expected = rp1.margin(pulled, math.pi / 2) >= 0.1
            assert shadow_membership(s, f) == expected


class TestShadowInclusion:
    def test_one_letter_extensions(self, strong_rational_pair):
        g1, g2 = strong_rational_pair
        eta = g1.matmul(g2)
        assert shadow_inclusion_check(g1, eta, g2, 0.1)

    def test_unrelated_product_rejected(self, strong_rational_pair):
        g1, g2 = strong_rational_pair
        from slnlab import SlnLabError

        with pytest.raises(SlnLabError):
            shadow_inclusion_check(g1, g2, g2, 0.1)

    def test_inflated_epsilon_breaks_margins(self, strong_rational_pair):
        g1, g2 = strong_rational_pair
        eta = g1.matmul(g2)
        # at 10x epsilon the 4-eps threshold exceeds the geometric separation
        from slnlab import NotCertified

        try:
            ok = shadow_inclusion_check(g1, eta, g2, 0.22)
        except NotCertified:
            ok = False
        assert not ok


class TestPingpongCertificate:
    def test_strong_rational_pair_passes(self, strong_rational_pair):
        cert = pingpong_certificate(strong_rational_pair, 0.1)
        assert cert.passed
        off = cert.pairwise_separation[0, 1], cert.pairwise_separation[1, 0]
        assert min(off) >= 0.6
        assert cert.shadow_disjointness[0, 1] > 0.2

    def test_generator_and_square_fail_disjointness(self):
        g = diag(math.e**5, math.e**-5)
        g2 = GroupElement.from_matrix(np.linalg.matrix_power(g.entries, 2))
        cert = pingpong_certificate([g, g2], 0.1)
        assert not cert.passed
        assert any("shadow_disjointness" in f for f in cert.failures)

    def test_rotation_reports_index(self):
        g = diag(math.e**5, math.e**-5)
        rot = GroupElement.from_matrix(
            [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]
        )
        with pytest.raises(NotLoxodromic) as err:
            pingpong_certificate([g, rot], 0.1)
        assert err.value.index == 1

    def test_inverse_pair_fails_separation(self):
        # conjugation by a quarter turn inverts the diagonal: the classic trap
        g = diag(math.e**5, math.e**-5)
        r = GroupElement.from_matrix([[0.0, -1.0], [1.0, 0.0]])
        h = r.matmul(g).matmul(r.inverse())
        assert np.allclose(h.entries, np.diag([math.e**-5, math.e**5]))
        cert = pingpong_certificate([g, h], 0.1)
        assert not cert.passed
        assert any("pairwise_separation" in f for f in cert.failures)

    def test_product_law(self, strong_rational_pair):
        # every short word contracts at 2*eps with fixed data near the edge letters
        eps = 0.1
        gens = strong_rational_pair
        certs = {(-1, i): check_contracting(g, eps) for i, g in enumerate(gens)}
        words = []
        for a in range(2):
            for b in range(2):
                words.append(((a, b), gens[a].matmul(gens[b])))
                for c in range(2):
                    words.append(((a, b, c), gens[a].matmul(gens[b]).matmul(gens[c])))
        for word, w in words:
            cert = check_contracting(w, 2 * eps, budget=1500)
            assert cert.passed, f"word {word} failed"
            first, last = word[0], word[-1]
            assert flag_distance(cert.attracting, certs[(-1, first)].attracting) <= eps
            assert opposite_distance(cert.repelling, certs[(-1, last)].repelling) < eps

    def test_tree_property_distinct_extensions(self, strong_rational_pair):
        # shadows of distinct one-letter extensions live in disjoint balls
        g1, g2 = strong_rational_pair
        eps = 0.1
        for prefix in (g1, g2, g1.matmul(g2)):
            e1 = check_contracting(prefix.matmul(g1), 2 * eps, budget=1500)
            e2 = check_contracting(prefix.matmul(g2), 2 * eps, budget=1500)
            # centers inherit the (well separated) first-letter data of the prefix,
            # so the balls of radius 2*eps around them cannot merge only if the
            # extensions end differently; check repelling separation instead
            assert opposite_distance(e1.repelling, e2.repelling) > 2 * eps

    @pytest.mark.parametrize("pair", ["strong rational", "SL(3) sixth powers"])
    def test_assembly_from_checks_is_the_certificate(self, strong_rational_pair, pair):
        # the SL(3) pair of the golden certificate fails four clauses, so to_dict also
        # compares the order and text of the failures
        if pair == "strong rational":
            S, eps, kw = strong_rational_pair, 0.1, {"budget": 1200, "seed": 5}
        else:
            a = GroupElement.from_exact([[1, 1, 0], [1, 2, 1], [0, 1, 2]])
            b = GroupElement.from_exact([[2, 0, 1], [1, 1, 1], [1, 0, 1]])
            S = [GroupElement.from_matrix(np.linalg.matrix_power(g.entries, 6)) for g in (a, b)]
            eps, kw = 0.1, {"budget": 1000, "seed": 3}
        whole = pingpong_certificate(S, eps, **kw)
        certs = [check_contracting(g, eps, kw["budget"], seed=kw["seed"]) for g in S]
        assembled = freeness_certificate(certs, eps, kw["seed"])
        assert assembled.to_dict() == whole.to_dict()
        assert (pair == "strong rational") == assembled.passed

    def test_assembly_needs_elements_at_its_epsilon(self, strong_rational_pair):
        certs = [check_contracting(g, 0.1) for g in strong_rational_pair]
        with pytest.raises(SlnLabError):
            freeness_certificate(certs[:1], 0.1)
        reloaded = [type(c).from_dict(c.to_dict()) for c in certs]
        with pytest.raises(SlnLabError):
            freeness_certificate(reloaded, 0.1)
        with pytest.raises(SlnLabError):
            freeness_certificate(certs, 0.05)

    def test_roundtrip_and_revalidation(self, strong_rational_pair):
        cert = pingpong_certificate(strong_rational_pair, 0.1)
        back = FreenessCertificate.from_dict(cert.to_dict())
        assert back.verdict == "pass"
        assert back.recheck_verdict() == "pass"


class TestExactCrosscheck:
    def test_weak_integer_pair_is_still_free(self, weak_integer_pair):
        report = exact_freeness_crosscheck(weak_integer_pair, 8)
        assert report.words_checked == 2**9 - 2 == 510
        assert report.collisions == 0

    def test_duplicate_generator_collides_at_length_one(self):
        g = GroupElement.from_exact([[2, 0], [0, "1/2"]])
        report = exact_freeness_crosscheck([g, g], 4)
        assert report.collisions > 0
        assert report.witnesses[0] == ((0,), (1,))

    def test_inverse_pair_collides_at_length_two(self):
        g = GroupElement.from_exact([[2, 0], [0, "1/2"]])
        report = exact_freeness_crosscheck([g, g.inverse()], 3)
        # g g^-1 = g^-1 g = identity: one colliding pair at length 2
        assert report.collisions >= 1
        assert ((0, 1), (1, 0)) in report.witnesses

    def test_missing_exact_entries(self):
        with pytest.raises(ExactEntriesMissing):
            exact_freeness_crosscheck([STRONG, WEAK], 4)

    def test_budget_guard(self, weak_integer_pair):
        from slnlab import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            exact_freeness_crosscheck(weak_integer_pair, 30, node_budget=1000)


def reference_contraction_verdict(c):
    """The contraction rule written out longhand."""
    ok = c.margin_a >= 0.0 and c.image_radius <= c.epsilon and c.lipschitz_bound <= c.epsilon
    return "pass" if ok else "fail"


def reference_freeness(cert):
    """The ping-pong rule and its failure texts written out longhand, as a k x k loop."""
    eps, sep, dis = cert.epsilon, cert.pairwise_separation, cert.shadow_disjointness
    failures = []
    for i, c in enumerate(cert.per_generator):
        if reference_contraction_verdict(c) == "fail":
            failures.append(f"generator {i}: contraction fail "
                            f"(margin_a={c.margin_a:.4f}, image={c.image_radius:.4f}, "
                            f"lip={c.lipschitz_bound:.4f})")
    k = len(cert.per_generator)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if sep[i, j] < 6 * eps:
                failures.append(f"pairwise_separation[{i}][{j}]={sep[i, j]:.4f} < {6 * eps:.4f}")
            if dis[i, j] <= 2 * eps:
                failures.append(f"shadow_disjointness[{i}][{j}]={dis[i, j]:.4f} <= {2 * eps:.4f}")
    return ("fail" if failures else "pass"), failures


def near(t):
    """Values exactly at the threshold t, one ulp either side of it, or around it."""
    ulps = [t, float(np.nextafter(t, -np.inf)), float(np.nextafter(t, np.inf))]
    return st.sampled_from(ulps) | st.floats(t - 1.0, t + 1.0)


def rotation(phi):
    return np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])


EPSILONS = st.sampled_from([0.05, 0.1, 0.3])
ANGLES = st.floats(0.0, math.pi)


@st.composite
def contraction_certificates(draw, epsilon):
    cert = ContractionCertificate(
        epsilon=epsilon,
        element_id=f"{draw(st.integers(0, 2**64 - 1)):016x}",
        attracting=Flag(rotation(draw(ANGLES))),
        repelling=OppositeFlag(rotation(draw(ANGLES))),
        margin_a=draw(near(0.0)),
        image_radius=draw(near(epsilon) | st.just(math.inf)),
        lipschitz_bound=draw(near(epsilon) | st.just(math.inf)),
        samples=draw(st.integers(1000, 8000)),
        verdict="",
        seed=draw(st.integers(0, 2**31)),
        budget=draw(st.integers(1000, 8000)),
    )
    cert.verdict = reference_contraction_verdict(cert)
    return cert


WORDS = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)
CROSSCHECKS = st.none() | st.builds(
    CrosscheckReport,
    max_len=st.integers(2, 12),
    words_checked=st.integers(0, 10**6),
    collisions=st.integers(0, 100),
    witnesses=st.lists(st.tuples(WORDS, WORDS), max_size=3),
)


@st.composite
def freeness_certificates(draw):
    eps = draw(EPSILONS)
    k = draw(st.integers(2, 4))
    off = [(i, j) for i in range(k) for j in range(k) if i != j]
    sep, dis = np.zeros((k, k)), np.zeros((k, k))
    for i, j in off:
        sep[i, j] = draw(near(6 * eps))
        dis[i, j] = draw(near(2 * eps))
    cert = FreenessCertificate(
        epsilon=eps,
        generators=[diag(float(s), 1 / float(s)) for s in draw(st.lists(st.integers(2, 9), min_size=k, max_size=k))],
        per_generator=draw(st.lists(contraction_certificates(eps), min_size=k, max_size=k)),
        pairwise_separation=sep,
        shadow_disjointness=dis,
        verdict="",
        exact_crosscheck=draw(CROSSCHECKS),
        seed=draw(st.integers(0, 2**31)),
    )
    cert.verdict, cert.failures = reference_freeness(cert)
    return cert


def assert_same_fields(a, b):
    """Every stored field of a certificate survives, the element aside."""
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "element":
            continue
        if isinstance(x, (Flag, OppositeFlag)):
            assert type(x) is type(y) and np.array_equal(x.frame, y.frame), f.name
        elif f.name == "generators":
            assert [g.entries.tolist() for g in x] == [g.entries.tolist() for g in y]
        elif f.name == "per_generator":
            for c, d in zip(x, y, strict=True):
                assert_same_fields(c, d)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def json_roundtrip(cert):
    return type(cert).from_dict(json.loads(json.dumps(cert.to_dict())))


class TestVerdictClauses:
    @given(st.one_of(EPSILONS.flatmap(contraction_certificates), freeness_certificates()))
    def test_roundtrip_and_verdict_match_the_written_out_rule(self, cert):
        assert_same_fields(json_roundtrip(cert), cert)
        assert cert.recheck_verdict() == cert.verdict
        if isinstance(cert, FreenessCertificate):
            assert cert.evaluate() == (cert.verdict, cert.failures)

    def test_ties(self):
        eps = 0.1
        tied = ContractionCertificate(
            eps, "0", standard_flag(2), standard_opposite(2), 0.0, eps, eps, 1000, "pass"
        )
        assert tied.recheck_verdict() == "pass"
        off = 1.0 - np.eye(2)
        cert = FreenessCertificate(
            eps, [STRONG, STRONG], [tied, tied], 6 * eps * off, 2 * eps * off, "fail"
        )
        assert cert.evaluate() == ("fail", [
            "shadow_disjointness[0][1]=0.2000 <= 0.2000",
            "shadow_disjointness[1][0]=0.2000 <= 0.2000",
        ])
        cert.shadow_disjointness = np.nextafter(2 * eps, 1.0) * off
        assert cert.evaluate() == ("pass", [])
