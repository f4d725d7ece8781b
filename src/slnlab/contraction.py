"""Contraction certificates on the flag variety and ping-pong freeness.

A contracting element maps everything outside a small neighborhood of its
non-transversality locus into a small ball around its attracting flag, with a small
Lipschitz constant, and has well-separated fixed data. Certificates here are
numerical witnesses of those three conditions at a given epsilon: the separation is
a closed-form margin computation, the image and Lipschitz conditions are verified by
seeded Monte Carlo with boundary-biased sampling. The exact crosscheck validates
freeness independently by exhaustive rational-word enumeration at bounded length.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import exact
from .errors import (
    BudgetExceeded,
    ExactEntriesMissing,
    HypothesisViolated,
    NotCertified,
    NotLoxodromic,
    SlnLabError,
)
from .flags import (
    Flag,
    OppositeFlag,
    batch_act,
    batch_projector_distance,
    batch_transversality_margin,
    fixed_flags,
    flag_from_json,
    flag_to_json,
    transversality_margin,
)
from .lie import GroupElement
from .sampling import band_flags_near, element_seed, perturbed_partners, rng_for, sample_flags_outside

LIPSCHITZ_SAFETY = 1.5
DEFAULT_BUDGET = 4000
MIN_BUDGET = 1000
MIN_CROSSCHECK_LEN = 2
DEFAULT_GAP_TOL = 1e-6


@dataclass
class ContractionCertificate:
    """Record of a contraction check: margins, sampled evidence, and verdict."""

    epsilon: float
    element_id: str
    attracting: Flag
    repelling: OppositeFlag
    margin_a: float       # zeta(x+, x-) - 2*epsilon
    image_radius: float   # max observed distance from the image to x+
    lipschitz_bound: float  # safety-factored max observed pair ratio
    samples: int
    verdict: str          # 'pass' | 'fail'
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    element: GroupElement | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self):
        return self.verdict == "pass"

    def recheck_verdict(self):
        """Re-derive the verdict from the stored margins alone."""
        ok = (
            self.margin_a >= 0.0
            and self.image_radius <= self.epsilon
            and self.lipschitz_bound <= self.epsilon
        )
        return "pass" if ok else "fail"

    def to_dict(self):
        return {
            "epsilon": self.epsilon,
            "element_id": self.element_id,
            "attracting": flag_to_json(self.attracting),
            "repelling": flag_to_json(self.repelling),
            "margin_a": self.margin_a,
            "image_radius": self.image_radius,
            "lipschitz_bound": self.lipschitz_bound,
            "samples": self.samples,
            "verdict": self.verdict,
            "seed": self.seed,
            "budget": self.budget,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            epsilon=d["epsilon"],
            element_id=d["element_id"],
            attracting=flag_from_json(d["attracting"]),
            repelling=flag_from_json(d["repelling"]),
            margin_a=d["margin_a"],
            image_radius=d["image_radius"],
            lipschitz_bound=d["lipschitz_bound"],
            samples=d["samples"],
            verdict=d["verdict"],
            seed=d.get("seed", 0),
            budget=d.get("budget", DEFAULT_BUDGET),
        )


@dataclass
class Shadow:
    """The image under g of the flags with margin >= r against the repelling data."""

    element: GroupElement
    r: float
    center: Flag
    repelling: OppositeFlag
    containment_radius: float | None  # <= certificate epsilon once r >= epsilon


@dataclass
class CrosscheckReport:
    max_len: int
    words_checked: int
    collisions: int
    witnesses: list


@dataclass
class FreenessCertificate:
    """Ping-pong witness: per-generator certificates plus pairwise margins.

    pass requires every generator certificate to pass, every off-diagonal
    pairwise separation to reach 6*epsilon, and every off-diagonal pair of
    attracting centers to be more than 2*epsilon apart (shadows of radius
    >= epsilon sit inside the epsilon-balls of their centers, so separated
    centers force disjoint shadows).
    """

    epsilon: float
    generators: list
    per_generator: list
    pairwise_separation: np.ndarray
    shadow_disjointness: np.ndarray
    verdict: str
    exact_crosscheck: CrosscheckReport | None = None
    seed: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return self.verdict == "pass"

    def recheck_verdict(self):
        k = len(self.per_generator)
        ok = all(c.recheck_verdict() == "pass" for c in self.per_generator)
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                if self.pairwise_separation[i, j] < 6 * self.epsilon:
                    ok = False
                if self.shadow_disjointness[i, j] <= 2 * self.epsilon:
                    ok = False
        return "pass" if ok else "fail"

    def to_dict(self):
        return {
            "epsilon": self.epsilon,
            "generators": [g.entries.tolist() for g in self.generators],
            "per_generator": [c.to_dict() for c in self.per_generator],
            "pairwise_separation": np.asarray(self.pairwise_separation).tolist(),
            "shadow_disjointness": np.asarray(self.shadow_disjointness).tolist(),
            "verdict": self.verdict,
            "seed": self.seed,
            "failures": list(self.failures),
            "exact_crosscheck": None if self.exact_crosscheck is None else asdict(self.exact_crosscheck),
        }

    @classmethod
    def from_dict(cls, d):
        xc = d.get("exact_crosscheck")
        return cls(
            epsilon=d["epsilon"],
            generators=[GroupElement(np.asarray(m), validate=False) for m in d["generators"]],
            per_generator=[ContractionCertificate.from_dict(c) for c in d["per_generator"]],
            pairwise_separation=np.asarray(d["pairwise_separation"]),
            shadow_disjointness=np.asarray(d["shadow_disjointness"]),
            verdict=d["verdict"],
            seed=d.get("seed", 0),
            failures=list(d.get("failures", [])),
            exact_crosscheck=None
            if xc is None
            else CrosscheckReport(
                max_len=xc["max_len"],
                words_checked=xc["words_checked"],
                collisions=xc["collisions"],
                witnesses=[tuple(map(tuple, w)) for w in xc["witnesses"]],
            ),
        )


def _sample_region(rng, y, epsilon, budget):
    """Half uniform over the admissible region, half biased into the weak band."""
    n_uniform = max(budget // 2, 1)
    n_band = max(budget - n_uniform, 1)
    uniform = sample_flags_outside(rng, y, epsilon, n_uniform)
    band = band_flags_near(rng, y, epsilon, n_band)
    return np.concatenate([uniform, band], axis=0)


def _image_and_lipschitz(g, frames, x_plus, y_minus, epsilon, rng):
    imgs = batch_act(g, frames)
    image_radius = float(np.max(batch_projector_distance(imgs, x_plus.frame)))

    partners = perturbed_partners(rng, frames, y_minus, epsilon)
    base_d = batch_projector_distance(frames, partners)
    img_d = batch_projector_distance(imgs, batch_act(g, partners))
    good = base_d > 1e-9
    ratios = img_d[good] / base_d[good]

    # a few wide pairs guard against purely local sampling
    m = frames.shape[0]
    if m >= 2:
        half = m // 2
        wd = batch_projector_distance(frames[:half], frames[half : 2 * half])
        wi = batch_projector_distance(imgs[:half], imgs[half : 2 * half])
        ok = wd > 1e-9
        ratios = np.concatenate([ratios, wi[ok] / wd[ok]])
    lipschitz = float(np.max(ratios)) * LIPSCHITZ_SAFETY if ratios.size else np.inf
    return image_radius, lipschitz


def check_contracting(
    g: GroupElement,
    epsilon: float,
    budget: int = DEFAULT_BUDGET,
    gap_tol: float = DEFAULT_GAP_TOL,
    seed: int = 0,
) -> ContractionCertificate:
    """Certify the three contraction conditions for g at the given epsilon.

    (a) is the closed-form separation margin of the fixed data; (b) and (c) are
    verified on a seeded sample of the admissible region, boundary-biased where
    contraction is weakest. The verdict is a numerical witness, not a proof.
    """
    if not 0 < epsilon < 1:
        raise SlnLabError("epsilon must be in (0, 1)")
    if budget < MIN_BUDGET:
        raise SlnLabError(f"budget must be >= {MIN_BUDGET} samples")

    x_plus, y_minus = fixed_flags(g, gap_tol)
    sep = transversality_margin(x_plus, y_minus).value
    margin_a = sep - 2 * epsilon

    rng = rng_for(g, seed)
    frames = _sample_region(rng, y_minus, epsilon, budget)
    image_radius, lipschitz = _image_and_lipschitz(g, frames, x_plus, y_minus, epsilon, rng)

    verdict = "pass" if (margin_a >= 0 and image_radius <= epsilon and lipschitz <= epsilon) else "fail"
    return ContractionCertificate(
        epsilon=epsilon,
        element_id=f"{element_seed(g):016x}",
        attracting=x_plus,
        repelling=y_minus,
        margin_a=margin_a,
        image_radius=image_radius,
        lipschitz_bound=lipschitz,
        samples=frames.shape[0],
        verdict=verdict,
        seed=seed,
        budget=budget,
        element=g,
    )


def contraction_criterion(
    g: GroupElement,
    x_plus: Flag,
    y_minus: OppositeFlag,
    epsilon: float,
    budget: int = DEFAULT_BUDGET,
    gap_tol: float = DEFAULT_GAP_TOL,
    seed: int = 0,
):
    """Sufficient condition with prescribed target data.

    If g maps the admissible region of y_minus into the epsilon-ball of x_plus
    with Lipschitz constant <= epsilon, and the targets are 6*epsilon-separated,
    then g is contracting at 2*epsilon and its true fixed data lie within epsilon
    of the targets. Returns (True, certificate) or (False, reason); a violated
    separation precondition raises HypothesisViolated('separation').
    """
    sep = transversality_margin(x_plus, y_minus).value
    if sep < 6 * epsilon:
        raise HypothesisViolated("separation", f"margin {sep:.6f} < 6*eps {6 * epsilon:.6f}")

    rng = rng_for(g, seed)
    frames = _sample_region(rng, y_minus, epsilon, budget)
    image_radius, lipschitz = _image_and_lipschitz(g, frames, x_plus, y_minus, epsilon, rng)
    if image_radius > epsilon:
        return False, HypothesisViolated("image", f"radius {image_radius:.6f} > eps")
    if lipschitz > epsilon:
        return False, HypothesisViolated("lipschitz", f"bound {lipschitz:.6f} > eps")

    xg, yg = fixed_flags(g, gap_tol)
    from .flags import flag_distance, opposite_distance  # local to avoid cycle noise

    d_attract = flag_distance(xg, x_plus)
    d_repel = opposite_distance(yg, y_minus)
    if d_attract > epsilon or d_repel > epsilon:
        return False, HypothesisViolated(
            "image", f"fixed data drifted: d+={d_attract:.6f}, d-={d_repel:.6f}"
        )

    cert = ContractionCertificate(
        epsilon=2 * epsilon,
        element_id=f"{element_seed(g):016x}",
        attracting=xg,
        repelling=yg,
        margin_a=transversality_margin(xg, yg).value - 4 * epsilon,
        image_radius=image_radius,
        lipschitz_bound=lipschitz,
        samples=frames.shape[0],
        verdict="pass",
        seed=seed,
        budget=budget,
        element=g,
    )
    return True, cert


def shadow_of(cert: ContractionCertificate, r: float) -> Shadow:
    if cert.element is None:
        raise SlnLabError("certificate does not carry its element")
    return Shadow(
        element=cert.element,
        r=r,
        center=cert.attracting,
        repelling=cert.repelling,
        containment_radius=cert.epsilon if r >= cert.epsilon else None,
    )


def shadow_membership(s: Shadow, f: Flag) -> bool:
    """f lies in the shadow iff pulling it back lands outside the r-thin region."""
    pulled = batch_act(s.element.inverse(), f.frame[None])
    return bool(batch_transversality_margin(pulled, s.repelling.frame)[0] >= s.r)


def _certify_at_eps_or_2eps(g, epsilon, budget, gap_tol, seed):
    cert = check_contracting(g, epsilon, budget, gap_tol, seed)
    if cert.passed:
        return cert
    cert2 = check_contracting(g, 2 * epsilon, budget, gap_tol, seed)
    if cert2.passed:
        return cert2
    raise NotCertified(f"element fails contraction at {epsilon} and {2 * epsilon}")


def shadow_inclusion_check(
    gamma: GroupElement,
    eta: GroupElement,
    zeta_gen: GroupElement,
    epsilon: float,
    budget: int = 1000,
    gap_tol: float = DEFAULT_GAP_TOL,
    seed: int = 0,
    gamma_cert: ContractionCertificate | None = None,
    eta_cert: ContractionCertificate | None = None,
) -> bool:
    """Verify that the 2eps-shadow of eta = gamma*zeta sits inside gamma's 4eps-shadow.

    Samples the shadow of eta by pushing admissible flags forward and checks each
    image against the larger shadow. True means no counterexample in budget.
    """
    prod = gamma.entries @ zeta_gen.entries
    scale = max(1.0, float(np.max(np.abs(eta.entries))))
    if not np.allclose(prod, eta.entries, rtol=1e-9, atol=1e-9 * scale):
        raise SlnLabError("eta is not gamma * zeta within tolerance")
    gamma_cert = gamma_cert or _certify_at_eps_or_2eps(gamma, epsilon, max(budget, 1000), gap_tol, seed)
    eta_cert = eta_cert or _certify_at_eps_or_2eps(eta, epsilon, max(budget, 1000), gap_tol, seed)

    rng = rng_for(eta, seed)
    frames = sample_flags_outside(rng, eta_cert.repelling, 2 * epsilon, budget)
    pushed = batch_act(eta, frames)
    pulled = batch_act(gamma.inverse(), pushed)
    margins = batch_transversality_margin(pulled, gamma_cert.repelling.frame)
    return bool(np.all(margins >= 4 * epsilon))


def pingpong_certificate(
    S,
    epsilon: float,
    budget: int = DEFAULT_BUDGET,
    gap_tol: float = DEFAULT_GAP_TOL,
    seed: int = 0,
) -> FreenessCertificate:
    """Certify a generator list: contraction per generator, pairwise separation of
    attracting-from-repelling data at 6*epsilon, and attracting-center separation
    beyond 2*epsilon. A pass witnesses freeness of the generated semigroup with
    every element contracting at epsilon or 2*epsilon.
    """
    S = list(S)
    if len(S) < 2:
        raise SlnLabError("need at least two generators")
    certs = []
    failures = []
    for i, g in enumerate(S):
        try:
            certs.append(check_contracting(g, epsilon, budget, gap_tol, seed))
        except NotLoxodromic as e:
            raise NotLoxodromic(index=i) from e
    k = len(S)
    sep = np.zeros((k, k))
    dis = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            sep[i, j] = transversality_margin(certs[i].attracting, certs[j].repelling).value
            dis[i, j] = batch_projector_distance(certs[i].attracting.frame, certs[j].attracting.frame)

    ok = True
    for i, c in enumerate(certs):
        if not c.passed:
            ok = False
            failures.append(f"generator {i}: contraction fail "
                            f"(margin_a={c.margin_a:.4f}, image={c.image_radius:.4f}, "
                            f"lip={c.lipschitz_bound:.4f})")
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if sep[i, j] < 6 * epsilon:
                ok = False
                failures.append(f"pairwise_separation[{i}][{j}]={sep[i, j]:.4f} < {6 * epsilon:.4f}")
            if dis[i, j] <= 2 * epsilon:
                ok = False
                failures.append(f"shadow_disjointness[{i}][{j}]={dis[i, j]:.4f} <= {2 * epsilon:.4f}")

    return FreenessCertificate(
        epsilon=epsilon,
        generators=S,
        per_generator=certs,
        pairwise_separation=sep,
        shadow_disjointness=dis,
        verdict="pass" if ok else "fail",
        seed=seed,
        failures=failures,
    )


def exact_freeness_crosscheck(S, max_len: int, node_budget: int = 10**7) -> CrosscheckReport:
    """Exhaustively enumerate rational words up to max_len and count collisions.

    Words are hashed by their canonical exact matrices; a passing
    ping-pong certificate predicts zero colliding pairs. Witness pairs list the
    first few pairs of distinct words with equal matrices.
    """
    S = list(S)
    if max_len < MIN_CROSSCHECK_LEN:
        raise SlnLabError(f"max_len must be >= {MIN_CROSSCHECK_LEN}")
    for g in S:
        if g.exact is None:
            raise ExactEntriesMissing("all generators need exact entries")
    total = sum(len(S) ** k for k in range(1, max_len + 1))
    if total > node_budget:
        raise BudgetExceeded(f"{total} words exceed budget {node_budget}")

    letters = [g.exact for g in S]
    seen = {}  # canonical exact matrix -> (first word, multiplicity)
    witnesses = []
    frontier = [((), exact.identity(S[0].n))]
    checked = 0
    for _ in range(max_len):
        nxt = []
        for word, mat in frontier:
            for i, letter in enumerate(letters):
                w = word + (i,)
                m = exact.mat_mul(mat, letter)
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
    # every unordered pair of equal-matrix words counts once
    collisions = sum(mult * (mult - 1) // 2 for _, mult in seen.values())
    return CrosscheckReport(max_len=max_len, words_checked=checked, collisions=collisions, witnesses=witnesses)
