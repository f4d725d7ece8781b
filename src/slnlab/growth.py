"""Estimators for orbit-growth quantities: partial Poincare sums, the critical
exponent by cumulative-count regression, cone growth rates and the direction-refined
growth curve, limit-cone direction samples, subadditivity defects, and the linear
lower bound on root values against word length.

All estimators refuse to run below their sample floors instead of returning NaN;
asymptotic quantities extracted from tiny samples would be disinformation.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DegenerateFit, SlnLabError, TooFewRecords
from .lie import DEFAULT_GAP_TOL, CartanVector, cartan_projection, has_loxodromic_gaps, jordan_projection
from .lie import min_root_value
from .orbits import Cone

MIN_RECORDS = 100  # estimate_delta's sample floor
_FIT_TRIM = 0.2  # the fraction of the norm range estimate_delta's fit drops at each end


@dataclass
class GrowthReport:
    counts_by_radius: dict
    counts_by_norm: tuple  # (bin_edges, cumulative_counts)
    delta_hat: float
    fit_window: tuple
    fit_residual: float
    sample_size: int


@dataclass
class ConeGrowth:
    cone: Cone
    tau_hat: float | None
    sample_size: int
    error: str | None = None


@dataclass
class LimitConeSample:
    kappa_directions: np.ndarray
    lambda_directions: np.ndarray
    floor: float
    empty: bool


def poincare_partial_sum(ball, s: float) -> float:
    """Compensated sum of exp(-s * ||kappa||) over the rows of a ball."""
    if s < 0:
        raise SlnLabError("s must be >= 0")
    return math.fsum(math.exp(-s * x) for x in ball.norms)


def estimate_delta(ball, bins: float = 0.5) -> GrowthReport:
    """Fit the exponential growth rate of cumulative orbit counts.

    Reads the ball's norms and word lengths. Cumulative counts N(T) are tabulated
    on a grid of the given bin width and log N(T) is regressed against T over a
    window that drops _FIT_TRIM of the T-range at each end (small-T
    bins are lattice-noisy, large-T bins are deflated by ball truncation).
    """
    if len(ball.norms) < MIN_RECORDS:
        raise TooFewRecords(f"{len(ball.norms)} records < floor {MIN_RECORDS}")
    norms = np.sort(ball.norms)
    t_lo, t_hi = norms[0], norms[-1]
    if t_hi - t_lo < bins:
        raise DegenerateFit("all records fall in one bin")
    edges = np.arange(t_lo, t_hi + bins, bins)
    cum = np.searchsorted(norms, edges, side="right")

    lo = t_lo + _FIT_TRIM * (t_hi - t_lo)
    hi = t_hi - _FIT_TRIM * (t_hi - t_lo)
    mask = (edges >= lo) & (edges <= hi) & (cum > 0)
    if mask.sum() < 3:
        raise DegenerateFit("fewer than 3 usable bins in the fit window")
    x = edges[mask]
    y = np.log(cum[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))

    radii, counts = np.unique(ball.lengths, return_counts=True)
    return GrowthReport(
        counts_by_radius={int(r): int(c) for r, c in zip(radii, counts)},
        counts_by_norm=(edges, cum),
        delta_hat=max(float(slope), 0.0),
        fit_window=(float(x[0]), float(x[-1])),
        fit_residual=resid,
        sample_size=len(norms),
    )


def limit_cone_sample(ball, floor: float = 5.0, gap_tol: float = DEFAULT_GAP_TOL) -> LimitConeSample:
    """Unit Cartan directions above the norm floor; Jordan directions tagged apart."""
    above = np.nonzero(ball.norms >= floor)[0]
    ldirs = []
    for g in ball[above].elements():
        lam = jordan_projection(g)
        if has_loxodromic_gaps(lam, gap_tol) and lam.norm > 0:
            ldirs.append(lam.coords / lam.norm)
    n = ball.kappas.shape[-1]
    return LimitConeSample(
        kappa_directions=ball.kappas[above] / ball.norms[above, None],
        lambda_directions=np.array(ldirs).reshape(-1, n) if ldirs else np.empty((0, n)),
        floor=floor,
        empty=above.size == 0,
    )


def growth_indicator_estimate(ball, v: CartanVector, angles, bins: float = 0.5):
    """Cone growth rates around a fixed interior direction, one per half-angle.

    The small-angle end of the curve estimates the direction-refined growth rate;
    per-angle failures are reported in place rather than aborting the sweep.
    """
    if min_root_value(v) <= 0:
        raise SlnLabError("direction must be interior to the chamber")
    out = []
    for ang in angles:
        cone = Cone(axis=v, half_angle=float(ang))
        inside = ball[cone.contains_many(ball.kappas)]
        try:
            rep = estimate_delta(inside, bins=bins)
            out.append(ConeGrowth(cone=cone, tau_hat=rep.delta_hat, sample_size=len(inside)))
        except (TooFewRecords, DegenerateFit) as e:
            out.append(ConeGrowth(cone=cone, tau_hat=None, sample_size=len(inside), error=str(e)))
    return out


def subadditivity_defect(elements, pair_budget: int = 2000, pairs=None):
    """Statistics of ||kappa(gh) - kappa(g) - kappa(h)|| over sampled pairs.

    Returns (max_defect, mean_defect, histogram) with histogram as np.histogram
    output. Pairs are drawn with seed 0; explicit pairs override sampling.
    """
    if pairs is None:
        elements = list(elements)
        if len(elements) < 2:
            raise SlnLabError("need at least two elements")
        rng = np.random.default_rng(0)
        k = len(elements)
        idx = rng.integers(0, k, size=(min(pair_budget, k * k), 2))
        pairs = [(elements[i], elements[j]) for i, j in idx]
    defects = []
    for g, h in pairs:
        kg = cartan_projection(g).coords
        kh = cartan_projection(h).coords
        kgh = cartan_projection(g.matmul(h)).coords
        defects.append(float(np.linalg.norm(kgh - kg - kh)))
    defects = np.array(defects)
    return float(defects.max()), float(defects.mean()), np.histogram(defects, bins=20)


def anosov_slope(ball):
    """Fit min-root growth against word length: min_root(kappa) >= C * len - c.

    The slope comes from least squares through the per-length minima; the offset
    is then lifted so the bound holds on every row. Returns (C_hat, c_hat,
    min_ratio) where min_ratio is the worst observed min-root per unit length.
    """
    if not len(ball.kappas):
        raise SlnLabError("no records")
    lengths = ball.lengths.astype(float)
    roots = np.min(-np.diff(ball.kappas, axis=1), axis=1)
    xs = np.unique(lengths)
    ys = np.array([roots[lengths == x].min() for x in xs])
    if xs.size == 1:
        c_slope = ys[0] / xs[0]
        offset = 0.0
    else:
        c_slope, b = np.polyfit(xs, ys, 1)
        offset = max(0.0, float(np.max(c_slope * xs - ys)))
        if abs(b) < 1e-9 and offset < 1e-9:
            offset = 0.0
    min_ratio = float(np.min(roots / lengths))
    return float(c_slope), float(offset), min_ratio


def generator_sum_condition(generators_kappa_norms, delta: float) -> float:
    """The selection-time sum over a generating set: sum of exp(-delta ||kappa||)."""
    return math.fsum(math.exp(-delta * x) for x in generators_kappa_norms)


def check_extension_sum_growth(generators, words, delta: float):
    """Discrete growth check: each word's one-letter extensions retain its weight.

    Requires that the generator sum reached 1 at selection time; returns
    (holds, worst_ratio) with worst_ratio the minimum over words of the extension
    sum divided by the word's own weight (>= 1 when the check holds).
    """
    gen_sum = generator_sum_condition(
        [cartan_projection(g).norm for g in generators], delta
    )
    if gen_sum < 1.0:
        raise SlnLabError(f"generator sum {gen_sum:.6f} < 1; the check is not applicable")
    worst = np.inf
    for w in words:
        own = math.exp(-delta * cartan_projection(w).norm)
        ext = math.fsum(
            math.exp(-delta * cartan_projection(w.matmul(z)).norm) for z in generators
        )
        worst = min(worst, ext / own)
    return worst >= 1.0, float(worst)


def busemann_cartan_constant(words, anchor_flag):
    """Max deviation of the cocycle from the Cartan projection over the words.

    Measured against the anchor flag; this is the empirical constant whose
    tripling bounds subadditivity defects.
    """
    from .lie import iwasawa_cocycle  # local import keeps module load light

    worst = 0.0
    for w in words:
        kap = cartan_projection(w).coords
        worst = max(worst, float(np.linalg.norm(iwasawa_cocycle(w, anchor_flag) - kap)))
    return worst
