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
from .lie import CartanVector, cartan_projection, has_loxodromic_gaps, jordan_projection, min_root_value
from .orbits import Cone


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


def poincare_partial_sum(records, s: float) -> float:
    """Compensated sum of exp(-s * ||kappa||) over the records."""
    if s < 0:
        raise SlnLabError("s must be >= 0")
    return math.fsum(math.exp(-s * r.kappa.norm) for r in records)


def _norms(records):
    return np.array([r.kappa.norm for r in records])


def estimate_delta(
    records,
    bins: float = 0.5,
    window: tuple = (0.2, 0.2),
    min_records: int = 100,
) -> GrowthReport:
    """Fit the exponential growth rate of cumulative orbit counts.

    Cumulative counts N(T) are tabulated on a grid of the given bin width and
    log N(T) is regressed against T over a window that drops the stated fractions
    of the T-range at both ends (small-T bins are lattice-noisy, large-T bins are
    deflated by ball truncation).
    """
    records = list(records)
    if len(records) < min_records:
        raise TooFewRecords(f"{len(records)} records < floor {min_records}")
    norms = np.sort(_norms(records))
    t_lo, t_hi = norms[0], norms[-1]
    if t_hi - t_lo < bins:
        raise DegenerateFit("all records fall in one bin")
    edges = np.arange(t_lo, t_hi + bins, bins)
    cum = np.searchsorted(norms, edges, side="right")

    lo = t_lo + window[0] * (t_hi - t_lo)
    hi = t_hi - window[1] * (t_hi - t_lo)
    mask = (edges >= lo) & (edges <= hi) & (cum > 0)
    if mask.sum() < 3:
        raise DegenerateFit("fewer than 3 usable bins in the fit window")
    x = edges[mask]
    y = np.log(cum[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))

    by_radius = {}
    for r in records:
        by_radius[r.word_length] = by_radius.get(r.word_length, 0) + 1
    return GrowthReport(
        counts_by_radius=dict(sorted(by_radius.items())),
        counts_by_norm=(edges, cum),
        delta_hat=max(float(slope), 0.0),
        fit_window=(float(x[0]), float(x[-1])),
        fit_residual=resid,
        sample_size=len(records),
    )


def limit_cone_sample(records, floor: float = 5.0, gap_tol: float = 1e-6) -> LimitConeSample:
    """Unit Cartan directions above the norm floor; Jordan directions tagged apart."""
    kdirs = []
    ldirs = []
    for r in records:
        if r.kappa.norm >= floor:
            kdirs.append(r.kappa.coords / r.kappa.norm)
            lam = jordan_projection(r.element)
            if has_loxodromic_gaps(lam, gap_tol) and lam.norm > 0:
                ldirs.append(lam.coords / lam.norm)
    n = records[0].element.n if records else 0
    return LimitConeSample(
        kappa_directions=np.array(kdirs).reshape(-1, n) if kdirs else np.empty((0, n)),
        lambda_directions=np.array(ldirs).reshape(-1, n) if ldirs else np.empty((0, n)),
        floor=floor,
        empty=not kdirs,
    )


def growth_indicator_estimate(records, v: CartanVector, angles, bins: float = 0.5):
    """Cone growth rates around a fixed interior direction, one per half-angle.

    The small-angle end of the curve estimates the direction-refined growth rate;
    per-angle failures are reported in place rather than aborting the sweep.
    """
    if min_root_value(v) <= 0:
        raise SlnLabError("direction must be interior to the chamber")
    records = list(records)
    kappas = np.array([r.kappa.coords for r in records], dtype=float).reshape(len(records), v.coords.size)
    out = []
    for ang in angles:
        cone = Cone(axis=v, half_angle=float(ang))
        inside = [r for r, ok in zip(records, cone.contains_many(kappas)) if ok]
        try:
            rep = estimate_delta(inside, bins=bins)
            out.append(ConeGrowth(cone=cone, tau_hat=rep.delta_hat, sample_size=len(inside)))
        except (TooFewRecords, DegenerateFit) as e:
            out.append(ConeGrowth(cone=cone, tau_hat=None, sample_size=len(inside), error=str(e)))
    return out


def subadditivity_defect(elements, pair_budget: int = 2000, pairs=None, rng=None):
    """Statistics of ||kappa(gh) - kappa(g) - kappa(h)|| over sampled pairs.

    Returns (max_defect, mean_defect, histogram) with histogram as np.histogram
    output. Explicit pairs override sampling.
    """
    if pairs is None:
        elements = list(elements)
        if len(elements) < 2:
            raise SlnLabError("need at least two elements")
        rng = rng or np.random.default_rng(0)
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


def anosov_slope(records):
    """Fit min-root growth against word length: min_root(kappa) >= C * len - c.

    The slope comes from least squares through the per-length minima; the offset
    is then lifted so the bound holds on every record. Returns (C_hat, c_hat,
    min_ratio) where min_ratio is the worst observed min-root per unit length.
    """
    records = list(records)
    if not records:
        raise SlnLabError("no records")
    lengths = np.array([r.word_length for r in records], dtype=float)
    roots = np.array([min_root_value(r.kappa) for r in records])
    per_len = {}
    for L, m in zip(lengths, roots):
        per_len[L] = min(per_len.get(L, np.inf), m)
    xs = np.array(sorted(per_len))
    ys = np.array([per_len[x] for x in xs])
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


def busemann_cartan_constant(words, anchor_flag, extra_flags=()):
    """Max deviation of the cocycle from the Cartan projection over the words.

    Measured against the anchor flag (and optionally a few translated flags);
    this is the empirical constant whose tripling bounds subadditivity defects.
    """
    from .lie import iwasawa_cocycle  # local import keeps module load light

    worst = 0.0
    flags = [anchor_flag, *extra_flags]
    for w in words:
        kap = cartan_projection(w).coords
        for f in flags:
            b = iwasawa_cocycle(w, f)
            worst = max(worst, float(np.linalg.norm(b - kap)))
    return worst
