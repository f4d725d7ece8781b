"""Word-ball enumeration and the filtered orbit sets driving semigroup search.

Words extend on the right; with inverses enabled the alphabet doubles and
immediate cancellations are skipped, so every reduced word appears exactly once
(modulo the chosen deduplication policy). Per-level matrix stacks are multiplied
and decomposed with batched numpy, which keeps 10^5-node balls under a second.
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from . import exact
from .errors import BudgetExceeded, DedupUnavailable, SlnLabError
from .flags import Flag, OppositeFlag, batch_projector_distance, transversality_margin
from .lie import (
    _RANGE_GUARD,
    CartanVector,
    GroupElement,
    KAKDecomposition,
    cartan_projection,
    has_loxodromic_gaps,
    jordan_projection,
    svd_special,
)
from .symshadow import shadows_certified_disjoint


@dataclass(frozen=True)
class Cone:
    """Round open cone in the positive chamber: unit interior axis plus half-angle."""

    axis: CartanVector
    half_angle: float

    def __post_init__(self):
        if not 0 < self.half_angle < math.pi / 2:
            raise SlnLabError("half_angle must lie in (0, pi/2)")
        c = self.axis.coords
        if abs(np.linalg.norm(c) - 1.0) > 1e-9:
            raise SlnLabError("cone axis must be a unit vector")
        if np.min(-np.diff(c)) <= 0:
            raise SlnLabError("cone axis must be interior (all simple roots positive)")

    def contains(self, v) -> bool:
        c = v.coords if isinstance(v, CartanVector) else v
        return bool(self.contains_many(np.asarray(c, dtype=float)[None])[0])

    def contains_many(self, kappas):
        """Row-wise membership of an (N, n) array; rows outside the chamber are out."""
        k = np.asarray(kappas, dtype=float)
        norms = np.linalg.norm(k, axis=1)
        ok = (norms > 0) & ~np.any(np.diff(k, axis=1) > 1e-12, axis=1)
        cos = np.zeros(len(k))
        cos[ok] = k[ok] @ self.axis.coords / norms[ok]
        ang = np.arccos(np.clip(cos, -1.0, 1.0))
        return ok & (ang < self.half_angle)


def barycentric_axis(n) -> CartanVector:
    """Unit vector on the chamber's central ray (equal simple-root values)."""
    v = np.arange(n - 1, -n, -2, dtype=float)
    v -= v.mean()
    return CartanVector(v / np.linalg.norm(v))


@dataclass(frozen=True)
class OrbitRecord:
    """A fully decomposed orbit element: word, matrix, chamber data, boundary data."""

    word: tuple
    element: GroupElement
    kappa: CartanVector
    kak: KAKDecomposition
    k_flag: Flag
    l_opposite: OppositeFlag

    @property
    def word_length(self):
        return len(self.word)

    def to_json_dict(self):
        return {
            "word": list(self.word),
            "matrix": self.element.entries.tolist(),
            "kappa": self.kappa.coords.tolist(),
            "k_flag": self.k_flag.frame.tolist(),
            "l_opposite": self.l_opposite.frame.tolist(),
        }


@dataclass(frozen=True)
class FilterSpec:
    """Membership filter: cone + norm window + closeness to anchor boundary data."""

    cone: Cone
    x: Flag
    y: OppositeFlag
    n_min: float
    epsilon: float
    width: float | None = None

    def __post_init__(self):
        sep = transversality_margin(self.x, self.y).value
        if not self.epsilon < sep / 8:
            raise SlnLabError(
                f"epsilon {self.epsilon} must be < margin(x, y)/8 = {sep / 8:.6f}"
            )


def _letter_matrices(generators, include_inverses):
    letters = {}
    for i, g in enumerate(generators, start=1):
        letters[i] = g
        if include_inverses:
            letters[-i] = g.inverse()
    return letters


def enumerate_ball(
    generators,
    radius: int,
    dedup: str = "none",
    include_inverses: bool = False,
    node_budget: int = 10**7,
):
    """All reduced words up to the given length, decomposed into OrbitRecords.

    dedup: 'none' keeps every word, 'float' collapses matrices equal after
    rounding entries at 1e-9 (heuristic), 'exact' collapses canonical rational
    matrices and requires exact entries on every generator. Exact entries are
    carried through the products whenever every generator has them, which keeps
    extended-precision chamber data available for deep words.
    """
    if radius < 1:
        raise SlnLabError("radius must be >= 1")
    if dedup not in ("none", "float", "exact"):
        raise SlnLabError(f"unknown dedup policy {dedup!r}")
    if dedup == "exact" and any(g.exact is None for g in generators):
        raise DedupUnavailable("exact dedup requires exact entries on all generators")

    letters = _letter_matrices(generators, include_inverses)
    keys = sorted(letters, key=lambda sgn: (abs(sgn), -sgn))
    arrs = {k: letters[k].entries for k in keys}
    carry_exact = all(g.exact is not None for g in generators)
    exacts = {k: letters[k].exact for k in keys} if carry_exact else None
    n = generators[0].n

    seen = set()
    out_words, out_mats, out_exacts = [], [], []
    frontier_words = [()]
    frontier_mats = np.eye(n)[None]
    frontier_exact = [exact.identity(n)] if exacts is not None else None
    nodes = 0
    for _ in range(radius):
        next_words, next_mats, next_exact = [], [], [] if exacts is not None else None
        for letter in keys:
            if include_inverses:
                sel = [
                    i for i, w in enumerate(frontier_words) if not (w and w[-1] == -letter)
                ]
            else:
                sel = range(len(frontier_words))
            sel = list(sel)
            if not sel:
                continue
            nodes += len(sel)
            if nodes > node_budget:
                raise BudgetExceeded(f"ball exceeds {node_budget} nodes")
            children = frontier_mats[sel] @ arrs[letter]
            for pos, i in enumerate(sel):
                m = children[pos]
                ex = None
                if exacts is not None:
                    ex = exact.mat_mul(frontier_exact[i], exacts[letter])
                if dedup == "exact":
                    key = ex
                elif dedup == "float":
                    key = np.round(m, 9).tobytes()
                else:
                    key = None
                if key is not None:
                    if key in seen:
                        continue
                    seen.add(key)
                w = frontier_words[i] + (letter,)
                next_words.append(w)
                next_mats.append(m)
                if next_exact is not None:
                    next_exact.append(ex)
        out_words.extend(next_words)
        out_mats.extend(next_mats)
        if exacts is not None:
            out_exacts.extend(next_exact)
        frontier_words = next_words
        frontier_mats = (
            np.stack(next_mats) if next_mats else np.empty((0, n, n))
        )
        frontier_exact = next_exact
    elements = [
        GroupElement(m, exact=out_exacts[i] if exacts is not None else None, validate=False)
        for i, m in enumerate(out_mats)
    ]
    return _decompose_records(out_words, elements)


def _decompose_records(words, elements):
    if not words:
        return []
    u, s, vt = svd_special(np.stack([e.entries for e in elements]))
    s = np.maximum(s, np.finfo(float).tiny)
    logs = np.log(s)
    logs = logs - logs.mean(axis=1, keepdims=True)
    # beyond float64's singular-value range the bulk logs are noise; recompute
    # the chamber vector at extended precision where exact entries allow it
    needs_upgrade = s[:, -1] < s[:, 0] * _RANGE_GUARD
    records = []
    for i, (w, e) in enumerate(zip(words, elements)):
        if needs_upgrade[i] and e.exact is not None:
            kappa = cartan_projection(e)
        else:
            kappa = CartanVector(logs[i])
        kak = KAKDecomposition(k=u[i], a=kappa, l=vt[i])
        records.append(
            OrbitRecord(
                word=w,
                element=e,
                kappa=kappa,
                kak=kak,
                k_flag=Flag._trusted(u[i]),
                l_opposite=OppositeFlag._trusted(vt[i].T),
            )
        )
    return records


def filter_gamma_set(records, spec: FilterSpec):
    """Keep records inside the cone and norm window whose boundary data sit within
    epsilon of the anchors."""
    records = list(records)
    if not records:
        return []
    kappas = np.stack([r.kappa.coords for r in records])
    norms = np.linalg.norm(kappas, axis=1)
    keep = spec.cone.contains_many(kappas) & (norms >= spec.n_min)
    if spec.width is not None:
        keep &= norms < spec.n_min + spec.width
    idx = np.nonzero(keep)[0]
    if idx.size == 0:
        return []
    kframes = np.stack([records[i].k_flag.frame for i in idx])
    lframes = np.stack([records[i].l_opposite.frame for i in idx])
    dx = batch_projector_distance(kframes, spec.x.frame)
    dy = batch_projector_distance(lframes, spec.y.frame, reverse=True)
    final = idx[(dx < spec.epsilon) & (dy < spec.epsilon)]
    return [records[i] for i in final]


def greedy_disjoint_pack(candidates, R: float, forced=()):
    """Greedy maximal subset with pairwise-disjoint symmetric-space shadows.

    Candidates are visited by ascending Cartan norm (ties by word); a candidate
    joins when its shadow is certifiably disjoint from every selected one, by
    orbit-point separation (unknown counts as overlapping).
    """
    if R <= 0:
        raise SlnLabError("R must be positive")
    pool = sorted(candidates, key=lambda r: (r.kappa.norm, r.word))
    selected = list(forced)
    for rec in pool:
        if any(rec.word == s.word for s in selected):
            continue
        if all(shadows_certified_disjoint(rec.element, s.element, R) for s in selected):
            selected.append(rec)
    return selected


@dataclass
class ZariskiReport:
    span_dimension: int
    full_matrix_algebra: bool
    jordan_direction_rank: int
    loxodromic_count: int
    verdict: str  # 'consistent with Zariski dense' | 'inconclusive'


def zariski_heuristic(records, gap_tol: float = 1e-6, jordan_cap: int = 500) -> ZariskiReport:
    """Necessary-condition screen for Zariski density; never claims a proof.

    Checks that the linear span of the orbit matrices is the full matrix algebra,
    that Jordan projections of loxodromic records span the chamber's ambient
    space, and counts loxodromic records.
    """
    records = list(records)
    if len(records) < 2:
        raise SlnLabError("need at least two records")
    n = records[0].element.n
    stacked = np.stack([r.element.entries.reshape(-1) for r in records])
    span_dim = int(np.linalg.matrix_rank(stacked, tol=1e-9))

    lox = 0
    lambdas = []
    for r in records:
        if len(lambdas) >= jordan_cap:
            break
        lam = jordan_projection(r.element)
        if has_loxodromic_gaps(lam, gap_tol):
            lox += 1
            lambdas.append(lam.coords)
    jrank = int(np.linalg.matrix_rank(np.stack(lambdas), tol=1e-9)) if lambdas else 0

    consistent = span_dim == n * n and jrank >= n - 1 and lox > 0
    return ZariskiReport(
        span_dimension=span_dim,
        full_matrix_algebra=span_dim == n * n,
        jordan_direction_rank=jrank,
        loxodromic_count=lox,
        verdict="consistent with Zariski dense" if consistent else "inconclusive",
    )


def measure_cone_width_constant(records, n_min: float, width: float, pair_cap: int = 2000):
    """Empirical bound on ||kappa_1 - kappa_2|| / (n + w) over an annulus."""
    anns = [
        r.kappa.coords
        for r in records
        if n_min <= r.kappa.norm < n_min + width
    ]
    if len(anns) < 2:
        return 0.0
    anns = np.stack(anns[: int(math.isqrt(2 * pair_cap)) + 2])
    diffs = anns[:, None, :] - anns[None, :, :]
    return float(np.max(np.linalg.norm(diffs, axis=2)) / (n_min + width))


def records_to_jsonl(records, path):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_json_dict()) + "\n")
