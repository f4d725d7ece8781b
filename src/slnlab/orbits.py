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
    DEFAULT_GAP_TOL,
    CartanVector,
    GroupElement,
    KAKDecomposition,
    cartan_projection,
    has_loxodromic_gaps,
    jordan_projection,
    svd_special,
)
from .symshadow import shadows_certified_disjoint


DEDUP_POLICIES = ("none", "float", "exact")
MIN_RADIUS = 1
_JORDAN_CAP = 500  # loxodromic rows whose Jordan directions the Zariski screen ranks
_PAIR_CAP = 2000  # about the number of annulus pairs the cone-width constant compares


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
    """One row of an OrbitBall: word, matrix and chamber data, built on access."""

    word: tuple
    element: GroupElement
    kappa: CartanVector
    kak: KAKDecomposition


@dataclass(frozen=True, eq=False)
class OrbitBall:
    """A word ball as columns, one row per word.

    matrices, k_frames and l_frames are (N, n, n) with matrices[i] = k exp(kappa) l;
    kappas is (N, n) and norms (N,). exact holds each row's (den, rows) pair of
    ``slnlab.exact``, or is None when the generators carry none. Indexing by an
    integer gives an OrbitRecord; by a slice, index array or mask, the sub-ball of
    those rows.
    """

    words: list
    matrices: np.ndarray
    exact: list | None
    kappas: np.ndarray
    norms: np.ndarray
    k_frames: np.ndarray
    l_frames: np.ndarray

    def __len__(self):
        return len(self.words)

    @property
    def lengths(self):
        return np.array([len(w) for w in self.words], dtype=int)

    def elements(self):
        """The matrices as GroupElements, with their exact entries where carried."""
        exacts = [None] * len(self) if self.exact is None else self.exact
        return [GroupElement(m, exact=ex, validate=False) for m, ex in zip(self.matrices, exacts)]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            kappa = CartanVector(self.kappas[key])
            ex = None if self.exact is None else self.exact[key]
            return OrbitRecord(
                word=self.words[key],
                element=GroupElement(self.matrices[key], exact=ex, validate=False),
                kappa=kappa,
                kak=KAKDecomposition(k=self.k_frames[key], a=kappa, l=self.l_frames[key]),
            )
        idx = np.arange(len(self))[key]
        return OrbitBall(
            words=[self.words[i] for i in idx],
            matrices=self.matrices[idx],
            exact=None if self.exact is None else [self.exact[i] for i in idx],
            kappas=self.kappas[idx],
            norms=self.norms[idx],
            k_frames=self.k_frames[idx],
            l_frames=self.l_frames[idx],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


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
) -> OrbitBall:
    """All reduced words up to the given length, decomposed into an OrbitBall.

    Rows run by word length, then by last letter (1, -1, 2, -2, ...), then by the
    row of the word's prefix.
    dedup: 'none' keeps every word, 'float' collapses matrices equal after
    rounding entries at 1e-9 (heuristic), 'exact' collapses canonical rational
    matrices and requires exact entries on every generator. Exact entries are
    carried through the products whenever every generator has them, which keeps
    extended-precision chamber data available for deep words.
    """
    if radius < MIN_RADIUS:
        raise SlnLabError(f"radius must be >= {MIN_RADIUS}")
    if dedup not in DEDUP_POLICIES:
        raise SlnLabError(f"unknown dedup policy {dedup!r}")
    if dedup == "exact" and any(g.exact is None for g in generators):
        raise DedupUnavailable("exact dedup requires exact entries on all generators")

    letters = _letter_matrices(generators, include_inverses)
    keys = sorted(letters, key=lambda sgn: (abs(sgn), -sgn))
    arrs = {k: letters[k].entries for k in keys}
    carry_exact = all(g.exact is not None for g in generators)
    n = generators[0].n

    seen = set()
    out_words, out_mats, out_exacts = [], [], []
    frontier_words = [()]
    frontier_mats = np.eye(n)[None]
    frontier_exact = [exact.identity(n)]
    nodes = 0
    for _ in range(radius):
        next_words, next_mats, next_exact = [], [], []
        for letter in keys:
            sel = [
                i
                for i, w in enumerate(frontier_words)
                if not (include_inverses and w and w[-1] == -letter)
            ]
            if not sel:
                continue
            nodes += len(sel)
            if nodes > node_budget:
                raise BudgetExceeded(f"ball exceeds {node_budget} nodes")
            children = frontier_mats[sel] @ arrs[letter]
            letter_exact = letters[letter].exact
            kept = []
            for pos, i in enumerate(sel):
                ex = exact.mat_mul(frontier_exact[i], letter_exact) if carry_exact else None
                if dedup != "none":
                    key = ex if dedup == "exact" else np.round(children[pos], 9).tobytes()
                    if key in seen:
                        continue
                    seen.add(key)
                kept.append(pos)
                next_words.append(frontier_words[i] + (letter,))
                next_exact.append(ex)
            next_mats.append(children[kept])
        out_words.extend(next_words)
        out_mats.extend(next_mats)
        out_exacts.extend(next_exact)
        frontier_words = next_words
        frontier_mats = np.concatenate(next_mats) if next_mats else np.empty((0, n, n))
        frontier_exact = next_exact

    matrices = np.concatenate(out_mats)
    u, s, vt = svd_special(matrices)
    s = np.maximum(s, np.finfo(float).tiny)
    logs = np.log(s)
    kappas = logs - logs.mean(axis=1, keepdims=True)
    # beyond float64's singular-value range the bulk logs are noise; recompute
    # the chamber vector at extended precision where exact entries allow it
    if carry_exact:
        for i in np.nonzero(s[:, -1] < s[:, 0] * _RANGE_GUARD)[0]:
            g = GroupElement(matrices[i], exact=out_exacts[i], validate=False)
            kappas[i] = cartan_projection(g).coords
    return OrbitBall(
        words=out_words,
        matrices=matrices,
        exact=out_exacts if carry_exact else None,
        kappas=kappas,
        # bit for bit the CartanVector.norm of each row
        norms=np.sqrt(np.vecdot(kappas, kappas)),
        k_frames=u,
        l_frames=vt,
    )


def filter_gamma_set(ball: OrbitBall, spec: FilterSpec) -> OrbitBall:
    """The sub-ball inside the cone and norm window whose boundary data sit within
    epsilon of the anchors."""
    norms = ball.norms
    keep = spec.cone.contains_many(ball.kappas) & (norms >= spec.n_min)
    if spec.width is not None:
        keep &= norms < spec.n_min + spec.width
    idx = np.nonzero(keep)[0]
    dx = batch_projector_distance(ball.k_frames[idx], spec.x.frame)
    # opposite-flag frames are the transposed L frames; contiguous, as the
    # per-row stacks were, so the kernel's matrix products are unchanged
    lframes = np.ascontiguousarray(np.swapaxes(ball.l_frames[idx], -1, -2))
    dy = batch_projector_distance(lframes, spec.y.frame, reverse=True)
    return ball[idx[(dx < spec.epsilon) & (dy < spec.epsilon)]]


def greedy_disjoint_pack(candidates: OrbitBall, R: float) -> OrbitBall:
    """Greedy maximal sub-ball with pairwise-disjoint symmetric-space shadows.

    Candidates are visited by ascending Cartan norm (ties by word); one joins when its
    shadow is certifiably disjoint from every selected one, by orbit-point separation
    (unknown counts as overlapping).
    """
    if R <= 0:
        raise SlnLabError("R must be positive")
    norms, words = candidates.norms, candidates.words
    selected = []
    elements = candidates.elements()
    for i in sorted(range(len(candidates)), key=lambda i: (norms[i], words[i])):
        if all(shadows_certified_disjoint(elements[i], elements[j], R) for j in selected):
            selected.append(i)
    return candidates[selected]


@dataclass
class ZariskiReport:
    span_dimension: int
    full_matrix_algebra: bool
    jordan_direction_rank: int
    loxodromic_count: int
    verdict: str  # 'consistent with Zariski dense' | 'inconclusive'


def zariski_heuristic(ball: OrbitBall, gap_tol: float = DEFAULT_GAP_TOL) -> ZariskiReport:
    """Necessary-condition screen for Zariski density; never claims a proof.

    Checks that the linear span of the orbit matrices is the full matrix algebra,
    that Jordan projections of loxodromic rows span the chamber's ambient space,
    and counts loxodromic rows.
    """
    if len(ball) < 2:
        raise SlnLabError("need at least two records")
    n = ball.matrices.shape[-1]
    span_dim = int(np.linalg.matrix_rank(ball.matrices.reshape(len(ball), -1), tol=1e-9))

    lox = 0
    lambdas = []
    for g in ball.elements():
        if len(lambdas) >= _JORDAN_CAP:
            break
        lam = jordan_projection(g)
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


def measure_cone_width_constant(ball: OrbitBall, n_min: float, width: float):
    """Empirical bound on ||kappa_1 - kappa_2|| / (n + w) over an annulus."""
    anns = ball.kappas[(ball.norms >= n_min) & (ball.norms < n_min + width)]
    if len(anns) < 2:
        return 0.0
    anns = anns[: int(math.isqrt(2 * _PAIR_CAP)) + 2]
    diffs = anns[:, None, :] - anns[None, :, :]
    return float(np.max(np.linalg.norm(diffs, axis=2)) / (n_min + width))


def records_to_jsonl(ball: OrbitBall, path):
    with open(path, "w") as fh:
        for i, w in enumerate(ball.words):
            row = {
                "word": list(w),
                "matrix": ball.matrices[i].tolist(),
                "kappa": ball.kappas[i].tolist(),
                "k_flag": ball.k_frames[i].tolist(),
                "l_opposite": ball.l_frames[i].T.tolist(),
            }
            fh.write(json.dumps(row) + "\n")
