"""End-to-end orchestration: ingest generators, enumerate a word ball, filter an
annulus around anchor boundary data, pack a disjoint-shadow candidate set, check the
generator-sum condition, certify ping-pong freeness, and emit reports.

The annulus search is honest: when no annulus within the retry budget produces a
certified set whose selection sum reaches 1, the run ends in SearchExhausted rather
than a weakened certificate.
"""

from dataclasses import dataclass, field, replace
import csv
import datetime
import json
import os

import numpy as np

from .contraction import (
    MAX_EPSILON,
    MIN_BUDGET,
    MIN_CROSSCHECK_LEN,
    check_contracting,
    exact_freeness_crosscheck,
    freeness_certificate,
    pingpong_certificate,
)
from .errors import (
    ConfigError,
    NotLoxodromic,
    SearchExhausted,
    SlnLabError,
    TooFewRecords,
)
from .flags import fixed_flags, flag_from_json, transversality_margin
from .growth import (
    anosov_slope,
    estimate_delta,
    generator_sum_condition,
    growth_indicator_estimate,
    limit_cone_sample,
    subadditivity_defect,
)
from .lie import GroupElement, is_loxodromic
from .orbits import (
    DEDUP_POLICIES,
    MIN_RADIUS,
    Cone,
    FilterSpec,
    barycentric_axis,
    enumerate_ball,
    filter_gamma_set,
    greedy_disjoint_pack,
    records_to_jsonl,
    zariski_heuristic,
)

DEFAULT_ANGLES = (0.15, 0.25, 0.4, 0.6)


@dataclass
class PipelineConfig:
    generators_path: str
    n: int
    target_delta: float
    epsilon: float
    radius: int
    cone: object = "auto"        # Cone | "auto"
    anchor_x: object = "auto"    # Flag | "auto"
    anchor_y: object = "auto"    # OppositeFlag | "auto"
    n_min: object = "auto"       # float | "auto"
    width: float = 2.0
    sample_budget: int = 4000
    node_budget: int = 10**7
    seed: int = 0
    output_dir: str = "out"
    shadow_radius: float = 1.0
    gap_tol: float = 1e-6
    include_inverses: bool = True
    dedup: str = "float"
    retries: int = 5
    exact_check: int | None = None
    pinned_words: list = field(default_factory=list)

    def __post_init__(self):
        if self.radius < MIN_RADIUS:
            raise ConfigError(f"radius must be >= {MIN_RADIUS}, got {self.radius}")
        if self.sample_budget < MIN_BUDGET:
            raise ConfigError(f"budgets.samples must be >= {MIN_BUDGET}, got {self.sample_budget}")
        if self.dedup not in DEDUP_POLICIES:
            raise ConfigError(f"dedup must be one of {DEDUP_POLICIES}, got {self.dedup!r}")
        _check_scales(self.epsilon, self.gap_tol)

    def generators(self):
        """The generators file's matrices, which must be n x n."""
        gens = load_generators(self.generators_path)
        if gens[0].n != self.n:
            raise ConfigError(f"generators are {gens[0].n} x {gens[0].n} matrices, but n = {self.n}")
        return gens

    @classmethod
    def from_dict(cls, d):
        try:
            budgets = d.get("budgets", {})
            cone = d.get("cone", "auto")
            if isinstance(cone, dict):
                cone = Cone(
                    axis=_unit_chamber_vector(cone["axis"]),
                    half_angle=float(cone["half_angle"]),
                )
            ax = d.get("anchor_x", "auto")
            ay = d.get("anchor_y", "auto")
            if isinstance(ax, dict):
                ax = flag_from_json({**ax, "kind": "flag"})
            if isinstance(ay, dict):
                ay = flag_from_json({**ay, "kind": "opposite"})
            return cls(
                generators_path=d["generators_path"],
                n=int(d["n"]),
                target_delta=float(d["target_delta"]),
                epsilon=float(d["epsilon"]),
                radius=int(d.get("radius", budgets.get("radius", 8))),
                cone=cone,
                anchor_x=ax,
                anchor_y=ay,
                n_min=d.get("n_min", "auto"),
                width=float(d.get("width", 2.0)),
                sample_budget=int(budgets.get("samples", 4000)),
                node_budget=int(budgets.get("nodes", 10**7)),
                seed=int(d.get("seed", 0)),
                output_dir=d.get("output_dir", "out"),
                shadow_radius=float(d.get("shadow_radius", 1.0)),
                gap_tol=float(d.get("gap_tol", 1e-6)),
                include_inverses=bool(d.get("include_inverses", True)),
                dedup=d.get("dedup", "float"),
                retries=int(d.get("retries", 5)),
                exact_check=d.get("exact_check"),
                pinned_words=[tuple(w) for w in d.get("pinned_words", [])],
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad pipeline config: {e}") from e

    @classmethod
    def from_json_file(cls, path):
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e


def _unit_chamber_vector(coords):
    from .lie import CartanVector

    v = np.asarray(coords, dtype=float)
    v = v - v.mean()
    return CartanVector(v / np.linalg.norm(v))


def load_generators(path):
    """Shared matrix format: array rows of numbers, optional parallel 'p/q' rows."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read generators {path}: {e}") from e
    raw = data["generators"] if isinstance(data, dict) else data
    gens = []
    try:
        for item in raw:
            if isinstance(item, dict):
                gens.append(GroupElement.from_matrix(item["matrix"], item.get("exact")))
            else:
                gens.append(GroupElement.from_matrix(item))
    except (KeyError, TypeError, ValueError, SlnLabError) as e:
        raise ConfigError(f"bad generator entry: {e}") from e
    if len(gens) < 1:
        raise ConfigError("no generators in file")
    sizes = sorted({g.n for g in gens})
    if len(sizes) > 1:
        raise ConfigError(f"generators mix matrix sizes {sizes}")
    return gens


def _check_scales(epsilon, gap_tol):
    """Refuse, before any search, a contraction scale or loxodromy gap the library rejects."""
    if not 0 < epsilon < MAX_EPSILON:
        raise ConfigError(f"epsilon must be in (0, {MAX_EPSILON:g}), got {epsilon}")
    if not gap_tol > 0:
        raise ConfigError(f"gap_tol must be positive, got {gap_tol}")


def _check_crosscheck(generators, exact_check):
    """Refuse, before any search, an exact crosscheck the generators cannot run."""
    if exact_check is not None and (type(exact_check) is not int or exact_check < MIN_CROSSCHECK_LEN):
        raise ConfigError(f"exact_check must be an integer >= {MIN_CROSSCHECK_LEN}, got {exact_check!r}")
    if exact_check is not None and any(g.exact is None for g in generators):
        raise ConfigError("exact_check needs exact entries on every generator")


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_growth_csv(path, report):
    edges, cum = report.counts_by_norm
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["T", "N", "logN"])
        for t, n in zip(edges, cum):
            w.writerow([f"{t:.9g}", int(n), f"{np.log(n):.9g}" if n > 0 else ""])


def _write_cone_csv(path, curve):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["half_angle", "tau_hat", "sample_size", "error"])
        for c in curve:
            w.writerow(
                [
                    f"{c.cone.half_angle:.9g}",
                    "" if c.tau_hat is None else f"{c.tau_hat:.9g}",
                    c.sample_size,
                    c.error or "",
                ]
            )


def _resolve_cone(config):
    if config.cone == "auto":
        return Cone(axis=barycentric_axis(config.n), half_angle=0.6)
    return config.cone


def _auto_anchors(ball, gap_tol):
    """Boundary anchors from the most chamber-interior loxodromic row."""
    min_roots = np.min(-np.diff(ball.kappas, axis=1), axis=1)
    for i in np.argsort(-min_roots, kind="stable"):
        g = ball[i].element
        if is_loxodromic(g, gap_tol):
            return fixed_flags(g, gap_tol)
    raise SearchExhausted("no loxodromic record to anchor the filter")


def cmd_analyze(config: PipelineConfig):
    """Growth and limit-cone reports for the enumerated ball. Returns the report dict."""
    gens = config.generators()
    ball = enumerate_ball(
        gens,
        config.radius,
        dedup=config.dedup,
        include_inverses=config.include_inverses,
        node_budget=config.node_budget,
    )
    growth = estimate_delta(ball)
    cone = _resolve_cone(config)
    curve = growth_indicator_estimate(ball, cone.axis, DEFAULT_ANGLES)
    sample = limit_cone_sample(
        ball, floor=min(5.0, 0.5 * float(ball.norms.max())), gap_tol=config.gap_tol
    )

    os.makedirs(config.output_dir, exist_ok=True)
    _write_growth_csv(os.path.join(config.output_dir, "growth.csv"), growth)
    _write_cone_csv(os.path.join(config.output_dir, "cone.csv"), curve)
    report = {
        "generated_at": _timestamp(),
        "n": config.n,
        "records": len(ball),
        "delta_hat": growth.delta_hat,
        "fit_window": list(growth.fit_window),
        "fit_residual": growth.fit_residual,
        "counts_by_radius": {str(k): v for k, v in growth.counts_by_radius.items()},
        "kappa_direction_samples": len(sample.kappa_directions),
        "lambda_direction_samples": len(sample.lambda_directions),
        "growth_curve": [
            {"half_angle": c.cone.half_angle, "tau_hat": c.tau_hat, "sample_size": c.sample_size}
            for c in curve
        ],
    }
    _write_json(os.path.join(config.output_dir, "report.json"), report)
    return report


def _pack_and_certify(candidates, config, pinned_words, checked):
    """One round's outcome on a candidate set: (packed, round fields, certificate).

    The certificate is the passing FreenessCertificate, or None when the round
    fails; the fields are the round's report entries after ``candidates``.
    checked maps each word checked so far to its contraction certificate or its
    NotLoxodromic, and gains the words this round checks.
    """
    pinned = candidates[[w in pinned_words for w in candidates.words]]
    packed = greedy_disjoint_pack(candidates, config.shadow_radius, forced=pinned[:2])
    fields = {"packed": len(packed)}
    if len(packed) < 2:
        fields["failure"] = "fewer than 2 packed candidates"
        return packed, fields, None
    sum_val = generator_sum_condition(packed.norms, config.target_delta)
    fields["selection_sum"] = sum_val
    if sum_val < 1.0:
        fields["failure"] = f"selection sum {sum_val:.6f} < 1"
        return packed, fields, None
    certs = []
    for i, (word, g) in enumerate(zip(packed.words, packed.elements())):
        if word not in checked:
            try:
                checked[word] = check_contracting(
                    g, config.epsilon, config.sample_budget, config.gap_tol, config.seed
                )
            except NotLoxodromic as e:
                checked[word] = e
        if isinstance(checked[word], NotLoxodromic):
            # pingpong_certificate's report: the index in this packed list
            fields["failure"] = str(NotLoxodromic(index=i))
            return packed, fields, None
        certs.append(checked[word])
    cert = freeness_certificate(certs, config.epsilon, config.seed)
    fields["certificate_verdict"] = cert.verdict
    if not cert.passed:
        fields["failure"] = "; ".join(cert.failures[:4])
        return packed, fields, None
    return packed, fields, cert


def cmd_build_semigroup(config: PipelineConfig):
    """Search annuli for a certified free generating set; honest failure otherwise.

    Returns (certificate, report). Raises SearchExhausted when no annulus within
    the retry budget yields a packed set with selection sum >= 1 that certifies.
    """
    gens = config.generators()
    _check_crosscheck(gens, config.exact_check)
    ball = enumerate_ball(
        gens,
        config.radius,
        dedup=config.dedup,
        include_inverses=config.include_inverses,
        node_budget=config.node_budget,
    )
    cone = _resolve_cone(config)
    if config.anchor_x == "auto" or config.anchor_y == "auto":
        anchor_x, anchor_y = _auto_anchors(ball, config.gap_tol)
        auto_anchors = True
    else:
        anchor_x, anchor_y, auto_anchors = config.anchor_x, config.anchor_y, False

    max_norm = float(ball.norms.max())
    n_min = 0.5 * max_norm if config.n_min == "auto" else float(config.n_min)
    width = config.width
    try:
        spec = FilterSpec(cone=cone, x=anchor_x, y=anchor_y, n_min=n_min, epsilon=config.epsilon, width=width)
    except SlnLabError as e:  # epsilon too large for the anchors
        raise (SearchExhausted if auto_anchors else ConfigError)(str(e)) from e
    rounds = []
    chosen = None
    pinned_words = set(map(tuple, config.pinned_words))

    # Both checks are deterministic in their inputs, so each runs once per call:
    # one contraction check per packed word and one round outcome per candidate set.
    checked = {}   # word -> ContractionCertificate | NotLoxodromic
    outcomes = {}  # candidate words -> (packed, round fields, passing certificate)

    for attempt in range(config.retries + 1):
        round_info = {"attempt": attempt, "n_min": n_min, "width": width}
        kept = filter_gamma_set(ball, replace(spec, n_min=n_min, width=width))
        candidates = kept[[is_loxodromic(g, config.gap_tol) for g in kept.elements()]]
        key = tuple(candidates.words)
        if key not in outcomes:
            outcomes[key] = _pack_and_certify(candidates, config, pinned_words, checked)
        packed, fields, cert = outcomes[key]
        round_info.update(candidates=len(candidates), **fields)
        rounds.append(round_info)
        if cert is not None:
            chosen = (packed, cert, fields["selection_sum"])
            break
        width *= 2.0
        n_min = max(n_min - 0.25 * width, 0.0) if len(packed) < 2 else n_min

    os.makedirs(config.output_dir, exist_ok=True)
    growth = None
    try:
        growth = estimate_delta(ball)
        _write_growth_csv(os.path.join(config.output_dir, "growth.csv"), growth)
        curve = growth_indicator_estimate(ball, cone.axis, DEFAULT_ANGLES)
        _write_cone_csv(os.path.join(config.output_dir, "cone.csv"), curve)
    except (TooFewRecords, SlnLabError):
        pass

    report = {
        "generated_at": _timestamp(),
        "n": config.n,
        "seed": config.seed,
        "records": len(ball),
        "anchors_auto": auto_anchors,
        "anchor_margin": transversality_margin(anchor_x, anchor_y).value,
        "rounds": rounds,
        "delta_hat_ambient": None if growth is None else growth.delta_hat,
    }

    if chosen is None:
        report["outcome"] = "search exhausted"
        _write_json(os.path.join(config.output_dir, "report.json"), report)
        raise SearchExhausted(
            "no annulus within the retry budget produced a certified set with selection sum >= 1"
        )

    packed, cert, sum_val = chosen
    records_to_jsonl(packed, os.path.join(config.output_dir, "packing.jsonl"))

    elements = packed.elements()
    if config.exact_check is not None:
        cert.exact_crosscheck = exact_freeness_crosscheck(elements, config.exact_check)

    # keep the word blow-up bounded: |S|^depth <= ~256 words for the checklist
    depth = 1
    while len(elements) ** (depth + 1) <= 256 and depth < 4:
        depth += 1
    words = enumerate_ball(elements, depth, dedup="none")
    shortest = sorted(range(len(words)), key=lambda i: (len(words.words[i]), words.words[i]))
    pair_pool = words[shortest[:16]].elements()
    max_def, mean_def, _hist = subadditivity_defect(
        None, pairs=[(a, b) for a in pair_pool for b in pair_pool]
    )
    slope = anosov_slope(words)
    zar = zariski_heuristic(ball, gap_tol=config.gap_tol)

    checklist = {
        "contraction_verdicts": [c.verdict for c in cert.per_generator],
        "zariski": zar.verdict,
        "selection_sum": sum_val,
        "selection_sum_ok": sum_val >= 1.0,
        "anosov_C_hat": slope[0],
        "anosov_min_ratio": slope[2],
        "subadditivity_max_defect": max_def,
        "subadditivity_mean_defect": mean_def,
    }
    report.update(
        {
            "outcome": "pass",
            "generators_selected": [list(w) for w in packed.words],
            "checklist": checklist,
        }
    )
    _write_json(os.path.join(config.output_dir, "report.json"), report)
    _write_json(os.path.join(config.output_dir, "certificate.json"), cert.to_dict())
    return cert, report


def cmd_certify(generators, epsilon, budget=4000, gap_tol=1e-6, seed=0, exact_check=None):
    """Freeness certificate for an explicit generator list; no search involved."""
    _check_scales(epsilon, gap_tol)
    _check_crosscheck(generators, exact_check)
    cert = pingpong_certificate(generators, epsilon, budget=budget, gap_tol=gap_tol, seed=seed)
    if exact_check is not None:
        cert.exact_crosscheck = exact_freeness_crosscheck(generators, exact_check)
    return cert
