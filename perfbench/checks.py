"""Correctness checks on each workload's outputs.

Each check returns a list of error strings; an empty list means the outputs pass.
The checks compare against computations made apart from slnlab (closed forms with
Python integers, the RP^1 action, a numpy evaluation of symmetric-space distances)
or against properties the method must have, never against saved outputs. The one
use of slnlab is FreenessCertificate.recheck_verdict on a passing build, which is
the certificate's own re-validation contract.
"""

import bisect
import csv
import hashlib
import json
import math
import os
import re

import numpy as np

SQRT2 = math.sqrt(2.0)

# Sanov generators a = [[1,2],[0,1]], b = [[1,0],[2,1]] and inverses as (p, q, r, s);
# letters follow slnlab's convention: i for generator i, -i for its inverse.
SANOV_LETTERS = {
    1: (1, 2, 0, 1),
    -1: (1, -2, 0, 1),
    2: (1, 0, 2, 1),
    -2: (1, 0, -2, 1),
}


def _mul(m, n):
    a, b, c, d = m
    p, q, r, s = n
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def sanov_word_matrix(word):
    m = (1, 0, 0, 1)
    for letter in word:
        m = _mul(m, SANOV_LETTERS[letter])
    return m


def sanov_ball(radius):
    """Integer matrices of every reduced word of length 1..radius, with the word lengths."""
    frontier = [((), (1, 0, 0, 1))]
    out = []
    for length in range(1, radius + 1):
        nxt = []
        for word, m in frontier:
            for letter, g in SANOV_LETTERS.items():
                if word and word[-1] == -letter:
                    continue
                nxt.append((word + (letter,), _mul(m, g)))
        out.extend((length, m) for _, m in nxt)
        frontier = nxt
    return out


def kappa_norm(m):
    """||kappa|| of a det-1 integer 2x2 matrix: sigma_1^2 = (F + sqrt(F^2 - 4)) / 2, F = ||M||_F^2."""
    f = sum(x * x for x in m)
    sigma1_sq = (f + math.sqrt(f * f - 4)) / 2
    return SQRT2 * 0.5 * math.log(sigma1_sq)


def _read_json(path, errors):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        errors.append(f"cannot read {path}: {e}")
        return None


def check_sanov_growth(out_dir, radius, report_key="delta_hat"):
    """report.json and growth.csv of an analyze or build run on the Sanov pair at a radius."""
    errors = []
    report = _read_json(os.path.join(out_dir, "report.json"), errors)
    if report is None:
        return errors
    ball = sanov_ball(radius)
    expected_records = 2 * 3**radius - 2
    if len(ball) != expected_records or len({m for _, m in ball}) != expected_records:
        errors.append("closed-form ball is not free: the check itself is wrong")
    if report.get("records") != expected_records:
        errors.append(f"records {report.get('records')} != 2*3^{radius} - 2 = {expected_records}")
    if "counts_by_radius" in report:
        expected = {str(k): 4 * 3 ** (k - 1) for k in range(1, radius + 1)}
        if report["counts_by_radius"] != expected:
            errors.append(f"counts_by_radius {report['counts_by_radius']} != 4*3^(k-1)")
    delta = report.get(report_key)
    if not (isinstance(delta, (int, float)) and 0 < delta <= SQRT2):
        errors.append(f"{report_key} {delta!r} not in (0, sqrt 2]")

    norms = sorted(kappa_norm(m) for _, m in ball)
    try:
        with open(os.path.join(out_dir, "growth.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        table = [(float(r["T"]), int(r["N"]), r["logN"]) for r in rows]
    except (OSError, KeyError, ValueError) as e:
        return errors + [f"cannot read growth.csv: {e}"]
    if not table:
        return errors + ["growth.csv has no rows"]
    if abs(table[0][0] - norms[0]) > 1e-7 * max(1.0, norms[0]):
        errors.append(f"growth.csv starts at T={table[0][0]}, smallest closed-form norm is {norms[0]}")
    for i, (t, n, log_n) in enumerate(table):
        tol = 1e-7 * max(1.0, t)
        lo = bisect.bisect_left(norms, t - tol)
        hi = bisect.bisect_right(norms, t + tol)
        # words whose norm lies within rounding of T may fall on either side
        if not lo <= n <= hi:
            errors.append(f"growth.csv row {i}: N({t})={n}, closed form gives {lo}..{hi}")
        if n > 0 and abs(float(log_n) - math.log(n)) > 1e-8 * max(1.0, math.log(n)):
            errors.append(f"growth.csv row {i}: logN {log_n} != log({n})")
        if i and abs(t - table[i - 1][0] - 0.5) > 1e-7 * max(1.0, t):
            errors.append(f"growth.csv row {i}: T step {t - table[i - 1][0]} != 0.5")
    if table[-1][1] != expected_records:
        errors.append(f"growth.csv ends at N={table[-1][1]}, not all {expected_records} records")
    return errors


def _scrubbed(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "report.json":
        data = re.sub(rb'\n *"generated_at": "[^"]*",?', b"", data)
    return data


def compare_rounds(dir_a, dir_b):
    """Two rounds of one run must write byte-identical outputs apart from generated_at."""
    names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    if names_a != names_b:
        return [f"rounds wrote different files: {names_a} vs {names_b}"]
    return [
        f"{name} differs between two rounds"
        for name in names_a
        if _scrubbed(os.path.join(dir_a, name)) != _scrubbed(os.path.join(dir_b, name))
    ]


def digest(out_dir):
    """sha256 over the scrubbed outputs of one round, for reference only."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0" + _scrubbed(os.path.join(out_dir, name)) + b"\0")
    return h.hexdigest()


def check_sanov_analyze(run_dir, exit_codes, radius):
    errors = compare_rounds(os.path.join(run_dir, "r0"), os.path.join(run_dir, "r1"))
    if any(code != 0 for code in exit_codes):
        errors.append(f"exit codes {exit_codes}, expected 0")
    return errors + check_sanov_growth(os.path.join(run_dir, "r0"), radius)


# A quoted failure clause, its value and threshold, and whether it sits on the failing side.
_CLAUSES = [
    (re.compile(r"pairwise_separation\[\d+\]\[\d+\]=(-?[\d.]+) < ([\d.]+)"),
     lambda v, t, eps: v <= t and abs(t - 6 * eps) < 1e-4),
    (re.compile(r"shadow_disjointness\[\d+\]\[\d+\]=(-?[\d.]+) <= ([\d.]+)"),
     lambda v, t, eps: v <= t and abs(t - 2 * eps) < 1e-4),
    (re.compile(r"selection sum ([\d.]+) < (1)"), lambda v, t, eps: v <= 1.0),
]
_CONTRACTION = re.compile(
    r"generator \d+: contraction fail \(margin_a=(-?[\d.]+|-?inf|nan), image=([\d.]+|inf|nan), lip=([\d.]+|inf|nan)\)"
)
# failure figures are printed with 4 decimals
_ROUNDING = 5e-5


def check_failure_clauses(failure, epsilon, packed):
    """Every clause a round quotes must sit on the failing side of its threshold."""
    errors = []
    for clause in failure.split("; "):
        if clause == "fewer than 2 packed candidates":
            if packed >= 2:
                errors.append(f"'{clause}' quoted with {packed} packed")
            continue
        m = _CONTRACTION.fullmatch(clause)
        if m:
            margin, image, lip = (float(x) for x in m.groups())
            if not (margin <= _ROUNDING or image >= epsilon - _ROUNDING or lip >= epsilon - _ROUNDING):
                errors.append(f"'{clause}' passes every contraction threshold at epsilon {epsilon}")
            continue
        for pattern, failing in _CLAUSES:
            m = pattern.fullmatch(clause)
            if m:
                if not failing(float(m.group(1)), float(m.group(2)), epsilon):
                    errors.append(f"'{clause}' is not on the failing side of its threshold")
                break
    return errors


def check_sanov_build(run_dir, exit_codes, config):
    """Outputs of build-semigroup rounds on the Sanov pair; exit 4 is the kept fault."""
    errors = []
    r0, r1 = os.path.join(run_dir, "r0"), os.path.join(run_dir, "r1")
    errors += compare_rounds(r0, r1)
    if any(code not in (0, 4) for code in exit_codes):
        errors.append(f"exit codes {exit_codes} outside 0 (pass) and 4 (search exhausted)")
    errors += check_sanov_growth(r0, config["radius"], "delta_hat_ambient")
    report = _read_json(os.path.join(r0, "report.json"), errors)
    if report is None:
        return errors
    eps, retries = config["epsilon"], config.get("retries", 5)
    rounds = report.get("rounds", [])
    for i, rnd in enumerate(rounds):
        if rnd.get("attempt") != i:
            errors.append(f"round {i} has attempt {rnd.get('attempt')}")
        if not rnd.get("packed", 0) <= rnd.get("candidates", -1):
            errors.append(f"round {i}: packed {rnd.get('packed')} > candidates {rnd.get('candidates')}")
        if "selection_sum" in rnd and rnd.get("packed", 0) < 2:
            errors.append(f"round {i}: selection sum quoted with fewer than 2 packed")
        if "failure" in rnd:
            errors += [f"round {i}: {e}" for e in check_failure_clauses(rnd["failure"], eps, rnd.get("packed", 0))]
    last = exit_codes[-1]
    if last == 4:
        if report.get("outcome") != "search exhausted":
            errors.append(f"exit 4 with outcome {report.get('outcome')!r}")
        if len(rounds) != retries + 1:
            errors.append(f"{len(rounds)} rounds on an exhausted search, expected retries + 1 = {retries + 1}")
        if any("failure" not in rnd for rnd in rounds):
            errors.append("an exhausted search has a round without a quoted failure")
    elif last == 0:
        errors += check_build_pass(r0, report, config)
    return errors


def check_build_pass(out_dir, report, config):
    """The pass branch: the certificate re-validates and the selection sum reaches 1."""
    from slnlab.contraction import FreenessCertificate

    errors = []
    if report.get("outcome") != "pass":
        errors.append(f"exit 0 with outcome {report.get('outcome')!r}")
    cert = _read_json(os.path.join(out_dir, "certificate.json"), errors)
    if cert is not None and FreenessCertificate.from_dict(cert).recheck_verdict() != "pass":
        errors.append("certificate.json does not re-validate to pass")
    try:
        with open(os.path.join(out_dir, "packing.jsonl")) as fh:
            words = [tuple(json.loads(line)["word"]) for line in fh if line.strip()]
    except (OSError, ValueError, KeyError) as e:
        return errors + [f"cannot read packing.jsonl: {e}"]
    total = math.fsum(math.exp(-config["target_delta"] * kappa_norm(sanov_word_matrix(w))) for w in words)
    if total < 1.0:
        errors.append(f"closed-form selection sum {total} < 1")
    quoted = report.get("checklist", {}).get("selection_sum")
    if quoted is None or abs(quoted - total) > 1e-9 * max(1.0, total):
        errors.append(f"quoted selection sum {quoted} != closed form {total}")
    return errors


# RP^1 closed forms for the strong pair: d = diag(148, 1/148) attracts at angle 0 and
# repels at pi/2; s d s^-1 with s the rotation by theta = atan2(3, 4) moves both by theta.
STRONG_THETA = math.atan2(3, 4)


def _line_angle(v):
    return math.atan2(v[1], v[0]) % math.pi


def _angle_gap(a, b):
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def check_strong_certify(run_dir, exit_codes, epsilon, max_len):
    errors = []
    r0 = os.path.join(run_dir, "r0")
    errors += compare_rounds(r0, os.path.join(run_dir, "r1"))
    if any(code != 0 for code in exit_codes):
        errors.append(f"exit codes {exit_codes}, expected 0 (pass)")
    cert = _read_json(os.path.join(r0, "certificate.json"), errors)
    if cert is None:
        return errors
    if cert.get("verdict") != "pass" or cert.get("failures"):
        errors.append(f"verdict {cert.get('verdict')!r} with failures {cert.get('failures')}")
    xc = cert.get("exact_crosscheck") or {}
    if xc.get("max_len") != max_len or xc.get("words_checked") != 2 ** (max_len + 1) - 2:
        errors.append(f"crosscheck covered {xc.get('words_checked')} words at length {xc.get('max_len')}, "
                      f"expected 2^{max_len + 1} - 2 at {max_len}")
    if xc.get("collisions") != 0:
        errors.append(f"crosscheck found {xc.get('collisions')} collisions")

    attract = [0.0, STRONG_THETA]
    repel = [math.pi / 2, math.pi / 2 + STRONG_THETA]
    tol = 1e-9
    for i, c in enumerate(cert.get("per_generator", [])):
        a = _line_angle([row[0] for row in c["attracting"]["frame"]])
        y = _line_angle([row[-1] for row in c["repelling"]["frame"]])
        if _angle_gap(a, attract[i]) > tol or _angle_gap(y, repel[i]) > tol:
            errors.append(f"generator {i}: lines at {a:.12f}/{y:.12f}, expected {attract[i]:.12f}/{repel[i] % math.pi:.12f}")
        # own separation: margin(phi, phi + pi/2) = 1
        if abs(c["margin_a"] - (1.0 - 2 * epsilon)) > tol:
            errors.append(f"generator {i}: margin_a {c['margin_a']} != 1 - 2*eps")
        if not (c["image_radius"] <= epsilon and c["lipschitz_bound"] <= epsilon and c["verdict"] == "pass"):
            errors.append(f"generator {i}: contraction figures do not pass at epsilon {epsilon}")
    sep = np.asarray(cert.get("pairwise_separation"), dtype=float)
    dis = np.asarray(cert.get("shadow_disjointness"), dtype=float)
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            want_sep = math.sqrt(1.0 - abs(math.cos(attract[i] - repel[j])))
            want_dis = abs(math.sin(attract[i] - attract[j]))
            if abs(sep[i, j] - want_sep) > tol:
                errors.append(f"pairwise_separation[{i}][{j}] {sep[i, j]} != RP1 margin {want_sep}")
            if abs(dis[i, j] - want_dis) > tol:
                errors.append(f"shadow_disjointness[{i}][{j}] {dis[i, j]} != RP1 distance {want_dis}")
    return errors


def _distance_on_ray(frame, h, target):
    """d(K exp(H) o, T o) = ||centered log singular values of exp(-H) K^T T||."""
    m = np.exp(-np.asarray(h))[:, None] * (np.asarray(frame).T @ np.asarray(target))
    logs = np.log(np.linalg.svd(m, compute_uv=False))
    return float(np.linalg.norm(logs - logs.mean()))


def _check_member(q, R, label):
    m = q["membership"]
    if "error" in m or not m["member"]:
        return []
    h = np.asarray(m["minimizer"])
    errors = []
    if abs(h.sum()) > 1e-9 * max(1.0, np.abs(h).max()) or np.any(np.diff(h) > 1e-12):
        errors.append(f"{label}: minimizer {h.tolist()} is outside the closed chamber")
    d = _distance_on_ray(q["frame"], h, q["target"])
    if d > R + 1e-9 or abs(d - m["achieved"]) > 1e-8 * max(1.0, d):
        errors.append(f"{label}: distance at the minimizer is {d}, reported {m['achieved']} against R={R}")
    return errors


def check_sl3(run_dir, inputs):
    errors = []
    r0 = os.path.join(run_dir, "r0")
    errors += compare_rounds(r0, os.path.join(run_dir, "r1"))
    data = _read_json(os.path.join(r0, "results.json"), errors)
    if data is None:
        return errors
    for i, q in enumerate(data["self_queries"]):
        m, rb = q["membership"], q["ray_bound"]
        if "error" in m or not m["member"]:
            errors.append(f"self query {i} ({q['word']}): own KAK flag is not a member")
        errors += _check_member(q, inputs["self_R"], f"self query {i}")
        if isinstance(rb, dict):
            errors.append(f"self query {i}: ray bound raised")
            continue
        lhs, bound, holds = rb
        kappa = np.log(np.linalg.svd(np.asarray(q["target"]), compute_uv=False))
        own = _distance_on_ray(q["frame"], kappa - kappa.mean(), q["target"])
        if not (holds and abs(own - lhs) <= 1e-8 * max(1.0, own) and own <= 2 * inputs["ray_R"] + 1e-7):
            errors.append(f"self query {i}: ray bound {lhs} (recomputed {own}) vs 2R={bound}, holds={holds}")
    for i, q in enumerate(data["random_queries"]):
        if "error" in q["membership"]:
            errors.append(f"random query {i} raised")
        errors += _check_member(q, inputs["random_R"], f"random query {i}")
    cal = data["calibration"]
    if "error" in cal:
        return errors + ["calibration raised"]
    radii = sorted(inputs["calibration_radii"])
    if [row[2] for row in cal["rows"]] != radii:
        errors.append(f"calibration rows {cal['rows']} do not sweep {radii}")
    probes = inputs["calibration_probes"]
    if any(row[4] != probes or not 0 <= row[3] <= probes for row in cal["rows"]):
        errors.append(f"calibration rows {cal['rows']} break 0 <= violations <= probes = {probes}")
    clean = [row[2] for row in cal["rows"] if row[3] == 0]
    if cal["r_min"] != (clean[0] if clean else None):
        errors.append(f"calibration r_min {cal['r_min']} is not the smallest clean radius {clean[:1]}")
    return errors
