"""Each benchmark check passes on real outputs and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q

The outputs come from the program at small sizes (Sanov radius 5 and 6, crosscheck
length 6, a radius-3 SL(3) ball), written twice as the benchmark writes rounds r0
and r1.
"""

import json
import math
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from slnlab import cli  # noqa: E402
from slnlab.pipeline import cmd_certify, load_generators  # noqa: E402

ANALYZE_RADIUS = 5
BUILD_RADIUS = 6
CROSSCHECK_LEN = 6


def _two_rounds(base, argv):
    codes = [cli.main([*argv, "--out", str(base / r)]) for r in ("r0", "r1")]
    return base, codes


def _sanov_config(base, radius):
    gens = base / "generators.json"
    gens.write_text(json.dumps({"n": 2, "generators": run.SANOV}))
    config = dict(run.SANOV_BUILD_CONFIG, radius=radius, generators_path=str(gens))
    path = base / "config.json"
    path.write_text(json.dumps(config))
    return str(path), config


@pytest.fixture(scope="module")
def analyze_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("analyze")
    cfg, _ = _sanov_config(base, ANALYZE_RADIUS)
    return _two_rounds(base, ["analyze", "--config", cfg])[0]


@pytest.fixture(scope="module")
def build_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("build")
    cfg, config = _sanov_config(base, BUILD_RADIUS)
    base, codes = _two_rounds(base, ["build-semigroup", "--config", cfg])
    return base, codes, config


@pytest.fixture(scope="module")
def certify_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("certify")
    gens = base / "generators.json"
    gens.write_text(json.dumps({"n": 2, "generators": run._strong_pair()}))
    argv = ["certify", "--generators", str(gens), "--epsilon", str(run.STRONG_EPSILON),
            "--seed", "3", "--exact-check", str(CROSSCHECK_LEN)]
    return _two_rounds(base, argv)


@pytest.fixture(scope="module")
def sl3_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("sl3")
    inputs = run.make_inputs("sl3-shadows", 3, str(base))["check_inputs"]
    first = dict(inputs["input_sets"][0], frames=inputs["input_sets"][0]["frames"][:8])
    inputs.update(ball_radius=3, input_sets=[first], calibration_probes=8)
    path = base / "inputs.json"
    path.write_text(json.dumps(inputs))
    run_round = workload._sl3_setup({"inputs": str(path)})
    for r in ("r0", "r1"):
        (base / r).mkdir()
        run_round(str(base / r), 0)
    return base, inputs


def _copy(tmp_path, base):
    dst = tmp_path / "copy"
    shutil.copytree(base, dst)
    return dst


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, sort_keys=True, indent=1))


def _corrupt_both(run_dir, name, edit):
    """Apply one edit to a file in both rounds, so the round comparison stays clean."""
    for r in ("r0", "r1"):
        edit(run_dir / r / name)


# -- sanov-analyze ------------------------------------------------------------


def test_analyze_outputs_pass(analyze_run):
    assert checks.compare_rounds(analyze_run / "r0", analyze_run / "r1") == []
    assert checks.check_sanov_growth(str(analyze_run / "r0"), ANALYZE_RADIUS) == []


def test_shifted_growth_count_fails(analyze_run, tmp_path):
    run_dir = _copy(tmp_path, analyze_run)
    path = run_dir / "r0" / "growth.csv"
    header, *rows = path.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    counts = [c[1] for c in cells]
    shifted = [counts[0]] + counts[:-1]  # the N column slides down one row
    path.write_text("\n".join([header] + [",".join([c[0], n, c[2]]) for c, n in zip(cells, shifted)]) + "\n")
    errors = checks.check_sanov_growth(str(run_dir / "r0"), ANALYZE_RADIUS)
    assert any("growth.csv row" in e for e in errors)


def test_wrong_counts_by_radius_fails(analyze_run, tmp_path):
    run_dir = _copy(tmp_path, analyze_run)
    _edit_json(run_dir / "r0" / "report.json", lambda d: d["counts_by_radius"].update({"3": 35}))
    assert any("counts_by_radius" in e for e in checks.check_sanov_growth(str(run_dir / "r0"), ANALYZE_RADIUS))


def test_delta_hat_above_lattice_exponent_fails(analyze_run, tmp_path):
    run_dir = _copy(tmp_path, analyze_run)
    _edit_json(run_dir / "r0" / "report.json", lambda d: d.update(delta_hat=1.5))
    assert any("delta_hat" in e for e in checks.check_sanov_growth(str(run_dir / "r0"), ANALYZE_RADIUS))


def test_rounds_that_differ_fail(analyze_run, tmp_path):
    run_dir = _copy(tmp_path, analyze_run)
    _edit_json(run_dir / "r1" / "report.json", lambda d: d.update(fit_residual=d["fit_residual"] + 1e-12))
    assert checks.compare_rounds(run_dir / "r0", run_dir / "r1") == ["report.json differs between two rounds"]


# -- sanov-build ----------------------------------------------------------------


def test_build_outputs_pass(build_run):
    base, codes, config = build_run
    assert codes == [4, 4]
    assert checks.check_sanov_build(str(base), codes, config) == []


def test_tampered_failure_margin_fails(build_run, tmp_path):
    base, codes, config = build_run
    run_dir = _copy(tmp_path, base)

    def tamper(path):
        text = path.read_text()
        assert "shadow_disjointness[0][1]=0.0" in text
        path.write_text(text.replace("shadow_disjointness[0][1]=0.0", "shadow_disjointness[0][1]=0.9"))

    _corrupt_both(run_dir, "report.json", tamper)
    errors = checks.check_sanov_build(str(run_dir), codes, config)
    assert errors and all("not on the failing side" in e for e in errors)


def test_packed_beyond_candidates_fails(build_run, tmp_path):
    base, codes, config = build_run
    run_dir = _copy(tmp_path, base)
    _corrupt_both(run_dir, "report.json", lambda p: _edit_json(p, lambda d: d["rounds"][1].update(packed=10**6)))
    assert any("packed" in e for e in checks.check_sanov_build(str(run_dir), codes, config))


def test_missing_round_fails(build_run, tmp_path):
    base, codes, config = build_run
    run_dir = _copy(tmp_path, base)
    _corrupt_both(run_dir, "report.json", lambda p: _edit_json(p, lambda d: d["rounds"].pop()))
    assert any("retries + 1" in e for e in checks.check_sanov_build(str(run_dir), codes, config))


@pytest.fixture()
def build_pass_dir(tmp_path, certify_run):
    """A pass-branch output: a passing certificate and two Sanov words whose sum reaches 1."""
    out = tmp_path / "pass"
    out.mkdir()
    gens = load_generators(str(certify_run[0] / "generators.json"))
    cert = cmd_certify(gens, run.STRONG_EPSILON)
    (out / "certificate.json").write_text(json.dumps(cert.to_dict()))
    words = [[1], [2]]
    (out / "packing.jsonl").write_text("".join(json.dumps({"word": w}) + "\n" for w in words))
    delta = run.SANOV_BUILD_CONFIG["target_delta"]
    total = math.fsum(math.exp(-delta * checks.kappa_norm(checks.sanov_word_matrix(w))) for w in words)
    report = {"outcome": "pass", "checklist": {"selection_sum": total}}
    return out, report


def test_build_pass_branch_passes(build_pass_dir):
    out, report = build_pass_dir
    assert checks.check_build_pass(str(out), report, run.SANOV_BUILD_CONFIG) == []


def test_build_pass_branch_tampered_certificate_fails(build_pass_dir):
    out, report = build_pass_dir
    _edit_json(out / "certificate.json", lambda d: d.update(shadow_disjointness=[[0.0, 0.1], [0.1, 0.0]]))
    assert any("re-validate" in e for e in checks.check_build_pass(str(out), report, run.SANOV_BUILD_CONFIG))


def test_build_pass_branch_short_selection_sum_fails(build_pass_dir):
    out, report = build_pass_dir
    (out / "packing.jsonl").write_text(json.dumps({"word": [1, 2, 1, 2, 1, 2, 1, 2]}) + "\n")
    errors = checks.check_build_pass(str(out), report, run.SANOV_BUILD_CONFIG)
    assert any("selection sum" in e for e in errors)


# -- strong-certify -------------------------------------------------------------


def test_certify_outputs_pass(certify_run):
    base, codes = certify_run
    assert checks.check_strong_certify(str(base), codes, run.STRONG_EPSILON, CROSSCHECK_LEN) == []


@pytest.mark.parametrize(
    "edit, phrase",
    [
        (lambda d: d.update(verdict="fail"), "verdict"),
        (lambda d: d["exact_crosscheck"].update(collisions=1), "collisions"),
        (lambda d: d["exact_crosscheck"].update(words_checked=100), "crosscheck covered"),
        (lambda d: d["pairwise_separation"][0].__setitem__(1, 0.64), "pairwise_separation[0][1]"),
        (lambda d: d["shadow_disjointness"][1].__setitem__(0, 0.61), "shadow_disjointness[1][0]"),
        (lambda d: d["per_generator"][1]["attracting"].update(frame=[[1.0, 0.0], [0.0, 1.0]]), "generator 1: lines"),
    ],
)
def test_corrupted_certificate_fails(certify_run, tmp_path, edit, phrase):
    base, codes = certify_run
    run_dir = _copy(tmp_path, base)
    _corrupt_both(run_dir, "certificate.json", lambda p: _edit_json(p, edit))
    errors = checks.check_strong_certify(str(run_dir), codes, run.STRONG_EPSILON, CROSSCHECK_LEN)
    assert any(phrase in e for e in errors), errors


# -- sl3-shadows ----------------------------------------------------------------


def test_sl3_outputs_pass(sl3_run):
    base, inputs = sl3_run
    assert checks.check_sl3(str(base), inputs) == []


def _first_member(d, key):
    return next(q for q in d[key] if q["membership"]["member"])


@pytest.mark.parametrize(
    "edit, phrase",
    [
        (lambda d: d["self_queries"][0]["membership"].update(member=False), "not a member"),
        (lambda d: _first_member(d, "self_queries")["membership"]["minimizer"].__setitem__(0, 0.5),
         "minimizer"),
        (lambda d: d["self_queries"][2]["ray_bound"].__setitem__(0, 2.5), "ray bound"),
        (lambda d: d["calibration"].update(r_min=0.25), "r_min"),
    ],
)
def test_corrupted_sl3_results_fail(sl3_run, tmp_path, edit, phrase):
    base, inputs = sl3_run
    run_dir = _copy(tmp_path, base)
    _corrupt_both(run_dir, "results.json", lambda p: _edit_json(p, edit))
    errors = checks.check_sl3(str(run_dir), inputs)
    assert any(phrase in e for e in errors), errors
