"""Byte-for-byte golden outputs: the three CLI commands at n = 2, analyze and
build-semigroup at n = 3, and one SL(3) certificate.

The files under tests/golden/ hold the outputs of small fixed runs, with the
``generated_at`` timestamp removed from each report. A refactor or speed-up must
leave them unchanged. A change that fixes a bug and so must move them regenerates
them with ``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
"""

import json
import os

from slnlab import GroupElement, pingpong_certificate
from slnlab.cli import main as cli_main
from test_pipeline import SANOV, STRONG_RATIONAL

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# the acceptance-criterion-9 config at a radius small enough for tier-1
SANOV_CONFIG = {
    "n": 2,
    "target_delta": 0.05,
    "epsilon": 0.05,
    "radius": 6,
    "seed": 42,
    "budgets": {"samples": 1200, "nodes": 10**7},
}
SL3_A = [[1, 1, 0], [1, 2, 1], [0, 1, 2]]
SL3_B = [[2, 0, 1], [1, 1, 1], [1, 0, 1]]
SL3 = {"n": 3, "generators": [
    {"matrix": m, "exact": [[str(x) for x in row] for row in m]} for m in (SL3_A, SL3_B)
]}
# n = 3: chamber norms, cone containment and the filter window off the n = 2 line
SL3_CONFIG = {
    "n": 3,
    "target_delta": 0.05,
    "epsilon": 0.07,
    "radius": 4,
    "seed": 42,
    "budgets": {"samples": 1000},
}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _power(g, k):
    out = g
    for _ in range(k - 1):
        out = out.matmul(g)
    return out


def produce(out):
    """Run every golden case with outputs under ``out``; returns the exit codes."""
    os.makedirs(out, exist_ok=True)
    sanov_path = os.path.join(out, "sanov.json")
    strong_path = os.path.join(out, "strong.json")
    sl3_path = os.path.join(out, "sl3.json")
    config_path = os.path.join(out, "config.json")
    sl3_config_path = os.path.join(out, "sl3-config.json")
    _write_json(sanov_path, SANOV)
    _write_json(strong_path, STRONG_RATIONAL)
    _write_json(sl3_path, SL3)
    _write_json(config_path, dict(SANOV_CONFIG, generators_path=sanov_path))
    _write_json(sl3_config_path, dict(SL3_CONFIG, generators_path=sl3_path))

    codes = {
        "analyze": cli_main(["analyze", "--config", config_path, "--out", os.path.join(out, "analyze")]),
        "build-semigroup": cli_main(
            ["build-semigroup", "--config", config_path, "--out", os.path.join(out, "build-semigroup")]
        ),
        "certify": cli_main(
            ["certify", "--generators", strong_path, "--epsilon", "0.1", "--exact-check", "8",
             "--out", os.path.join(out, "certify")]
        ),
    }
    for cmd in ("analyze", "build-semigroup"):
        codes[f"sl3-{cmd}"] = cli_main([cmd, "--config", sl3_config_path, "--out", os.path.join(out, "sl3", cmd)])
    for case in ("analyze", "build-semigroup", "sl3/analyze", "sl3/build-semigroup"):
        path = os.path.join(out, case, "report.json")
        with open(path) as fh:
            report = json.load(fh)
        report.pop("generated_at")
        _write_json(path, report)

    a, b = GroupElement.from_exact(SL3_A), GroupElement.from_exact(SL3_B)
    cert = pingpong_certificate([_power(a, 6), _power(b, 6)], 0.1, budget=1000, seed=3)
    os.makedirs(os.path.join(out, "sl3"), exist_ok=True)
    _write_json(os.path.join(out, "sl3", "certificate.json"), cert.to_dict())

    for name in ("sanov.json", "strong.json", "sl3.json", "config.json", "sl3-config.json"):
        os.remove(os.path.join(out, name))
    _write_json(os.path.join(out, "exit_codes.json"), codes)
    return codes


def _tree(root):
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_outputs_match_golden_files(tmp_path):
    produce(str(tmp_path))
    fresh, golden = _tree(str(tmp_path)), _tree(GOLDEN)
    assert sorted(fresh) == sorted(golden)
    changed = [name for name in sorted(golden) if fresh[name] != golden[name]]
    assert not changed, f"outputs differ from tests/golden/: {changed}"


if __name__ == "__main__":
    print(produce(GOLDEN))
