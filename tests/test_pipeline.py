import json
import math
import os

import numpy as np
import pytest

from slnlab import ConfigError, SearchExhausted, cmd_analyze, cmd_build_semigroup
from slnlab.cli import main as cli_main
from slnlab.contraction import FreenessCertificate
from slnlab.pipeline import PipelineConfig, load_generators


SANOV = {"n": 2, "generators": [
    {"matrix": [[1, 2], [0, 1]], "exact": [["1", "2"], ["0", "1"]]},
    {"matrix": [[1, 0], [2, 1]], "exact": [["1", "0"], ["2", "1"]]},
]}

STRONG_RATIONAL = {"n": 2, "generators": [
    {"matrix": [[148, 0], [0, 1 / 148]], "exact": [["148", "0"], ["0", "1/148"]]},
    {
        "matrix": [[350473 / 3700, 65709 / 925], [65709 / 925, 49288 / 925]],
        "exact": [["350473/3700", "65709/925"], ["65709/925", "49288/925"]],
    },
]}


# the keys a pipeline config must give
REQUIRED = {"generators_path": "gens.json", "n": 2, "target_delta": 0.05, "epsilon": 0.05}

FLOAT_SANOV = [g["matrix"] for g in SANOV["generators"]]
FLOAT_STRONG = [g["matrix"] for g in STRONG_RATIONAL["generators"]]
MIXED_SIZES = [[[1, 2], [0, 1]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]]

# (generators, config overrides, command): each is a fault of the config or of the
# generator file, found before any search
CONFIG_FAULTS = {
    "n 3 on 2x2 generators, analyze": (SANOV, {"n": 3}, "analyze"),
    "n 3 on 2x2 generators, build": (SANOV, {"n": 3}, "build-semigroup"),
    "n 3 on 2x2 generators, certify": (STRONG_RATIONAL, {"n": 3, "epsilon": 0.1}, "certify"),
    "mixed sizes, analyze": (MIXED_SIZES, {}, "analyze"),
    "mixed sizes, certify": (MIXED_SIZES, {"epsilon": 0.1}, "certify"),
    "exact_check a string, certify": (STRONG_RATIONAL, {"epsilon": 0.1, "exact_check": "8"}, "certify"),
    "exact_check a string, build": (SANOV, {"exact_check": "8"}, "build-semigroup"),
    "unknown dedup": (SANOV, {"dedup": "bogus"}, "analyze"),
    "exact dedup on float generators, analyze": (FLOAT_SANOV, {"dedup": "exact"}, "analyze"),
    "exact dedup on float generators, build": (FLOAT_SANOV, {"dedup": "exact"}, "build-semigroup"),
    "radius 0": (SANOV, {"radius": 0}, "analyze"),
    "samples below the floor, certify": (
        STRONG_RATIONAL, {"epsilon": 0.1, "budgets": {"samples": 10}}, "certify"
    ),
    "samples below the floor, build": (SANOV, {"budgets": {"samples": 10}}, "build-semigroup"),
    "exact_check on float generators, build": (FLOAT_SANOV, {"exact_check": 6}, "build-semigroup"),
    "epsilon 1.5, certify": (STRONG_RATIONAL, {"epsilon": 1.5}, "certify"),
    "epsilon 1, build": (SANOV, {"epsilon": 1.0}, "build-semigroup"),
    "epsilon 0, build": (SANOV, {"epsilon": 0.0}, "build-semigroup"),
    "gap_tol 0, analyze": (SANOV, {"gap_tol": 0.0}, "analyze"),
    "gap_tol 0, certify": (STRONG_RATIONAL, {"epsilon": 0.1, "gap_tol": 0.0}, "certify"),
    "gap_tol negative, build": (SANOV, {"gap_tol": -1e-6}, "build-semigroup"),
    "n_min a string, build": (SANOV, {"n_min": "abc"}, "build-semigroup"),
    "n_min null, build": (SANOV, {"n_min": None}, "build-semigroup"),
    "cone half_angle 2, analyze": (SANOV, {"cone": {"axis": [1, -1], "half_angle": 2}}, "analyze"),
    "cone half_angle 2, build": (SANOV, {"cone": {"axis": [1, -1], "half_angle": 2}}, "build-semigroup"),
    "cone axis outside the chamber, analyze": (
        SANOV, {"cone": {"axis": [-1, 1], "half_angle": 0.5}}, "analyze"
    ),
    "cone axis outside the chamber, build": (
        SANOV, {"cone": {"axis": [-1, 1], "half_angle": 0.5}}, "build-semigroup"
    ),
    "cone axis constant, analyze": (SANOV, {"cone": {"axis": [1, 1], "half_angle": 0.5}}, "analyze"),
    "cone axis constant, build": (SANOV, {"cone": {"axis": [1, 1], "half_angle": 0.5}}, "build-semigroup"),
    "shadow_radius 0, build": (SANOV, {"shadow_radius": 0}, "build-semigroup"),
    "shadow_radius negative, build": (SANOV, {"shadow_radius": -1}, "build-semigroup"),
    "anchor_x not orthogonal, build": (SANOV, {"anchor_x": {"frame": [[1, 1], [0, 1]]}}, "build-semigroup"),
    "anchor_y not orthogonal, build": (SANOV, {"anchor_y": {"frame": [[1, 1], [0, 1]]}}, "build-semigroup"),
    "output_dir null, analyze": (SANOV, {"output_dir": None}, "analyze"),
    "output_dir null, build": (SANOV, {"output_dir": None}, "build-semigroup"),
    "include_inverses a string, analyze": (SANOV, {"include_inverses": "no"}, "analyze"),
    "include_inverses a string, build": (SANOV, {"include_inverses": "no"}, "build-semigroup"),
    "width 0, build": (SANOV, {"width": 0}, "build-semigroup"),
    "width negative, build": (SANOV, {"width": -2}, "build-semigroup"),
    "retries negative, build": (SANOV, {"retries": -1}, "build-semigroup"),
    "target_delta 0, build": (SANOV, {"target_delta": 0}, "build-semigroup"),
    "target_delta negative, build": (SANOV, {"target_delta": -0.05}, "build-semigroup"),
    "retries misspelled, build": (SANOV, {"retires": 0}, "build-semigroup"),
    "budgets.samples misspelled, analyze": (SANOV, {"budgets": {"sample": 10}}, "analyze"),
    "budgets.samples misspelled, certify": (STRONG_RATIONAL, {"epsilon": 0.1, "budgets": {"sample": 10}}, "certify"),
    "pinned_words, build": (SANOV, {"pinned_words": [[1, 2]]}, "build-semigroup"),
    "budgets.radius, analyze": (SANOV, {"budgets": {"radius": 3}}, "analyze"),
    "sample_budget outside budgets, certify": (STRONG_RATIONAL, {"epsilon": 0.1, "sample_budget": 1200}, "certify"),
    "budgets a list, analyze": (SANOV, {"budgets": [1200]}, "analyze"),
}

# (config overrides, the key the error must name): values no number conversion accepts,
# and keys that name no field
FIELD_FAULTS = {
    "n null": ({"n": None}, "n"),
    "target_delta a string": ({"target_delta": "small"}, "target_delta"),
    "epsilon null": ({"epsilon": None}, "epsilon"),
    "radius a string": ({"radius": "seven"}, "radius"),
    "radius infinite": ({"radius": math.inf}, "radius"),
    "cone half_angle null": ({"cone": {"axis": [1, -1], "half_angle": None}}, "cone.half_angle"),
    "n_min null": ({"n_min": None}, "n_min"),
    "width a list": ({"width": [2]}, "width"),
    "samples null": ({"budgets": {"samples": None}}, "budgets.samples"),
    "nodes a string": ({"budgets": {"nodes": "many"}}, "budgets.nodes"),
    "seed null": ({"seed": None}, "seed"),
    "shadow_radius a string": ({"shadow_radius": "one"}, "shadow_radius"),
    "gap_tol null": ({"gap_tol": None}, "gap_tol"),
    "retries a string": ({"retries": "five"}, "retries"),
    "retries misspelled": ({"retires": 0}, "retires"),
    "budgets.samples misspelled": ({"budgets": {"sample": 10, "radius": 3}}, "budgets.sample"),
    "pinned_words": ({"pinned_words": [[1, 2]]}, "pinned_words"),
    "budgets.radius": ({"budgets": {"radius": 3}}, "budgets.radius"),
    "sample_budget outside budgets": ({"sample_budget": 1200}, "sample_budget"),
}


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def base_config(tmp_path, gens_obj, **overrides):
    gens_path = write_json(tmp_path / "gens.json", gens_obj)
    cfg = {
        "generators_path": gens_path,
        "n": 2,
        "target_delta": 0.05,
        "epsilon": 0.05,
        "radius": 8,
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
        "budgets": {"samples": 1200, "nodes": 10**7},
    }
    cfg.update(overrides)
    return write_json(tmp_path / "config.json", cfg)


class TestLoadGenerators:
    def test_exact_entries_parsed(self, tmp_path):
        path = write_json(tmp_path / "g.json", SANOV)
        gens = load_generators(path)
        assert len(gens) == 2
        assert gens[0].exact is not None

    def test_bare_matrix_list(self, tmp_path):
        path = write_json(tmp_path / "g.json", [[[1.0, 2.0], [0.0, 1.0]]])
        gens = load_generators(path)
        assert gens[0].exact is None

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_generators(str(path))

    def test_non_unimodular_rejected(self, tmp_path):
        path = write_json(tmp_path / "g.json", [[[2.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(ConfigError):
            load_generators(path)


class TestAnalyze:
    def test_sanov_growth_report(self, tmp_path):
        cfg = PipelineConfig.from_json_file(base_config(tmp_path, SANOV))
        report = cmd_analyze(cfg)
        assert report["delta_hat"] > 0
        assert os.path.exists(tmp_path / "out" / "growth.csv")
        assert os.path.exists(tmp_path / "out" / "cone.csv")
        assert os.path.exists(tmp_path / "out" / "report.json")

    def test_config_gap_tol_reaches_the_limit_cone_sample(self, tmp_path):
        # every Sanov word's eigenvalue-moduli gap is far below 100
        cfg = PipelineConfig.from_json_file(base_config(tmp_path, SANOV, radius=5, gap_tol=100))
        report = cmd_analyze(cfg)
        assert report["kappa_direction_samples"] > 0
        assert report["lambda_direction_samples"] == 0

    def test_cli_exit_codes(self, tmp_path):
        cfg_path = base_config(tmp_path, SANOV)
        assert cli_main(["analyze", "--config", cfg_path]) == 0

        bad = tmp_path / "broken.json"
        bad.write_text("{oops")
        assert cli_main(["analyze", "--config", str(bad)]) == 2

        assert cli_main(["analyze"]) == 2  # missing --config

    @pytest.mark.parametrize("fault", sorted(CONFIG_FAULTS))
    def test_cli_config_faults_exit_2(self, tmp_path, capsys, fault):
        gens, overrides, command = CONFIG_FAULTS[fault]
        cfg_path = base_config(tmp_path, gens, **overrides)
        assert cli_main([command, "--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault", sorted(FIELD_FAULTS))
    def test_cli_conversion_faults_name_their_field(self, tmp_path, capsys, fault):
        overrides, key = FIELD_FAULTS[fault]
        cfg_path = base_config(tmp_path, SANOV, **overrides)
        assert cli_main(["build-semigroup", "--config", cfg_path]) == 2
        assert f"bad pipeline config: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("analyze", ["--radius", "0"]),
            ("certify", ["--epsilon", "0.1", "--exact-check", "1"]),
            ("certify", ["--epsilon", "1.5"]),
        ],
    )
    def test_cli_flag_faults_exit_2(self, tmp_path, command, flags):
        cfg_path = base_config(tmp_path, STRONG_RATIONAL)
        assert cli_main([command, "--config", cfg_path, *flags]) == 2

    def test_budget_exit(self, tmp_path):
        cfg_path = base_config(tmp_path, SANOV, radius=14, budgets={"nodes": 500})
        assert cli_main(["analyze", "--config", cfg_path]) == 3


class TestCertifyCommand:
    def test_strong_pair_passes(self, tmp_path):
        gens_path = write_json(tmp_path / "g.json", STRONG_RATIONAL)
        code = cli_main(
            ["certify", "--generators", gens_path, "--epsilon", "0.1",
             "--exact-check", "6", "--out", str(tmp_path / "cert")]
        )
        assert code == 0
        cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
        assert cert["verdict"] == "pass"
        assert cert["exact_crosscheck"]["collisions"] == 0

    def test_exact_check_needs_exact_entries(self, tmp_path, capsys):
        gens_path = write_json(tmp_path / "g.json", FLOAT_STRONG)
        code = cli_main(
            ["certify", "--generators", gens_path, "--epsilon", "0.1", "--exact-check", "8"]
        )
        assert code == 2
        assert "exact entries" in capsys.readouterr().err

    def test_epsilon_outside_unit_interval_exits_2(self, tmp_path, capsys):
        gens_path = write_json(tmp_path / "g.json", STRONG_RATIONAL)
        assert cli_main(["certify", "--generators", gens_path, "--epsilon", "1.5"]) == 2
        assert "epsilon must be in (0, 1)" in capsys.readouterr().err

    def test_config_settings_reach_the_certificate(self, tmp_path):
        cfg_path = base_config(
            tmp_path, STRONG_RATIONAL, epsilon=0.1, exact_check=8, budgets={"samples": 1000}
        )
        assert cli_main(["certify", "--config", cfg_path, "--out", str(tmp_path / "cert")]) == 0
        cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
        assert cert["exact_crosscheck"]["max_len"] == 8
        assert [c["samples"] for c in cert["per_generator"]] == [1000, 1000]
        # both generators have Jordan gap 2 log 148 ~ 10, short of this gap_tol
        cfg_path = base_config(tmp_path, STRONG_RATIONAL, epsilon=0.1, gap_tol=20.0)
        assert cli_main(["certify", "--config", cfg_path]) == 1

    def test_generator_with_its_square_fails(self, tmp_path, capsys):
        d = 148.0
        g = [[d, 0], [0, 1 / d]]
        g2 = [[d * d, 0], [0, 1 / (d * d)]]
        gens_path = write_json(tmp_path / "g.json", [g, g2])
        code = cli_main(["certify", "--generators", gens_path, "--epsilon", "0.1"])
        assert code == 1
        assert "shadow_disjointness" in capsys.readouterr().out

    def test_rotation_fails_loxodromy(self, tmp_path, capsys):
        c, s = math.cos(0.3), math.sin(0.3)
        gens_path = write_json(
            tmp_path / "g.json", [[[148.0, 0], [0, 1 / 148]], [[c, -s], [s, c]]]
        )
        code = cli_main(["certify", "--generators", gens_path, "--epsilon", "0.1"])
        assert code == 1
        assert "NotLoxodromic" in capsys.readouterr().out


class TestBuildSemigroup:
    def test_sanov_terminates_honestly(self, tmp_path):
        cfg_path = base_config(tmp_path, SANOV, radius=8)
        code = cli_main(["build-semigroup", "--config", cfg_path])
        assert code in (0, 4)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["outcome"] in ("pass", "search exhausted")
        assert report["rounds"], "at least one search round must be recorded"

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg_path = base_config(tmp_path, SANOV, radius=7)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        c1 = cli_main(["build-semigroup", "--config", cfg_path, "--out", str(out1), "--seed", "9"])
        c2 = cli_main(["build-semigroup", "--config", cfg_path, "--out", str(out2), "--seed", "9"])
        assert c1 == c2

        def scrubbed(p):
            d = json.loads((p / "report.json").read_text())
            d.pop("generated_at")
            return json.dumps(d, sort_keys=True)

        assert scrubbed(out1) == scrubbed(out2)

    def test_absurd_target_delta_exhausts(self, tmp_path):
        cfg_path = base_config(tmp_path, SANOV, radius=7, target_delta=10.0)
        assert cli_main(["build-semigroup", "--config", cfg_path]) == 4

    def test_duplicate_generators_never_certify(self, tmp_path):
        dup = {"n": 2, "generators": [SANOV["generators"][0], SANOV["generators"][0]]}
        cfg_path = base_config(tmp_path, dup, radius=7)
        code = cli_main(["build-semigroup", "--config", cfg_path])
        assert code == 4

    def test_certificate_revalidates_when_passing(self, tmp_path):
        cfg_path = base_config(tmp_path, SANOV, radius=8)
        cfg = PipelineConfig.from_json_file(cfg_path)
        try:
            cert, report = cmd_build_semigroup(cfg)
        except SearchExhausted:
            pytest.skip("desk-scale search exhausted; revalidation covered elsewhere")
        loaded = FreenessCertificate.from_dict(
            json.loads((tmp_path / "out" / "certificate.json").read_text())
        )
        assert loaded.recheck_verdict() == "pass"


class TestConfigValidation:
    def test_explicit_anchor_epsilon_bound(self, tmp_path):
        cfg_path = base_config(
            tmp_path,
            SANOV,
            epsilon=0.2,
            anchor_x={"frame": [[1, 0], [0, 1]]},
            anchor_y={"frame": [[1, 0], [0, 1]]},
        )
        assert cli_main(["build-semigroup", "--config", cfg_path]) == 2

    def test_auto_anchor_epsilon_bound_exhausts(self, tmp_path, capsys):
        # the Sanov auto anchors have margin ~1, so epsilon 0.2 is past margin/8
        cfg_path = base_config(tmp_path, SANOV, epsilon=0.2, radius=4)
        assert cli_main(["build-semigroup", "--config", cfg_path]) == 4
        out, err = capsys.readouterr()
        assert "search exhausted" in out and "/8" in out
        assert "Traceback" not in out + err

    def test_missing_required_field(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"n": 2})
        with pytest.raises(ConfigError, match="generators_path: missing"):
            PipelineConfig.from_json_file(path)

    def test_config_must_be_an_object(self):
        with pytest.raises(ConfigError, match="must be JSON objects"):
            PipelineConfig.from_dict([REQUIRED])

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = PipelineConfig.from_dict(REQUIRED)
        # dataclass equality compares field for field
        assert cfg == PipelineConfig(**REQUIRED)
        assert cfg.radius == 8
