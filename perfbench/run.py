"""slnlab benchmark: one workload per invocation, outputs checked, metrics printed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload runs in a fresh Python process with
one BLAS/OpenMP thread and ``src`` on its path, between set-up-only probes of the
same process, two before and two after. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The full
result, with the digest of the scrubbed outputs, goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``; outputs stay under
``perfbench/out/``. See perfbench/README.md.
"""

import argparse
from fractions import Fraction
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from tracing import PER_LAYER_METRICS
from workload import REF_NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RESULTS = os.path.join(HERE, "results")
# four probes and the measured process stay within 180 s together
CHILD_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 12

# Every round takes one to three seconds, so a 20-s run holds eight or more rounds
# (see README.md). One build takes 1.5 s at radius 7, 7.5 s at radius 8 and 40 s
# at radius 9.
SANOV_RADIUS = 7
SANOV = [
    {"matrix": [[1, 2], [0, 1]], "exact": [["1", "2"], ["0", "1"]]},
    {"matrix": [[1, 0], [2, 1]], "exact": [["1", "0"], ["2", "1"]]},
]
# The acceptance-criterion-9 config. Its seed is fixed, not taken from --seed: the
# build fails the same way on every input, and a kept failure must not depend on it.
SANOV_BUILD_CONFIG = {
    "n": 2,
    "target_delta": 0.05,
    "epsilon": 0.05,
    "radius": SANOV_RADIUS,
    "seed": 42,
    "budgets": {"samples": 1200, "nodes": 10**7},
}
STRONG_EPSILON = 0.1
CROSSCHECK_LEN = 13
SL3_A = [[1, 1, 0], [1, 2, 1], [0, 1, 2]]
SL3_B = [[2, 0, 1], [1, 1, 1], [1, 0, 1]]
SL3 = {
    "ball_radius": 4,
    "self_R": 1e-3,
    "ray_R": 1.0,
    "far_targets": 4,
    "random_flags": 40,
    "random_R": 1.0,
    # Round pair k draws its random flags and calibration seed from input set k (mod
    # the pool), so a run averages over several sets and its time depends little on
    # which flags one seed happens to give
    "input_sets": 32,
    # A^10 contracts at epsilon 0.1 with a wide margin, so the calibration certifies
    # on the first try for every seed
    "calibration_power": 10,
    "calibration_epsilon": 0.1,
    "calibration_radii": [0.25, 1.0, 4.0],
    "calibration_probes": 8,
}


def _rel(path):
    return os.path.relpath(path, ROOT)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def _strong_pair():
    """d = diag(148, 1/148) and s d s^-1 for the rotation s by atan2(3, 4), exactly."""
    d = [[Fraction(148), Fraction(0)], [Fraction(0), Fraction(1, 148)]]
    s = [[Fraction(4, 5), Fraction(-3, 5)], [Fraction(3, 5), Fraction(4, 5)]]
    s_inv = [[s[1][1], -s[0][1]], [-s[1][0], s[0][0]]]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    pair = [d, mul(mul(s, d), s_inv)]
    return [
        {"matrix": [[float(x) for x in row] for row in m], "exact": [[str(x) for x in row] for row in m]}
        for m in pair
    ]


def _haar_frames(rng, n, count):
    """Haar-distributed orthogonal frames: sign-fixed QR of Gaussian matrices."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    signs = np.sign(np.einsum("bii->bi", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def _int_power(m, k):
    out = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    for _ in range(k):
        out = [[sum(out[i][t] * m[t][j] for t in range(len(m))) for j in range(len(m))] for i in range(len(m))]
    return out


def make_inputs(workload, seed, run_dir):
    """Write the workload's input files and return the spec of its process."""
    gens_path = os.path.join(run_dir, "generators.json")
    if workload in ("sanov-build", "sanov-analyze"):
        _write_json(gens_path, {"n": 2, "generators": SANOV})
        config = dict(SANOV_BUILD_CONFIG, generators_path=_rel(gens_path))
        command = "build-semigroup"
        if workload == "sanov-analyze":
            config["seed"] = seed  # analyze draws no random numbers; the seed only names the run
            command = "analyze"
        config_path = os.path.join(run_dir, "config.json")
        _write_json(config_path, config)
        spec = {"kind": "cli", "config": _rel(config_path), "argv": [command, "--config", _rel(config_path)],
                "expected_exits": [0], "check_config": config, "reference": "interpreter"}
        if workload == "sanov-build":
            spec["kept_fault_exits"] = [4]
        return spec
    if workload == "strong-certify":
        _write_json(gens_path, {"n": 2, "generators": _strong_pair()})
        argv = ["certify", "--generators", _rel(gens_path), "--epsilon", str(STRONG_EPSILON),
                "--seed", str(seed), "--exact-check", str(CROSSCHECK_LEN)]
        # the crosscheck's big-integer work follows the host's state as the big-integer
        # loop does, not as the interpreter loop does (see README.md)
        return {"kind": "cli", "generators": _rel(gens_path), "argv": argv, "expected_exits": [0],
                "reference": "bigint"}
    inputs = dict(SL3, seed=seed, generators=[SL3_A, SL3_B],
                  calibration_element=_int_power(SL3_A, SL3["calibration_power"]))
    rng = np.random.default_rng(seed)
    inputs["input_sets"] = [
        {"frames": _haar_frames(rng, 3, SL3["random_flags"]).tolist(),
         "calibration_seed": int(rng.integers(2**31))}
        for _ in range(SL3["input_sets"])
    ]
    inputs_path = os.path.join(run_dir, "inputs.json")
    _write_json(inputs_path, inputs)
    return {"kind": "library", "inputs": _rel(inputs_path), "check_inputs": inputs, "reference": "interpreter"}


WORKLOADS = ("sanov-build", "sanov-analyze", "strong-certify", "sl3-shadows")


def run_checks(workload, run_dir, spec, outcomes):
    exit_codes = [code for o in outcomes for code in o.get("exit_codes", [])]
    if workload == "sanov-build":
        return checks.check_sanov_build(run_dir, exit_codes, spec["check_config"])
    if workload == "sanov-analyze":
        return checks.check_sanov_analyze(run_dir, exit_codes, SANOV_RADIUS)
    if workload == "strong-certify":
        return checks.check_strong_certify(run_dir, exit_codes, STRONG_EPSILON, CROSSCHECK_LEN)
    return checks.check_sl3(run_dir, spec["check_inputs"])


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(spec_path, result_path, log_path, timeout, setup_only=False):
    """Start one workload process, wait for it, and return (result, seconds to ready)."""
    argv = [sys.executable, os.path.join(HERE, "workload.py"), spec_path, result_path]
    if setup_only:
        argv.append("--setup-only")
    with open(log_path, "a") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"workload process exceeded {timeout} s; see {_rel(log_path)}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RuntimeError(f"workload process exited {code}; see {_rel(log_path)}")
    with open(result_path) as fh:
        result = json.load(fh)
    return result, result["ready"] - start


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated benchmark still stops the workload process it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "slnlab", "__init__.py")):
        print(f"no slnlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(RESULTS, exist_ok=True)
    spec = make_inputs(args.workload, args.seed, run_dir)
    spec.update(workload=args.workload, seconds=args.seconds, trace=args.trace, run_dir=_rel(run_dir))
    spec_path = os.path.join(run_dir, "spec.json")
    _write_json(spec_path, spec)
    log_path = os.path.join(run_dir, "workload.log")

    def probe(i):
        return _run_child(spec_path, os.path.join(run_dir, f"probe{i}.json"), log_path, PROBE_TIMEOUT_S, True)

    # set-up is sampled twice before and twice after the measured process, so that
    # one slow moment of the machine does not set the median
    try:
        processes = [probe(0), probe(1)]
        measured = _run_child(spec_path, os.path.join(run_dir, "result.json"), log_path, CHILD_TIMEOUT_S)
        processes += [measured, probe(2), probe(3)]
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    result = measured[0]
    # (scaled, raw): each set-up at the speed of the passes its own process made after it
    setup = [(raw * REF_NOMINAL_S / statistics.mean(r["setup_reference_s"]), raw) for r, raw in processes]

    errors = result["errors"] + run_checks(args.workload, run_dir, spec, result["outcomes"])
    if args.trace:
        metrics = {key: {"value": result["layers"][key], "unit": unit} for key, unit in PER_LAYER_METRICS}
    else:
        m = result["metrics"]
        metrics = {
            "ref_wall_s": {"value": m["ref_wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(scaled for scaled, _ in setup), "unit": "s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
            "ref_ops_per_s": {"value": m["ref_ops_per_s"], "unit": "1/s"},
        }
    line = {"correct": not errors, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    _write_json(os.path.join(RESULTS, name + ".json"), {
        **line,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "errors": errors,
        "digest": checks.digest(os.path.join(run_dir, "r0")),
        "outputs": _rel(os.path.join(run_dir, "r0")),
        "setup_samples_s": [raw for _, raw in setup],
        "setup_scaled_s": [scaled for scaled, _ in setup],
        "wall_s": result["wall_s"],
        "reference_s": result["reference_s"],
        "rounds": result["rounds"],
        "layers": result.get("layers"),
    })
    for e in errors[:20]:
        print(f"check failed: {e}")
    print(f"{args.workload} unscaled: mean round {result['wall_s']:.6g} s, median set-up "
          f"{statistics.median(raw for _, raw in setup):.6g} s, mean reference pass "
          f"{result['reference_s']:.6g} s")
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
