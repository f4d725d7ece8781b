"""The workload process: set up one workload, run whole rounds of it, write results.

run.py starts this script in a fresh interpreter, once per set-up probe and once
for the measured run:

    python3 perfbench/workload.py SPEC_JSON RESULT_JSON [--setup-only]

Set-up ends when slnlab is imported and the workload's inputs are loaded; the
process then writes the clock reading ``ready`` (CLOCK_MONOTONIC, comparable with
the parent's), then times passes of the reference loop, which runs no slnlab code,
to scale its set-up time by. A measured run repeats one round, always the same
operations, in pairs until ``seconds`` have passed. Both rounds of pair k take
input set k (only sl3-shadows has more than one), and round i writes its outputs
to ``r{i % 2}`` under the run directory, so the last two rounds can be compared.
During each untraced round a timer signal runs a pass of the workload's reference
loop every 0.2 s. With
``trace`` set, untraced and traced rounds alternate on the first input set and the
result carries per-layer metrics instead of end-to-end ones.
"""

from fractions import Fraction
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np

# The host's speed drifts by up to 1.9x, within a round and from run to run, so the
# run measures it alongside the work: every REF_INTERVAL_S of an untraced round a
# SIGALRM handler times one pass of the workload's reference loop. Each round's
# time, less those passes, is divided by their mean time and quoted at REF_NOMINAL_S
# per pass, about either loop's time when the host is in its fast state, so that
# scaled times read as raw times do in that state (see README.md).
REF_INTERVAL_S = 0.2
REF_NOMINAL_S = 0.006
# passes timed right after set-up, to scale the set-up time by
SETUP_REF_PASSES = 24
_REF_MATRIX = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])


def reference_work():
    """Fixed work in the program's mix of interpreter loops, Fraction arithmetic,
    dict traffic and small numpy decompositions; it runs no slnlab code."""
    for _ in range(3):
        acc = 0
        for i in range(3000):
            acc += (i * i) % 7
        f = Fraction(1)
        for i in range(1, 60):
            f = f * Fraction(i + 1, i) + Fraction(1, i * i)
        table = {}
        for i in range(2000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + 1
        for i in range(40):
            m = _REF_MATRIX + i * 1e-6
            np.linalg.svd(m)
            np.linalg.eigvals(m)
    return acc, f, len(table)


def _mul2(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


# s diag(148, 1/148) s^-1 for the rotation s by atan2(3, 4), as in the strong pair
_ROT = [[Fraction(4, 5), Fraction(-3, 5)], [Fraction(3, 5), Fraction(4, 5)]]
_ROT_T = [[_ROT[0][0], _ROT[1][0]], [_ROT[0][1], _ROT[1][1]]]
_STRONG = _mul2(_mul2(_ROT, [[Fraction(148), Fraction(0)], [Fraction(0), Fraction(1, 148)]]), _ROT_T)


def reference_bigint():
    """Fixed exact work of the kind the strong pair's crosscheck does: products of 2x2
    Fraction matrices whose denominators grow as powers of 148, and big-integer
    arithmetic; it runs no slnlab code. Big-integer work slows with the host's state
    differently from the interpreter work of reference_work."""
    for _ in range(6):
        m = _STRONG
        for _ in range(12):
            m = _mul2(m, _STRONG)
        n = 3**2000
        for i in range(60):
            n = (n * 7919 + i) % (10**1500 + 7)
    return m, n


REFERENCES = {"interpreter": reference_work, "bigint": reference_bigint}


def _time_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times a reference pass every REF_INTERVAL_S of wall time between start and stop.

    The passes run in the main thread, between the program's bytecodes, so each one
    sees the host in the same moment as the work around it. ``passes`` holds
    (start, seconds) pairs.
    """

    def __init__(self, work):
        self.work = work
        self.passes = []

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.work()
        self.passes.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _cli_setup(spec):
    from slnlab import cli, pipeline

    if "config" in spec:
        config = pipeline.PipelineConfig.from_json_file(spec["config"])
        pipeline.load_generators(config.generators_path)
    else:
        pipeline.load_generators(spec["generators"])
    expected = set(spec["expected_exits"])
    kept_fault = set(spec.get("kept_fault_exits", []))

    def run_round(out_dir, input_set):
        try:
            code = cli.main([*spec["argv"], "--out", out_dir])
        except Exception:  # an uncaught error is a failed operation, reported with its traceback
            return {"exit_codes": [None], "error": traceback.format_exc(limit=3)}, [(False, False)]
        return {"exit_codes": [code]}, [(code in expected or code in kept_fault, code in kept_fault)]

    return run_round


def _sl3_setup(spec):
    import numpy as np
    from slnlab import lie, orbits, symshadow, flags

    with open(spec["inputs"]) as fh:
        inputs = json.load(fh)
    gens = [lie.GroupElement.from_exact(m) for m in inputs["generators"]]
    power = lie.GroupElement.from_exact(inputs["calibration_element"])
    input_sets = [
        ([np.asarray(f, dtype=float) for f in entry["frames"]], entry["calibration_seed"])
        for entry in inputs["input_sets"]
    ]
    ident = lie.GroupElement.identity(gens[0].n)

    def call(ops, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception:  # any exception is a failed operation, reported with its traceback
            ops.append((False, False))
            return {"error": traceback.format_exc(limit=3)}
        ops.append((True, False))
        return out

    def membership(res):
        if isinstance(res, dict):
            return res
        return {"member": res.member, "achieved": res.achieved, "minimizer": res.minimizer.coords.tolist()}

    def run_round(out_dir, input_set):
        frames, calibration_seed = input_sets[input_set % len(input_sets)]
        ops = []
        ball = orbits.enumerate_ball(gens, inputs["ball_radius"], dedup="float", include_inverses=True)
        self_queries = []
        for rec in ball:
            f = flags.Flag(rec.kak.k)
            m = call(ops, symshadow.sym_shadow_membership,
                     symshadow.SymShadowQuery(ident, rec.element, inputs["self_R"]), f)
            rb = call(ops, symshadow.ray_distance_bound, f, rec.element, inputs["ray_R"])
            self_queries.append({
                "word": list(rec.word),
                "target": rec.element.entries.tolist(),
                "frame": rec.kak.k.tolist(),
                "membership": membership(m),
                "ray_bound": rb if isinstance(rb, dict) else list(rb),
            })
        far = sorted(ball, key=lambda r: (-r.kappa.norm, r.word))[: inputs["far_targets"]]
        random_queries = []
        for i, frame in enumerate(frames):
            target = far[i % len(far)]
            m = call(ops, symshadow.sym_shadow_membership,
                     symshadow.SymShadowQuery(ident, target.element, inputs["random_R"]), flags.Flag(frame))
            random_queries.append({"word": list(target.word), "target": target.element.entries.tolist(),
                                   "frame": frame.tolist(), "membership": membership(m)})
        cal = call(ops, symshadow.calibrate_radius, power, inputs["calibration_epsilon"],
                   inputs["calibration_radii"], probe_budget=inputs["calibration_probes"],
                   seed=calibration_seed)
        data = {
            "input_set": input_set % len(input_sets),
            "calibration_seed": calibration_seed,
            "ball": len(ball),
            "self_queries": self_queries,
            "random_queries": random_queries,
            "calibration": cal if isinstance(cal, dict) else {"rows": [list(r) for r in cal[0]], "r_min": cal[1]},
        }
        with open(os.path.join(out_dir, "results.json"), "w") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
        return {}, ops

    return run_round


def main(argv):
    spec_path, result_path = argv[0], argv[1]
    with open(spec_path) as fh:
        spec = json.load(fh)
    setup = _sl3_setup if spec["kind"] == "library" else _cli_setup
    run_round = setup(spec)
    ready = time.monotonic()
    setup_reference_s = [_time_reference() for _ in range(SETUP_REF_PASSES)]
    if "--setup-only" in argv:
        with open(result_path, "w") as fh:
            json.dump({"ready": ready, "setup_reference_s": setup_reference_s}, fh)
        return 0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()

    run_dir = spec["run_dir"]
    sampler = SpeedSampler(REFERENCES[spec["reference"]])
    rounds = []  # (seconds, traced, layer metrics or None, operations completed, reference passes)
    attempted = failed = 0
    errors = []
    outcomes = []
    t_begin = time.perf_counter()
    while True:
        i = len(rounds)
        traced = tracer is not None and i % 2 == 1
        out_dir = os.path.join(run_dir, f"r{i % 2}")
        os.makedirs(out_dir, exist_ok=True)
        if traced:
            lo = tracer.start_round()
            tracer.install()
        else:
            sampler.start()
        t0 = time.perf_counter()
        try:
            # both rounds of a pair take the same inputs; a traced run keeps to the first
            # set, so that its traced rounds repeat their counts
            outcome, ops = run_round(out_dir, i // 2 if tracer is None else 0)
        finally:
            t1 = time.perf_counter()
            if traced:
                tracer.uninstall()
            else:
                sampler.stop()
        passes = [dt for start, dt in sampler.passes if t0 <= start < t1]
        layer = tracer.metrics(lo) if traced else None
        rounds.append((t1 - t0 - sum(passes), traced, layer, sum(ok for ok, _ in ops), passes))
        outcomes.append(outcome)
        for ok, kept_fault in ops:
            attempted += 1
            failed += (not ok) or kept_fault
        if not all(ok for ok, _ in ops):
            errors.append(f"round {i}: {sum(not ok for ok, _ in ops)} operations raised or exited unexpectedly")
        # whole pairs of rounds, so the last two rounds took the same inputs
        if time.perf_counter() - t_begin >= spec["seconds"] and len(rounds) % 2 == 0:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [(dt, passes) for dt, t, _, _, passes in rounds if not t]
    wall = statistics.mean(dt for dt, _ in untraced)
    every_pass = [p for _, passes in untraced for p in passes]
    result = {
        "ready": ready,
        "setup_reference_s": setup_reference_s,
        "rounds": [{"seconds": dt, "traced": t, "completed": c, "reference_s": passes}
                   for dt, t, _, c, passes in rounds],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "outcomes": outcomes,
        "wall_s": wall,
        "reference_s": statistics.mean(every_pass),
    }
    if tracer is None:
        # each round against the passes made during it; every round lasts several
        # REF_INTERVAL_S, so none is without passes
        ref_wall = REF_NOMINAL_S * statistics.mean(dt / statistics.mean(passes) for dt, passes in untraced)
        result["metrics"] = {
            "ref_wall_s": ref_wall,
            "peak_rss_mb": peak_rss_mb,
            "ref_ops_per_s": statistics.median(r[3] for r in rounds) / ref_wall,
        }
    else:
        traced_rounds = [(dt, layer) for dt, t, layer, _, _ in rounds if t]
        layer = dict(traced_rounds[0][1])
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for _, m in traced_rounds]
        if any(c != counts[0] for c in counts):
            errors.append("per-layer counts differ between traced rounds")
        for key, value in layer.items():
            if isinstance(value, float):
                layer[key] = statistics.median(m[key] for _, m in traced_rounds)
        layer["trace.overhead_s"] = statistics.mean(dt for dt, _ in traced_rounds) - wall
        result["layers"] = layer
        tracer.save(os.path.join(run_dir, "spans.npz"))
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
