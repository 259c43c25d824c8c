"""Benchmark of hawkesfeed: three seeded workloads, end-to-end metrics, and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload fit-sim --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it name every metric with its unit, the checks, the workload
and the machine.  A failed check makes the exit code 1.
"""

import os

# Pinned before numpy loads: the benchmark measures one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

from spans import LAYERS, Tracer, percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOAD_NAMES = ("fit-sim", "replay-dense", "rankers-text")

# Inputs of the reference gate, checked against reference.json on every run.
GATE_SEED = 2015

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

STAGE_UNITS = {
    "simulate_s": "s", "fit_s": "s", "loglik_s": "s", "replay_cps": "comments/s",
    "rank_ms_p50": "ms", "rank_ms_p99": "ms", "compare_s": "s",
}

# name -> (unit, better); every one is reported on every workload, as 0
# where the workload bypasses the layer.
PER_LAYER = {
    "simulate.corpus_s": ("s", "lower"),
    "simulate.comments_per_s": ("comments/s", "higher"),
    "simulate.truncated": ("count", "lower"),
    "likelihood.loglik_s": ("s", "lower"),
    "likelihood.gradient_s": ("s", "lower"),
    "likelihood.excitation_pairs": ("count", "lower"),
    "fit.iterations": ("count", "lower"),
    "fit.converged": ("flag", "higher"),
    "fit.s_per_iter": ("s", "lower"),
    "fit.nonzero_weights": ("count", "lower"),
    "core.intensity_us_p50": ("us", "lower"),
    "core.intensity_us_p99": ("us", "lower"),
    "rank_eval.candidates_ms_p50": ("ms", "lower"),
    "rank_eval.prioritize_ms_p50": ("ms", "lower"),
    "rank_eval.prioritize_ms_p99": ("ms", "lower"),
    "rank_eval.rank_ms_p50": ("ms", "lower"),
    "rank_eval.rank_ms_p99": ("ms", "lower"),
    "rank_eval.absorb_ms_p50": ("ms", "lower"),
    "rank_eval.absorb_ms_p99": ("ms", "lower"),
    "rank_eval.harness_s": ("s", "lower"),
    "rank_eval.candidates_mean": ("count", "lower"),
    "baselines.em_fit_s": ("s", "lower"),
    "baselines.em_iterations": ("count", "lower"),
    "baselines.em_converged": ("share", "higher"),
    "baselines.cox_fit_s": ("s", "lower"),
    "baselines.hwk_replay_s": ("s", "lower"),
    "baselines.cox_replay_s": ("s", "lower"),
    "baselines.nn_replay_s": ("s", "lower"),
    "baselines.rchr_replay_s": ("s", "lower"),
    "features.extract_s": ("s", "lower"),
    "features.annotate_s": ("s", "lower"),
    "features.pairs": ("count", "lower"),
    "features.content_events": ("count", "lower"),
    "io.write_corpus_s": ("s", "lower"),
    "io.read_corpus_s": ("s", "lower"),
    "io.corpus_bytes": ("bytes", "lower"),
    "io.read_store_s": ("s", "lower"),
    "io.write_store_s": ("s", "lower"),
    "cli.extract_features_s": ("s", "lower"),
    "cli.fit_s": ("s", "lower"),
    "cli.evaluate.HWK-ALL_s": ("s", "lower"),
    "cli.evaluate.HWK_s": ("s", "lower"),
    "cli.evaluate.COX-LNG_s": ("s", "lower"),
    "cli.evaluate.NN_s": ("s", "lower"),
    "cli.evaluate.RCHR_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "bench.trace_overhead_s": ("s", "lower"),
}


def load_package():
    """Import hawkesfeed from ./src and the workload modules beside this file."""
    sys.path.insert(0, SRC)
    import hawkesfeed

    where = os.path.dirname(os.path.abspath(hawkesfeed.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"hawkesfeed was imported from {where}, not from {SRC}")
    import workloads

    return workloads


def import_seconds(samples=7):
    """Median time to import the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import hawkesfeed; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))
    return sorted(times)[len(times) // 2]


def environment():
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": int(BLAS_THREADS),
    }


def run_workload(wl_module, name, seed, seconds, trace, size="full",
                 references=None):
    """Measure one workload; returns the result record.

    The reference gate runs first, untimed, on inputs drawn from GATE_SEED;
    it also warms every cache the timed passes use.  Timed passes then run
    on inputs drawn from `seed` until `seconds` have passed, each with its
    own set-up, timed apart.  With `trace`, every pass runs untraced and
    then traced on the same inputs.
    """
    W = wl_module
    if references is None:
        with open(REFERENCE) as fh:
            references = json.load(fh)
    seed_digests = references["corpus_digest_by_seed"][size][name]
    workload = W.WORKLOADS[name](W.SIZES[size][name])
    gate = W.WORKLOADS[name](W.SIZES["gate"][name])
    checks = W.Checks()
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    os.makedirs(OUT_DIR, exist_ok=True)
    setups, walls, traced_walls, summaries, layers = [], [], [], [], []
    descriptor = None
    spans_path = None
    error = None
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            gate_inp = gate.prepare(W.pass_seed(GATE_SEED, 0), workdir)
            gate_out = gate.run(gate_inp)
            gate.check(gate_inp, gate_out, checks)
            W.compare_reference(checks, gate.reference_values(gate_inp, gate_out),
                                references["gate"][name], gate.tolerances)
            del gate_inp, gate_out

            start = time.perf_counter()
            k = 0
            while k == 0 or time.perf_counter() - start < seconds:
                t0 = time.perf_counter()
                inp = workload.prepare(W.pass_seed(seed, k), workdir)
                t1 = time.perf_counter()
                out = workload.run(inp)
                t2 = time.perf_counter()
                setups.append(t1 - t0)
                walls.append(t2 - t1)
                workload.check(inp, out, checks)
                summaries.append(workload.summary(out))
                if k == 0:
                    recorded = seed_digests.get(str(seed))
                    if recorded is not None:
                        checks.record("reference corpus digest for this seed",
                                      workload.corpus_digest(inp) == recorded)
                    descriptor = workload.describe(inp, out, workdir)
                if trace:
                    fingerprint = workload.fingerprint(out)
                    del inp, out
                    tracer = Tracer(run_id)
                    with tracer.span("bench.setup"):
                        inp = workload.prepare(W.pass_seed(seed, k), workdir, tracer)
                    with tracer.span("bench.pass") as root:
                        out = workload.run(inp, tracer)
                    traced_walls.append(tracer.ends[root] - tracer.starts[root])
                    with tracer.span("bench.check"):
                        workload.check(inp, out, checks, tracer)
                    checks.record("traced pass reproduces the untraced outputs",
                                  workload.fingerprint(out) == fingerprint)
                    with tracer.span("bench.probe"):
                        m = workload.layer_metrics(inp, out, tracer)
                    m.update({f"{layer}.self_s": t for layer, t in
                              tracer.layer_self_times(root).items()})
                    layers.append(m)
                    if k == 0:
                        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
                        tracer.write_jsonl(spans_path)
                del inp, out
                k += 1
        except Exception:
            error = traceback.format_exc()
            checks.record("workload runs to completion", False, error.splitlines()[-1])

    result = {
        "workload": name, "seed": seed, "size": size, "trace": bool(trace),
        "passes": len(walls), "descriptor": descriptor, "checks": checks,
        "warnings": sorted({str(w.message) for w in caught}), "error": error,
        "spans_path": spans_path,
    }
    if error is not None or not walls:
        return result
    if trace:
        metrics = {key: 0.0 for key in PER_LAYER}
        for key in layers[0]:
            metrics[key] = percentile([m[key] for m in layers], 50)
        metrics["bench.trace_overhead_s"] = (
            sum(traced_walls) / len(traced_walls) - sum(walls) / len(walls))
        result["metrics"] = {k: (metrics[k], PER_LAYER[k][0]) for k in PER_LAYER}
    else:
        result["samples"] = {"wall_s": walls, "setup_s (input generation)": setups}
        values = {
            # The mean: a pass's time has two modes (its fits stop at their
            # tolerance or at their cap), which makes the median jump.
            "wall_s": sum(walls) / len(walls),
            "setup_s": import_seconds() + percentile(setups, 50),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        result["stages"] = {k: (v, STAGE_UNITS[k])
                            for k, v in workload.stage_metrics(summaries).items()}
    return result


def report(result, env, out=sys.stdout):
    """Human-readable lines, then the JSON line; returns the exit code."""
    checks = result["checks"]
    attempted, failed = checks.attempted, checks.failed
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"({'traced' if result['trace'] else 'untraced'}, "
          f"{result['passes']} timed passes)", file=out)
    print(f"# environment {json.dumps(env)}", file=out)
    print(f"# descriptor {json.dumps(result['descriptor'])}", file=out)
    for name, values in result.get("samples", {}).items():
        print(f"# samples {name} {' '.join(f'{v:.4g}' for v in values)}", file=out)
    for name, (value, unit) in result.get("metrics", {}).items():
        kind = "layer" if result["trace"] else "metric"
        print(f"{kind} {name} {value:.6g} {unit}", file=out)
    for name, (value, unit) in result.get("stages", {}).items():
        print(f"metric {name} {value:.6g} {unit}", file=out)
    print(f"metric failed_frac {failed / max(attempted, 1):.6g} ratio "
          f"({failed} failed of {attempted} attempted)", file=out)
    for name, (a, f) in sorted(checks.counts.items()):
        print(f"check {'ok  ' if f == 0 else 'FAIL'} {name} ({a - f}/{a})", file=out)
    for line in checks.failures:
        print(f"# failure {line}", file=out)
    for line in result["warnings"]:
        print(f"# warning {line}", file=out)
    if result["spans_path"]:
        print(f"# spans {os.path.relpath(result['spans_path'], ROOT)}", file=out)
    if result["error"]:
        print(result["error"], file=sys.stderr)
    correct = failed == 0 and result["error"] is None and "metrics" in result
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.get("metrics", {}).items()},
    }), file=out)
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own interpreter, one after the other, so each
    reports its own peak memory."""
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = code or done.returncode or (0 if last["correct"] else 1)
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        wl_module = load_package()
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    result = run_workload(wl_module, args.workload, args.seed, args.seconds,
                          args.trace)
    return report(result, environment())


if __name__ == "__main__":
    sys.exit(main())
