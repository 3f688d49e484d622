"""Pipeline benchmark for gunshot_bench.

    python3 bench/run.py --workload clean-cnn --seed 1 --seconds 20 --trace 0

runs one workload (or `all` of them, one after the other, in this process)
from the root of a checkout and prints each metric by name and unit, then,
as the last line for each workload, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run is traced and the metrics
are the per-layer ones, and the spans are written to .bench_out/.
The exit code is 0 when every correctness check passed.
"""

import argparse
import contextlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("clean-cnn", "clean-svm")

# name -> unit; BENCHMARK.json lists the same metrics with their bounds
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "featurize_clips_per_s": "clips/s",
    "train_s": "s",
    "infer_ms_p50": "ms",
    "infer_ms_p90": "ms",
    "test_map": "mAP",
    "peak_rss_mb": "MB",
}


def end_to_end_metrics(run):
    rounds = run.rounds
    lat_ms = [1000.0 * s for s in run.latencies]
    return {
        "setup_s": statistics.median(run.setup_s),
        "pipeline_s": statistics.median(r["pipeline_s"] for r in rounds),
        "featurize_clips_per_s": statistics.median(
            len(run.rows) * r["kinds"] / r["featurize_s"] for r in rounds),
        "train_s": statistics.median(r["train_s"] for r in rounds),
        "infer_ms_p50": statistics.median(lat_ms),
        "infer_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "test_map": run.test_map,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_one(name, seed, seconds, trace):
    import checks
    import tracing
    import workloads

    work = ROOT / ".bench_work" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(name, seed, work)
    tracer = tracing.Tracer() if trace else None
    correct, error = True, None
    try:
        if tracer is not None:
            run.tracer = tracer
            with tracer:
                workloads.run_workload(run, seconds)
        else:
            workloads.run_workload(run, seconds)
    except checks.CheckFailed as e:
        correct, error = False, f"check failed: {e}"
    except Exception as e:          # an unexpected failure of the program ends the run
        correct, error = False, f"{type(e).__name__}: {e}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if error:
        print(f"[{name}] {error}", file=sys.stderr)
        run.failed += 1
    for fault, reason in run.failures.items():
        print(f"[{name}] known fault {fault}: {reason}", file=sys.stderr)
    if correct and set(run.failures) != set(workloads.FAULTS[name]):
        correct = False
        print(f"[{name}] failed operations {sorted(run.failures)} are not the known faults "
              f"{sorted(workloads.FAULTS[name])}", file=sys.stderr)

    if not correct:
        metrics, units = {}, {}
    elif tracer is None:
        metrics, units = end_to_end_metrics(run), END_TO_END
    else:
        metrics = tracer.per_layer_metrics(len(run.rounds), len(run.setup_s))
        units = {n: u for n, u, _ in tracing.per_layer_metric_specs()}
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        traced_e2e = end_to_end_metrics(run)
        with open(out / f"trace-{name}-{seed}.json", "w", encoding="utf-8") as f:
            json.dump({"workload": name, "seed": seed, "rounds": len(run.rounds),
                       "end_to_end_traced": traced_e2e, "per_layer": metrics,
                       "spans": tracer.dump()}, f)
        print(f"[{name}] traced pipeline_s {traced_e2e['pipeline_s']:.4f} s", file=sys.stderr)

    print(f"== {name}  seed {seed}  rounds {len(run.rounds)}  "
          f"attempted {run.attempted}  failed {run.failed}")
    for key, value in metrics.items():
        print(f"  {key:<34} {value:>14.6g} {units[key]}")
    result = {
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gunshot_bench" / "cli.py").is_file():
        print(f"error: no gunshot_bench sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM unwind normally: working files are removed and a running
    # `gsb` child process is killed and waited for by subprocess.run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(n, args.seed, args.seconds, args.trace) for n in names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
