"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 benchmark/run.py --workload verdict --seed 1 --seconds 30 --trace 0

Runs whole passes over the workload's operations for about --seconds
seconds (at least MIN_PASSES passes), checks every output, and prints a
line of details followed by one JSON line with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones
(pass_s, setup_s, peak_rss_mb); with --trace 1 the run wraps the
program's public functions and reports the per-layer metrics instead.
Exits with code 2, printing no result, when the program cannot be
imported from ./src.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_PROBES = 5
SETUP_REFERENCE_RUNS = 3
PROBE_TIMEOUT_S = 60


def load_program():
    """Import the package from ./src of this checkout, and nowhere else."""
    src = (ROOT / "src").resolve()
    os.environ.pop("FRACTAL_RENORM_THREADS", None)
    sys.path.insert(0, str(src))
    import fractal_renorm
    if Path(fractal_renorm.__file__).resolve().parent.parent != src:
        raise ImportError(f"fractal_renorm imported from "
                          f"{fractal_renorm.__file__}, not from {src}")
    return fractal_renorm


def prepare(name: str, seed: int):
    """Everything that must happen before the first pass can begin."""
    program = load_program()
    rng = random.Random(seed)
    workload = workloads.build(program, name, rng, OUT / f"reports-{name}")
    return program, workload, rng


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median raw and scaled time of fresh starts up to the first pass."""
    raw = []
    refs = [reference.reference_seconds(SETUP_REFERENCE_RUNS)]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready":
            raise RuntimeError(f"setup probe ended without 'ready' "
                               f"(exit {proc.returncode})")
        refs.append(reference.reference_seconds(SETUP_REFERENCE_RUNS))
        raw.append(elapsed)
    scaled = [t * reference.scale(refs, i) for i, t in enumerate(raw)]
    return statistics.median(raw), statistics.median(scaled)


def run_passes(workload, rng: random.Random, seconds: float, tracer):
    """Run whole passes; return the timing samples and the tallies.

    A reference run precedes every operation and one follows the last, so
    samples[k] = (operation index, raw seconds, index of the reference
    run just before it).
    """
    ops = workload.operations
    samples: list[tuple[int, float, int]] = []
    refs = [reference.reference_seconds(workload.reference_runs)]
    failures: list[str] = []
    errors: list[str] = []
    attempted = failed = 0
    pass_totals: list[dict] = []
    pass_refs: list[tuple[int, int]] = []
    last_totals = tracer.snapshot() if tracer else {}
    begin = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        first_ref = len(refs) - 1
        if tracer is not None:
            tracer.recording = passes == 0
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            op = ops[i]
            gc.collect()
            start = perf_counter()
            try:
                result = op.call()
            except Exception:
                result = None
                failure = f"{op.label}: raised\n{traceback.format_exc()}"
                op_errors = []
            elapsed = perf_counter() - start
            samples.append((i, elapsed, len(refs) - 1))
            refs.append(reference.reference_seconds(workload.reference_runs))
            attempted += 1
            if result is not None:
                try:
                    failure, op_errors = op.check(result)
                except Exception:
                    failure, op_errors = None, [
                        f"{op.label}: check raised\n{traceback.format_exc()}"]
            if failure is not None:
                failed += 1
                failures.append(failure)
                if not op.known_failure(failure):
                    errors.append(f"unexpected failure: {failure}")
            errors.extend(op_errors)
        passes += 1
        pass_refs.append((first_ref, len(refs)))
        if tracer is not None:
            tracer.recording = False
            totals = tracer.snapshot()
            pass_totals.append({k: v - last_totals.get(k, 0)
                                for k, v in totals.items()})
            last_totals = totals
        now = perf_counter()
        if passes >= MIN_PASSES and now - begin + (now - pass_start) > seconds:
            break
    return {
        "samples": samples, "refs": refs, "passes": passes,
        "pass_refs": pass_refs,
        "attempted": attempted, "failed": failed, "failures": failures,
        "errors": errors, "pass_totals": pass_totals,
        "measured_s": perf_counter() - begin,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program, workload, rng = prepare(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(program)
    else:
        setup_raw, setup_scaled = measure_setup(args.workload, args.seed)
    try:
        tally = run_passes(workload, rng, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = tally["errors"] + workload.finish()

    refs = tally["refs"]
    raw = [[] for _ in workload.operations]
    scaled = [[] for _ in workload.operations]
    for i, elapsed, r in tally["samples"]:
        raw[i].append(elapsed)
        scaled[i].append(elapsed * reference.scale(refs, r))
    # Means, not medians: a seconds-long operation fits only three times in
    # a run, and the median of three throws away two of them.
    per_op = []
    for op, op_raw, op_scaled in zip(workload.operations, raw, scaled):
        per_op.append({"operation": op.label,
                       "scaled_s": statistics.mean(op_scaled),
                       "raw_s": statistics.mean(op_raw),
                       "samples": len(op_raw)})
    pass_s = sum(p["scaled_s"] for p in per_op)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": tally["passes"], "measured_s": tally["measured_s"],
        "operations_per_pass": len(workload.operations),
        "pass_s": pass_s, "pass_raw_s": sum(p["raw_s"] for p in per_op),
        "reference_median_s": statistics.median(tally["refs"]),
        "reference_r0_s": reference.R0_S,
        "peak_rss_mb": peak_rss_mb, "operations": per_op,
        "failures": sorted(set(tally["failures"])),
        "errors": errors[:20],
    }
    if tracer is not None:
        scales = [reference.R0_S / statistics.median(refs[a:b])
                  for a, b in tally["pass_refs"]]
        metrics = tracing.per_pass_metrics(tally["pass_totals"], scales)
        units = tracing.per_layer_metrics()
        details["spans"] = tracer.dump(
            OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        details.update(setup_s=setup_scaled, setup_raw_s=setup_raw)
        metrics = {"pass_s": pass_s, "setup_s": setup_scaled,
                   "peak_rss_mb": peak_rss_mb}
        units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not errors,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    details["result"] = result
    details["samples"] = tally["samples"]
    details["refs"] = refs
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    summary = {k: v for k, v in details.items()
               if k not in ("operations", "result", "samples", "refs")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
