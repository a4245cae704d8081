"""Benchmark of the shadowing package: one workload per invocation.

    python3 bench/run.py --workload doubling-estimate --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout, never from an installed copy. With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run. A
results file with the machine facts and every sample is written under
``.bench_out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchstats import (REFERENCE_KERNEL_S, calibrate, calibration_kernel,
                        denominator_bits, highest_supported_percentile,
                        metric_problems, percentile)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 7
SETUP_CHILD = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].configure()
print("ready", flush=True)
"""


def setup_seconds(name: str) -> float:
    """Start a fresh interpreter that imports the package and builds the
    workload's config and system; seconds from launch until it is ready."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child for {name} failed")
    return elapsed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def git_sha(root: Path):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_facts() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run_plain(wl, seed: int, seconds: float, work: Path,
              setup_runs: int = SETUP_RUNS) -> dict:
    """The untraced run: reference, timed loop with checks, set-up samples."""
    work.mkdir(parents=True, exist_ok=True)
    state = wl.prepare(seed, work)
    ref_trials, problems = wl.reference(state)

    # A calibration kernel runs before the first timed call and after each
    # one; every timed call is rescaled by the kernels on either side.
    def kernel():
        return calibration_kernel(wl.kernel)

    kernels = [kernel()]
    start = time.perf_counter()
    wl.once(state)
    once_s = time.perf_counter() - start
    kernels.append(kernel())
    latencies, setups = [], []
    trials = failed = 0
    paused = 0.0
    start = time.perf_counter()
    while True:
        # Set-up children are spread evenly over the loop, so that their
        # median meets the machine's slow and fast stretches as the
        # requests do; the loop does not count their time. The next
        # request gets a fresh kernel.
        if len(setups) < setup_runs and (time.perf_counter() - start - paused
                                         >= len(setups) * seconds / setup_runs):
            s0 = time.perf_counter()
            setups.append(setup_seconds(wl.name))
            kernels[-1] = kernel()
            paused += time.perf_counter() - s0
            continue
        k = len(latencies)
        wl.before(state, k)
        t0 = time.perf_counter()
        result = wl.request(state, k)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        trials += wl.trials_of(result)
        failed += wl.check(state, k, result)
        kernels.append(kernel())
        if (t1 - start - paused >= seconds and len(setups) == setup_runs
                and len(latencies) >= wl.min_requests):
            break
    reference_s = REFERENCE_KERNEL_S[wl.kernel]
    cal_once, *cal_latencies = calibrate([once_s] + latencies, kernels,
                                         reference_s)
    # A child's import time does not follow the kernels next to it, but it
    # follows the machine's slower drift, so set-up is rescaled by the mean
    # kernel of the whole run (see README).
    setup_s = statistics.median(setups)
    cal_setup_s = setup_s * reference_s / statistics.fmean(kernels)

    if problems:
        failed += ref_trials
    attempted = trials + ref_trials
    ms = [1e3 * x for x in cal_latencies]
    raw_ms = [1e3 * x for x in latencies]
    metrics = {
        "trials_per_s": (trials / (sum(cal_latencies) + cal_once), "1/s"),
        "request_ms_p50": (percentile(ms, 50), "ms"),
        "request_ms_p90": (percentile(ms, 90), "ms"),
        "setup_s": (cal_setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_share": (1 - failed / attempted, "share"),
    }
    raw = {"trials_per_s": trials / (sum(latencies) + once_s),
           "request_ms_p50": percentile(raw_ms, 50),
           "request_ms_p90": percentile(raw_ms, 90),
           "setup_s": setup_s}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics,
            "uncalibrated": raw,
            "samples": {"requests": len(latencies), "trials": trials,
                        "highest_supported_percentile":
                            highest_supported_percentile(len(ms)),
                        "request_ms": ms, "raw_request_ms": raw_ms,
                        "kernel_s": kernels, "setup_s": setups,
                        "once_s": once_s}}


def run_traced(wl, seed: int, seconds: float, work: Path) -> dict:
    """The traced run: each request once plain and once with the package's
    layer functions wrapped in spans, both at one worker; where the
    workload uses a pool, a larger request at one worker and through the
    pool, for the pool's efficiency."""
    from shadowing import generate, trial_stream

    from layers import layer_metrics
    from probes import Counters, traced_package
    from spans import Tracer

    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    counters = Counters()
    state = wl.prepare(seed, work)
    ref_trials, problems = wl.reference(state)
    wl.once(state, tracer)
    deadline = time.perf_counter() + seconds
    attempted = failed = k = 0
    while time.perf_counter() < deadline or k == 0:
        wl.before(state, k)
        t0 = time.perf_counter()
        wl.request(state, k)
        counters.plain_s += time.perf_counter() - t0
        if wl.pool_workers > 1:
            t0 = time.perf_counter()
            wl.request(state, k, workers=1, trials=wl.pool_trials)
            t1 = time.perf_counter()
            wl.request(state, k, workers=wl.pool_workers,
                       trials=wl.pool_trials)
            counters.pool_t1_s += t1 - t0
            counters.pool_s += time.perf_counter() - t1
            counters.pool_workers = wl.pool_workers
        with traced_package(tracer, counters), \
                tracer.span(wl.request_span, f"{wl.request_span}{k}") as req:
            result = wl.request(state, k)
        counters.traced_s += req.duration
        counters.trials += wl.trials_of(result)
        counters.cap_errors += wl.errors_of(result)
        attempted += wl.trials_of(result)
        failed += wl.check(state, k, result)
        k += 1

    system, y0, d, horizons = wl.curve(state)
    curve = {}
    for n in horizons:
        per_step, bits = [], 0
        for rep in range(3 if n <= 10_000 else 1):
            with tracer.span("curve", f"curve{n}/{rep}") as sp:
                traj = generate(system, y0, d, n,
                                trial_stream(seed, 10_000_000 + rep))
            sp.counts["steps"] = n
            per_step.append(1e6 * sp.duration / n)
            bits = max(bits, denominator_bits(traj.points[-1]))
        curve[n] = {"us_per_step": statistics.median(per_step),
                    "last_point_bits": bits}

    tracer.write(work / "spans.jsonl")
    if problems:
        failed += ref_trials
    return {"attempted": attempted + ref_trials, "failed": failed,
            "problems": problems,
            "metrics": layer_metrics(tracer, counters, curve),
            "samples": {"requests": k, "trials": counters.trials,
                        "curve": curve, "spans": len(tracer.spans)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's shipped seed)")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shadowing" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shadowing
    if Path(shadowing.__file__).resolve().parent != SRC / "shadowing":
        print("error: shadowing imported from outside the checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.shipped_seed if args.seed is None else args.seed
    if seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / wl.name / f"seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    run = run_traced if args.trace else run_plain
    out = run(wl, seed, args.seconds, work)
    bad = [p for name, (_, unit) in out["metrics"].items()
           for p in metric_problems(name, unit)]
    if bad:
        raise RuntimeError("; ".join(bad))

    results = {"workload": wl.name, "seed": seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine_facts(), **out}
    (work / "results.json").write_text(
        json.dumps(results, indent=2, sort_keys=True, default=str) + "\n")
    for problem in out["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
