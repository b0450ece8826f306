"""Benchmark of the metaplectic package: three workloads, every answer
checked, end-to-end metrics by default and per-layer metrics with --trace 1.

    python3 bench/run.py --workload oracle-regression --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1        # all three in turn

Run from anywhere; the package is imported from src/ next to this
directory and from nowhere else.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment.  Exit code 0 when every answer was right, 1 on a
wrong answer, 2 when the package or the benchmark's data are missing.

A run repeats passes over the workload's request list until --seconds
have passed, and always completes at least one pass: `run_s` is the time
of a whole verified pass.  See bench/README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import cpuclock  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 4  # set-ups in child processes, besides the run's own
MIN_LATENCY_SAMPLES = 120
SHORT_REQUEST_S = 0.1
COLD_START_RUNS = 15
COLD_START_ARGV = ("hilbert", "pi", "pi", "--p", "3")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")


def setup(workload: str, seed: int):
    """Imports, inputs and warm-up; returns (L, expected, requests, interval)."""
    start = time.perf_counter()
    L = wl.load_layers(ROOT)
    expected = wl.load_expected()
    requests, warm = wl.make_requests(workload, seed, L, expected)
    run_pass(workload, warm, L, expected)
    return L, expected, requests, (start, time.perf_counter())


def run_pass(workload, requests, L, expected, tracer=None):
    """One pass over the requests; returns (pass interval, request
    intervals, failed count).  Intervals are perf_counter() pairs."""
    execute = wl.runner(workload)
    intervals = []
    failed = 0
    start = time.perf_counter()
    for k, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = k + 1
        t = time.perf_counter()
        try:
            outcome = execute(req, L, expected)
        except wl.WrongAnswer:
            raise
        except Exception as exc:  # a request that raises counts as failed
            print(f"request {req!r} raised {exc!r}", file=sys.stderr)
            outcome = "failed"
        intervals.append((t, time.perf_counter()))
        failed += outcome == "failed"
    return (start, time.perf_counter()), intervals, failed


def cold_starts(expected) -> list:
    """Intervals of fresh processes running `metaplectic hilbert pi pi --p 3`."""
    want = expected["cli"][wl.request_key(COLD_START_ARGV, None)]
    cmd = [
        sys.executable,
        "-c",
        "import sys; from metaplectic.cli import main; sys.exit(main())",
        *COLD_START_ARGV,
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    intervals = []
    for _ in range(COLD_START_RUNS):
        t = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=60)
        intervals.append((t, time.perf_counter()))
        if proc.returncode != want["exit"] or wl.digest(proc.stdout) != want["stdout_sha256"]:
            raise wl.WrongAnswer(f"cold-start run gave exit {proc.returncode}: {proc.stdout!r}")
    return intervals


def setup_samples(workload: str, seed: int) -> list:
    """Set-up times (wall, reference) of fresh processes."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise wl.SetupError(f"set-up child failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        out.append((sample["wall_s"], sample["setup_s"]))
    return out


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile (0 < q < 100).

    A Beta-weighted mean of all order statistics: where the samples fall
    into clusters (oracle-regression: a few cells of very different
    sizes), it moves smoothly instead of jumping to whichever sample holds
    the exact rank.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz method)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - betainc(b, a, 1.0 - x)
    tiny = 1e-300

    def guard(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 10_000):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / guard(1.0 + aa * d)
            c = guard(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    return math.exp(log_front) * h / a


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(args, clock, L, expected, requests, setup_interval):
    """Passes until --seconds have gone by, then cold starts and set-ups.
    Returns {name: (reference value, wall value, unit)}, attempted, failed."""
    passes, latencies, failed = [], [], 0
    start = time.perf_counter()
    while True:
        interval, lat, bad = run_pass(args.workload, requests, L, expected)
        passes.append(interval)
        latencies += lat
        failed += bad
        if time.perf_counter() - start >= args.seconds:
            break
    # Percentiles of a few dozen single samples jump from run to run, so a
    # workload whose passes give fewer than MIN_LATENCY_SAMPLES latencies
    # (oracle-regression: 29 a pass) repeats its short requests, outside
    # run_s, until it has them.
    short = [req for req, (a, b) in zip(requests, latencies) if b - a < SHORT_REQUEST_S]
    while short and len(latencies) < MIN_LATENCY_SAMPLES:
        _, lat, bad = run_pass(args.workload, short, L, expected)
        latencies += lat
        failed += bad
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    starts = cold_starts(expected)
    setups = setup_samples(args.workload, args.seed)
    clock.stop()

    def both(intervals):
        return (
            [clock.ref_seconds(a, b) for a, b in intervals],
            [b - a for a, b in intervals],
        )

    pass_ref, pass_wall = both(passes)
    lat_ref, lat_wall = both(latencies)
    start_ref, start_wall = both(starts)
    setup_ref = [clock.ref_seconds(*setup_interval)] + [r for _, r in setups]
    setup_wall = [setup_interval[1] - setup_interval[0]] + [w for w, _ in setups]
    success = 1 - failed / len(latencies)
    metrics = {
        "run_s": (statistics.median(pass_ref), statistics.median(pass_wall), "s"),
        "setup_s": (statistics.median(setup_ref), statistics.median(setup_wall), "s"),
        "latency_p50_ms": (
            percentile(lat_ref, 50) * 1000, percentile(lat_wall, 50) * 1000, "ms"
        ),
        "latency_p90_ms": (
            percentile(lat_ref, 90) * 1000, percentile(lat_wall, 90) * 1000, "ms"
        ),
        "cold_start_ms": (
            statistics.median(start_ref) * 1000, statistics.median(start_wall) * 1000, "ms"
        ),
        "peak_rss_mb": (peak_rss_mb, peak_rss_mb, "MB"),
        "success_ratio": (success, success, "ratio"),
    }
    print(
        f"{len(requests)} requests per pass; passes (wall s): "
        + " ".join(f"{b - a:.3f}" for a, b in passes),
        file=sys.stderr,
    )
    return metrics, len(latencies), failed


def per_layer(args, clock, L, expected, requests):
    """One untraced pass, then one traced pass.  Layer times are wall
    seconds; the overhead ratio compares the passes in reference seconds."""
    untraced, lat, failed = run_pass(args.workload, requests, L, expected)
    tracer = tracing.Tracer(vars(L))
    proxies = tracer.install()
    try:
        tracer.reset()
        traced, traced_lat, traced_failed = run_pass(
            args.workload, requests, proxies, expected, tracer
        )
        wall = tracer.finish()
    finally:
        tracer.uninstall()
    clock.stop()
    overhead = clock.ref_seconds(*traced) / clock.ref_seconds(*untraced) - 1
    metrics = {name: (v, v, unit) for name, (v, unit) in tracer.layer_metrics().items()}
    metrics["trace.run_s"] = (wall, wall, "s")
    wall_overhead = (traced[1] - traced[0]) / (untraced[1] - untraced[0]) - 1
    metrics["trace.overhead_ratio"] = (overhead, wall_overhead, "ratio")
    write_spans(args, tracer)
    return metrics, len(lat) + len(traced_lat), failed + traced_failed


def write_spans(args, tracer) -> None:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "fields": ["id", "parent", "request", "layer", "start", "end"],
                "dropped": tracer.spans_dropped,
                "spans": tracer.spans,
            },
            fh,
        )
    print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            correct = False
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            merged[f"{workload}.{name}"] = m
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    env = environment(args)  # before the clock pins the process to one CPU
    clock = cpuclock.CpuClock()
    try:
        with clock:
            L, expected, requests, setup_interval = setup(args.workload, args.seed)
            if args.setup_only:
                clock.stop()
                print(json.dumps({
                    "setup_s": clock.ref_seconds(*setup_interval),
                    "wall_s": setup_interval[1] - setup_interval[0],
                }))
                return 0
            if args.trace:
                metrics, attempted, failed = per_layer(args, clock, L, expected, requests)
            else:
                metrics, attempted, failed = end_to_end(
                    args, clock, L, expected, requests, setup_interval
                )
    except (wl.SetupError, OSError) as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return 2
    except wl.WrongAnswer as err:
        print(f"WRONG ANSWER: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    print(f"{'metric':28s} {'reference':>14s} {'wall':>14s}", file=sys.stderr)
    for name, (value, wall, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {wall:14.6f} {unit}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": v, "unit": unit} for name, (v, _, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
