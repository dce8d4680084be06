"""The repository's benchmark: four simulator workloads, timed on the host.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 11 --seconds 28 --trace 0

Each repetition is a fresh interpreter (``worker.py``) that imports
``repro``, builds the workload, simulates it and checks its outputs;
repetitions continue until ``--seconds`` is used up. With ``--trace 0``
the last line of standard output is a JSON object carrying every
end-to-end metric over the repetitions, host times in reference seconds
(``clock.py``) and all as medians; with ``--trace 1``
it carries every per-layer metric from one run under cProfile. The lines
before it give each timing's quartiles and run count, the run manifest,
and the digest of the simulated outputs.

Simulated results are deterministic. Every repetition must produce the
same outputs: the digest committed in ``digests.json`` for this workload,
seed and scale when there is one, otherwise the first repetition's.
A repetition that raises, fails a check or differs counts as a failed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import REFERENCE_LOOP_S, reference_loop

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
WORKLOAD_NAMES = ("table1", "figure5", "tiered-storm", "fleet-failover")
#: Fewest repetitions behind a metric, however short ``--seconds`` is.
MIN_REPS = 3
#: Largest share of the profiled time that may go unattributed to a layer.
#: cProfile counts the time of a generator expression that a builtin
#: iterates (``set.update(genexpr)``, as in the gossip merge) in the
#: builtin's cumulative time but in no function's self time: about 5% of
#: ``fleet-failover`` and under 2% of the other workloads.
TILING_TOLERANCE = 0.10
CHILD_TIMEOUT_S = 150

#: The end-to-end metrics of the JSON result: host measurements.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "requests_per_s": "1/s",
    "cpu_us_per_request": "us",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics of the simulated outputs. They are exact and part of
#: the digest every run is checked against, so they are printed but carry
#: no bound.
EXACT_UNITS = {"sim_reliability": "ratio", "sim_rtt_p99_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    # A fixed hash seed keeps set and dict layouts, and so host timings,
    # alike from run to run; the self-tests show outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, args) -> tuple[float, dict | None, str]:
    """Run ``worker.py`` once: (host seconds, its result or None, stderr)."""
    command = [
        sys.executable,
        str(WORKER),
        "--mode",
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
    ]
    started = time.perf_counter()
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, None, f"{mode} run timed out"
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return wall, None, completed.stderr[-2000:]
    return wall, json.loads(lines[-1]), completed.stderr[-2000:]


def calibration_ms() -> float:
    """The reference loop's median time; a slow or noisy host shows up here."""
    return statistics.median(reference_loop()[0] for _ in range(101)) * 1000


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def source_sha256() -> str:
    """A revision fingerprint of ``src/`` that needs no git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def committed_outputs(args) -> dict | None:
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    return digests.get(args.workload, {}).get(args.scale, {}).get(str(args.seed))


def repetitions(args, mode: str, budget_s: float, minimum: int):
    """Run plain or profiled repetitions until the time budget is spent.

    A repetition starts only if the median one so far would still end
    inside the budget, so a run lasts about ``budget_s``.
    """
    started = time.perf_counter()
    walls: list[float] = []
    runs = []
    while len(runs) < minimum or (
        time.perf_counter() - started + statistics.median(walls) <= budget_s
    ):
        wall, result, stderr = run_child(mode, args)
        walls.append(wall)
        runs.append((wall, result, stderr))
    return runs


def judge(runs, expected: dict | None) -> tuple[list[dict], list[str]]:
    """The runs that completed, each marked ``ok``, and a line per failed run.

    A run that completed but failed a check still yields timings: a
    result with ``correct: false`` says more than no result.
    """
    completed, failures = [], []
    for index, (wall, result, stderr) in enumerate(runs):
        if result is None:
            failures.append(f"run {index}: raised: {stderr.strip()[-500:]}")
            continue
        if expected is None:
            expected = result["outputs"]
        problems = list(result["problems"])
        if result["outputs"] != expected:
            problems.append(f"outputs {result['outputs']} differ from {expected}")
        if problems:
            failures.append(f"run {index}: " + "; ".join(problems))
        completed.append(dict(result, wall_s=wall, ok=not problems))
    return completed, failures


def reference_seconds(completed: list[dict], key: str) -> float:
    """The simulation phase in reference seconds (see ``clock.py``).

    Span ``i`` holds the same simulated work in every repetition, so its
    time in reference loops is a sample of one quantity; the median over
    the repetitions, summed over the spans, is the whole phase.
    """
    spans = zip(*(run[key] for run in completed))
    return REFERENCE_LOOP_S * sum(statistics.median(span) for span in spans)


def end_to_end(completed: list[dict]) -> dict[str, tuple[float, list[float]]]:
    """Each metric's reported value, and its raw value in every repetition."""
    requests = completed[0]["outputs"]["requests"]
    setup = REFERENCE_LOOP_S * statistics.median(run["setup_loops"] for run in completed)
    simulation = reference_seconds(completed, "span_loops")
    cpu = reference_seconds(completed, "span_cpu_loops")
    return {
        "wall_s": (setup + simulation, [run["setup_s"] + run["sim_s"] for run in completed]),
        "setup_s": (setup, [run["setup_s"] for run in completed]),
        "requests_per_s": (
            requests / simulation,
            [requests / run["sim_s"] for run in completed],
        ),
        "cpu_us_per_request": (
            cpu * 1e6 / requests,
            [run["sim_cpu_s"] * 1e6 / requests for run in completed],
        ),
        "peak_rss_mb": (
            statistics.median(run["maxrss_kb"] / 1024 for run in completed),
            [run["maxrss_kb"] / 1024 for run in completed],
        ),
    }


def per_layer(traced: dict, untraced: list[dict], jobs: dict) -> dict[str, tuple[float, str]]:
    layers = traced["layers"]
    counters = traced["counters"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (value, unit)
    untraced_wall = statistics.median(run["wall_s"] for run in untraced)
    untraced_sim = reference_seconds(untraced, "span_loops")
    events = traced["events"]
    metrics["simulation.events"] = (events, "count")
    metrics["simulation.us_per_event"] = (untraced_sim * 1e6 / events, "us")
    for name in (
        "transport.exchanges",
        "services.executions",
        "wsbus.mediations",
        "wsbus.retries",
        "wsbus.dead_letters",
        "resilience.breaker_transitions",
        "resilience.rejections",
        "traffic.leveled",
        "traffic.idempotency_recorded",
        "observability.spans_started",
        "observability.spans_exported",
        "observability.slo_events",
        "federation.gossip_records",
        "federation.forwarded_events",
        "federation.leader_changes",
        "federation.failovers",
    ):
        metrics[name] = (counters.get(name, 0), "count")
    attempts = layers["wsbus.delivery_attempts"]
    metrics["wsbus.useful_ratio"] = (
        counters.get("wsbus.delivered", 0) / attempts if attempts else 0.0,
        "ratio",
    )
    lookups = counters.get("traffic.cache_hits", 0) + counters.get("traffic.cache_misses", 0)
    metrics["traffic.cache_hit_ratio"] = (
        counters.get("traffic.cache_hits", 0) / lookups if lookups else 0.0,
        "ratio",
    )
    metrics["experiments.jobs2_speedup"] = (jobs["jobs1_s"] / jobs["jobs2_s"], "x")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / untraced_wall, "x")
    attributed = sum(value for name, value in layers.items() if name.endswith(".self_s"))
    metrics["trace.total_s"] = (traced["traced_s"], "s")
    metrics["trace.unattributed_share"] = (1 - attributed / traced["traced_s"], "ratio")
    return metrics


def manifest(args, runs: int, calibration: tuple[float, float]) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "runs": runs,
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "calibration_ms_before": calibration[0],
        "calibration_ms_after": calibration[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke: reduced sizes for the benchmark's self-tests",
    )
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    _wall, warmed, stderr = run_child("import", args)
    if warmed is None:
        print(f"the program does not import:\n{stderr}", file=sys.stderr)
        return 2
    expected = committed_outputs(args)
    before = calibration_ms()
    if args.trace:
        runs = repetitions(args, "profile", 0, 1)
        jobs_wall, jobs, jobs_stderr = run_child("jobs", args)
        spent = sum(wall for wall, _result, _stderr in runs) + jobs_wall
        runs += repetitions(args, "plain", args.seconds - spent, 1)
    else:
        runs = repetitions(args, "plain", args.seconds, MIN_REPS)
    after = calibration_ms()
    completed, failures = judge(runs, expected)
    failed_runs = len(runs) - sum(run["ok"] for run in completed)
    if args.trace:
        traced = next((run for run in completed if "layers" in run), None)
        untraced = [run for run in completed if "layers" not in run]
        if traced is None or not untraced or jobs is None:
            print(f"the traced, untraced or jobs run raised:\n{jobs_stderr}", file=sys.stderr)
            return 1
        failures += jobs["problems"]
        metrics = per_layer(traced, untraced, jobs)
        unattributed = metrics["trace.unattributed_share"][0]
        if abs(unattributed) > TILING_TOLERANCE:
            failures.append(f"layer self times leave {unattributed:.1%} of the profile unattributed")
        lines = [f"{name}: {value!r} {unit}" for name, (value, unit) in metrics.items()]
    else:
        if not completed:
            print("no run completed", file=sys.stderr)
            return 1
        if not all(run["span_loops"] for run in completed):
            print("a run timed no span of its simulation:\n" + "\n".join(failures), file=sys.stderr)
            return 1
        metrics, lines = {}, []
        for name, (value, values) in end_to_end(completed).items():
            q1, median, q3 = quartiles(values)
            unit = END_TO_END_UNITS[name]
            lines.append(
                f"{name}: {value!r} {unit} (raw, per repetition: median={median!r} "
                f"q1={q1!r} q3={q3!r} n={len(values)})"
            )
            metrics[name] = (value, unit)
    print("manifest: " + json.dumps(manifest(args, len(runs), (before, after)), sort_keys=True))
    for line in failures:
        print(f"FAILED {line}")
    outputs = completed[0]["outputs"]
    print(f"outputs ({'committed' if expected else 'first run'}): {json.dumps(outputs, sort_keys=True)}")
    for name, unit in EXACT_UNITS.items():
        print(f"{name}: {outputs[name]!r} {unit}")
    print(f"failed_run_share: {failed_runs / len(runs)!r} ratio ({failed_runs} of {len(runs)} runs)")
    for line in lines:
        print(line)
    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": failed_runs,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
