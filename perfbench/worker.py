"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that every run pays
``import repro`` in a fresh interpreter and reports its own peak resident
memory. It prints one JSON object on its last line of standard output.

Modes:

- ``plain``: set up, simulate, check the outputs; host timings only.
- ``profile``: the same under cProfile, attached here from the benchmark's
  side (nothing under ``src/`` knows about it), with self time grouped by
  the ``src/repro/<package>`` defining each function.
- ``jobs``: ``regenerate_table1`` at ``jobs=1`` and then ``jobs=2``, the
  code path of ``python -m repro table1 --jobs``.
- ``import``: import the program and exit; warms the bytecode cache.
"""

import time

from clock import reference_loop

#: The reference loop just before set-up starts (see ``clock.py``).
_LOOP_BEFORE_SETUP = reference_loop()
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Packages under ``src/repro`` reported as layers of their own. Functions
#: of any other ``repro`` module (orchestration, core, persistence and the
#: top-level modules, which these workloads barely run) count as ``other``;
#: everything outside ``repro`` and the benchmark counts as ``stdlib``.
PACKAGES = (
    "simulation",
    "soap",
    "xmlutils",
    "wsdl",
    "transport",
    "services",
    "faultinjection",
    "wsbus",
    "policy",
    "resilience",
    "traffic",
    "observability",
    "federation",
    "workload",
    "experiments",
    "casestudies",
    "metrics",
)
LAYERS = PACKAGES + ("stdlib", "bench", "other")

#: Spans the simulation phase is cut into, each ending at a client reply
#: and timed against the reference loops either side of it.
SPANS = 100

#: Functions whose cumulative time is policy set-up: each SCM policy
#: document's XML round trip, and ``PolicyRepository.load``.
POLICY_LOAD = (
    ("casestudies/scm/policies.py", "_round_trip"),
    ("policy/repository.py", "load"),
)

#: Call counts read from the profile: (metric, module path, functions).
#: None of these functions is a generator, whose every resumption cProfile
#: would count as a call.
CALL_COUNTS = (
    ("xmlutils.serializations", "xmlutils/element.py", ("serialize_xml",)),
    ("wsdl.payload_builds", "wsdl/contract.py", ("build", "build_interned")),
    ("wsbus.delivery_attempts", "wsbus/bus.py", ("_send",)),
    ("policy.condition_evals", "policy/model.py", ("condition_holds",)),
)


def layer_of(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    marker = path.rfind("/src/repro/")
    if marker >= 0:
        package = path[marker + len("/src/repro/") :].partition("/")
        return package[0] if package[1] and package[0] in PACKAGES else "other"
    if os.path.dirname(os.path.abspath(filename)) == BENCH_DIR:
        return "bench"
    return "stdlib"


def profile_layers(stats: dict) -> dict:
    """Self seconds per layer, plus the profile-derived counters."""
    layers = dict.fromkeys(LAYERS, 0.0)
    counts = {name: 0 for name, _path, _functions in CALL_COUNTS}
    load_s = 0.0
    for (filename, _line, function), (_cc, calls, self_s, cumulative, _) in stats.items():
        layers[layer_of(filename)] += self_s
        path = filename.replace(os.sep, "/")
        for name, module, functions in CALL_COUNTS:
            if function in functions and path.endswith("/src/repro/" + module):
                counts[name] += calls
        for module, policy_function in POLICY_LOAD:
            if function == policy_function and path.endswith("/src/repro/" + module):
                load_s += cumulative
    result = {f"{layer}.self_s": seconds for layer, seconds in layers.items()}
    result.update(counts)
    result["policy.load_s"] = load_s
    return result


def run_workload(name: str, seed: int, scale: str, profile: bool) -> dict:
    from repro.simulation import Environment
    from workloads import WORKLOADS

    imported = time.perf_counter()
    workload = WORKLOADS[name](seed, scale)
    profiler = cProfile.Profile() if profile else None
    events_before = Environment.total_events_processed
    if profiler is not None:
        profiler.enable()
    traced_from = time.perf_counter()
    workload.setup()
    built = time.perf_counter()
    clock = workload.clock
    clock.start(workload.planned_requests(), SPANS)
    workload.simulate()
    clock.stop()
    simulated = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    outputs = workload.outputs()
    problems = workload.check()
    if clock.replies != outputs["requests"]:
        problems.append(f"the clock saw {clock.replies} of {outputs['requests']} replies")
    setup_s = built - _STARTED
    result = {
        "setup_s": setup_s,
        "setup_loops": setup_s * 2 / (_LOOP_BEFORE_SETUP[0] + clock.loop_wall[0]),
        "import_s": imported - _STARTED,
        "sim_s": sum(clock.span_wall),
        "sim_cpu_s": sum(clock.span_cpu),
        "span_loops": clock.in_loops(clock.span_wall, clock.loop_wall),
        "span_cpu_loops": clock.in_loops(clock.span_cpu, clock.loop_cpu),
        "events": Environment.total_events_processed - events_before,
        "outputs": outputs,
        "problems": problems,
        "counters": workload.counters(),
    }
    if profiler is not None:
        result["traced_s"] = simulated - traced_from
        result["layers"] = profile_layers(pstats.Stats(profiler).stats)
    return result


def run_jobs(seed: int, scale: str) -> dict:
    from repro.experiments import regenerate_table1, shutdown_pool
    from workloads import Table1Workload

    table1 = Table1Workload(seed, scale)
    arguments = dict(seeds=table1.seeds, clients=table1.clients, requests=table1.requests)
    started = time.perf_counter()
    serial = regenerate_table1(jobs=1, **arguments)
    middle = time.perf_counter()
    try:
        parallel = regenerate_table1(jobs=2, **arguments)
    finally:
        shutdown_pool()
        for child in multiprocessing.active_children():
            child.join(timeout=30)
    finished = time.perf_counter()
    problems = [] if parallel == serial else ["table1 rows differ between jobs=1 and jobs=2"]
    return {
        "jobs1_s": middle - started,
        "jobs2_s": finished - middle,
        "problems": problems,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("plain", "profile", "jobs", "import"), required=True)
    parser.add_argument("--workload", default="table1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args()
    if args.mode == "import":
        import workloads  # noqa: F401

        result: dict = {}
    elif args.mode == "jobs":
        result = run_jobs(args.seed, args.scale)
    else:
        result = run_workload(args.workload, args.seed, args.scale, args.mode == "profile")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
