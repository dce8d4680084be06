"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about two minutes on a 2-CPU host). They drive the benchmark at reduced
size, so they check its plumbing and its output digests, not its timings.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, FleetFailoverWorkload  # noqa: E402


def run_bench(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def program_env(hash_seed: str) -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_prints_every_metric_and_matches_digest(name, trace):
    seed = WORKLOADS[name].default_seed
    completed = run_bench(
        "--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", trace, "--scale", "smoke"
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("outputs (committed)") for line in lines)
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    expected_units = {metric["name"]: metric["unit"] for metric in declared}
    printed_units = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert printed_units == expected_units


@pytest.mark.parametrize("scale", ["smoke", "full"])
@pytest.mark.parametrize("name", ["table1", "figure5"])
def test_digest_equals_cli_output(name, scale):
    """The benchmark renders exactly what ``python -m repro`` prints."""
    workload = WORKLOADS[name](WORKLOADS[name].default_seed, scale)
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *workload.cli_args()],
        cwd=ROOT,
        env=program_env("0"),
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    committed = DIGESTS[name][scale][str(workload.seed)]
    assert hashlib.sha256(completed.stdout.encode()).hexdigest() == committed["render_sha256"]


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_outputs_do_not_depend_on_hash_seed(name, hash_seed):
    seed = WORKLOADS[name].default_seed
    completed = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "worker.py"),
            "--mode", "plain", "--workload", name, "--seed", str(seed), "--scale", "smoke",
        ],
        cwd=ROOT,
        env=program_env(hash_seed),
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert result["outputs"] == DIGESTS[name]["smoke"][str(seed)]


def test_fleet_workload_is_run_fleet_storm():
    """The fleet workload builds the same world as ``run_fleet_storm``."""
    from repro.experiments import run_fleet_storm
    from repro.metrics import describe
    from repro.observability import Tracer

    workload = FleetFailoverWorkload(FleetFailoverWorkload.default_seed, "smoke")
    workload.setup()
    workload.simulate()
    durations = [record.duration for _key, record in workload.records()]
    counters = workload.counters()
    storm = run_fleet_storm(
        seed=workload.seed,
        shards=workload.SHARDS,
        partitions=workload.PARTITIONS,
        clients_per_partition=workload.clients,
        requests=workload.requests,
        tracer=Tracer(),
        slo=True,
        crash_bus="bus-0",
        crash_at=3.0,
        outage_endpoint="http://scm/retailerA",
        outage_at=1.0,
        outage_duration=4.0,
    )
    assert storm.rtt_stats == describe(durations)
    assert storm.delivered == sum(record.succeeded for _key, record in workload.records())
    assert storm.gossip_records == counters["federation.gossip_records"]
    assert storm.forwarded_events == counters["federation.forwarded_events"]
    assert storm.leader_changes == counters["federation.leader_changes"]
    assert storm.placement == {name: spec.owner for name, spec in sorted(workload.fleet.veps.items())}


def test_fails_without_the_program(tmp_path):
    """With only the benchmark's own files, it exits non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(
        "--workload", "table1", "--seed", "11", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
