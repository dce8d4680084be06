"""The benchmark's four workloads, built from the public ``repro`` API.

Each workload splits into the two phases the benchmark times apart:
``setup()`` builds every deployment, policy document (each SCM document
is XML round-tripped by its builder), ``PolicyRepository.load``, bus and
VEP the workload needs; ``simulate()`` then runs every simulated client
to completion. ``outputs()`` renders what a user of the program reads
(Table 1 rows, Figure 5 series, a storm or fleet summary) and lists every
client request's outcome and simulated round-trip time; ``counters()``
reads the counters the program already exposes.

All clients are closed-loop: a client sends its next request only after
the reply (or fault) to its previous one plus a fixed think time.

``table1`` and ``figure5`` rebuild the cells of ``python -m repro table1``
and ``figure5`` with set-up and simulation separated. Their rendered
output must hash to the same digest as that command's standard output run
with :meth:`cli_args` (checked by ``test_perfbench.py``), which is what
proves the benchmark runs the program its users run.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from repro.casestudies.scm import (
    RETAILER_CONTRACT,
    build_scm_deployment,
    federation_policy_document,
    resilience_policy_document,
    retailer_recovery_policy_document,
    slo_policy_document,
    tracing_policy_document,
    traffic_policy_document,
)
from repro.experiments import catalog_plan, order_plan, render_figure5, render_table1
from repro.faultinjection import BusCrashInjector
from repro.federation import BusFleet
from repro.metrics import describe, mean, reliability_report
from repro.observability import InMemoryExporter, MetricsRegistry, Tracer
from repro.policy import PolicyRepository
from repro.services import ProcessingModel
from repro.workload import WorkloadRunner
from repro.wsbus import WsBus

from clock import SpanClock

FULL = "full"
#: ``smoke`` is the reduced size the self-tests run.
SCALES = (FULL, "smoke")


class ClockedRunner(WorkloadRunner):
    """A ``WorkloadRunner`` that reports every client reply to a clock.

    Each client's invoker gets one more observer; what is simulated does
    not change.
    """

    def __init__(self, env, network, clock: SpanClock) -> None:
        super().__init__(env, network)
        self._clock = clock

    def _client_loop(self, invoker, plan, client_id, requests):
        invoker.add_observer(self._clock.mark)
        return super()._client_loop(invoker, plan, client_id, requests)


class Workload:
    """One benchmark workload at one seed and scale."""

    name = ""
    #: The seed whose outputs the program's own defaults produce.
    default_seed = 0

    def __init__(self, seed: int, scale: str = FULL) -> None:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}")
        self.seed = seed
        #: (cell key, requests per client, clients, WorkloadResult) per cell.
        self.results: list[tuple[tuple, int, int, object]] = []
        self.deployments: list = []
        self.buses: list[WsBus] = []
        self.tracers: list[Tracer] = []
        self.exporters: list[InMemoryExporter] = []
        self.registries: list[MetricsRegistry] = []
        #: Told of every client reply while :meth:`simulate` runs.
        self.clock = SpanClock()

    def setup(self) -> None:
        raise NotImplementedError

    def simulate(self) -> None:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def planned_requests(self) -> int:
        """Client requests :meth:`simulate` issues."""
        raise NotImplementedError

    def required_counters(self) -> tuple[str, ...]:
        """Counters that must be non-zero, or the workload stopped
        exercising the layer it was chosen for."""
        return ()

    # -- outputs ---------------------------------------------------------------

    def records(self):
        for key, _requests, _clients, result in self.results:
            for record in result.records:
                yield key, record

    def outputs(self) -> dict:
        """Digests of the simulated outputs, plus the exact summary values."""
        records_hash = hashlib.sha256()
        durations = []
        delivered = 0
        for key, record in self.records():
            fault = record.fault_code.value if record.fault_code is not None else ""
            records_hash.update(
                f"{key}|{record.caller}|{record.operation}|{record.outcome.value}|"
                f"{fault}|{record.started_at!r}|{record.finished_at!r}\n".encode()
            )
            durations.append(record.duration)
            delivered += record.succeeded
        rendered = self.render()
        return {
            "render_sha256": hashlib.sha256((rendered + "\n").encode()).hexdigest(),
            "records_sha256": records_hash.hexdigest(),
            "requests": len(durations),
            "sim_reliability": delivered / len(durations),
            "sim_rtt_p99_s": describe(durations)["p99"],
        }

    def check(self) -> list[str]:
        """Exactly one outcome per request, and every declared tier worked."""
        problems = []
        for key, requests, clients, result in self.results:
            per_caller = Counter(record.caller for record in result.records)
            if len(result.records) != clients * requests:
                problems.append(
                    f"{key}: {len(result.records)} records for {clients} clients "
                    f"x {requests} requests"
                )
            if len(per_caller) != clients or set(per_caller.values()) != {requests}:
                problems.append(f"{key}: outcomes per client {dict(per_caller)}")
        counters = self.counters()
        for name in self.required_counters():
            if not counters.get(name):
                problems.append(f"tier counter {name} is {counters.get(name)!r}")
        return problems

    def counters(self) -> dict[str, float]:
        """Work counts the program exposes, summed over the workload."""
        counts: Counter = Counter()
        for deployment in self.deployments:
            network = deployment.network
            for address in network.addresses:
                endpoint = network.endpoint(address)
                counts["transport.exchanges"] += (
                    endpoint.requests_handled + endpoint.requests_refused
                )
            for service in deployment.container.services.values():
                counts["services.executions"] += service.invocations
            counts["traffic.idempotency_recorded"] += deployment.container.idempotency.stats()[
                "recorded"
            ]
        for bus in self.buses:
            summary = bus.stats_summary()
            for stats in summary["veps"].values():
                counts["wsbus.mediations"] += stats["requests"]
                counts["wsbus.delivered"] += stats["successes"] - stats["cache_hits"]
                counts["traffic.cache_hits"] += stats["cache_hits"]
                counts["traffic.leveled"] += stats["leveled"]
                counts["resilience.rejections"] += stats["shed"]
            counts["wsbus.retries"] += summary["retry_queue"]["attempted"]
            counts["wsbus.dead_letters"] += summary["dead_letters"]
            counts["resilience.breaker_transitions"] += len(bus.resilience.transitions)
            counts["resilience.rejections"] += bus.resilience.fail_fast_total
            for cache in summary.get("traffic", {}).get("caches", {}).values():
                counts["traffic.cache_misses"] += cache["misses"]
            counts["observability.slo_events"] += len(bus.slo.events)
        for tracer in self.tracers:
            # ``simulate`` closes the tracer, which finishes every open span.
            counts["observability.spans_started"] += tracer.finished_count
        for exporter in self.exporters:
            counts["observability.spans_exported"] += len(exporter.spans)
        for registry in self.registries:
            metrics = registry.snapshot().get("counters", {})
            counts["federation.gossip_records"] += metrics.get("federation.gossip.records", 0)
            counts["federation.forwarded_events"] += metrics.get(
                "federation.events.forwarded", 0
            )
            counts["federation.leader_changes"] += metrics.get("federation.leader.changes", 0)
            counts["federation.failovers"] += metrics.get("federation.vep.moved", 0)
        return dict(counts)

    def cli_args(self) -> list[str] | None:
        """``python -m repro`` arguments printing :meth:`render`, if any."""
        return None


class Table1Workload(Workload):
    """The paper's Table 1 matrix: direct Retailers A–D and the VEP."""

    name = "table1"
    default_seed = 11

    def __init__(self, seed: int, scale: str = FULL) -> None:
        super().__init__(seed, scale)
        # Seed 11 gives the CLI's default seeds 11/23/47.
        self.seeds = (seed, seed + 12, seed + 36)
        self.clients, self.requests = (4, 250) if scale == FULL else (2, 40)
        self._cells: list = []
        self._rows: dict = {}

    def cli_args(self) -> list[str]:
        return [
            "table1",
            "--seeds",
            *map(str, self.seeds),
            "--clients",
            str(self.clients),
            "--requests",
            str(self.requests),
        ]

    def setup(self) -> None:
        # The order of ``run_cells``: cells sorted by (configuration, seed).
        for retailer in ("A", "B", "C", "D"):
            for seed in self.seeds:
                deployment = build_scm_deployment(seed=seed, log_events=False)
                deployment.inject_table1_mix()
                self.deployments.append(deployment)
                plan = catalog_plan(deployment.retailers[retailer].address)
                self._cells.append(((retailer, seed), deployment, plan))
        for seed in self.seeds:
            deployment = build_scm_deployment(seed=seed, log_events=False)
            deployment.inject_table1_mix()
            repository = PolicyRepository()
            repository.load(retailer_recovery_policy_document(max_retries=3, retry_delay_seconds=2.0))
            bus = WsBus(
                deployment.env,
                deployment.network,
                repository=repository,
                registry=deployment.registry,
                member_timeout=5.0,
            )
            vep = bus.create_vep(
                "retailers",
                RETAILER_CONTRACT,
                members=deployment.retailer_addresses,
                selection_strategy="round_robin",
            )
            self.deployments.append(deployment)
            self.buses.append(bus)
            self._cells.append((("VEP", seed), deployment, catalog_plan(vep.address, timeout=60.0)))

    def simulate(self) -> None:
        per_seed = {}
        for key, deployment, plan in self._cells:
            runner = ClockedRunner(deployment.env, deployment.network, self.clock)
            result = runner.run(plan, clients=self.clients, requests_per_client=self.requests)
            self.results.append((key, self.requests, self.clients, result))
            configuration, _seed = key
            if configuration == "VEP":
                report = reliability_report("wsBus VEP", result.records)
                availability = report.availability
            else:
                # Availability is observed over a long tail after the
                # workload, as in ``run_direct_configuration``.
                deployment.env.run(until=deployment.env.now + 50_000.0)
                deployment.availability_injector.finalize()
                address = deployment.retailers[configuration].address
                log = deployment.availability_injector.logs[address]
                report = reliability_report(f"direct {configuration}", result.records)
                availability = log.availability(deployment.env.now)
            per_seed[key] = (report.failures_per_1000, availability)
        # Averaged over seeds as ``regenerate_table1`` does.
        for configuration in ("A", "B", "C", "D", "VEP"):
            runs = [per_seed[(configuration, seed)] for seed in self.seeds]
            self._rows[configuration] = (
                mean([failures for failures, _availability in runs]),
                mean([availability for _failures, availability in runs]),
            )

    def planned_requests(self) -> int:
        return len(self._cells) * self.clients * self.requests

    def render(self) -> str:
        return render_table1(self._rows)


class Figure5Workload(Workload):
    """The paper's Figure 5 sweep: RTT versus request size, direct and
    through a tier-less VEP, for ``getCatalog`` and ``submitOrder``."""

    name = "figure5"
    default_seed = 21
    SIZES_KB = (1, 2, 4, 8, 16, 32, 64)
    OPERATIONS = ("getCatalog", "submitOrder")
    CLIENTS = 2

    def __init__(self, seed: int, scale: str = FULL) -> None:
        super().__init__(seed, scale)
        self.requests = 60 if scale == FULL else 10
        self._cells: list = []
        self._points: dict = {}

    def cli_args(self) -> list[str] | None:
        # The CLI sweeps at its fixed seed only.
        if self.seed != self.default_seed:
            return None
        return ["figure5", "--requests", str(self.requests)]

    def setup(self) -> None:
        keys = [
            (operation, size_kb, mode)
            for operation in self.OPERATIONS
            for size_kb in self.SIZES_KB
            for mode in ("direct", "bus")
        ]
        for key in sorted(keys):
            operation, size_kb, mode = key
            deployment = build_scm_deployment(seed=self.seed, log_events=False)
            target = deployment.retailers["C"].address
            if mode == "bus":
                # Client-side deployment, as in ``run_rtt_point``.
                bus = WsBus(
                    deployment.env,
                    deployment.network,
                    repository=PolicyRepository(),
                    registry=deployment.registry,
                    member_timeout=30.0,
                    colocated_with_clients=True,
                )
                vep = bus.create_vep(
                    "retailers", RETAILER_CONTRACT, members=[target], selection_strategy="primary"
                )
                self.buses.append(bus)
                target = vep.address
            make_plan = catalog_plan if operation == "getCatalog" else order_plan
            plan = make_plan(target, timeout=30.0, think=0.0, padding=size_kb * 1024)
            self.deployments.append(deployment)
            self._cells.append((key, deployment, plan))

    def simulate(self) -> None:
        for key, deployment, plan in self._cells:
            runner = ClockedRunner(deployment.env, deployment.network, self.clock)
            result = runner.run(plan, clients=self.CLIENTS, requests_per_client=self.requests)
            self.results.append((key, self.requests, self.CLIENTS, result))
            self._points[key] = result.rtt_stats()["mean"]

    def planned_requests(self) -> int:
        return len(self._cells) * self.CLIENTS * self.requests

    def render(self) -> str:
        series = {
            operation: (
                [self._points[(operation, size, "direct")] for size in self.SIZES_KB],
                [self._points[(operation, size, "bus")] for size in self.SIZES_KB],
            )
            for operation in self.OPERATIONS
        }
        return render_figure5(series, sizes_kb=self.SIZES_KB)


def _summary_lines(pairs) -> str:
    return "\n".join(f"{name}: {value!r}" for name, value in pairs)


class TieredStormWorkload(Workload):
    """One bus under the fault storm with every optional tier on at once.

    Cacheable ``getCatalog`` reads run beside unique, idempotency-keyed
    ``submitOrder`` writes against the same VEP. The SLO reaction keeps
    round-robin selection (and tightens the breakers): switching to
    ``best_reliability`` would route everything to the one healthy
    Retailer, and the breakers would then never see a failure to trip on.
    """

    name = "tiered-storm"
    default_seed = 7

    def __init__(self, seed: int, scale: str = FULL) -> None:
        super().__init__(seed, scale)
        self.clients, self.requests = (8, 150) if scale == FULL else (4, 60)
        self._plans: list = []

    def required_counters(self) -> tuple[str, ...]:
        return (
            "resilience.breaker_transitions",
            "traffic.cache_hits",
            "traffic.leveled",
            "traffic.idempotency_recorded",
            "observability.spans_exported",
            "observability.slo_events",
        )

    def setup(self) -> None:
        deployment = build_scm_deployment(seed=self.seed, log_events=False)
        deployment.inject_fault_storm()
        repository = PolicyRepository()
        repository.load(
            retailer_recovery_policy_document(
                max_retries=1, retry_delay_seconds=0.5, jitter_fraction=0.5, max_delay_seconds=2.0
            )
        )
        repository.load(resilience_policy_document())
        repository.load(slo_policy_document(strategy="round_robin"))
        repository.load(traffic_policy_document())
        repository.load(tracing_policy_document(sample_rate=0.1))
        tracer = Tracer()
        exporter = tracer.add_exporter(InMemoryExporter())
        metrics = MetricsRegistry()
        bus = WsBus(
            deployment.env,
            deployment.network,
            repository=repository,
            registry=deployment.registry,
            random_source=deployment.random_source,
            member_timeout=5.0,
            tracer=tracer,
            metrics=metrics,
        )
        vep = bus.create_vep(
            "retailers",
            RETAILER_CONTRACT,
            members=deployment.retailer_addresses,
            selection_strategy="round_robin",
        )
        self.deployments.append(deployment)
        self.buses.append(bus)
        self.tracers.append(tracer)
        self.exporters.append(exporter)
        self.registries.append(metrics)
        self._plans = [
            catalog_plan(vep.address, timeout=8.0, think=0.5),
            order_plan(vep.address, timeout=8.0, think=0.5),
        ]

    def simulate(self) -> None:
        deployment = self.deployments[0]
        runner = ClockedRunner(deployment.env, deployment.network, self.clock)
        result = runner.run_many(
            self._plans, clients_per_plan=self.clients, requests_per_client=self.requests
        )
        self.tracers[0].close()
        self.results.append((("storm",), self.requests, 2 * self.clients, result))

    def planned_requests(self) -> int:
        return len(self._plans) * self.clients * self.requests

    def render(self) -> str:
        bus = self.buses[0]
        return _summary_lines(
            [
                ("breaker_transitions", bus.resilience.transition_log()),
                ("vep", bus.stats_summary()["veps"]),
                ("traffic", bus.traffic.summary()),
                ("slo_events", len(bus.slo.events)),
                ("idempotency", self.deployments[0].container.idempotency.stats()),
                ("spans_exported", len(self.exporters[0].spans)),
            ]
        )


class FleetFailoverWorkload(Workload):
    """A 4-shard fleet losing its leader bus during a member outage.

    The same scenario as ``run_fleet_storm`` with ``slo=True``, a bus
    crash and an outage window, plus a tracer keeping every span in
    memory. Bus ``bus-0`` is the first leader and owns partitions, so its
    crash forces leader transfer and VEP failover on every seed.
    """

    name = "fleet-failover"
    default_seed = 7
    SHARDS = 4
    PARTITIONS = 6

    def __init__(self, seed: int, scale: str = FULL) -> None:
        super().__init__(seed, scale)
        self.clients, self.requests = (6, 120) if scale == FULL else (2, 30)
        self.fleet: BusFleet | None = None
        self._plans: list = []

    def required_counters(self) -> tuple[str, ...]:
        return (
            "federation.gossip_records",
            "federation.failovers",
            "federation.forwarded_events",
            "observability.spans_exported",
        )

    def setup(self) -> None:
        deployment = build_scm_deployment(seed=self.seed, log_events=False)
        for retailer in deployment.retailers.values():
            retailer.processing = ProcessingModel(
                base_seconds=0.08, per_kb_seconds=0.0, jitter_fraction=0.1
            )
        tracer = Tracer()
        exporter = tracer.add_exporter(InMemoryExporter())
        repository = PolicyRepository()
        repository.load(retailer_recovery_policy_document(max_retries=1, retry_delay_seconds=0.25))
        repository.load(
            federation_policy_document(
                heartbeat_interval_seconds=0.5,
                suspicion_multiplier=3.0,
                gossip_interval_seconds=1.0,
                gossip_fanout=1,
                lease_seconds=3.0,
            )
        )
        repository.load(
            slo_policy_document(
                window_seconds=60.0,
                fast_window_seconds=8.0,
                slow_window_seconds=16.0,
                fast_burn_threshold=4.0,
                slow_burn_threshold=1.5,
                evaluation_interval_seconds=1.0,
                min_requests=3,
            )
        )
        metrics = MetricsRegistry()
        fleet = BusFleet(
            deployment.env,
            deployment.network,
            shards=self.SHARDS,
            repository=repository,
            registry=deployment.registry,
            random_source=deployment.random_source,
            member_timeout=5.0,
            mediation_capacity=6,
            tracer=tracer,
            metrics=metrics,
        )
        for index in range(self.PARTITIONS):
            vep = fleet.create_vep(
                f"retailers-p{index}",
                RETAILER_CONTRACT,
                members=deployment.retailer_addresses,
                selection_strategy="best_response_time",
            )
            self._plans.append(catalog_plan(vep.address, timeout=8.0, think=0.05))
        BusCrashInjector(deployment.env, fleet, "bus-0", 3.0)
        outage = deployment.network.fault_injection_target("http://scm/retailerA")

        def outage_window():
            yield deployment.env.timeout(1.0)
            outage.available = False
            yield deployment.env.timeout(4.0)
            outage.available = True

        deployment.env.process(outage_window(), name=("storm-outage", "retailerA"))
        self.fleet = fleet
        self.buses = list(fleet.buses.values())
        self.deployments.append(deployment)
        self.tracers.append(tracer)
        self.exporters.append(exporter)
        self.registries.append(metrics)

    def simulate(self) -> None:
        deployment = self.deployments[0]
        runner = ClockedRunner(deployment.env, deployment.network, self.clock)
        result = runner.run_many(
            self._plans, clients_per_plan=self.clients, requests_per_client=self.requests
        )
        self.tracers[0].close()
        self.results.append(
            (("fleet",), self.requests, self.PARTITIONS * self.clients, result)
        )

    def planned_requests(self) -> int:
        return len(self._plans) * self.clients * self.requests

    def render(self) -> str:
        fleet = self.fleet
        counters = self.registries[0].snapshot().get("counters", {})
        return _summary_lines(
            [
                ("leader", fleet.leader),
                ("epoch", fleet.election.epoch),
                ("placement", {name: spec.owner for name, spec in sorted(fleet.veps.items())}),
                ("federation", {k: v for k, v in sorted(counters.items()) if k.startswith("federation.")}),
                ("slo_events", sum(len(bus.slo.events) for bus in fleet.buses.values())),
                ("spans_exported", len(self.exporters[0].spans)),
            ]
        )


WORKLOADS = {
    workload.name: workload
    for workload in (Table1Workload, Figure5Workload, TieredStormWorkload, FleetFailoverWorkload)
}
