"""QoS Measurement Service.

"Responsible for management data collection and analysis either through
direct computation of QoS metrics... The key QoS metrics measured by this
component are: (a) Reliability (calculated as a ratio of successful
invocations over the number of total invocations in given period of time);
(b) Response Time (the time interval between when a service is requested
and when it is delivered); (c) Availability: the percentage of time that a
service is available during some time interval."

The service consumes :class:`~repro.services.InvocationRecord` streams
(subscribe it to any invoker) and serves aggregate lookups — including the
``qos_lookup`` interface the MASC monitoring service and QoS-threshold
assertions expect, and the best-endpoint query the selection service uses.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice

from repro.services import InvocationOutcome, InvocationRecord

__all__ = ["EndpointQoS", "QoSMeasurementService", "record_key"]

_SUCCESS = InvocationOutcome.SUCCESS
_AGGREGATES = ("mean", "min", "max", "p95", "p99")


def record_key(record: InvocationRecord) -> tuple:
    """The order of a merged window: by completion, then start and parties."""
    return (record.finished_at, record.started_at, record.target, record.caller, record.operation)


@dataclass
class EndpointQoS:
    """Rolling QoS observations for one endpoint."""

    address: str
    window: int = 500
    records: deque = field(default_factory=deque)
    total_invocations: int = 0
    total_failures: int = 0
    #: Memoized views, query window -> (records in that window, their
    #: successful durations sorted); emptied whenever the window changes.
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.records, deque) or self.records.maxlen != self.window:
            self.records = deque(self.records, maxlen=self.window)

    def add(self, record: InvocationRecord) -> None:
        self.records.append(record)
        self._views.clear()
        self.total_invocations += 1
        if not record.succeeded:
            self.total_failures += 1

    def replace_records(self, records) -> None:
        """Replace the window's contents (keeping its newest ``window``)."""
        self.records = deque(records, maxlen=self.window)
        self._views.clear()

    # -- metric computations ---------------------------------------------------

    def _recent(self, window: int) -> Iterable[InvocationRecord]:
        records = self.records
        if 0 < window < len(records):
            return islice(records, len(records) - window, None)
        return records

    def _view(self, window: int) -> tuple[int, list[float]]:
        view = self._views.get(window)
        if view is None:
            size = len(self.records)
            durations = [
                r.finished_at - r.started_at for r in self._recent(window) if r.outcome is _SUCCESS
            ]
            durations.sort()
            view = self._views[window] = (min(window, size) if window > 0 else size, durations)
        return view

    def sample_count(self, window: int = 0, successful_only: bool = False) -> int:
        """How many observations the window holds (adaptive-timeout input)."""
        count, durations = self._view(window)
        return len(durations) if successful_only else count

    def reliability(self, window: int = 0) -> float | None:
        """Ratio of successful invocations over total, in the window."""
        count, durations = self._view(window)
        if not count:
            return None
        return len(durations) / count

    def response_time(self, window: int = 0, aggregate: str = "mean") -> float | None:
        """Aggregate RTT over *successful* invocations in the window."""
        if aggregate not in _AGGREGATES:
            raise ValueError(f"unknown aggregate {aggregate!r}")
        durations = self._view(window)[1]
        if not durations:
            return None
        if aggregate == "mean":
            return sum(durations) / len(durations)
        if aggregate == "min":
            return durations[0]
        if aggregate == "max":
            return durations[-1]
        quantile = 0.95 if aggregate == "p95" else 0.99
        index = min(len(durations) - 1, int(round(quantile * (len(durations) - 1))))
        return durations[index]

    def availability(self, window: int = 0) -> float | None:
        """Observed availability: uptime fraction estimated from the
        request outcome timeline (MTBF / (MTBF + MTTR)).

        Consecutive failed requests form one outage burst; the burst's
        duration (first failure start to last failure end) approximates
        time-to-recover as seen by callers.
        """
        records = list(self._recent(window))
        if not records:
            return None
        horizon_start = records[0].started_at
        horizon_end = records[-1].finished_at
        horizon = horizon_end - horizon_start
        if horizon <= 0:
            return 1.0 if records[-1].succeeded else 0.0
        downtime = 0.0
        burst_start: float | None = None
        burst_end = 0.0
        for record in records:
            if not record.succeeded:
                if burst_start is None:
                    burst_start = record.started_at
                burst_end = record.finished_at
            else:
                if burst_start is not None:
                    downtime += burst_end - burst_start
                    burst_start = None
        if burst_start is not None:
            downtime += burst_end - burst_start
        return max(0.0, min(1.0, 1.0 - downtime / horizon))

    def throughput(self, window: int = 0) -> float | None:
        """Successful requests per second, as a caller observed them.

        Semantics:

        - The numerator counts *successful* invocations in the window.
        - The denominator is the delivery span: from the first successful
          invocation's start to the last successful invocation's finish.
          Think-time gaps between successes count as elapsed time (this is
          an observed delivery rate, not a peak service rate), but failed
          requests hanging off the edges of the window — e.g. a trailing
          30-second timeout burn — no longer dilute the rate of the
          successes that actually happened.
        - A single successful invocation is a measurable rate: its own
          duration is the span (one success taking 0.5s is 2 req/s).
        - Returns ``0.0`` when the window holds records but no success,
          and ``None`` only when the window is empty or the successes
          carry no elapsed time to divide by (all instantaneous).
        """
        records = list(self._recent(window))
        if not records:
            return None
        successes = [r for r in records if r.succeeded]
        if not successes:
            return 0.0
        span = successes[-1].finished_at - successes[0].started_at
        if span <= 0:
            return None
        return len(successes) / span


class QoSMeasurementService:
    """Collects invocation records and serves QoS aggregates."""

    def __init__(self, window: int = 500) -> None:
        if window < 1:
            raise ValueError(f"QoS window must hold at least one observation: {window}")
        self.window = window
        self.endpoints: dict[str, EndpointQoS] = {}

    # -- collection --------------------------------------------------------------

    def observe(self, record: InvocationRecord) -> None:
        """Invoker-observer entry point."""
        endpoint = self.endpoints.get(record.target)
        if endpoint is None:
            endpoint = EndpointQoS(record.target, window=self.window)
            self.endpoints[record.target] = endpoint
        endpoint.add(record)

    def attach_to_invoker(self, invoker) -> None:
        invoker.add_observer(self.observe)

    # -- federation anti-entropy ---------------------------------------------------

    def merge_records(self, address: str, records) -> int:
        """Fold remotely observed records into an endpoint's rolling window.

        Records already present in the window are skipped; the merged
        window is re-ordered by completion time so a bus that *received*
        an observation via gossip converges on the same window (and hence
        the same ``best_endpoint`` answers) as the bus that made it.
        Returns how many records were new.
        """
        endpoint = self.endpoints.get(address)
        if endpoint is None:
            endpoint = EndpointQoS(address, window=self.window)
            self.endpoints[address] = endpoint
        window = endpoint.records
        # Equal records finish at the same instant: a float set rules out
        # almost every record without hashing it, and only a collision
        # pays for the full comparison against the window.
        finished = {r.finished_at for r in window}
        fresh = [r for r in records if r.finished_at not in finished or r not in window]
        if not fresh:
            return 0
        for record in fresh:
            endpoint.total_invocations += 1
            if not record.succeeded:
                endpoint.total_failures += 1
        endpoint.replace_records(sorted([*window, *fresh], key=record_key))
        return len(fresh)

    # -- queries ------------------------------------------------------------------

    def endpoint(self, address: str) -> EndpointQoS | None:
        return self.endpoints.get(address)

    def lookup(
        self, metric: str, window: int, aggregate: str, endpoint: str | None
    ) -> float | None:
        """The ``qos_lookup`` interface used by QoS threshold assertions."""
        if endpoint is None:
            return None
        qos = self.endpoints.get(endpoint)
        if qos is None:
            return None
        if metric == "response_time":
            return qos.response_time(window, aggregate)
        if metric == "reliability":
            return qos.reliability(window)
        if metric == "availability":
            return qos.availability(window)
        if metric == "throughput":
            return qos.throughput(window)
        raise ValueError(f"unknown QoS metric {metric!r}")

    def best_endpoint(
        self, candidates: list[str], metric: str = "response_time", window: int = 50
    ) -> str | None:
        """The candidate with the best observed metric.

        Lower is better for response time; higher for everything else.
        Candidates without history win over candidates with *bad* history
        only when no measured candidate exists — unknown beats nothing,
        measurement beats optimism.
        """
        measured: list[tuple[float, str]] = []
        unmeasured: list[str] = []
        for address in candidates:
            value = self.lookup(metric, window, "mean", address)
            if value is None:
                unmeasured.append(address)
            else:
                measured.append((value, address))
        if not measured:
            return unmeasured[0] if unmeasured else None
        if metric == "response_time":
            return min(measured)[1]
        return max(measured)[1]
