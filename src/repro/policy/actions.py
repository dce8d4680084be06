"""Adaptation actions.

The action vocabulary of WS-Policy4MASC, split across the two enforcement
layers exactly as in the paper:

- **process orchestration layer** (enacted by MASCAdaptationService):
  add / remove / replace an activity or activity block, suspend / resume /
  terminate the process instance, extend a pending timeout;
- **SOAP messaging layer** (enacted by the wsBus Adaptation Manager):
  invocation retries, Web services substitution, concurrent invocation of
  multiple equivalent services, skipping of activities.

Actions are declarative data and double as the dialect's schema: a field's
dataclass default, type annotation and :func:`bounded` rules are all that
the generic XML parse/serialize in :mod:`repro.policy.xml` and the checks
in :func:`validate_fields` need. Only rules spanning several fields are
written by hand, in ``__post_init__``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, dataclass, field, fields
from functools import cache

from repro.orchestration import Activity, Invoke, Sequence

__all__ = [
    "ACTION_TYPES",
    "ActionError",
    "AdaptationAction",
    "AdaptiveTimeoutAction",
    "AddActivityAction",
    "BulkheadAction",
    "BurnRateAlertAction",
    "CircuitBreakerAction",
    "CompensateInstanceAction",
    "ConcurrentInvokeAction",
    "DelayProcessAction",
    "ExtendTimeoutAction",
    "FederationAction",
    "IdempotencyAction",
    "InvokeSpec",
    "LoadLevelingAction",
    "LoadSheddingAction",
    "PreferBestAction",
    "QuarantineAction",
    "RemoveActivityAction",
    "ReplaceActivityAction",
    "ResilienceAction",
    "ResponseCacheAction",
    "ResumeProcessAction",
    "RetryAction",
    "SELECTION_STRATEGIES",
    "SelectionStrategyAction",
    "ShardRoutingAction",
    "SkipAction",
    "SloAction",
    "SubstituteAction",
    "SuspendProcessAction",
    "TerminateProcessAction",
    "TracingAction",
    "TrafficAction",
]


class ActionError(Exception):
    """An action specification is invalid or cannot be enacted."""


def bounded(default=MISSING, **rules):
    """A schema field: its dataclass ``default`` plus declared rules.

    Checked by :func:`validate_fields`: ``gt``/``ge``/``lt``/``le`` bound a
    number, ``choices`` lists the allowed values, ``nonempty`` rejects an
    empty string; on a tuple the rules apply to every item. Read by the XML
    layer: ``omit_default=True`` leaves the attribute out while the value
    equals its default, and ``xml=(tag, *attributes)`` maps a collection
    field onto child elements.
    """
    return field(default=default, metadata=rules)


_CHECKS = {
    "gt": (operator.gt, "> {}"),
    "ge": (operator.ge, ">= {}"),
    "lt": (operator.lt, "< {}"),
    "le": (operator.le, "<= {}"),
    "choices": (lambda value, allowed: value in allowed, "one of {}"),
    "nonempty": (lambda value, _: bool(value), "non-empty"),
}


@cache
def _rules(cls: type) -> tuple[tuple[str, tuple], ...]:
    return tuple(
        (f.name, tuple((key, bound) for key, bound in f.metadata.items() if key in _CHECKS))
        for f in fields(cls)
    )


def validate_fields(instance) -> None:
    """Check every field of ``instance`` against its declared rules.

    ``None`` skips the rules (the field is absent); NaN never passes.
    """
    for name, rules in _rules(type(instance)):
        value = getattr(instance, name)
        for item in value if isinstance(value, tuple) else (value,):
            if item is None:
                continue
            if isinstance(item, float) and math.isnan(item):
                raise ActionError(f"{type(instance).__name__}.{name} must be a number: nan")
            for key, bound in rules:
                check, expected = _CHECKS[key]
                if not check(item, bound):
                    raise ActionError(
                        f"{type(instance).__name__}.{name} must be "
                        f"{expected.format(bound)}: {item!r}"
                    )


@dataclass(frozen=True)
class InvokeSpec:
    """Declarative description of a Web service call to insert.

    Either a concrete ``address`` or an abstract ``service_type`` (resolved
    through the registry / VEP binding at runtime — "the policy can specify
    a particular Web service or a set of criteria for dynamically selecting
    the best Web service from a directory").

    ``inputs`` maps message parts to ``$variable`` references or literals;
    ``outputs`` maps process variables to response parts — the "required
    parameters binding and value passing between base processes and their
    variation processes".
    """

    name: str
    operation: str
    service_type: str | None = None
    address: str | None = None
    inputs: dict[str, str] = field(
        default_factory=dict, metadata={"xml": ("Input", "part", "value")}
    )
    outputs: dict[str, str] = field(
        default_factory=dict, metadata={"xml": ("Output", "variable", "part")}
    )
    timeout_seconds: float | None = 30.0

    def __post_init__(self) -> None:
        validate_fields(self)
        if self.service_type is None and self.address is None:
            raise ActionError(f"InvokeSpec {self.name!r} needs a serviceType or address")

    def to_activity(self) -> Invoke:
        return Invoke(
            name=self.name,
            operation=self.operation,
            to=self.address,
            service_type=self.service_type,
            inputs=dict(self.inputs),
            extract=dict(self.outputs),
            timeout_seconds=self.timeout_seconds,
        )


class AdaptationAction:
    """Base class: a single step of an adaptation policy."""

    #: Which middleware layer enforces this action.
    layer = "process"

    def __post_init__(self) -> None:
        validate_fields(self)

    def describe(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# Process orchestration layer actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AddActivityAction(AdaptationAction):
    """Insert a variation activity (or block) into the base process."""

    anchor: str
    position: str = bounded("after", choices=("before", "after", "append"))
    block_name: str | None = None
    #: Variable seed values passed from the policy into the instance.
    bindings: dict[str, str] = field(
        default_factory=dict, metadata={"xml": ("Bind", "variable", "value")}
    )
    invokes: tuple[InvokeSpec, ...] = bounded((), xml=("InvokeActivity",))

    layer = "process"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.invokes:
            raise ActionError("AddActivityAction needs at least one InvokeSpec")

    def build_activity(self) -> Activity:
        activities = [spec.to_activity() for spec in self.invokes]
        if len(activities) == 1 and self.block_name is None:
            return activities[0]
        return Sequence(self.block_name or f"block:{self.anchor}", activities)

    def describe(self) -> str:
        names = ", ".join(spec.name for spec in self.invokes)
        return f"add [{names}] {self.position} {self.anchor!r}"


@dataclass(frozen=True)
class RemoveActivityAction(AdaptationAction):
    """Delete an activity or a contiguous block from the base process.

    A block "is specified using beginning and ending points": when
    ``block_end`` is given, every sibling from ``target`` through
    ``block_end`` inclusive is removed.
    """

    target: str
    block_end: str | None = None

    layer = "process"

    def describe(self) -> str:
        if self.block_end:
            return f"remove block {self.target!r}..{self.block_end!r}"
        return f"remove {self.target!r}"


@dataclass(frozen=True)
class ReplaceActivityAction(AdaptationAction):
    """Swap an activity for a variation activity/block."""

    target: str
    block_name: str | None = None
    bindings: dict[str, str] = field(
        default_factory=dict, metadata={"xml": ("Bind", "variable", "value")}
    )
    invokes: tuple[InvokeSpec, ...] = bounded((), xml=("InvokeActivity",))

    layer = "process"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.invokes:
            raise ActionError("ReplaceActivityAction needs at least one InvokeSpec")

    def build_activity(self) -> Activity:
        activities = [spec.to_activity() for spec in self.invokes]
        if len(activities) == 1 and self.block_name is None:
            return activities[0]
        return Sequence(self.block_name or f"replacement:{self.target}", activities)

    def describe(self) -> str:
        names = ", ".join(spec.name for spec in self.invokes)
        return f"replace {self.target!r} with [{names}]"


@dataclass(frozen=True)
class SuspendProcessAction(AdaptationAction):
    """Suspend the affected process instance (cross-layer coordination)."""

    layer = "process"
    xml_tags = ("Suspend",)

    def describe(self) -> str:
        return "suspend process instance"


@dataclass(frozen=True)
class ResumeProcessAction(AdaptationAction):
    """Resume the affected process instance."""

    layer = "process"
    xml_tags = ("Resume",)

    def describe(self) -> str:
        return "resume process instance"


@dataclass(frozen=True)
class TerminateProcessAction(AdaptationAction):
    """Terminate the affected process instance."""

    reason: str = "terminated by adaptation policy"

    layer = "process"
    xml_tags = ("Terminate",)

    def describe(self) -> str:
        return f"terminate process instance ({self.reason})"


@dataclass(frozen=True)
class CompensateInstanceAction(AdaptationAction):
    """Compensate (saga-unwind) affected process instances.

    ``mode`` selects who drives the undo chain:

    - ``orchestration`` — the engine aborts the instance at its next
      activity boundary and the enclosing :class:`CompensationScope` runs
      the registered compensations in LIFO order;
    - ``choreography`` — the middleware sends each registered compensation
      as a wsBus invocation to the owning service directly, then
      terminates the instance (the engine never re-enters the process).

    ``scope`` restricts the unwind to one CompensationScope's steps;
    ``process`` restricts instance fan-out for instance-less events
    (e.g. SLO burn-rate alerts) to one process definition.
    """

    mode: str = bounded("orchestration", choices=("orchestration", "choreography"))
    reason: str = "compensated by adaptation policy"
    scope: str | None = None
    process: str | None = None

    layer = "process"
    xml_tags = ("Compensate", "CompensateOnEvent")

    def describe(self) -> str:
        target = f" scope {self.scope!r}" if self.scope else ""
        return f"compensate process instance{target} ({self.mode}: {self.reason})"


@dataclass(frozen=True)
class DelayProcessAction(AdaptationAction):
    """Pause the affected process instance for a fixed interval.

    One of the paper's "relatively simple dynamic changes of process
    instances (e.g., ... delay/suspend/resume/terminate process)":
    suspend now, resume automatically after ``delay_seconds``.
    """

    delay_seconds: float = bounded(10.0, gt=0)

    layer = "process"

    def describe(self) -> str:
        return f"delay process instance by {self.delay_seconds}s"


@dataclass(frozen=True)
class ExtendTimeoutAction(AdaptationAction):
    """Push out the calling activity's deadline before messaging-layer
    recovery retries ("increase its timeout interval to avoid the calling
    process timing out")."""

    extra_seconds: float = 10.0

    layer = "process"

    def describe(self) -> str:
        return f"extend pending timeout by {self.extra_seconds}s"


# ---------------------------------------------------------------------------
# SOAP messaging layer actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryAction(AdaptationAction):
    """Re-deliver the failed request to the same target.

    ``delay_seconds`` is the pause between retry cycles;
    ``backoff_multiplier`` stretches it geometrically.
    """

    max_retries: int = bounded(3, ge=0)
    delay_seconds: float = bounded(2.0, ge=0)
    backoff_multiplier: float = 1.0
    #: Hard ceiling on the backed-off delay; None leaves it unbounded.
    max_delay_seconds: float | None = bounded(None, ge=0)
    #: Fraction of the delay randomized symmetrically around it (0.2 means
    #: ±20%) so independent retriers don't synchronize into bursts.
    jitter_fraction: float = bounded(0.0, ge=0.0, lt=1.0, omit_default=True)

    layer = "messaging"

    def delay_for_attempt(self, attempt: int, rng=None) -> float:
        """Delay before retry ``attempt`` (1-based).

        ``rng`` (a ``random.Random``, normally a named
        :class:`~repro.simulation.RandomSource` stream) supplies the
        jitter; without one the delay is the deterministic midpoint.
        """
        delay = self.delay_seconds * (self.backoff_multiplier ** max(0, attempt - 1))
        if self.max_delay_seconds is not None:
            delay = min(delay, self.max_delay_seconds)
        if rng is not None and self.jitter_fraction > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)

    def describe(self) -> str:
        description = (
            f"retry up to {self.max_retries}x with {self.delay_seconds}s delay"
            + (f" (backoff x{self.backoff_multiplier})" if self.backoff_multiplier != 1.0 else "")
        )
        if self.max_delay_seconds is not None:
            description += f", capped at {self.max_delay_seconds}s"
        if self.jitter_fraction > 0.0:
            description += f", ±{self.jitter_fraction:.0%} jitter"
        return description


@dataclass(frozen=True)
class SubstituteAction(AdaptationAction):
    """Fail over to an equivalent service registered with the VEP.

    ``strategy``: ``backup`` (the explicitly configured backup address),
    ``best_response_time`` (QoS history), ``round_robin``, or ``registry``
    (any implementation of the contract from the UDDI registry).
    """

    strategy: str = bounded(
        "best_response_time",
        choices=("backup", "best_response_time", "round_robin", "registry"),
    )
    backup_address: str | None = None

    layer = "messaging"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.strategy == "backup" and not self.backup_address:
            raise ActionError("substitute strategy 'backup' needs a backup_address")

    def describe(self) -> str:
        target = f" -> {self.backup_address}" if self.backup_address else ""
        return f"substitute ({self.strategy}){target}"


@dataclass(frozen=True)
class ConcurrentInvokeAction(AdaptationAction):
    """Broadcast the request to several equivalent services; first response
    wins and pending invocations are abandoned."""

    max_targets: int = 0  # 0 = all registered targets

    layer = "messaging"

    def describe(self) -> str:
        scope = "all targets" if self.max_targets == 0 else f"{self.max_targets} targets"
        return f"concurrent invocation of {scope}, first response wins"


@dataclass(frozen=True)
class QuarantineAction(AdaptationAction):
    """Temporarily exclude an endpoint from its VEPs' membership.

    The *preventive* counterpart of substitution: when monitoring predicts
    degradation (e.g. a worsening response-time trend), the endpoint is
    taken out of rotation before it starts producing faults, and restored
    after ``duration_seconds``.
    """

    duration_seconds: float = bounded(60.0, gt=0)

    layer = "messaging"

    def describe(self) -> str:
        return f"quarantine endpoint for {self.duration_seconds}s"


@dataclass(frozen=True)
class PreferBestAction(AdaptationAction):
    """Re-order VEP members so the best-QoS endpoint is preferred.

    An *optimizing* action: no fault has occurred; the VEP's primary
    ordering is adjusted to the measured response times.
    """

    metric: str = "response_time"
    window: int = 50

    layer = "messaging"

    def describe(self) -> str:
        return f"prefer best endpoint by {self.metric}"


@dataclass(frozen=True)
class SkipAction(AdaptationAction):
    """Answer the caller with a synthetic success instead of invoking.

    Used for non-business-critical calls ("for the Logging service we have
    configured a skip policy since the functionality provided by the Logging
    service is not business critical").
    """

    reason: str = "activity skipped by policy"

    layer = "messaging"

    def describe(self) -> str:
        return f"skip invocation ({self.reason})"


# ---------------------------------------------------------------------------
# Resilience configuration assertions (messaging layer)
# ---------------------------------------------------------------------------


class ResilienceAction(AdaptationAction):
    """Base class of the resilience configuration vocabulary.

    These assertions don't repair one failed message; they configure the
    standing protection machinery of the bus (``repro.resilience``). They
    are declared in adaptation policies triggered by the conventional
    ``resilience.configure`` event and scope-matched against endpoints and
    VEPs, so thresholds stay policy-driven like every other MASC behavior.
    They can also appear in fault-triggered policies, in which case the
    Adaptation Manager (re)applies the configuration as a corrective side
    effect.
    """

    layer = "messaging"


@dataclass(frozen=True)
class CircuitBreakerAction(ResilienceAction):
    """Per-endpoint circuit breaker thresholds.

    The breaker opens when either ``consecutive_failures`` invocations fail
    in a row, or the failure rate over the last ``window`` calls (with at
    least ``min_calls`` observed) reaches ``failure_rate_threshold``. After
    ``open_seconds`` it admits up to ``half_open_probes`` probe requests;
    all probes succeeding closes it, any probe failing re-opens it.
    """

    failure_rate_threshold: float = bounded(0.5, gt=0.0, le=1.0)
    window: int = bounded(20, ge=1)
    min_calls: int = bounded(5, ge=1)
    consecutive_failures: int = bounded(5, ge=1)
    open_seconds: float = bounded(30.0, gt=0)
    half_open_probes: int = bounded(1, ge=1)

    def describe(self) -> str:
        return (
            f"circuit breaker (rate>={self.failure_rate_threshold:g} over {self.window}, "
            f"{self.consecutive_failures} consecutive, open {self.open_seconds:g}s, "
            f"{self.half_open_probes} probes)"
        )


@dataclass(frozen=True)
class BulkheadAction(ResilienceAction):
    """Concurrency cap (with a bounded wait queue) for an endpoint or VEP.

    ``applies_to`` selects the partition: ``endpoint`` caps in-flight
    invocations of one member service, ``vep`` caps concurrent mediations
    of one virtual endpoint. Requests beyond ``max_concurrent`` wait in a
    queue of at most ``max_queue``; beyond that they are rejected with a
    retryable ``ServiceUnavailable`` fault.
    """

    max_concurrent: int = bounded(16, ge=1)
    max_queue: int = bounded(32, ge=0)
    applies_to: str = bounded("endpoint", choices=("endpoint", "vep"))

    def describe(self) -> str:
        return (
            f"bulkhead per {self.applies_to} "
            f"(max {self.max_concurrent} in flight, queue {self.max_queue})"
        )


@dataclass(frozen=True)
class AdaptiveTimeoutAction(ResilienceAction):
    """Derive invocation timeouts from observed latency percentiles.

    The timeout for an endpoint becomes ``multiplier`` × the ``aggregate``
    response time over the QoS Measurement Service's last ``window``
    successful samples, clamped to ``[min_seconds, max_seconds]``. Until
    ``min_samples`` observations exist the configured fixed timeout is
    used unchanged.
    """

    aggregate: str = bounded("p95", choices=("mean", "max", "p95", "p99"))
    multiplier: float = bounded(3.0, gt=0)
    min_seconds: float = bounded(0.25, gt=0)
    max_seconds: float = 30.0
    window: int = bounded(50, ge=1)
    min_samples: int = bounded(5, ge=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_seconds < self.min_seconds:
            raise ActionError(
                f"need min_seconds <= max_seconds: {self.min_seconds}, {self.max_seconds}"
            )

    def describe(self) -> str:
        return (
            f"adaptive timeout = {self.multiplier:g} x {self.aggregate} "
            f"over {self.window} samples, clamped [{self.min_seconds:g}, {self.max_seconds:g}]s"
        )


@dataclass(frozen=True)
class LoadSheddingAction(ResilienceAction):
    """Bus-wide admission control for graceful degradation under overload.

    New mediations are rejected with a retryable ``ServiceUnavailable``
    fault while more than ``max_inflight`` requests are being mediated, or
    while the retry queue is deeper than ``max_retry_queue_depth`` (a
    deep retry backlog means the fleet is already struggling; taking on
    more work would only grow the collapse). Only *unscoped* policies
    configure shedding — it protects the whole bus, not one endpoint.
    """

    max_inflight: int = bounded(64, ge=1)
    max_retry_queue_depth: int | None = bounded(None, ge=0)

    def describe(self) -> str:
        description = f"shed load beyond {self.max_inflight} in-flight mediations"
        if self.max_retry_queue_depth is not None:
            description += f" or retry depth {self.max_retry_queue_depth}"
        return description


# ---------------------------------------------------------------------------
# Traffic-shaping assertions (messaging layer)
# ---------------------------------------------------------------------------


class TrafficAction(AdaptationAction):
    """Base class of the traffic-shaping vocabulary.

    Like the resilience assertions these configure standing machinery of
    the bus (``repro.traffic``) rather than repair one failed message.
    They are declared in adaptation policies carrying the conventional
    ``traffic.configure`` trigger and scope-matched against service types
    and operations, so caching, idempotency and leveling behavior stays
    policy-driven like every other MASC behavior.
    """

    layer = "messaging"


@dataclass(frozen=True)
class IdempotencyAction(TrafficAction):
    """Stamp scope-matched requests with an idempotency key.

    The VEP derives the key from the envelope's message ID at mediation
    entry; header-preserving copies carry it through every redelivery path
    (retry, dead-letter replay, broadcast, substitution, choreography
    compensation), and the service container's dedupe store then executes
    each key at most once, answering duplicates with the recorded first
    response — recovery "must not blindly re-invoke constituents".
    """

    def describe(self) -> str:
        return "stamp idempotency keys for exactly-once execution"


@dataclass(frozen=True)
class ResponseCacheAction(TrafficAction):
    """Cache-aside response cache for scope-matched operations.

    Successful responses are kept for ``ttl_seconds`` (at most
    ``max_entries``, LRU-evicted) keyed by service type, operation and
    request body, so repeated reads are answered at the VEP without
    touching a member. ``invalidate_on`` lists MASC event names (fnmatch
    patterns, e.g. ``sloBurnRateExceeded`` or ``catalogChanged``) that
    flush the cache — policy-driven invalidation wired to the same event
    fabric that drives adaptation.
    """

    ttl_seconds: float = bounded(30.0, gt=0)
    max_entries: int = bounded(256, ge=1)
    invalidate_on: tuple[str, ...] = bounded((), nonempty=True, xml=("InvalidateOn", "event"))

    def describe(self) -> str:
        description = (
            f"cache responses for {self.ttl_seconds:g}s "
            f"(max {self.max_entries} entries)"
        )
        if self.invalidate_on:
            description += f", invalidated on {', '.join(self.invalidate_on)}"
        return description


@dataclass(frozen=True)
class LoadLevelingAction(TrafficAction):
    """Queue-based load leveling + token-bucket throttling for a VEP.

    The gentler alternative to shed-only admission control: a burst of up
    to ``burst`` requests passes immediately, then arrivals are smoothed
    to ``rate_per_second`` by *delaying* them in a bounded virtual queue
    instead of rejecting them outright. Only past the queue's limits —
    more than ``max_queue`` requests already waiting, or a computed delay
    beyond ``max_wait_seconds`` — is a request rejected with a retryable
    ``ServiceUnavailable`` fault.
    """

    rate_per_second: float = bounded(50.0, gt=0)
    burst: int = bounded(10, ge=1)
    max_queue: int = bounded(64, ge=0)
    max_wait_seconds: float = bounded(5.0, ge=0)

    def describe(self) -> str:
        return (
            f"level load to {self.rate_per_second:g}/s (burst {self.burst}, "
            f"queue {self.max_queue}, wait <= {self.max_wait_seconds:g}s)"
        )


# ---------------------------------------------------------------------------
# Federation assertions (fleet plane)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FederationAction(AdaptationAction):
    """Fleet-plane tuning for a federated multi-bus deployment.

    Declared in adaptation policies carrying the conventional
    ``federation.configure`` trigger (the same load-time-scan convention
    as ``resilience.configure`` and ``traffic.configure``); the
    :class:`~repro.federation.FederationService` materializes it into the
    fleet's membership, gossip and leader-election machinery. With no
    federation policies loaded the fleet runs on its built-in defaults.
    """

    heartbeat_interval_seconds: float = bounded(0.5, gt=0)
    #: A bus is suspected dead after ``heartbeat_interval_seconds`` times
    #: this multiplier without a heartbeat.
    suspicion_multiplier: float = bounded(3.0, gt=1.0)
    gossip_interval_seconds: float = bounded(2.0, gt=0)
    #: Peers each bus exchanges QoS digests with per gossip round.
    gossip_fanout: int = bounded(1, ge=1)
    #: Leadership lease duration; a dead leader's lease must expire
    #: before a follower may take over.
    lease_seconds: float = bounded(3.0, gt=0)
    #: Virtual nodes per bus on the consistent-hash ring.
    virtual_nodes: int = bounded(32, ge=1)

    layer = "federation"

    def describe(self) -> str:
        return (
            f"federation (heartbeat {self.heartbeat_interval_seconds:g}s "
            f"x{self.suspicion_multiplier:g}, gossip {self.gossip_interval_seconds:g}s "
            f"fanout {self.gossip_fanout}, lease {self.lease_seconds:g}s)"
        )


@dataclass(frozen=True)
class ShardRoutingAction(AdaptationAction):
    """Pin scope-matched VEPs to a named bus, overriding the hash ring.

    The policy override of consistent-hash placement: VEPs whose name
    matches ``vep_pattern`` (fnmatch) are owned by ``bus`` as long as
    that bus is alive; when it is not, placement falls back to the ring.
    """

    bus: str = bounded(nonempty=True)
    vep_pattern: str = bounded("*", nonempty=True)

    layer = "federation"

    def describe(self) -> str:
        return f"route VEPs matching {self.vep_pattern!r} to bus {self.bus!r}"


# ---------------------------------------------------------------------------
# SLO assertions and observability-driven adaptation (messaging layer)
# ---------------------------------------------------------------------------


#: Mirror of :data:`repro.wsbus.selection.STRATEGIES`; duplicated here so
#: the policy vocabulary stays importable without the messaging layer
#: (a consistency test asserts the two tuples stay identical).
SELECTION_STRATEGIES = (
    "round_robin",
    "best_response_time",
    "best_reliability",
    "random",
    "primary",
    "content",
)


@dataclass(frozen=True)
class SloAction(AdaptationAction):
    """A Service Level Objective over a scope of endpoints.

    Declared in adaptation policies carrying the conventional
    ``observability.slo`` trigger (the same load-time-scan convention as
    ``resilience.configure``); the bus's
    :class:`~repro.observability.slo.SloService` materializes one
    objective per scope-matched endpoint and evaluates it continuously
    against the shared :class:`~repro.observability.MetricsRegistry`.

    ``availability_target`` is a percentage (e.g. ``99.0``); the **error
    budget** is its complement (1% of requests may fail). An optional
    latency SLO is expressed as ``latency_percentile`` (``p50``/``p95``/
    ``p99``) ≤ ``latency_target_seconds``. ``window_seconds`` is the SLO
    period over which the budget is accounted.
    """

    name: str = "slo"
    availability_target: float = bounded(99.0, gt=0.0, lt=100.0)
    latency_target_seconds: float | None = bounded(None, gt=0)
    latency_percentile: str = bounded(
        "p99", choices=("p50", "p95", "p99"), omit_default=True
    )
    window_seconds: float = bounded(3600.0, gt=0)

    layer = "messaging"

    @property
    def error_budget(self) -> float:
        """The tolerable failure fraction (1 - availability)."""
        return 1.0 - self.availability_target / 100.0

    def describe(self) -> str:
        description = (
            f"SLO {self.name!r}: availability >= {self.availability_target:g}% "
            f"over {self.window_seconds:g}s"
        )
        if self.latency_target_seconds is not None:
            description += (
                f", {self.latency_percentile} <= {self.latency_target_seconds:g}s"
            )
        return description


@dataclass(frozen=True)
class BurnRateAlertAction(AdaptationAction):
    """Multi-window burn-rate alerting thresholds for an SLO.

    Attached alongside an :class:`SloAction` in the same
    ``observability.slo`` policy. The burn rate is the observed failure
    rate divided by the error budget (1.0 = budget exactly consumed by
    the end of the SLO window). The evaluator fires
    ``sloBurnRateExceeded`` when **both** the fast and the slow window
    burn exceed their thresholds (the fast window gives reaction speed,
    the slow window suppresses blips), and ``sloRecovered`` once the fast
    window drops back under 1.0.
    """

    fast_window_seconds: float = bounded(60.0, gt=0)
    slow_window_seconds: float = bounded(300.0, gt=0)
    fast_burn_threshold: float = bounded(14.0, gt=0)
    slow_burn_threshold: float = bounded(2.0, gt=0)
    evaluation_interval_seconds: float = bounded(5.0, gt=0)
    min_requests: int = bounded(10, ge=1)

    layer = "messaging"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fast_window_seconds > self.slow_window_seconds:
            raise ActionError(
                f"fast window ({self.fast_window_seconds:g}s) must not exceed "
                f"slow window ({self.slow_window_seconds:g}s)"
            )

    def describe(self) -> str:
        return (
            f"burn-rate alert (fast {self.fast_burn_threshold:g}x over "
            f"{self.fast_window_seconds:g}s, slow {self.slow_burn_threshold:g}x over "
            f"{self.slow_window_seconds:g}s, every {self.evaluation_interval_seconds:g}s)"
        )


@dataclass(frozen=True)
class TracingAction(AdaptationAction):
    """Head-based trace sampling for the distributed-tracing tier.

    Declared in adaptation policies carrying the conventional
    ``observability.tracing`` trigger (the same load-time-scan convention
    as ``observability.slo``); the bus's
    :class:`~repro.observability.sampling.TracingService` materializes it
    into a :class:`~repro.observability.sampling.TraceSampler` on the
    active tracer. ``sample_rate`` is the fraction of new traces recorded
    (decided deterministically from the trace id, so the same seed samples
    the same traces regardless of ``--jobs``); faults and SLO violations
    can *promote* an unsampled trace after the fact so the interesting
    traces are never the ones thrown away. With no tracing policy loaded
    every trace is recorded — and simulation results are byte-identical
    either way, because sampling only filters what is exported.
    """

    sample_rate: float = bounded(1.0, ge=0.0, le=1.0)
    always_sample_faults: bool = True
    always_sample_slo_violations: bool = True

    layer = "messaging"

    def describe(self) -> str:
        promotions = [
            label
            for label, enabled in (
                ("faults", self.always_sample_faults),
                ("slo-violations", self.always_sample_slo_violations),
            )
            if enabled
        ]
        suffix = f" + {'/'.join(promotions)}" if promotions else ""
        return f"sample {self.sample_rate:.0%} of traces{suffix}"


@dataclass(frozen=True)
class SelectionStrategyAction(AdaptationAction):
    """Switch the selection strategy of scope-matched VEPs.

    The observability-driven adaptation of the SLO loop: a policy
    triggered by ``sloBurnRateExceeded`` can move a VEP from, say,
    ``round_robin`` to ``best_reliability`` so traffic drains away from
    the members burning the error budget.
    """

    strategy: str = bounded("best_reliability", choices=SELECTION_STRATEGIES)

    layer = "messaging"

    def describe(self) -> str:
        return f"switch selection strategy to {self.strategy}"


#: The action vocabulary of WS-Policy4MASC: every concrete assertion class.
ACTION_TYPES: tuple[type[AdaptationAction], ...] = (
    AddActivityAction,
    RemoveActivityAction,
    ReplaceActivityAction,
    SuspendProcessAction,
    ResumeProcessAction,
    TerminateProcessAction,
    CompensateInstanceAction,
    DelayProcessAction,
    ExtendTimeoutAction,
    RetryAction,
    SubstituteAction,
    ConcurrentInvokeAction,
    QuarantineAction,
    PreferBestAction,
    SkipAction,
    CircuitBreakerAction,
    BulkheadAction,
    AdaptiveTimeoutAction,
    LoadSheddingAction,
    IdempotencyAction,
    ResponseCacheAction,
    LoadLevelingAction,
    FederationAction,
    ShardRoutingAction,
    SloAction,
    BurnRateAlertAction,
    TracingAction,
    SelectionStrategyAction,
)
