"""Virtual End Point (VEP).

"wsBus key architectural abstraction is the concept of a Virtual End Point
(VEP). A VEP allows virtualization by grouping a set of functionally
equivalent services and exposes an abstract WSDL for accessing the
configured services... The VEP acts as a recovery block and various runtime
policies can be associat[ed] with it. ... The VEP takes care of the dynamic
Find, Select, Bind and Invoke on behalf of the BPEL engine."
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.observability import NULL_METRICS, NULL_TRACER, correlation_id_for
from repro.observability.trace_context import (
    context_of_span,
    stamp_trace_context,
    trace_context_of,
)
from repro.soap import FaultCode, SoapEnvelope, SoapFault, SoapFaultError
from repro.traffic.idempotency import stamp_idempotency_key
from repro.wsbus.adaptation import AdaptationManager, broadcast_first_response
from repro.wsbus.monitoring import BusMonitoringService, MonitoringPoint
from repro.wsbus.pipeline import MessagePipeline, PipelineContext
from repro.wsbus.selection import SelectionService
from repro.wsdl import ContractViolation, ServiceContract

__all__ = ["VepStats", "VirtualEndpoint"]


@dataclass
class VepStats:
    """Per-VEP counters for experiment reporting."""

    requests: int = 0
    successes: int = 0
    recovered: int = 0
    failures: int = 0
    violations: int = 0
    #: Requests rejected at admission (load shedding / bulkhead saturation).
    shed: int = 0
    #: Requests answered from the traffic tier's response cache.
    cache_hits: int = 0
    #: Requests delayed by queue-based load leveling.
    leveled: int = 0
    #: Requests rejected by the load leveler (queue full / wait too long).
    throttled: int = 0


class VirtualEndpoint:
    """A group of equivalent services behind one abstract endpoint."""

    def __init__(
        self,
        name: str,
        contract: ServiceContract,
        env,
        sender,
        selection: SelectionService,
        monitoring: BusMonitoringService,
        adaptation: AdaptationManager,
        members: list[str] | None = None,
        selection_strategy: str = "round_robin",
        invocation_timeout: float | None = 10.0,
        broadcast: bool = False,
        registry=None,
        pipeline: MessagePipeline | None = None,
        validate_messages: bool = False,
        mediation_overhead=None,
        overhead_rng=None,
        tracer=None,
        metrics=None,
        resilience=None,
        traffic=None,
    ) -> None:
        self.name = name
        self.contract = contract
        self.env = env
        self.sender = sender
        self.selection = selection
        self.monitoring = monitoring
        self.adaptation = adaptation
        from repro.wsbus.selection import STRATEGIES

        if selection_strategy not in STRATEGIES:
            raise ValueError(
                f"unknown selection strategy {selection_strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        self.members: list[str] = list(members or ())
        self.selection_strategy = selection_strategy
        self.invocation_timeout = invocation_timeout
        #: When True every request is broadcast to all members, first
        #: response wins (the paper's concurrent invocation configuration).
        self.broadcast = broadcast
        self.registry = registry
        self.pipeline = pipeline if pipeline is not None else MessagePipeline()
        self.validate_messages = validate_messages
        if validate_messages:
            from repro.wsbus.inspectors import ContractValidationInspector

            self.pipeline.insert(0, ContractValidationInspector(contract))
        #: Simulated per-message mediation cost (request dispatch, policy
        #: handling, inspector execution): the source of the ~10% latency
        #: overhead the paper measures and attributes to "the high number
        #: of threads created to serve the requests" and "the need to
        #: import, parse, and process policies".
        self.mediation_overhead = mediation_overhead
        self.overhead_rng = overhead_rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Optional :class:`~repro.resilience.ResilienceService` providing
        #: admission control (load shedding + per-VEP bulkhead).
        self.resilience = resilience
        #: Optional :class:`~repro.traffic.TrafficService` providing the
        #: shaping tier (response cache, idempotency keys, load leveling).
        self.traffic = traffic
        self.address: str | None = None  # set by the bus on deployment
        self.stats = VepStats()

    def _mediation_delay(self, size_bytes: int):
        """A timeout event for one mediation pass, or None if free."""
        if self.mediation_overhead is None:
            return None
        rng = self.overhead_rng
        return self.env.timeout(self.mediation_overhead.sample(size_bytes, rng))

    # -- membership ---------------------------------------------------------------

    def add_member(self, address: str) -> None:
        if address not in self.members:
            self.members.append(address)

    def remove_member(self, address: str) -> None:
        if address in self.members:
            self.members.remove(address)

    def refresh_members_from_registry(self) -> None:
        """Dynamic Find: refresh membership from the UDDI-style registry."""
        if self.registry is None:
            return
        for record in self.registry.find(self.contract.service_type):
            self.add_member(record.address)

    # -- the message path -------------------------------------------------------------

    def handle(self, request: SoapEnvelope) -> Generator:
        """Network handler: traffic shaping, admission control, mediation.

        The traffic-shaping tier (response cache, idempotency stamping,
        queue-based load leveling) runs first — a cache hit never touches
        admission control at all, and a leveled request waits its turn
        *before* occupying a shedder or bulkhead slot. With no traffic
        policies loaded the tier is inert and the path is unchanged.
        """
        traffic = self.traffic
        if traffic is not None and traffic.active:
            return (yield from self._shaped_handle(request))
        return (yield from self._admitted_handle(request))

    def _shaped_handle(self, request: SoapEnvelope) -> Generator:
        """The mediation path behind the policy-driven traffic tier."""
        traffic = self.traffic
        service_type = self.contract.service_type
        operation = self._resolve_operation(request)
        cache = cache_key = None
        if operation is not None:
            cache = traffic.cache_for(service_type, operation)
            if cache is not None:
                cache_key = cache.key_for(service_type, operation, request)
                cached_body = cache.get(cache_key)
                if cached_body is not None:
                    self.stats.requests += 1
                    self.stats.successes += 1
                    self.stats.cache_hits += 1
                    if self.metrics.enabled:
                        self.metrics.counter("wsbus.traffic.cache.hits").inc()
                    if self.tracer.enabled:
                        span = self.tracer.start_span(
                            "traffic.cache_hit",
                            correlation_id=correlation_id_for(request),
                            attributes={"vep": self.name, "operation": operation},
                        )
                        span.end()
                    return request.reply(cached_body)
                if self.metrics.enabled:
                    self.metrics.counter("wsbus.traffic.cache.misses").inc()
            if traffic.stamps(service_type, operation):
                # Stamp the key onto a header-shallow copy (never mutate
                # the client's own envelope). copy()/retargeted() preserve
                # headers, so every redelivery path downstream — retry,
                # dead-letter replay, broadcast, substitution — carries
                # the same key to the service container's dedupe store.
                stamped = request.copy()
                if stamp_idempotency_key(stamped) is not None:
                    request = stamped
                    if self.metrics.enabled:
                        self.metrics.counter(
                            "wsbus.traffic.idempotency.stamped"
                        ).inc()
        leveler = traffic.leveler_for(self.name, service_type)
        if leveler is not None:
            try:
                wait = leveler.admit()
            except SoapFaultError as error:
                self.stats.throttled += 1
                if self.metrics.enabled:
                    self.metrics.counter("wsbus.traffic.throttled").inc()
                return request.reply_fault(error.fault)
            if wait is not None:
                self.stats.leveled += 1
                if self.metrics.enabled:
                    self.metrics.counter("wsbus.traffic.leveled").inc()
                try:
                    yield wait
                finally:
                    leveler.release()
        reply = yield from self._admitted_handle(request)
        if (
            cache is not None
            and cache_key is not None
            and not reply.is_fault
            and reply.body is not None
        ):
            cache.put(cache_key, reply.body)
        return reply

    def _admitted_handle(self, request: SoapEnvelope) -> Generator:
        """Admission control + the mediation path.

        Under overload the bus sheds this request with a retryable fault
        (or parks it briefly in the VEP bulkhead queue) *before* spending
        any mediation effort on it.
        """
        if self.resilience is None or not self.resilience.active:
            return (yield from self._observed_handle(request))
        try:
            admission = self.resilience.admit_vep_request(
                self.name, self.contract.service_type
            )
        except SoapFaultError as error:
            self.stats.shed += 1
            if self.metrics.enabled:
                self.metrics.counter("wsbus.vep.shed").inc()
            return request.reply_fault(error.fault)
        try:
            # The bulkhead wait lives inside the try so a failed wait
            # event still releases the admission holds.
            if admission.wait is not None:
                yield admission.wait
            return (yield from self._observed_handle(request))
        finally:
            admission.release()

    def _observed_handle(self, request: SoapEnvelope) -> Generator:
        """The mediation path under its observability wrapper.

        When tracing is enabled the whole pass runs under a ``vep.handle``
        span correlated on the request (ProcessInstanceID if the engine is
        calling, message ID otherwise); child spans cover selection,
        pipeline stages, recovery and retries. Disabled: one branch.

        The span joins the request's wire trace context (the
        ``masc:TraceContext`` header) when one is stamped — a request
        mediated by another bus, a dead-letter replay, a gated mediation
        pass — and re-stamps its own context onto a header-shallow copy so
        every downstream copy (retry, replay, broadcast, substitution,
        cross-bus failover) carries this hop in its ancestry.
        """
        if not self.tracer.enabled and not self.metrics.enabled:
            return (yield from self._handle(request, None))
        span = None
        if self.tracer.enabled:
            attributes = {"vep": self.name, "strategy": self.selection_strategy}
            if self.adaptation is not None and self.adaptation.owner_label is not None:
                attributes["bus"] = self.adaptation.owner_label
            span = self.tracer.start_span(
                "vep.handle",
                correlation_id=correlation_id_for(request),
                parent=trace_context_of(request),
                attributes=attributes,
            )
            request = request.copy()
            stamp_trace_context(request, context_of_span(span))
        started = self.env.now
        try:
            reply = yield from self._handle(request, span)
        except BaseException as error:
            if span is not None:
                span.end(status=f"error:{type(error).__name__}")
            raise
        if self.metrics.enabled:
            self.metrics.histogram("wsbus.vep.handle.seconds").observe(
                self.env.now - started
            )
            self.metrics.counter("wsbus.vep.requests").inc()
            if reply.is_fault:
                self.metrics.counter("wsbus.vep.faults").inc()
        if span is not None:
            span.end(status=f"fault:{reply.fault.code.value}" if reply.is_fault else None)
        return reply

    def _handle(self, request: SoapEnvelope, span) -> Generator:
        """The mediation path proper (``span`` is None when tracing is off)."""
        self.stats.requests += 1
        operation = self._resolve_operation(request)
        if operation is None:
            self.stats.failures += 1
            return request.reply_fault(
                SoapFault(
                    FaultCode.CLIENT,
                    f"VEP {self.name!r} cannot map the request to an operation",
                    source=self.name,
                )
            )
        if span is not None:
            span.set_attribute("operation", operation)
        context = PipelineContext(env=self.env, vep=self, operation=operation, span=span)
        point = MonitoringPoint(
            service_type=self.contract.service_type, endpoint=None, operation=operation
        )
        request_cost = self._mediation_delay(request.size_bytes)
        if request_cost is not None:
            yield request_cost

        # Request-side pipeline + monitoring.
        try:
            request = self.pipeline.run_request(request, context)
        except ContractViolation as violation:
            self.stats.violations += 1
            return request.reply_fault(
                SoapFault(FaultCode.CLIENT, str(violation), source=self.name)
            )
        violation_fault = self.monitoring.check_message("request", request, point)
        if violation_fault is not None:
            self.stats.violations += 1
            return request.reply_fault(violation_fault)

        try:
            if self.broadcast:
                response, target = yield from self._invoke_broadcast(request, operation)
            else:
                response, target = yield from self._invoke_with_recovery(
                    request, operation, span
                )
        except SoapFaultError as error:
            self.stats.failures += 1
            self.monitoring.notify_fault(error.fault, request, point)
            return request.reply_fault(error.fault)

        # Response-side monitoring + pipeline.
        context.target = target
        response_point = MonitoringPoint(
            service_type=self.contract.service_type, endpoint=target, operation=operation
        )
        violation_fault = self.monitoring.check_message("response", response, response_point)
        if violation_fault is not None:
            self.stats.violations += 1
            recovered = yield from self._recover_or_fail(
                request, operation, violation_fault, target or "", span
            )
            if isinstance(recovered, SoapFault):
                self.stats.failures += 1
                return request.reply_fault(recovered)
            response, target = recovered
        response = self.pipeline.run_response(response, context)
        response_cost = self._mediation_delay(response.size_bytes)
        if response_cost is not None:
            yield response_cost
        self.stats.successes += 1
        body = response.body if response.body is not None else None
        reply = request.reply(body) if body is not None else request.reply_fault(
            SoapFault(FaultCode.SERVER, "member returned an empty response", source=self.name)
        )
        return reply

    def _invoke_with_recovery(
        self, request: SoapEnvelope, operation: str, span=None
    ) -> Generator:
        """Select, bind, invoke; recover through adaptation policies."""
        target = self.selection.select(
            self.name,
            self.selection_strategy,
            self.members,
            envelope=request,
            context=PipelineContext(env=self.env, vep=self, operation=operation),
        )
        if span is not None:
            span.add_event("member_selected", target=target)
        if target is None:
            raise SoapFaultError(
                SoapFault(
                    FaultCode.SERVICE_UNAVAILABLE,
                    f"VEP {self.name!r} has no registered members",
                    source=self.name,
                )
            )
        outbound = request.copy()
        outbound.addressing = request.addressing.retargeted(target)
        try:
            response = yield from self.sender(
                outbound, operation, target, timeout=self.invocation_timeout
            )
            return response, target
        except SoapFaultError as error:
            point = MonitoringPoint(
                service_type=self.contract.service_type, endpoint=target, operation=operation
            )
            fault = self.monitoring.classify(error.fault, point)
            self.monitoring.notify_fault(fault, request, point)
            result = yield from self._recover_or_fail(
                request, operation, fault, target, span
            )
            if isinstance(result, SoapFault):
                raise SoapFaultError(result) from error
            return result

    def _recover_or_fail(
        self,
        request: SoapEnvelope,
        operation: str,
        fault: SoapFault,
        failed_target: str,
        span=None,
    ) -> Generator:
        """Run the adaptation manager; returns (response, target) or a fault."""
        try:
            response = yield from self.adaptation.recover(
                self, request, operation, fault, failed_target, parent_span=span
            )
        except SoapFaultError as error:
            return error.fault
        self.stats.recovered += 1
        self.metrics.counter("wsbus.vep.recovered").inc()
        final_target = None
        if self.adaptation.outcomes:
            final_target = self.adaptation.outcomes[-1].final_target
        return response, final_target

    def _invoke_broadcast(self, request: SoapEnvelope, operation: str) -> Generator:
        """Concurrent invocation of all members; first response wins."""
        if not self.members:
            raise SoapFaultError(
                SoapFault(
                    FaultCode.SERVICE_UNAVAILABLE,
                    f"VEP {self.name!r} has no registered members",
                    source=self.name,
                )
            )
        targets = self.selection.broadcast_targets(self.members, vep_name=self.name)
        if not targets:
            raise SoapFaultError(
                SoapFault(
                    FaultCode.SERVICE_UNAVAILABLE,
                    f"all members of VEP {self.name!r} are quarantined",
                    source=self.name,
                )
            )
        try:
            response, winner = yield from broadcast_first_response(
                self.env, self.sender, request, operation, targets
            )
        except SoapFaultError:
            # Every member faulted: the message is undeliverable by this
            # recovery block. Park it so operators can replay it once the
            # fleet recovers (addressed to the VEP, so a replay re-runs the
            # whole selection/recovery path).
            from repro.wsbus.retry import DeadLetterEntry

            self.adaptation.dead_letters.add(
                DeadLetterEntry(
                    time=self.env.now,
                    envelope=request,
                    operation=operation,
                    target=self.address or self.name,
                    attempts_made=len(targets),
                    reason=f"broadcast to all {len(targets)} members of "
                    f"VEP {self.name!r} failed",
                )
            )
            raise
        return response, winner

    # -- utilities -----------------------------------------------------------------------

    def _resolve_operation(self, request: SoapEnvelope) -> str | None:
        action = request.addressing.action or ""
        operation = self.contract.operation_for_action(action)
        if operation is not None:
            return operation.name
        if action.startswith("urn:op:"):
            candidate = action.split(":", 2)[2]
            if self.contract.has_operation(candidate):
                return candidate
        if request.body is not None:
            candidate_op = self.contract.operation_for_element(request.body.name.local)
            if candidate_op is not None:
                return candidate_op.name
        return None

    def abstract_wsdl(self, indent: bool = True) -> str:
        """The abstract WSDL this VEP exposes for its contract.

        "A VEP... exposes an abstract WSDL for accessing the configured
        services" — the document advertises the VEP's own address, hiding
        the concrete members entirely.
        """
        from repro.wsdl.wsdl_xml import contract_to_wsdl

        return contract_to_wsdl(self.contract, endpoint_address=self.address, indent=indent)

    def synthetic_reply(
        self, request: SoapEnvelope, operation: str, reason: str
    ) -> SoapEnvelope:
        """A synthetic success used by skip policies."""
        from repro.xmlutils import Element

        body = Element(f"{operation}Response")
        body.add("skipped", text="true")
        body.add("reason", text=reason)
        return request.reply(body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualEndpoint {self.name} members={len(self.members)}>"
