"""Service container: binds services to network addresses.

The container is the provider-side hosting environment (the paper deployed
services in Tomcat/Axis). It adapts incoming SOAP envelopes to operation
dispatch, validates requests against the service contract, converts raised
:class:`~repro.soap.SoapFaultError` into fault replies and accounts for
processing time.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.simulation import Environment, RandomSource
from repro.soap import FaultCode, SoapEnvelope, SoapFault, SoapFaultError
from repro.traffic.idempotency import IdempotencyStore, idempotency_key_of
from repro.transport import Network
from repro.wsdl import ContractViolation

from repro.services.invoker import Invoker
from repro.services.service import SimulatedService

__all__ = ["ServiceContainer"]


class ServiceContainer:
    """Hosts simulated services and wires them to the network."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        random_source: RandomSource | None = None,
        validate_requests: bool = True,
    ) -> None:
        self.env = env
        self.network = network
        self.random_source = random_source or RandomSource()
        self.validate_requests = validate_requests
        self.services: dict[str, SimulatedService] = {}
        #: Provider-side dedupe store: requests stamped with an
        #: idempotency key execute at most once per hosted service.
        self.idempotency = IdempotencyStore(env)

    def deploy(self, service: SimulatedService) -> SimulatedService:
        """Host ``service`` at its address and give it client-side plumbing."""
        if service.address in self.services:
            raise ValueError(f"address {service.address!r} already hosts a service")
        if service.rng is None:
            service.rng = self.random_source.stream(f"service.{service.name}")
        service.invoker = Invoker(self.env, self.network, caller=service.name)
        self.services[service.address] = service
        self.network.register(service.address, self._handler_for(service))
        return service

    def undeploy(self, address: str) -> None:
        self.services.pop(address, None)
        self.network.unregister(address)

    def service_at(self, address: str) -> SimulatedService | None:
        return self.services.get(address)

    def _handler_for(self, service: SimulatedService):
        def handle(request: SoapEnvelope) -> Generator:
            # Headerless requests (the overwhelmingly common case) take
            # the direct path; only stamped ones pay the dedupe lookup.
            if request.headers:
                key = idempotency_key_of(request)
                if key is not None:
                    return (
                        yield from self.idempotency.execute_once(
                            service.address, request, key, execute
                        )
                    )
            return (yield from execute(request))

        def execute(request: SoapEnvelope) -> Generator:
            not_understood = [
                header.element.name.clark()
                for header in request.headers
                if header.must_understand
                and header.element.name.clark() not in service.understood_headers
            ]
            if not_understood:
                service.faults_raised += 1
                return request.reply_fault(
                    SoapFault(
                        FaultCode.CLIENT,
                        "mustUnderstand header(s) not understood: "
                        + ", ".join(not_understood),
                        source=service.name,
                    )
                )
            operation = self._resolve_operation(service, request)
            if isinstance(operation, SoapFault):
                service.faults_raised += 1
                return request.reply_fault(operation)
            if self.validate_requests and request.body is not None:
                try:
                    service.contract.validate_request(operation, request.body)
                except ContractViolation as violation:
                    service.faults_raised += 1
                    return request.reply_fault(
                        SoapFault(
                            FaultCode.CLIENT,
                            f"contract violation: {'; '.join(violation.violations)}",
                            source=service.name,
                        )
                    )
            try:
                # Run the operation body inline: dispatch is pure request-scope
                # work, so driving its generator from the handler process saves
                # a process allocation (and its bootstrap/completion events)
                # on every single request.
                payload = yield from service.dispatch(operation, request)
            except SoapFaultError as error:
                service.faults_raised += 1
                fault = error.fault
                if fault.source is None:
                    fault.source = service.name
                return request.reply_fault(fault)
            return request.reply(payload)

        return handle

    @staticmethod
    def _resolve_operation(
        service: SimulatedService, request: SoapEnvelope
    ) -> str | SoapFault:
        action = request.addressing.action or ""
        operation = service.contract.operation_for_action(action)
        if operation is not None:
            return operation.name
        # Fall back to the payload's root element name matching an input
        # message, for callers that do not set a WSA action.
        if request.body is not None:
            candidate = service.contract.operation_for_element(request.body.name.local)
            if candidate is not None:
                return candidate.name
        return SoapFault(
            FaultCode.CLIENT,
            f"no operation of {service.service_type!r} matches action {action!r}",
            source=service.name,
        )
