"""Shared fixtures: a minimal echo/calc service world, plus the slow
reference twins (ElementTree serialization, the unmemoized prefix walk,
serialize-and-measure envelope sizing, the fully private envelope copy,
naive QoS window aggregates) that the fast paths are tested against."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from repro.services import ProcessingModel, ServiceContainer, SimulatedService
from repro.simulation import Environment, RandomSource
from repro.soap import SoapEnvelope, SoapHeader
from repro.transport import Network
from repro.wsdl import MessageSchema, Operation, PartSchema, ServiceContract
from repro.xmlutils import Element
from repro.xmlutils.element import (
    _QNameTable,
    _attrib_size,
    _to_etree,
    _utf8_size,
)


def serialize_xml_reference(element: Element) -> str:
    """The ``xml.etree`` serialization of ``element``: the reference that
    differential tests hold ``serialize_xml`` to, byte for byte."""
    return ET.tostring(_to_etree(element), encoding="unicode")


def resolved_size_reference(records) -> int:
    """``resolved_size`` without its signature memo: every call runs the
    records' namespace uses through a fresh prefix table."""
    table = _QNameTable()
    size = 0
    for fixed, uses in records:
        size += fixed
        for uri, count in uses:
            prefix = table._prefix(uri)
            if prefix:
                size += count * (_utf8_size(prefix) + 1)
    for uri, prefix in table.namespaces.items():
        size += 10 + _utf8_size(prefix) + _attrib_size(uri)
    return size


def measured_size(envelope: SoapEnvelope) -> int:
    """``envelope.size_bytes`` the slow way: serialize the envelope's wire
    form without its transparent headers, measure it, add the padding."""
    visible = replace(
        envelope, headers=[h for h in envelope.headers if not h.transparent]
    )
    return len(visible.to_xml().encode("utf-8")) + envelope.padding


def deep_copy(envelope: SoapEnvelope) -> SoapEnvelope:
    """A fully private copy of ``envelope``: header blocks and the body tree
    are cloned. The reference twin of the header-shallow
    ``SoapEnvelope.copy``, which shares them by reference."""
    return SoapEnvelope(
        addressing=envelope.addressing,
        headers=[
            SoapHeader(h.element.copy(), h.must_understand, h.transparent)
            for h in envelope.headers
        ],
        body=envelope.body.copy() if envelope.body is not None else None,
        fault=envelope.fault,
        padding=envelope.padding,
    )


class ReferenceQoSWindow:
    """One endpoint's QoS window, aggregated the naive way: the oracle
    that ``EndpointQoS`` is held to, float for float.

    Every query copies the window, filters it through the records'
    ``succeeded``/``duration`` properties and sorts; a merge dedupes by
    hashing the whole window and re-sorts by completion time.
    """

    def __init__(self, maxlen: int) -> None:
        self.maxlen = maxlen
        self.records: list = []
        self.total_invocations = 0
        self.total_failures = 0

    def observe(self, record) -> None:
        self.records = (self.records + [record])[-self.maxlen :]
        self.total_invocations += 1
        if not record.succeeded:
            self.total_failures += 1

    def merge(self, records) -> int:
        known = set(self.records)
        fresh = [r for r in records if r not in known]
        if not fresh:
            return 0
        for record in fresh:
            self.total_invocations += 1
            if not record.succeeded:
                self.total_failures += 1
        combined = sorted(
            self.records + fresh,
            key=lambda r: (r.finished_at, r.started_at, r.target, r.caller, r.operation),
        )
        self.records = combined[-self.maxlen :]
        return len(fresh)

    def _recent(self, window: int) -> list:
        records = list(self.records)
        return records[-window:] if window > 0 else records

    def sample_count(self, window: int = 0, successful_only: bool = False) -> int:
        records = self._recent(window)
        if successful_only:
            return sum(1 for r in records if r.succeeded)
        return len(records)

    def reliability(self, window: int = 0) -> float | None:
        records = self._recent(window)
        if not records:
            return None
        return sum(1 for r in records if r.succeeded) / len(records)

    def response_time(self, window: int = 0, aggregate: str = "mean") -> float | None:
        durations = sorted(r.duration for r in self._recent(window) if r.succeeded)
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


ECHO_CONTRACT = ServiceContract(
    service_type="Echo",
    operations=(
        Operation(
            name="echo",
            input=MessageSchema("echoRequest", (PartSchema("text"),)),
            output=MessageSchema("echoResponse", (PartSchema("text"),)),
        ),
        Operation(
            name="add",
            input=MessageSchema(
                "addRequest", (PartSchema("a", "int"), PartSchema("b", "int"))
            ),
            output=MessageSchema("addResponse", (PartSchema("sum", "int"),)),
        ),
    ),
)


class EchoService(SimulatedService):
    """Echoes text back; adds numbers."""

    contract = ECHO_CONTRACT

    def op_echo(self, payload, ctx):
        yield ctx.work()
        return ECHO_CONTRACT.operation("echo").output.build(
            text=f"{payload.child_text('text')}@{self.name}"
        )

    def op_add(self, payload, ctx):
        yield ctx.work()
        total = int(payload.child_text("a")) + int(payload.child_text("b"))
        return ECHO_CONTRACT.operation("add").output.build(sum=total)


class SlowEchoService(EchoService):
    """Takes a configurable long time to answer."""

    def __init__(self, *args, delay: float = 100.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = delay

    def op_echo(self, payload, ctx):
        yield ctx.env.timeout(self.delay)
        return ECHO_CONTRACT.operation("echo").output.build(text="late")


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def random_source():
    return RandomSource(42)


@pytest.fixture
def network(env, random_source):
    return Network(env, random_source)


@pytest.fixture
def container(env, network, random_source):
    return ServiceContainer(env, network, random_source)


@pytest.fixture
def echo_service(env, container):
    service = EchoService(
        env, "echo1", "http://test/echo", processing=ProcessingModel(base_seconds=0.005)
    )
    container.deploy(service)
    return service


def run_process(env, generator):
    """Drive a generator to completion on the simulation."""
    return env.run(env.process(generator))
