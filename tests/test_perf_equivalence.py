"""The simulation-kernel fast path must not change simulated metrics.

The envelope copy-on-write and arithmetic-sizing optimizations only touch
*how* values are computed, never the values: these tests pin that down by
running the same seeded experiment twice — once on the fast path, once with
the reference implementations (the fully private ``deep_copy`` and a
``size_bytes`` that serializes the visible wire form and measures it, both
in ``conftest``) monkeypatched back in — and asserting the per-record metric streams are identical, float for float.
"""

from dataclasses import asdict

from conftest import deep_copy, measured_size
from repro.experiments import run_vep_configuration
from repro.observability import InMemoryExporter, Tracer
from repro.soap import SoapEnvelope


def _run(seed, tracer=None):
    row, _bus, result = run_vep_configuration(
        seed, clients=2, requests=40, tracer=tracer
    )
    records = [
        (
            record.caller,
            record.target,
            record.operation,
            record.started_at,
            record.finished_at,
            record.outcome.value,
            record.fault_code.value if record.fault_code else None,
            record.request_bytes,
            record.response_bytes,
        )
        for record in result.records
    ]
    return asdict(row), records


def _traced_run(seed):
    tracer = Tracer()
    tracer.add_exporter(InMemoryExporter())
    try:
        return _run(seed, tracer=tracer)
    finally:
        tracer.close()


def test_fast_path_metrics_identical_to_reference(monkeypatch):
    fast = _run(seed=11)
    with monkeypatch.context() as patch:
        patch.setattr(SoapEnvelope, "copy", deep_copy)
        patch.setattr(SoapEnvelope, "size_bytes", property(measured_size))
        reference = _run(seed=11)
    assert fast[0] == reference[0]  # Table1Row
    assert fast[1] == reference[1]  # full per-record stream


def test_traced_fast_path_metrics_identical_to_reference(monkeypatch):
    # Every hop carries a transparent masc:TraceContext header here, so an
    # oracle that measured the whole wire form (headers included) would
    # disagree with size_bytes on every record.
    fast = _traced_run(seed=11)
    with monkeypatch.context() as patch:
        patch.setattr(SoapEnvelope, "copy", deep_copy)
        patch.setattr(SoapEnvelope, "size_bytes", property(measured_size))
        reference = _traced_run(seed=11)
    assert fast[0] == reference[0]  # Table1Row
    assert fast[1] == reference[1]  # full per-record stream
    assert fast == _run(seed=11)  # and tracing changes nothing simulated


def test_copy_and_deep_copy_serialize_identically():
    from repro.xmlutils import Element

    envelope = SoapEnvelope.request(
        "http://svc/a", "urn:op:x", Element("q", text="payload"), padding=256
    )
    envelope.add_header(Element("h", text="meta"))
    assert envelope.copy().to_xml() == deep_copy(envelope).to_xml()
    assert envelope.copy().size_bytes == deep_copy(envelope).size_bytes
