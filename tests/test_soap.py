"""Unit tests for the SOAP envelope model."""

import pytest

from conftest import deep_copy, measured_size, serialize_xml_reference
from repro.soap import (
    AddressingHeaders,
    SOAP_ENV_NS,
    FaultCode,
    SoapEnvelope,
    SoapFault,
    SoapFaultError,
    new_message_id,
)
from repro.soap.faults import TRANSIENT_FAULT_CODES, timeout, unavailable
from repro.xmlutils import Element, QName

XML_NS = "http://www.w3.org/XML/1998/namespace"
XS_NS = "http://www.w3.org/2001/XMLSchema"
MUST_UNDERSTAND = QName(SOAP_ENV_NS, "mustUnderstand").clark()


class TestAddressing:
    def test_message_ids_unique(self):
        assert new_message_id() != new_message_id()

    def test_for_reply_correlates(self):
        request = AddressingHeaders(to="http://svc", action="urn:op:go", reply_to="http://me")
        reply = request.for_reply()
        assert reply.relates_to == request.message_id
        assert reply.to == "http://me"
        assert reply.action == "urn:op:goResponse"

    def test_with_process_instance(self):
        headers = AddressingHeaders().with_process_instance("proc-1")
        assert headers.process_instance_id == "proc-1"

    def test_process_instance_survives_reply(self):
        request = AddressingHeaders().with_process_instance("proc-9")
        assert request.for_reply().process_instance_id == "proc-9"

    def test_retargeted_mints_new_message_id(self):
        original = AddressingHeaders(to="http://a")
        copy = original.retargeted("http://b")
        assert copy.to == "http://b"
        assert copy.message_id != original.message_id

    def test_element_round_trip(self):
        headers = AddressingHeaders(
            to="http://svc", action="urn:x", reply_to="http://me"
        ).with_process_instance("proc-3")
        rebuilt = AddressingHeaders.from_elements(headers.to_elements())
        assert rebuilt == headers


class TestEnvelope:
    def test_request_reply_cycle(self):
        body = Element("ping", children=[Element("x", text="1")])
        request = SoapEnvelope.request("http://svc", "urn:op:ping", body)
        reply = request.reply(Element("pong"))
        assert reply.addressing.relates_to == request.addressing.message_id
        assert reply.body.name.local == "pong"

    def test_body_and_fault_mutually_exclusive(self):
        with pytest.raises(ValueError):
            SoapEnvelope(
                body=Element("x"),
                fault=SoapFault(FaultCode.SERVER, "boom"),
            )

    def test_fault_reply(self):
        request = SoapEnvelope.request("http://svc", "urn:a", Element("q"))
        fault_reply = request.reply_fault(SoapFault(FaultCode.TIMEOUT, "too slow"))
        assert fault_reply.is_fault
        assert fault_reply.fault.code is FaultCode.TIMEOUT

    def test_copy_is_header_shallow(self):
        # copy() shares the body tree (the per-attempt fast path) but owns
        # its headers list: adding headers to the copy never leaks back.
        envelope = SoapEnvelope.request("http://svc", "urn:a", Element("q", text="v"))
        duplicate = envelope.copy()
        assert duplicate.body is envelope.body
        duplicate.add_header(Element("extra"))
        assert envelope.headers == []
        # Replacing the copy's body never touches the original.
        duplicate.body = Element("q", text="changed")
        assert envelope.body.text == "v"

    def test_deep_copy_is_private(self):
        envelope = SoapEnvelope.request("http://svc", "urn:a", Element("q", text="v"))
        envelope.add_header(Element("h", text="x"))
        duplicate = deep_copy(envelope)
        assert duplicate.to_xml() == envelope.to_xml()
        duplicate.body.text = "changed"
        duplicate.headers[0].element.text = "y"
        assert envelope.body.text == "v"
        assert envelope.headers[0].element.text == "x"

    def test_xml_round_trip(self):
        body = Element("order", children=[Element("amount", text="99")])
        envelope = SoapEnvelope.request("http://svc", "urn:op:order", body, padding=0)
        envelope.addressing = envelope.addressing.with_process_instance("proc-5")
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert parsed.addressing.to == "http://svc"
        assert parsed.addressing.process_instance_id == "proc-5"
        assert parsed.body.structurally_equal(envelope.body)

    def test_fault_xml_round_trip(self):
        envelope = SoapEnvelope(fault=SoapFault(FaultCode.SERVICE_UNAVAILABLE, "down", actor="http://x"))
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert parsed.is_fault
        assert parsed.fault.code is FaultCode.SERVICE_UNAVAILABLE
        assert parsed.fault.reason == "down"
        assert parsed.fault.actor == "http://x"

    def test_extension_header_round_trip(self):
        envelope = SoapEnvelope(body=Element("b"))
        envelope.add_header(Element("{urn:ext}Token", text="secret"), must_understand=True)
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        header = parsed.header("{urn:ext}Token")
        assert header is not None and header.text == "secret"
        assert parsed.headers[0].must_understand

    def test_padding_inflates_size(self):
        envelope = SoapEnvelope(body=Element("b"))
        bare = envelope.size_bytes
        envelope.padding = 1024
        assert envelope.size_bytes == bare + 1024

    def test_size_reflects_body_content(self):
        small = SoapEnvelope(body=Element("b"))
        big_body = Element("b")
        for index in range(50):
            big_body.add(f"part{index}", text="x" * 50)
        big = SoapEnvelope(body=big_body)
        assert big.size_bytes > small.size_bytes


class TestFaults:
    def test_transient_classification(self):
        assert FaultCode.TIMEOUT in TRANSIENT_FAULT_CODES
        assert SoapFault(FaultCode.SERVICE_UNAVAILABLE, "x").is_transient
        assert not SoapFault(FaultCode.CLIENT, "x").is_transient

    def test_exception_carries_fault(self):
        fault = SoapFault(FaultCode.SERVER, "oops")
        error = fault.to_exception()
        assert isinstance(error, SoapFaultError)
        assert error.fault is fault
        assert "oops" in str(error)

    def test_unknown_fault_code_parses_as_server(self):
        element = SoapFault(FaultCode.SERVER, "r").to_element()
        element.find("faultcode").text = "{urn:custom}Weird"
        parsed = SoapFault.from_element(element)
        assert parsed.code is FaultCode.SERVER

    def test_fault_detail_round_trip(self):
        detail = Element("info", children=[Element("k", text="v")])
        fault = SoapFault(FaultCode.SERVICE_FAILURE, "bad", detail=detail)
        parsed = SoapFault.from_element(fault.to_element())
        assert parsed.detail.structurally_equal(detail)

    def test_convenience_constructors(self):
        assert unavailable("down").code is FaultCode.SERVICE_UNAVAILABLE
        assert timeout("slow").code is FaultCode.TIMEOUT

    def test_qname_namespaced(self):
        assert FaultCode.SLA_VIOLATION.qname.local == "SLAViolation"
        assert FaultCode.SLA_VIOLATION.qname.namespace


class TestEnvelopeSharingSafety:
    """Envelope interning/borrowing must never leak state across messages."""

    def test_wire_serialization_matches_copying_reference(self):
        envelope = SoapEnvelope.request(
            "http://svc/a", "urn:op:x", Element("q", text="5 < 6 & more")
        )
        envelope.add_header(Element("{urn:ext}h", text="meta"), must_understand=True)
        assert envelope.to_xml() == serialize_xml_reference(envelope.to_element())

    def test_fault_wire_serialization_matches_copying_reference(self):
        request = SoapEnvelope.request("http://svc/a", "urn:op:x", Element("q"))
        reply = request.reply_fault(SoapFault(FaultCode.TIMEOUT, "too slow"))
        assert reply.to_xml() == serialize_xml_reference(reply.to_element())

    def test_must_understand_serialization_does_not_mutate_the_header(self):
        header_element = Element("{urn:ext}h", text="meta")
        envelope = SoapEnvelope.request("http://svc/a", "urn:op:x", Element("q"))
        envelope.add_header(header_element, must_understand=True)
        assert "mustUnderstand" in envelope.to_xml()
        # The wire view wraps the header; the caller's element is untouched.
        assert header_element.attributes == {}
        assert header_element.parent is None

    def test_serialization_does_not_reparent_the_shared_body(self):
        body = Element("q", text="payload")
        envelope = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        envelope.to_xml()
        envelope.size_bytes
        assert body.parent is None
        assert envelope.body is body

    def test_reply_gets_fresh_headers_not_the_request_headers(self):
        request = SoapEnvelope.request("http://svc/a", "urn:op:x", Element("q"))
        request.add_header(Element("{urn:ext}h", text="meta"))
        reply = request.reply(Element("ok"))
        assert reply.headers == []
        reply.add_header(Element("{urn:ext}other"))
        assert len(request.headers) == 1

    def test_shared_body_size_memo_tracks_addressing_shape(self):
        # Two envelopes sharing one body tree but differing in the length
        # of an addressing field must not share a memoized size.
        body = Element("q", text="payload")
        short = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        long = SoapEnvelope.request("http://svc/a-much-longer-address", "urn:op:x", body)
        delta = len("http://svc/a-much-longer-address") - len("http://svc/a")
        assert long.size_bytes - short.size_bytes == delta
        assert short.size_bytes == len(short.to_xml().encode("utf-8"))
        assert long.size_bytes == len(long.to_xml().encode("utf-8"))

    def test_size_memo_same_shape_is_exact_not_stale(self):
        # Same presence pattern and field lengths -> memo hit; the hit must
        # still equal a from-scratch serialization of the second envelope
        # (message ids are fixed-width, so the shapes genuinely match).
        body = Element("q", text="payload")
        first = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        second = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        assert first.size_bytes == second.size_bytes
        assert second.size_bytes == len(second.to_xml().encode("utf-8"))

    def test_copy_on_write_body_replacement_invalidates_size(self):
        body = Element("q", text="x")
        original = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        duplicate = original.copy()
        baseline = original.size_bytes
        assert duplicate.size_bytes == baseline
        duplicate.body = Element("q", text="x" * 100)
        assert duplicate.size_bytes == baseline + 99
        assert original.size_bytes == baseline
        assert original.body is body

    def test_padding_applied_after_memoized_size(self):
        body = Element("q", text="payload")
        plain = SoapEnvelope.request("http://svc/a", "urn:op:x", body)
        padded = SoapEnvelope.request("http://svc/a", "urn:op:x", body, padding=4096)
        assert padded.size_bytes == plain.size_bytes + 4096

    def test_interned_payloads_are_shared_but_validation_safe(self):
        # Workload generators intern constant payloads: same parts, same
        # Element object. Envelopes built around it must still serialize
        # and size independently.
        from repro.casestudies.scm import RETAILER_CONTRACT

        schema = RETAILER_CONTRACT.operation("getCatalog").input
        first = schema.build_interned()
        second = schema.build_interned()
        assert first is second
        distinct = schema.build()
        assert distinct is not first
        assert distinct.structurally_equal(first)
        a = SoapEnvelope.request("http://svc/a", "urn:op:getCatalog", first)
        b = SoapEnvelope.request("http://svc/b-longer", "urn:op:getCatalog", second)
        assert a.size_bytes == len(a.to_xml().encode("utf-8"))
        assert b.size_bytes == len(b.to_xml().encode("utf-8"))


class TestArithmeticSizing:
    """``size_bytes`` is computed, never serialized: each edge case below
    must still equal the serializer-measured size of the visible wire form."""

    def _request(self, body=None, **addressing):
        envelope = SoapEnvelope.request(
            "http://svc/a", "urn:op:x", body if body is not None else Element("q")
        )
        if addressing:
            envelope.addressing = AddressingHeaders(**addressing)
        return envelope

    def test_empty_string_addressing_field_uses_the_short_form(self):
        envelope = self._request(to="", action="urn:op:x", reply_to="")
        assert "To />" in envelope.to_xml()
        assert envelope.size_bytes == measured_size(envelope)

    def test_all_addressing_fields_empty(self):
        fields = ("to", "action", "message_id", "relates_to", "reply_to")
        envelope = SoapEnvelope(
            addressing=AddressingHeaders(
                **dict.fromkeys(fields, ""), process_instance_id=""
            )
        )
        assert envelope.size_bytes == measured_size(envelope)

    def test_non_ascii_text_in_body_and_addressing(self):
        body = Element("{urn:ordre}commande", text="héllo — 中文")
        body.add("détail", text="naïve")
        envelope = self._request(
            body, to="http://svc/é", action="urn:op:数", process_instance_id="pi-ü"
        )
        assert envelope.size_bytes == measured_size(envelope)
        assert envelope.size_bytes > len(envelope.to_xml())  # bytes, not chars

    def test_escaped_characters_in_text_and_attributes(self):
        special = 'a & b < c > d " e \r f \n g \t h'
        body = Element("q", attributes={"note": special}, text=special)
        body.add("inner", text=special, flag=special)
        envelope = self._request(body, to="http://svc/a?x=1&y=<2>", action=special)
        header = Element("{urn:ext}h", attributes={"v": special}, text=special)
        envelope.add_header(header)
        assert envelope.size_bytes == measured_size(envelope)

    def test_empty_keyed_and_xml_attributes(self):
        body = Element(
            "{urn:x}q",
            attributes={"{}plain": "v", "{%s}lang" % XML_NS: "en"},
        )
        body.append(Element("c", attributes={"{%s}space" % XML_NS: "preserve"}))
        envelope = self._request(body)
        assert "xml:lang" in envelope.to_xml()
        assert envelope.size_bytes == measured_size(envelope)

    def test_registered_namespace_inside_the_body(self):
        body = Element("{urn:x}q")
        body.add(QName(XS_NS, "element"), type="xs:string")
        envelope = self._request(body)
        assert "xs:element" in envelope.to_xml()
        assert envelope.size_bytes == measured_size(envelope)

    def test_more_than_ten_namespaces(self):
        body = Element("{urn:root}q")
        for index in range(12):
            body.add(QName(f"urn:n{index}", "c"), text=str(index))
        envelope = self._request(body, to="http://svc/a", process_instance_id="p")
        assert "ns10:" in envelope.to_xml()
        assert envelope.size_bytes == measured_size(envelope)

    def test_must_understand_header_that_already_carries_the_attribute(self):
        envelope = self._request()
        envelope.add_header(Element("{urn:ext}h", text="meta"), must_understand=True)
        parsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert parsed.headers[0].must_understand
        assert MUST_UNDERSTAND in parsed.headers[0].element.attributes
        assert parsed.size_bytes == measured_size(parsed)
        assert parsed.size_bytes == envelope.size_bytes

    def test_must_understand_overwrites_a_carried_value(self):
        envelope = self._request()
        header = Element("{urn:ext}h", attributes={MUST_UNDERSTAND: "false"})
        envelope.add_header(header, must_understand=True)
        assert envelope.size_bytes == measured_size(envelope)
        plain = self._request()
        plain.add_header(Element("{urn:ext}h", attributes={MUST_UNDERSTAND: "false"}))
        assert plain.size_bytes == measured_size(plain)

    def test_fault_with_a_detail_element(self):
        detail = Element("{urn:diag}info", attributes={"{urn:diag}at": "t<1>"})
        detail.add("k", text="v & w")
        request = self._request()
        reply = request.reply_fault(
            SoapFault(
                FaultCode.SERVICE_FAILURE, "bad — ü", actor="svc", detail=detail
            )
        )
        assert reply.size_bytes == measured_size(reply)
        bare = request.reply_fault(SoapFault(FaultCode.TIMEOUT, ""))
        assert bare.size_bytes == measured_size(bare)

    def test_padding_is_added_to_every_path(self):
        body = Element("q", text="payload")
        padded = SoapEnvelope.request("http://svc/a", "urn:op:x", body, padding=777)
        padded.add_header(Element("{urn:ext}h"))
        assert padded.size_bytes == measured_size(padded)
        fault = padded.reply_fault(SoapFault(FaultCode.TIMEOUT, "slow"))
        fault.padding = 5
        assert fault.size_bytes == measured_size(fault)

    def test_transparent_headers_are_on_the_wire_but_not_in_the_size(self):
        envelope = self._request()
        untraced = envelope.size_bytes
        envelope.add_header(Element("{urn:trace}ctx", text="00-1"), transparent=True)
        assert envelope.size_bytes == untraced == measured_size(envelope)
        assert envelope.size_bytes < len(envelope.to_xml().encode("utf-8"))

    def test_size_bytes_never_serializes(self, monkeypatch):
        import repro.soap.envelope as envelope_module
        import repro.xmlutils.element as element_module

        def refuse(*_args, **_kwargs):
            raise AssertionError("size_bytes serialized the envelope")

        monkeypatch.setattr(envelope_module, "serialize_xml", refuse)
        monkeypatch.setattr(element_module, "_write_element", refuse)
        envelope = self._request(Element("{urn:x}q", text="t"), to="")
        envelope.add_header(Element("{urn:ext}h"), must_understand=True)
        assert envelope.size_bytes > 0
        assert envelope.reply_fault(SoapFault(FaultCode.TIMEOUT, "t")).size_bytes > 0

    def test_addressing_records_are_memoized_per_shape_and_bounded(self):
        import repro.soap.envelope as envelope_module

        limit = envelope_module._ADDRESSING_LIMIT
        for index in range(limit + 5):
            envelope = self._request(to="t" * index, action="urn:op:x", message_id="m")
            assert envelope.size_bytes == measured_size(envelope)
            assert len(envelope_module._ADDRESSING_RECORDS) <= limit
        again = self._request(to="t" * 3, action="urn:op:x", message_id="m")
        assert again.size_bytes == measured_size(again)

    def test_bare_sizes_are_memoized_per_shape_and_signature_and_bounded(self):
        import repro.soap.envelope as envelope_module

        limit = envelope_module._BARE_SIZES.limit
        for index in range(limit + 5):
            body = Element("{urn:x}q", text="v" * (index % 7))
            body.add(f"{{urn:n{index % 3}}}p", text="w")
            envelope = self._request(body, to="t" * index, action="urn:op:x", message_id="m")
            assert envelope.size_bytes == measured_size(envelope)
            assert len(envelope_module._BARE_SIZES) <= limit

    def test_registering_a_prefix_resizes_shared_and_fresh_bodies(self):
        import xml.etree.ElementTree as ET

        uri = "urn:registered:envelope"
        shared = Element(f"{{{uri}}}q", text="x")
        sized = [self._request(shared), self._request(Element(f"{{{uri}}}q", text="y"))]
        assert [envelope.size_bytes for envelope in sized] == [
            measured_size(envelope) for envelope in sized
        ]
        ET.register_namespace("latecomer", uri)
        try:
            for body in (shared, Element(f"{{{uri}}}q", text="z")):
                envelope = self._request(body)
                assert envelope.size_bytes == measured_size(envelope)
        finally:
            del ET.register_namespace._namespace_map[uri]
        envelope = self._request(shared)
        assert envelope.size_bytes == measured_size(envelope)
