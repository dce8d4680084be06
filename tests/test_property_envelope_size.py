"""``SoapEnvelope.size_bytes`` equals the serializer's byte count (hypothesis).

The size is computed by arithmetic, without writing XML. The oracle
serializes the envelope's wire form without its transparent headers and
measures it. Envelopes are drawn over the sizing edge cases: empty and
non-ASCII addressing fields, characters that need escaping in text and in
attribute values, ``{}``-keyed and ``xml:`` attributes, a registered
namespace, more than ten namespaces, visible and transparent headers (with
``mustUnderstand``, also on a header that already carries it), faults with
and without details, and padding. A second property repeats one namespace
signature across envelopes that differ only in text, and varies counts,
orders, ``mustUnderstand`` headers and faults around it, holding the
memoized prefix cost to a fresh prefix walk.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from conftest import measured_size, resolved_size_reference
from repro.soap import (
    SOAP_ENV_NS,
    AddressingHeaders,
    FaultCode,
    SoapEnvelope,
    SoapFault,
)
from repro.xmlutils import Element, QName
from repro.xmlutils.element import resolved_size, size_record

XML_NS = "http://www.w3.org/XML/1998/namespace"
XS_NS = "http://www.w3.org/2001/XMLSchema"
MUST_UNDERSTAND = QName(SOAP_ENV_NS, "mustUnderstand").clark()
URNS = [f"urn:n{index}" for index in range(14)]

names = st.text(alphabet=string.ascii_letters + "éß", min_size=1, max_size=8)
texts = st.text(alphabet=string.ascii_letters + " &<>\"'\r\n\t:/é—中", max_size=12)
namespaces = st.sampled_from(["", "", XS_NS, SOAP_ENV_NS, *URNS[:4]])
attribute_keys = st.one_of(
    names,
    names.map(lambda local: "{}" + local),
    names.map(lambda local: f"{{{XML_NS}}}{local}"),
    st.tuples(namespaces.filter(bool), names).map(lambda pair: "{%s}%s" % pair),
    st.just(MUST_UNDERSTAND),
)


@st.composite
def elements(draw, depth=0):
    element = Element(QName(draw(namespaces), draw(names)))
    for key in draw(st.lists(attribute_keys, max_size=3, unique=True)):
        element.attributes[key] = draw(texts)
    element.text = draw(st.none() | texts)
    if depth < 2:
        for child in draw(st.lists(elements(depth=depth + 1), max_size=3)):
            element.append(child)
    # Wide bodies: one child per namespace, past ns10.
    for uri in draw(st.lists(st.sampled_from(URNS), max_size=len(URNS), unique=True)):
        element.append(Element(QName(uri, "w")))
    return element


addressing = st.builds(
    AddressingHeaders,
    to=st.none() | texts,
    action=st.none() | texts,
    message_id=texts,
    relates_to=st.none() | texts,
    reply_to=st.none() | texts,
    process_instance_id=st.none() | texts,
)
faults = st.builds(
    SoapFault,
    code=st.sampled_from(list(FaultCode)),
    reason=texts,
    actor=st.none() | texts,
    detail=st.none() | elements(depth=1),
)


@st.composite
def envelopes(draw):
    content = draw(st.sampled_from(["body", "fault", "empty"]))
    envelope = SoapEnvelope(
        addressing=draw(addressing),
        body=draw(elements()) if content == "body" else None,
        fault=draw(faults) if content == "fault" else None,
        padding=draw(st.integers(0, 70_000)),
    )
    for _ in range(draw(st.integers(0, 3))):
        envelope.add_header(
            draw(elements(depth=1)),
            must_understand=draw(st.booleans()),
            transparent=draw(st.booleans()),
        )
    return envelope


@given(envelopes(), texts, elements(depth=1))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_size_bytes_equals_the_measured_visible_wire_form(envelope, to, new_body):
    assert envelope.size_bytes == measured_size(envelope)

    retargeted = envelope.copy()
    retargeted.addressing = envelope.addressing.retargeted(to)
    assert retargeted.size_bytes == measured_size(retargeted)

    replaced = envelope.copy()
    replaced.fault = None
    replaced.body = new_body
    assert replaced.size_bytes == measured_size(replaced)
    assert envelope.size_bytes == measured_size(envelope)


@st.composite
def signature_families(draw):
    """A namespace layout (order and count per URI), a header and a content
    choice, and several texts to fill the layout with."""
    uris = draw(
        st.lists(st.sampled_from([XS_NS, SOAP_ENV_NS, *URNS[:5]]), min_size=1, max_size=4)
    )
    count = draw(st.integers(1, 3))
    header = draw(st.none() | st.tuples(st.sampled_from(uris), st.booleans()))
    content = draw(st.sampled_from(["body", "fault", "empty"]))
    fillings = draw(st.lists(st.tuples(texts, texts, texts), min_size=2, max_size=4))
    return uris, count, header, content, fillings


def _family_member(uris, count, header, content, filling):
    to, action, text = filling
    body = Element(QName(uris[0], "root"))
    for uri in uris:
        for index in range(count):
            body.add(QName(uri, f"p{index}"), text=text)
    fault = None
    if content == "fault":
        fault = SoapFault(FaultCode.CLIENT, text, detail=body)
    envelope = SoapEnvelope(
        addressing=AddressingHeaders(to=to, action=action, message_id="m"),
        body=body if content == "body" else None,
        fault=fault,
    )
    if header is not None:
        uri, must_understand = header
        envelope.add_header(Element(QName(uri, "h"), text=text), must_understand=must_understand)
    return envelope


@given(signature_families(), st.randoms(use_true_random=False))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_memoized_signature_cost_equals_a_fresh_prefix_walk(family, rng):
    uris, count, header, content, fillings = family
    for filling in fillings:
        envelope = _family_member(uris, count, header, content, filling)
        assert envelope.size_bytes == measured_size(envelope)
    # The same parts as records, in document order and shuffled: every
    # signature's memoized cost equals the walk it replaced.
    records = []
    for filling in fillings:
        part = _family_member(uris, count, header, content, filling)
        if part.body is not None:
            records.append(size_record(part.body))
        if part.fault is not None:
            records.append(size_record(part.fault.to_element()))
        records.extend(size_record(block.element) for block in part.headers)
    for _ in range(2):
        assert resolved_size(records) == resolved_size_reference(records)
        rng.shuffle(records)
