"""SOAP envelope model.

An envelope is addressing headers + optional extension headers + a body that
holds either a payload element or a fault. Serialization produces real XML;
the serialized size feeds the transport's size-dependent latency model
(Figure 5 of the paper sweeps request sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.soap.addressing import ADDRESSING_BLOCKS, AddressingHeaders
from repro.soap.faults import SoapFault
from repro.xmlutils import Element, QName, XmlError, parse_xml, serialize_xml
from repro.xmlutils.element import (
    PrefixMemo,
    SizeRecord,
    _cdata_size,
    resolved_size,
    size_record,
)

__all__ = ["SOAP_ENV_NS", "SoapEnvelope", "SoapHeader"]

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"

_ENVELOPE_NAME = QName(SOAP_ENV_NS, "Envelope")
_HEADER_NAME = QName(SOAP_ENV_NS, "Header")
_BODY_NAME = QName(SOAP_ENV_NS, "Body")
_MUST_UNDERSTAND_ATTR = QName(SOAP_ENV_NS, "mustUnderstand").clark()


def _borrowed(
    name: QName,
    children: list[Element],
    attributes: dict[str, str] | None = None,
    text: str | None = None,
) -> Element:
    """A throwaway element whose children are shared by reference.

    :meth:`Element.append` reparents, so building a wire tree with the public
    API would detach shared payload/header subtrees from their owners. This
    constructs the node directly instead; the result is a read-only view for
    the serializer (which never touches ``parent``) and must not be mutated.
    """
    node = Element.__new__(Element)
    node.name = name
    node.attributes = attributes if attributes is not None else {}
    node.text = text
    node.parent = None
    node._children = children
    return node


#: Size records memoized per shared *body* tree, keyed by body identity.
#: Workload generators intern their constant payloads, so thousands of
#: envelopes share one body, and its subtree is counted once. Entries die
#: with the body tree. Like the size cache itself, the memo relies on the
#: middleware's copy-on-write discipline: shared body trees are replaced,
#: never edited in place.
_BODY_RECORDS: "WeakKeyDictionary[Element, SizeRecord]" = WeakKeyDictionary()

#: Byte length, apart from the content's own fixed bytes, of an envelope
#: with no visible extension header, by (addressing shape, content
#: ``uses``): the scaffold, the addressing blocks and every prefix and
#: declaration follow from those two alone. Fresh payloads of one message
#: type share an entry, so their size is a record count plus one lookup.
_BARE_SIZES = PrefixMemo(1024)


def _escaped_size(text: str | None) -> int | None:
    # Inlined _cdata_size: this runs six times per size-memo lookup.
    # Addressing values are almost always plain ASCII URIs/URNs, where the
    # escaped UTF-8 length is just the string length.
    if text is None:
        return None
    if "&" not in text and "<" not in text and ">" not in text and text.isascii():
        return len(text)
    return _cdata_size(text)


# -- arithmetic sizing -------------------------------------------------------------
#
# The serialized size of an envelope, composed from size records of its
# parts in document order (see ``repro.xmlutils.element.resolved_size``):
# the Envelope/Header/Body scaffold, the addressing blocks, the visible
# extension headers and the body or fault. The scaffold and the addressing
# blocks are flat, so their bytes follow from name and text lengths alone;
# the functions below mirror the structure ``_wire_element`` builds.


def _closed(local: str) -> int:
    """Bytes of ``<local>`` + ``</local>`` (prefixes aside) around content."""
    return 2 * len(local) + 5


def _empty(local: str) -> int:
    """Bytes of ``<local />`` (prefix aside)."""
    return len(local) + 4


#: (with text, empty, namespace) of each addressing block, in document order.
_ADDRESSING_BLOCK_SIZES = tuple(
    (_closed(name.local), _empty(name.local), name.namespace)
    for _, name in ADDRESSING_BLOCKS
)


#: Addressing records by shape. A run sees a handful of shapes (the
#: message-id and address lengths barely vary), so the record is built once
#: per shape; emptied when it reaches ``_ADDRESSING_LIMIT`` entries.
_ADDRESSING_RECORDS: dict[tuple, SizeRecord] = {}
_ADDRESSING_LIMIT = 1024


def _addressing_record(shape: tuple) -> SizeRecord:
    """The addressing blocks' record, from their escaped text lengths."""
    record = _ADDRESSING_RECORDS.get(shape)
    if record is not None:
        return record
    size = 0
    uses: dict[str, int] = {}
    for length, (closed, empty, uri) in zip(shape, _ADDRESSING_BLOCK_SIZES):
        if length is None:
            continue
        if length:
            size += closed + length
            names = 2
        else:  # the short <wsa:X /> form
            size += empty
            names = 1
        uses[uri] = uses.get(uri, 0) + names
    record = size, tuple(uses.items())
    if len(_ADDRESSING_RECORDS) >= _ADDRESSING_LIMIT:
        _ADDRESSING_RECORDS.clear()
    _ADDRESSING_RECORDS[shape] = record
    return record


def _envelope_size(
    shape: tuple, headers: list["SoapHeader"], content: SizeRecord | None
) -> int:
    """Serialized byte length of an envelope: its addressing ``shape``,
    visible extension ``headers`` and body or fault ``content`` record."""
    addressing = _addressing_record(shape)
    records = [addressing]
    records.extend(size_record(header._wire_element()) for header in headers)
    soap_names = 2  # <soapenv:Envelope> and its end tag
    size = _closed("Envelope")
    if addressing[0] or headers:
        size += _closed("Header")
        soap_names += 2
    else:
        size += _empty("Header")
        soap_names += 1
    if content is not None:
        records.append(content)
        size += _closed("Body")
        soap_names += 2
    else:
        size += _empty("Body")
        soap_names += 1
    # The scaffold goes first: the Envelope tag is the document's first name.
    return resolved_size([(size, ((SOAP_ENV_NS, soap_names),)), *records])


@dataclass
class SoapHeader:
    """An extension header block (anything beyond addressing)."""

    element: Element
    must_understand: bool = False
    #: Transparent headers travel in the serialized XML but are excluded
    #: from :attr:`SoapEnvelope.size_bytes`. Observability metadata (the
    #: ``masc:TraceContext`` header) is stamped transparent so the
    #: transport's size-dependent latency model sees identical bytes
    #: whether tracing is on or off — simulated timings never depend on
    #: whether anyone is watching.
    transparent: bool = False

    def _wire_element(self) -> Element:
        """The block as sent: the element itself, or with ``mustUnderstand``
        set, a read-only wrapper that shares its subtree and adds the
        attribute (the caller's element is never mutated)."""
        element = self.element
        if not self.must_understand:
            return element
        return _borrowed(
            element.name,
            element._children,
            {**element.attributes, _MUST_UNDERSTAND_ATTR: "1"},
            element.text,
        )


#: Fields whose reassignment changes the serialized form (and therefore
#: invalidates the cached :attr:`SoapEnvelope.size_bytes`).
_SIZE_FIELDS = frozenset({"addressing", "headers", "body", "fault", "padding"})


@dataclass
class SoapEnvelope:
    """One SOAP message: headers plus a body payload or fault."""

    addressing: AddressingHeaders = field(default_factory=AddressingHeaders)
    headers: list[SoapHeader] = field(default_factory=list)
    body: Element | None = None
    fault: SoapFault | None = None
    #: Extra padding bytes, used by workload generators to sweep request
    #: sizes without fabricating huge payload trees.
    padding: int = 0
    #: Cached serialized size; recomputed lazily after any field write.
    _size_cache: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.body is not None and self.fault is not None:
            raise ValueError("an envelope carries either a body payload or a fault, not both")

    def __setattr__(self, name: str, value) -> None:
        if name in _SIZE_FIELDS:
            object.__setattr__(self, "_size_cache", None)
        object.__setattr__(self, name, value)

    # -- classification --------------------------------------------------------

    @property
    def is_fault(self) -> bool:
        return self.fault is not None

    @property
    def action(self) -> str | None:
        return self.addressing.action

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def _fresh(
        cls,
        addressing: AddressingHeaders,
        body: Element | None,
        fault: SoapFault | None,
        padding: int,
    ) -> "SoapEnvelope":
        # The construction fast path: the dataclass __init__ funnels every
        # field write through the cache-invalidation __setattr__, which is
        # pointless for a brand-new envelope. Envelope construction happens
        # several times per simulated request, so the builders below skip it.
        envelope = cls.__new__(cls)
        state = envelope.__dict__
        state["addressing"] = addressing
        state["headers"] = []
        state["body"] = body
        state["fault"] = fault
        state["padding"] = padding
        state["_size_cache"] = None
        return envelope

    @classmethod
    def request(
        cls,
        to: str,
        action: str,
        body: Element,
        reply_to: str | None = None,
        padding: int = 0,
        process_instance_id: str | None = None,
    ) -> "SoapEnvelope":
        """A request message addressed to ``to`` with the given WSA action."""
        return cls._fresh(
            AddressingHeaders(
                to=to,
                action=action,
                reply_to=reply_to,
                process_instance_id=process_instance_id,
            ),
            body,
            None,
            padding,
        )

    def reply(self, body: Element, padding: int = 0) -> "SoapEnvelope":
        """A success reply correlated to this request."""
        return SoapEnvelope._fresh(self.addressing.for_reply(), body, None, padding)

    def reply_fault(self, fault: SoapFault) -> "SoapEnvelope":
        """A fault reply correlated to this request."""
        return SoapEnvelope._fresh(self.addressing.for_reply(), None, fault, 0)

    def copy(self) -> "SoapEnvelope":
        """A header-shallow working copy (the per-attempt retarget copy).

        The headers *list* is fresh — adding headers to the copy never leaks
        into the original — but the header blocks, body and fault are shared
        by reference. That is safe because every mutation site in the
        middleware replaces ``body``/``addressing`` wholesale instead of
        editing the shared element tree in place (pipeline modules that
        enrich a payload copy it first), and it removes a deep element-tree
        copy from every delivery attempt made by ``WsBus._send`` and
        ``RetryQueue._redeliver``. The serialized-size cache carries over;
        reassigning any content field on the copy invalidates it. A caller
        that must edit a tree in place copies that tree first
        (``Element.copy``) and assigns the copy.
        """
        duplicate = SoapEnvelope.__new__(SoapEnvelope)
        state = duplicate.__dict__
        state.update(self.__dict__)
        state["headers"] = list(self.headers)
        return duplicate

    def header(self, name: QName | str) -> Element | None:
        """The first extension header with the given qualified name."""
        wanted = name if isinstance(name, QName) else QName.parse(name)
        for header in self.headers:
            if header.element.name == wanted:
                return header.element
        return None

    def add_header(
        self,
        element: Element,
        must_understand: bool = False,
        transparent: bool = False,
    ) -> None:
        self.headers.append(SoapHeader(element, must_understand, transparent))
        self._size_cache = None

    # -- XML mapping --------------------------------------------------------------

    def to_element(self) -> Element:
        envelope = Element(QName(SOAP_ENV_NS, "Envelope"))
        header = envelope.add(QName(SOAP_ENV_NS, "Header"))
        for block in self.addressing.to_elements():
            header.append(block)
        for extension in self.headers:
            child = extension.element.copy()
            if extension.must_understand:
                child.attributes[QName(SOAP_ENV_NS, "mustUnderstand").clark()] = "1"
            header.append(child)
        body = envelope.add(QName(SOAP_ENV_NS, "Body"))
        if self.fault is not None:
            body.append(self.fault.to_element())
        elif self.body is not None:
            body.append(self.body.copy())
        return envelope

    def _wire_element(self) -> Element:
        """The serialization view of this envelope.

        Structurally identical to :meth:`to_element` (and serializes to the
        same bytes) but the payload and extension-header subtrees are shared
        by reference instead of deep-copied: only the envelope scaffolding
        (Envelope/Header/Body, the flat addressing blocks, and a shallow
        wrapper per ``mustUnderstand`` header) is allocated per call. The
        returned tree is a read-only view — callers that hand the tree out
        for mutation must use :meth:`to_element`.
        """
        header_children = self.addressing.to_elements()
        header_children.extend(header._wire_element() for header in self.headers)
        body_children: list[Element] = []
        if self.fault is not None:
            body_children.append(self.fault.to_element())
        elif self.body is not None:
            body_children.append(self.body)
        return _borrowed(
            _ENVELOPE_NAME,
            [
                _borrowed(_HEADER_NAME, header_children),
                _borrowed(_BODY_NAME, body_children),
            ],
        )

    def to_xml(self) -> str:
        return serialize_xml(self._wire_element())

    @property
    def size_bytes(self) -> int:
        """Serialized size plus padding; drives transport latency.

        The size is computed, not measured: the exact UTF-8 byte length
        :meth:`to_xml` would produce (transparent headers aside), composed
        by arithmetic from size records of the envelope's parts without
        writing any XML. The same envelope's size is read several times per
        exchange (latency sampling on each hop, invocation records), so the
        value is cached. Reassigning any content field — including the
        retargeting reassignment of ``addressing`` — invalidates the cache.

        The body's record is memoized per body tree (workload generators
        intern their constant payloads, so thousands of envelopes count one
        payload tree once). An envelope with no visible extension header is
        its content's fixed bytes plus one memoized length per addressing
        shape and content namespace signature, so a fresh payload costs
        one count of its own subtree.

        Transparent headers (observability metadata) never count: an
        envelope whose only extension headers are transparent sizes
        exactly like a headerless one, so the latency model — and every
        simulated timing derived from it — is untouched by tracing. Without
        transparent headers, ``size_bytes == len(to_xml().encode("utf-8"))
        + padding``.
        """
        cached = self._size_cache
        if cached is not None:
            return cached
        addressing = self.addressing
        shape = (
            _escaped_size(addressing.to),
            _escaped_size(addressing.action),
            _escaped_size(addressing.message_id),
            _escaped_size(addressing.relates_to),
            _escaped_size(addressing.reply_to),
            _escaped_size(addressing.process_instance_id),
        )
        headers = self.headers
        if headers:
            headers = [header for header in headers if not header.transparent]
        body = self.body
        if body is not None:
            content = _BODY_RECORDS.get(body)
            if content is None:
                content = _BODY_RECORDS[body] = size_record(body)
        elif self.fault is not None:
            content = size_record(self.fault.to_element())
        else:
            content = None
        if headers:
            size = _envelope_size(shape, headers, content)
        else:
            fixed, uses = content if content is not None else (0, None)
            bare = _BARE_SIZES.current()
            key = (shape, uses)
            size = bare.get(key)
            if size is None:
                prefix_free = None if content is None else (0, uses)
                size = bare.remember(key, _envelope_size(shape, headers, prefix_free))
            size += fixed
        cached = size + self.padding
        self._size_cache = cached
        return cached

    @classmethod
    def from_element(cls, element: Element) -> "SoapEnvelope":
        if element.name != QName(SOAP_ENV_NS, "Envelope"):
            raise XmlError(f"not a SOAP envelope: {element.name}")
        header = element.find(QName(SOAP_ENV_NS, "Header"))
        body = element.find(QName(SOAP_ENV_NS, "Body"))
        if body is None:
            raise XmlError("SOAP envelope without a Body")
        addressing_blocks: list[Element] = []
        extensions: list[SoapHeader] = []
        mu_attr = QName(SOAP_ENV_NS, "mustUnderstand").clark()
        if header is not None:
            from repro.soap.addressing import MASC_NS, WSA_NS

            for child in header.children:
                if child.name.namespace == WSA_NS or (
                    child.name.namespace == MASC_NS and child.name.local == "ProcessInstanceID"
                ):
                    addressing_blocks.append(child)
                else:
                    extensions.append(
                        SoapHeader(
                            child.copy(),
                            child.attributes.get(mu_attr) == "1",
                            # Observability metadata re-enters transparent, so
                            # a parse/serialize round trip preserves sizing.
                            child.name.namespace == MASC_NS
                            and child.name.local == "TraceContext",
                        )
                    )
        fault: SoapFault | None = None
        payload: Element | None = None
        if body.children:
            first = body.children[0]
            if first.name == QName(SOAP_ENV_NS, "Fault"):
                fault = SoapFault.from_element(first)
            else:
                payload = first.copy()
        return cls(
            addressing=AddressingHeaders.from_elements(addressing_blocks),
            headers=extensions,
            body=payload,
            fault=fault,
        )

    @classmethod
    def from_xml(cls, text: str) -> "SoapEnvelope":
        return cls.from_element(parse_xml(text))
