"""A small namespace-aware element tree.

The tree is deliberately simpler than ``xml.etree``: qualified names are
:class:`~repro.xmlutils.qname.QName` objects rather than Clark-notation
strings, children know their parent (needed by XPath ``..`` steps and by the
policy engine when splicing variation fragments), and deep structural
equality is defined (needed by message-transformation tests).

Parsing and serialization bridge through ``xml.etree.ElementTree`` so the
wire format is real, interoperable XML.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Iterable, Iterator

from repro.xmlutils.qname import QName

__all__ = [
    "Element",
    "PrefixMemo",
    "XmlError",
    "parse_xml",
    "resolved_size",
    "serialize_xml",
    "size_record",
]


class XmlError(Exception):
    """Raised for malformed XML or misuse of the element tree."""


class Element:
    """An XML element: qualified name, attributes, text, children."""

    def __init__(
        self,
        name: QName | str,
        attributes: dict[str, str] | None = None,
        text: str | None = None,
        children: Iterable["Element"] | None = None,
    ) -> None:
        self.name = name if isinstance(name, QName) else QName.parse(name)
        self.attributes: dict[str, str] = dict(attributes or {})
        self.text = text
        self.parent: Element | None = None
        self._children: list[Element] = []
        for child in children or ():
            self.append(child)

    # -- tree manipulation ---------------------------------------------------

    @property
    def children(self) -> tuple["Element", ...]:
        return tuple(self._children)

    def append(self, child: "Element") -> "Element":
        """Append ``child``, detaching it from any previous parent."""
        if child.parent is not None:
            child.parent.remove(child)
        child.parent = self
        self._children.append(child)
        return child

    def insert(self, index: int, child: "Element") -> "Element":
        if child.parent is not None:
            child.parent.remove(child)
        child.parent = self
        self._children.insert(index, child)
        return child

    def remove(self, child: "Element") -> None:
        self._children.remove(child)
        child.parent = None

    def add(self, name: QName | str, text: str | None = None, **attributes: str) -> "Element":
        """Create, append and return a child element (builder convenience)."""
        return self.append(Element(name, attributes=attributes, text=text))

    # -- queries ---------------------------------------------------------------

    def find(self, name: QName | str) -> "Element | None":
        """First direct child with the given qualified name."""
        wanted = name if isinstance(name, QName) else QName.parse(name)
        for child in self._children:
            if child.name == wanted:
                return child
        return None

    def find_all(self, name: QName | str) -> list["Element"]:
        """All direct children with the given qualified name."""
        wanted = name if isinstance(name, QName) else QName.parse(name)
        return [child for child in self._children if child.name == wanted]

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self._children:
            yield from child.iter()

    def child_text(self, name: QName | str, default: str | None = None) -> str | None:
        """Text of the first matching child, or ``default``."""
        child = self.find(name)
        if child is None:
            return default
        return child.text if child.text is not None else default

    @property
    def string_value(self) -> str:
        """Concatenated text of this element and descendants (XPath semantics)."""
        parts: list[str] = []
        for node in self.iter():
            if node.text:
                parts.append(node.text)
        return "".join(parts)

    # -- structure ---------------------------------------------------------------

    def copy(self) -> "Element":
        """A deep copy, detached from any parent."""
        return Element(
            self.name,
            attributes=dict(self.attributes),
            text=self.text,
            children=[child.copy() for child in self._children],
        )

    def structurally_equal(self, other: "Element") -> bool:
        """Deep equality on name, attributes, text and ordered children."""
        if self.name != other.name or self.attributes != other.attributes:
            return False
        if (self.text or "") != (other.text or ""):
            return False
        if len(self._children) != len(other._children):
            return False
        return all(
            mine.structurally_equal(theirs)
            for mine, theirs in zip(self._children, other._children)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.name.clark()} children={len(self._children)}>"


def _to_etree(element: Element) -> ET.Element:
    node = ET.Element(element.name.clark(), dict(element.attributes))
    node.text = element.text
    for child in element.children:
        node.append(_to_etree(child))
    return node


# -- direct serializer ---------------------------------------------------------
#
# Serializing through ``xml.etree`` costs a full tree conversion plus
# ElementTree's own namespace pass on every call, and envelope serialization
# is the hottest non-kernel code in the middleware (message sizes drive the
# transport latency model). The writer below produces output byte-identical
# to ``ET.tostring(..., encoding="unicode")`` — same ``ns0``/``ns1`` prefix
# assignment in document order, same well-known prefixes (via ElementTree's
# own registry, so ``ET.register_namespace`` keeps working), same escaping,
# same ``<tag />`` short empty form — without ever materializing an etree.
# Differential tests keep the ElementTree path as their reference and assert
# the two stay bit-for-bit interchangeable.

#: ElementTree's live well-known/registered prefix map ("for tests and
#: troubleshooting" per its source; shared here so registrations apply to
#: both serializers).
_ET_PREFIXES = ET.register_namespace._namespace_map  # type: ignore[attr-defined]

_XML_NS = "http://www.w3.org/XML/1998/namespace"


def _escape_cdata(text: str) -> str:
    # Mirrors ElementTree._escape_cdata.
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _escape_attrib(text: str) -> str:
    # Mirrors ElementTree._escape_attrib, including the CR/LF/TAB entities.
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


class _QNameTable:
    """Prefix assignment replicating ElementTree's ``_namespaces`` pass.

    Namespace URIs get prefixes in order of first appearance in document
    order (tag before attributes, parents before children): a well-known
    prefix from ElementTree's registry if there is one, else ``ns%d`` with
    ``%d`` the number of declarations so far. The ``xml`` namespace is
    usable but never declared.
    """

    __slots__ = ("tags", "attrs", "namespaces")

    def __init__(self) -> None:
        self.tags: dict[QName, str] = {}
        self.attrs: dict[str, str] = {}
        self.namespaces: dict[str, str] = {}

    def _prefix(self, uri: str) -> str:
        prefix = self.namespaces.get(uri)
        if prefix is None and uri != _XML_NS:
            prefix = _ET_PREFIXES.get(uri)
            if prefix is None:
                prefix = "ns%d" % len(self.namespaces)
            if prefix != "xml":
                self.namespaces[uri] = prefix
        if prefix is None:  # the implicit xml namespace
            prefix = "xml"
        return prefix

    def add_tag(self, name: QName) -> None:
        uri = name.namespace
        if not uri:
            self.tags[name] = name.local
            return
        prefix = self._prefix(uri)
        self.tags[name] = f"{prefix}:{name.local}" if prefix else name.local

    def add_attr(self, key: str) -> None:
        if not key.startswith("{"):
            self.attrs[key] = key
            return
        uri, _, local = key[1:].rpartition("}")
        prefix = self._prefix(uri)
        self.attrs[key] = f"{prefix}:{local}" if prefix else local

    def collect(self, element: Element) -> None:
        """One document-order pass over ``element`` and its subtree."""
        if element.name not in self.tags:
            self.add_tag(element.name)
        for key in element.attributes:
            if key not in self.attrs:
                self.add_attr(key)
        for child in element._children:
            self.collect(child)

    def declarations(self) -> str:
        """The root element's ``xmlns`` attribute text, sorted by prefix."""
        return "".join(
            f' xmlns:{prefix}="{_escape_attrib(uri)}"'
            for uri, prefix in sorted(self.namespaces.items(), key=lambda item: item[1])
        )


def _write_element(element: Element, out: list[str], table: _QNameTable, decl: str) -> None:
    tag = table.tags[element.name]
    attrs = element.attributes
    if attrs:
        out.append(
            "<"
            + tag
            + decl
            + "".join(
                f' {table.attrs[key]}="{_escape_attrib(value)}"'
                for key, value in attrs.items()
            )
        )
    else:
        out.append("<" + tag + decl)
    text = element.text
    children = element._children
    if text or children:
        out.append(">" + _escape_cdata(text) if text else ">")
        for child in children:
            _write_element(child, out, table, "")
        out.append("</" + tag + ">")
    else:
        out.append(" />")


# -- size-only serializer --------------------------------------------------------
#
# Message sizes drive the transport latency model, and most size reads need
# the byte count but not the text. ``size_record`` walks a subtree exactly as
# ``_write_element`` does but only counts: the UTF-8 bytes of everything
# except namespace prefixes and ``xmlns`` declarations, plus how many
# prefixed names each namespace URI contributes, keyed in first-appearance
# document order. ``resolved_size`` runs the records of one document, in
# document order, through ``_QNameTable._prefix`` — the serializer's own
# prefix assignment — and adds the prefixes and the root's declarations.
# That prefix cost is a function of the records' ``uses`` alone, so it is
# memoized per namespace signature.

#: ``(bytes without prefixes or declarations, ((uri, prefixed names), ...))``
SizeRecord = tuple[int, tuple[tuple[str, int], ...]]


def _utf8_size(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _cdata_size(text: str) -> int:
    """UTF-8 byte length of ``text`` written as element character data."""
    if "&" in text or "<" in text or ">" in text:
        text = _escape_cdata(text)
    return _utf8_size(text)


def _attrib_size(text: str) -> int:
    """UTF-8 byte length of ``text`` written as an attribute value."""
    if (
        "&" in text
        or "<" in text
        or ">" in text
        or '"' in text
        or "\r" in text
        or "\n" in text
        or "\t" in text
    ):
        text = _escape_attrib(text)
    return _utf8_size(text)


def _count_element(element: Element, uses: dict[str, int]) -> int:
    # The size-only twin of _write_element.
    name = element.name
    tag = _utf8_size(name.local)
    text = element.text
    children = element._children
    closed = text or children
    if name.namespace:
        uses[name.namespace] = uses.get(name.namespace, 0) + (2 if closed else 1)
    size = 1 + tag  # "<tag"
    for key, value in element.attributes.items():
        if key.startswith("{"):
            uri, _, key = key[1:].rpartition("}")
            uses[uri] = uses.get(uri, 0) + 1
        size += 4 + _utf8_size(key) + _attrib_size(value)  # ' key="value"'
    if not closed:
        return size + 3  # " />"
    size += 4 + tag  # ">" ... "</tag>"
    if text:
        size += _cdata_size(text)
    for child in children:
        size += _count_element(child, uses)
    return size


def size_record(element: Element) -> SizeRecord:
    """The size record of ``element``'s subtree, for :func:`resolved_size`."""
    uses: dict[str, int] = {}
    size = _count_element(element, uses)
    return size, tuple(uses.items())


class PrefixMemo(dict):
    """A bounded memo of byte counts that include namespace prefixes.

    Prefixes come from ElementTree's registry, which
    ``ET.register_namespace`` may change at any time: :meth:`current`
    empties the memo when the registry differs from the one its values
    were computed under. :meth:`remember` empties it when it holds
    ``limit`` entries, so unbounded key streams cannot grow it.
    """

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit
        self.registry = dict(_ET_PREFIXES)

    def current(self) -> "PrefixMemo":
        """This memo, emptied first if the prefix registry has changed."""
        if _ET_PREFIXES != self.registry:
            self.clear()
            self.registry = dict(_ET_PREFIXES)
        return self

    def remember(self, key, value: int) -> int:
        if len(self) >= self.limit:
            self.clear()
        self[key] = value
        return value


#: Prefix-and-declaration bytes per namespace signature: the ordered tuple
#: of a document's records' ``uses``. Prefix assignment depends on nothing
#: but that sequence (and the registry), never on text, so the few message
#: shapes of a run each pay one prefix walk.
_SIGNATURE_COSTS = PrefixMemo(1024)


def _signature_cost(signature: tuple[tuple[tuple[str, int], ...], ...]) -> int:
    """Prefix and ``xmlns`` declaration bytes of a document whose records
    have the ``uses`` in ``signature``, in document order."""
    table = _QNameTable()
    prefix_of = table._prefix
    size = 0
    for uses in signature:
        for uri, count in uses:
            prefix = prefix_of(uri)
            if prefix:
                size += count * (_utf8_size(prefix) + 1)  # "prefix:"
    for uri, prefix in table.namespaces.items():
        size += 10 + _utf8_size(prefix) + _attrib_size(uri)  # ' xmlns:p="uri"'
    return size


def resolved_size(records: Iterable[SizeRecord]) -> int:
    """UTF-8 byte length of the document the ``records`` describe.

    The records are the document's parts in document order (the first one
    holding the root's name); the result equals
    ``len(serialize_xml(root).encode("utf-8"))``: the records' fixed bytes
    plus the memoized prefix cost of their namespace signature.
    """
    fixed = 0
    signature = []
    for size, uses in records:
        fixed += size
        signature.append(uses)
    key = tuple(signature)
    costs = _SIGNATURE_COSTS.current()
    cost = costs.get(key)
    if cost is None:
        cost = costs.remember(key, _signature_cost(key))
    return fixed + cost


def _from_etree(node: ET.Element) -> Element:
    tag = node.tag
    if not isinstance(tag, str):
        raise XmlError(f"unsupported node type {tag!r}")
    text = node.text.strip() if node.text and node.text.strip() else None
    element = Element(QName.parse(tag), attributes=dict(node.attrib), text=text)
    for child in node:
        element.append(_from_etree(child))
    return element


def serialize_xml(element: Element, indent: bool = False) -> str:
    """Serialize to an XML string (optionally pretty-printed).

    The compact form uses the direct writer (byte-identical to the
    ElementTree reference path, pinned by differential tests); pretty
    printing is a debugging/reporting path and keeps using ElementTree.
    """
    if indent:
        tree = _to_etree(element)
        ET.indent(tree)
        return ET.tostring(tree, encoding="unicode")
    table = _QNameTable()
    table.collect(element)
    out: list[str] = []
    _write_element(element, out, table, table.declarations())
    return "".join(out)


def parse_xml(text: str) -> Element:
    """Parse an XML string into an :class:`Element` tree."""
    try:
        return _from_etree(ET.fromstring(text))
    except ET.ParseError as exc:
        raise XmlError(f"malformed XML: {exc}") from exc
