"""Unit tests for the XML element tree and QNames."""

import pytest

from conftest import serialize_xml_reference
from repro.xmlutils import Element, QName, XmlError, parse_xml, serialize_xml
from repro.xmlutils.element import resolved_size, size_record


class TestQName:
    def test_clark_notation(self):
        assert QName("urn:ns", "local").clark() == "{urn:ns}local"

    def test_no_namespace_clark(self):
        assert QName("", "local").clark() == "local"

    def test_parse_clark(self):
        name = QName.parse("{urn:ns}local")
        assert name.namespace == "urn:ns" and name.local == "local"

    def test_parse_bare(self):
        name = QName.parse("local")
        assert name.namespace == "" and name.local == "local"

    def test_equality_with_string(self):
        assert QName("urn:ns", "x") == "{urn:ns}x"
        assert QName("", "x") == "x"

    def test_hashable(self):
        table = {QName("urn:ns", "x"): 1}
        assert table[QName.parse("{urn:ns}x")] == 1

    def test_immutable(self):
        name = QName("a", "b")
        with pytest.raises(AttributeError):
            name.local = "c"

    def test_empty_local_rejected(self):
        with pytest.raises(ValueError):
            QName("ns", "")


class TestElementTree:
    def test_builder_add(self):
        root = Element("root")
        child = root.add("child", text="hello", attr="1")
        assert child.parent is root
        assert root.find("child") is child
        assert child.text == "hello"
        assert child.attributes["attr"] == "1"

    def test_append_reparents(self):
        a, b = Element("a"), Element("b")
        child = a.add("c")
        b.append(child)
        assert child.parent is b
        assert a.find("c") is None

    def test_insert_positions_child(self):
        root = Element("root")
        root.add("one")
        root.add("three")
        root.insert(1, Element("two"))
        assert [c.name.local for c in root.children] == ["one", "two", "three"]

    def test_remove_detaches(self):
        root = Element("root")
        child = root.add("child")
        root.remove(child)
        assert child.parent is None and not root.children

    def test_find_all(self):
        root = Element("root")
        root.add("item", text="1")
        root.add("other")
        root.add("item", text="2")
        assert [e.text for e in root.find_all("item")] == ["1", "2"]

    def test_find_respects_namespace(self):
        root = Element("root")
        root.add(QName("urn:a", "x"), text="a")
        root.add(QName("urn:b", "x"), text="b")
        assert root.find(QName("urn:b", "x")).text == "b"
        assert root.find("x") is None

    def test_iter_is_depth_first(self):
        root = Element("r")
        a = root.add("a")
        a.add("a1")
        root.add("b")
        assert [e.name.local for e in root.iter()] == ["r", "a", "a1", "b"]

    def test_child_text_with_default(self):
        root = Element("root")
        root.add("present", text="yes")
        assert root.child_text("present") == "yes"
        assert root.child_text("absent", "fallback") == "fallback"

    def test_string_value_concatenates(self):
        root = Element("r", text="a")
        root.add("c", text="b")
        assert root.string_value == "ab"

    def test_copy_is_deep_and_detached(self):
        root = Element("root", attributes={"k": "v"})
        root.add("child", text="t")
        duplicate = root.copy()
        assert duplicate.parent is None
        duplicate.find("child").text = "changed"
        assert root.find("child").text == "t"

    def test_structural_equality(self):
        a = Element("r", children=[Element("c", text="x")])
        b = Element("r", children=[Element("c", text="x")])
        assert a.structurally_equal(b)

    def test_structural_inequality_on_text(self):
        a = Element("r", children=[Element("c", text="x")])
        b = Element("r", children=[Element("c", text="y")])
        assert not a.structurally_equal(b)

    def test_structural_inequality_on_child_count(self):
        a = Element("r", children=[Element("c")])
        b = Element("r")
        assert not a.structurally_equal(b)


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        root = Element(QName("urn:test", "root"), attributes={"version": "1"})
        root.add("plain", text="text & entities <ok>")
        nested = root.add(QName("urn:test", "nested"))
        nested.add("deep", text="value")
        parsed = parse_xml(serialize_xml(root))
        assert parsed.structurally_equal(root)

    def test_namespaced_round_trip(self):
        root = Element(QName("urn:a", "r"))
        root.add(QName("urn:b", "child"), text="x")
        parsed = parse_xml(serialize_xml(root))
        assert parsed.find(QName("urn:b", "child")).text == "x"

    def test_malformed_xml_raises(self):
        with pytest.raises(XmlError):
            parse_xml("<open>")

    def test_whitespace_only_text_dropped(self):
        parsed = parse_xml("<r>\n  <c>x</c>\n</r>")
        assert parsed.text is None
        assert parsed.find("c").text == "x"

    def test_indent_output_contains_newlines(self):
        root = Element("r", children=[Element("c")])
        assert "\n" in serialize_xml(root, indent=True)


def _multi_namespace_tree():
    root = Element(QName("urn:a", "root"), attributes={"plain": "1"})
    child = root.add(QName("urn:b", "child"), text="payload")
    child.append(Element(QName("urn:a", "leaf"), attributes={"{urn:c}ref": "x"}))
    root.add(QName("urn:b", "sibling"))
    return root


def _special_character_tree():
    root = Element("doc", text="a & b < c > d")
    root.append(
        Element("attrs", attributes={"q": 'say "hi"', "nl": "line1\nline2", "tab": "a\tb"})
    )
    root.add("entities", text="5 < 6 && 7 > 2")
    root.append(Element("cr", attributes={"v": "a\rb"}))
    return root


def _well_known_prefix_tree():
    # ElementTree assigns its registered prefix (wsdl) instead of ns0.
    root = Element(QName("http://schemas.xmlsoap.org/wsdl/", "definitions"))
    root.add(QName("http://schemas.xmlsoap.org/wsdl/", "message"))
    return root


def _xml_namespace_tree():
    # The xml: prefix is predeclared and must never get an xmlns declaration.
    return Element(
        "note",
        attributes={"{http://www.w3.org/XML/1998/namespace}lang": "en"},
        text="hello",
    )


def _empty_elements_tree():
    root = Element("r")
    root.add("empty")
    root.add("with-attr", a="1")
    root.add("with-text", text="")
    return root


def _unicode_tree():
    root = Element("r", text="héllo — 中文")
    root.append(Element("c", attributes={"v": "naïve"}))
    return root


def _deep_repeated_namespace_tree():
    root = Element(QName("urn:x", "a"))
    node = root
    for _ in range(6):
        node = node.add(QName("urn:x", "a"), text="t")
    return root


class TestFastSerializerDifferential:
    """The direct writer must match the ElementTree reference byte for byte."""

    CORPUS = {
        "multi_namespace": _multi_namespace_tree,
        "special_characters": _special_character_tree,
        "well_known_prefix": _well_known_prefix_tree,
        "xml_namespace_attr": _xml_namespace_tree,
        "empty_elements": _empty_elements_tree,
        "unicode": _unicode_tree,
        "deep_repeated_namespace": _deep_repeated_namespace_tree,
    }

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_fast_path_matches_reference(self, name):
        tree = self.CORPUS[name]()
        assert serialize_xml(tree) == serialize_xml_reference(tree)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_fast_path_output_reparses(self, name):
        tree = self.CORPUS[name]()
        assert parse_xml(serialize_xml(tree)).structurally_equal(tree)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_size_record_matches_serialized_length(self, name):
        tree = self.CORPUS[name]()
        assert resolved_size([size_record(tree)]) == len(
            serialize_xml(tree).encode("utf-8")
        )

    def test_serialization_does_not_mutate_the_tree(self):
        tree = _multi_namespace_tree()
        before = serialize_xml_reference(tree)
        serialize_xml(tree)
        assert serialize_xml_reference(tree) == before
