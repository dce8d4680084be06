"""Unit tests for the XML element tree and QNames."""

import pickle
import xml.etree.ElementTree as ET

import pytest

from conftest import resolved_size_reference, serialize_xml_reference
from repro.xmlutils import Element, QName, XmlError, parse_xml, serialize_xml
from repro.xmlutils import element as element_module
from repro.xmlutils import qname as qname_module
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

    @pytest.mark.parametrize("text", ["", "{urn:x}", "{}", "{urn:x"])
    def test_comparing_with_a_non_name_string_is_false(self, text):
        assert (QName("", "a") == text) is False
        assert (QName("urn:x", "a") == text) is False
        assert QName("", "a") != text

    def test_parse_interns_plain_qnames(self):
        assert QName.parse("{urn:ns}x") is QName.parse("{urn:ns}x")
        assert QName.parse("x") is QName.parse("x")
        assert QName.parse("{urn:ns}x") == QName("urn:ns", "x")

    def test_parse_of_a_subclass_is_neither_interned_nor_shared(self):
        class Tagged(QName):
            __slots__ = ()

        plain = QName.parse("{urn:ns}tagged")
        first = Tagged.parse("{urn:ns}tagged")
        assert type(first) is Tagged and first == plain
        assert Tagged.parse("{urn:ns}tagged") is not first
        assert QName.parse("{urn:ns}tagged") is plain

    def test_parse_memo_stays_bounded_on_unique_strings(self):
        limit = qname_module._PARSED_LIMIT
        for index in range(2 * limit + 7):
            name = QName.parse(f"{{urn:unique}}n{index}")
            assert name.local == f"n{index}"
            assert len(qname_module._PARSED) <= limit
        assert QName.parse("{urn:unique}n3") == QName("urn:unique", "n3")

    def test_rejected_text_is_not_memoized(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                QName.parse("{urn:x}")
        assert "{urn:x}" not in qname_module._PARSED

    def test_pickle_round_trip(self):
        name = QName("urn:ns", "x")
        assert pickle.loads(pickle.dumps(name)) == name


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

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_memoized_size_matches_a_fresh_prefix_walk(self, name):
        tree = self.CORPUS[name]()
        records = [size_record(tree)]
        element_module._SIGNATURE_COSTS.clear()
        miss = resolved_size(records)
        hit = resolved_size(records)
        assert miss == hit == resolved_size_reference(records)

    def test_serialization_does_not_mutate_the_tree(self):
        tree = _multi_namespace_tree()
        before = serialize_xml_reference(tree)
        serialize_xml(tree)
        assert serialize_xml_reference(tree) == before


class TestSignatureMemo:
    """``resolved_size`` memoizes prefix costs per namespace signature."""

    @staticmethod
    def _tree(texts, uris):
        root = Element(QName(uris[0], "root"), text=texts[0])
        for index, uri in enumerate(uris):
            root.add(QName(uri, "part"), text=texts[index % len(texts)])
        return root

    def test_one_signature_many_texts(self):
        uris = ["urn:a", "urn:b", "urn:a"]
        for texts in (["x"], ["longer text", "é"], ["a & b", "", "<>"]):
            tree = self._tree(texts, uris)
            records = [size_record(tree)]
            assert resolved_size(records) == resolved_size_reference(records)
            assert resolved_size(records) == len(serialize_xml(tree).encode("utf-8"))

    def test_counts_and_orders_are_different_signatures(self):
        for uris in (["urn:a", "urn:b"], ["urn:b", "urn:a"], ["urn:a", "urn:b", "urn:b"]):
            tree = self._tree(["t"], uris)
            records = [size_record(tree)]
            assert resolved_size(records) == len(serialize_xml(tree).encode("utf-8"))

    def test_split_records_in_document_order(self):
        parts = [self._tree(["t"], ["urn:c", "urn:d"]), self._tree(["u"], ["urn:d"])]
        records = [size_record(part) for part in parts]
        assert resolved_size(records) == resolved_size_reference(records)
        assert resolved_size(records[::-1]) == resolved_size_reference(records[::-1])

    def test_memo_stays_bounded(self):
        limit = element_module._SIGNATURE_COSTS.limit
        for index in range(limit + 5):
            records = [(1, ((f"urn:bound:{index}", 1),))]
            assert resolved_size(records) == resolved_size_reference(records)
            assert len(element_module._SIGNATURE_COSTS) <= limit

    def test_registering_a_prefix_invalidates_the_memo(self):
        uri = "urn:registered:late"
        tree = self._tree(["t"], [uri])
        records = [size_record(tree)]
        before = resolved_size(records)  # memoized under ns0
        registry = ET.register_namespace._namespace_map
        ET.register_namespace("latecomer", uri)
        try:
            after = resolved_size(records)
            assert after == resolved_size_reference(records)
            assert after == len(serialize_xml(tree).encode("utf-8"))
            # Four prefixed tags and one xmlns declaration grow by 6 bytes each.
            assert after - before == 5 * (len("latecomer") - len("ns0"))
        finally:
            del registry[uri]
        assert resolved_size(records) == before
