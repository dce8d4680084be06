"""Property tests of the WS-Policy4MASC assertion schema (hypothesis).

Every registered action type is generated from the schema itself: each
field's values come from its type annotation and its declared bounds, so a
new action or field is covered without touching this file.
"""

from __future__ import annotations

import string
from dataclasses import fields
from functools import cache
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from repro.policy import (
    AdaptationPolicy,
    PolicyDocument,
    PolicyError,
    parse_policy_document,
    serialize_policy_document,
)
from repro.policy.actions import ACTION_TYPES, ActionError
from repro.policy.xml import MASC_POLICY_NS, attribute_name, element_tags
from repro.xmlutils import Element, QName, parse_xml, serialize_xml

TEXT_ALPHABET = string.ascii_letters + string.digits + " -_.*/:$<>&'\""
names = st.text(alphabet=string.ascii_letters, min_size=1, max_size=12)


def _values(hint, rules: dict):
    """A strategy for one schema field, from its type and its bounds."""
    args = [arg for arg in get_args(hint) if arg is not type(None)]
    if len(args) < len(get_args(hint)):
        return st.none() | _values(args[0], rules)
    if get_origin(hint) is dict:
        return st.dictionaries(_values(str, {}), _values(str, {}), max_size=3)
    if get_origin(hint) is tuple:
        return st.lists(_values(args[0], rules), max_size=3).map(tuple)
    if "choices" in rules:
        return st.sampled_from(rules["choices"])
    if hint is bool:
        return st.booleans()
    if hint is str:
        minimum = 1 if rules.get("nonempty") else 0
        return st.text(alphabet=TEXT_ALPHABET, min_size=minimum, max_size=12)
    if hint is int:
        return st.integers(min_value=rules.get("ge", -1000), max_value=10_000)
    if hint is float:
        return st.floats(
            min_value=rules.get("gt", rules.get("ge", -1e6)),
            max_value=rules.get("lt", rules.get("le", 1e6)),
            exclude_min="gt" in rules,
            exclude_max="lt" in rules,
            allow_nan=False,
            allow_infinity=False,
        )
    return instances(hint)


def _build(cls, values):
    try:
        return cls(**values)
    except ActionError:  # a cross-field rule (e.g. min <= max) rejected the draw
        return None


@cache
def instances(cls):
    hints = get_type_hints(cls)
    values = {f.name: _values(hints[f.name], dict(f.metadata)) for f in fields(cls)}
    return st.fixed_dictionaries(values).map(lambda kw: _build(cls, kw)).filter(
        lambda instance: instance is not None
    )


def _document(action) -> PolicyDocument:
    document = PolicyDocument("schema-property")
    document.adaptation_policies.append(
        AdaptationPolicy(name="p", triggers=("e",), actions=(action,))
    )
    return document


def _action_element(root: Element) -> Element:
    return root.children[0].find(QName(MASC_POLICY_NS, "Actions")).children[0]


IDS = [cls.__name__ for cls in ACTION_TYPES]


@pytest.mark.parametrize("cls", ACTION_TYPES, ids=IDS)
@given(data=st.data())
@settings(max_examples=25)
def test_round_trip_and_fixed_point(cls, data):
    action = data.draw(instances(cls))
    xml = serialize_policy_document(_document(action))
    parsed = parse_policy_document(xml)
    assert parsed.adaptation_policies[0].actions == (action,)
    assert serialize_policy_document(parsed) == xml


@pytest.mark.parametrize("cls", ACTION_TYPES, ids=IDS)
@given(data=st.data())
@settings(max_examples=10)
def test_unknown_attribute_rejected(cls, data):
    root = parse_xml(serialize_policy_document(_document(data.draw(instances(cls)))))
    known = {attribute_name(f.name) for f in fields(cls)}
    _action_element(root).attributes[data.draw(names.filter(lambda n: n not in known))] = "1"
    with pytest.raises(PolicyError):
        parse_policy_document(serialize_xml(root))


@given(data=st.data())
@settings(max_examples=25)
def test_unknown_element_rejected(data):
    cls = data.draw(st.sampled_from(ACTION_TYPES))
    root = parse_xml(serialize_policy_document(_document(data.draw(instances(cls)))))
    tags = {tag for action_type in ACTION_TYPES for tag in element_tags(action_type)}
    unknown = data.draw(names.filter(lambda n: n not in tags))
    _action_element(root).name = QName(MASC_POLICY_NS, unknown)
    with pytest.raises(PolicyError):
        parse_policy_document(serialize_xml(root))
