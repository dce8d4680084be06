"""XML serialization of WS-Policy4MASC documents.

The wire format is a W3C WS-Policy ``Policy`` element whose assertions live
in the MASC namespace. Parsing is strict (unknown elements and attributes
and malformed values are errors — policies drive adaptation of live
systems, so silent skipping would be dangerous) and documents round-trip:
``parse(serialize(doc))`` yields an equivalent document.

Adaptation actions have no per-action code here: one generic pair,
:func:`_schema_to_element` / :func:`_element_to_schema`, reads the action
dataclasses of :mod:`repro.policy.actions` as the dialect's schema.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

from repro.policy.actions import ACTION_TYPES, AdaptationAction
from repro.policy.assertions import MessageCondition, QoSThreshold
from repro.policy.model import (
    AdaptationPolicy,
    BusinessValue,
    GoalPolicy,
    MonitoringPolicy,
    PolicyDocument,
    PolicyError,
    PolicyScope,
)
from repro.soap import FaultCode
from repro.xmlutils import Element, QName, parse_xml, serialize_xml

__all__ = [
    "MASC_POLICY_NS",
    "WSP_NS",
    "attribute_name",
    "element_tags",
    "parse_policy_document",
    "serialize_policy_document",
]

WSP_NS = "http://schemas.xmlsoap.org/ws/2004/09/policy"
MASC_POLICY_NS = "http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc"


def _masc(local: str) -> QName:
    return QName(MASC_POLICY_NS, local)


# ---------------------------------------------------------------------------
# Assertion schema: the action dataclasses (and InvokeSpec) read as XML
# ---------------------------------------------------------------------------


def attribute_name(field_name: str) -> str:
    """The XML attribute of a schema field: ``max_retries`` -> ``maxRetries``."""
    head, *rest = field_name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def element_tags(cls: type) -> tuple[str, ...]:
    """XML element names of an action class, canonical first: its
    ``xml_tags``, else the class name without the ``Action`` suffix."""
    return getattr(cls, "xml_tags", None) or (cls.__name__.removesuffix("Action"),)


_ACTIONS_BY_TAG = {tag: cls for cls in ACTION_TYPES for tag in element_tags(cls)}
_BOOLEANS = {"true": True, "false": False}


@cache
def _schema(cls: type) -> tuple[dict, list]:
    """Split a schema dataclass into attribute and child-element fields.

    Attributes map XML name -> (field, value type, optional); children are
    (field, (tag, *attribute names), item type, is mapping) in declaration
    order.
    """
    hints = get_type_hints(cls)
    attributes, children = {}, []
    for f in fields(cls):
        hint = hints[f.name]
        args = [arg for arg in get_args(hint) if arg is not type(None)]
        if "xml" in f.metadata:
            children.append((f, f.metadata["xml"], args[0], get_origin(hint) is dict))
        else:
            optional = len(args) < len(get_args(hint))
            attributes[attribute_name(f.name)] = (f, args[0] if optional else hint, optional)
    return attributes, children


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_policy_document(document: PolicyDocument, indent: bool = False) -> str:
    """Render a document to its XML text form."""
    return serialize_xml(document_to_element(document), indent=indent)


def document_to_element(document: PolicyDocument) -> Element:
    root = Element(QName(WSP_NS, "Policy"), attributes={"Name": document.name})
    for policy in document.monitoring_policies:
        root.append(_monitoring_to_element(policy))
    for policy in document.adaptation_policies:
        root.append(_adaptation_to_element(policy))
    for goal in document.goal_policies:
        root.append(_goal_to_element(goal))
    return root


def _goal_to_element(policy: GoalPolicy) -> Element:
    element = Element(
        _masc("GoalPolicy"),
        attributes={
            "name": policy.name,
            "goal": policy.goal,
            "timeValuePerSecond": str(policy.time_value_per_second),
            "bandwidthCostPerMessage": str(policy.bandwidth_cost_per_message),
            "priority": str(policy.priority),
        },
    )
    scope = _scope_to_element(policy.scope)
    if scope is not None:
        element.append(scope)
    return element


def _scope_to_element(scope: PolicyScope) -> Element | None:
    attributes = {
        key: value
        for key, value in (
            ("serviceType", scope.service_type),
            ("endpoint", scope.endpoint),
            ("operation", scope.operation),
            ("process", scope.process),
            ("activity", scope.activity),
        )
        if value is not None
    }
    if not attributes:
        return None
    return Element(_masc("Scope"), attributes=attributes)


def _monitoring_to_element(policy: MonitoringPolicy) -> Element:
    element = Element(
        _masc("MonitoringPolicy"),
        attributes={"name": policy.name, "priority": str(policy.priority)},
    )
    for event in policy.events:
        element.add(_masc("On"), event=event)
    scope = _scope_to_element(policy.scope)
    if scope is not None:
        element.append(scope)
    if policy.condition is not None:
        element.add(_masc("Condition"), text=policy.condition)
    for condition in policy.conditions:
        attributes = {
            "xpath": condition.xpath,
            "operator": condition.operator,
            "appliesTo": condition.applies_to,
        }
        if condition.value is not None:
            attributes["value"] = condition.value
        element.append(Element(_masc("MessageCondition"), attributes=attributes))
    for threshold in policy.qos_thresholds:
        element.append(
            Element(
                _masc("QoSThreshold"),
                attributes={
                    "metric": threshold.metric,
                    "operator": threshold.operator,
                    "value": str(threshold.value),
                    "window": str(threshold.window),
                    "aggregate": threshold.aggregate,
                },
            )
        )
    for variable, xpath in policy.extract.items():
        element.add(_masc("Extract"), variable=variable, xpath=xpath)
    if policy.classify_as is not None:
        element.add(_masc("ClassifyAs"), fault=policy.classify_as.value)
    for event in policy.emits:
        element.add(_masc("Emit"), event=event)
    return element


def _adaptation_to_element(policy: AdaptationPolicy) -> Element:
    element = Element(
        _masc("AdaptationPolicy"),
        attributes={
            "name": policy.name,
            "priority": str(policy.priority),
            "type": policy.adaptation_type,
        },
    )
    for trigger in policy.triggers:
        element.add(_masc("On"), event=trigger)
    scope = _scope_to_element(policy.scope)
    if scope is not None:
        element.append(scope)
    if policy.condition is not None:
        element.add(_masc("Condition"), text=policy.condition)
    if policy.state_before is not None:
        element.add(_masc("StateBefore"), text=policy.state_before)
    if policy.state_after is not None:
        element.add(_masc("StateAfter"), text=policy.state_after)
    actions = element.add(_masc("Actions"))
    for action in policy.actions:
        if type(action) not in ACTION_TYPES:
            raise PolicyError(f"cannot serialize action {type(action).__name__}")
        actions.append(_schema_to_element(action, element_tags(type(action))[0]))
    if policy.business_value is not None:
        element.add(
            _masc("BusinessValue"),
            amount=str(policy.business_value.amount),
            currency=policy.business_value.currency,
            reason=policy.business_value.reason,
        )
    return element


def _schema_to_element(value, tag: str) -> Element:
    """Serialize a schema dataclass: attributes in declaration order, then
    child elements. ``None`` is omitted, and so is a value at its default
    when the field declares ``omit_default``."""
    attributes, children = _schema(type(value))
    element = Element(_masc(tag))
    for name, (f, kind, _) in attributes.items():
        item = getattr(value, f.name)
        if item is None or (f.metadata.get("omit_default") and item == f.default):
            continue
        element.attributes[name] = ("true" if item else "false") if kind is bool else str(item)
    for f, (child_tag, *names), item_type, mapping in children:
        items = getattr(value, f.name)
        for item in items.items() if mapping else items:
            if is_dataclass(item_type):
                element.append(_schema_to_element(item, child_tag))
            else:
                row = item if mapping else (item,)
                element.append(
                    Element(_masc(child_tag), attributes=dict(zip(names, map(str, row))))
                )
    return element


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_policy_document(source: str | Element) -> PolicyDocument:
    """Parse XML text (or a pre-parsed element) into a PolicyDocument."""
    root = parse_xml(source) if isinstance(source, str) else source
    if root.name != QName(WSP_NS, "Policy"):
        raise PolicyError(f"not a WS-Policy document: {root.name}")
    document = PolicyDocument(name=root.attributes.get("Name", "unnamed"))
    for child in root.children:
        if child.name == _masc("MonitoringPolicy"):
            document.monitoring_policies.append(_parse_monitoring(child))
        elif child.name == _masc("AdaptationPolicy"):
            document.adaptation_policies.append(_parse_adaptation(child))
        elif child.name == _masc("GoalPolicy"):
            document.goal_policies.append(
                GoalPolicy(
                    name=_required(child, "name"),
                    goal=child.attributes.get("goal", "maximize_business_value"),
                    scope=_parse_scope(child.find(_masc("Scope"))),
                    time_value_per_second=float(
                        child.attributes.get("timeValuePerSecond", "1.0")
                    ),
                    bandwidth_cost_per_message=float(
                        child.attributes.get("bandwidthCostPerMessage", "0.1")
                    ),
                    priority=int(child.attributes.get("priority", "100")),
                )
            )
        elif child.name in (QName(WSP_NS, "ExactlyOne"), QName(WSP_NS, "All")):
            # WS-Policy operators: flatten — MASC treats all alternatives
            # as available and picks by priority at enforcement time.
            nested = parse_policy_document(
                Element(QName(WSP_NS, "Policy"), children=[c.copy() for c in child.children])
            )
            document.monitoring_policies.extend(nested.monitoring_policies)
            document.adaptation_policies.extend(nested.adaptation_policies)
            document.goal_policies.extend(nested.goal_policies)
        else:
            raise PolicyError(f"unknown policy element {child.name}")
    return document


def _parse_scope(element: Element | None) -> PolicyScope:
    if element is None:
        return PolicyScope()
    return PolicyScope(
        service_type=element.attributes.get("serviceType"),
        endpoint=element.attributes.get("endpoint"),
        operation=element.attributes.get("operation"),
        process=element.attributes.get("process"),
        activity=element.attributes.get("activity"),
    )


def _required(element: Element, attribute: str) -> str:
    value = element.attributes.get(attribute)
    if value is None:
        raise PolicyError(f"element {element.name.local} is missing attribute {attribute!r}")
    return value


def _parse_monitoring(element: Element) -> MonitoringPolicy:
    events = tuple(_required(on, "event") for on in element.find_all(_masc("On")))
    conditions = tuple(
        MessageCondition(
            xpath=_required(mc, "xpath"),
            operator=mc.attributes.get("operator", "exists"),
            value=mc.attributes.get("value"),
            applies_to=mc.attributes.get("appliesTo", "body"),
        )
        for mc in element.find_all(_masc("MessageCondition"))
    )
    thresholds = tuple(
        QoSThreshold(
            metric=_required(th, "metric"),
            operator=_required(th, "operator"),
            value=float(_required(th, "value")),
            window=int(th.attributes.get("window", "50")),
            aggregate=th.attributes.get("aggregate", "mean"),
        )
        for th in element.find_all(_masc("QoSThreshold"))
    )
    extract = {
        _required(ex, "variable"): _required(ex, "xpath")
        for ex in element.find_all(_masc("Extract"))
    }
    classify_element = element.find(_masc("ClassifyAs"))
    classify_as = (
        FaultCode(_required(classify_element, "fault")) if classify_element is not None else None
    )
    emits = tuple(_required(emit, "event") for emit in element.find_all(_masc("Emit")))
    return MonitoringPolicy(
        name=_required(element, "name"),
        events=events,
        scope=_parse_scope(element.find(_masc("Scope"))),
        condition=element.child_text(_masc("Condition")),
        conditions=conditions,
        qos_thresholds=thresholds,
        extract=extract,
        classify_as=classify_as,
        emits=emits,
        priority=int(element.attributes.get("priority", "100")),
    )


def _check_attributes(element: Element, allowed) -> None:
    for name in element.attributes:
        if name not in allowed:
            raise PolicyError(f"element {element.name.local} has unknown attribute {name!r}")


def _convert(element: Element, name: str, kind: type, text: str):
    try:
        return _BOOLEANS[text] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise PolicyError(
            f"element {element.name.local}: attribute {name!r} is not a valid "
            f"{kind.__name__}: {text!r}"
        ) from None


def _element_to_schema(cls: type, element: Element):
    """Parse a schema dataclass, rejecting unknown attributes and children.

    An absent attribute takes the field's default, or ``None`` when the
    field is optional; a field without a default is required.
    """
    attributes, children = _schema(cls)
    _check_attributes(element, attributes)
    known = {_masc(tag) for _, (tag, *_), _, _ in children}
    for child in element.children:
        if child.name not in known:
            raise PolicyError(f"element {element.name.local} has unknown child {child.name}")
    values = {}
    for name, (f, kind, optional) in attributes.items():
        text = element.attributes.get(name)
        if text is not None:
            values[f.name] = _convert(element, name, kind, text)
        elif optional:
            values[f.name] = None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise PolicyError(f"element {element.name.local} is missing attribute {name!r}")
    for f, (tag, *names), item_type, mapping in children:
        found = element.find_all(_masc(tag))
        if is_dataclass(item_type):
            values[f.name] = tuple(_element_to_schema(item_type, child) for child in found)
            continue
        rows = []
        for child in found:
            _check_attributes(child, names)
            rows.append(tuple(_required(child, name) for name in names))
        values[f.name] = dict(rows) if mapping else tuple(row[0] for row in rows)
    return cls(**values)


def _parse_action(element: Element) -> AdaptationAction:
    cls = _ACTIONS_BY_TAG.get(element.name.local)
    if cls is None:
        raise PolicyError(f"unknown adaptation action element {element.name.local!r}")
    return _element_to_schema(cls, element)


def _parse_adaptation(element: Element) -> AdaptationPolicy:
    actions_element = element.find(_masc("Actions"))
    if actions_element is None:
        raise PolicyError(
            f"adaptation policy {element.attributes.get('name')!r} has no Actions element"
        )
    business_element = element.find(_masc("BusinessValue"))
    business_value = None
    if business_element is not None:
        business_value = BusinessValue(
            amount=float(_required(business_element, "amount")),
            currency=business_element.attributes.get("currency", "AUD"),
            reason=business_element.attributes.get("reason", ""),
        )
    return AdaptationPolicy(
        name=_required(element, "name"),
        triggers=tuple(_required(on, "event") for on in element.find_all(_masc("On"))),
        scope=_parse_scope(element.find(_masc("Scope"))),
        condition=element.child_text(_masc("Condition")),
        state_before=element.child_text(_masc("StateBefore")),
        state_after=element.child_text(_masc("StateAfter")),
        actions=tuple(_parse_action(child) for child in actions_element.children),
        business_value=business_value,
        priority=int(element.attributes.get("priority", "100")),
        adaptation_type=element.attributes.get("type", "correction"),
    )
