"""Unit tests for service contracts and message validation."""

import pickle

import pytest

from repro.services import ServiceContainer
from repro.soap import AddressingHeaders, FaultCode, SoapEnvelope, SoapFault
from repro.wsdl import ContractViolation, MessageSchema, Operation, PartSchema, ServiceContract
from repro.xmlutils import Element, QName

SCHEMA = MessageSchema(
    "orderRequest",
    (
        PartSchema("orderId"),
        PartSchema("amount", "float"),
        PartSchema("count", "int"),
        PartSchema("rush", "bool", required=False),
    ),
)

CONTRACT = ServiceContract(
    service_type="Orders",
    operations=(
        Operation(
            "submit",
            SCHEMA,
            MessageSchema("orderResponse", (PartSchema("status"),)),
        ),
    ),
)


class TestMessageSchema:
    def test_build_produces_valid_payload(self):
        payload = SCHEMA.build(orderId="o-1", amount=9.5, count=2)
        assert SCHEMA.validate(payload) == []
        assert payload.child_text("amount") == "9.5"

    def test_build_serializes_booleans(self):
        payload = SCHEMA.build(orderId="o", amount=1, count=1, rush=True)
        assert payload.child_text("rush") == "true"

    def test_build_rejects_unknown_part(self):
        with pytest.raises(ContractViolation):
            SCHEMA.build(orderId="o", amount=1, count=1, bogus="x")

    def test_build_rejects_missing_required(self):
        with pytest.raises(ContractViolation):
            SCHEMA.build(orderId="o")

    def test_optional_part_may_be_absent(self):
        payload = SCHEMA.build(orderId="o", amount=1, count=1)
        assert SCHEMA.validate(payload) == []

    def test_wrong_root_element(self):
        assert SCHEMA.validate(Element("somethingElse"))

    def test_type_violations_reported(self):
        payload = SCHEMA.build(orderId="o", amount=1, count=1)
        payload.find("count").text = "many"
        violations = SCHEMA.validate(payload)
        assert any("count" in violation for violation in violations)

    def test_missing_required_part_reported(self):
        payload = Element("orderRequest")
        payload.add("orderId", text="o")
        violations = SCHEMA.validate(payload)
        assert any("amount" in v for v in violations)


class TestBooleanParts:
    """``bool`` parts accept exactly the ``xs:boolean`` lexical space."""

    PART = PartSchema("shipped", "bool")

    @pytest.mark.parametrize("text", ["true", "false", "1", "0", " true", "false\n"])
    def test_lexical_space_accepted(self, text):
        assert self.PART.validate(Element("r", children=[Element("shipped", text=text)])) == []

    @pytest.mark.parametrize("text", ["banana", "", "True", "FALSE", "yes", "2", "-1", "t"])
    def test_anything_else_is_a_violation(self, text):
        violations = self.PART.validate(Element("r", children=[Element("shipped", text=text)]))
        assert violations == [f"part 'shipped' is not a valid bool: {text!r}"]

    def test_empty_element_is_a_violation(self):
        assert self.PART.validate(Element("r", children=[Element("shipped")]))

    def test_built_booleans_validate(self):
        for value in (True, False):
            assert SCHEMA.validate(SCHEMA.build(orderId="o", amount=1, count=1, rush=value)) == []


def reference_build(schema, namespace="", **parts):
    """``MessageSchema.build`` as a linear builder through ``Element.add``."""
    root = Element(QName(namespace, schema.element_name))
    known = {part.name for part in schema.parts}
    for name, value in parts.items():
        if name not in known:
            raise ContractViolation(f"unknown part {name!r} for {schema.element_name!r}")
        text = "true" if value is True else "false" if value is False else str(value)
        root.add(name, text=text)
    missing = [part.name for part in schema.parts if part.required and part.name not in parts]
    if missing:
        raise ContractViolation(f"missing required parts {missing} for {schema.element_name!r}")
    return root


def _outcome(build, schema, namespace, parts):
    try:
        return build(schema, namespace, **parts)
    except ContractViolation as violation:
        return str(violation)


#: Schemas with optional, duplicate and Clark-notation part names.
BUILD_SCHEMAS = (
    SCHEMA,
    MessageSchema("empty"),
    MessageSchema(
        "dup",
        (PartSchema("a"), PartSchema("b", "int", required=False), PartSchema("a", "int")),
    ),
    MessageSchema("qualified", (PartSchema("{urn:parts}x"), PartSchema("y", required=False))),
)
BUILD_CASES = (
    ("", {"orderId": "o-1", "amount": 9.5, "count": 2}),
    ("urn:orders", {"count": 2, "orderId": "o", "amount": 1, "rush": False}),
    ("", {"orderId": "o", "amount": 1, "count": 1, "rush": True, "bogus": "x"}),
    ("", {"bogus": "x", "orderId": "o"}),
    ("", {"orderId": "o"}),
    ("", {}),
    ("urn:d", {"a": "z", "b": 0}),
    ("", {"b": 1}),
    ("", {"{urn:parts}x": "v", "y": "w"}),
    ("urn:q", {"y": "w"}),
)


class TestCompiledBuild:
    """``build`` appends parts from a per-schema table, like the linear
    builder through ``Element.add`` did: same tree, same child order, same
    violation messages."""

    @pytest.mark.parametrize("schema", BUILD_SCHEMAS, ids=lambda s: s.element_name)
    @pytest.mark.parametrize("namespace,parts", BUILD_CASES)
    def test_build_matches_the_linear_builder(self, schema, namespace, parts):
        fast = _outcome(MessageSchema.build, schema, namespace, parts)
        reference = _outcome(reference_build, schema, namespace, parts)
        if isinstance(reference, str):
            assert fast == reference
            return
        assert fast.structurally_equal(reference)
        assert [child.name for child in fast.children] == [
            child.name for child in reference.children
        ]
        assert all(child.parent is fast for child in fast.children)
        assert fast.parent is None

    def test_part_names_are_qualified_once(self):
        built = BUILD_SCHEMAS[3].build(**{"{urn:parts}x": "v"})
        assert built.children[0].name == QName("urn:parts", "x")
        assert built.find("{urn:parts}x").text == "v"

    def test_compiled_schema_pickles(self):
        SCHEMA.build(orderId="o", amount=1, count=1)  # compile the tables
        clone = pickle.loads(pickle.dumps(SCHEMA))
        assert clone == SCHEMA
        assert clone.build(orderId="o", amount=1, count=1).structurally_equal(
            SCHEMA.build(orderId="o", amount=1, count=1)
        )


class TestServiceContract:
    def test_operation_lookup(self):
        assert CONTRACT.operation("submit").name == "submit"
        with pytest.raises(KeyError):
            CONTRACT.operation("ghost")

    def test_has_operation(self):
        assert CONTRACT.has_operation("submit")
        assert not CONTRACT.has_operation("cancel")

    def test_soap_action_round_trip(self):
        action = CONTRACT.operation("submit").soap_action("Orders")
        assert CONTRACT.operation_for_action(action).name == "submit"
        assert CONTRACT.operation_for_action("urn:other:thing") is None

    def test_validate_request_raises_with_details(self):
        bad = Element("orderRequest")
        with pytest.raises(ContractViolation) as excinfo:
            CONTRACT.validate_request("submit", bad)
        assert excinfo.value.violations

    def test_validate_response(self):
        good = Element("orderResponse", children=[Element("status", text="ok")])
        CONTRACT.validate_response("submit", good)  # no raise
        with pytest.raises(ContractViolation):
            CONTRACT.validate_response("submit", Element("orderResponse"))

    def test_default_declared_faults(self):
        assert FaultCode.SERVICE_FAILURE in CONTRACT.operation("submit").declared_faults


class _SharedAction(Operation):
    """An operation whose action URI ignores its name."""

    def soap_action(self, service_type: str) -> str:
        return f"urn:{service_type}:shared"


def _schema(element):
    return MessageSchema(element, (PartSchema("v", required=False),))


#: Duplicate names, duplicate actions and duplicate input elements: the
#: first declaration must win each lookup, as in a scan of ``operations``.
DUPLICATES = ServiceContract(
    service_type="Dup",
    operations=(
        Operation("first", _schema("inA"), _schema("out1")),
        Operation("first", _schema("inB"), _schema("out2")),
        _SharedAction("second", _schema("inA"), _schema("out3")),
        _SharedAction("third", _schema("inC"), _schema("out4")),
        Operation("fourth", _schema("inC"), _schema("out5")),
    ),
)


def scan_name(contract, name):
    for operation in contract.operations:
        if operation.name == name:
            return operation
    return None


def scan_action(contract, action):
    for operation in contract.operations:
        if operation.soap_action(contract.service_type) == action:
            return operation
    return None


def scan_element(contract, local):
    for operation in contract.operations:
        if operation.input.element_name == local:
            return operation
    return None


class TestDispatchTables:
    """Name, action and root-element lookups equal the linear scans."""

    NAMES = ("first", "second", "third", "fourth", "ghost", "")
    ACTIONS = (
        "urn:Dup:first",
        "urn:Dup:shared",
        "urn:Dup:second",
        "urn:Dup:fourth",
        "urn:Other:first",
        "",
    )
    ELEMENTS = ("inA", "inB", "inC", "out1", "")

    @pytest.mark.parametrize("contract", [DUPLICATES, CONTRACT], ids=["dup", "orders"])
    def test_tables_equal_the_scans(self, contract):
        for name in self.NAMES + ("submit",):
            expected = scan_name(contract, name)
            assert contract.has_operation(name) is (expected is not None)
            if expected is None:
                with pytest.raises(KeyError, match=repr(name)):
                    contract.operation(name)
            else:
                assert contract.operation(name) is expected
        for action in self.ACTIONS + ("urn:Orders:submit",):
            assert contract.operation_for_action(action) is scan_action(contract, action)
        for local in self.ELEMENTS + ("orderRequest",):
            assert contract.operation_for_element(local) is scan_element(contract, local)

    def test_first_declaration_wins(self):
        assert DUPLICATES.operation("first").input.element_name == "inA"
        assert DUPLICATES.operation_for_action("urn:Dup:shared").name == "second"
        assert DUPLICATES.operation_for_element("inA").name == "first"
        assert DUPLICATES.operation_for_element("inC").name == "third"

    def test_equal_contracts_compile_their_own_tables(self):
        twin = ServiceContract(DUPLICATES.service_type, DUPLICATES.operations)
        assert twin == DUPLICATES and hash(twin) == hash(DUPLICATES)
        assert twin.operation("fourth") is DUPLICATES.operation("fourth")


class _Hosted:
    """The attributes ``ServiceContainer._resolve_operation`` reads."""

    contract = DUPLICATES
    service_type = "Dup"
    name = "dup1"


def _resolve(action, body):
    request = SoapEnvelope(AddressingHeaders(to="http://dup", action=action), body=body)
    return ServiceContainer._resolve_operation(_Hosted, request)


class TestContainerDispatch:
    def test_action_first(self):
        assert _resolve("urn:Dup:shared", Element("inC")) == "second"

    def test_root_element_fallback_without_an_action(self):
        assert _resolve(None, Element("inA")) == "first"
        assert _resolve(None, Element("inC")) == "third"
        assert _resolve("urn:unknown", Element("{urn:any}inB")) == "first"

    def test_unknown_action_and_element_is_a_client_fault(self):
        for body in (Element("nothing"), None):
            fault = _resolve("urn:unknown", body)
            assert isinstance(fault, SoapFault)
            assert fault.code is FaultCode.CLIENT
            assert fault.reason == "no operation of 'Dup' matches action 'urn:unknown'"
