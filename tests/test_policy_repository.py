"""Unit tests for the policy repository, validation and parser."""

import pytest

from repro.orchestration import Empty, ProcessDefinition, Sequence
from repro.policy import (
    AdaptationPolicy,
    AddActivityAction,
    BusinessValue,
    InvokeSpec,
    MonitoringPolicy,
    PolicyDocument,
    PolicyRepository,
    PolicyScope,
    PolicyValidationError,
    RemoveActivityAction,
    RetryAction,
    SkipAction,
    serialize_policy_document,
    validate_document,
)
from repro.core import MASCPolicyParser


def document_with(name="doc", policies=None, monitoring=None):
    document = PolicyDocument(name)
    document.adaptation_policies.extend(policies or [])
    document.monitoring_policies.extend(monitoring or [])
    return document


def simple_policy(name, priority=100, triggers=("fault.Timeout",), **kwargs):
    return AdaptationPolicy(
        name=name, triggers=triggers, actions=(RetryAction(),), priority=priority, **kwargs
    )


class TestRepositoryLookup:
    def test_priority_ordering(self):
        repo = PolicyRepository()
        repo.load(
            document_with(
                policies=[
                    simple_policy("later", priority=50),
                    simple_policy("first", priority=1),
                ]
            )
        )
        names = [p.name for p in repo.adaptation_policies_for("fault.Timeout")]
        assert names == ["first", "later"]

    def test_name_breaks_priority_ties(self):
        repo = PolicyRepository()
        repo.load(document_with(policies=[simple_policy("zeta"), simple_policy("alpha")]))
        names = [p.name for p in repo.adaptation_policies_for("fault.Timeout")]
        assert names == ["alpha", "zeta"]

    def test_scope_filtering(self):
        repo = PolicyRepository()
        repo.load(
            document_with(
                policies=[
                    simple_policy("retailers", scope=PolicyScope(service_type="Retailer")),
                    simple_policy("everything"),
                ]
            )
        )
        matched = repo.adaptation_policies_for("fault.Timeout", service_type="Warehouse")
        assert [p.name for p in matched] == ["everything"]

    def test_event_filtering(self):
        repo = PolicyRepository()
        repo.load(document_with(policies=[simple_policy("p", triggers=("fault.Timeout",))]))
        assert repo.adaptation_policies_for("fault.ServiceUnavailable") == []

    def test_hot_reload_replaces_document(self):
        repo = PolicyRepository()
        repo.load(document_with(name="d", policies=[simple_policy("old")]))
        repo.load(document_with(name="d", policies=[simple_policy("new")]))
        assert [p.name for p in repo.adaptation_policies()] == ["new"]

    def test_unload(self):
        repo = PolicyRepository()
        repo.load(document_with(name="d", policies=[simple_policy("p")]))
        repo.unload("d")
        assert repo.adaptation_policies() == []

    def test_find_policy_by_name(self):
        repo = PolicyRepository()
        repo.load(
            document_with(
                policies=[simple_policy("a")],
                monitoring=[MonitoringPolicy(name="m", events=("e",))],
            )
        )
        assert repo.find_policy("a").name == "a"
        assert repo.find_policy("m").name == "m"
        assert repo.find_policy("ghost") is None

    def test_load_xml(self):
        repo = PolicyRepository()
        xml = serialize_policy_document(document_with(name="x", policies=[simple_policy("p")]))
        repo.load_xml(xml)
        assert repo.find_policy("p") is not None

    def test_configuration_pairs_in_priority_order(self):
        def configure(name, priority, *actions, triggers=("demo.configure",)):
            return AdaptationPolicy(
                name=name, triggers=triggers, actions=actions, priority=priority
            )

        late, early = RetryAction(max_retries=1), RetryAction(max_retries=2)
        skip = SkipAction()
        repo = PolicyRepository()
        repo.load(document_with("late", [configure("late", 20, late)]))
        repo.load(
            document_with(
                "early",
                [
                    configure("early", 10, skip, early),
                    configure("other", 5, RetryAction(), triggers=("fault.*",)),
                ],
            )
        )
        pairs = repo.configuration("demo.configure", RetryAction)
        assert [(policy.name, action) for policy, action in pairs] == [
            ("early", early),
            ("late", late),
        ]
        assert [a for _, a in repo.configuration("demo.configure", (SkipAction, RetryAction))] == [
            skip,
            early,
            late,
        ]
        assert repo.configuration("missing.configure", RetryAction) == []


class TestStatesAndLedger:
    def test_default_state(self):
        assert PolicyRepository().state_of("endpoint:x") == "normal"

    def test_state_gating_and_transition(self):
        repo = PolicyRepository()
        policy = simple_policy("p", state_before="normal", state_after="recovering")
        assert repo.check_state(policy, "endpoint:x")
        repo.transition(policy, "endpoint:x")
        assert repo.state_of("endpoint:x") == "recovering"
        assert not repo.check_state(policy, "endpoint:x")

    def test_no_state_requirement_always_passes(self):
        repo = PolicyRepository()
        repo.set_state("k", "weird")
        assert repo.check_state(simple_policy("p"), "k")

    def test_ledger_accumulates_by_currency(self):
        repo = PolicyRepository()
        repo.record_business_value(
            1.0, simple_policy("a", business_value=BusinessValue(5.0, "AUD")), "s"
        )
        repo.record_business_value(
            2.0, simple_policy("b", business_value=BusinessValue(-2.0, "AUD")), "s"
        )
        repo.record_business_value(
            3.0, simple_policy("c", business_value=BusinessValue(1.0, "USD")), "s"
        )
        assert repo.business_totals() == {"AUD": 3.0, "USD": 1.0}

    def test_policy_without_value_not_recorded(self):
        repo = PolicyRepository()
        repo.record_business_value(1.0, simple_policy("a"), "s")
        assert repo.ledger == []


class TestValidation:
    def test_duplicate_names_error(self):
        document = document_with(policies=[simple_policy("dup"), simple_policy("dup")])
        with pytest.raises(PolicyValidationError):
            validate_document(document)

    def test_anchor_checked_against_process(self):
        process = ProcessDefinition("p", Sequence("main", [Empty("real")]))
        document = document_with(
            policies=[
                AdaptationPolicy(
                    name="a",
                    triggers=("e",),
                    actions=(
                        AddActivityAction(
                            anchor="ghost",
                            invokes=(InvokeSpec(name="x", operation="o", address="http://x"),),
                        ),
                    ),
                )
            ]
        )
        with pytest.raises(PolicyValidationError):
            validate_document(document, process=process)

    def test_remove_target_checked(self):
        process = ProcessDefinition("p", Sequence("main", [Empty("real")]))
        document = document_with(
            policies=[
                AdaptationPolicy(
                    name="a",
                    triggers=("e",),
                    actions=(RemoveActivityAction(target="ghost"),),
                )
            ]
        )
        with pytest.raises(PolicyValidationError):
            validate_document(document, process=process)

    def test_unknown_service_type_error(self):
        document = document_with(
            policies=[
                AdaptationPolicy(
                    name="a",
                    triggers=("e",),
                    actions=(
                        AddActivityAction(
                            anchor="x",
                            invokes=(InvokeSpec(name="i", operation="o", service_type="Ghost"),),
                        ),
                    ),
                )
            ]
        )
        with pytest.raises(PolicyValidationError):
            validate_document(document, known_service_types={"Retailer"})

    def test_priority_tie_warning(self):
        document = document_with(
            policies=[simple_policy("a", priority=5), simple_policy("b", priority=5)]
        )
        issues = validate_document(document)
        assert any("shares trigger" in issue.message for issue in issues)

    def test_noop_state_transition_warning(self):
        document = document_with(
            policies=[simple_policy("a", state_before="s", state_after="s")]
        )
        issues = validate_document(document)
        assert any("no-op" in issue.message for issue in issues)

    def test_ineffective_monitoring_warning(self):
        document = document_with(monitoring=[MonitoringPolicy(name="m", events=("e",))])
        issues = validate_document(document)
        assert any("no observable effect" in issue.message for issue in issues)

    def test_clean_document_no_issues(self):
        document = document_with(policies=[simple_policy("a")])
        assert validate_document(document) == []


class TestParser:
    def test_import_xml_validates(self):
        repo = PolicyRepository()
        parser = MASCPolicyParser(repo)
        document = document_with(name="d", policies=[simple_policy("dup"), simple_policy("dup")])
        with pytest.raises(PolicyValidationError):
            parser.import_xml(serialize_policy_document(document))

    def test_import_file_caches_by_mtime(self, tmp_path):
        repo = PolicyRepository()
        parser = MASCPolicyParser(repo)
        path = tmp_path / "policies.xml"
        path.write_text(
            serialize_policy_document(document_with(name="d", policies=[simple_policy("p")]))
        )
        assert parser.import_file(path) is not None
        assert parser.import_file(path) is None  # unchanged: not re-parsed
        assert parser.parse_count == 1

    def test_import_directory(self, tmp_path):
        repo = PolicyRepository()
        parser = MASCPolicyParser(repo)
        for index in range(3):
            (tmp_path / f"doc{index}.xml").write_text(
                serialize_policy_document(
                    document_with(name=f"d{index}", policies=[simple_policy(f"p{index}")])
                )
            )
        assert len(parser.import_directory(tmp_path)) == 3
        assert len(repo.adaptation_policies()) == 3
