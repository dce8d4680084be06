"""The WS-Policy4MASC assertion schema: the action dataclasses drive one
generic XML parse/serialize path and the field bound checks.

Pins what the schema must keep (byte-identical builder output, the
``describe()`` text) and what it must refuse (malformed assertions).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.casestudies.scm import policies as scm_policies
from repro.casestudies.stocktrading import policies as trading_policies
from repro.policy import (
    AdaptationPolicy,
    PolicyDocument,
    PolicyError,
    parse_policy_document,
    serialize_policy_document,
)
from repro.policy.actions import (
    ACTION_TYPES,
    ActionError,
    AdaptiveTimeoutAction,
    AddActivityAction,
    BulkheadAction,
    BurnRateAlertAction,
    CircuitBreakerAction,
    CompensateInstanceAction,
    ConcurrentInvokeAction,
    DelayProcessAction,
    ExtendTimeoutAction,
    FederationAction,
    IdempotencyAction,
    InvokeSpec,
    LoadLevelingAction,
    LoadSheddingAction,
    PreferBestAction,
    QuarantineAction,
    RemoveActivityAction,
    ReplaceActivityAction,
    ResponseCacheAction,
    ResumeProcessAction,
    RetryAction,
    SelectionStrategyAction,
    ShardRoutingAction,
    SkipAction,
    SloAction,
    SubstituteAction,
    SuspendProcessAction,
    TerminateProcessAction,
    TracingAction,
)

EXAMPLE_POLICIES = Path(__file__).resolve().parent.parent / "examples" / "policies"


def _sha256(document: PolicyDocument) -> str:
    return hashlib.sha256(serialize_policy_document(document).encode()).hexdigest()


def _document(*actions) -> PolicyDocument:
    document = PolicyDocument("d")
    document.adaptation_policies.append(
        AdaptationPolicy(name="a", triggers=("e",), actions=actions)
    )
    return document


def _actions_xml(actions: str) -> str:
    return (
        '<wsp:Policy xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy" '
        'xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc" Name="d">'
        '<masc:AdaptationPolicy name="a"><masc:On event="e"/>'
        f"<masc:Actions>{actions}</masc:Actions>"
        "</masc:AdaptationPolicy></wsp:Policy>"
    )


# --- byte identity with the hand-written serializer ---------------------------

#: sha256 of serialize_policy_document(builder()) at default arguments, as
#: produced by the per-action serializer this schema replaced.
BUILDER_SHA256 = {
    "broadcast_policy_document": (
        "da63bd1775ddcf935b3413b772d908b2d33ab4d4f3475be7db4366a641cab601"
    ),
    "federation_policy_document": (
        "fdbd3acdc6a8993168add5d2364ac9ebb40418e2ab27054a71b2fb053b72824d"
    ),
    "logging_skip_policy_document": (
        "828d1e0726a28e99c7d0dc6f7f974b2a7faf3bc902f204152d972a1ea8d65f3e"
    ),
    "resilience_policy_document": (
        "4f8d3b9c6399049446a10c25adca2b3c83588b778dc205dea70358bb3cbeeae2"
    ),
    "retailer_recovery_policy_document": (
        "727ef944e2b537323d6d764b9aa5fd508a2ec0f0a28049f4476d28a21b6fa42c"
    ),
    "saga_policy_document": (
        "32344110d4f19ddeb2d0b6ca88381d027e26b71d835d3bc90b2e27bcd6812dbd"
    ),
    "slo_policy_document": (
        "364ff64b8a2bf37245c01726b4bd43c73f47d2cae8a116b22bd265ad65ffaed7"
    ),
    "tracing_policy_document": (
        "e8dcd13fb30fc7bb41b3cce060cc7cacef3b050f66df89a3231f43e31fa4cff8"
    ),
    "traffic_policy_document": (
        "6e73ad3ec9d0e3db8bd983ae28c0db9f08625db3bbcec915e0e637cf8941367e"
    ),
    "compliance_removal_policy_document": (
        "349ad4768ed9ab407f0e508ea6f23f92729892dcd916c2f3117f979d7ce29518"
    ),
    "credit_rating_policy_document": (
        "3ced27226c5bcbe6b62f0d2ab47b82f6fb95da37a0f09ff8881d5afde676abb4"
    ),
    "currency_conversion_policy_document": (
        "0489a683415740246606824896049f620fa9d367f6560c4ab8309ce525a6621b"
    ),
    "pest_analysis_policy_document": (
        "b5a861ba6d1b671e2d07dd749a901215ac0c46426652fa8a4c3e281479843ae7"
    ),
}
BUILDERS = {
    name: getattr(module, name)
    for module in (scm_policies, trading_policies)
    for name in module.__all__
}


def test_every_builder_is_pinned():
    assert set(BUILDERS) == set(BUILDER_SHA256)


@pytest.mark.parametrize("name", sorted(BUILDER_SHA256))
def test_builder_serialization_is_byte_identical(name):
    assert _sha256(BUILDERS[name]()) == BUILDER_SHA256[name]


@pytest.mark.parametrize(
    "filename,builder",
    [
        ("scm_logging_skip.xml", "logging_skip_policy_document"),
        ("scm_retailer_broadcast.xml", "broadcast_policy_document"),
        ("scm_retailer_recovery.xml", "retailer_recovery_policy_document"),
        ("trading_compliance_removal.xml", "compliance_removal_policy_document"),
        ("trading_credit_rating.xml", "credit_rating_policy_document"),
        ("trading_currency_conversion.xml", "currency_conversion_policy_document"),
        ("trading_pest_analysis.xml", "pest_analysis_policy_document"),
    ],
)
def test_example_files_reserialize_to_pinned_bytes(filename, builder):
    document = parse_policy_document((EXAMPLE_POLICIES / filename).read_text())
    assert _sha256(document) == BUILDER_SHA256[builder]


# --- malformed assertions fail loudly ----------------------------------------


UNKNOWN_ATTRIBUTES = [
    ('<masc:Retry maxRetry="9"/>', "Retry", "maxRetry"),
    ('<masc:Suspend reason="x"/>', "Suspend", "reason"),
    (
        '<masc:AddActivity anchor="a"><masc:InvokeActivity name="n" operation="o"'
        ' address="http://x" timeout="3"/></masc:AddActivity>',
        "InvokeActivity",
        "timeout",
    ),
    (
        '<masc:AddActivity anchor="a"><masc:InvokeActivity name="n" operation="o"'
        ' address="http://x"><masc:Input part="p" value="v" kind="k"/>'
        "</masc:InvokeActivity></masc:AddActivity>",
        "Input",
        "kind",
    ),
    (
        '<masc:AddActivity anchor="a"><masc:InvokeActivity name="n" operation="o"'
        ' address="http://x"><masc:Output variable="v" part="p" xpath="x"/>'
        "</masc:InvokeActivity></masc:AddActivity>",
        "Output",
        "xpath",
    ),
    (
        '<masc:ReplaceActivity target="t"><masc:Bind variable="v" value="1" type="int"/>'
        '<masc:InvokeActivity name="n" operation="o" address="http://x"/>'
        "</masc:ReplaceActivity>",
        "Bind",
        "type",
    ),
    (
        '<masc:ResponseCache><masc:InvalidateOn event="e" pattern="*"/></masc:ResponseCache>',
        "InvalidateOn",
        "pattern",
    ),
]

MALFORMED_VALUES = [
    ('<masc:Retry maxRetries="three"/>', "Retry", "maxRetries"),
    ('<masc:Retry maxRetries="3.0"/>', "Retry", "maxRetries"),
    ('<masc:Quarantine durationSeconds="soon"/>', "Quarantine", "durationSeconds"),
    ('<masc:Tracing alwaysSampleFaults="True"/>', "Tracing", "alwaysSampleFaults"),
    ('<masc:Tracing alwaysSampleSloViolations="yes"/>', "Tracing", "alwaysSampleSloViolations"),
]


@pytest.mark.parametrize(
    "actions,element,attribute",
    UNKNOWN_ATTRIBUTES,
    ids=[f"{element}.{attribute}" for _, element, attribute in UNKNOWN_ATTRIBUTES],
)
def test_unknown_attribute_names_element_and_attribute(actions, element, attribute):
    with pytest.raises(PolicyError, match=rf"{element}.*'{attribute}'"):
        parse_policy_document(_actions_xml(actions))


@pytest.mark.parametrize(
    "actions,element,attribute",
    MALFORMED_VALUES,
    ids=["int=three", "int=3.0", "float=soon", "bool=True", "bool=yes"],
)
def test_malformed_value_names_element_and_attribute(actions, element, attribute):
    with pytest.raises(PolicyError, match=rf"{element}.*'{attribute}'"):
        parse_policy_document(_actions_xml(actions))


def test_unknown_child_element_rejected():
    with pytest.raises(PolicyError, match="Retry"):
        parse_policy_document(_actions_xml("<masc:Retry><masc:Backoff/></masc:Retry>"))


@pytest.mark.parametrize(
    "actions",
    [
        '<masc:Quarantine durationSeconds="nan"/>',
        '<masc:Retry delaySeconds="NaN"/>',
        '<masc:Slo latencyTargetSeconds="nan"/>',
        '<masc:AdaptiveTimeout maxSeconds="nan"/>',
    ],
    ids=["Quarantine", "Retry", "Slo", "AdaptiveTimeout"],
)
def test_nan_fails_the_bound_checks(actions):
    with pytest.raises(ActionError):
        parse_policy_document(_actions_xml(actions))


def test_nan_rejected_from_python_too():
    with pytest.raises(ActionError):
        QuarantineAction(duration_seconds=float("nan"))
    with pytest.raises(ActionError):
        TracingAction(sample_rate=float("nan"))


def test_missing_required_attribute_is_a_policy_error():
    with pytest.raises(PolicyError, match="ShardRouting.*'bus'"):
        parse_policy_document(_actions_xml('<masc:ShardRouting vepPattern="*"/>'))


def test_lowercase_booleans_parse():
    document = parse_policy_document(
        _actions_xml('<masc:Tracing alwaysSampleFaults="false" alwaysSampleSloViolations="true"/>')
    )
    (action,) = document.adaptation_policies[0].actions
    assert action == TracingAction(always_sample_faults=False)


# --- lossless round trip -----------------------------------------------------


def test_slo_percentile_survives_without_latency_target():
    action = SloAction(latency_percentile="p50")
    xml = serialize_policy_document(_document(action))
    (policy,) = parse_policy_document(xml).adaptation_policies
    assert policy.actions == (action,)


def test_defaults_marked_omit_default_are_left_out():
    xml = serialize_policy_document(_document(RetryAction(), SloAction(latency_target_seconds=1.0)))
    assert "jitterFraction" not in xml and "latencyPercentile" not in xml
    xml = serialize_policy_document(
        _document(RetryAction(jitter_fraction=0.5), SloAction(latency_percentile="p95"))
    )
    assert 'jitterFraction="0.5"' in xml and 'latencyPercentile="p95"' in xml


# --- describe() text ---------------------------------------------------------

_SPEC = InvokeSpec(name="audit", operation="log", address="http://audit")
_TWO = (_SPEC, InvokeSpec(name="notify", operation="send", service_type="Mailer"))

#: (instance at its defaults, its text, a non-default instance, its text).
#: The text is user-visible (summaries, render digests), so it is pinned.
DESCRIBE = [
    (
        AddActivityAction(anchor="pay", invokes=(_SPEC,)),
        "add [audit] after 'pay'",
        AddActivityAction(anchor="pay", position="before", invokes=_TWO, block_name="blk"),
        "add [audit, notify] before 'pay'",
    ),
    (
        RemoveActivityAction(target="log"),
        "remove 'log'",
        RemoveActivityAction(target="a", block_end="c"),
        "remove block 'a'..'c'",
    ),
    (
        ReplaceActivityAction(target="pay", invokes=(_SPEC,)),
        "replace 'pay' with [audit]",
        ReplaceActivityAction(target="pay", invokes=_TWO),
        "replace 'pay' with [audit, notify]",
    ),
    (SuspendProcessAction(), "suspend process instance", None, None),
    (ResumeProcessAction(), "resume process instance", None, None),
    (
        TerminateProcessAction(),
        "terminate process instance (terminated by adaptation policy)",
        TerminateProcessAction(reason="fraud"),
        "terminate process instance (fraud)",
    ),
    (
        CompensateInstanceAction(),
        "compensate process instance (orchestration: compensated by adaptation policy)",
        CompensateInstanceAction(scope="purchase-saga", mode="choreography", reason="budget burn"),
        "compensate process instance scope 'purchase-saga' (choreography: budget burn)",
    ),
    (
        DelayProcessAction(),
        "delay process instance by 10.0s",
        DelayProcessAction(delay_seconds=2.5),
        "delay process instance by 2.5s",
    ),
    (
        ExtendTimeoutAction(),
        "extend pending timeout by 10.0s",
        ExtendTimeoutAction(extra_seconds=4.0),
        "extend pending timeout by 4.0s",
    ),
    (
        RetryAction(),
        "retry up to 3x with 2.0s delay",
        RetryAction(
            max_retries=5,
            delay_seconds=0.5,
            backoff_multiplier=2.0,
            max_delay_seconds=8.0,
            jitter_fraction=0.25,
        ),
        "retry up to 5x with 0.5s delay (backoff x2.0), capped at 8.0s, ±25% jitter",
    ),
    (
        SubstituteAction(),
        "substitute (best_response_time)",
        SubstituteAction(strategy="backup", backup_address="http://backup"),
        "substitute (backup) -> http://backup",
    ),
    (
        ConcurrentInvokeAction(),
        "concurrent invocation of all targets, first response wins",
        ConcurrentInvokeAction(max_targets=2),
        "concurrent invocation of 2 targets, first response wins",
    ),
    (
        QuarantineAction(),
        "quarantine endpoint for 60.0s",
        QuarantineAction(duration_seconds=12.5),
        "quarantine endpoint for 12.5s",
    ),
    (
        PreferBestAction(),
        "prefer best endpoint by response_time",
        PreferBestAction(metric="reliability", window=10),
        "prefer best endpoint by reliability",
    ),
    (
        SkipAction(),
        "skip invocation (activity skipped by policy)",
        SkipAction(reason="not critical"),
        "skip invocation (not critical)",
    ),
    (
        CircuitBreakerAction(),
        "circuit breaker (rate>=0.5 over 20, 5 consecutive, open 30s, 1 probes)",
        CircuitBreakerAction(
            failure_rate_threshold=0.25,
            window=10,
            consecutive_failures=2,
            open_seconds=6.0,
            half_open_probes=3,
        ),
        "circuit breaker (rate>=0.25 over 10, 2 consecutive, open 6s, 3 probes)",
    ),
    (
        BulkheadAction(),
        "bulkhead per endpoint (max 16 in flight, queue 32)",
        BulkheadAction(max_concurrent=4, max_queue=0, applies_to="vep"),
        "bulkhead per vep (max 4 in flight, queue 0)",
    ),
    (
        AdaptiveTimeoutAction(),
        "adaptive timeout = 3 x p95 over 50 samples, clamped [0.25, 30]s",
        AdaptiveTimeoutAction(
            aggregate="p99", multiplier=2.5, min_seconds=0.1, max_seconds=4.0, window=20
        ),
        "adaptive timeout = 2.5 x p99 over 20 samples, clamped [0.1, 4]s",
    ),
    (
        LoadSheddingAction(),
        "shed load beyond 64 in-flight mediations",
        LoadSheddingAction(max_inflight=8, max_retry_queue_depth=16),
        "shed load beyond 8 in-flight mediations or retry depth 16",
    ),
    (IdempotencyAction(), "stamp idempotency keys for exactly-once execution", None, None),
    (
        ResponseCacheAction(),
        "cache responses for 30s (max 256 entries)",
        ResponseCacheAction(
            ttl_seconds=12.0, max_entries=8, invalidate_on=("sloBurnRateExceeded", "catalog*")
        ),
        "cache responses for 12s (max 8 entries), invalidated on sloBurnRateExceeded, catalog*",
    ),
    (
        LoadLevelingAction(),
        "level load to 50/s (burst 10, queue 64, wait <= 5s)",
        LoadLevelingAction(rate_per_second=12.5, burst=3, max_queue=5, max_wait_seconds=0.5),
        "level load to 12.5/s (burst 3, queue 5, wait <= 0.5s)",
    ),
    (
        FederationAction(),
        "federation (heartbeat 0.5s x3, gossip 2s fanout 1, lease 3s)",
        FederationAction(
            heartbeat_interval_seconds=0.25,
            suspicion_multiplier=4.0,
            gossip_interval_seconds=1.5,
            gossip_fanout=2,
            lease_seconds=2.0,
        ),
        "federation (heartbeat 0.25s x4, gossip 1.5s fanout 2, lease 2s)",
    ),
    (
        ShardRoutingAction(bus="bus-0"),
        "route VEPs matching '*' to bus 'bus-0'",
        ShardRoutingAction(bus="bus-1", vep_pattern="orders-*"),
        "route VEPs matching 'orders-*' to bus 'bus-1'",
    ),
    (
        SloAction(),
        "SLO 'slo': availability >= 99% over 3600s",
        SloAction(
            name="checkout",
            availability_target=99.5,
            latency_target_seconds=0.8,
            latency_percentile="p95",
            window_seconds=600.0,
        ),
        "SLO 'checkout': availability >= 99.5% over 600s, p95 <= 0.8s",
    ),
    (
        BurnRateAlertAction(),
        "burn-rate alert (fast 14x over 60s, slow 2x over 300s, every 5s)",
        BurnRateAlertAction(
            fast_window_seconds=30.0,
            slow_window_seconds=120.0,
            fast_burn_threshold=6.0,
            evaluation_interval_seconds=2.0,
        ),
        "burn-rate alert (fast 6x over 30s, slow 2x over 120s, every 2s)",
    ),
    (
        TracingAction(),
        "sample 100% of traces + faults/slo-violations",
        TracingAction(
            sample_rate=0.125, always_sample_faults=False, always_sample_slo_violations=False
        ),
        "sample 12% of traces",
    ),
    (
        SelectionStrategyAction(),
        "switch selection strategy to best_reliability",
        SelectionStrategyAction(strategy="round_robin"),
        "switch selection strategy to round_robin",
    ),
]


def test_describe_table_covers_the_registry():
    assert [type(row[0]) for row in DESCRIBE] == list(ACTION_TYPES)


@pytest.mark.parametrize(
    "default,text,other,other_text", DESCRIBE, ids=[type(row[0]).__name__ for row in DESCRIBE]
)
def test_describe_text_is_pinned(default, text, other, other_text):
    assert default.describe() == text
    if other is not None:
        assert type(other) is type(default)
        assert other.describe() == other_text
