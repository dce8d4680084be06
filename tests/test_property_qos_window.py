"""``EndpointQoS`` aggregates equal the naive window computation (hypothesis).

The QoS Measurement Service memoizes one view per query window (the
window's record count and its sorted successful durations) and rebuilds
it only after the window changes. The oracle, ``conftest.ReferenceQoSWindow``,
copies, filters and sorts the window on every query. Interleavings of
observations (successes and faults), gossip-style merges (with duplicate,
equal-copy and out-of-order records) and queries are drawn over windows
small enough to evict; every aggregate is compared with ``==``, so the
floats must be bit-identical, not merely close.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from conftest import ReferenceQoSWindow
from repro.services import InvocationOutcome, InvocationRecord
from repro.soap import FaultCode
from repro.wsbus import QoSMeasurementService

ENDPOINTS = ("http://svc/a", "http://svc/b")
AGGREGATES = ("mean", "min", "max", "p95", "p99")

# A few shared instants make equal completion times (and so the merge's
# collision path) common; arbitrary floats cover the rest.
instants = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
durations = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.30000000000000004, 1e-9, 0.7]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
fresh_records = st.tuples(st.just("new"), instants, durations, st.booleans())
# An earlier record of the same endpoint: the same object or an equal copy.
old_records = st.tuples(st.just("old"), st.integers(min_value=0), st.booleans())

operations = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.sampled_from(ENDPOINTS), fresh_records),
        st.tuples(
            st.just("merge"),
            st.sampled_from(ENDPOINTS),
            st.lists(st.one_of(fresh_records, old_records), max_size=6),
        ),
        st.tuples(st.just("query"), st.sampled_from(ENDPOINTS), st.just(None)),
    ),
    max_size=40,
)


def _record(target: str, started: float, duration: float, ok: bool) -> InvocationRecord:
    return InvocationRecord(
        caller="vep",
        target=target,
        operation="op",
        started_at=started,
        finished_at=started + duration,
        outcome=InvocationOutcome.SUCCESS if ok else InvocationOutcome.FAULT,
        fault_code=None if ok else FaultCode.TIMEOUT,
    )


def _assert_matches(qos: QoSMeasurementService, reference: ReferenceQoSWindow, address: str):
    endpoint = qos.endpoint(address)
    assert list(endpoint.records) == reference.records
    assert endpoint.total_invocations == reference.total_invocations
    assert endpoint.total_failures == reference.total_failures
    # 0 is the whole window, 1 and 3 slice it, qos.window is its capacity
    # and qos.window + 5 asks for more than it can ever hold.
    for window in (0, 1, 3, qos.window, qos.window + 5):
        for successful_only in (False, True):
            assert endpoint.sample_count(window, successful_only) == reference.sample_count(
                window, successful_only
            )
        assert endpoint.reliability(window) == reference.reliability(window)
        assert qos.lookup("reliability", window, "mean", address) == reference.reliability(window)
        for aggregate in AGGREGATES:
            expected = reference.response_time(window, aggregate)
            assert endpoint.response_time(window, aggregate) == expected
            assert qos.lookup("response_time", window, aggregate, address) == expected


@given(st.integers(min_value=1, max_value=6), operations)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_memoized_aggregates_equal_naive_window(service_window, ops):
    qos = QoSMeasurementService(window=service_window)
    references = {address: ReferenceQoSWindow(service_window) for address in ENDPOINTS}
    history: dict[str, list[InvocationRecord]] = {address: [] for address in ENDPOINTS}

    def build(address, spec):
        if spec[0] == "new":
            record = _record(address, *spec[1:])
            history[address].append(record)
            return record
        _, index, copy = spec
        if not history[address]:
            return None
        earlier = history[address][index % len(history[address])]
        return replace(earlier) if copy else earlier

    for kind, address, payload in ops:
        if kind == "observe":
            record = build(address, payload)
            qos.observe(record)
            references[address].observe(record)
        elif kind == "merge":
            records = [r for r in (build(address, spec) for spec in payload) if r is not None]
            assert qos.merge_records(address, records) == references[address].merge(records)
        elif qos.endpoint(address) is not None:
            # Twice: the second pass is answered from the memoized views.
            _assert_matches(qos, references[address], address)
            _assert_matches(qos, references[address], address)
    for address in ENDPOINTS:
        if qos.endpoint(address) is not None:
            _assert_matches(qos, references[address], address)
