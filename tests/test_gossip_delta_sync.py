"""Delta-only gossip sync is equivalent to re-folding every window.

``GossipAgent.sync_local`` folds only the records observed since its
previous sync, found by walking back from each window's tail to the
record that was newest then. The reference agent re-folds every windowed
record each round, as the sync used to. Random rounds over a small,
evicting window, with buses suspected (unregistered) and rejoining, must
leave every agent's ``known`` sets, every QoS window and the exchanged
record counts exactly equal in both fleets.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.federation import QoSGossip
from repro.federation.gossip import GossipAgent
from repro.services import InvocationOutcome, InvocationRecord
from repro.simulation import Environment, RandomSource
from repro.wsbus import QoSMeasurementService

BUSES = ("bus-0", "bus-1", "bus-2")
ENDPOINTS = ("http://svc/a", "http://svc/b")


class FullResyncAgent(GossipAgent):
    """The reference: every sync folds the whole window."""

    def sync_local(self) -> None:
        for address, endpoint in self.qos.endpoints.items():
            self.known.setdefault(address, set()).update(endpoint.records)


class FullResyncGossip(QoSGossip):
    def register(self, name: str, qos) -> GossipAgent:
        agent = self.agents[name] = FullResyncAgent(name, qos)
        return agent


def _record(target: str, caller: str, started: float, duration: float, ok: bool):
    return InvocationRecord(
        caller=caller,
        target=target,
        operation="op",
        started_at=started,
        finished_at=started + duration,
        outcome=InvocationOutcome.SUCCESS if ok else InvocationOutcome.FAULT,
    )


class Fleet:
    def __init__(self, gossip_type: type, window: int) -> None:
        self.gossip = gossip_type(Environment(), random_source=RandomSource(5))
        self.qos = {name: QoSMeasurementService(window=window) for name in BUSES}
        for name in BUSES:
            self.gossip.register(name, self.qos[name])


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.sampled_from(BUSES),
            st.sampled_from(ENDPOINTS),
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
            st.sampled_from([0.0, 0.1, 0.25, 2.0]),
            st.booleans(),
        ),
        st.tuples(st.just("round"), st.sets(st.sampled_from(BUSES), min_size=2)),
        st.tuples(st.just("suspect"), st.sampled_from(BUSES)),
        st.tuples(st.just("rejoin"), st.sampled_from(BUSES)),
    ),
    max_size=60,
)


@given(st.integers(min_value=1, max_value=4), operations)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_delta_sync_equals_full_resync(window, ops):
    delta, reference = Fleet(QoSGossip, window), Fleet(FullResyncGossip, window)
    for op in ops:
        kind = op[0]
        if kind == "observe":
            _, bus, address, started, duration, ok = op
            # One record object, observed by the same bus in both fleets.
            record = _record(address, bus, started, duration, ok)
            delta.qos[bus].observe(record)
            reference.qos[bus].observe(record)
        elif kind == "round":
            alive = sorted(op[1])
            assert delta.gossip.run_round(alive) == reference.gossip.run_round(alive)
        else:
            for fleet in (delta, reference):
                if kind == "suspect":
                    fleet.gossip.unregister(op[1])
                elif op[1] not in fleet.gossip.agents:
                    fleet.gossip.register(op[1], fleet.qos[op[1]])
        assert sorted(delta.gossip.agents) == sorted(reference.gossip.agents)
        for name, agent in delta.gossip.agents.items():
            assert agent.known == reference.gossip.agents[name].known
    assert delta.gossip.records_exchanged == reference.gossip.records_exchanged
    for name in BUSES:
        for address, endpoint in delta.qos[name].endpoints.items():
            expected = reference.qos[name].endpoint(address)
            assert list(endpoint.records) == list(expected.records)
            assert endpoint.total_invocations == expected.total_invocations


class TestDeltaSync:
    def _pair(self, window=500):
        gossip = QoSGossip(Environment(), random_source=RandomSource(5))
        qos_a, qos_b = QoSMeasurementService(window), QoSMeasurementService(window)
        gossip.register("a", qos_a)
        gossip.register("b", qos_b)
        return gossip, qos_a, qos_b

    def test_sync_folds_only_records_after_the_marker(self):
        gossip, qos_a, _ = self._pair()
        first = _record("http://svc/a", "a", 0.0, 0.1, True)
        qos_a.observe(first)
        gossip.run_round(["a", "b"])
        agent = gossip.agents["a"]
        # Forget the first record: a full re-fold would bring it back.
        agent.known["http://svc/a"].discard(first)
        second = _record("http://svc/a", "a", 1.0, 0.1, True)
        qos_a.observe(second)
        agent.sync_local()
        assert agent.known["http://svc/a"] == {second}

    def test_rejoined_agent_refolds_its_whole_window(self):
        gossip, qos_a, _ = self._pair()
        qos_c = QoSMeasurementService()
        gossip.register("c", qos_c)
        records = [_record("http://svc/a", "a", float(i), 0.1, True) for i in range(3)]
        for record in records[:2]:
            qos_a.observe(record)
        gossip.run_round(["a", "b"])
        # Suspected, then back: the new agent has no marker and no known set.
        gossip.unregister("a")
        qos_a.observe(records[2])
        rejoined = gossip.register("a", qos_a)
        assert rejoined.known == {}
        # Bus c never heard of a's records: only a full re-fold brings them.
        assert gossip.run_round(["a", "c"]) == 3
        assert rejoined.known["http://svc/a"] == set(records)
        assert list(qos_c.endpoint("http://svc/a").records) == records
        assert qos_c.endpoint("http://svc/a").total_invocations == 3

    def test_evicted_marker_folds_the_whole_window(self):
        gossip, qos_a, qos_b = self._pair(window=2)
        qos_a.observe(_record("http://svc/a", "a", 0.0, 0.1, True))
        gossip.run_round(["a", "b"])
        later = [_record("http://svc/a", "a", float(i), 0.1, True) for i in range(1, 5)]
        for record in later:
            qos_a.observe(record)
        gossip.run_round(["a", "b"])
        assert set(later[-2:]) <= gossip.agents["a"].known["http://svc/a"]
        assert list(qos_b.endpoint("http://svc/a").records) == later[-2:]
