"""Gossip-style anti-entropy of QoS observations between buses.

Each bus only measures the invocations it mediated itself, so its
``best_response_time``/``best_reliability`` selection would otherwise see
a fraction of the fleet's evidence. Every gossip round each alive bus
push-pulls its per-endpoint :class:`~repro.services.InvocationRecord`
digest with a seeded-random peer; deltas are applied in a sorted order so
fleet-wide QoS views converge deterministically.
"""

from __future__ import annotations

from repro.observability import NULL_METRICS, NULL_TRACER
from repro.simulation import RandomSource
from repro.wsbus.qos import record_key

__all__ = ["GossipAgent", "QoSGossip"]


class GossipAgent:
    """One bus's view: its QoS service plus everything it has heard."""

    def __init__(self, name: str, qos) -> None:
        self.name = name
        self.qos = qos
        #: Per-endpoint identity sets of every record known (locally
        #: observed or merged), so re-gossip never double-counts.
        self.known: dict[str, set] = {}
        #: Per-endpoint newest windowed record at the last sync.
        self._newest: dict = {}

    def sync_local(self) -> None:
        """Fold locally observed records into the known set.

        Only records after the previous sync's newest record are folded;
        they are found by walking back from the window's tail to that
        record by identity. This is exact because of an invariant of
        :meth:`QoSGossip.run_round`: merges into this agent's window run
        only right after a sync, and every merged record is added to
        ``known``. So every record before the marker, wherever a merge's
        re-sort put it, is known already, and local observations since are
        appended after the marker (an invoker reports each record once, so
        the marker object cannot reappear later in the window). A marker
        evicted from the window walks the whole window, and a fresh agent
        has no marker, so first registration and rejoin fold everything.
        """
        newest = self._newest
        for address, endpoint in self.qos.endpoints.items():
            records = endpoint.records
            marker = newest.get(address)
            fresh = []
            for record in reversed(records):
                if record is marker:
                    break
                fresh.append(record)
            self.known.setdefault(address, set()).update(fresh)
            if records:
                newest[address] = records[-1]


class QoSGossip:
    """Runs periodic anti-entropy rounds over the fleet's QoS digests."""

    def __init__(
        self,
        env,
        interval_seconds: float = 2.0,
        fanout: int = 1,
        random_source: RandomSource | None = None,
        tracer=None,
        metrics=None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"gossip interval must be positive: {interval_seconds}")
        if fanout < 1:
            raise ValueError(f"gossip fanout must be positive: {fanout}")
        self.env = env
        self.interval_seconds = interval_seconds
        self.fanout = fanout
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._rng = (random_source or RandomSource()).stream("federation.gossip")
        self.agents: dict[str, GossipAgent] = {}
        self.rounds = 0
        self.records_exchanged = 0
        self._running = False

    def register(self, name: str, qos) -> GossipAgent:
        agent = GossipAgent(name, qos)
        self.agents[name] = agent
        return agent

    def unregister(self, name: str) -> None:
        self.agents.pop(name, None)

    def start(self, membership) -> None:
        """Run the periodic gossip loop against a membership view."""
        if not self._running:
            self._running = True
            self.env.process(self._loop(membership), name="fleet-gossip")

    def _loop(self, membership):
        while True:
            yield self.env.timeout(self.interval_seconds)
            self.run_round(membership.alive())

    def run_round(self, alive: list[str]) -> int:
        """One anti-entropy round over the alive buses; returns records moved."""
        participants = sorted(name for name in alive if name in self.agents)
        if len(participants) < 2:
            return 0
        self.rounds += 1
        # Every participant syncs before any merge into its window: the
        # delta walk of ``GossipAgent.sync_local`` depends on this order.
        for name in participants:
            self.agents[name].sync_local()
        moved = 0
        for name in participants:
            peers = [p for p in participants if p != name]
            for _ in range(min(self.fanout, len(peers))):
                peer = self._rng.choice(peers)
                moved += self._exchange(self.agents[name], self.agents[peer])
        self.records_exchanged += moved
        if moved and self.metrics.enabled:
            self.metrics.counter("federation.gossip.records").inc(moved)
        return moved

    def _exchange(self, a: GossipAgent, b: GossipAgent) -> int:
        """Push-pull: each side merges what the other has and it lacks."""
        moved = 0
        for source, sink in ((a, b), (b, a)):
            for address in sorted(source.known):
                delta = source.known[address] - sink.known.get(address, set())
                if not delta:
                    continue
                fresh = sorted(delta, key=record_key)
                sink.qos.merge_records(address, fresh)
                sink.known.setdefault(address, set()).update(delta)
                moved += len(fresh)
        return moved

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "records_exchanged": self.records_exchanged,
            "agents": sorted(self.agents),
        }
