"""Policy repository: storage, lookup, subject states, business ledger.

"Monitoring and adaptation policy assertions are stored in a policy
repository, which is a collection of instances of policy classes." The
repository also owns the two pieces of shared adaptation state the policy
model references:

- **subject states** ("a state in which the adapted system should be before
  the adaptation... a state in which the system will be after");
- the **business-value ledger** accumulating the monetary deltas of applied
  adaptations.

Reloading a document with the same name replaces it atomically — the
paper's hot-reload property: "When a WS-Policy4MASC document changes, these
changes are automatically enforced the next time adaptation is needed with
no need to restart any software component."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.policy.actions import AdaptationAction
from repro.policy.model import (
    AdaptationPolicy,
    BusinessValue,
    GoalPolicy,
    MonitoringPolicy,
    PolicyDocument,
)
from repro.policy.xml import parse_policy_document

__all__ = ["BusinessLedgerEntry", "PolicyRepository"]

DEFAULT_STATE = "normal"


@dataclass(frozen=True)
class BusinessLedgerEntry:
    """One accounted adaptation."""

    time: float
    policy_name: str
    value: BusinessValue
    subject: str = ""


class PolicyRepository:
    """In-memory store of policy class instances with prioritized lookup."""

    def __init__(self) -> None:
        self._documents: dict[str, PolicyDocument] = {}
        self._states: dict[str, str] = {}
        self.ledger: list[BusinessLedgerEntry] = []

    # -- loading -----------------------------------------------------------------

    def load(self, document: PolicyDocument) -> PolicyDocument:
        """Add or hot-replace a document (keyed by document name)."""
        self._documents[document.name] = document
        return document

    def load_xml(self, text: str) -> PolicyDocument:
        """Parse and load a WS-Policy4MASC XML document."""
        return self.load(parse_policy_document(text))

    def unload(self, document_name: str) -> None:
        self._documents.pop(document_name, None)

    @property
    def documents(self) -> list[PolicyDocument]:
        return list(self._documents.values())

    # -- lookup ------------------------------------------------------------------

    def monitoring_policies(self) -> list[MonitoringPolicy]:
        policies = [
            policy
            for document in self._documents.values()
            for policy in document.monitoring_policies
        ]
        return sorted(policies, key=lambda p: (p.priority, p.name))

    def adaptation_policies(self) -> list[AdaptationPolicy]:
        policies = [
            policy
            for document in self._documents.values()
            for policy in document.adaptation_policies
        ]
        return sorted(policies, key=lambda p: (p.priority, p.name))

    def monitoring_policies_for(self, event: str, **subject) -> list[MonitoringPolicy]:
        """Monitoring policies triggered by ``event`` in the given scope,
        in priority order (lower priority number runs first)."""
        return [
            policy
            for policy in self.monitoring_policies()
            if policy.triggered_by(event) and policy.scope.matches(**subject)
        ]

    def adaptation_policies_for(self, event: str, **subject) -> list[AdaptationPolicy]:
        """Adaptation policies triggered by ``event`` in the given scope,
        in priority order."""
        return [
            policy
            for policy in self.adaptation_policies()
            if policy.triggered_by(event) and policy.scope.matches(**subject)
        ]

    def configuration(
        self, trigger: str, kind: type | tuple[type, ...]
    ) -> list[tuple[AdaptationPolicy, AdaptationAction]]:
        """The ``(policy, action)`` pairs of the policies carrying ``trigger``
        whose actions are instances of ``kind``, in priority order.

        This is the load-time scan behind the configuration triggers
        (``resilience.configure``, ``observability.slo``, ...): where one
        action must win, the first pair does.
        """
        return [
            (policy, action)
            for policy in self.adaptation_policies()
            if trigger in policy.triggers
            for action in policy.actions
            if isinstance(action, kind)
        ]

    def goal_policies(self) -> list[GoalPolicy]:
        policies = [
            policy
            for document in self._documents.values()
            for policy in document.goal_policies
        ]
        return sorted(policies, key=lambda p: (p.priority, p.name))

    def goal_policy_for(self, **subject) -> GoalPolicy | None:
        """The highest-priority goal policy whose scope covers the subject."""
        for policy in self.goal_policies():
            if policy.scope.matches(**subject):
                return policy
        return None

    def find_policy(self, name: str) -> MonitoringPolicy | AdaptationPolicy | GoalPolicy | None:
        for document in self._documents.values():
            for policy in document.monitoring_policies:
                if policy.name == name:
                    return policy
            for policy in document.adaptation_policies:
                if policy.name == name:
                    return policy
            for policy in document.goal_policies:
                if policy.name == name:
                    return policy
        return None

    # -- subject states -------------------------------------------------------------

    def state_of(self, subject_key: str) -> str:
        return self._states.get(subject_key, DEFAULT_STATE)

    def set_state(self, subject_key: str, state: str) -> None:
        self._states[subject_key] = state

    def check_state(self, policy: AdaptationPolicy, subject_key: str) -> bool:
        """True if the subject is in the policy's required pre-state."""
        if policy.state_before is None:
            return True
        return self.state_of(subject_key) == policy.state_before

    def transition(self, policy: AdaptationPolicy, subject_key: str) -> None:
        """Apply the policy's post-state, if it declares one."""
        if policy.state_after is not None:
            self._states[subject_key] = policy.state_after

    # -- business ledger -------------------------------------------------------------

    def record_business_value(
        self, time: float, policy: AdaptationPolicy, subject: str = ""
    ) -> None:
        if policy.business_value is not None:
            self.ledger.append(
                BusinessLedgerEntry(time, policy.name, policy.business_value, subject)
            )

    def business_totals(self) -> dict[str, float]:
        """Accumulated business value per currency."""
        totals: dict[str, float] = {}
        for entry in self.ledger:
            totals[entry.value.currency] = (
                totals.get(entry.value.currency, 0.0) + entry.value.amount
            )
        return totals
