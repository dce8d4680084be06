"""Keep the documentation true.

Two enforcement mechanisms:

1. every fenced ```python block in ``docs/*.md`` is extracted and
   executed here, so documented examples stay runnable as the code
   evolves (the README advertises this);
2. the API references the prose makes — dotted ``repro.*`` paths,
   class/method names, action element ↔ class mappings, the expression
   language's builtin whitelist — are resolved against the live code.
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"

FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def python_blocks() -> list[tuple[str, int, str]]:
    """Every fenced python block in docs/*.md as (doc, index, source)."""
    blocks = []
    for doc in sorted(DOCS_DIR.glob("*.md")):
        for index, match in enumerate(FENCE.finditer(doc.read_text(encoding="utf-8"))):
            blocks.append((doc.name, index, match.group(1)))
    return blocks


_BLOCKS = python_blocks()


def test_docs_exist_and_contain_python_examples():
    names = {doc for doc, _, _ in _BLOCKS}
    assert {"observability.md", "simulation.md"} <= names
    # Diagram-only pages are allowed no python, but must exist.
    assert (DOCS_DIR / "architecture.md").is_file()
    assert (DOCS_DIR / "policy-language.md").is_file()


@pytest.mark.parametrize(
    "doc,index,source",
    _BLOCKS,
    ids=[f"{doc}#{index}" for doc, index, _ in _BLOCKS],
)
def test_fenced_python_blocks_execute(doc, index, source):
    """The documented examples run exactly as printed."""
    namespace = {"__name__": f"docscheck_{doc.replace('.', '_')}_{index}"}
    exec(compile(source, f"{doc}[block {index}]", "exec"), namespace)


# --- API audit: the names the prose mentions must exist -----------------------

DOTTED = re.compile(r"\brepro(?:\.\w+)+")


def resolve(path: str):
    """Import the longest module prefix of ``path``, getattr the rest."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


@pytest.mark.parametrize("doc", ["simulation.md", "observability.md"])
def test_every_dotted_reference_resolves(doc):
    text = (DOCS_DIR / doc).read_text(encoding="utf-8")
    references = sorted(set(DOTTED.findall(text)))
    assert references, f"{doc} mentions no repro.* paths?"
    for reference in references:
        resolve(reference)


class TestSimulationDocAudit:
    def test_kernel_names(self):
        from repro import simulation

        for name in ("Environment", "Event", "Timeout", "Process", "AnyOf", "AllOf"):
            assert hasattr(simulation, name), name
        assert hasattr(simulation.Process, "interrupt")

    def test_random_source_streams(self):
        from repro.simulation import RandomSource

        source = RandomSource(42)
        assert source.stream("service.RetailerA") is source.stream("service.RetailerA")
        assert source.fork("availability") is not None

    def test_cost_model_names(self):
        from repro.policy import PolicyRepository
        from repro.services import ProcessingModel  # noqa: F401
        from repro.simulation import Environment, RandomSource
        from repro.transport import LatencyModel, Network
        from repro.wsbus import WsBus

        env = Environment()
        bus = WsBus(env, Network(env, RandomSource(1)), repository=PolicyRepository())
        assert isinstance(bus.mediation_overhead, LatencyModel)

    def test_referenced_tests_exist(self):
        tests_dir = Path(__file__).resolve().parent
        assert (tests_dir / "test_determinism.py").is_file()
        # The "one subtle bug" anecdote names a real regression test.
        corpus = "".join(
            p.read_text(encoding="utf-8") for p in tests_dir.glob("test_*.py")
        )
        assert "def test_any_of_pending_timeout_does_not_count_as_fired" in corpus


class TestPolicyLanguageDocAudit:
    def test_loading_entry_points(self):
        from repro.core import MASC
        from repro.core.parser import MASCPolicyParser
        from repro.policy import PolicyRepository

        assert callable(PolicyRepository.load_xml)
        assert callable(MASCPolicyParser.import_file)
        assert callable(MASCPolicyParser.import_directory)
        assert callable(MASC.load_policies)

    def test_validate_document_signature(self):
        from repro.policy import validate_document

        parameters = inspect.signature(validate_document).parameters
        assert {"document", "process", "known_service_types"} <= set(parameters)

    def test_action_elements_map_to_classes(self):
        """Each documented action element has its implementation class."""
        from repro.policy import actions

        documented = {
            "AddActivity": "AddActivityAction",
            "RemoveActivity": "RemoveActivityAction",
            "ReplaceActivity": "ReplaceActivityAction",
            "Suspend": "SuspendProcessAction",
            "Resume": "ResumeProcessAction",
            "DelayProcess": "DelayProcessAction",
            "Terminate": "TerminateProcessAction",
            "ExtendTimeout": "ExtendTimeoutAction",
            "Retry": "RetryAction",
            "Substitute": "SubstituteAction",
            "ConcurrentInvoke": "ConcurrentInvokeAction",
            "Skip": "SkipAction",
            "Quarantine": "QuarantineAction",
            "PreferBest": "PreferBestAction",
        }
        for element, class_name in documented.items():
            assert hasattr(actions, class_name), f"{element} -> {class_name}"

    def test_every_schema_element_and_attribute_is_documented(self):
        """Walk the action schema registry: every element (and alias), every
        attribute and every child element appears in the doc's tables."""
        from dataclasses import fields
        from typing import get_type_hints

        from repro.policy.actions import ACTION_TYPES
        from repro.policy.xml import attribute_name, element_tags

        text = (DOCS_DIR / "policy-language.md").read_text(encoding="utf-8")
        rows = [line for line in text.splitlines() if line.startswith("| `")]

        def row_for(tag):
            found = [row for row in rows if f"`{tag}`" in row.split("|")[1]]
            assert found, f"no table row documents <masc:{tag}>"
            return found[0]

        pending = [(cls, element_tags(cls)) for cls in ACTION_TYPES]
        while pending:
            cls, tags = pending.pop()
            row = row_for(tags[0])
            for alias in tags[1:]:
                assert f"`{alias}`" in row, f"{tags[0]} alias {alias} undocumented"
            for f in fields(cls):
                child = f.metadata.get("xml")
                if child is None:
                    assert f"`{attribute_name(f.name)}`" in row, f"{tags[0]}.{f.name}"
                    continue
                tag, *child_attributes = child
                assert f"`{tag}" in row, f"{tags[0]} child {tag} undocumented"
                for attribute in child_attributes:
                    assert f"{attribute}=" in row, f"{tags[0]} child {tag}.{attribute}"
                if not child_attributes:  # a nested schema element
                    pending.append((get_type_hints(cls)[f.name].__args__[0], (tag,)))

    def test_goal_policy_machinery(self):
        from repro.core.optimization import UtilityDrivenDecisionMaker  # noqa: F401

    def test_expression_builtin_whitelist_matches_doc(self):
        """The doc enumerates the safe builtins; the code must agree."""
        from repro.orchestration.expressions import _SAFE_FUNCTIONS

        documented = {"len", "min", "max", "abs", "round", "str", "int", "float", "bool", "sum"}
        assert set(_SAFE_FUNCTIONS) == documented

    def test_documented_xml_policies_parse(self):
        """The three XML fences in the doc are valid WS-Policy4MASC."""
        from repro.policy import PolicyRepository

        text = (DOCS_DIR / "policy-language.md").read_text(encoding="utf-8")
        fences = re.findall(r"^```xml\s*$(.*?)^```\s*$", text, re.MULTILINE | re.DOTALL)
        assert len(fences) >= 3
        wrapped = (
            '<wsp:Policy Name="doc-fences"'
            ' xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy"'
            ' xmlns:masc="http://masc.web.cse.unsw.edu.au/ns/ws-policy4masc">'
            + "".join(re.sub(r"<!--.*?-->", "", fence, flags=re.DOTALL) for fence in fences)
            + "</wsp:Policy>"
        )
        repository = PolicyRepository()
        document = repository.load_xml(wrapped)
        names = {p.name for p in document.monitoring_policies} | {
            p.name for p in document.adaptation_policies
        } | {p.name for p in document.goal_policies}
        assert {
            "detect-international-trade",
            "retailer-retry-then-failover",
            "maximize-trading-value",
        } <= names
