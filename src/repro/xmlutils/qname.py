"""Qualified XML names."""

from __future__ import annotations

__all__ = ["QName"]

#: Parsed names by source text, so every parse of one string returns one
#: shared (immutable) object. A simulated run parses a few dozen distinct
#: names tens of thousands of times; the memo is emptied when it reaches
#: ``_PARSED_LIMIT`` entries, so unique strings cannot grow it without bound.
_PARSED: dict[str, "QName"] = {}
_PARSED_LIMIT = 4096


class QName:
    """An XML qualified name: a (namespace URI, local part) pair.

    Immutable and hashable so qualified names can key dictionaries (fault
    code tables, policy-subject maps, operation dispatch tables).
    """

    __slots__ = ("namespace", "local")

    def __init__(self, namespace: str | None, local: str) -> None:
        if not local:
            raise ValueError("local part must be non-empty")
        object.__setattr__(self, "namespace", namespace or "")
        object.__setattr__(self, "local", local)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QName is immutable")

    @classmethod
    def parse(cls, text: str) -> "QName":
        """Parse Clark notation (``{uri}local``) or a bare local name.

        Plain ``QName`` results are interned: equal texts give the same
        object. Subclasses always get a fresh instance of their own type.
        """
        if cls is not QName:
            return cls._parse(text)
        name = _PARSED.get(text)
        if name is None:
            name = cls._parse(text)
            if len(_PARSED) >= _PARSED_LIMIT:
                _PARSED.clear()
            _PARSED[text] = name
        return name

    @classmethod
    def _parse(cls, text: str) -> "QName":
        if text.startswith("{"):
            uri, _, local = text[1:].partition("}")
            return cls(uri, local)
        return cls("", text)

    def clark(self) -> str:
        """Clark notation, the canonical text form."""
        return f"{{{self.namespace}}}{self.local}" if self.namespace else self.local

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, str):
            try:
                other = QName.parse(other)
            except ValueError:  # not a name at all, so not this one
                return False
        elif not isinstance(other, QName):
            return NotImplemented
        return self.namespace == other.namespace and self.local == other.local

    def __reduce__(self):
        # Pickle through the constructor: the default slot-state restore
        # would assign attributes, which an immutable QName refuses.
        return type(self), (self.namespace, self.local)

    def __hash__(self) -> int:
        return hash((self.namespace, self.local))

    def __repr__(self) -> str:
        return f"QName({self.clark()!r})"

    def __str__(self) -> str:
        return self.clark()
