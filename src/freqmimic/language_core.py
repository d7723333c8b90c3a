"""Finite statement language for labeled trial outcomes.

A language holds at most one source statement ``G`` together with
trial-labeled outcome statements: ``E_j`` asserts that the event occurred
on trial ``j``, ``E'_j`` that it did not.  Labels are positive integers
and abbreviate tally marks; ``tick_render`` recovers the tally form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

TICK = "|"


class StatementKind(enum.Enum):
    SOURCE = "source"
    EVENT = "event"
    NON_EVENT = "non_event"


_KIND_RANK = {
    StatementKind.SOURCE: 0,
    StatementKind.EVENT: 1,
    StatementKind.NON_EVENT: 2,
}


@dataclass(frozen=True)
class Statement:
    """One language element: the source ``G``, an ``E_j``, or an ``E'_j``.

    An event and a non-event with the same label are distinct statements;
    equality is by kind and label.
    """

    kind: StatementKind
    label: int | None = None

    def __post_init__(self) -> None:
        if self.kind is StatementKind.SOURCE:
            if self.label is not None:
                raise ValueError("source statement carries no label")
        else:
            if self.label is None:
                raise ValueError(f"{self.kind.value} statement requires a label")
            if isinstance(self.label, bool) or not isinstance(self.label, int) or self.label < 1:
                raise ValueError("statement labels are positive integers")
        # Hashed once: every set lookup in the operator layer hashes statements.
        # Equal to the dataclass hash((kind, label)), since an Enum member hashes
        # as its name, so set iteration order is unchanged.
        object.__setattr__(self, "_hash", hash((self.kind._name_, self.label)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: the cached hash depends on this process's
        # string-hash seed and must not travel in a pickle.
        return (Statement, (self.kind, self.label))

    def __str__(self) -> str:
        if self.kind is StatementKind.SOURCE:
            return "G"
        if self.kind is StatementKind.EVENT:
            return f"E_{self.label}"
        return f"E'_{self.label}"

    def __repr__(self) -> str:
        return str(self)


def source_statement() -> Statement:
    return Statement(StatementKind.SOURCE)


def event(label: int) -> Statement:
    return Statement(StatementKind.EVENT, label)


def non_event(label: int) -> Statement:
    return Statement(StatementKind.NON_EVENT, label)


def _labeled(kind: StatementKind, label: int) -> Statement:
    """``Statement(kind, label)`` for an event or non-event kind and a label known
    to be a positive int, built without ``__post_init__``'s checks; its hash is
    the one ``__post_init__`` caches."""
    statement = object.__new__(Statement)
    object.__setattr__(statement, "kind", kind)
    object.__setattr__(statement, "label", label)
    object.__setattr__(statement, "_hash", hash((kind._name_, label)))
    return statement


def statement_key(statement: Statement) -> tuple[int, int]:
    """Sort key giving the display order G, E_1, E'_1, E_2, E'_2, ..."""
    return (statement.label or 0, _KIND_RANK[statement.kind])


def tick_render(label: int) -> str:
    """Expand a label to its tally-mark string; label n renders as n ticks."""
    if isinstance(label, bool) or not isinstance(label, int) or label < 1:
        raise ValueError("tick labels are positive integers")
    return TICK * label


@dataclass(frozen=True)
class Language:
    """A non-empty finite set of statements with at most one source."""

    statements: frozenset[Statement]

    def __post_init__(self) -> None:
        object.__setattr__(self, "statements", frozenset(self.statements))
        if not self.statements:
            raise ValueError("language must be non-empty")
        sources = [s for s in self.statements if s.kind is StatementKind.SOURCE]
        if len(sources) > 1:
            raise ValueError("language holds at most one source statement")

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __contains__(self, statement: object) -> bool:
        return statement in self.statements

    @property
    def source(self) -> Statement | None:
        for s in self.statements:
            if s.kind is StatementKind.SOURCE:
                return s
        return None


def prefix_language(size: int) -> Language:
    """The first ``size`` statements of G, E_1, E'_1, E_2, E'_2, ..."""
    if size < 1:
        raise ValueError("language size must be positive")
    members = [source_statement()]
    j = 1
    while len(members) < size:
        members.append(event(j))
        if len(members) < size:
            members.append(non_event(j))
        j += 1
    return Language(frozenset(members))
