"""Instrumentation counters shared by diagrams and the index."""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class NodeCounters:
    term: int = 0
    success: int = 0
    pos: int = 0

    @property
    def total(self) -> int:
        return self.term + self.success + self.pos


@dataclass
class Stats:
    """Counters for index activity and diagram node traffic.

    ``demodulators`` counts the live equalities and ``tods`` the
    diagrams the index holds; both can drop on removal.  Everything
    else is monotone.
    """

    queries: int = 0
    answers: int = 0
    demodulators: int = 0
    tods: int = 0
    nodes_created: NodeCounters = field(default_factory=NodeCounters)
    nodes_processed: NodeCounters = field(default_factory=NodeCounters)
    nodes_traversed: NodeCounters = field(default_factory=NodeCounters)
    naive_comparisons: int = 0

    def snapshot(self) -> "Stats":
        return replace(
            self,
            nodes_created=replace(self.nodes_created),
            nodes_processed=replace(self.nodes_processed),
            nodes_traversed=replace(self.nodes_traversed),
        )
