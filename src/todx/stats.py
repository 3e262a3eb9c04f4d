"""Instrumentation counters shared by diagrams and the index."""

from __future__ import annotations

from dataclasses import dataclass, field


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

    ``answers`` counts the ids answered, plus one per scan or diagram
    walk that ran to its end: each ``off`` scan and each diagram walk,
    so an ``on`` query counts one per diagram it walked through.
    ``demodulators`` (live equalities) and ``tods`` (diagrams that hold
    a member; young equalities have none) are read off the index when
    ``PostOrderingIndex.snapshot_stats`` copies the counters, and stay
    0 in the live ones.  Everything else is monotone.
    """

    queries: int = 0
    answers: int = 0
    demodulators: int = 0
    tods: int = 0
    nodes_created: NodeCounters = field(default_factory=NodeCounters)
    nodes_processed: NodeCounters = field(default_factory=NodeCounters)
    nodes_traversed: NodeCounters = field(default_factory=NodeCounters)
    naive_comparisons: int = 0
