"""Set-up, timed passes and deterministic counts for one index mode.

A pass replays a workload's whole operation list against a freshly
built index.  Only the calls into ``PostOrderingIndex`` are timed, each
on its own with a monotonic clock; the loop around them, answer
checking and counter reads happen outside the timed spans, and so do
the samples of the reference task (see ``refspeed``) taken between calls.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass

import refspeed
from todx import PostOrderingIndex, Signature, Substitution

MODES = ("off", "on", "shared")
QUERY, INSERT, REMOVE = 0, 1, 2
FAILED = "failed"


@dataclass
class Prepared:
    """One mode's indexes, one per workload instance, holding the initial
    equalities, plus the operations with every term interned and every
    substitution built."""

    mode: str
    indexes: list
    ops: list


def prepare(workload, mode: str) -> Prepared:
    sig = Signature(workload.symbols)
    lhs = sig.intern(workload.lhs)
    indexes = []
    for rhss in workload.initial:
        index = PostOrderingIndex(sig, workload.order, mode)
        for rhs in rhss:
            index.insert(lhs, sig.intern(rhs))
        indexes.append(index)
    ops = []
    for kind, k, arg in workload.ops:
        index = indexes[k]
        if kind == "q":
            ops.append((QUERY, index, lhs, Substitution(
                {v: sig.intern(img) for v, img in arg})))
        elif kind == "i":
            ops.append((INSERT, index, lhs, sig.intern(arg)))
        else:
            ops.append((REMOVE, index, arg + 1, None))
    return Prepared(mode, indexes, ops)


@dataclass
class PassResult:
    latencies: array      # seconds per operation, inf where it raised
    scaled: array         # the same at the reference speed (see refspeed)
    timed_s: float        # summed duration of every completed operation
    failed: int           # operations that raised
    answers: list         # per operation: query ids, insert id, or FAILED
    ref: array            # seconds of each reference task sample


def timed_pass(prep: Prepared) -> PassResult:
    """Run every operation once, timing each index call on its own.

    The reference task runs once before the first call and then after
    the first call that ends ``refspeed.EVERY_S`` after the last sample.
    Each call's time is also scaled by the last sample before it, so the
    scaled time is that of the call on the reference core in whatever
    state the shared machine was in around it.
    """
    clock = time.perf_counter
    sample = refspeed.sample
    # Methods are bound here, so a tracer installed before the pass sees
    # every call.
    methods = ("query", "insert", "remove")
    ops = [(kind, getattr(index, methods[kind]), a, b)
           for kind, index, a, b in prep.ops]
    lat = array("d", [math.inf]) * len(ops)
    scaled = array("d", [math.inf]) * len(ops)
    answers: list = [FAILED] * len(ops)
    failed = 0
    ref = array("d", [sample()])
    speed = refspeed.REF_S / ref[-1]
    next_ref = clock() + refspeed.EVERY_S
    for k, (kind, call, a, b) in enumerate(ops):
        try:
            if kind == REMOVE:
                t0 = clock()
                r = call(a)
                t1 = clock()
            else:
                t0 = clock()
                r = call(a, b)
                t1 = clock()
        except Exception:           # counted as a failed operation
            failed += 1
            continue
        lat[k] = t1 - t0
        scaled[k] = (t1 - t0) * speed
        answers[k] = r
        if t1 >= next_ref:
            ref.append(sample())
            speed = refspeed.REF_S / ref[-1]
            next_ref = clock() + refspeed.EVERY_S
    timed = math.fsum(t for t in lat if t != math.inf)
    return PassResult(lat, scaled, timed, failed, answers, ref)


def mismatches(answers: list, expected: list) -> int:
    """Operations whose outcome differs from the oracle's.

    Queries compare as id sets; inserts must return the expected id.
    A failed operation is already counted by the pass, not here.
    """
    bad = 0
    for got, want in zip(answers, expected):
        if got is FAILED or want is None:
            continue
        if isinstance(want, tuple):
            if tuple(sorted(got)) != want:
                bad += 1
        elif got != want:
            bad += 1
    return bad


def counts(prep: Prepared) -> dict:
    """Machine-independent counters of a mode's indexes after a pass."""
    out = dict.fromkeys(("queries", "answers", "naive_steps", "created",
                         "processed", "traversed", "reachable_nodes",
                         "tpo_pool"), 0)
    for index in prep.indexes:
        st = index.snapshot_stats()
        tods = index.tods()
        stores = {id(t.tpo_store): t.tpo_store for t in tods}
        out["queries"] += st.queries
        out["answers"] += st.answers
        out["naive_steps"] += st.naive_comparisons
        out["created"] += st.nodes_created.total
        out["processed"] += st.nodes_processed.total
        out["traversed"] += st.nodes_traversed.total
        out["reachable_nodes"] += sum(len(t.nodes()) for t in tods)
        out["tpo_pool"] += sum(len(s) for s in stores.values())
    return out
