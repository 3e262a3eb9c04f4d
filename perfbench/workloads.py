"""Seeded workload generators for the index benchmark.

Every generator returns plain data: raw term trees in the format
``Signature.intern`` accepts (an int is a variable id, a str a constant,
a pair ``(name, (raw, ...))`` an application).  Nothing here touches
``todx``; the benchmark interns the trees during set-up, so the timed
region sees only interned terms and prebuilt substitutions.  The same
seed gives byte-identical workloads (see ``fingerprint``).

A workload has one or more independent instances, each an index of
its own holding one group.  Operations name their instance ``k``:

* ``("q", k, ((vid, raw), ...))`` query the workload's left-hand side,
* ``("i", k, raw)``               insert ``lhs = raw``,
* ``("r", k, slot)``              remove the equality inserted as number
  ``slot`` (0-based over the instance's initial equalities and then its
  inserts), whose index id is ``slot + 1``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from refcheck import RefOrder, weight

X, Y = 0, 1
U0, U1 = 100, 101          # free variables inside non-ground images
LHS = ("f", (X, Y))


@dataclass(frozen=True)
class Workload:
    name: str
    order: str
    symbols: tuple           # (name, arity, weight, precedence)
    lhs: object
    initial: tuple           # per instance, the rhs inserted during set-up
    ops: tuple


# a < b < f for LPO; weights are irrelevant there.
SWAP_SYMBOLS = (("a", 0, 1, 0), ("b", 0, 1, 1), ("f", 2, 1, 2))
# The signature of the `poly` family, shared by both KBO workloads.
KBO_SYMBOLS = (("a", 0, 1, 0), ("b", 0, 2, 1), ("g", 1, 2, 2),
               ("h", 1, 3, 3), ("f", 2, 1, 4))

SWAP_IMAGES = ("a", "b", ("f", ("a", "a")), ("f", ("a", "b")),
               ("f", ("b", "a")), ("f", (("f", ("a", "a")), "b")), U0, U1)

SWAP_QUERIES = 2000
POLY_INSTANCES = 16
POLY_EQUALITIES = 6
POLY_QUERIES = 16000
CHURN_INSTANCES = 16
CHURN_LIVE = 8
CHURN_ROUNDS = 25
CHURN_QUERIES_PER_ROUND = 3


def random_term(rng: random.Random, symbols, leaves, depth: int):
    """A random raw tree; below ``depth``, each function symbol is drawn
    twice as often as each leaf."""
    funcs = [(n, a) for n, a, _, _ in symbols if a > 0]
    choices = [n for n, a, _, _ in symbols if a == 0] + list(leaves)
    if depth > 0:
        choices += funcs * 2
    pick = rng.choice(choices)
    if not isinstance(pick, tuple):
        return pick
    name, arity = pick
    return (name, tuple(random_term(rng, symbols, leaves, depth - 1)
                        for _ in range(arity)))


def swap_lpo(seed: int) -> Workload:
    """f(x,y) = f(y,x) and f(x,y) = f(x,x); x and y drawn from 8 images."""
    rng = random.Random(seed)
    ops = tuple(("q", 0, ((X, rng.choice(SWAP_IMAGES)),
                          (Y, rng.choice(SWAP_IMAGES))))
                for _ in range(SWAP_QUERIES))
    return Workload("swap_lpo", "lpo", SWAP_SYMBOLS, LHS,
                    ((("f", (Y, X)), ("f", (X, X))),), ops)


def poly_kbo(seed: int) -> Workload:
    """Instances of six right-hand sides whose weight difference to f(x,y)
    keeps variables; queries go round-robin over the instances.

    Neither side of a chosen equality is greater without a substitution,
    so every query has to decide a weight comparison that depends on it.
    The cost of one instance depends much on which six it drew, so many
    instances make the workload's cost steady across seeds.
    """
    rng = random.Random(seed)
    order = RefOrder("kbo", KBO_SYMBOLS)
    _, lhs_vars = weight(LHS, order.weights)
    initial = []
    for _ in range(POLY_INSTANCES):
        chosen: list = []
        while len(chosen) < POLY_EQUALITIES:
            rhs = random_term(rng, KBO_SYMBOLS, (X, Y), 3)
            if rhs in chosen or rhs == LHS:
                continue
            if weight(rhs, order.weights)[1] == lhs_vars:
                continue
            if order.greater(LHS, rhs) or order.greater(rhs, LHS):
                continue
            chosen.append(rhs)
        initial.append(tuple(chosen))
    ops = []
    for i in range(POLY_QUERIES):
        bindings = []
        for v in (X, Y):
            free = (U0,) if rng.random() < 0.3 else ()
            bindings.append((v, random_term(rng, KBO_SYMBOLS, free, 2)))
        ops.append(("q", i % POLY_INSTANCES, tuple(bindings)))
    return Workload("poly_kbo", "kbo", KBO_SYMBOLS, LHS, tuple(initial),
                    tuple(ops))


def churn_kbo(seed: int) -> Workload:
    """Instances of one KBO group kept at 8 live equalities under churn.

    Each round inserts a never-seen right-hand side into an instance,
    removes its oldest live equality, then runs a few ground queries on
    it; rounds go round-robin over the instances.  How far one diagram
    grows depends much on which right-hand sides it drew, so several
    instances make the workload's cost steady across seeds.
    """
    rng = random.Random(seed)
    seen = {LHS}

    def fresh():
        while True:
            rhs = random_term(rng, KBO_SYMBOLS, (X, Y), 3)
            if rhs not in seen:
                seen.add(rhs)
                return rhs

    initial = tuple(tuple(fresh() for _ in range(CHURN_LIVE))
                    for _ in range(CHURN_INSTANCES))
    ops = []
    for r in range(CHURN_ROUNDS):
        for k in range(CHURN_INSTANCES):
            ops.append(("i", k, fresh()))
            ops.append(("r", k, r))
            for _ in range(CHURN_QUERIES_PER_ROUND):
                ops.append(("q", k, tuple(
                    (v, random_term(rng, KBO_SYMBOLS, (), 2)) for v in (X, Y))))
    return Workload("churn_kbo", "kbo", KBO_SYMBOLS, LHS, initial, tuple(ops))


GENERATORS = {"swap_lpo": swap_lpo, "poly_kbo": poly_kbo, "churn_kbo": churn_kbo}


def fingerprint(w: Workload) -> str:
    """A digest of the workload's exact contents."""
    return hashlib.sha256(repr((w.name, w.order, w.symbols, w.lhs,
                                w.initial, w.ops)).encode()).hexdigest()
