"""Churn: one group kept at a fixed live size under insert/remove/query.

Every round inserts a never-seen right-hand side, removes the oldest
live equality and runs one random ground query.  The three modes must
agree with the instantiate-then-compare oracle of ``oracles.py`` on
every query, and the diagrams must stay bounded by the live count, not
by the number of equalities ever inserted.
"""

import random

from helpers import random_term
from oracles import instantiate, ref_compare
from todx import Label, NodeKind, PostOrderingIndex, Signature, Substitution

LIVE = 8
ROUNDS = 600
VALIDATE_EVERY = 50


def reachable_bound(live: int) -> int:
    """Reachable nodes one diagram may hold while ``live`` are live.

    A shared diagram holds at most 2 * live equalities (dead <= live),
    and the bound allows 32 reachable nodes for each of them.  On this
    scenario (seeds 1-6 and 11) the largest shared diagram reached 205
    to 265 nodes and every per-equality diagram at most 8; before
    removal reclaimed anything, the shared diagram passed 135k nodes
    by round 600.
    """
    return 32 * 2 * live


def test_churn_bounded_and_oracle_exact():
    rng = random.Random(11)
    sig = Signature([("a", 0, 1, 0), ("b", 0, 2, 1), ("g", 1, 2, 2),
                     ("h", 1, 3, 3), ("f", 2, 1, 4)])
    x, y = sig.var(0), sig.var(1)
    lhs = sig.app("f", [x, y])
    indexes = {m: PostOrderingIndex(sig, "kbo", m)
               for m in ("off", "on", "shared")}
    seen = {lhs}

    def fresh():
        while True:
            rhs = random_term(rng, sig, [0, 1], 3)
            if rhs not in seen:
                seen.add(rhs)
                return rhs

    def insert(rhs):
        ids = {idx.insert(lhs, rhs) for idx in indexes.values()}
        assert len(ids) == 1
        return ids.pop()

    live = [(insert(rhs), rhs) for rhs in (fresh() for _ in range(LIVE))]
    bound = reachable_bound(LIVE)
    for rnd in range(1, ROUNDS + 1):
        rhs = fresh()
        live.append((insert(rhs), rhs))
        old, _ = live.pop(0)
        for idx in indexes.values():
            idx.remove(old)
        sigma = Substitution({v: random_term(rng, sig, [], 2) for v in (0, 1)})
        ground_lhs = instantiate(sig, lhs, sigma)
        want = [i for i, r in live
                if ref_compare(sig, "kbo", ground_lhs,
                               instantiate(sig, r, sigma)) is Label.GT]
        for mode, idx in indexes.items():
            assert idx.query(lhs, sigma) == want, (mode, rnd, sigma)

        shared, = indexes["shared"].tods()
        held = {n.eq.eq_id for n in shared.nodes()
                if n.kind is NodeKind.SUCCESS}
        assert shared.dead <= len(live)
        assert len(held) <= 2 * len(live)
        per_eq = indexes["on"].tods()
        assert len(per_eq) == len(live)
        for tod in [shared] + per_eq:
            assert len(tod.nodes()) <= bound, (rnd, len(tod.nodes()))
        if rnd % VALIDATE_EVERY == 0:
            for tod in [shared] + per_eq:
                tod.validate()


def test_emptied_groups_are_dropped():
    # 2000 distinct left-hand sides inserted and removed leave nothing
    sig = Signature([("a", 0, 1, 0), ("g", 1, 1, 1), ("h", 1, 1, 2),
                     ("f", 2, 1, 3)])
    x, a = sig.var(0), sig.app("a")

    def lhs(i):
        # f(x, n) with n spelling i in binary: a distinct lhs per i
        n = a
        while i:
            n = sig.app("g" if i & 1 else "h", [n])
            i >>= 1
        return sig.app("f", [x, n])

    to_a = Substitution({0: a})
    for mode in ("off", "on", "shared"):
        idx = PostOrderingIndex(sig, "kbo", mode)
        ids = [idx.insert(lhs(i), x) for i in range(2000)]
        assert len(idx.groups()) == 2000
        for i in range(0, 2000, 97):
            assert idx.query(lhs(i), to_a) == [ids[i]]
        for eq_id in ids:
            idx.remove(eq_id)
        assert idx.groups() == [], mode
        assert idx.tods() == [], mode
        assert idx.snapshot_stats().tods == 0, mode
        assert idx.query(lhs(5), to_a) == []
        # a dropped group comes back on the next insert of its lhs
        again = idx.insert(lhs(5), x)
        assert idx.query(lhs(5), to_a) == [again]
        assert len(idx.groups()) == 1
