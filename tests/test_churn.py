"""Churn: one group kept at a fixed live size under insert/remove/query.

Every round inserts a never-seen right-hand side, removes the oldest
live equality and runs random ground queries.  The three modes must
agree with the instantiate-then-compare oracle of ``oracles.py`` on
every query, and the diagrams must stay bounded by the live count, not
by the number of equalities ever inserted.  A group that also holds a
long-lived core must move the core into its shared diagram, and only
the core.
"""

import random

from helpers import PROMOTE_SETTINGS, held_ids, random_term
from oracles import instantiate, ref_compare
from todx import Label, PostOrderingIndex, Signature, Substitution
from todx import index as index_module

LIVE = 8
ROUNDS = 600
VALIDATE_EVERY = 50


def reachable_bound(live: int) -> int:
    """Reachable nodes one diagram may hold while ``live`` are live.

    A diagram holds live equalities only, and the bound allows 64
    reachable nodes for each of them.  On this scenario (seeds 1-6 and
    11) the largest shared diagram reached 38 to 46 nodes under
    ``PROMOTE_AFTER`` 0 and 1; under 32, where no equality lives long
    enough to join, no shared diagram is left after the first removal.
    Every per-equality diagram reached at most 8.  While removed members
    stayed in the shared diagram until they outnumbered the live ones,
    it reached 205 to 265 nodes, and before removal reclaimed anything
    it passed 135k nodes by round 600.
    """
    return 64 * live


class ChurnGroup:
    """One KBO group f(x, y) held by an ``off``, an ``on`` and a
    ``shared`` index, fed never-seen right-hand sides."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.sig = sig = Signature([("a", 0, 1, 0), ("b", 0, 2, 1),
                                    ("g", 1, 2, 2), ("h", 1, 3, 3),
                                    ("f", 2, 1, 4)])
        self.lhs = sig.app("f", [sig.var(0), sig.var(1)])
        self.indexes = {m: PostOrderingIndex(sig, "kbo", m)
                        for m in ("off", "on", "shared")}
        self.seen = {self.lhs}

    def insert_fresh(self) -> tuple:
        """Insert a never-seen right-hand side; (its id, the rhs)."""
        while True:
            rhs = random_term(self.rng, self.sig, [0, 1], 3)
            if rhs not in self.seen:
                self.seen.add(rhs)
                break
        ids = {idx.insert(self.lhs, rhs) for idx in self.indexes.values()}
        assert len(ids) == 1
        return ids.pop(), rhs

    def remove(self, eq_id: int) -> None:
        for idx in self.indexes.values():
            idx.remove(eq_id)

    def query(self, live: list, context) -> tuple:
        """One random ground query; every mode must give the oracle's
        answer over ``live`` ((id, rhs) pairs in insertion order).
        Returns the substitution and that answer."""
        sig = self.sig
        sigma = Substitution({v: random_term(self.rng, sig, [], 2)
                              for v in (0, 1)})
        ground_lhs = instantiate(sig, self.lhs, sigma)
        want = [i for i, r in live
                if ref_compare(sig, "kbo", ground_lhs,
                               instantiate(sig, r, sigma)) is Label.GT]
        for mode, idx in self.indexes.items():
            assert idx.query(self.lhs, sigma) == want, (mode, context, sigma)
        return sigma, want

    def shared_tod(self):
        """The shared group's diagram, or None while no member is in one."""
        tods = self.indexes["shared"].tods()
        assert len(tods) <= 1, len(tods)
        return tods[0] if tods else None


def test_churn_bounded_and_oracle_exact(monkeypatch):
    for promote_after in PROMOTE_SETTINGS:
        monkeypatch.setattr(index_module, "PROMOTE_AFTER", promote_after)
        run_churn(random.Random(11))


def run_churn(rng: random.Random) -> None:
    group = ChurnGroup(rng)
    live = [group.insert_fresh() for _ in range(LIVE)]
    bound = reachable_bound(LIVE)
    for rnd in range(1, ROUNDS + 1):
        live.append(group.insert_fresh())
        old, _ = live.pop(0)
        group.remove(old)
        group.query(live, rnd)

        shared = group.shared_tod()
        # young members have no diagram of their own
        per_eq = group.indexes["on"].tods()
        assert len(per_eq) <= len(live), (rnd, len(per_eq))
        tods = per_eq + ([shared] if shared is not None else [])
        for tod in tods:
            assert held_ids(tod) <= {i for i, _ in live}, rnd
            assert len(tod.nodes()) <= bound, (rnd, len(tod.nodes()))
        if rnd % VALIDATE_EVERY == 0:
            for tod in tods:
                tod.validate()


CORE = 8
CHURNERS = 8
MIXED_ROUNDS = 120
MIXED_QUERIES = 2       # per round


def test_mixed_lifetimes_promote_the_long_lived_core_only():
    # A churner lives CHURNERS rounds of MIXED_QUERIES group queries (one
    # more round under a repeated query), too few to be promoted; the
    # core lives on and joins the diagram by round `promoted`.
    promote_after = index_module.PROMOTE_AFTER
    assert (CHURNERS + 1) * MIXED_QUERIES < promote_after
    promoted = promote_after // MIXED_QUERIES + 1
    group = ChurnGroup(random.Random(5))
    # the group's first query comes after one core equality, so the rest
    # of the core and every churner start young
    core = [group.insert_fresh()]
    group.query(core, "first")
    core += [group.insert_fresh() for _ in range(CORE - 1)]
    core_ids = {i for i, _ in core}
    churners = [group.insert_fresh() for _ in range(CHURNERS)]
    answered = {}       # core id -> last round a query answered it
    bound = reachable_bound(CORE + CHURNERS)
    shared_index = group.indexes["shared"]
    for rnd in range(1, MIXED_ROUNDS + 1):
        churners.append(group.insert_fresh())
        old, _ = churners.pop(0)
        group.remove(old)
        for _ in range(MIXED_QUERIES):
            live = sorted(core + churners)
            sigma, want = group.query(live, rnd)
            for i in core_ids.intersection(want):
                answered[i] = rnd

        # the first core equality joined at its insert and never leaves
        tod = group.shared_tod()
        assert tod is not None, rnd
        tod.validate()
        held = held_ids(tod)
        # churners never reach the diagram
        assert held <= core_ids, (rnd, held - core_ids)
        for t in [tod] + group.indexes["on"].tods():
            assert held_ids(t) <= core_ids, (rnd, held_ids(t) - core_ids)
            assert len(t.nodes()) <= bound, (rnd, len(t.nodes()))
        if rnd % 20 == 0 and rnd > 2 * promoted:
            # a core equality a query answered after its promotion is
            # held by the visited success node that answered it
            since = {i for i, r in answered.items() if r > promoted}
            assert len(since) >= CORE // 2 and since <= held, (rnd, since, held)
            # repeating a query walks the diagram and rewrites nothing
            first = shared_index.query(group.lhs, sigma)
            before = shared_index.snapshot_stats()
            assert shared_index.query(group.lhs, sigma) == first
            after = shared_index.snapshot_stats()
            assert after.nodes_processed == before.nodes_processed
            assert after.nodes_created == before.nodes_created
            assert after.nodes_traversed.total > before.nodes_traversed.total


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
