"""Shared generators and the randomized multi-mode scenario driver."""

from __future__ import annotations

import random
from contextlib import contextmanager

import todx.index
from oracles import instantiate
from todx import (MalformedEqualityError, NodeKind, PostOrderingIndex,
                  Signature, Substitution, Term, canonicalize_equality,
                  make_order)
from todx.index import PROMOTE_AFTER
from todx.terms import Label
from todx.tod import _SLOT

# Values of ``todx.index.PROMOTE_AFTER`` the fuzz and churn tests run
# under: 0 inserts a young equality into the diagram at the group's next
# query, so together with 1 they walk diagrams that grow after being
# specialized, which the default leaves to long-lived equalities only.
PROMOTE_SETTINGS = (0, 1, PROMOTE_AFTER)

SIG_SHAPES = {
    # name -> list of (symbol, arity); weights/precedences are randomized
    "bin": [("a", 0), ("b", 0), ("g", 1), ("f", 2)],
    "mixed": [("a", 0), ("b", 0), ("c", 0), ("g", 1), ("f", 2)],
    "wide": [("a", 0), ("g", 1), ("h", 3), ("f", 2)],
}


def random_signature(rng: random.Random, shape: str = "bin",
                     max_weight: int = 2) -> Signature:
    decls = SIG_SHAPES[shape]
    precs = list(range(len(decls)))
    rng.shuffle(precs)
    return Signature((name, arity, rng.randint(1, max_weight), p)
                     for (name, arity), p in zip(decls, precs))


def random_term(rng: random.Random, sig: Signature, var_ids,
                max_depth: int) -> Term:
    apps = [s for s in sig.symbols if s.arity > 0]
    consts = [s for s in sig.symbols if s.arity == 0]
    leaf_pool = list(var_ids) + consts
    pick = rng.choice(leaf_pool + apps * 2) if max_depth > 0 else rng.choice(leaf_pool)
    if isinstance(pick, int):
        return sig.var(pick)
    if pick.arity == 0:
        return sig.app(pick)
    return sig.app(pick, [random_term(rng, sig, var_ids, max_depth - 1)
                          for _ in range(pick.arity)])


def subterms(t: Term):
    """Yield ``t`` and all its subterms, depth first."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        stack.extend(reversed(u.args))


def facts(tpo):
    """Yield a partial ordering's primitive facts as (s, Label, t)
    triples, each equality in one orientation."""
    for i, a in enumerate(tpo.elements):
        for j, b in enumerate(tpo.elements):
            rel = tpo.relation(a, b) if i != j else None
            if rel is not None and (rel is not Label.EQ or i < j):
                yield (a, rel, b)


def random_subst(rng: random.Random, sig: Signature, var_ids,
                 max_depth: int = 3, ground_prob: float = 0.7) -> Substitution:
    bindings = {}
    for v in var_ids:
        if rng.random() < ground_prob:
            free = []
        else:
            # images may reuse the bound variable ids themselves:
            # application is simultaneous, so x -> f(y), y -> x is fine
            free = [100, 101] if rng.random() < 0.5 else list(var_ids)
        bindings[v] = random_term(rng, sig, free, max_depth)
    return Substitution(bindings)


class ScenarioChecker:
    """Drives off/on/shared indexes plus an instantiate-then-compare oracle.

    The oracle applies the substitution and compares plain terms, a
    different route from the closure-term evaluation inside diagrams.
    """

    def __init__(self, rng: random.Random, order_kind: str, sig=None,
                 validate: bool = False, max_depth: int = 3):
        self.rng = rng
        self.sig = sig or random_signature(rng, rng.choice(list(SIG_SHAPES)))
        self.order = make_order(order_kind, self.sig)    # the oracle's own
        self.indexes = {m: PostOrderingIndex(self.sig, order_kind, m)
                        for m in ("off", "on", "shared")}
        self.model: list = []  # (eq_id, canonical lhs, canonical rhs)
        self.deleted: set[int] = set()
        self.group_keys: list[Term] = []
        self.validate = validate
        self.max_depth = max_depth
        self._paths: dict = {}
        self._sigma = None      # of the walk running, see _walks_recorded

    # -- operations ---------------------------------------------------------

    def insert_random(self) -> bool:
        rng = self.rng
        if self.group_keys and rng.random() < 0.7:
            lhs = rng.choice(self.group_keys)
        else:
            lhs = random_term(rng, self.sig, [0, 1, 2], rng.randint(1, 2))
            while lhs.sym is None:
                lhs = random_term(rng, self.sig, [0, 1, 2], rng.randint(1, 2))
        lvars = sorted({u.vid for u in subterms(lhs) if u.sym is None})
        rhs = random_term(rng, self.sig, lvars or [0], rng.randint(0, self.max_depth))
        if rhs.sym is None and not lvars:
            return False
        try:
            lhs_c, rhs_c = canonicalize_equality(self.sig, lhs, rhs)
        except MalformedEqualityError:
            return False
        if sum(l is lhs_c for _, l, _ in self.model) >= 6:
            return False
        if any(l is lhs_c and r is rhs_c and i not in self.deleted
               for i, l, r in self.model):
            return False
        self.insert(lhs, rhs)
        return True

    def insert(self, lhs: Term, rhs: Term) -> None:
        """Insert an equality that is well formed and not live in every
        index."""
        lhs_c, rhs_c = canonicalize_equality(self.sig, lhs, rhs)
        ids = [idx.insert(lhs, rhs) for idx in self.indexes.values()]
        assert len(set(ids)) == 1, "indexes must assign identical ids"
        self.model.append((ids[0], lhs_c, rhs_c))
        if lhs_c not in self.group_keys:
            self.group_keys.append(lhs_c)
        self._after_op()

    def delete_random(self) -> None:
        live = [i for i, _, _ in self.model if i not in self.deleted]
        if not live:
            return
        eq_id = self.rng.choice(live)
        for idx in self.indexes.values():
            idx.remove(eq_id)
        self.deleted.add(eq_id)
        self._after_op()

    def query_random(self, want: str = "all") -> None:
        if not self.group_keys:
            return
        rng = self.rng
        key = rng.choice(self.group_keys)
        kvars = sorted({u.vid for u in subterms(key) if u.sym is None})
        self.query(key, random_subst(rng, self.sig, kvars, self.max_depth),
                   want)

    def query(self, key: Term, sigma: Substitution, want: str = "all") -> None:
        """Query every index and check each answer against the oracle."""
        with self._walks_recorded():
            results = {m: idx.query(key, sigma, want)
                       for m, idx in self.indexes.items()}
        expected = [i for i, l, r in self.model
                    if l is key and i not in self.deleted
                    and self.order.compare(instantiate(self.sig, l, sigma),
                                           instantiate(self.sig, r, sigma))
                    is Label.GT]
        if want == "all":
            for m, got in results.items():
                assert got == expected, (
                    f"{m} returned {got}, oracle says {expected} "
                    f"(key={key!r}, sigma={sigma!r})")
        else:
            for m, got in results.items():
                assert got == expected[:1], (
                    f"{m} first-mode returned {got}, oracle prefix "
                    f"{expected[:1]}")
        self._after_op()

    def random_op(self) -> None:
        roll = self.rng.random()
        if roll < 0.35:
            self.insert_random()
        elif roll < 0.45:
            self.delete_random()
        elif roll < 0.97:
            self.query_random()
        else:
            self.query_random(want="first")

    # -- invariant tracking ---------------------------------------------------

    def _audit_forcing(self, tod) -> None:
        """Wrap ``tod``'s forced bypass on the instance: a forced label
        must match what evaluating the node gives for the substitution
        of the walk that reached it (see ``_walks_recorded``), checked
        before the node is bypassed."""
        remove_forced = tod.remove_forced

        def audited_remove_forced(node, label, via):
            assert tod.evaluate_node(node, self._sigma) is label, (
                f"forced {label} but evaluation disagrees at {node!r}")
            return remove_forced(node, label, via)

        tod.remove_forced = audited_remove_forced

    @contextmanager
    def _walks_recorded(self):
        """Record in ``self._sigma`` the substitution of each walk the
        indexes enter, where they enter it: ``todx.index.retrieve``."""
        walk = todx.index.retrieve

        def recorded(tods, sigma, first_only=False, results=None):
            self._sigma = sigma
            return walk(tods, sigma, first_only, results)

        todx.index.retrieve = recorded
        try:
            yield
        finally:
            todx.index.retrieve = walk
            self._sigma = None

    def _check_gauges(self) -> None:
        """The live counts the index reports agree with the model, and
        every live equality is young or held by exactly one diagram."""
        live = sorted(i for i, _, _ in self.model if i not in self.deleted)
        for m, idx in self.indexes.items():
            st = idx.snapshot_stats()
            assert st.demodulators == len(live), (m, st.demodulators, live)
            if m == "off":
                assert st.tods == 0 and idx.tods() == [], (m, st.tods)
                continue
            held = diagram_members(idx)
            assert st.tods == len(held) == len(idx.tods()), (m, st.tods, held)
            placed = [e.eq_id for g in idx._groups.values() for e in g.young]
            for g in idx._groups.values():
                # the FIFO holds live equalities, stamped in FIFO order,
                # and its head is due no earlier than the group says
                stamps = list(g.young.values())
                assert stamps == sorted(stamps), (m, stamps)
                assert all(idx._live.get(e.eq_id) is e for e in g.young), m
                if stamps:
                    assert g.due <= stamps[0] + PROMOTE_AFTER, (m, g.due, stamps)
            for tod, members in held:
                assert members, (m, "a diagram without a member")
                # a pre-ordered member's success node may have been pruned
                assert held_ids(tod) <= members, (m, members)
                placed += members
            assert sorted(placed) == live, (m, placed, live)

    def _after_op(self) -> None:
        self._check_gauges()
        for m in ("on", "shared"):
            for tod in self.indexes[m].tods():
                if "remove_forced" not in vars(tod):
                    self._audit_forcing(tod)
        if not self.validate:
            return
        for m in ("on", "shared"):
            for tod in self.indexes[m].tods():
                tod.validate()
                into = in_edges(tod)
                for node in tod.nodes():
                    if not node.visited or node.kind.value in ("root", "exit"):
                        continue
                    # keyed by the objects themselves: a removal can free
                    # a diagram or a node, and a later one may reuse its id()
                    path = root_path(node, into)
                    prior = self._paths.get((m, tod, node))
                    if prior is not None:
                        assert prior == path, (
                            f"root path of visited node changed: {prior} -> {path}")
                    self._paths[(m, tod, node)] = path


def diagram_members(idx) -> list:
    """(diagram, ids of its members) for each diagram of ``idx``.

    An ``on`` diagram's one member is the id it is keyed by; a ``shared``
    group, which holds at most one diagram, has every live equality
    that is not young in it.
    """
    out = []
    for g in idx._groups.values():
        if idx.mode.value == "on":
            out += [(tod, {i}) for i, tod in g.tods.items()]
        else:
            assert len(g.tods) <= 1, len(g.tods)
            members = {e.eq_id for e in g.eqs.values() if e not in g.young}
            out += [(tod, members) for tod in g.tods.values()]
    return out


def held_ids(tod) -> set:
    """Ids of the equalities with a success node in the diagram."""
    return {n.eq.eq_id for n in tod.nodes() if n.kind is NodeKind.SUCCESS}


def in_edges(tod) -> dict:
    """Node -> its incoming edges (src, label), read off the out-edges."""
    into = {node: [] for node in tod.nodes()}
    for src in into:
        for label, dst in src.out.items():
            into[dst].append((src, label))
    return into


def set_edge(node, label, dst) -> None:
    """Point the slot of ``node``'s ``label`` edge at ``dst`` (None clears
    it), leaving every incoming-edge count as it is."""
    setattr(node, _SLOT[label], dst)


def root_path(node, into: dict) -> list:
    """The unique path root -> node of a visited node, as (node, label)."""
    path = []
    while node.kind is not NodeKind.ROOT:
        (src, label), = into[node]
        path.append((src, label))
        node = src
    path.reverse()
    return path


def run_scenario(seed: int, order_kind: str, ops: int = 12,
                 validate: bool = False) -> None:
    rng = random.Random(seed)
    checker = ScenarioChecker(rng, order_kind, validate=validate)
    checker.insert_random()
    for _ in range(ops):
        checker.random_op()
