"""Post-ordering index: groups of equalities sharing a left-hand side.

Groups key on the canonical form of the left-hand side (variables
renumbered by first occurrence), so alpha-renamed copies land in one
group.  That form is computed once per interned term and cached in it,
so a repeated query pays one slot read for it.  Three retrieval modes
answer the same queries identically:

* ``off``     checks each equality with one closure comparison (the
              baseline),
* ``on``      keeps one diagram per equality,
* ``shared``  keeps one diagram per group, for the equalities that have
              lived long enough to repay it.

The index alone knows which equalities exist: it mints their ids,
rejects a live duplicate by its canonical (lhs, rhs) pair, and counts
the live equalities and diagrams off its own maps.  Only live
equalities are kept.  ``remove`` forgets the equality and, in ``on``
mode, drops its diagram.

A ``shared`` group has two generations.  An equality inserted before
the group's first query joins the diagram at once, as the paper's
fresh diagrams do.  One inserted later starts young: it waits in a
FIFO, and each query checks it after the diagram walk with one closure
comparison, as ``off`` does.  At the front of the query that finds
``PROMOTE_AFTER`` of the group's queries answered since its insert, it
joins the diagram.  So an equality that dies young never costs the
diagram any nodes, diagram members are all older than young ones, and
answers stay in insertion order.  Removing a young equality only drops
it from the FIFO.  The diagram keeps a removed member's nodes (its walk
skips them) until the group's removed members outnumber its live
members; the diagram is then rebuilt from the live members in insertion
order, and the young ones stay young, with their age.  So after every
operation a diagram holds at most as many removed equalities as live
ones (dead <= live, hence at most 2 * live in all), and each rebuild's
inserts are paid for by the removals before it.  A group whose last
live equality goes is dropped with its diagram, so the groups, like
the diagrams, are bounded by the live equalities, not by every
left-hand side ever inserted.

One index is single-threaded; independent indexes may run in parallel.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Optional, Union

from .ordering import make_order
from .stats import Stats
from .terms import Label, Signature, Substitution, Term
from .tod import Equality, Tod


class MalformedEqualityError(ValueError):
    """The right-hand side uses variables the left-hand side lacks."""


class DuplicateEqualityError(ValueError):
    """An equality with the same canonical (lhs, rhs) pair is live."""


class UnknownEqualityError(KeyError):
    """No equality with the given id."""


class IndexMode(enum.Enum):
    OFF = "off"
    PER_EQUALITY = "on"
    SHARED_BY_LHS = "shared"


# Group queries a young equality waits through before it joins the
# shared diagram.  An insert into a walked diagram lands before the
# exit, so every specialized path that reaches the exit replicates and
# re-specializes it, and only an equality checked many more times
# repays that.  On perfbench's churn_kbo (seed 5), where each equality
# lives 24 of its group's queries, 8 and 16 still promote and leave
# shared p50 at 73 and 54 us, against 20 us at 24, 32 or 64.  32 keeps
# a margin above that lifetime, and costs a long-lived equality at most
# 32 closure comparisons before the diagram takes over.
PROMOTE_AFTER = 32

# Stack marker in canonicalize_term: build the term below it.
_BUILD = object()


def canonicalize_term(sig: Signature, t: Term,
                      mapping: dict) -> Term:
    """Rebuild ``t`` with variables renumbered by first occurrence.

    ``mapping`` (old vid -> new vid) is extended in place, so a second
    call continues the numbering.  Repeated shared subterms are rebuilt
    once: by the time a subterm recurs, its variables are all mapped,
    so its canonical form is fixed.  The walk keeps its own stack, so
    any depth the interner can build is fine.
    """
    if t.ground:
        return t
    done: dict[int, Term] = {}      # non-ground tid -> canonical form
    stack = [t]
    pop, push = stack.pop, stack.append
    while stack:
        u = pop()
        if u is _BUILD:
            # every non-ground argument below is done; ground ones stay
            u = pop()
            done[u.tid] = sig.app(u.sym, [done.get(a.tid, a) for a in u.args])
        elif u.tid in done:
            continue
        elif u.sym is None:
            new = mapping.get(u.vid)
            if new is None:
                new = len(mapping)
                mapping[u.vid] = new
            done[u.tid] = sig.var(new)
        else:
            push(u)
            push(_BUILD)
            # leftmost argument on top: variables are met in order
            for a in reversed(u.args):
                if not a.ground:
                    push(a)
    return done[t.tid]


def _canonical_lhs(sig: Signature, lhs: Term) -> tuple:
    """(canonical lhs, lhs vids in canonical order), cached in the term.

    Canonical vid ``i`` renames ``lhs``'s vid at position ``i``.  The
    pair is a pure function of the interned term, so ``lhs._canon`` is
    filled on the first call and read from then on.
    """
    c = lhs._canon
    if c is None:
        mapping: dict[int, int] = {}
        c = lhs._canon = (canonicalize_term(sig, lhs, mapping), tuple(mapping))
    return c


def canonicalize_equality(sig: Signature, lhs: Term, rhs: Term):
    """Canonicalize an equality over its left-hand side.

    Returns (lhs', rhs', old->new vid mapping).  Raises if the rhs
    introduces variables absent from the lhs: such an equality can never
    satisfy the ordering condition, and the demodulation workflow never
    produces one.
    """
    lhs_c, vids = _canonical_lhs(sig, lhs)
    mapping = {old: new for new, old in enumerate(vids)}
    rhs_c = canonicalize_term(sig, rhs, mapping)
    if len(mapping) != len(vids):
        raise MalformedEqualityError(
            "right-hand side uses variables not in the left-hand side")
    return lhs_c, rhs_c, mapping


def _check_id(eq_id) -> None:
    # True == 1.0 == 1 as dict keys: only a plain int names an equality
    if type(eq_id) is not int:
        raise UnknownEqualityError(eq_id)


class _Group:
    __slots__ = ("eqs", "tod", "young", "queries", "tods")

    def __init__(self):
        self.eqs: dict[Term, Equality] = {}     # rhs -> live, in insertion order
        # shared mode: the diagram, the young equalities not in it yet
        # (id -> (equality, group queries at its insert), oldest first),
        # and the queries the group has answered
        self.tod: Optional[Tod] = None
        self.young: dict[int, tuple] = {}
        self.queries = 0
        self.tods: dict[int, Tod] = {}          # per-equality mode


class PostOrderingIndex:
    """Retrieves the equalities a query substitution orders under the
    ``order`` ("kbo" or "lpo") it builds over ``signature``."""

    def __init__(self, signature: Signature, order: str,
                 mode: Union[str, IndexMode] = IndexMode.SHARED_BY_LHS):
        self.signature = signature
        self.order = make_order(order, signature)
        self.mode = IndexMode(mode)
        self.stats = Stats()
        self._groups: dict[Term, _Group] = {}    # canonical lhs -> group
        self._live: dict[int, Equality] = {}
        self._next_id = 1

    # -- maintenance -----------------------------------------------------------

    def _build_tod(self, eqs) -> Tod:
        tod = Tod(self.order, self.stats)
        for eq in eqs:
            tod.insert(eq)
        return tod

    def insert(self, lhs: Term, rhs: Term) -> int:
        """Add an equality; returns its id.

        Pre-ordered equalities are accepted; their diagram nodes
        simplify away on first retrieval.
        """
        lhs_c, rhs_c, _ = canonicalize_equality(self.signature, lhs, rhs)
        group = self._groups.get(lhs_c)
        if group is None:
            group = _Group()
            self._groups[lhs_c] = group
            if self.mode is IndexMode.SHARED_BY_LHS:
                group.tod = self._build_tod(())
        other = group.eqs.get(rhs_c)
        if other is not None:
            raise DuplicateEqualityError(
                f"equality {lhs_c!r} = {rhs_c!r} already live as {other.eq_id}")
        eq_id = self._next_id
        self._next_id += 1
        eq = Equality(eq_id, lhs_c, rhs_c)
        group.eqs[rhs_c] = eq
        self._live[eq_id] = eq
        if self.mode is IndexMode.SHARED_BY_LHS:
            if group.queries:
                group.young[eq_id] = (eq, group.queries)
            else:
                group.tod.insert(eq)
        elif self.mode is IndexMode.PER_EQUALITY:
            group.tods[eq_id] = self._build_tod((eq,))
        return eq_id

    def remove(self, eq_id: int) -> None:
        """Remove a live equality; removing it again does nothing.

        The equality is forgotten at once: ``equality`` no longer
        finds it.  In ``on`` mode its diagram goes with it; in
        ``shared`` mode a young equality leaves its FIFO, and removing
        a diagram member may rebuild the diagram (see the module
        docstring).  The last live member takes its group, and
        the group's diagram, along.  Raises ``UnknownEqualityError`` for an id
        this index never assigned, and for any id that is not an ``int``.
        """
        _check_id(eq_id)
        eq = self._live.pop(eq_id, None)
        if eq is None:
            if 0 < eq_id < self._next_id:
                return
            raise UnknownEqualityError(eq_id)
        group = self._groups[eq.lhs]
        del group.eqs[eq.rhs]
        if self.mode is IndexMode.PER_EQUALITY:
            del group.tods[eq_id]
        if not group.eqs:
            del self._groups[eq.lhs]
        elif self.mode is IndexMode.SHARED_BY_LHS:
            young = group.young
            if young.pop(eq_id, None) is None:
                # a diagram member: only members count towards a rebuild
                group.tod.mark_deleted(eq)
                if group.tod.dead > len(group.eqs) - len(young):
                    group.tod = self._build_tod(
                        e for e in group.eqs.values() if e.eq_id not in young)

    def equality(self, eq_id: int) -> Equality:
        """The live equality with this id; removed ids are unknown."""
        _check_id(eq_id)
        eq = self._live.get(eq_id)
        if eq is None:
            raise UnknownEqualityError(eq_id)
        return eq

    # -- retrieval ---------------------------------------------------------------

    def query(self, lhs: Term, sigma: Substitution,
              want: str = "all") -> list:
        """Ids of live group members ordered under ``sigma``.

        ``lhs`` is looked up by its canonical form (cached in the term)
        and ``sigma`` is carried along into the canonical variable
        numbering; bindings for variables outside the lhs are ignored.
        An unknown lhs yields an empty result.  ``want`` is "all" or
        "first".
        """
        if want not in ("all", "first"):
            raise ValueError(f"want must be 'all' or 'first', not {want!r}")
        first_only = want == "first"
        key, vids = lhs._canon or _canonical_lhs(self.signature, lhs)
        group = self._groups.get(key)
        if group is None:
            return []
        m = sigma._m
        renamed = {}
        for new, old in enumerate(vids):
            img = m.get(old)
            # a binding renamed onto its own image is an identity: drop it
            if img is not None and not (img.sym is None and img.vid == new):
                renamed[new] = img
        sigma_c = Substitution._trusted(renamed)
        self.stats.queries += 1
        if self.mode is IndexMode.SHARED_BY_LHS:
            young = group.young
            if young:
                self._promote(group)
            group.queries += 1
            results = group.tod.retrieve(sigma_c, first_only)
            if young and not (first_only and results):
                self._check_each([eq for eq, _ in young.values()], sigma_c,
                                 first_only, results)
            return results
        if self.mode is IndexMode.PER_EQUALITY:
            results = []
            for tod in group.tods.values():
                results.extend(tod.retrieve(sigma_c, first_only))
                if first_only and results:
                    break
            return results
        # baseline: one closure comparison per live equality
        results = []
        if self._check_each(group.eqs.values(), sigma_c, first_only, results):
            self.stats.answers += 1
        return results

    def _promote(self, group: _Group) -> None:
        """Move the young equalities that have lived through
        ``PROMOTE_AFTER`` group queries into the diagram, oldest first."""
        young = group.young
        due = []
        for eq_id, (_, born) in young.items():
            if group.queries - born < PROMOTE_AFTER:
                break
            due.append(eq_id)
        for eq_id in due:
            group.tod.insert(young.pop(eq_id)[0])

    def _check_each(self, eqs, sigma: Substitution, first_only: bool,
                    results: list) -> bool:
        """Append the ids of ``eqs`` that ``sigma`` orders, one closure
        comparison each; False if it stopped at a first answer."""
        st = self.stats
        order = self.order
        steps = order.steps
        finished = True
        for eq in eqs:
            if order.compare_closure(eq.lhs, sigma, eq.rhs, sigma) is Label.GT:
                results.append(eq.eq_id)
                st.answers += 1
                if first_only:
                    finished = False
                    break
        st.naive_comparisons += order.steps - steps
        return finished

    # -- introspection ------------------------------------------------------------

    def snapshot_stats(self) -> Stats:
        """A copy of the counters; the live counts are read off the index."""
        st = self.stats
        return replace(st, demodulators=len(self._live), tods=len(self.tods()),
                       nodes_created=replace(st.nodes_created),
                       nodes_processed=replace(st.nodes_processed),
                       nodes_traversed=replace(st.nodes_traversed))

    def groups(self):
        """(canonical lhs, live member count) pairs, in creation order."""
        return [(key, len(g.eqs)) for key, g in self._groups.items()]

    def tods(self):
        """All diagrams owned by the index."""
        out = []
        for g in self._groups.values():
            if g.tod is not None:
                out.append(g.tod)
            out.extend(g.tods.values())
        return out
