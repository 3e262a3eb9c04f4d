"""Post-ordering index: groups of equalities sharing a left-hand side.

Groups key on the canonical form of the left-hand side (variables
renumbered by first occurrence), so alpha-renamed copies land in one
group.  That form is computed once per interned term and cached in it,
so a repeated query pays one slot read for it.  Three retrieval modes
answer the same queries identically:

* ``off``     checks each equality with one closure comparison,
* ``on``      gives each long-lived equality a diagram of its own,
* ``shared``  gives them one diagram per group.

The index alone knows which equalities exist: it mints their ids,
rejects a live duplicate by its canonical (lhs, rhs) pair, and counts
the live equalities and diagrams off its own maps.

Both diagram modes run one generational lifecycle.  An equality
inserted before its group's first query, while no young one waits,
joins a diagram at once, as the paper's fresh diagrams do.  Any other
starts young: it waits in a FIFO, and each query checks it after the
diagram walks with one closure comparison, as ``off`` does.  At the
front of the query that finds ``PROMOTE_AFTER`` of the group's queries
answered since it became young, it joins a diagram, oldest first: in
``shared`` the group's one diagram, in ``on`` a new one of its own.  So
an equality that dies young costs no diagram nodes, diagram members are
all older than young ones, and answers stay in insertion order.

Removing a young equality drops it from the FIFO.  Removing a diagram
member drops its diagram, whose other members (in ``shared`` all the
group's survivors, in ``on`` none) go back to the FIFO ahead of the
young ones, as if inserted then.  So no diagram holds a removed
equality, a diagram exists only while it holds a member, and, as a
group goes with its last live equality, groups and diagrams are bounded
by the live equalities, not by every left-hand side ever inserted.

One index is single-threaded; independent indexes may run in parallel.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Union

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


# Group queries a young equality waits through before it joins a
# diagram, in both diagram modes.  A fresh diagram is specialized by its
# first queries, and an insert into a walked diagram lands before the
# exit, so every specialized path that reaches the exit replicates and
# re-specializes it; only an equality checked many more times repays
# either.  Measured in ``shared`` mode on perfbench's churn_kbo (seed 5),
# where each equality lives 24 of its group's queries: 8 and 16 still
# promote and leave shared p50 at 73 and 54 us, against 20 us at 24, 32
# or 64.  32 keeps a margin above that lifetime, and costs a long-lived
# equality at most 32 closure comparisons before a diagram takes over.
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
    __slots__ = ("eqs", "tods", "young", "queries")

    def __init__(self):
        self.eqs: dict[Term, Equality] = {}     # rhs -> live, in insertion order
        # diagram modes: the diagrams that hold a member, oldest first,
        # keyed by their first member's id (``on``: their one member;
        # ``shared``: one diagram at most), the young equalities (id ->
        # (equality, group queries then), oldest first), queries answered
        self.tods: dict[int, Tod] = {}
        self.young: dict[int, tuple] = {}
        self.queries = 0


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
        other = group.eqs.get(rhs_c)
        if other is not None:
            raise DuplicateEqualityError(
                f"equality {lhs_c!r} = {rhs_c!r} already live as {other.eq_id}")
        eq_id = self._next_id
        self._next_id += 1
        eq = Equality(eq_id, lhs_c, rhs_c)
        group.eqs[rhs_c] = eq
        self._live[eq_id] = eq
        if self.mode is not IndexMode.OFF:
            # behind waiting young equalities too, or a walk would
            # answer it before them
            if group.queries or group.young:
                group.young[eq_id] = (eq, group.queries)
            else:
                self._join(group, eq)
        return eq_id

    def remove(self, eq_id: int) -> None:
        """Remove a live equality; removing it again does nothing.

        ``equality`` no longer finds it.  A young equality leaves the
        FIFO; a diagram member takes its diagram along (see the module
        docstring), and the last live member its group.  Raises
        ``UnknownEqualityError`` for an id this index never assigned,
        and for any id that is not an ``int``.
        """
        _check_id(eq_id)
        eq = self._live.pop(eq_id, None)
        if eq is None:
            if 0 < eq_id < self._next_id:
                return
            raise UnknownEqualityError(eq_id)
        group = self._groups[eq.lhs]
        del group.eqs[eq.rhs]
        if not group.eqs:
            del self._groups[eq.lhs]
        elif (self.mode is not IndexMode.OFF
              and group.young.pop(eq_id, None) is None):
            # a diagram member: its diagram goes.  A shared one's other
            # members lead the FIFO, and stamped now they hold the young
            # behind them anyway, so all restart young in insertion order
            if self.mode is IndexMode.PER_EQUALITY:
                del group.tods[eq_id]
            else:
                group.tods.clear()
                group.young = {e.eq_id: (e, group.queries)
                               for e in group.eqs.values()}

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
        sigma_c = object.__new__(Substitution)   # no identity left to drop
        sigma_c._m = renamed
        self.stats.queries += 1
        results = []
        if self.mode is not IndexMode.OFF:
            young = group.young
            if young:
                self._promote(group)
            group.queries += 1
            for tod in group.tods.values():
                tod.retrieve(sigma_c, first_only, results)
                if first_only and results:
                    return results
            if young:
                self._check_each([eq for eq, _ in young.values()], sigma_c,
                                 first_only, results)
            return results
        # baseline: one closure comparison per live equality
        if self._check_each(group.eqs.values(), sigma_c, first_only, results):
            self.stats.answers += 1
        return results

    def _promote(self, group: _Group) -> None:
        """Let the young equalities that have lived through
        ``PROMOTE_AFTER`` group queries join a diagram, oldest first."""
        young = group.young
        due = []
        for eq_id, (_, born) in young.items():
            if group.queries - born < PROMOTE_AFTER:
                break
            due.append(eq_id)
        for eq_id in due:
            self._join(group, young.pop(eq_id)[0])

    def _join(self, group: _Group, eq: Equality) -> None:
        """``eq`` joins a new diagram (``on``) or the group's one."""
        tods = group.tods
        if self.mode is IndexMode.PER_EQUALITY or not tods:
            tod = tods[eq.eq_id] = Tod(self.order, self.stats)
        else:
            tod, = tods.values()
        tod.insert(eq)

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
        """The diagrams that hold a member, group by group."""
        return [t for g in self._groups.values() for t in g.tods.values()]
