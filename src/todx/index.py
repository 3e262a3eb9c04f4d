"""Post-ordering index: groups of equalities sharing a left-hand side.

Groups key on the canonical form of the left-hand side (variables
renumbered by first occurrence), so alpha-renamed copies land in one
group.  That form is computed once per interned term and cached in it,
so a repeated query pays one slot read for it.  A query whose lhs is
that canonical form itself hands its substitution to the checks as it
is, whatever else it binds: every check reads it only at lhs variables,
and variables inside images stay free.  Any other query renames its
bindings into the canonical numbering, and an lhs variable it leaves
unbound is bound to the caller's variable, whose name the images may
share.
Three retrieval modes answer the same queries identically:

* ``off``     checks each equality on its own (see ``_check_each``),
* ``on``      gives each long-lived equality a diagram of its own,
* ``shared``  gives them one diagram per group.

In both diagram modes a query walks its group's diagrams, oldest first,
in one call of ``todx.tod.retrieve``, so ``on`` sets the walk up and
updates the counters once per query, not once per diagram.

The index alone knows which equalities exist: it mints their ids,
rejects a live duplicate by its canonical (lhs, rhs) pair, and counts
the live equalities and diagrams off its own maps.

Both diagram modes run one generational lifecycle.  An equality
inserted before its group's first query, while no young one waits,
joins a diagram at once, as the paper's fresh diagrams do.  Any other
starts young: it waits in a FIFO, and each query checks it after the
diagram walks the way ``off`` checks every equality.  At the
front of the query that finds ``PROMOTE_AFTER`` of the group's queries
answered since it became young, it joins a diagram, oldest first: in
``shared`` the group's one diagram, in ``on`` a new one of its own.  So
an equality that dies young costs no diagram nodes, diagram members are
all older than young ones, and answers stay in insertion order.  The
FIFO is one map from each young equality to its stamp, and the group
keeps the query count at which its head is due, which a removal may
leave early: a query looks at the stamps only once its group reaches
that count.

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
import sys
from dataclasses import replace
from typing import Union

from .ordering import make_order
from .stats import Stats
from .terms import Label, Signature, Substitution, Term, term_weight
from .tod import Equality, Tod, retrieve


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
# either.  Measured in ``shared`` mode on perfbench's churn_kbo (seeds
# 701-703, 5 s runs, CPython 3.11 on a 2-core Xeon), where each
# equality lives 24 of its group's queries: 8 and 16 still promote and
# leave shared p95 at 201 and 104 us (p50 6.3 and 6.1 us), against 12.6,
# 12.1 and 12.2 us (p50 5.5, 5.2 and 5.2 us) at 24, 32 and 64; poly_kbo
# inserts only before its first query and reads alike at every value.
# 32 keeps a margin above that lifetime, and costs a long-lived
# equality at most 32 closure comparisons before a diagram takes over.
PROMOTE_AFTER = 32

# ``_Group.due`` of an empty young FIFO: no query count reaches it
_NEVER = sys.maxsize

# Stack marker in canonicalize_term: build the term below it.
_BUILD = object()

_GT = Label.GT      # a module global reads faster than the enum member


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

    Returns (lhs', rhs').  Raises if the rhs introduces variables
    absent from the lhs: such an equality can never satisfy the ordering
    condition, and the demodulation workflow never produces one.
    """
    lhs_c, vids = _canonical_lhs(sig, lhs)
    mapping = {old: new for new, old in enumerate(vids)}
    rhs_c = canonicalize_term(sig, rhs, mapping)
    if len(mapping) != len(vids):
        raise MalformedEqualityError(
            "right-hand side uses variables not in the left-hand side")
    return lhs_c, rhs_c


def _check_id(eq_id) -> None:
    # True == 1.0 == 1 as dict keys: only a plain int names an equality
    if type(eq_id) is not int:
        raise UnknownEqualityError(eq_id)


class _Group:
    __slots__ = ("eqs", "tods", "young", "queries", "due")

    def __init__(self):
        self.eqs: dict[Term, Equality] = {}     # rhs -> live, in insertion order
        # diagram modes: the diagrams that hold a member, oldest first,
        # keyed by their first member's id (``on``: their one member;
        # ``shared``: one diagram at most), the young FIFO (equality ->
        # group queries answered when it became young, oldest first),
        # queries answered, and the query count at which the FIFO's head
        # is due, or earlier
        self.tods: dict[int, Tod] = {}
        self.young: dict[Equality, int] = {}
        self.queries = 0
        self.due = _NEVER


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
        simplify away on first retrieval.  Canonicalization rebuilds
        each non-ground subterm with the index's signature, which
        raises ``SignatureError`` on another signature's symbol; a
        ground subterm is not rebuilt, so a foreign one goes unchecked.
        """
        lhs_c, rhs_c = canonicalize_equality(self.signature, lhs, rhs)
        group = self._groups.get(lhs_c)
        if group is None:
            group = self._groups[lhs_c] = _Group()
        other = group.eqs.get(rhs_c)
        if other is not None:
            raise DuplicateEqualityError(
                f"equality {lhs_c!r} = {rhs_c!r} already live as {other.eq_id}")
        eq_id = self._next_id
        self._next_id += 1
        eq = Equality(eq_id, lhs_c, rhs_c,
                      term_weight(lhs_c) - term_weight(rhs_c)
                      if self.order.kind == "kbo" else None)
        group.eqs[rhs_c] = eq
        self._live[eq_id] = eq
        if self.mode is not IndexMode.OFF:
            # behind waiting young equalities too, or a walk would
            # answer it before them
            young = group.young
            if group.queries or young:
                if not young:
                    group.due = group.queries + PROMOTE_AFTER
                young[eq] = group.queries
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
        elif self.mode is not IndexMode.OFF:
            if eq in group.young:
                del group.young[eq]     # ``due`` may be early now
            elif self.mode is IndexMode.PER_EQUALITY:
                del group.tods[eq_id]   # a diagram member: its diagram goes
            else:
                # the shared diagram goes.  Its other members lead the
                # FIFO, and stamped now they hold the young behind them
                # anyway, so all restart young in insertion order
                group.tods.clear()
                group.young = dict.fromkeys(group.eqs.values(), group.queries)
                group.due = group.queries + PROMOTE_AFTER

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

        ``lhs`` is looked up by its canonical form (cached in the term).
        If ``lhs`` is that form, the checks get ``sigma`` itself: they
        read it only at lhs variables, so bindings outside the lhs are
        inert.  Otherwise its bindings are renamed into the canonical
        numbering, those outside the lhs are dropped, and an lhs
        variable it leaves unbound keeps the caller's name, which its
        images may share.  In ``on`` and ``shared`` the young FIFO's
        stamps are looked at for promotion only once the group's query
        count reaches its ``due``; then one walk goes over the group's
        diagrams, oldest first, and the young equalities are checked
        after it unless it found the first answer wanted.  An unknown
        lhs yields an empty result.  ``want`` is "all" or "first".
        """
        if want not in ("all", "first"):
            raise ValueError(f"want must be 'all' or 'first', not {want!r}")
        first_only = want == "first"
        key, vids = lhs._canon or _canonical_lhs(self.signature, lhs)
        group = self._groups.get(key)
        if group is None:
            return []
        if key is lhs:
            sigma_c = sigma
        else:
            # an unbound variable keeps the caller's name, which images
            # may share; the constructor drops the identities
            m, var = sigma._m, self.signature.var
            sigma_c = Substitution({new: m.get(old) or var(old)
                                    for new, old in enumerate(vids)})
        self.stats.queries += 1
        results = []
        if self.mode is not IndexMode.OFF:
            if group.queries >= group.due:
                self._promote(group)
            group.queries += 1
            tods = group.tods
            if tods:
                retrieve(tods.values(), sigma_c, first_only, results)
                if first_only and results:
                    return results
            young = group.young
            if young:
                self._check_each(young, sigma_c, first_only, results)
            return results
        # baseline: each live equality checked on its own
        if self._check_each(group.eqs.values(), sigma_c, first_only, results):
            self.stats.answers += 1
        return results

    def _promote(self, group: _Group) -> None:
        """Let the young equalities that have lived through
        ``PROMOTE_AFTER`` group queries join a diagram, oldest first,
        and set ``group.due`` by the new head of the FIFO."""
        young = group.young
        ripe = group.queries - PROMOTE_AFTER
        grown = []
        group.due = _NEVER
        for eq, stamp in young.items():
            if stamp > ripe:
                group.due = stamp + PROMOTE_AFTER
                break
            grown.append(eq)
        for eq in grown:
            del young[eq]
            self._join(group, eq)

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
        """Append the ids of ``eqs`` that ``sigma`` orders; False if it
        stopped at a first answer.

        A KBO equality's stored weight difference ``constant + sum c*v``
        is signed as ``constant + sum c*least(v)`` in integer arithmetic
        (``least(v)``: v's image's ``Term.least``, or w0), inline as the
        diagram walk signs it.  A nonzero total is the verdict of
        ``compare_closure``'s weight step, GT or NGE, and counts as its
        one step.  A zero total, a ``c < 0`` on an unbound variable or a
        non-ground image (another image can cancel it), and an LPO
        equality take one closure comparison.  The same integer sign runs
        in two more places: the walk's positivity checks, and the weight
        step of ``KboOrder.compare_closure`` at every level.
        """
        st = self.stats
        order = self.order
        compare = order.compare_closure
        w0 = self.signature.w0
        m = sigma._m
        steps = order.steps
        decided = 0
        finished = True
        for eq in eqs:
            total = 0
            diff = eq.weight_diff
            # kept inline: a shared LinearExpr sign method cost 18-20% p50
            if diff is not None:
                total = diff.constant
                for v, c in diff._coeffs:
                    img = m.get(v)
                    if c < 0 and (img is None or not img.ground):
                        total = 0       # undecided: compare below
                        break
                    total += c * (w0 if img is None else img.least)
            if total < 0:
                decided += 1
                continue
            if total > 0:
                decided += 1
            elif compare(eq.lhs, sigma, eq.rhs, sigma) is not _GT:
                continue
            results.append(eq.eq_id)
            st.answers += 1
            if first_only:
                finished = False
                break
        st.naive_comparisons += order.steps - steps + decided
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
