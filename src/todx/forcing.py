"""Path-derived constraint reasoning used to prove a check can only go one way.

While a diagram is traversed, the comparisons already made along the
unique path to a node form a conjunction of term constraints.  Closing
that conjunction under the transitivity axioms of a simplification
order sometimes pins down the outcome of the node's own check before
evaluating it; the node can then be bypassed for every future query.
A forced outcome is the ``Label`` the check itself would answer, so it
names the edge to bypass along.

The closures are stored as term partial orderings: a fixed element
sequence (top-level terms in order of first appearance) plus one bit
row per element for each of ``>``, ``=`` and ``!>=``, so an extension's
rows are its parent's padded with zero bits and closed again with
Warshall's algorithm.  A store keeps each ordering it builds, by its
inputs, so the copies of a replicated node close their path once; it
is a single-writer structure owned by one diagram, and dies with it.

A path's ordering starts at its first fact.  Only a visited comparison
passes its terms on, through the fact its children arrive by, so before
that the path's ordering is the store's empty one, and a comparison
there is decided by the static verdict of its pair alone.  That verdict
has one home, ``TpoStore.static``, which also orders the pairs that
``extend`` adds; it compares each pair once, and under KBO with empty
substitutions its weight step runs in integers (``todx.ordering``).

Under KBO a path also holds sign facts: each positivity check on it
signed its weight difference ``e`` with the label the path took.  They
are kept apart from the orderings, so that paths which differ only in
them still share an ordering and its memo entry, as a chain
``(e, label, rest)`` that the nodes of one path share.  They force a
later weight difference ``e'`` pairwise by the static signs of
``d = e' - e`` (see ``force_positivity_label``), and ``PairSigns``
memoizes those signs for one diagram.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .ordering import TermOrder
from .terms import Label, LinearExpr, Term


class TpoInconsistencyError(RuntimeError):
    """Contradictory constraints reached a partial ordering.

    Paths explored during retrieval always admit at least one
    substitution, so this signals an internal invariant violation.
    """


class PartialOrdering:
    """An immutable transitive closure of term constraints.

    Bit j of ``gt[i]``, ``eq[i]`` and ``nge[i]`` says that element i is
    ``>``, ``=`` or ``!>=`` element j; no diagonal bit is ever set.  An
    element's position is its index in ``elements``, looked up there:
    ``relation`` runs once per node, on its first visit.
    """

    __slots__ = ("elements", "gt", "eq", "nge")

    def __init__(self, elements: tuple, gt: tuple, eq: tuple, nge: tuple):
        self.elements = elements
        self.gt = gt
        self.eq = eq
        self.nge = nge

    def relation(self, s: Term, t: Term) -> Optional[Label]:
        """The known relation of s to t (GT, EQ or NGE), if any."""
        if s is t:
            return Label.EQ
        try:
            i = self.elements.index(s)
            j = self.elements.index(t)
        except ValueError:
            return None
        bit = 1 << j
        if self.gt[i] & bit:
            return Label.GT
        if self.eq[i] & bit:
            return Label.EQ
        if self.nge[i] & bit:
            return Label.NGE
        return None


def _close(gt: list, eq: list, nge: list) -> tuple:
    """Close bit rows of facts under the axioms of a simplification order.

    ``eq`` must hold each equality in both orientations.  Warshall's
    algorithm closes ``>=`` (``>`` or ``=``), and in the same loop ``>``:
    a chain of ``>=`` steps with at least one ``>``.  Then ``a = b`` when
    ``a >= b >= a``, and ``a !>= b`` when ``b > a``, or when some given
    ``p !>= q`` has ``p >= a`` and ``b >= q``.  Returns the closed
    (gt, eq, nge) rows as tuples.  Raises ``TpoInconsistencyError`` on a
    reflexive ``>`` or ``!>=``, or on a pair with two relations.
    """
    n = len(gt)
    gt = list(gt)
    ge = [g | e for g, e in zip(gt, eq)]
    rows = range(n)
    for k in rows:
        bit, ge_k, gt_k = 1 << k, ge[k], gt[k]
        for i in rows:
            if ge[i] & bit:
                ge[i] |= ge_k
                gt[i] |= ge_k if gt[i] & bit else gt_k
    # le[j]: the elements >= j, j included; lt[j]: the elements > j
    le = [1 << j for j in rows]
    lt = [0] * n
    for i in rows:
        bit, rest, gt_i = 1 << i, ge[i], gt[i]
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            le[j] |= bit
            if gt_i & low:
                lt[j] |= bit
    closed_nge = lt[:]
    for p in rows:
        given = nge[p] & ~lt[p]     # p !>= q for q > p adds nothing to lt
        if given:
            below = 0
            for q in rows:
                if given >> q & 1:
                    below |= le[q]
            for a in rows:
                if (ge[p] | 1 << p) >> a & 1:
                    closed_nge[a] |= below
    closed_eq = [ge[i] & le[i] & ~(1 << i) for i in rows]
    for i in rows:
        g, e, x = gt[i], closed_eq[i], closed_nge[i]
        if (g | x) >> i & 1 or g & (e | x) or e & x:
            raise TpoInconsistencyError("contradictory facts")
    return tuple(gt), tuple(closed_eq), tuple(closed_nge)


_UNKNOWN = object()
_MIRROR = {Label.GT: Label.NGE, Label.NGE: Label.GT, None: None}


class TpoStore:
    """Builds partial orderings for one term order, once per input."""

    def __init__(self, order: TermOrder):
        self.order = order
        # (v.tid, u.tid) -> static(v, u).  Terms are interned and
        # immutable, so a verdict never goes stale.
        self._static: dict[tuple, Optional[Label]] = {}
        # (parent, constraints, new_terms) -> extension.  Replicated
        # copies of a node arrive with the same inputs; a call that
        # raises caches nothing.
        self._extended: dict[tuple, PartialOrdering] = {}
        self.empty = PartialOrdering((), (), (), ())

    def __len__(self) -> int:
        """The orderings held: the empty one and each one built."""
        return 1 + len(self._extended)

    def static(self, s: Term, t: Term) -> Optional[Label]:
        """The static verdict of ``s`` against ``t``: EQ if ``s is t``, GT
        if ``s > t`` and NGE if ``t > s`` under every substitution, else
        None.  It is the relation of ``s`` to ``t`` in
        ``extend(empty, (), (s, t))``, which this method orders; each
        pair is compared once, in both directions.
        """
        if s is t:
            return Label.EQ
        key = (s.tid, t.tid)
        verdict = self._static.get(key, _UNKNOWN)
        if verdict is _UNKNOWN:
            compare = self.order.compare
            verdict = (Label.GT if compare(s, t) is Label.GT else
                       Label.NGE if compare(t, s) is Label.GT else None)
            self._static[key] = verdict
            self._static[(t.tid, s.tid)] = _MIRROR[verdict]
        return verdict

    def extend(self, parent: PartialOrdering,
               constraints: Iterable[tuple] = (),
               new_terms: Sequence[Term] = ()) -> PartialOrdering:
        """Extend a closed ordering with edge constraints and fresh terms.

        ``constraints`` are (s, Label, t) facts taken from a traversed
        edge; ``new_terms`` are top-level terms entering the path.  New
        elements bring along every statically known greater-than fact
        against existing elements, from ``static``.  The facts are set
        on the parent's padded rows, which are then closed again; with
        no fact to add they are closed already.  Extending with no fact
        and no new element returns the parent, and remembers nothing.
        Repeated inputs return the ordering built the first time.
        """
        constraints = tuple(constraints)
        new_terms = tuple(new_terms)
        if not constraints and all(t in parent.elements for t in new_terms):
            return parent
        memo_key = (parent, constraints, new_terms)
        found = self._extended.get(memo_key)
        if found is not None:
            return found
        elements = list(parent.elements)
        pos = {t: i for i, t in enumerate(elements)}
        for v in [t for a, _, b in constraints for t in (a, b)] + list(new_terms):
            if v not in pos:
                pos[v] = len(elements)
                elements.append(v)
        n = len(parent.elements)
        fresh = elements[n:]
        pad = (0,) * (len(elements) - n)
        gt, eq, nge = (list(parent.gt + pad), list(parent.eq + pad),
                       list(parent.nge + pad))
        for a, rel, b in constraints:
            i, j = pos[a], pos[b]
            if rel is Label.GT:
                gt[i] |= 1 << j
            elif rel is Label.EQ:
                eq[i] |= 1 << j
                eq[j] |= 1 << i
            else:
                nge[i] |= 1 << j
        added = bool(constraints)
        static = self.static
        for v in fresh:
            i = pos[v]
            for u in elements:
                if u is v:
                    continue
                verdict = static(v, u)
                if verdict is Label.GT:
                    gt[i] |= 1 << pos[u]
                    added = True
                elif verdict is Label.NGE:
                    gt[pos[u]] |= 1 << i
                    added = True
        # The parent is closed, so without a new fact its padded rows are.
        rows = _close(gt, eq, nge) if added else (tuple(gt), tuple(eq),
                                                   tuple(nge))
        found = PartialOrdering(tuple(elements), *rows)
        self._extended[memo_key] = found
        return found


def force_term_label(tpo: PartialOrdering, s: Term, t: Term) -> Optional[Label]:
    """Label (GT, EQ or NGE) forced for a term comparison s with t, if any.

    ``tpo`` must be the closure for the path arriving at the node with
    s and t among its elements (``TpoStore.extend`` adds the statically
    ordered pairs when the terms join, so static knowledge about the
    pair itself is part of the lookup).  Identical operands force
    equality outright.
    """
    return tpo.relation(s, t)


class PairSigns(dict):
    """One diagram's memo of the static signs of fact pairs.

    ``(id(e'), id(e))`` maps to ``(e', e, s(d), s(-d))`` with
    ``d = e' - e``, where ``s`` is ``.sign(w0)`` with no substitution:
    NGE if a coefficient is negative, else the sign of ``d`` at ``w0``.
    Both signs come from the one subtraction, on the first lookup.  The
    key is the two objects' identities, so a lookup hashes two ints, not
    two expressions; the entry keeps both objects alive, so neither id
    is reused while the memo lives.  Expressions are immutable, so an
    entry never goes stale; the memo dies with its diagram.
    """

    __slots__ = ("w0",)

    def __init__(self, w0: int):
        super().__init__()
        self.w0 = w0

    def add(self, new: LinearExpr, old: LinearExpr) -> tuple:
        """The entry for ``(new, old)``, made and kept."""
        d = new - old
        total = d.constant
        neg = pos = False
        for _, c in d._coeffs:
            if c < 0:
                neg = True
            else:
                pos = True
            total += c * self.w0
        entry = self[id(new), id(old)] = (
            new, old, Label.NGE if neg else _sign(total),
            Label.NGE if pos else _sign(-total))
        return entry


def _sign(total: int) -> Label:
    return Label.GT if total > 0 else Label.GEQ if total == 0 else Label.NGE


def force_positivity_label(expr: LinearExpr, facts: Optional[tuple] = None,
                           signs: Optional[PairSigns] = None
                           ) -> Optional[Label]:
    """Label forced for a positivity check on ``expr``, if any.

    The zero expression is GEQ.  Otherwise ``facts`` decides: the path's
    chain of sign facts ``(e, label, rest)``, None at its end, with
    ``signs`` the diagram's memo.  For each fact, with ``d = expr - e``
    and ``s`` the static sign:

    * ``e`` GT and ``s(d) >= 0`` give GT;
    * ``e`` GEQ and ``s(d)`` GT give GT;
    * ``e`` GEQ and ``d`` zero give GEQ;
    * ``e`` NGE and ``s(-d) >= 0`` give NGE.

    A substitution maps every variable to a weight of at least ``w0``,
    so a static sign holds under it, and ``expr`` is ``e`` plus ``d``.
    Facts need the memo: a non-zero ``expr`` with ``facts`` and no
    ``signs`` raises ``TypeError`` before any fact is read.

    A statically signed weight difference never reaches a positivity
    check: a positive one makes KBO's ``compare(s, t)`` GT at the weight
    step, a negative one ``compare(t, s)``, and the path ordering holds
    that verdict before the comparison expands.  A merely non-negative
    expression with variables is not forced GEQ without a fact, because
    a substitution can push its minimum above zero and flip the answer
    to GT.
    """
    if expr.is_zero:
        return Label.GEQ
    if facts is not None and signs is None:
        raise TypeError("force_positivity_label: sign facts need the "
                        "diagram's PairSigns memo as signs")
    key = id(expr)
    while facts is not None:
        old, label, facts = facts
        _, _, ahead, behind = (signs.get((key, id(old)))
                               or signs.add(expr, old))
        if label is Label.GT:
            if ahead is not Label.NGE:
                return Label.GT
        elif label is Label.GEQ:
            if ahead is Label.GT:
                return Label.GT
            if ahead is Label.GEQ and behind is Label.GEQ:
                return Label.GEQ        # d and -d are >= 0: d is zero
        elif behind is not Label.NGE:
            return Label.NGE
    return None
