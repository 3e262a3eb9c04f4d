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


class TpoStore:
    """Builds partial orderings for one term order, once per input."""

    def __init__(self, order: TermOrder):
        self.order = order
        # (v.tid, u.tid) -> 1 if v > u, -1 if u > v, else 0.  Terms are
        # interned and immutable, so a verdict never goes stale.
        self._static: dict[tuple, int] = {}
        # (parent, constraints, new_terms) -> extension.  Replicated
        # copies of a node arrive with the same inputs; a call that
        # raises caches nothing.
        self._extended: dict[tuple, PartialOrdering] = {}
        self.empty = PartialOrdering((), (), (), ())

    def __len__(self) -> int:
        """The orderings held: the empty one and each one built."""
        return 1 + len(self._extended)

    def extend(self, parent: PartialOrdering,
               constraints: Iterable[tuple] = (),
               new_terms: Sequence[Term] = ()) -> PartialOrdering:
        """Extend a closed ordering with edge constraints and fresh terms.

        ``constraints`` are (s, Label, t) facts taken from a traversed
        edge; ``new_terms`` are top-level terms entering the path.  New
        elements bring along every statically known greater-than fact
        against existing elements; the store remembers each pair's
        verdict.  The facts are set on the parent's padded rows, which
        are then closed again; with no fact to add they are closed
        already.  Extending with no fact and no new element returns the
        parent, and remembers nothing.  Repeated inputs return the
        ordering built the first time.
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
        compare = self.order.compare
        static = self._static
        for v in fresh:
            i = pos[v]
            for u in elements:
                if u is v:
                    continue
                key = (v.tid, u.tid)
                verdict = static.get(key)
                if verdict is None:
                    verdict = (1 if compare(v, u) is Label.GT else
                               -1 if compare(u, v) is Label.GT else 0)
                    static[key] = verdict
                    static[(u.tid, v.tid)] = -verdict
                if verdict > 0:
                    gt[i] |= 1 << pos[u]
                    added = True
                elif verdict < 0:
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


def force_positivity_label(expr: LinearExpr) -> Optional[Label]:
    """Label forced for a positivity check: GEQ for the zero expression,
    None otherwise.

    A statically signed weight difference never reaches a positivity
    check: a positive one makes KBO's ``compare(s, t)`` GT at the weight
    step, a negative one ``compare(t, s)``, and the path ordering holds
    that verdict before the comparison expands.  A merely non-negative
    expression with variables does not force GEQ, because a substitution
    can push its minimum above zero and flip the answer to GT.
    """
    return Label.GEQ if expr.is_zero else None
