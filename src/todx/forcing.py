"""Path-derived constraint reasoning used to prove a check can only go one way.

While a diagram is traversed, the comparisons already made along the
unique path to a node form a conjunction of term constraints.  Closing
that conjunction under the transitivity axioms of a simplification
order sometimes pins down the outcome of the node's own check before
evaluating it; the node can then be bypassed for every future query.

The closures are stored as term partial orderings: a fixed element
sequence (top-level terms in order of first appearance) plus a
triangular array of pairwise facts.  Orderings are perfectly shared
through a store, so isomorphic paths reuse one instance.  The store is
a single-writer structure owned by one diagram, and dies with it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .ordering import Cmp3, TermOrder
from .terms import LinearExpr, Sign3, Term

# Per unordered element pair (i < j) five facts can be known; "a" is the
# smaller-indexed element.  gt and nge are directional, eq is symmetric.
_GT_AB = 1
_GT_BA = 2
_EQ = 4
_NGE_AB = 8
_NGE_BA = 16


class TpoInconsistencyError(RuntimeError):
    """Contradictory constraints reached a partial ordering.

    Paths explored during retrieval always admit at least one
    substitution, so this signals an internal invariant violation.
    """


def _cell(i: int, j: int) -> int:
    return j * (j - 1) // 2 + i


class PartialOrdering:
    """An immutable, shared transitive closure of term constraints."""

    __slots__ = ("elements", "_pos", "_cells")

    def __init__(self, elements: tuple, cells: bytes):
        self.elements = elements
        self._pos = {t: i for i, t in enumerate(elements)}
        self._cells = cells

    def _flags(self, i: int, j: int) -> tuple:
        """Return (gt, eq, nge) facts oriented from element i to element j."""
        if i < j:
            m = self._cells[_cell(i, j)]
            return bool(m & _GT_AB), bool(m & _EQ), bool(m & _NGE_AB)
        m = self._cells[_cell(j, i)]
        return bool(m & _GT_BA), bool(m & _EQ), bool(m & _NGE_BA)

    def relation(self, s: Term, t: Term) -> Optional[Cmp3]:
        """The known relation of s to t, if any."""
        if s is t:
            return Cmp3.EQUAL
        i = self._pos.get(s)
        j = self._pos.get(t)
        if i is None or j is None:
            return None
        gt, eq, nge = self._flags(i, j)
        if gt:
            return Cmp3.GREATER
        if eq:
            return Cmp3.EQUAL
        if nge:
            return Cmp3.NOT_GREATER_EQUAL
        return None

    def incomparable(self, s: Term, t: Term) -> bool:
        """Whether neither instance can ever be >= the other."""
        i = self._pos.get(s)
        j = self._pos.get(t)
        if i is None or j is None or i == j:
            return False
        return self._flags(i, j)[2] and self._flags(j, i)[2]

    def facts(self):
        """Yield the stored primitive facts as (s, Cmp3, t) triples."""
        n = len(self.elements)
        for j in range(n):
            for i in range(j):
                m = self._cells[_cell(i, j)]
                a, b = self.elements[i], self.elements[j]
                if m & _GT_AB:
                    yield (a, Cmp3.GREATER, b)
                if m & _GT_BA:
                    yield (b, Cmp3.GREATER, a)
                if m & _EQ:
                    yield (a, Cmp3.EQUAL, b)
                if m & _NGE_AB:
                    yield (a, Cmp3.NOT_GREATER_EQUAL, b)
                if m & _NGE_BA:
                    yield (b, Cmp3.NOT_GREATER_EQUAL, a)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}{r.value}{b!r}" for a, r, b in self.facts())
        return f"PartialOrdering([{inner}])"


class _Closure:
    """Mutable working state for one extension, closed under tr1-tr5."""

    def __init__(self, n: int, cells: bytearray):
        self.n = n
        self.cells = cells
        self.queue: list = []

    def _has(self, bit: int, i: int, j: int) -> bool:
        return bool(self.cells[_cell(i, j)] & bit) if i < j else \
            bool(self.cells[_cell(j, i)] & self._swap(bit))

    @staticmethod
    def _swap(bit: int) -> int:
        if bit == _GT_AB:
            return _GT_BA
        if bit == _GT_BA:
            return _GT_AB
        if bit == _NGE_AB:
            return _NGE_BA
        if bit == _NGE_BA:
            return _NGE_AB
        return bit

    def gt(self, i: int, j: int) -> bool:
        return self._has(_GT_AB, i, j)

    def eq(self, i: int, j: int) -> bool:
        return self._has(_EQ, i, j)

    def nge(self, i: int, j: int) -> bool:
        return self._has(_NGE_AB, i, j)

    def le(self, i: int, j: int) -> bool:
        return self.gt(j, i) or self.eq(i, j)

    def add(self, kind: str, i: int, j: int) -> None:
        if i == j:
            if kind == "eq":
                return
            raise TpoInconsistencyError(f"reflexive {kind} fact")
        self.queue.append((kind, i, j))

    def run(self) -> None:
        while self.queue:
            kind, a, b = self.queue.pop()
            if kind == "gt":
                if self.gt(a, b):
                    continue
                if self.eq(a, b) or self.nge(a, b) or self.gt(b, a):
                    raise TpoInconsistencyError("gt conflicts with stored facts")
                self._set(_GT_AB, a, b)
                self._derive_gt(a, b)
            elif kind == "eq":
                if self.eq(a, b):
                    continue
                if self.gt(a, b) or self.gt(b, a) or self.nge(a, b) or self.nge(b, a):
                    raise TpoInconsistencyError("eq conflicts with stored facts")
                self._set(_EQ, a, b)
                self._derive_eq(a, b)
            else:
                if self.nge(a, b):
                    continue
                if self.gt(a, b) or self.eq(a, b):
                    raise TpoInconsistencyError("nge conflicts with stored facts")
                self._set(_NGE_AB, a, b)
                self._derive_nge(a, b)

    def _set(self, bit: int, i: int, j: int) -> None:
        if i < j:
            self.cells[_cell(i, j)] |= bit
        else:
            self.cells[_cell(j, i)] |= self._swap(bit)

    def _derive_gt(self, a: int, b: int) -> None:
        # a > b entails b !>= a, and joins through every third element.
        self.add("nge", b, a)
        for k in range(self.n):
            if k == a or k == b:
                continue
            if self.gt(k, a):
                self.add("gt", k, b)
            if self.eq(a, k):
                self.add("gt", k, b)
            if self.gt(b, k) or self.eq(k, b):
                self.add("gt", a, k)
            if self.nge(k, b):
                self.add("nge", k, a)
            if self.nge(a, k):
                self.add("nge", b, k)

    def _derive_eq(self, a: int, b: int) -> None:
        for k in range(self.n):
            if k == a or k == b:
                continue
            if self.eq(b, k):
                self.add("eq", a, k)
            if self.eq(a, k):
                self.add("eq", b, k)
            if self.gt(k, b):
                self.add("gt", k, a)
            if self.gt(k, a):
                self.add("gt", k, b)
            if self.gt(a, k):
                self.add("gt", b, k)
            if self.gt(b, k):
                self.add("gt", a, k)
            if self.nge(k, a):
                self.add("nge", k, b)
            if self.nge(k, b):
                self.add("nge", k, a)
            if self.nge(b, k):
                self.add("nge", a, k)
            if self.nge(a, k):
                self.add("nge", b, k)

    def _derive_nge(self, a: int, b: int) -> None:
        for k in range(self.n):
            if k == a or k == b:
                continue
            if self.gt(k, b) or self.eq(b, k):
                self.add("nge", a, k)
            if self.gt(a, k) or self.eq(k, a):
                self.add("nge", k, b)


_REL_KIND = {
    Cmp3.GREATER: "gt",
    Cmp3.EQUAL: "eq",
    Cmp3.NOT_GREATER_EQUAL: "nge",
}


def term_formula(order: TermOrder, steps: Sequence[tuple],
                 node_terms: Sequence[Term] = ()) -> list:
    """The constraint conjunction for a traversed path.

    ``steps`` holds one (s, Cmp3, t) entry per term comparison followed
    by the edge it took; positivity checks contribute nothing and are
    simply not listed.  ``node_terms`` are the label terms of the node
    under examination, which count as top-level terms but add no edge
    fact.  On top of the edge facts, every statically ordered pair of
    top-level terms becomes a greater-than fact.
    """
    facts = list(steps)
    tops: list[Term] = []

    def note(v: Term) -> None:
        if all(v is not u for u in tops):
            tops.append(v)

    for s, _, t in steps:
        note(s)
        note(t)
    for v in node_terms:
        note(v)
    for v in tops:
        for u in tops:
            if u is not v and order.compare(v, u) is Cmp3.GREATER:
                facts.append((v, Cmp3.GREATER, u))
    return facts


class TpoStore:
    """Builds and perfectly shares partial orderings for one term order."""

    def __init__(self, order: TermOrder):
        self.order = order
        self._pool: dict = {}
        # (v.tid, u.tid) -> 1 if v > u, -1 if u > v, else 0.  Terms are
        # interned and immutable, so a verdict never goes stale.
        self._static: dict[tuple, int] = {}
        self.empty = self._intern((), b"")

    def _intern(self, elements: tuple, cells: bytes) -> PartialOrdering:
        key = (tuple(t.tid for t in elements), cells)
        found = self._pool.get(key)
        if found is None:
            found = PartialOrdering(elements, cells)
            self._pool[key] = found
        return found

    def __len__(self) -> int:
        return len(self._pool)

    def extend(self, parent: PartialOrdering,
               constraints: Iterable[tuple] = (),
               new_terms: Sequence[Term] = ()) -> PartialOrdering:
        """Extend a closed ordering with edge constraints and fresh terms.

        ``constraints`` are (s, Cmp3, t) facts taken from a traversed
        edge; ``new_terms`` are top-level terms entering the path.  New
        elements bring along every statically known greater-than fact
        against existing elements; the store remembers each pair's
        verdict.  Transitivity only needs to be re-run from the added
        facts.  Extending with nothing returns the parent unchanged.
        """
        constraints = list(constraints)
        elements = list(parent.elements)
        pos = dict(parent._pos)
        fresh: list[Term] = []

        def ensure(v: Term) -> None:
            if v not in pos:
                pos[v] = len(elements)
                elements.append(v)
                fresh.append(v)

        for a, _, b in constraints:
            ensure(a)
            ensure(b)
        for v in new_terms:
            ensure(v)
        if not constraints and not fresh:
            return parent

        n = len(elements)
        cells = bytearray(n * (n - 1) // 2)
        cells[:len(parent._cells)] = parent._cells
        cl = _Closure(n, cells)
        for a, rel, b in constraints:
            cl.add(_REL_KIND[rel], pos[a], pos[b])
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
                    if compare(v, u) is Cmp3.GREATER:
                        verdict = 1
                    elif compare(u, v) is Cmp3.GREATER:
                        verdict = -1
                    else:
                        verdict = 0
                    static[key] = verdict
                    static[(u.tid, v.tid)] = -verdict
                if verdict > 0:
                    cl.add("gt", i, pos[u])
                elif verdict < 0:
                    cl.add("gt", pos[u], i)
        cl.run()
        return self._intern(tuple(elements), bytes(cells))


def force_term_label(tpo: PartialOrdering, s: Term, t: Term) -> Optional[Cmp3]:
    """Label forced for a term comparison s with t, if any.

    ``tpo`` must be the closure for the path arriving at the node with
    s and t among its elements (``TpoStore.extend`` adds the statically
    ordered pairs when the terms join, so static knowledge about the
    pair itself is part of the lookup).  Identical operands force
    equality outright.
    """
    if s is t:
        return Cmp3.EQUAL
    return tpo.relation(s, t)


def force_positivity_label(expr: LinearExpr, w0: int) -> Optional[Sign3]:
    """Label forced for a positivity check, if any.

    Only statically decided expressions force: strictly positive ones
    evaluate > under every substitution, strictly negative ones evaluate
    !>=, and the zero expression always evaluates >=.  A merely
    non-negative expression with variables does not force >=, because a
    substitution can push its minimum above zero and flip the verdict
    to >.
    """
    if expr.is_zero:
        return Sign3.NON_NEGATIVE
    if expr.sign(w0) is Sign3.POSITIVE:
        return Sign3.POSITIVE
    if (-expr).sign(w0) is Sign3.POSITIVE:
        return Sign3.NOT_NON_NEGATIVE
    return None
