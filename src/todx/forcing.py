"""Path-derived constraint reasoning used to prove a check can only go one way.

While a diagram is traversed, the comparisons already made along the
unique path to a node form a conjunction of term constraints.  Closing
that conjunction under the transitivity axioms of a simplification
order sometimes pins down the outcome of the node's own check before
evaluating it; the node can then be bypassed for every future query.
A forced outcome is the ``Label`` the check itself would answer, so it
names the edge to bypass along.

The closures are stored as term partial orderings: a fixed element
sequence (top-level terms in order of first appearance) plus one fact
byte per ordered element pair, laid out so that extending an ordering
appends to its parent's bytes.  Orderings are perfectly shared
through a store, so isomorphic paths reuse one instance.  The store is
a single-writer structure owned by one diagram, and dies with it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .ordering import TermOrder
from .terms import Label, LinearExpr, Term

# Facts known about an ordered element pair (i, j), one bit each: i > j,
# i = j (stored in both orientations), and i !>= j.
_GT = 1
_EQ = 2
_NGE = 4


class TpoInconsistencyError(RuntimeError):
    """Contradictory constraints reached a partial ordering.

    Paths explored during retrieval always admit at least one
    substitution, so this signals an internal invariant violation.
    """


def _cell(i: int, j: int) -> int:
    # Pairs within the first n elements fill the first n*n cells, so a
    # parent's cells are a prefix of every extension's.
    return i * i + j if j <= i else j * j + j + 1 + i


class PartialOrdering:
    """An immutable, shared transitive closure of term constraints."""

    __slots__ = ("elements", "_pos", "_cells")

    def __init__(self, elements: tuple, cells: bytes):
        self.elements = elements
        self._pos = {t: i for i, t in enumerate(elements)}
        self._cells = cells

    def relation(self, s: Term, t: Term) -> Optional[Label]:
        """The known relation of s to t (GT, EQ or NGE), if any."""
        if s is t:
            return Label.EQ
        i = self._pos.get(s)
        j = self._pos.get(t)
        if i is None or j is None:
            return None
        m = self._cells[_cell(i, j)]
        if m & _GT:
            return Label.GT
        if m & _EQ:
            return Label.EQ
        if m & _NGE:
            return Label.NGE
        return None

    def facts(self):
        """Yield the stored primitive facts as (s, Label, t) triples."""
        n = len(self.elements)
        for j in range(n):
            for i in range(j):
                ab, ba = self._cells[_cell(i, j)], self._cells[_cell(j, i)]
                a, b = self.elements[i], self.elements[j]
                if ab & _GT:
                    yield (a, Label.GT, b)
                if ba & _GT:
                    yield (b, Label.GT, a)
                if ab & _EQ:
                    yield (a, Label.EQ, b)
                if ab & _NGE:
                    yield (a, Label.NGE, b)
                if ba & _NGE:
                    yield (b, Label.NGE, a)

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

    def gt(self, i: int, j: int) -> int:
        return self.cells[_cell(i, j)] & _GT

    def eq(self, i: int, j: int) -> int:
        return self.cells[_cell(i, j)] & _EQ

    def nge(self, i: int, j: int) -> int:
        return self.cells[_cell(i, j)] & _NGE

    def add(self, bit: int, i: int, j: int) -> None:
        if i == j:
            if bit == _EQ:
                return
            raise TpoInconsistencyError("reflexive strict fact")
        self.queue.append((bit, i, j))

    def run(self) -> None:
        cells = self.cells
        while self.queue:
            bit, a, b = self.queue.pop()
            ab = _cell(a, b)
            m = cells[ab]
            if m & bit:
                continue
            if bit == _GT:
                if m & (_EQ | _NGE) or self.gt(b, a):
                    raise TpoInconsistencyError("gt conflicts with stored facts")
                cells[ab] = m | _GT
                self._derive_gt(a, b)
            elif bit == _EQ:
                ba = _cell(b, a)
                if m & (_GT | _NGE) or cells[ba] & (_GT | _NGE):
                    raise TpoInconsistencyError("eq conflicts with stored facts")
                cells[ab] = m | _EQ
                cells[ba] |= _EQ
                self._derive_eq(a, b)
            else:
                if m & (_GT | _EQ):
                    raise TpoInconsistencyError("nge conflicts with stored facts")
                cells[ab] = m | _NGE
                self._derive_nge(a, b)

    def _derive_gt(self, a: int, b: int) -> None:
        # a > b entails b !>= a, and joins through every third element.
        self.add(_NGE, b, a)
        for k in range(self.n):
            if k == a or k == b:
                continue
            if self.gt(k, a):
                self.add(_GT, k, b)
            if self.eq(a, k):
                self.add(_GT, k, b)
            if self.gt(b, k) or self.eq(k, b):
                self.add(_GT, a, k)
            if self.nge(k, b):
                self.add(_NGE, k, a)
            if self.nge(a, k):
                self.add(_NGE, b, k)

    def _derive_eq(self, a: int, b: int) -> None:
        for k in range(self.n):
            if k == a or k == b:
                continue
            if self.eq(b, k):
                self.add(_EQ, a, k)
            if self.eq(a, k):
                self.add(_EQ, b, k)
            if self.gt(k, b):
                self.add(_GT, k, a)
            if self.gt(k, a):
                self.add(_GT, k, b)
            if self.gt(a, k):
                self.add(_GT, b, k)
            if self.gt(b, k):
                self.add(_GT, a, k)
            if self.nge(k, a):
                self.add(_NGE, k, b)
            if self.nge(k, b):
                self.add(_NGE, k, a)
            if self.nge(b, k):
                self.add(_NGE, a, k)
            if self.nge(a, k):
                self.add(_NGE, b, k)

    def _derive_nge(self, a: int, b: int) -> None:
        for k in range(self.n):
            if k == a or k == b:
                continue
            if self.gt(k, b) or self.eq(b, k):
                self.add(_NGE, a, k)
            if self.gt(a, k) or self.eq(k, a):
                self.add(_NGE, k, b)


_REL_BIT = {Label.GT: _GT, Label.EQ: _EQ, Label.NGE: _NGE}


class TpoStore:
    """Builds and perfectly shares partial orderings for one term order."""

    def __init__(self, order: TermOrder):
        self.order = order
        self._pool: dict = {}
        # (v.tid, u.tid) -> 1 if v > u, -1 if u > v, else 0.  Terms are
        # interned and immutable, so a verdict never goes stale.
        self._static: dict[tuple, int] = {}
        # (parent, constraints, new_terms) -> extension.  Replicated
        # copies of a node arrive with the same inputs; a call that
        # raises caches nothing.
        self._extended: dict[tuple, PartialOrdering] = {}
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

        ``constraints`` are (s, Label, t) facts taken from a traversed
        edge; ``new_terms`` are top-level terms entering the path.  New
        elements bring along every statically known greater-than fact
        against existing elements; the store remembers each pair's
        verdict.  Transitivity only needs to be re-run from the added
        facts.  Extending with nothing returns the parent unchanged.
        Repeated inputs return the ordering built the first time.
        """
        constraints = tuple(constraints)
        new_terms = tuple(new_terms)
        memo_key = (parent, constraints, new_terms)
        found = self._extended.get(memo_key)
        if found is not None:
            return found
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
            self._extended[memo_key] = parent
            return parent

        n = len(elements)
        cells = bytearray(n * n)
        cells[:len(parent._cells)] = parent._cells
        cl = _Closure(n, cells)
        for a, rel, b in constraints:
            cl.add(_REL_BIT[rel], pos[a], pos[b])
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
                    if compare(v, u) is Label.GT:
                        verdict = 1
                    elif compare(u, v) is Label.GT:
                        verdict = -1
                    else:
                        verdict = 0
                    static[key] = verdict
                    static[(u.tid, v.tid)] = -verdict
                if verdict > 0:
                    cl.add(_GT, i, pos[u])
                elif verdict < 0:
                    cl.add(_GT, pos[u], i)
        cl.run()
        found = self._intern(tuple(elements), bytes(cells))
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


_ZERO = LinearExpr()


def force_positivity_label(expr: LinearExpr, w0: int) -> Optional[Label]:
    """Label (GT, GEQ or NGE) forced for a positivity check, if any.

    Only statically decided expressions force: strictly positive ones
    answer GT under every substitution, strictly negative ones NGE, and
    the zero expression always GEQ.  A merely non-negative expression
    with variables does not force GEQ, because a substitution can push
    its minimum above zero and flip the answer to GT.
    """
    if expr.is_zero:
        return Label.GEQ
    if expr.sign(w0) is Label.GT:
        return Label.GT
    if _ZERO.sign(w0, minus=expr) is Label.GT:
        return Label.NGE
    return None
