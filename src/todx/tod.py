"""Term ordering diagrams: a lazily specialized index for ordering checks.

A diagram is a rooted dag of evaluation nodes (term comparisons and
positivity checks) and success nodes.  Retrieving with a query
substitution walks the diagram, and on the way rewrites the parts it
touches into cheaper equivalents: comparisons expand by the order's
definition, and a node whose outcome the path already determines is
bypassed by moving the edge the walk arrives by to its outcome.  The
path determines an outcome by its term ordering (before the path's first
fact, the static verdict of a comparison's pair) and, under KBO, by the
sign facts of its positivity checks (see ``todx.forcing``).  A node
reached by several edges is split only before the walk visits or
expands it: the arriving edge gets a fresh copy, so every visited node
is reached by exactly one path.  Nodes count their incoming edges and
keep no list of them.  The diagram after a retrieval accepts the same
success sets as before, it is just faster to walk.  Once the path of a
substitution has settled, a walk along it rewrites nothing and only
evaluates the checks it passes.

The module's ``retrieve`` walks several diagrams one after another in
one loop; ``Tod.retrieve`` is that walk over one diagram.

Edges carry ``Label``s.  The answer of a check, evaluated or forced,
is the label of the edge the walk takes next, and the label a walk
arrives by is the fact its comparison adds to the path.  Each kind uses
fixed labels, so a node keeps its edges in three slots, ``gt``, ``mid``
and ``nge``, and one table, ``_LABELS``, names the label of each slot
per kind; ``_SLOT`` maps a label back to its slot.  The walk and every
rewrite read and write the slots; ``TodNode.out`` is a
``{label: target}`` view built from them for introspection.

A diagram is mutated during retrieval, so all operations on one diagram
are single-threaded; distinct diagrams may be used concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .forcing import (PairSigns, PartialOrdering, TpoStore,
                      force_positivity_label, force_term_label)
from .ordering import TermOrder
from .stats import Stats
from .terms import Label, LinearExpr, Substitution, Term, term_weight

STEP_CAP = 10 ** 6
"""Rewrite steps (arrivals at unvisited nodes) one retrieval may take.
A KBO expansion and the positivity check it becomes are one step."""


class StepCapExceededError(RuntimeError):
    """A retrieval took more than ``STEP_CAP`` rewrite steps.

    Transformations strictly shrink the diagram measure, so hitting the
    cap indicates a transformation loop bug, never a big input.  The
    walk over visited nodes is not capped: the diagram is acyclic
    (``Tod.validate`` checks it), so that walk ends.
    """


class TodStructureError(RuntimeError):
    """A structural precondition or invariant does not hold."""


class NodeKind(enum.Enum):
    ROOT = "root"
    EXIT = "exit"
    TERM = "term"
    POS = "pos"
    SUCCESS = "success"


_GT, _EQ, _GEQ, _NGE, _NEXT = (Label.GT, Label.EQ, Label.GEQ, Label.NGE,
                               Label.NEXT)
_TERM, _POS, _EXIT = NodeKind.TERM, NodeKind.POS, NodeKind.EXIT

# the labels of each kind's gt, mid and nge slots, None for a slot it
# leaves empty; and the slot of each label
_LABELS = {NodeKind.TERM: (_GT, _EQ, _NGE), NodeKind.POS: (_GT, _GEQ, _NGE),
           NodeKind.ROOT: (None, _NEXT, None),
           NodeKind.SUCCESS: (None, _NEXT, None), NodeKind.EXIT: (None,) * 3}
_SLOT = {_GT: "gt", _EQ: "mid", _GEQ: "mid", _NEXT: "mid", _NGE: "nge"}


@dataclass(eq=False)
class Equality:
    """An indexed equality; the index mints its id.  It compares and
    hashes by identity, so the index's young FIFO can key on it.

    ``weight_diff`` is ``|lhs| - |rhs|``, which the index stores once
    for a KBO equality so that its checks sign it instead of folding
    both weights; None under LPO.
    """

    eq_id: int
    lhs: Term
    rhs: Term
    weight_diff: Optional[LinearExpr] = None


class TodNode:
    """A diagram node.  It is visited exactly when it has ``tpo``, the
    closure of its path formula, which the walk sets on the first visit
    together with ``facts``, the sign facts of the positivity checks on
    its path: a chain ``(expr, label, rest)`` whose rest is its parent's
    chain, None when the path has none.  Its edges are the slots ``gt``,
    ``mid`` and ``nge``, labelled per kind by ``_LABELS``; a slot its
    kind does not use is None.  ``out`` is a view of them for
    introspection, which the walk never builds."""

    __slots__ = ("kind", "lhs", "rhs", "expr", "eq", "tpo", "facts", "gt",
                 "mid", "nge", "refs")

    def __init__(self, kind: NodeKind, lhs: Optional[Term] = None,
                 rhs: Optional[Term] = None, expr: Optional[LinearExpr] = None,
                 eq: Optional[Equality] = None):
        self.kind = kind
        self.lhs = lhs
        self.rhs = rhs
        self.expr = expr
        self.eq = eq
        self.tpo: Optional[PartialOrdering] = None
        self.facts: Optional[tuple] = None
        self.gt = self.mid = self.nge = None
        self.refs = 0       # incoming edges

    @property
    def visited(self) -> bool:
        return self.tpo is not None

    @property
    def out(self) -> dict:
        """The edges as ``{label: target}``, a view built from the slots."""
        slots = (self.gt, self.mid, self.nge)
        return {label: dst for label, dst in zip(_LABELS[self.kind], slots)
                if dst is not None}

    def label(self) -> str:
        k = self.kind
        if k is NodeKind.TERM:
            return f"{self.lhs!r} cmp {self.rhs!r}"
        if k is NodeKind.POS:
            return f"{self.expr!r} pos 0"
        if k is NodeKind.SUCCESS:
            return f"eq {self.eq.eq_id}"
        return k.value

    def __repr__(self) -> str:
        flag = "*" if self.visited else ""
        return f"<{self.label()}{flag}>"


class Tod:
    """One term ordering diagram over a fixed order.  It takes the
    equalities the index gives it unchecked, and answers every one it
    holds: the index drops a diagram rather than remove from it."""

    def __init__(self, order: TermOrder, stats: Optional[Stats] = None):
        self.order = order
        self.stats = stats if stats is not None else Stats()
        # the store, and every ordering and comparison it keeps, dies
        # with the diagram, as do the KBO weight differences of its
        # comparisons, by (s.tid, t.tid), and the static signs of pairs
        # of them
        self.tpo_store = TpoStore(order)
        self._diffs: dict[tuple, LinearExpr] = {}
        self._signs = PairSigns(order.signature.w0)
        self.root = TodNode(NodeKind.ROOT)
        self.exit = TodNode(NodeKind.EXIT)
        self.root.tpo = self.tpo_store.empty
        self._link3(self.root, None, self.exit, None)

    # -- construction helpers -------------------------------------------------

    def _link3(self, src: TodNode, gt: Optional[TodNode], mid: TodNode,
               nge: Optional[TodNode]) -> None:
        """Give ``src``, which has no edges, these three; None for a slot
        its kind does not use."""
        src.gt, src.mid, src.nge = gt, mid, nge
        for dst in (gt, mid, nge):
            if dst is not None:
                dst.refs += 1

    def _unlink_out(self, src: TodNode) -> list:
        """Remove all outgoing edges of ``src``; return the old targets."""
        old = [dst for dst in (src.gt, src.mid, src.nge) if dst is not None]
        for dst in old:
            dst.refs -= 1
        src.gt = src.mid = src.nge = None
        return old

    def _term(self, lhs: Term, rhs: Term, gt: TodNode, eq: TodNode,
              nge: TodNode) -> TodNode:
        """A new comparison node lhs vs rhs with its three edges."""
        c = TodNode(NodeKind.TERM, lhs=lhs, rhs=rhs)
        self.stats.nodes_created.term += 1
        self._link3(c, gt, eq, nge)
        return c

    def _rewire(self, node: TodNode, gt: TodNode, mid: TodNode,
                nge: TodNode) -> TodNode:
        """Replace ``node``'s outgoing edges; prune what that orphans."""
        old_targets = self._unlink_out(node)
        self._link3(node, gt, mid, nge)
        self._cleanup(old_targets)
        return node

    def _cleanup(self, candidates) -> None:
        """Drop nodes left without incoming edges, cascading; exit stays."""
        stack = list(candidates)
        while stack:
            n = stack.pop()
            if n.refs or n.kind is NodeKind.EXIT:
                continue
            stack.extend(self._unlink_out(n))

    # -- index operations ------------------------------------------------------

    def insert(self, eq: Equality) -> None:
        """Splice a comparison for ``eq`` immediately before the exit node.

        The old exit object becomes the new comparison node, so the
        rewiring cost does not depend on the diagram size.  Under KBO the
        equality's stored weight difference enters the diagram's table.
        """
        cmp_node = self.exit
        cmp_node.kind = NodeKind.TERM
        cmp_node.lhs = eq.lhs
        cmp_node.rhs = eq.rhs
        if eq.weight_diff is not None:
            self._diffs[eq.lhs.tid, eq.rhs.tid] = eq.weight_diff
        succ = TodNode(NodeKind.SUCCESS, eq=eq)
        new_exit = TodNode(NodeKind.EXIT)
        self.exit = new_exit
        self._link3(cmp_node, succ, new_exit, new_exit)
        self._link3(succ, None, new_exit, None)
        self.stats.nodes_created.term += 1
        self.stats.nodes_created.success += 1

    # -- evaluation ------------------------------------------------------------

    def evaluate_node(self, node: TodNode, sigma: Substitution) -> Label:
        """The edge a substitution takes out of an evaluation node.

        This is the definition of a node's label.  The module's walk
        ``retrieve`` inlines it for the visited nodes of every diagram it
        walks, and signs a positivity check from its images' least
        weights where that gives the same label.
        """
        if node.kind is NodeKind.TERM:
            return self.order.compare_closure(node.lhs, sigma, node.rhs, sigma)
        if node.kind is NodeKind.POS:
            return node.expr.sign(self.order.signature.w0, sigma)
        raise TodStructureError(f"{node!r} is not an evaluation node")

    def _tpo_at(self, prev: TodNode, arrival: Label,
                node: TodNode) -> PartialOrdering:
        """Closure of the path formula for the path arriving at ``node``:
        ``prev``'s itself, as ``extend`` would return it, when the arrival
        adds no fact and no term.

        A path's ordering starts at its first fact: only a visited
        comparison passes its terms on, through the fact its children
        arrive by.  Before that fact the ordering is empty, and stays so
        for a comparison too, whose ordering would hold nothing but the
        static verdict of its pair; ``_forced`` reads that from the
        store instead."""
        if prev.kind is not NodeKind.TERM and (
                node.kind is not NodeKind.TERM
                or prev.tpo is self.tpo_store.empty):
            return prev.tpo
        facts = (((prev.lhs, arrival, prev.rhs),)
                 if prev.kind is NodeKind.TERM else ())
        new_terms = (node.lhs, node.rhs) if node.kind is NodeKind.TERM else ()
        return self.tpo_store.extend(prev.tpo, facts, new_terms)

    @staticmethod
    def _facts_at(prev: TodNode, arrival: Label) -> Optional[tuple]:
        """The sign facts of the path arriving from ``prev`` by ``arrival``:
        ``prev``'s, plus its own when it is a positivity check."""
        if prev.kind is NodeKind.POS:
            return (prev.expr, arrival, prev.facts)
        return prev.facts

    def _weight_diff(self, s: Term, t: Term) -> LinearExpr:
        """``|s| - |t|``, built once per diagram; for an inserted
        equality's own comparison, the index's ``weight_diff``."""
        key = (s.tid, t.tid)
        diff = self._diffs.get(key)
        if diff is None:
            diff = self._diffs[key] = term_weight(s) - term_weight(t)
        return diff

    def _forced(self, node: TodNode, tpo: PartialOrdering,
                facts: Optional[tuple]) -> Optional[Label]:
        """The label the path forces on ``node``; None for a success.

        A comparison is decided by the path ordering ``tpo``, or by the
        store's static verdict of its pair while ``tpo`` is the empty
        ordering (see ``_tpo_at``).  Under KBO one it leaves open gets
        its weight verdict: ``force_positivity_label`` on its weight
        difference with the path's sign facts.  GT or NGE there forces
        the comparison; GEQ, a weight tie, or None leaves it open and is
        returned for the walk, which hands it to the positivity check
        that the comparison becomes if it expands.
        """
        if node.kind is NodeKind.TERM:
            s, t = node.lhs, node.rhs
            label = (self.tpo_store.static(s, t) if tpo is self.tpo_store.empty
                     else force_term_label(tpo, s, t))
            if label is None and self.order.kind == "kbo":
                return force_positivity_label(self._weight_diff(s, t), facts,
                                              self._signs)
            return label
        if node.kind is NodeKind.POS:
            return force_positivity_label(node.expr, facts, self._signs)
        return None

    # -- generic transformations ----------------------------------------------

    def replicate_node(self, node: TodNode, via: tuple) -> TodNode:
        """Give the traversal edge ``via`` a copy of ``node``; return it.

        The copy shares the outgoing edge targets and has ``via`` as its
        only incoming edge, so the walk continues on a node reached by
        one path; the original keeps every other incoming edge.
        """
        if node.kind is NodeKind.EXIT:
            raise TodStructureError("cannot replicate the exit node")
        if node.refs < 2:
            raise TodStructureError("replication needs multiple incoming edges")
        copy = TodNode(node.kind, lhs=node.lhs, rhs=node.rhs,
                       expr=node.expr, eq=node.eq)
        self._move_edge(node, via, copy)
        self._link3(copy, node.gt, node.mid, node.nge)
        created = self.stats.nodes_created
        if node.kind is NodeKind.TERM:
            created.term += 1
        elif node.kind is NodeKind.POS:
            created.pos += 1
        elif node.kind is NodeKind.SUCCESS:
            created.success += 1
        return copy

    def _move_edge(self, node: TodNode, via: tuple,
                   target: TodNode) -> TodNode:
        """Send the edge ``via`` from ``node`` to ``target``; prune
        ``node`` and what that orphans once no edge reaches it."""
        src, label = via
        slot = _SLOT[label]
        if getattr(src, slot) is not node:
            raise TodStructureError("traversal edge does not lead to the node")
        setattr(src, slot, target)
        target.refs += 1
        node.refs -= 1
        self._cleanup((node,))
        return target

    def remove_forced(self, node: TodNode, label: Label,
                      via: tuple) -> TodNode:
        """Bypass a node whose outcome is forced on the path of ``via``:
        move only that edge to the ``label`` target.  The node stays for
        its other incoming edges and is pruned once it has none."""
        if node.visited:
            raise TodStructureError("forced removal applies to unvisited nodes")
        if label not in _LABELS[node.kind]:
            raise TodStructureError(f"{node!r} has no {label!r} edge")
        return self._move_edge(node, via, getattr(node, _SLOT[label]))

    # -- order-specific transformations -----------------------------------------

    def _check_expandable(self, node: TodNode) -> None:
        if node.kind is not NodeKind.TERM:
            raise TodStructureError("only term comparisons expand")
        if node.visited:
            raise TodStructureError("expansion applies to unvisited nodes")
        if node.refs != 1:
            raise TodStructureError("expansion needs a single incoming edge")
        if node.lhs.sym is None or node.rhs.sym is None:
            raise TodStructureError("both comparison sides must be applications")

    def transform_kbo(self, node: TodNode) -> TodNode:
        """Expand a comparison of two applications by the KBO definition.

        The node becomes a positivity check on the weight difference.
        Its >= edge goes to the old > target when the head of s is
        above that of t, to the old !>= target when below, and for equal
        heads into a chain of argument comparisons along = edges.  The
        weight difference has no static sign: a positive one makes
        ``compare(s, t)`` GT and a negative one ``compare(t, s)``, so the
        node is decided statically or by the path ordering before it
        expands; nor do the path's sign facts force it GT or NGE
        (``Tod._forced``).  The walk hands the new check the weight
        verdict it computed for the comparison, in the same step.
        """
        self._check_expandable(node)
        s, t = node.lhs, node.rhs
        gt, eq, nge = node.gt, node.mid, node.nge
        ps, pt = s.sym.precedence, t.sym.precedence
        if ps != pt:
            geq = gt if ps > pt else nge
        else:
            geq = eq
            for a, b in zip(reversed(s.args), reversed(t.args)):
                geq = self._term(a, b, gt, geq, nge)
        node.kind = NodeKind.POS
        node.expr = self._weight_diff(s, t)
        node.lhs = node.rhs = None
        self.stats.nodes_created.pos += 1
        return self._rewire(node, gt, geq, nge)

    def transform_lpo(self, node: TodNode) -> TodNode:
        """Expand a comparison of two applications by the LPO definition.

        Two side conditions become chains of comparisons.  "s beats
        every argument of t" runs along > edges, and any other outcome
        fails.  "Some argument of s reaches t" runs along !>= edges, and
        the first > or = succeeds.  A higher head of s needs the first
        chain, a higher head of t the second.  Equal heads give a grid:
        the middle column compares the argument pairs left to right; a >
        there continues in the first chain over the remaining arguments
        of t (left column), a !>= in the second chain over the remaining
        arguments of s (right column).  The original node becomes the
        head of the expansion.  The side it descends into has arguments:
        with none, LPO decides the pair without a substitution, so the
        node is decided statically or by the path ordering before it
        expands.
        """
        self._check_expandable(node)
        s, t = node.lhs, node.rhs
        gt, eq, nge = node.gt, node.mid, node.nge
        ps, pt = s.sym.precedence, t.sym.precedence
        if not (t.args if ps > pt else s.args):
            raise TodStructureError("a constant side is decided statically")
        # left[i]: s beats each of t.args[i+1:]; right[i]: some of
        # s.args[i+1:] reaches t
        left, right = [gt], [nge]
        if ps >= pt:
            for b in reversed(t.args[1:]):
                left.insert(0, self._term(s, b, left[0], nge, nge))
        if ps <= pt:
            for a in reversed(s.args[1:]):
                right.insert(0, self._term(a, t, gt, gt, right[0]))
        if ps > pt:
            node.rhs = t.args[0]
            return self._rewire(node, left[0], nge, nge)
        if ps < pt:
            node.lhs = s.args[0]
            return self._rewire(node, gt, gt, right[0])
        mid = eq
        for i in range(len(s.args) - 1, 0, -1):
            mid = self._term(s.args[i], t.args[i], left[i], mid, right[i])
        node.lhs, node.rhs = s.args[0], t.args[0]
        return self._rewire(node, left[0], mid, right[0])

    # -- retrieval ---------------------------------------------------------------

    def retrieve(self, sigma: Substitution, first_only: bool = False,
                 results: Optional[list] = None) -> list:
        """The module's walk ``retrieve`` over this diagram alone."""
        return retrieve((self,), sigma, first_only, results)

    # -- introspection ------------------------------------------------------------

    def nodes(self) -> list:
        """All nodes reachable from the root, in a stable order."""
        seen = {self.root}
        order = [self.root]
        for n in order:     # breadth first: the list grows as it is read
            for m in (n.gt, n.mid, n.nge):      # Label order for every kind
                if m is not None and m not in seen:
                    seen.add(m)
                    order.append(m)
        return order

    def structure(self) -> list:
        """A canonical serialization for golden tests and determinism checks."""
        nodes = self.nodes()
        index = {n: i for i, n in enumerate(nodes)}
        out = []
        for n in nodes:
            edges = tuple(sorted((label.value, index[dst])
                                 for label, dst in n.out.items()))
            out.append((n.kind.value, n.label(), n.visited, edges))
        return out

    def validate(self) -> None:
        """Check the structural diagram invariants; raise on violation."""
        nodes = self.nodes()
        roots = [n for n in nodes if n.kind is NodeKind.ROOT]
        exits = [n for n in nodes if n.kind is NodeKind.EXIT]
        if roots != [self.root] or exits != [self.exit]:
            raise TodStructureError("diagram must have one root and one exit")
        targets = {n: [d for d in (n.gt, n.mid, n.nge) if d is not None]
                   for n in nodes}
        indeg = dict.fromkeys(nodes, 0)
        for n in nodes:
            for dst in targets[n]:
                indeg[dst] += 1
        for n in nodes:
            if n.refs != indeg[n]:
                raise TodStructureError(
                    f"{n!r} counts {n.refs} incoming edges, has {indeg[n]}")
        # Kahn's order: a node follows every node with an edge into it
        order = [n for n in nodes if not indeg[n]]
        for n in order:
            for dst in targets[n]:
                indeg[dst] -= 1
                if not indeg[dst]:
                    order.append(dst)
        if len(order) != len(nodes):
            raise TodStructureError("cycle detected")
        reaches_exit = {self.exit}
        for n in reversed(order):
            if any(dst in reaches_exit for dst in targets[n]):
                reaches_exit.add(n)
            elif n is not self.exit:
                raise TodStructureError(f"exit unreachable from {n!r}")
        for n in nodes:
            filled = tuple(dst is not None for dst in (n.gt, n.mid, n.nge))
            wants = tuple(label is not None for label in _LABELS[n.kind])
            if filled != wants:
                raise TodStructureError(
                    f"{n!r} fills slots {filled} (gt, mid, nge), wants {wants}")
            if n.visited and n.kind is not NodeKind.ROOT and n.refs != 1:
                raise TodStructureError(
                    f"visited {n!r} has {n.refs} incoming edges")
            for label, dst in zip(_LABELS[n.kind], (n.gt, n.mid, n.nge)):
                if dst is None or not dst.visited:
                    continue
                if not n.visited:
                    raise TodStructureError(
                        f"visited {dst!r} under unvisited {n!r}")
                # the one parent's chain itself, behind the parent's own
                # fact if it is a positivity check (() matches no chain)
                facts = dst.facts
                if n.kind is NodeKind.POS:
                    facts = (facts[2] if facts == (n.expr, label, n.facts)
                             else ())
                if facts is not n.facts:
                    raise TodStructureError(
                        f"{dst!r} carries sign facts {dst.facts!r}, its "
                        f"path {Tod._facts_at(n, label)!r}")
            if not n.visited and n.facts is not None:
                raise TodStructureError(f"unvisited {n!r} carries sign facts")


def retrieve(tods, sigma: Substitution, first_only: bool = False,
             results: Optional[list] = None) -> list:
    """Equality ids the diagrams ``tods`` order under ``sigma`` (appended
    to ``results`` if given), walking them one after another and
    specializing on the way.

    ``tods`` is a non-empty collection of diagrams over one order and
    one ``Stats``, as a group's diagrams are; both are read off the
    first.
    Traversed nodes and exits reached are counted in locals and added at
    the end (``answers`` gains one per id and one per exit).
    ``STEP_CAP`` holds per diagram, and ``first_only`` stops at the
    first success in any diagram.

    A visited positivity check on ``constant + sum c*v`` signs
    ``constant + sum c*least(v)`` in integer arithmetic, where
    ``least(v)`` is v's image's ``Term.least``, or w0 if sigma leaves v
    unbound.  Image weights have non-negative coefficients, so this is
    ``LinearExpr.sign``'s label unless some ``c < 0`` sits on an unbound
    variable or a non-ground image, which can cancel against another
    image; such a check calls ``sign``.
    ``PostOrderingIndex._check_each`` signs an equality's stored weight
    difference by the same rule, inline as here, and
    ``KboOrder.compare_closure`` signs its weight step so, at every
    level, when every variable of its right side has a ground image.

    Results appear in diagram order and, within a diagram, in
    success-node encounter order, which in a shared diagram is
    insertion order.
    """
    results = [] if results is None else results
    first = next(iter(tods))
    st = first.stats
    compare = first.order.compare_closure
    w0 = first.order.signature.w0
    m = sigma._m
    term = pos = success = exits = 0    # added to st once, at the end
    for tod in tods:
        prev = tod.root
        arrival = _NEXT
        node = prev.mid
        steps = 0
        while True:
            if node.tpo is not None:
                # visited: evaluate as evaluate_node does, without re-tests
                kind = node.kind
                if kind is _TERM:
                    term += 1
                    label = compare(node.lhs, sigma, node.rhs, sigma)
                elif kind is _POS:
                    pos += 1
                    expr = node.expr
                    total = expr.constant
                    for v, c in expr._coeffs:
                        img = m.get(v)
                        # a negative term on an unbound variable or a
                        # non-ground image can cancel against another image
                        if c < 0 and (img is None or not img.ground):
                            label = expr.sign(w0, sigma)
                            break
                        total += c * (w0 if img is None else img.least)
                    else:
                        if total > 0:
                            prev, arrival, node = node, _GT, node.gt
                        elif total:
                            prev, arrival, node = node, _NGE, node.nge
                        else:
                            prev, arrival, node = node, _GEQ, node.mid
                        continue
                else:
                    success += 1
                    results.append(node.eq.eq_id)
                    if first_only:
                        break
                    prev, arrival, node = node, _NEXT, node.mid
                    continue
                # EQ or GEQ is the mid slot
                prev, arrival, node = node, label, (
                    node.gt if label is _GT else
                    node.nge if label is _NGE else node.mid)
                continue
            kind = node.kind
            if kind is _EXIT:
                exits += 1
                break
            # unvisited: a rewrite step; once it sets tpo, the next turn
            # evaluates the node above
            steps += 1
            if steps > STEP_CAP:
                raise StepCapExceededError(f"retrieval exceeded {STEP_CAP} steps")
            via = (prev, arrival)
            tpo = tod._tpo_at(prev, arrival, node)
            facts = tod._facts_at(prev, arrival)
            forced = tod._forced(node, tpo, facts)
            if forced is None or kind is _TERM and forced is _GEQ:
                # visited or expanded: the walk needs its own copy
                if node.refs > 1:
                    node = tod.replicate_node(node, via)
                if (kind is not _TERM or node.lhs.sym is None
                        or node.rhs.sym is None):
                    forced = None       # a weight tie decides no comparison
                elif tod.order.kind != "kbo":
                    node = tod.transform_lpo(node)
                    continue
                else:
                    # the positivity check takes the comparison's weight
                    # verdict in this step: GEQ bypasses it, None visits
                    node = tod.transform_kbo(node)
                    kind = _POS
                    if forced is None:
                        tpo = tod._tpo_at(prev, arrival, node)
            if kind is _TERM:
                st.nodes_processed.term += 1
            elif kind is _POS:
                st.nodes_processed.pos += 1
            else:
                st.nodes_processed.success += 1
            if forced is not None:
                node = tod.remove_forced(node, forced, via)
                continue
            node.tpo = tpo
            node.facts = facts
        if kind is not _EXIT:
            break       # first_only stopped at a success
    traversed = st.nodes_traversed
    traversed.term += term
    traversed.pos += pos
    traversed.success += success
    st.answers += success + exits
    return results
