"""Term ordering diagrams: a lazily specialized index for ordering checks.

A diagram is a rooted dag of evaluation nodes (term comparisons and
positivity checks) and success nodes.  Retrieving with a query
substitution walks the diagram, and on the way rewrites the parts it
touches into cheaper equivalents: comparisons expand by the order's
definition, and a node whose outcome the path already determines is
bypassed by moving the edge the walk arrives by to its outcome.  A node
reached by several edges is split only before the walk visits or
expands it: the arriving edge gets a fresh copy, so every visited node
is reached by exactly one path.  Nodes count their incoming edges and
keep no list of them.  The diagram after a retrieval accepts the same
success sets as before, it is just faster to walk.  Once the path of a
substitution has settled, a walk along it rewrites nothing and only
evaluates the checks it passes.

Edges carry ``Label``s.  The answer of a check, evaluated or forced,
is the label of the edge the walk takes next, and the label a walk
arrives by is the fact its comparison adds to the path.

A diagram is mutated during retrieval, so all operations on one diagram
are single-threaded; distinct diagrams may be used concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .forcing import PartialOrdering, TpoStore, force_positivity_label, force_term_label
from .ordering import TermOrder
from .stats import Stats
from .terms import Label, LinearExpr, Substitution, Term, term_weight

STEP_CAP = 10 ** 6
"""Rewrite steps (arrivals at unvisited nodes) one retrieval may take."""


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
_TERM, _POS = NodeKind.TERM, NodeKind.POS

_TERM_LABELS = (_GT, _EQ, _NGE)
_POS_LABELS = (_GT, _GEQ, _NGE)


@dataclass
class Equality:
    """An indexed equality; the index mints its id."""

    eq_id: int
    lhs: Term
    rhs: Term


class TodNode:
    """A diagram node.  It is visited exactly when it has ``tpo``, the
    closure of its path formula, which the walk sets on the first visit."""

    __slots__ = ("kind", "lhs", "rhs", "expr", "eq", "tpo", "out", "refs")

    def __init__(self, kind: NodeKind, lhs: Optional[Term] = None,
                 rhs: Optional[Term] = None, expr: Optional[LinearExpr] = None,
                 eq: Optional[Equality] = None):
        self.kind = kind
        self.lhs = lhs
        self.rhs = rhs
        self.expr = expr
        self.eq = eq
        self.tpo: Optional[PartialOrdering] = None
        self.out: dict[Label, TodNode] = {}
        self.refs = 0       # incoming edges

    @property
    def visited(self) -> bool:
        return self.tpo is not None

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
        # with the diagram
        self.tpo_store = TpoStore(order)
        self.root = TodNode(NodeKind.ROOT)
        self.exit = TodNode(NodeKind.EXIT)
        self.root.tpo = self.tpo_store.empty
        self._link(self.root, _NEXT, self.exit)

    # -- construction helpers -------------------------------------------------

    def _link(self, src: TodNode, label: Label, dst: TodNode) -> None:
        src.out[label] = dst
        dst.refs += 1

    def _unlink_out(self, src: TodNode) -> list:
        """Remove all outgoing edges of ``src``; return the old targets."""
        old = list(src.out.values())
        for dst in old:
            dst.refs -= 1
        src.out = {}
        return old

    def _term(self, lhs: Term, rhs: Term, gt: TodNode, eq: TodNode,
              nge: TodNode) -> TodNode:
        """A new comparison node lhs vs rhs with its three edges."""
        c = TodNode(NodeKind.TERM, lhs=lhs, rhs=rhs)
        self.stats.nodes_created.term += 1
        self._link(c, _GT, gt)
        self._link(c, _EQ, eq)
        self._link(c, _NGE, nge)
        return c

    def _rewire(self, node: TodNode, edges: dict) -> TodNode:
        """Replace ``node``'s outgoing edges; prune what that orphans."""
        old_targets = self._unlink_out(node)
        for label, dst in edges.items():
            self._link(node, label, dst)
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
        rewiring cost does not depend on the diagram size.
        """
        cmp_node = self.exit
        cmp_node.kind = NodeKind.TERM
        cmp_node.lhs = eq.lhs
        cmp_node.rhs = eq.rhs
        succ = TodNode(NodeKind.SUCCESS, eq=eq)
        new_exit = TodNode(NodeKind.EXIT)
        self.exit = new_exit
        self._link(cmp_node, _GT, succ)
        self._link(cmp_node, _EQ, new_exit)
        self._link(cmp_node, _NGE, new_exit)
        self._link(succ, _NEXT, new_exit)
        self.stats.nodes_created.term += 1
        self.stats.nodes_created.success += 1

    # -- evaluation ------------------------------------------------------------

    def evaluate_node(self, node: TodNode, sigma: Substitution) -> Label:
        """The edge a substitution takes out of an evaluation node.

        This is the definition of a node's label; ``retrieve`` inlines
        the same two cases for the visited nodes it walks.
        """
        if node.kind is NodeKind.TERM:
            return self.order.compare_closure(node.lhs, sigma, node.rhs, sigma)
        if node.kind is NodeKind.POS:
            return node.expr.sign(self.order.signature.w0, sigma)
        raise TodStructureError(f"{node!r} is not an evaluation node")

    def _tpo_at(self, prev: TodNode, arrival: Label,
                node: TodNode) -> PartialOrdering:
        """Closure of the path formula for the path arriving at ``node``."""
        facts = (((prev.lhs, arrival, prev.rhs),)
                 if prev.kind is NodeKind.TERM else ())
        new_terms = (node.lhs, node.rhs) if node.kind is NodeKind.TERM else ()
        return self.tpo_store.extend(prev.tpo, facts, new_terms)

    def _forced(self, node: TodNode, tpo: PartialOrdering) -> Optional[Label]:
        if node.kind is NodeKind.TERM:
            return force_term_label(tpo, node.lhs, node.rhs)
        return force_positivity_label(node.expr, self.order.signature.w0)

    # -- generic transformations ----------------------------------------------

    @staticmethod
    def _check_via(node: TodNode, via: tuple) -> None:
        src, label = via
        if src.out.get(label) is not node:
            raise TodStructureError("traversal edge does not lead to the node")

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
        for label, dst in node.out.items():
            self._link(copy, label, dst)
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
        self._check_via(node, via)
        self._link(*via, target)
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
        if label not in node.out:
            raise TodStructureError(f"node has no {label!r} edge")
        return self._move_edge(node, via, node.out[label])

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
        check stays even when its sign is statically known: forcing
        removes it on the same visit.
        """
        self._check_expandable(node)
        s, t = node.lhs, node.rhs
        gt, eq, nge = node.out[_GT], node.out[_EQ], node.out[_NGE]
        ps, pt = s.sym.precedence, t.sym.precedence
        if ps != pt:
            geq = gt if ps > pt else nge
        else:
            geq = eq
            for a, b in zip(reversed(s.args), reversed(t.args)):
                geq = self._term(a, b, gt, geq, nge)
        node.kind = NodeKind.POS
        node.expr = term_weight(s) - term_weight(t)
        node.lhs = node.rhs = None
        self.stats.nodes_created.pos += 1
        return self._rewire(node, {_GT: gt, _GEQ: geq, _NGE: nge})

    def transform_lpo(self, node: TodNode, via: tuple) -> TodNode:
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
        head of the expansion, or, with no arguments to compare, its
        incoming edge ``via`` goes to its old >, !>= or = target
        respectively.
        """
        self._check_expandable(node)
        s, t = node.lhs, node.rhs
        gt, eq, nge = node.out[_GT], node.out[_EQ], node.out[_NGE]
        ps, pt = s.sym.precedence, t.sym.precedence
        if ps > pt and not t.args:
            return self._move_edge(node, via, gt)
        if ps <= pt and not s.args:
            return self._move_edge(node, via, nge if ps < pt else eq)
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
            return self._rewire(node, {_GT: left[0], _EQ: nge, _NGE: nge})
        if ps < pt:
            node.lhs = s.args[0]
            return self._rewire(node, {_GT: gt, _EQ: gt, _NGE: right[0]})
        mid = eq
        for i in range(len(s.args) - 1, 0, -1):
            mid = self._term(s.args[i], t.args[i], left[i], mid, right[i])
        node.lhs, node.rhs = s.args[0], t.args[0]
        return self._rewire(node, {_GT: left[0], _EQ: mid, _NGE: right[0]})

    def _transform(self, node: TodNode, via: tuple) -> TodNode:
        if self.order.kind == "kbo":
            return self.transform_kbo(node)
        return self.transform_lpo(node, via)

    # -- retrieval ---------------------------------------------------------------

    def retrieve(self, sigma: Substitution, first_only: bool = False,
                 results: Optional[list] = None) -> list:
        """Equality ids ordered under ``sigma`` (appended to ``results``
        if given), specializing on the way.

        Results appear in success-node encounter order, which in a shared
        diagram is insertion order.
        """
        st = self.stats
        compare = self.order.compare_closure
        w0 = self.order.signature.w0
        results = [] if results is None else results
        prev = self.root
        arrival = _NEXT
        node = self.root.out[_NEXT]
        term = pos = success = 0    # nodes traversed, added to st on exit
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
                    label = node.expr.sign(w0, sigma)
                else:
                    success += 1
                    label = _NEXT
                    results.append(node.eq.eq_id)
                    if first_only:
                        break
                prev, arrival, node = node, label, node.out[label]
                continue
            kind = node.kind
            if kind is NodeKind.EXIT:
                st.answers += 1
                break
            # unvisited: a rewrite step; once it sets tpo, the next turn
            # evaluates the node above
            steps += 1
            if steps > STEP_CAP:
                raise StepCapExceededError(f"retrieval exceeded {STEP_CAP} steps")
            via = (prev, arrival)
            if kind is NodeKind.SUCCESS:
                if node.refs > 1:
                    node = self.replicate_node(node, via)
                node.tpo = self._tpo_at(prev, arrival, node)
                st.nodes_processed.success += 1
                continue
            tpo = self._tpo_at(prev, arrival, node)
            forced = self._forced(node, tpo)
            if forced is None:
                # visited or expanded: the walk needs its own copy
                if node.refs > 1:
                    node = self.replicate_node(node, via)
                if (kind is _TERM and node.lhs.sym is not None
                        and node.rhs.sym is not None):
                    node = self._transform(node, via)
                    continue
            if kind is _TERM:
                st.nodes_processed.term += 1
            else:
                st.nodes_processed.pos += 1
            if forced is not None:
                node = self.remove_forced(node, forced, via)
                continue
            node.tpo = tpo
        traversed = st.nodes_traversed
        traversed.term += term
        traversed.pos += pos
        traversed.success += success
        st.answers += success       # one id appended per success node
        return results

    # -- introspection ------------------------------------------------------------

    def nodes(self) -> list:
        """All nodes reachable from the root, in a stable order."""
        seen = {self.root}
        order = [self.root]
        for n in order:     # breadth first: the list grows as it is read
            for label in Label:
                m = n.out.get(label)
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
        expected = {
            NodeKind.ROOT: {_NEXT},
            NodeKind.SUCCESS: {_NEXT},
            NodeKind.TERM: set(_TERM_LABELS),
            NodeKind.POS: set(_POS_LABELS),
            NodeKind.EXIT: set(),
        }
        roots = [n for n in nodes if n.kind is NodeKind.ROOT]
        exits = [n for n in nodes if n.kind is NodeKind.EXIT]
        if roots != [self.root] or exits != [self.exit]:
            raise TodStructureError("diagram must have one root and one exit")
        indeg = dict.fromkeys(nodes, 0)
        for n in nodes:
            for dst in n.out.values():
                indeg[dst] += 1
        for n in nodes:
            if n.refs != indeg[n]:
                raise TodStructureError(
                    f"{n!r} counts {n.refs} incoming edges, has {indeg[n]}")
        # Kahn's order: a node follows every node with an edge into it
        order = [n for n in nodes if not indeg[n]]
        for n in order:
            for dst in n.out.values():
                indeg[dst] -= 1
                if not indeg[dst]:
                    order.append(dst)
        if len(order) != len(nodes):
            raise TodStructureError("cycle detected")
        reaches_exit = {self.exit}
        for n in reversed(order):
            if any(dst in reaches_exit for dst in n.out.values()):
                reaches_exit.add(n)
            elif n is not self.exit:
                raise TodStructureError(f"exit unreachable from {n!r}")
        for n in nodes:
            if set(n.out) != expected[n.kind]:
                raise TodStructureError(
                    f"{n!r} has edges {set(n.out)}, wants {expected[n.kind]}")
            if n.visited and n.kind is not NodeKind.ROOT and n.refs != 1:
                raise TodStructureError(
                    f"visited {n!r} has {n.refs} incoming edges")
            for dst in n.out.values():
                if dst.visited and not n.visited:
                    raise TodStructureError(
                        f"visited {dst!r} under unvisited {n!r}")
