import random

import pytest

from helpers import PROMOTE_SETTINGS, ScenarioChecker, run_scenario
import todx.tod
from todx import index as index_module
from todx import (Equality, Label, LinearExpr, NodeKind, Signature,
                  StepCapExceededError, Substitution, Tod, TodStructureError,
                  make_order)

GT, EQ, GEQ, NGE, NEXT = (Label.GT, Label.EQ, Label.GEQ,
                          Label.NGE, Label.NEXT)


def swap_terms(sig):
    x, y = sig.var(0), sig.var(1)
    return (sig.app("f", [x, y]), sig.app("f", [y, x]), sig.app("f", [x, x]))


def subst(sig, x_img, y_img):
    return Substitution({0: x_img, 1: y_img})


@pytest.fixture
def kbo_tod(sig):
    return Tod(make_order("kbo", sig))


# -- insertion -----------------------------------------------------------------


def test_insert_into_empty(sig, kbo_tod):
    l, r1, _ = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    kbo_tod.validate()
    node = kbo_tod.root.out[NEXT]
    assert node.kind is NodeKind.TERM
    assert node.lhs is l and node.rhs is r1
    succ = node.out[GT]
    assert succ.kind is NodeKind.SUCCESS and succ.eq.eq_id == 1
    assert node.out[EQ] is kbo_tod.exit
    assert node.out[NGE] is kbo_tod.exit
    assert succ.out[NEXT] is kbo_tod.exit


def test_second_insert_lands_on_exit_frontier(sig, kbo_tod):
    l, r1, r2 = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    first = kbo_tod.root.out[NEXT]
    kbo_tod.insert(Equality(2, l, r2))
    kbo_tod.validate()
    second = first.out[EQ]
    assert second.kind is NodeKind.TERM and second.rhs is r2
    assert first.out[NGE] is second
    assert first.out[GT].out[NEXT] is second
    assert second.out[GT].eq.eq_id == 2


def test_insert_is_constant_time_in_tod_size(sig, kbo_tod):
    # rewiring touches only the exit frontier: the old exit object is
    # reused as the new comparison node
    l, r1, r2 = swap_terms(sig)
    old_exit = kbo_tod.exit
    kbo_tod.insert(Equality(1, l, r1))
    assert kbo_tod.root.out[NEXT] is old_exit
    assert old_exit.kind is NodeKind.TERM


def test_preordered_equality_simplifies_on_first_retrieval(sig, kbo_tod):
    # f(x,x) beats x statically, so the comparison node is forced away
    x = sig.var(0)
    kbo_tod.insert(Equality(1, sig.app("f", [x, x]), x))
    assert kbo_tod.retrieve(Substitution({0: sig.app("a")})) == [1]
    kbo_tod.validate()
    node = kbo_tod.root.out[NEXT]
    assert node.kind is NodeKind.SUCCESS


# -- lazy deletion ---------------------------------------------------------------


def test_retrieve_from_empty_tod(sig, kbo_tod):
    assert kbo_tod.retrieve(Substitution({0: sig.app("a")})) == []
    kbo_tod.validate()


def test_delete_filters_results(sig, kbo_tod):
    l, r1, _ = swap_terms(sig)
    eq = Equality(1, l, r1)
    kbo_tod.insert(eq)
    sigma = subst(sig, sig.app("f", [sig.app("a"), sig.app("a")]), sig.app("a"))
    assert kbo_tod.retrieve(sigma) == [1]
    kbo_tod.mark_deleted(eq)
    assert kbo_tod.retrieve(sigma) == []
    kbo_tod.mark_deleted(eq)  # idempotent
    assert kbo_tod.retrieve(sigma) == []


def test_delete_then_reinsert_fresh_id(sig, kbo_tod):
    l, r1, _ = swap_terms(sig)
    eq = Equality(1, l, r1)
    kbo_tod.insert(eq)
    kbo_tod.mark_deleted(eq)
    kbo_tod.insert(Equality(2, l, r1))
    sigma = subst(sig, sig.app("f", [sig.app("a"), sig.app("a")]), sig.app("a"))
    assert kbo_tod.retrieve(sigma) == [2]
    kbo_tod.validate()


# -- node evaluation ---------------------------------------------------------------


def test_evaluate_term_node(sig, kbo_tod):
    from todx.tod import TodNode
    x, y = sig.var(0), sig.var(1)
    node = TodNode(NodeKind.TERM, lhs=x, rhs=y)
    a = sig.app("a")
    assert kbo_tod.evaluate_node(node, subst(sig, a, a)) is EQ
    faa = sig.app("f", [a, a])
    assert kbo_tod.evaluate_node(node, subst(sig, faa, a)) is GT
    assert kbo_tod.evaluate_node(node, subst(sig, a, faa)) is NGE


def test_evaluate_positivity_node(sig, kbo_tod):
    from todx.tod import TodNode
    node = TodNode(NodeKind.POS, expr=LinearExpr(0, {1: 1, 0: -1}))
    a = sig.app("a")
    faa = sig.app("f", [a, a])
    assert kbo_tod.evaluate_node(node, subst(sig, a, faa)) is GT   # value 2
    assert kbo_tod.evaluate_node(node, subst(sig, a, a)) is GEQ
    assert kbo_tod.evaluate_node(node, subst(sig, faa, a)) is NGE


def test_evaluate_rejects_non_evaluation_nodes(sig, kbo_tod):
    with pytest.raises(TodStructureError):
        kbo_tod.evaluate_node(kbo_tod.root, Substitution())


# -- the swap-equality traces -----------------------------------------------------


def test_first_retrieval_specializes_to_argument_comparison(sig, kbo_tod):
    # after any first retrieval the weight check is gone and the root
    # successor compares the arguments directly
    l, r1, _ = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    a = sig.app("a")
    assert kbo_tod.retrieve(subst(sig, sig.app("f", [a, a]), a)) == [1]
    kbo_tod.validate()
    node = kbo_tod.root.out[NEXT]
    assert node.kind is NodeKind.TERM
    assert node.lhs is sig.var(0) and node.rhs is sig.var(1)


def test_equal_images_trace(sig, kbo_tod):
    # query with x and y mapped alike: nothing retrieved, and the diagram
    # keeps a visited x-vs-y comparison whose = edge goes straight to exit
    l, r1, _ = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    a = sig.app("a")
    assert kbo_tod.retrieve(subst(sig, a, a)) == []
    kbo_tod.validate()
    node = kbo_tod.root.out[NEXT]
    assert node.kind is NodeKind.TERM
    assert node.lhs is sig.var(0) and node.rhs is sig.var(1)
    assert node.visited
    assert node.out[EQ] is kbo_tod.exit
    assert node.out[GT].kind is NodeKind.SUCCESS
    assert node.out[NGE] is kbo_tod.exit


def test_insert_after_specialization_trace(sig, kbo_tod):
    # continue from the equal-images trace: add the second equality and
    # query with x above y; only the swap equality comes back and the
    # second comparison is specialized to its weight check
    l, r1, r2 = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    a = sig.app("a")
    assert kbo_tod.retrieve(subst(sig, a, a)) == []
    kbo_tod.insert(Equality(2, l, r2))
    faa = sig.app("f", [a, a])
    assert kbo_tod.retrieve(subst(sig, faa, a)) == [1]
    kbo_tod.validate()
    pos_nodes = [n for n in kbo_tod.nodes()
                 if n.kind is NodeKind.POS and n.visited]
    assert len(pos_nodes) == 1
    assert pos_nodes[0].expr == LinearExpr(0, {1: 1, 0: -1})


def test_positivity_then_argument_structure(sig):
    # the f(x,y) vs f(x,x) diagram after one balanced-weight retrieval:
    # a y-x positivity check whose >= edge leads to the y-vs-x comparison
    tod = Tod(make_order("kbo", sig))
    l, _, r2 = swap_terms(sig)
    tod.insert(Equality(1, l, r2))
    assert tod.retrieve(subst(sig, sig.app("a"), sig.app("b"))) == [1]
    tod.validate()
    node = tod.root.out[NEXT]
    assert node.kind is NodeKind.POS
    assert node.expr == LinearExpr(0, {1: 1, 0: -1})
    chain = node.out[GEQ]
    assert chain.kind is NodeKind.TERM
    assert chain.lhs is sig.var(1) and chain.rhs is sig.var(0)
    assert node.out[GT].kind is NodeKind.SUCCESS
    assert chain.out[GT].kind is NodeKind.SUCCESS
    assert chain.out[GT].eq is node.out[GT].eq


def test_shared_diagram_first_mode(sig, kbo_tod):
    l, r1, r2 = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    kbo_tod.insert(Equality(2, l, r2))
    a = sig.app("a")
    sigma = subst(sig, sig.app("f", [a, a]), a)
    assert kbo_tod.retrieve(sigma) == [1]
    assert kbo_tod.retrieve(sigma, first_only=True) == [1]


# -- KBO expansion -----------------------------------------------------------------


def test_transform_kbo_equal_heads_chain(sig, kbo_tod):
    l, r1, _ = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    node = kbo_tod.root.out[NEXT]
    succ = node.out[GT]
    out = kbo_tod.transform_kbo(node)
    kbo_tod.validate()
    assert out is node and node.kind is NodeKind.POS
    assert node.expr == LinearExpr.of_const(0)
    c1 = node.out[GEQ]
    assert (c1.lhs, c1.rhs) == (sig.var(0), sig.var(1))
    c2 = c1.out[EQ]
    assert (c2.lhs, c2.rhs) == (sig.var(1), sig.var(0))
    for c in (c1, c2):
        assert c.out[GT] is succ
        assert c.out[NGE] is kbo_tod.exit
    assert c2.out[EQ] is kbo_tod.exit
    assert node.out[GT] is succ and node.out[NGE] is kbo_tod.exit


def h3_rotation(kind):
    """A diagram with one h(x,y,z) vs h(y,z,x) comparison, unexpanded."""
    sig = Signature([("a", 0, 1, 0), ("b", 0, 1, 1), ("h", 3, 1, 2)])
    x, y, z = sig.var(0), sig.var(1), sig.var(2)
    tod = Tod(make_order(kind, sig))
    tod.insert(Equality(1, sig.app("h", [x, y, z]), sig.app("h", [y, z, x])))
    return tod, (x, y, z)


def test_transform_kbo_three_argument_chain():
    tod, (x, y, z) = h3_rotation("kbo")
    node = tod.root.out[NEXT]
    succ = node.out[GT]
    created = tod.stats.nodes_created.total
    out = tod.transform_kbo(node)
    tod.validate()
    assert out is node and node.kind is NodeKind.POS and node.expr.is_zero
    assert tod.stats.nodes_created.total - created == 4  # the check, 3 links
    c1 = node.out[GEQ]
    c2 = c1.out[EQ]
    c3 = c2.out[EQ]
    assert [(c.lhs, c.rhs) for c in (c1, c2, c3)] == [(x, y), (y, z), (z, x)]
    for c in (c1, c2, c3):
        assert c.out[GT] is succ and c.out[NGE] is tod.exit
    assert c3.out[EQ] is tod.exit


def test_transform_kbo_unequal_rhs_chain(sig, kbo_tod):
    l, _, r2 = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r2))
    node = kbo_tod.root.out[NEXT]
    kbo_tod.transform_kbo(node)
    kbo_tod.validate()
    assert node.expr == LinearExpr(0, {1: 1, 0: -1})
    c1 = node.out[GEQ]
    assert (c1.lhs, c1.rhs) == (sig.var(0), sig.var(0))
    c2 = c1.out[EQ]
    assert (c2.lhs, c2.rhs) == (sig.var(1), sig.var(0))


def test_transform_kbo_precedence_case_routes_geq_up():
    # a above b with equal weights: the zero check's >= edge goes to the
    # old > target, making the node forced-greater from then on
    sig = Signature([("b", 0, 1, 0), ("a", 0, 1, 1), ("f", 2, 1, 2)])
    tod = Tod(make_order("kbo", sig))
    tod.insert(Equality(1, sig.app("a"), sig.app("b")))
    node = tod.root.out[NEXT]
    succ = node.out[GT]
    tod.transform_kbo(node)
    tod.validate()
    assert node.kind is NodeKind.POS and node.expr.is_zero
    assert node.out[GT] is succ and node.out[GEQ] is succ
    assert node.out[NGE] is tod.exit


def test_transform_kbo_reverse_precedence_routes_geq_down():
    sig = Signature([("a", 0, 1, 0), ("b", 0, 1, 1), ("f", 2, 1, 2)])
    tod = Tod(make_order("kbo", sig))
    tod.insert(Equality(1, sig.app("a"), sig.app("b")))
    node = tod.root.out[NEXT]
    tod.transform_kbo(node)
    tod.validate()
    assert node.out[GEQ] is tod.exit and node.out[NGE] is tod.exit
    assert node.out[GT].kind is NodeKind.SUCCESS


def test_transform_preconditions(sig, kbo_tod):
    l, r1, _ = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    node = kbo_tod.root.out[NEXT]
    node.tpo = kbo_tod.tpo_store.empty      # visited
    with pytest.raises(TodStructureError):
        kbo_tod.transform_kbo(node)
    node.tpo = None
    kbo_tod.insert(Equality(2, l, sig.var(0)))
    var_node = node.out[EQ]
    assert var_node.rhs is sig.var(0)
    with pytest.raises(TodStructureError):
        kbo_tod.transform_kbo(var_node)  # variable side never expands


# -- LPO expansion ------------------------------------------------------------------


def test_transform_lpo_higher_head_chain(sig):
    lpo = make_order("lpo", sig)
    tod = Tod(lpo)
    x, y = sig.var(0), sig.var(1)
    l = sig.app("f", [x, y])
    r = sig.app("g", [x])
    # f is above g: retrieval would force this statically, so build the
    # expansion directly
    tod.insert(Equality(1, l, r))
    node = tod.root.out[NEXT]
    succ = node.out[GT]
    out = tod.transform_lpo(node, (tod.root, NEXT))
    tod.validate()
    assert out is node
    assert (node.lhs, node.rhs) == (l, x)
    assert node.out[GT] is succ
    assert node.out[EQ] is tod.exit and node.out[NGE] is tod.exit


def test_transform_lpo_higher_head_no_args(sig):
    lpo = make_order("lpo", sig)
    tod = Tod(lpo)
    l = sig.app("f", [sig.var(0), sig.var(1)])
    tod.insert(Equality(1, l, sig.app("a")))
    node = tod.root.out[NEXT]
    succ = node.out[GT]
    out = tod.transform_lpo(node, (tod.root, NEXT))
    tod.validate()
    assert out is succ
    assert tod.root.out[NEXT] is succ


def test_transform_lpo_higher_head_two_arg_chain(sig_gf):
    # g above f: g(x) vs f(a,b) expands into a chain over both arguments
    lpo = make_order("lpo", sig_gf)
    tod = Tod(lpo)
    x = sig_gf.var(0)
    l = sig_gf.app("g", [x])
    r = sig_gf.app("f", [sig_gf.app("a"), sig_gf.app("b")])
    tod.insert(Equality(1, l, r))
    node = tod.root.out[NEXT]
    succ = node.out[GT]
    tod.transform_lpo(node, (tod.root, NEXT))
    tod.validate()
    assert (node.lhs, node.rhs) == (l, sig_gf.app("a"))
    nxt = node.out[GT]
    assert (nxt.lhs, nxt.rhs) == (l, sig_gf.app("b"))
    assert nxt.out[GT] is succ
    for c in (node, nxt):
        assert c.out[EQ] is tod.exit and c.out[NGE] is tod.exit


def test_transform_lpo_lower_head_chain(sig_gf):
    lpo = make_order("lpo", sig_gf)
    tod = Tod(lpo)
    x, y = sig_gf.var(0), sig_gf.var(1)
    l = sig_gf.app("f", [x, y])
    r = sig_gf.app("g", [x])
    tod.insert(Equality(1, l, r))
    node = tod.root.out[NEXT]
    succ = node.out[GT]
    out = tod.transform_lpo(node, (tod.root, NEXT))
    tod.validate()
    assert out is node
    assert (node.lhs, node.rhs) == (x, r)
    nxt = node.out[NGE]
    assert (nxt.lhs, nxt.rhs) == (y, r)
    for c in (node, nxt):
        assert c.out[GT] is succ and c.out[EQ] is succ
    assert nxt.out[NGE] is tod.exit


def test_transform_lpo_constant_below_application(sig):
    # constant lhs, higher rhs head: the node collapses to its !>= target
    lpo = make_order("lpo", sig)
    tod = Tod(lpo)
    r = sig.app("f", [sig.var(0), sig.var(1)])
    tod.insert(Equality(1, sig.app("a"), r))
    node = tod.root.out[NEXT]
    out = tod.transform_lpo(node, (tod.root, NEXT))
    tod.validate()
    assert out is tod.exit
    assert tod.root.out[NEXT] is tod.exit
    assert all(n.kind is not NodeKind.SUCCESS for n in tod.nodes())


def test_transform_lpo_equal_heads_grid(sig):
    lpo = make_order("lpo", sig)
    tod = Tod(lpo)
    l, r1, _ = swap_terms(sig)
    tod.insert(Equality(1, l, r1))
    node = tod.root.out[NEXT]
    succ, ex = node.out[GT], tod.exit
    out = tod.transform_lpo(node, (tod.root, NEXT))
    tod.validate()
    x, y = sig.var(0), sig.var(1)
    assert out is node and (node.lhs, node.rhs) == (x, y)
    left = node.out[GT]
    mid = node.out[EQ]
    right = node.out[NGE]
    assert (left.lhs, left.rhs) == (l, x)
    assert left.out[GT] is succ and left.out[EQ] is ex and left.out[NGE] is ex
    assert (mid.lhs, mid.rhs) == (y, x)
    assert mid.out[GT] is succ and mid.out[EQ] is ex and mid.out[NGE] is ex
    assert (right.lhs, right.rhs) == (y, r1)
    assert right.out[GT] is succ and right.out[EQ] is succ and right.out[NGE] is ex


def test_transform_lpo_three_argument_grid():
    tod, (x, y, z) = h3_rotation("lpo")
    node = tod.root.out[NEXT]
    s, t = node.lhs, node.rhs
    succ, ex = node.out[GT], tod.exit
    created = tod.stats.nodes_created.term
    out = tod.transform_lpo(node, (tod.root, NEXT))
    tod.validate()
    assert out is node and (node.lhs, node.rhs) == (x, y)
    assert tod.stats.nodes_created.term - created == 6  # two levels of 3
    left1, mid1, right1 = node.out[GT], node.out[EQ], node.out[NGE]
    left2, mid2, right2 = mid1.out[GT], mid1.out[EQ], mid1.out[NGE]
    # level 1 compares the second arguments
    assert (left1.lhs, left1.rhs) == (s, z)
    assert (mid1.lhs, mid1.rhs) == (y, z)
    assert (right1.lhs, right1.rhs) == (y, t)
    # each column continues into level 2 along its > or !>= edge, and
    # the middle column's > and !>= join the side columns there
    assert left1.out[GT] is left2 and right1.out[NGE] is right2
    assert (left2.lhs, left2.rhs) == (s, x)
    assert (mid2.lhs, mid2.rhs) == (z, x)
    assert (right2.lhs, right2.rhs) == (z, t)
    for left in (left1, left2):
        assert left.out[EQ] is ex and left.out[NGE] is ex
    for right in (right1, right2):
        assert right.out[GT] is succ and right.out[EQ] is succ
    assert left2.out[GT] is succ and right2.out[NGE] is ex
    assert mid2.out[GT] is succ and mid2.out[EQ] is ex and mid2.out[NGE] is ex


def test_transform_lpo_equal_constants_collapse(sig):
    lpo = make_order("lpo", sig)
    tod = Tod(lpo)
    a = sig.app("a")
    tod.insert(Equality(1, a, a))
    node = tod.root.out[NEXT]
    out = tod.transform_lpo(node, (tod.root, NEXT))
    tod.validate()
    assert out is tod.exit  # the = target of the original node


# -- generic transformations ---------------------------------------------------------


def test_replicate_node(sig, kbo_tod):
    l, r1, r2 = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    kbo_tod.insert(Equality(2, l, r2))
    first = kbo_tod.root.out[NEXT]
    second = first.out[EQ]
    succ = first.out[GT]
    assert second.refs == 3

    def paths(tod):
        acc = []

        def walk(n, trail):
            if n.kind is NodeKind.EXIT:
                acc.append(tuple(trail))
                return
            for label in Label:
                dst = n.out.get(label)
                if dst is not None:
                    walk(dst, trail + [(n.label(), label.value)])

        walk(tod.root, [])
        return sorted(acc)

    before = paths(kbo_tod)
    copy = kbo_tod.replicate_node(second, (first, EQ))
    kbo_tod.validate()
    # the traversal edge now leads to the copy, its only incoming edge;
    # the original keeps the other two
    assert copy is not second
    assert first.out[EQ] is copy and copy.refs == 1
    assert first.out[NGE] is second and succ.out[NEXT] is second
    assert second.refs == 2
    # shallow copy: same outgoing targets, same label
    assert copy.out == second.out
    assert copy.label() == second.label()
    assert paths(kbo_tod) == before


def test_replicate_preconditions(sig, kbo_tod):
    l, r1, r2 = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    kbo_tod.insert(Equality(2, l, r2))
    node = kbo_tod.root.out[NEXT]
    with pytest.raises(TodStructureError):
        kbo_tod.replicate_node(node, (kbo_tod.root, NEXT))
    with pytest.raises(TodStructureError):
        kbo_tod.replicate_node(kbo_tod.exit, (node.out[EQ], EQ))
    with pytest.raises(TodStructureError, match="traversal edge"):
        kbo_tod.replicate_node(node.out[EQ], (node, GT))


def test_remove_forced_cascades_success(sig):
    # a below b: the comparison is statically hopeless, and bypassing it
    # must also drop the success node it guarded
    tod = Tod(make_order("kbo", sig))
    tod.insert(Equality(1, sig.app("a"), sig.app("b")))
    assert tod.retrieve(Substitution()) == []
    tod.validate()
    assert tod.root.out[NEXT] is tod.exit
    assert len(tod.nodes()) == 2


def test_remove_forced_direct(sig, kbo_tod):
    l, r1, _ = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    node = kbo_tod.root.out[NEXT]
    succ = node.out[GT]
    target = kbo_tod.remove_forced(node, GT, (kbo_tod.root, NEXT))
    kbo_tod.validate()
    assert target is succ
    assert kbo_tod.root.out[NEXT] is succ


def test_remove_forced_moves_only_via(sig, kbo_tod):
    l, r1, r2 = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    kbo_tod.insert(Equality(2, l, r2))
    first = kbo_tod.root.out[NEXT]
    second = first.out[EQ]
    # the success node's edge gets a copy; first's = and !>= edges stay
    kbo_tod.replicate_node(second, (first.out[GT], NEXT))
    assert first.out[NGE] is second and second.refs == 2
    out = dict(second.out)
    target = kbo_tod.remove_forced(second, GT, (first, EQ))
    assert target is out[GT] and first.out[EQ] is target
    assert first.out[NGE] is second and second.refs == 1
    assert second.out == out
    kbo_tod.validate()


def test_remove_forced_preconditions(sig, kbo_tod):
    l, r1, _ = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    first = kbo_tod.root.out[NEXT]
    with pytest.raises(TodStructureError, match="traversal edge"):
        kbo_tod.remove_forced(first, EQ, (kbo_tod.root, GT))
    first.tpo = kbo_tod.tpo_store.empty     # visited
    with pytest.raises(TodStructureError):
        kbo_tod.remove_forced(first, EQ, (kbo_tod.root, NEXT))


# -- validation ------------------------------------------------------------------------


def relink(src, label, dst):
    """Redirect one edge, keeping every incoming-edge count right."""
    src.out[label].refs -= 1
    src.out[label] = dst
    dst.refs += 1


@pytest.fixture
def one_eq(sig, kbo_tod):
    """root -> cmp -(>)-> succ -> exit, cmp -(=, !>=)-> exit."""
    l, r1, _ = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    kbo_tod.validate()
    cmp = kbo_tod.root.out[NEXT]
    return kbo_tod, cmp, cmp.out[GT]


def test_validate_rejects_wrong_refs(one_eq):
    tod, cmp, _ = one_eq
    cmp.refs += 1
    with pytest.raises(TodStructureError, match="incoming edges, has"):
        tod.validate()


def test_validate_rejects_cycle(one_eq):
    tod, cmp, succ = one_eq
    relink(succ, NEXT, cmp)
    with pytest.raises(TodStructureError, match="cycle"):
        tod.validate()


def test_validate_rejects_second_edge_into_visited(one_eq):
    tod, cmp, succ = one_eq
    cmp.tpo = succ.tpo = tod.tpo_store.empty       # visited
    tod.validate()
    relink(cmp, EQ, succ)
    with pytest.raises(TodStructureError, match="visited .* has 2 incoming"):
        tod.validate()


def test_validate_rejects_visited_under_unvisited(one_eq):
    tod, _, succ = one_eq
    succ.tpo = tod.tpo_store.empty      # visited
    with pytest.raises(TodStructureError, match="under unvisited"):
        tod.validate()


def test_validate_rejects_node_that_cannot_reach_exit(one_eq):
    tod, _, succ = one_eq
    succ.out.pop(NEXT).refs -= 1
    with pytest.raises(TodStructureError, match="exit unreachable"):
        tod.validate()


# -- randomized equivalence, determinism, laziness -------------------------------------


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_random_scenarios_match_oracle(kind):
    for seed in range(300):
        run_scenario(seed, kind, ops=12)


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_fuzz_structural_invariants(kind, monkeypatch):
    for promote_after in PROMOTE_SETTINGS:
        monkeypatch.setattr(index_module, "PROMOTE_AFTER", promote_after)
        for seed in range(60):
            run_scenario(10_000 + seed, kind, ops=10, validate=True)


def test_determinism(sig):
    def build():
        tod = Tod(make_order("kbo", sig))
        l, r1, r2 = swap_terms(sig)
        eq = Equality(1, l, r1)
        tod.insert(eq)
        a, b = sig.app("a"), sig.app("b")
        tod.retrieve(subst(sig, a, a))
        tod.insert(Equality(2, l, r2))
        tod.retrieve(subst(sig, sig.app("f", [a, a]), a))
        tod.retrieve(subst(sig, a, b))
        tod.mark_deleted(eq)
        tod.retrieve(subst(sig, b, a))
        return tod

    t1, t2 = build(), build()
    assert t1.structure() == t2.structure()
    assert t1.stats == t2.stats


def test_second_identical_query_is_pure_traversal(sig, kbo_tod):
    l, r1, r2 = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    kbo_tod.insert(Equality(2, l, r2))
    a = sig.app("a")
    sigma = subst(sig, sig.app("f", [a, a]), a)
    first = kbo_tod.retrieve(sigma)
    processed = kbo_tod.stats.nodes_processed.total
    structure = kbo_tod.structure()
    assert kbo_tod.retrieve(sigma) == first
    assert kbo_tod.stats.nodes_processed.total == processed
    assert kbo_tod.structure() == structure


def test_processed_never_exceeds_created(sig):
    rng = random.Random(99)
    for seed in range(40):
        checker = ScenarioChecker(random.Random(seed), "kbo")
        for _ in range(12):
            checker.random_op()
        for mode in ("on", "shared"):
            st = checker.indexes[mode].stats
            assert st.nodes_processed.total <= st.nodes_created.total


def test_settled_walk_counts_traversals_on_both_exits(sig, kbo_tod):
    # both equalities hold under sigma; once settled, a first-only walk
    # stops at eq 1's success and a full walk runs on to the exit
    x, y = sig.var(0), sig.var(1)
    l = sig.app("f", [x, y])
    kbo_tod.insert(Equality(1, l, sig.app("f", [y, x])))
    kbo_tod.insert(Equality(2, l, sig.app("f", [y, y])))
    a = sig.app("a")
    sigma = subst(sig, sig.app("f", [a, a]), a)
    assert kbo_tod.retrieve(sigma) == [1, 2]
    st = kbo_tod.stats
    t = st.nodes_traversed

    def walk(first_only):
        before = (t.term, t.pos, t.success, st.answers,
                  st.nodes_processed.total)
        ids = kbo_tod.retrieve(sigma, first_only=first_only)
        after = (t.term, t.pos, t.success, st.answers,
                 st.nodes_processed.total)
        return ids, tuple(n - m for n, m in zip(after, before))

    # (term, pos, success) traversed, answers, processed
    assert walk(True) == ([1], (1, 0, 1, 1, 0))
    assert walk(False) == ([1, 2], (1, 1, 2, 3, 0))


def test_step_cap_counts_rewrite_steps_not_walked_nodes(sig, kbo_tod,
                                                        monkeypatch):
    l, r1, _ = swap_terms(sig)
    kbo_tod.insert(Equality(1, l, r1))
    a = sig.app("a")
    sigma = subst(sig, sig.app("f", [a, a]), a)
    monkeypatch.setattr(todx.tod, "STEP_CAP", 1)
    with pytest.raises(StepCapExceededError):
        kbo_tod.retrieve(sigma)     # expands f(x,y) cmp f(y,x), then more
    monkeypatch.undo()
    assert kbo_tod.retrieve(sigma) == [1]
    kbo_tod.validate()
    monkeypatch.setattr(todx.tod, "STEP_CAP", 1)
    t = kbo_tod.stats.nodes_traversed
    walked = t.total
    assert kbo_tod.retrieve(sigma) == [1]
    assert t.total - walked > 1
