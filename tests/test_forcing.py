import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (SIG_SHAPES, ScenarioChecker, facts, random_signature,
                     random_term)
from oracles import Contradiction, ref_closure, term_formula
import todx.tod
from todx import forcing
from todx import (Label, LinearExpr, Signature, Substitution,
                  TpoInconsistencyError, TpoStore, force_positivity_label,
                  force_term_label, make_order, term_weight)
from todx.forcing import PairSigns

G, E, N = Label.GT, Label.EQ, Label.NGE
GEQ = Label.GEQ


@pytest.fixture
def store(sig):
    return TpoStore(make_order("kbo", sig))


def test_extend_with_nothing_returns_same_instance(store):
    assert store.extend(store.empty) is store.empty
    t = store.extend(store.empty, [], ())
    assert t is store.empty


def test_extend_records_constraints(sig, store):
    x, y = sig.var(0), sig.var(1)
    tpo = store.extend(store.empty, [(x, G, y)])
    assert tpo.relation(x, y) is G
    # a strictly greater pair also rules out the reverse being >=
    assert tpo.relation(y, x) is N


def test_eq_is_symmetric(sig, store):
    x, y = sig.var(0), sig.var(1)
    tpo = store.extend(store.empty, [(x, E, y)])
    assert tpo.relation(x, y) is E
    assert tpo.relation(y, x) is E


def test_reflexive_relation(sig, store):
    x = sig.var(0)
    assert store.empty.relation(x, x) is E


def test_relation_of_a_non_element_is_unknown(sig, store):
    x, y, z = sig.var(0), sig.var(1), sig.var(2)
    tpo = store.extend(store.empty, [(x, G, y)])
    assert tpo.elements == (x, y)
    assert tpo.relation(z, x) is None
    assert tpo.relation(y, z) is None
    assert tpo.relation(z, sig.app("a")) is None
    # identical operands are equal, elements or not
    assert tpo.relation(y, y) is E
    assert tpo.relation(z, z) is E


def test_transitivity_chain_example(sig, store):
    # path: f(x) cmp y taken !>=, then g(y) cmp z taken =, examine x cmp z
    x, y, z = sig.var(0), sig.var(1), sig.var(2)
    fx, gy = sig.app("g", [x]), sig.app("g", [y])
    t1 = store.extend(store.empty, [], [fx, y])
    t2 = store.extend(t1, [(fx, N, y)], [gy, z])
    t3 = store.extend(t2, [(gy, E, z)], [x, z])
    assert t3.relation(x, y) is N        # x below f(x), which is not >= y
    assert t3.relation(z, y) is G        # z equals g(y), which beats y
    assert t3.relation(x, z) is N        # chaining the two
    assert force_term_label(t3, x, z) is N


def test_static_verdicts_are_compared_once_per_pair(sig):
    # a pair that joins another path is decided from the store's memo
    order = make_order("kbo", sig)
    calls = []
    plain = order.compare

    def counting(s, t):
        calls.append((s, t))
        return plain(s, t)

    order.compare = counting
    store = TpoStore(order)
    x = sig.var(0)
    gx, a = sig.app("g", [x]), sig.app("a")
    first = store.extend(store.empty, [], [gx, x])
    n = len(calls)
    assert n > 0
    again = store.extend(store.extend(store.empty, [], [a]), [], [x, gx])
    assert again.relation(gx, x) is G and first.relation(gx, x) is G
    # only the pairs with the new element a were compared
    assert all(a in pair for pair in calls[n:])


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(SIG_SHAPES)),
       st.sampled_from(["kbo", "lpo"]))
@settings(max_examples=200, deadline=None)
def test_static_verdict_is_the_relation_of_a_fresh_pair(seed, shape, kind):
    # a comparison on a path with no fact reads the static verdict in
    # place of the ordering extend(empty, (), (s, t)) would build
    rng = random.Random(seed)
    sig = random_signature(rng, shape, max_weight=3)
    order = make_order(kind, sig)
    verdicts, orderings = TpoStore(order), TpoStore(order)
    for _ in range(10):
        s = random_term(rng, sig, [0, 1, 2], 2)
        t = rng.choice([s, random_term(rng, sig, [0, 1, 2], 2)])
        for u, v in ((s, t), (t, s)):
            want = orderings.extend(orderings.empty, (), (u, v)).relation(u, v)
            assert verdicts.static(u, v) is want, (u, v)
    assert verdicts.static(s, s) is E


def test_static_facts_join_new_elements(sig, store):
    x = sig.var(0)
    gx = sig.app("g", [x])
    tpo = store.extend(store.empty, [], [gx, x])
    assert tpo.relation(gx, x) is G
    assert force_term_label(tpo, gx, x) is G


def test_forced_equal_after_equal_edge(sig, store):
    x, y = sig.var(0), sig.var(1)
    t1 = store.extend(store.empty, [], [x, y])
    t2 = store.extend(t1, [(x, E, y)], [y, x])
    assert force_term_label(t2, y, x) is E


def test_identical_operands_force_equal(sig, store):
    x = sig.var(0)
    assert force_term_label(store.empty, x, x) is E


def rows(tpo):
    return tpo.elements, tpo.gt, tpo.eq, tpo.nge


def test_same_extension_is_remembered(sig, store):
    x, y = sig.var(0), sig.var(1)
    a = store.extend(store.empty, [(x, G, y)])
    b = store.extend(store.empty, [(x, G, y)])
    assert a is b
    c = store.extend(a, [(y, N, x)])  # already implied, no new facts
    assert rows(c) == rows(a)


def test_store_holds_only_the_orderings_it_builds(sig, store):
    x, y = sig.var(0), sig.var(1)
    assert len(store) == 1      # the empty ordering
    a = store.extend(store.empty, (), (x, y))
    assert len(store) == 2
    assert store.extend(store.empty, (), (x, y)) is a and len(store) == 2
    # no fact and no term that is not an element yet: the parent itself
    assert store.extend(a, (), (y, x, y)) is a
    assert store.extend(a) is a and len(store) == 2
    b = store.extend(a, [(x, G, y)])
    assert b is not a and len(store) == 3
    assert store.extend(a, [(x, G, y)]) is b and len(store) == 3


def test_derived_relations_stay_consistent(sig, store):
    rng = random.Random(13)
    order = store.order
    for _ in range(300):
        terms = []
        tpo = store.empty
        for _ in range(rng.randint(1, 4)):
            t1 = random_term(rng, sig, [0, 1, 2], 2)
            t2 = random_term(rng, sig, [0, 1, 2], 2)
            rel = tpo.relation(t1, t2)
            if rel is None:
                rel = rng.choice([G, E, N])
                if t1 is t2:
                    rel = E
                if order.compare(t1, t2) is G:
                    rel = G
                elif order.compare(t2, t1) is G:
                    continue
            try:
                tpo = store.extend(tpo, [(t1, rel, t2)], [t1, t2])
            except TpoInconsistencyError:
                continue
            terms.extend([t1, t2])
        seen = set()
        for s, r, t in facts(tpo):
            seen.add((s.tid, r, t.tid))
        for s, r, t in facts(tpo):
            if r is G:
                assert (s.tid, E, t.tid) not in seen
                assert (t.tid, E, s.tid) not in seen
                assert (s.tid, N, t.tid) not in seen
                assert (t.tid, G, s.tid) not in seen
                # greater entails the reverse not->=
                assert (t.tid, N, s.tid) in seen
            if r is E:
                assert tpo.relation(t, s) is E


def test_closure_respects_axioms(sig, store):
    # premises present => conclusion present, on every stored triple
    x, y, z, u = (sig.var(i) for i in range(4))
    tpo = store.extend(store.empty, [(x, G, y), (y, G, z), (z, E, u)])
    elems = tpo.elements

    def rel(a, b):
        return tpo.relation(a, b)

    for a in elems:
        for b in elems:
            for c in elems:
                if a is b or b is c or a is c:
                    continue
                le_ab = rel(b, a) is G or rel(a, b) is E
                if rel(a, b) is E and rel(b, c) is E:
                    assert rel(a, c) is E
                if le_ab and rel(c, b) is G:
                    assert rel(c, a) is G
                if rel(b, a) is G and (rel(c, b) is G or rel(b, c) is E):
                    assert rel(c, a) is G
                if rel(a, b) is N and (rel(c, b) is G or rel(b, c) is E):
                    assert rel(a, c) is N
                if le_ab and rel(b, c) is N:
                    assert rel(a, c) is N


@pytest.mark.parametrize("seed, size, extensions",
                         [(s, 6, 3) for s in range(4)] + [(4, 8, 4)],
                         ids=["0", "1", "2", "3", "8-elements"])
def test_closure_matches_naive_fixpoint(sig, seed, size, extensions):
    # distinct variables are never statically ordered, so the facts are
    # exactly the constraints; they arrive spread over 1 to `extensions`
    # extensions, over up to `size` elements
    rng = random.Random(700 + seed)
    variables = [sig.var(i) for i in range(size)]
    raised = closed = 0
    for _ in range(150):
        store = TpoStore(make_order(rng.choice(["kbo", "lpo"]), sig))
        n = rng.randint(2, size)
        given = [(rng.randrange(n), rng.choice([G, E, N]), rng.randrange(n))
                 for _ in range(rng.randint(1, 2 * n))]
        try:
            want = ref_closure(n, given)
        except Contradiction:
            want = None
        tpo = store.empty
        chunks = rng.randint(1, extensions)
        try:
            for k in range(chunks):
                fresh = rng.sample(variables[:n], rng.randint(0, n))
                tpo = store.extend(tpo, [(variables[i], r, variables[j])
                                         for i, r, j in given[k::chunks]], fresh)
        except TpoInconsistencyError:
            assert want is None, given
            raised += 1
            continue
        assert want is not None, given
        closed += 1
        got = {(i, tpo.relation(variables[i], variables[j]), j)
               for i in range(n) for j in range(n)
               if i != j and tpo.relation(variables[i], variables[j])}
        assert got == want, given
        listed = {(a.vid, r, b.vid) for a, r, b in facts(tpo)}
        assert listed | {(j, E, i) for i, r, j in listed if r is E} == want
    assert raised > 10 and closed > 10


def test_inconsistent_facts_raise(sig, store):
    x, y = sig.var(0), sig.var(1)
    tpo = store.extend(store.empty, [(x, G, y)])
    with pytest.raises(TpoInconsistencyError):
        store.extend(tpo, [(x, E, y)])
    with pytest.raises(TpoInconsistencyError):
        store.extend(tpo, [(y, G, x)])


def test_repeated_extension_is_not_closed_again(sig, store, monkeypatch):
    # a replicated node asks for the same extension as its original
    runs = []
    close = forcing._close
    monkeypatch.setattr(forcing, "_close",
                        lambda *rows: runs.append(rows) or close(*rows))
    x, y, gx = sig.var(0), sig.var(1), sig.app("g", [sig.var(0)])
    tpo = store.extend(store.empty, [(x, G, y)], (gx,))
    assert len(runs) == 1
    assert store.extend(store.empty, [(x, G, y)], [gx]) is tpo
    assert store.extend(store.empty, iter([(x, G, y)]), (gx,)) is tpo
    assert len(runs) == 1
    assert store.extend(tpo) is tpo and store.extend(tpo) is tpo


def test_fresh_element_without_facts_is_not_closed(sig, store, monkeypatch):
    # the parent is closed, so a fresh element statically incomparable
    # to every element lands on the padded parent rows as they are
    x, y, z = sig.var(0), sig.var(1), sig.var(2)
    tpo = store.extend(store.empty, [(x, G, y)], [sig.app("g", [x])])
    runs = []
    close = forcing._close
    monkeypatch.setattr(forcing, "_close",
                        lambda *rows: runs.append(rows) or close(*rows))
    grown = store.extend(tpo, (), [z])
    assert runs == []
    assert grown.elements == tpo.elements + (z,)
    assert (grown.gt, grown.eq, grown.nge) == (
        tpo.gt + (0,), tpo.eq + (0,), tpo.nge + (0,))
    assert grown.relation(x, y) is G and grown.relation(z, x) is None


def test_inconsistent_extension_is_not_cached(sig, store):
    x, y = sig.var(0), sig.var(1)
    tpo = store.extend(store.empty, [(x, G, y)])
    for _ in range(2):
        with pytest.raises(TpoInconsistencyError):
            store.extend(tpo, [(y, G, x)])


def test_incomparable_pairs(sig, store):
    x, y = sig.var(0), sig.var(1)
    tpo = store.extend(store.empty, [(x, N, y), (y, N, x)])
    assert tpo.relation(x, y) is N
    assert tpo.relation(y, x) is N
    one_way = store.extend(store.empty, [(x, N, y)])
    assert one_way.relation(x, y) is N
    assert one_way.relation(y, x) is None


def test_term_formula_collects_edge_and_static_facts(sig, store):
    x, y, z = sig.var(0), sig.var(1), sig.var(2)
    fx, gy = sig.app("g", [x]), sig.app("g", [y])
    facts = term_formula(store.order,
                         [(fx, N, y), (gy, E, z)], node_terms=[x, z])
    assert set((a.tid, r, b.tid) for a, r, b in facts) == {
        (fx.tid, N, y.tid), (gy.tid, E, z.tid),
        (fx.tid, G, x.tid), (gy.tid, G, y.tid)}


def test_term_formula_empty_path(sig, store):
    assert term_formula(store.order, []) == []
    x = sig.var(0)
    gx = sig.app("g", [x])
    facts = term_formula(store.order, [], node_terms=[gx, x])
    assert facts == [(gx, G, x)]


def test_one_shot_formula_closure_matches_incremental(sig, store):
    # closing the whole path formula at once and extending edge by edge
    # land on the same elements in the same order, with the same rows
    x, y, z = sig.var(0), sig.var(1), sig.var(2)
    fx, gy = sig.app("g", [x]), sig.app("g", [y])
    t1 = store.extend(store.empty, [], [fx, y])
    t2 = store.extend(t1, [(fx, N, y)], [gy, z])
    t3 = store.extend(t2, [(gy, E, z)], [x, z])
    steps = [(fx, N, y), (gy, E, z)]
    tops = [fx, y, gy, z, x]
    one_shot = store.extend(store.empty,
                            term_formula(store.order, steps, [x, z]), tops)
    assert rows(one_shot) == rows(t3)


def test_positivity_forcing():
    # without sign facts only the zero difference forces; a statically
    # signed one never reaches a positivity check
    # (test_statically_unordered_pairs_are_expandable)
    assert force_positivity_label(LinearExpr(0)) is Label.GEQ
    # not decided for every substitution: no label
    assert force_positivity_label(LinearExpr(0, {1: 1, 0: -1})) is None
    assert force_positivity_label(LinearExpr(-1, {0: 1})) is None
    assert force_positivity_label(LinearExpr(1, {0: -1})) is None


def test_positivity_facts_without_the_memo_raise_type_error():
    # the zero expression and a path with no fact need no memo
    e = LinearExpr(1, {0: 1})
    fact = (LinearExpr(0, {0: 1}), G, None)
    assert force_positivity_label(LinearExpr(0), fact) is GEQ
    assert force_positivity_label(e) is None
    with pytest.raises(TypeError, match="PairSigns"):
        force_positivity_label(e, fact)
    assert force_positivity_label(e, fact, PairSigns(1)) is G


def test_positivity_nonconstant_nonnegative_is_not_forced(sig):
    # x - 1 is >= 0 for every grounding but a substitution can make it
    # strictly positive, so no single edge is forced
    e = LinearExpr(-1, {0: 1})
    assert e.sign(sig.w0) is Label.GEQ
    assert force_positivity_label(e) is None
    faa = sig.app("f", [sig.app("a"), sig.app("a")])
    assert e.subst(Substitution({0: faa})).sign(sig.w0) is Label.GT
    assert e.subst(Substitution({0: sig.app("a")})).sign(sig.w0) \
        is Label.GEQ


# -- sign facts of the path --------------------------------------------------

def lin(constant, **coeffs):
    """``constant + sum c*x<i>``, written lin(-1, x0=1, x1=2)."""
    return LinearExpr(constant, {int(v[1:]): c for v, c in coeffs.items()})


def chain(*pairs):
    """The sign-fact chain of a path, its first fact last."""
    out = None
    for expr, label in pairs:
        out = (expr, label, out)
    return out


def forced(expr, *pairs):
    return force_positivity_label(expr, chain(*pairs), PairSigns(1))


def test_fact_gt_and_nonnegative_difference_force_gt():
    # x0 - 1 > 0 on the path; d = x1 - 1 is >= 0 and d = x1 > 0
    assert forced(lin(-2, x0=1, x1=1), (lin(-1, x0=1), G)) is G
    assert forced(lin(-1, x0=1, x1=1), (lin(-1, x0=1), G)) is G


def test_fact_geq_and_positive_difference_force_gt():
    # x0 - x1 >= 0 on the path; d = 1
    assert forced(lin(1, x0=1, x1=-1), (lin(0, x0=1, x1=-1), GEQ)) is G


def test_fact_geq_and_zero_difference_force_geq():
    # an equal expression, not the same object
    assert forced(lin(0, x0=1, x1=-1), (lin(0, x0=1, x1=-1), GEQ)) is GEQ


def test_fact_nge_and_nonpositive_difference_force_nge():
    # x0 - x1 < 0 somewhere on the path; -d = x1 > 0, and -d = 1 > 0
    assert forced(lin(0, x0=1, x1=-2), (lin(0, x0=1, x1=-1), N)) is N
    assert forced(lin(-1, x0=1, x1=-1), (lin(0, x0=1, x1=-1), N)) is N


def test_zero_expression_stays_geq_whatever_the_facts():
    assert forced(lin(0), (lin(-1, x0=1), G)) is GEQ
    assert forced(lin(0), (lin(0, x0=1, x1=-1), N)) is GEQ


def test_any_fact_of_the_chain_may_force():
    # the nearest fact decides nothing (-d = 1 - 2*x1), the first one
    # does (d = x1)
    assert forced(lin(-1, x0=1, x1=1), (lin(-1, x0=1), G),
                  (lin(0, x0=1, x1=-1), N)) is G
    assert forced(lin(-1, x0=1, x1=1), (lin(0, x0=1, x1=-1), N)) is None


@pytest.mark.parametrize("expr, fact", [
    # GT fact, d = x1 - x0 takes both signs
    (lin(-1, x1=1), (lin(-1, x0=1), G)),
    # GEQ fact, d = x1 - 1 is >= 0 but not > 0, and not zero
    (lin(-2, x0=1, x1=1), (lin(-1, x0=1), GEQ)),
    # NGE fact, d = 1 > 0: e' may be >= 0 where e < 0
    (lin(1, x0=1, x1=-1), (lin(0, x0=1, x1=-1), N)),
    # NGE fact, d = x1: e' >= e, so no bound from e
    (lin(-1, x0=1, x1=1), (lin(-1, x0=1), N)),
    # GT fact, d = -1: e' may reach 0
    (lin(-2, x0=1), (lin(-1, x0=1), G)),
])
def test_facts_that_decide_nothing_force_nothing(expr, fact):
    assert forced(expr, fact) is None


def test_every_forced_label_holds_under_every_substitution(sig):
    # each rule, checked against the signs of both expressions under
    # substitutions that give the fact its label
    ground = [sig.app("a"), sig.app("g", [sig.app("a")]),
              sig.app("f", [sig.app("a"), sig.app("b")])]
    images = ground + [sig.var(5), sig.app("g", [sig.var(6)])]
    exprs = [lin(c, x0=p, x1=q) for c in (-2, -1, 0, 1)
             for p in (-1, 0, 1) for q in (-2, 0, 1)]
    signs = PairSigns(sig.w0)
    sigmas = [Substitution({0: u, 1: v}) for u in images for v in images]
    decided = set()
    for old in exprs:
        for new in exprs:
            for label in (G, GEQ, N):
                got = force_positivity_label(new, (old, label, None), signs)
                if got is None:
                    continue
                decided.add((label, got))
                for sigma in sigmas:
                    if old.sign(sig.w0, sigma) is label:
                        assert new.sign(sig.w0, sigma) is got, (
                            old, label, new, sigma)
    assert decided >= {(G, G), (GEQ, G), (GEQ, GEQ), (N, N)}


def test_pair_signs_are_computed_once_per_pair(monkeypatch):
    # one subtraction per pair of objects gives both signs; an equal pair
    # of other objects gets an entry of its own with the same signs
    calls = []
    sub = LinearExpr.__sub__

    def counted(self, other):
        calls.append(self)
        return sub(self, other)

    monkeypatch.setattr(LinearExpr, "__sub__", counted)
    signs = PairSigns(1)
    e, e2 = lin(-1, x0=1), lin(-2, x0=1, x1=1)
    assert force_positivity_label(e2, (e, GEQ, None), signs) is None
    assert signs[id(e2), id(e)][2:] == (GEQ, N)
    assert force_positivity_label(e2, (e, N, None), signs) is None
    assert len(calls) == 1
    again = lin(-2, x0=1, x1=1), lin(-1, x0=1)
    assert signs.add(*again)[2:] == (GEQ, N)
    assert len(calls) == 2 and len(signs) == 2


def test_pair_sign_lookups_never_hash_an_expression(monkeypatch):
    def refuse(self):
        raise AssertionError("LinearExpr.__hash__ called")

    monkeypatch.setattr(LinearExpr, "__hash__", refuse)
    signs = PairSigns(1)
    e, e2, five = lin(-1, x0=1), lin(-1, x0=1, x1=1), lin(5)
    for _ in range(2):      # the first lookup fills the memo, the next reads it
        assert force_positivity_label(e2, (e, G, None), signs) is G
        assert force_positivity_label(e2, (five, N, (e, N, None)),
                                      signs) is None
    assert len(signs) == 2


# KBO_SYMBOLS of the benchmark's poly_kbo: a < b < g < h < f
POLY_SYMBOLS = [("a", 0, 1, 0), ("b", 0, 2, 1), ("g", 1, 2, 2),
                ("h", 1, 3, 3), ("f", 2, 1, 4)]


def poly_rhs(rng, sig, lhs, count):
    """``count`` rhs drawn as the benchmark's poly_kbo draws them: depth 3
    over x and y, each with a weight difference to ``lhs`` that keeps
    variables, and neither side greater without a substitution."""
    order = make_order("kbo", sig)
    lhs_vars = term_weight(lhs)._coeffs
    chosen = []
    while len(chosen) < count:
        rhs = random_term(rng, sig, [0, 1], 3)
        if rhs in chosen or rhs is lhs or term_weight(rhs)._coeffs == lhs_vars:
            continue
        if G in (order.compare(lhs, rhs), order.compare(rhs, lhs)):
            continue
        chosen.append(rhs)
    return chosen


@pytest.mark.parametrize("seed", [5, 6])
def test_sign_facts_agree_with_the_oracle_on_a_wide_kbo_group(seed, monkeypatch):
    # one group of 24 rhs, 320 queries with images that are ground,
    # non-ground or absent; ScenarioChecker compares every mode with
    # the oracle and audits every forced bypass against evaluation
    rng = random.Random(seed)
    sig = Signature(POLY_SYMBOLS)
    lhs = sig.app("f", [sig.var(0), sig.var(1)])
    checker = ScenarioChecker(rng, "kbo", sig=sig)
    for rhs in poly_rhs(rng, sig, lhs, 24):
        checker.insert(lhs, rhs)
    by_facts = []
    label_of = todx.tod.force_positivity_label

    def recorded(expr, facts=None, signs=None):
        label = label_of(expr, facts, signs)
        if label is not None and not expr.is_zero:
            by_facts.append(label)
        return label

    monkeypatch.setattr(todx.tod, "force_positivity_label", recorded)
    kinds = set()
    for q in range(320):
        bindings = {}
        for v in (0, 1):
            roll = rng.random()
            if roll < 0.15:
                kinds.add("unbound")
                continue
            free = [100] if roll < 0.45 else []
            kinds.add("non-ground" if free else "ground")
            bindings[v] = random_term(rng, sig, free, 2)
        checker.query(lhs, Substitution(bindings),
                      "first" if q % 10 == 9 else "all")
    assert kinds == {"unbound", "non-ground", "ground"}
    # every rule's label was forced by facts
    assert set(by_facts) == {G, GEQ, N}
