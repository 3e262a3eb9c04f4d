"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so a full run reads as a checklist.
Every tolerance is exact: set equality, structural equality, or strict
counter inequalities.
"""

import contextlib
import itertools
import random
import sys

from helpers import (PROMOTE_SETTINGS, ScenarioChecker, bench,
                     random_signature, random_subst, random_term, subterms)
from oracles import instantiate, ref_compare
from todx import (Equality, Label, LinearExpr, NodeKind,
                  Substitution, Tod, TpoStore, force_term_label, make_order)
from todx import index as index_module

G, E, N = Label.GT, Label.EQ, Label.NGE
GT, EQ, GEQ, NGE, NEXT = (Label.GT, Label.EQ, Label.GEQ,
                          Label.NGE, Label.NEXT)


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_oracle_equivalence_across_modes():
    with criterion(1, "oracle equivalence off/on/shared"):
        for seed in range(10_000):
            rng = random.Random(seed)
            checker = ScenarioChecker(rng, "kbo" if seed % 2 else "lpo",
                                      max_depth=rng.choice([2, 3, 4]))
            checker.insert_random()
            for _ in range(rng.randint(6, 22)):
                checker.random_op()


def test_criterion_2_ordering_axioms():
    with criterion(2, "ordering axioms (sampled)"):
        for kind in ("kbo", "lpo"):
            rng = random.Random(100 if kind == "kbo" else 200)
            # subterm property
            done = 0
            while done < 10_000:
                sig = random_signature(rng, "mixed")
                order = make_order(kind, sig)
                s = random_term(rng, sig, [0, 1], 3)
                for u in subterms(s):
                    if u is not s:
                        done += 1
                        assert order.compare(s, u) is G
            # stability under substitution on greater verdicts
            done = 0
            while done < 10_000:
                sig = random_signature(rng, "mixed")
                order = make_order(kind, sig)
                s = random_term(rng, sig, [0, 1], 3)
                t = random_term(rng, sig, [0, 1], 3)
                if order.compare(s, t) is G:
                    done += 1
                    sigma = random_subst(rng, sig, [0, 1], 2, ground_prob=0.5)
                    assert order.compare(instantiate(sig, s, sigma),
                                         instantiate(sig, t, sigma)) is G
            # ground totality
            for _ in range(10_000):
                sig = random_signature(rng, "bin")
                order = make_order(kind, sig)
                s = random_term(rng, sig, [], 3)
                t = random_term(rng, sig, [], 3)
                if s is t:
                    assert order.compare(s, t) is E
                else:
                    assert (order.compare(s, t) is G) != (order.compare(t, s) is G)
            # transitivity on ground triples
            done = 0
            while done < 10_000:
                sig = random_signature(rng, "bin")
                order = make_order(kind, sig)
                terms = [random_term(rng, sig, [], 2) for _ in range(3)]
                for s, t, u in itertools.permutations(terms):
                    if order.compare(s, t) is G and order.compare(t, u) is G:
                        done += 1
                        assert order.compare(s, u) is G


def test_criterion_3_closure_term_agreement():
    with criterion(3, "closure comparison agrees with instantiation"):
        for kind in ("kbo", "lpo"):
            rng = random.Random(300 if kind == "kbo" else 400)
            for _ in range(10_000):
                sig = random_signature(rng, rng.choice(["bin", "mixed", "wide"]))
                order = make_order(kind, sig)
                s = random_term(rng, sig, [0, 1, 2], 3)
                t = random_term(rng, sig, [0, 1, 2], 3)
                sigma = random_subst(rng, sig, [0, 1], 2, ground_prob=0.6)
                theta = random_subst(rng, sig, [1, 2], 2, ground_prob=0.6)
                want = ref_compare(sig, kind, instantiate(sig, s, sigma),
                                   instantiate(sig, t, theta))
                assert order.compare_closure(s, sigma, t, theta) is want


def _swap_fixture():
    from todx import Signature
    sig = Signature([("a", 0, 1, 0), ("b", 0, 1, 1),
                     ("g", 1, 1, 2), ("f", 2, 1, 3)])
    x, y = sig.var(0), sig.var(1)
    return sig, sig.app("f", [x, y]), sig.app("f", [y, x]), sig.app("f", [x, x])


def test_criterion_4_worked_example_goldens():
    with criterion(4, "worked-example goldens"):
        # specialization after one retrieval: root successor compares x to y
        sig, l, r1, r2 = _swap_fixture()
        a, b = sig.app("a"), sig.app("b")
        faa = sig.app("f", [a, a])
        tod = Tod(make_order("kbo", sig))
        tod.insert(Equality(1, l, r1))
        tod.retrieve(Substitution({0: faa, 1: a}))
        node = tod.root.out[NEXT]
        assert node.kind is NodeKind.TERM
        assert node.lhs is sig.var(0) and node.rhs is sig.var(1)

        # the f(x,y) vs f(x,x) diagram: positivity on y-x, then y vs x
        tod = Tod(make_order("kbo", sig))
        tod.insert(Equality(1, l, r2))
        tod.retrieve(Substitution({0: a, 1: b}))
        node = tod.root.out[NEXT]
        assert node.kind is NodeKind.POS
        assert node.expr == LinearExpr(0, {1: 1, 0: -1})
        follow = node.out[GEQ]
        assert follow.kind is NodeKind.TERM
        assert follow.lhs is sig.var(1) and follow.rhs is sig.var(0)

        # equal-image traversal returns nothing and leaves x cmp y visited
        # with its = edge on the exit
        tod = Tod(make_order("kbo", sig))
        tod.insert(Equality(1, l, r1))
        assert tod.retrieve(Substitution({0: a, 1: a})) == []
        node = tod.root.out[NEXT]
        assert node.visited and node.kind is NodeKind.TERM
        assert node.lhs is sig.var(0) and node.rhs is sig.var(1)
        assert node.out[EQ] is tod.exit

        # after inserting the second equality, a greater-image traversal
        # returns exactly the swap equality, leaving a visited y-x check
        tod.insert(Equality(2, l, r2))
        assert tod.retrieve(Substitution({0: faa, 1: a})) == [1]
        pos = [n for n in tod.nodes() if n.kind is NodeKind.POS and n.visited]
        assert len(pos) == 1
        assert pos[0].expr == LinearExpr(0, {1: 1, 0: -1})

        # path-constraint forcing: f(x) !>= y and g(y) = z pin x cmp z
        x, y, z = sig.var(0), sig.var(1), sig.var(2)
        fx, gy = sig.app("g", [x]), sig.app("g", [y])
        store = TpoStore(make_order("kbo", sig))
        t1 = store.extend(store.empty, [], [fx, y])
        t2 = store.extend(t1, [(fx, N, y)], [gy, z])
        t3 = store.extend(t2, [(gy, E, z)], [x, z])
        assert force_term_label(t3, x, z) is N


def test_criterion_5_laziness_payoff():
    with criterion(5, "second identical query does no work"):
        sig, l, r1, r2 = _swap_fixture()
        a = sig.app("a")
        for kind in ("kbo", "lpo"):
            for mode in ("on", "shared"):
                from todx import PostOrderingIndex
                idx = PostOrderingIndex(sig, kind, mode)
                idx.insert(l, r1)
                idx.insert(l, r2)
                sigma = Substitution({0: sig.app("f", [a, a]), 1: a})
                first = idx.query(l, sigma)
                processed = idx.snapshot_stats().nodes_processed.total
                assert idx.query(l, sigma) == first
                assert idx.snapshot_stats().nodes_processed.total == processed


def test_criterion_6_counter_speedup():
    with criterion(6, "shared mode beats the naive baseline on counters"):
        rep = bench("swap", 10_000, order="kbo", seed=0, mode="crosscheck")
        assert not rep.divergences
        off = rep.mode_stats["off"]
        on = rep.mode_stats["on"]
        shared = rep.mode_stats["shared"]
        # young equalities are checked by closure comparison
        shared_work = (shared.nodes_traversed.term + shared.nodes_created.term
                       + shared.naive_comparisons)
        assert 2 * shared_work < off.naive_comparisons, (
            f"shared work {shared_work} vs naive steps {off.naive_comparisons}")
        assert shared.nodes_traversed.term <= on.nodes_traversed.term


def test_criterion_7_termination_and_robustness(monkeypatch):
    # the step cap is diagnostic: any retrieval hitting it raises, so a
    # clean fuzz run certifies both termination and the invariants
    with criterion(7, "no step-cap hits; invariants hold under fuzz"):
        for promote_after in PROMOTE_SETTINGS:
            monkeypatch.setattr(index_module, "PROMOTE_AFTER", promote_after)
            for seed in range(1000):
                rng = random.Random(90_000 + seed)
                checker = ScenarioChecker(rng, "kbo" if seed % 2 else "lpo",
                                          validate=True)
                checker.insert_random()
                for _ in range(8):
                    checker.random_op()
