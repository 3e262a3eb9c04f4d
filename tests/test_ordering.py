import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_signature, random_subst, random_term, subterms
from oracles import instantiate, ref_compare, ref_kbo, ref_weight
from todx import (EMPTY_SUBST, Label, Signature, Substitution, closure_equal,
                  make_order, LinearExpr, term_weight)

G, E, N = Label.GT, Label.EQ, Label.NGE


def test_kbo_swap_is_unordered(sig):
    kbo = make_order("kbo", sig)
    x, y = sig.var(0), sig.var(1)
    assert kbo.compare(sig.app("f", [x, y]), sig.app("f", [y, x])) is N
    assert kbo.compare(sig.app("f", [y, x]), sig.app("f", [x, y])) is N


def test_kbo_subterm(sig):
    kbo = make_order("kbo", sig)
    x = sig.var(0)
    assert kbo.compare(sig.app("f", [x, x]), x) is G


def test_kbo_weight_dominates(sig):
    kbo = make_order("kbo", sig)
    a = sig.app("a")
    ga, faa = sig.app("g", [a]), sig.app("f", [a, a])
    assert kbo.compare(ga, faa) is N
    assert kbo.compare(faa, ga) is G


def test_lpo_subterm(sig):
    lpo = make_order("lpo", sig)
    assert lpo.compare(sig.app("f", [sig.app("a"), sig.app("b")]),
                       sig.app("a")) is G


def test_lpo_swap_is_unordered(sig):
    lpo = make_order("lpo", sig)
    x, y = sig.var(0), sig.var(1)
    assert lpo.compare(sig.app("f", [x, y]), sig.app("f", [y, x])) is N


def test_lpo_precedence_case(sig_gf):
    lpo = make_order("lpo", sig_gf)
    x = sig_gf.var(0)
    assert lpo.compare(sig_gf.app("g", [x]), sig_gf.app("f", [x, x])) is G


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_agreement_with_reference(kind):
    rng = random.Random(5)
    for _ in range(4000):
        sig = random_signature(rng, rng.choice(["bin", "mixed"]), max_weight=3)
        order = make_order(kind, sig)
        s = random_term(rng, sig, [0, 1, 2], 3)
        t = random_term(rng, sig, [0, 1, 2], 3)
        assert order.compare(s, t) is ref_compare(sig, kind, s, t), (s, t)


def test_closure_equal_needs_no_instantiation(sig):
    x, y = sig.var(0), sig.var(1)
    a, b = sig.app("a"), sig.app("b")
    lhs = sig.app("f", [x, b])
    rhs = sig.app("f", [a, y])
    assert closure_equal(lhs, Substitution({0: a}), rhs, Substitution({1: b}))
    t = sig.app("g", [x])
    assert closure_equal(t, EMPTY_SUBST, t, EMPTY_SUBST)
    assert not closure_equal(x, Substitution({0: a}), b, EMPTY_SUBST)


def test_closure_equal_of_deep_chains(sig):
    # g^(10^4)(x) and g^(10^4)(y) differ only at the bottom
    assert sys.getrecursionlimit() < 10 ** 4
    x, y = sig.var(0), sig.var(1)
    s, t = x, y
    for _ in range(10 ** 4):
        s, t = sig.app("g", [s]), sig.app("g", [t])
    a, b = sig.app("a"), sig.app("b")
    apart, alike = Substitution({0: a, 1: b}), Substitution({0: a, 1: a})
    assert not closure_equal(s, apart, t, apart)
    assert closure_equal(s, alike, t, alike)


def test_closure_weight_variable_case(sig):
    w = term_weight(sig.var(0)).subst(
        Substitution({0: sig.app("f", [sig.var(1), sig.var(2)])}))
    assert w == LinearExpr(1, {1: 1, 2: 1})


def test_closure_weight_mixed(sig):
    t = sig.app("f", [sig.var(0), sig.app("a")])
    w = term_weight(t).subst(Substitution({0: sig.app("g", [sig.var(1)])}))
    assert w == LinearExpr(3, {1: 1})
    assert term_weight(sig.app("a")).subst(EMPTY_SUBST) == LinearExpr(1)


def test_closure_weight_equals_instantiated_weight(sig):
    rng = random.Random(3)
    for _ in range(500):
        t = random_term(rng, sig, [0, 1], 3)
        sigma = random_subst(rng, sig, [0, 1], 2)
        assert term_weight(t).subst(sigma) == term_weight(instantiate(sig, t, sigma))


def test_closure_lpo_worked_example(sig):
    # f(x,y) under {x -> f(z,u), y -> z} beats f(x,y) under {x -> z, y -> f(u,z)}
    lpo = make_order("lpo", sig)
    x, y, z, u = (sig.var(i) for i in range(4))
    t = sig.app("f", [x, y])
    sigma = Substitution({0: sig.app("f", [z, u]), 1: z})
    theta = Substitution({0: z, 1: sig.app("f", [u, z])})
    assert lpo.compare_closure(t, sigma, t, theta) is G


def test_closure_kbo_cases(sig):
    kbo = make_order("kbo", sig)
    t = sig.app("f", [sig.var(0), sig.app("a")])
    assert kbo.compare_closure(t, EMPTY_SUBST, t, EMPTY_SUBST) is E
    s1 = Substitution({0: sig.app("f", [sig.app("a"), sig.app("a")])})
    s2 = Substitution({1: sig.app("a")})
    assert kbo.compare_closure(sig.var(0), s1, sig.var(1), s2) is G


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_empty_substitutions_of_any_identity_compare_equal(sig, kind):
    # same term, equal effective substitutions, distinct substitution objects
    order = make_order(kind, sig)
    x = sig.var(0)
    t = sig.app("f", [x, sig.var(1)])
    for s, sigma, theta in ((x, Substitution(), Substitution({1: sig.app("a")})),
                            (t, Substitution(), EMPTY_SUBST)):
        assert order.compare_closure(s, sigma, s, theta) is E
        assert order.compare_closure(s, theta, s, sigma) is E
        assert closure_equal(s, sigma, s, theta)
        assert closure_equal(s, theta, s, sigma)


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_closure_agrees_with_instantiate_then_compare(kind):
    rng = random.Random(17)
    for _ in range(4000):
        sig = random_signature(rng, rng.choice(["bin", "mixed", "wide"]))
        order = make_order(kind, sig)
        s = random_term(rng, sig, [0, 1, 2], 3)
        t = random_term(rng, sig, [0, 1, 2], 3)
        sigma = random_subst(rng, sig, [0, 1], 2, ground_prob=0.6)
        theta = random_subst(rng, sig, [1, 2], 2, ground_prob=0.6)
        want = ref_compare(sig, kind, instantiate(sig, s, sigma),
                           instantiate(sig, t, theta))
        assert order.compare_closure(s, sigma, t, theta) is want
        assert closure_equal(s, sigma, t, theta) == (want is E)


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_stability_under_substitution(kind):
    rng = random.Random(29)
    hits = 0
    for _ in range(4000):
        sig = random_signature(rng, "mixed")
        order = make_order(kind, sig)
        s = random_term(rng, sig, [0, 1], 3)
        t = random_term(rng, sig, [0, 1], 3)
        if order.compare(s, t) is G:
            hits += 1
            sigma = random_subst(rng, sig, [0, 1], 2, ground_prob=0.5)
            assert order.compare(instantiate(sig, s, sigma),
                                 instantiate(sig, t, sigma)) is G
    assert hits > 100


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_subterm_property(kind):
    rng = random.Random(31)
    for _ in range(1500):
        sig = random_signature(rng, "mixed")
        order = make_order(kind, sig)
        s = random_term(rng, sig, [0, 1], 3)
        for u in subterms(s):
            if u is not s:
                assert order.compare(s, u) is G


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_ground_totality(kind):
    rng = random.Random(37)
    for _ in range(3000):
        sig = random_signature(rng, "bin")
        order = make_order(kind, sig)
        s = random_term(rng, sig, [], 3)
        t = random_term(rng, sig, [], 3)
        if s is t:
            assert order.compare(s, t) is E
        else:
            assert (order.compare(s, t) is G) != (order.compare(t, s) is G)


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_transitivity_on_ground_triples(kind):
    rng = random.Random(41)
    checked = 0
    for _ in range(4000):
        sig = random_signature(rng, "bin")
        order = make_order(kind, sig)
        terms = [random_term(rng, sig, [], 2) for _ in range(3)]
        for s, t, u in itertools.permutations(terms):
            if order.compare(s, t) is G and order.compare(t, u) is G:
                checked += 1
                assert order.compare(s, u) is G
    assert checked > 200


def test_weights_match_reference():
    rng = random.Random(43)
    sig = Signature([("a", 0, 2, 0), ("b", 0, 1, 1),
                     ("g", 1, 2, 2), ("f", 2, 1, 3)])
    for _ in range(1500):
        t = random_term(rng, sig, [0, 1], 3)
        const, coeffs = ref_weight(t)
        assert term_weight(t) == LinearExpr(const, coeffs)
        sigma = random_subst(rng, sig, [0, 1], 2)
        const, coeffs = ref_weight(instantiate(sig, t, sigma))
        assert term_weight(t).subst(sigma) == LinearExpr(const, coeffs)


def test_weights_are_cached_once():
    sig = Signature([("a", 0, 1, 0), ("f", 2, 1, 1)])
    t = sig.app("f", [sig.var(0), sig.app("a")])
    w1 = term_weight(t)
    assert term_weight(t) is w1


def test_steps_count_each_comparison_entry(sig):
    x, y = sig.var(0), sig.var(1)
    a, b = sig.app("a"), sig.app("b")
    t = sig.app("f", [x, y])
    sigma = Substitution({0: b, 1: a})
    theta = Substitution({0: b, 1: b})
    kbo = make_order("kbo", sig)
    # KBO: f(b,a) vs f(b,b) have equal weights, heads and first arguments;
    # after the top-level step, a vs b is one step decided by precedence
    assert kbo.compare_closure(t, sigma, t, theta) is N
    assert kbo.steps == 2
    lpo = make_order("lpo", sig)
    # LPO: f(b,a) vs f(a,b): after the top-level step, b vs a (one step,
    # decided by precedence) gives >, then f(b,a) must beat the remaining
    # argument b (one step, decided by precedence)
    swapped = Substitution({0: a, 1: b})
    assert lpo.compare_closure(t, sigma, t, swapped) is G
    assert lpo.steps == 3


# -- KBO's weight step in integers -------------------------------------------

# the symbols of the benchmark's poly_kbo, w0 = 1: a < b < g < h < f
_WSIG = Signature([("a", 0, 1, 0), ("b", 0, 2, 1), ("g", 1, 2, 2),
                   ("h", 1, 3, 3), ("f", 2, 1, 4)])


def _raw_terms(leaves):
    """Raw trees for ``Signature.intern`` over ``_WSIG`` and ``leaves``."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["g", "h"]),
                      st.lists(sub, min_size=1, max_size=1)),
            st.tuples(st.just("f"), st.lists(sub, min_size=2, max_size=2))),
        max_leaves=8)


# an image of x0, x1 or x2: unbound (None), ground, or over x1 and x5,
# so an image may share a variable with the other side
_image = st.one_of(st.none(), _raw_terms(["a", "b"]),
                   _raw_terms(["a", 1, 5]))
_images = st.lists(_image, min_size=3, max_size=3)
_x = _raw_terms(["a", "b", 0, 1, 2])


def _subst(images):
    return Substitution({v: _WSIG.intern(raw) for v, raw in enumerate(images)
                         if raw is not None})


@settings(max_examples=400, deadline=None)
@given(s=_x, t=_x, sigma=_images, theta=_images, same=st.booleans())
# t's side ground and s's free: the least weight of f(x0,a) ties |g(a)|,
# and the precedence answers
@example(s=("f", [0, "a"]), t=("g", ["a"]), sigma=[None] * 3,
         theta=[None] * 3, same=False)
@example(s=("f", [0, 0]), t=("g", [1]), sigma=[("g", [5]), None, None],
         theta=[None, "a", None], same=False)
# a variable of both sides with a non-ground image: the fold decides
@example(s=("f", [0, "a"]), t=("h", [0]), sigma=[("g", [5]), None, None],
         theta=None, same=True)
def test_kbo_closure_agrees_with_the_oracle_in_integers(s, t, sigma, theta,
                                                        same):
    s, t = _WSIG.intern(s), _WSIG.intern(t)
    sigma = _subst(sigma)
    theta = sigma if same else _subst(theta)
    want = ref_compare(_WSIG, "kbo", instantiate(_WSIG, s, sigma),
                       instantiate(_WSIG, t, theta))
    assert make_order("kbo", _WSIG).compare_closure(s, sigma, t, theta) is want


def test_kbo_weight_step_folds_only_a_non_ground_image_of_t(monkeypatch):
    calls = []
    sign = LinearExpr.sign

    def counted(self, *args):
        calls.append(self)
        return sign(self, *args)

    monkeypatch.setattr(LinearExpr, "sign", counted)
    kbo = make_order("kbo", _WSIG)
    i = _WSIG.intern
    s, t = i(("f", [0, ("g", [1])])), i(("f", [1, 0]))
    # every variable of t has a ground image; s keeps x5 and unbound x1:
    # f(g(x5), g(x1)) vs f(g(a), g(a)) ties at the top and at g(x5) vs g(a)
    sigma = Substitution({0: i(("g", [5]))})
    theta = Substitution({0: i(("g", ["a"])), 1: i(("g", ["a"]))})
    assert kbo.compare_closure(s, sigma, t, theta) is N
    assert kbo.steps == 3 and calls == []
    # one non-ground image on t's side: that level folds both weights
    theta = Substitution({0: i(("g", ["a"])), 1: i(("g", [5]))})
    assert kbo.compare_closure(s, sigma, t, theta) is N
    assert len(calls) == 1


@settings(max_examples=400, deadline=None)
@given(s=_x, t=_x)
# the variable condition fails: x1 only in t
@example(s=("f", [0, "a"]), t=("h", [1]))
# a weight tie, |f(x0,a)| = |g(x0)|, settled by the precedence f > g
@example(s=("f", [0, "a"]), t=("g", [0]))
@example(s=("g", [0]), t=("f", [0, "a"]))
def test_unsubstituted_kbo_pairs_weigh_in_integers(s, t):
    s, t = _WSIG.intern(s), _WSIG.intern(t)
    kbo = make_order("kbo", _WSIG)
    with mock.patch.object(LinearExpr, "sign",
                           side_effect=AssertionError("LinearExpr.sign")):
        got = kbo.compare(s, t)
    assert got is ref_kbo(_WSIG, s, t)


def test_unsubstituted_kbo_variable_condition_and_precedence():
    kbo = make_order("kbo", _WSIG)
    i = _WSIG.intern
    fxa, gx = i(("f", [0, "a"])), i(("g", [0]))
    with mock.patch.object(LinearExpr, "sign",
                           side_effect=AssertionError("LinearExpr.sign")):
        # |f(x0,a)| - |h(x1)| is 2 + x0 - 3 - x1: negative for a heavy x1
        assert kbo.compare(fxa, i(("h", [1]))) is N
        assert kbo.compare(fxa, gx) is G and kbo.compare(gx, fxa) is N
        # h(x0) outweighs f(a,x0) by one at the top
        assert kbo.compare(i(("h", [0])), i(("f", ["a", 0]))) is G
