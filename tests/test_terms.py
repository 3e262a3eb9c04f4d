import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_signature, random_subst, random_term
from oracles import brute_sign, instantiate
from todx import (ArityError, Equality, Label, LinearExpr, NodeKind, Signature,
                  SignatureError, Substitution, Tod, TodNode,
                  UnknownSymbolError, make_order, term_weight)


def test_interning_idempotent(sig):
    x, y = sig.var(0), sig.var(1)
    assert sig.app("f", [x, y]) is sig.app("f", [x, y])


def test_interning_distinguishes_structures(sig):
    x, y = sig.var(0), sig.var(1)
    assert sig.app("f", [x, y]) is not sig.app("f", [y, x])


def test_interning_shares_subterms(sig):
    a = sig.app("a")
    t1 = sig.app("f", [a, sig.var(0)])
    t2 = sig.app("g", [a])
    assert t1.args[0] is t2.args[0]


def test_intern_raw_trees(sig):
    t = sig.intern(("f", [("g", [0]), "a"]))
    assert t is sig.app("f", [sig.app("g", [sig.var(0)]), sig.app("a")])
    with pytest.raises(UnknownSymbolError):
        sig.intern(("z", [0]))
    with pytest.raises(ArityError):
        sig.intern(("f", [0]))


def test_intern_raw_tree_10000_deep(sig):
    raw = ("f", [0, "a"])
    for _ in range(10 ** 4):
        raw = ("g", [raw])
    deep = sig.intern(raw)
    built = sig.app("f", [sig.var(0), sig.app("a")])
    for _ in range(10 ** 4):
        built = sig.app("g", [built])
    assert deep is built
    # its weight with x0 at a, |a| = w0
    at_w0 = term_weight(deep).subst(Substitution({0: sig.app("a")}))
    assert deep.least == at_w0.constant == 10 ** 4 + 3


def test_term_repr(sig):
    x, a = sig.var(3), sig.app("a")
    assert repr(x) == "x3" and repr(a) == "a"
    gx = sig.app("g", [x])
    assert repr(sig.app("f", [gx, sig.app("f", [a, gx])])) == "f(g(x3),f(a,g(x3)))"


def test_structural_equality_is_identity():
    rng = random.Random(7)
    sig = random_signature(rng, "mixed")
    for _ in range(10_000):
        s = random_term(rng, sig, [0, 1, 2], 3)
        t = random_term(rng, sig, [0, 1, 2], 3)
        same_structure = repr(s) == repr(t)
        assert (s is t) == same_structure


def test_signature_rejects_zero_weight():
    with pytest.raises(SignatureError):
        Signature([("a", 0, 1, 0), ("g", 1, 0, 1)])


def test_signature_rejects_duplicate_precedence():
    with pytest.raises(SignatureError):
        Signature([("a", 0, 1, 0), ("b", 0, 1, 0)])


@pytest.mark.parametrize("decl", [
    ("f", 2, 1, None), ("f", 2, 1, "2"), ("f", "2", 1, 2), ("f", 2, 1.5, 2),
    ("f", 2, True, 2), ("f", True, 1, 2), ("f", 2, 1, 2.0)])
def test_signature_rejects_non_int_parameters(decl):
    with pytest.raises(SignatureError, match="symbol f"):
        Signature([("a", 0, 1, 0), decl])


@pytest.mark.parametrize("name", [7, "", None, b"f", ("f",)])
def test_signature_rejects_a_name_that_is_not_a_nonempty_str(name):
    with pytest.raises(SignatureError, match=re.escape(f"symbol name {name!r}")):
        Signature([("a", 0, 1, 0), (name, 2, 1, 1)])


@pytest.mark.parametrize("name", ["x1", "x0", "x007", "a,b", "f(", "a b", "a)",
                                  "1a", "é"])
def test_signature_rejects_a_name_that_does_not_print_back(name):
    # with x1 a symbol, f(x1, var 1) would print as f(x1,x1)
    with pytest.raises(SignatureError, match=re.escape(f"symbol name {name!r}")):
        Signature([("a", 0, 1, 0), (name, 0, 1, 1)])


@pytest.mark.parametrize("name", ["x", "xa", "x1a", "_", "a1", "X1"])
def test_signature_accepts_an_identifier_that_is_not_a_variable(name):
    sig = Signature([("a", 0, 1, 0), (name, 1, 1, 1)])
    t = sig.app(name, [sig.var(1)])
    assert repr(t) == f"{name}(x1)"


@pytest.mark.parametrize("vid", [True, False, 1.0, "1", None])
def test_var_rejects_an_id_that_is_not_an_int(sig, vid):
    x1 = sig.var(1)
    with pytest.raises(TypeError, match="variable id"):
        sig.var(vid)
    # a refused id names no variable, before or after x1 exists
    fresh = Signature([("a", 0, 1, 0), ("f", 2, 1, 1)])
    with pytest.raises(TypeError):
        fresh.var(vid)
    assert repr(fresh.app("f", [fresh.var(1), fresh.var(0)])) == "f(x1,x0)"
    assert sig.var(1) is x1


def test_signature_requires_a_constant():
    with pytest.raises(SignatureError):
        Signature([("g", 1, 1, 0)])


def test_w0_is_min_constant_weight():
    sig = Signature([("a", 0, 3, 0), ("b", 0, 2, 1), ("g", 1, 1, 2)])
    assert sig.w0 == 2


def test_apply_basics(sig):
    x, y = sig.var(0), sig.var(1)
    a = sig.app("a")
    fxx = sig.app("f", [x, x])
    assert instantiate(sig, fxx, Substitution({0: a})) is sig.app("f", [a, a])
    assert instantiate(sig, x, Substitution()) is x
    gy = sig.app("g", [y])
    assert instantiate(sig, sig.app("f", [x, y]), Substitution({0: gy})) \
        is sig.app("f", [gy, y])


def test_apply_is_simultaneous(sig):
    # x's image mentions y, but y's own binding must not rewrite it
    x, y = sig.var(0), sig.var(1)
    a = sig.app("a")
    t = instantiate(sig, sig.app("f", [x, y]),
                    Substitution({0: sig.app("g", [y]), 1: a}))
    assert t is sig.app("f", [sig.app("g", [y]), a])


def test_substitution_drops_identity_bindings(sig):
    s = Substitution({0: sig.var(0), 1: sig.app("a")})
    assert s._m == {1: sig.app("a")}


def test_weight_counts_symbols_and_variables():
    sig = Signature([("a", 0, 1, 0), ("f", 2, 2, 1)])
    x = sig.var(0)
    w = term_weight(sig.app("f", [x, x]))
    assert w == LinearExpr(2, {0: 2})
    assert term_weight(sig.app("a")) == LinearExpr(1)


def test_weight_nested(sig):
    x = sig.var(0)
    t = sig.app("f", [sig.app("a"), sig.app("g", [x])])
    assert term_weight(t) == LinearExpr(3, {0: 1})


def test_subst_linear_grounds_to_constant():
    sig = Signature([("a", 0, 1, 0), ("f", 2, 2, 1)])
    e = LinearExpr(2, {0: 2})  # weight of f(x,x) with w(f)=2
    out = e.subst(Substitution({0: sig.app("a")}))
    assert out == LinearExpr(4)


def test_subst_linear_identity(sig):
    e = LinearExpr(5, {0: 2, 3: -1})
    assert e.subst(Substitution()) is e


def test_subst_linear_cancellation(sig):
    # x - y with x bound to g(y): |g(y)| = y + 1, so the expression collapses
    e = LinearExpr(0, {0: 1, 1: -1})
    out = e.subst(Substitution({0: sig.app("g", [sig.var(1)])}))
    assert out == LinearExpr(1)


def test_sign_examples():
    assert LinearExpr(0).sign(1) is Label.GEQ
    y_minus_x = LinearExpr(0, {1: 1, 0: -1})
    assert y_minus_x.sign(1) is Label.NGE
    assert LinearExpr(1, {0: 1}).sign(1) is Label.GT
    assert LinearExpr(0, {0: -1}).sign(1) is Label.NGE


def test_sign_against_brute_force_grid():
    rng = random.Random(11)
    sig = random_signature(rng, "mixed", max_weight=3)

    def draw_expr():
        nvars = rng.randint(0, 3)
        return LinearExpr(rng.randint(-6, 6),
                          {v: rng.randint(-3, 3) for v in range(nvars)})

    def draw_subst():
        if rng.random() < 0.2:
            return None
        return random_subst(rng, sig, rng.sample(range(3), rng.randint(0, 3)),
                            max_depth=2)

    for i in range(3000):
        w0 = rng.randint(1, 3)
        e = draw_expr()
        if i % 2 == 0:
            verdict = e.sign(w0)
            span = 6
        else:
            # the one-pass sign of e*sigma - minus*theta
            sigma, minus, theta = draw_subst(), draw_expr(), draw_subst()
            verdict = e.sign(w0, sigma, minus, theta)
            e = (e.subst(sigma or Substitution())
                 - minus.subst(theta or Substitution()))
            assert verdict is e.sign(w0)
            span = 3        # images may add variables 100 and 101
        brute, witness = brute_sign(e, w0, span)
        assert verdict is brute
        if verdict is Label.NGE:
            assert witness is not None or any(
                c < 0 for _, c in e._coeffs)


def test_weight_commutes_with_substitution():
    rng = random.Random(23)
    for _ in range(2000):
        sig = random_signature(rng, "mixed", max_weight=3)
        t = random_term(rng, sig, [0, 1, 2], 3)
        sigma = random_subst(rng, sig, [0, 1, 2], 2)
        assert term_weight(instantiate(sig, t, sigma)) == \
            term_weight(t).subst(sigma)


@given(st.integers(-5, 5), st.integers(-5, 5),
       st.dictionaries(st.integers(0, 3), st.integers(-4, 4), max_size=4),
       st.dictionaries(st.integers(0, 3), st.integers(-4, 4), max_size=4))
@settings(max_examples=200)
def test_linear_expr_arithmetic(c1, c2, m1, m2):
    e1, e2 = LinearExpr(c1, m1), LinearExpr(c2, m2)
    d = e1 - e2
    assert d.constant == c1 - c2
    for v in set(m1) | set(m2):
        assert dict(d._coeffs).get(v, 0) == m1.get(v, 0) - m2.get(v, 0)
    assert (e1 - e1).is_zero


_raw_trees = st.recursive(
    st.integers(0, 2) | st.sampled_from(["a", "b"]),
    lambda leaf: st.tuples(st.just("g"), st.tuples(leaf))
    | st.tuples(st.just("f"), st.tuples(leaf, leaf)),
    max_leaves=12)


@given(_raw_trees, _raw_trees)
@settings(max_examples=300)
def test_interning_identity_matches_structure(raw1, raw2):
    sig = Signature([("a", 0, 1, 0), ("b", 0, 1, 1),
                     ("g", 1, 1, 2), ("f", 2, 1, 3)])
    t1, t2 = sig.intern(raw1), sig.intern(raw2)
    assert (t1 is t2) == (raw1 == raw2)
    assert sig.intern(raw1) is t1


@given(st.sampled_from([1, 2]), _raw_trees)
@settings(max_examples=300)
def test_least_is_the_weight_with_every_variable_at_w0(w0, raw):
    sig = Signature([("a", 0, w0, 0), ("b", 0, w0 + 1, 1), ("g", 1, 1, 2),
                     ("f", 2, 2, 3)])
    t = sig.intern(raw)
    at_w0 = Substitution({v: sig.app("a") for v in (0, 1, 2)})
    assert t.least == term_weight(instantiate(sig, t, at_w0)).constant
    assert sig.var(7).least == w0


def test_linear_expr_drops_zero_coeffs():
    e = LinearExpr(1, {0: 0, 1: 2})
    assert dict(e._coeffs) == {1: 2}
    assert LinearExpr(0, {0: 1}) - LinearExpr(0, {0: 1}) == LinearExpr(0)


# -- positivity checks signed from least image weights -------------------------

def one_check_diagram(sig, expr):
    """A diagram whose root leads to one visited positivity check on
    ``expr``, each edge of it to a visited success node of its own.
    Returns the diagram and the id the walk answers for each label."""
    tod = Tod(make_order("kbo", sig))
    check = TodNode(NodeKind.POS, expr=expr)
    tod.root.mid.refs -= 1      # the exit, whose slot _link3 overwrites
    tod._link3(tod.root, None, check, None)
    check.tpo = tod.tpo_store.empty
    succs = []
    for eq_id in (1, 2, 3):
        succ = TodNode(NodeKind.SUCCESS, eq=Equality(eq_id, None, None))
        succ.tpo = tod.tpo_store.empty
        tod._link3(succ, None, tod.exit, None)
        succs.append(succ)
    tod._link3(check, *succs)   # gt, mid (GEQ) and nge
    answers = {Label.GT: 1, Label.GEQ: 2, Label.NGE: 3}
    tod.validate()
    return tod, answers


# images of x0..x3: none (unbound), ground, or over x100, x101 and the
# expression's own x0..x3, which two bindings may share; an image that holds
# a variable sigma leaves unbound can cancel it
_images = st.none() | st.recursive(
    st.sampled_from([0, 1, 2, 3, 100, 101, "a", "b"]),
    lambda leaf: st.tuples(st.just("g"), st.tuples(leaf))
    | st.tuples(st.just("f"), st.tuples(leaf, leaf)),
    max_leaves=6)


@given(st.sampled_from([1, 2]), st.integers(-8, 8),
       st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=4),
       st.lists(_images, min_size=4, max_size=4))
@settings(max_examples=400, deadline=None)
# x1 - x0 with x0 unbound and x1 := g(x0) is 1: GT, although x0's
# coefficient is negative
@example(1, 0, {0: -1, 1: 1}, [None, ("g", (0,)), None, None])
def test_walk_signs_positivity_as_sign_does(w0, constant, coeffs, images):
    sig = Signature([("a", 0, w0, 0), ("b", 0, w0 + 1, 1), ("g", 1, 1, 2),
                     ("f", 2, 2, 3)])
    sigma = Substitution({v: sig.intern(raw)
                          for v, raw in enumerate(images) if raw is not None})
    # the least weight the walk reads off an image is its weight with every
    # free variable at a, |a| = w0
    at_w0 = Substitution({v: sig.app("a") for v in (0, 1, 2, 3, 100, 101)})
    for img in sigma._m.values():
        least = term_weight(instantiate(sig, img, at_w0))
        assert img.least == least.constant
    e = LinearExpr(constant, coeffs)
    tod, answers = one_check_diagram(sig, e)
    assert tod.retrieve(sigma) == [answers[e.sign(w0, sigma)]]
