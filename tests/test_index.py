import random
import sys

import pytest

from helpers import ScenarioChecker
from todx import (DuplicateEqualityError, IndexMode, MalformedEqualityError,
                  NodeKind, PostOrderingIndex, Signature, Substitution,
                  UnknownEqualityError, canonicalize_equality, make_order)
from todx.index import PROMOTE_AFTER

MODES = ("off", "on", "shared")


@pytest.fixture
def swap_setup(sig):
    x, y = sig.var(0), sig.var(1)
    l = sig.app("f", [x, y])
    return l, sig.app("f", [y, x]), sig.app("f", [x, x])


def make_index(sig, mode, order="kbo"):
    return PostOrderingIndex(sig, order, mode)


def test_shared_mode_one_group_one_tod(sig, swap_setup):
    l, r1, r2 = swap_setup
    idx = make_index(sig, "shared")
    idx.insert(l, r1)
    idx.insert(l, r2)
    st = idx.snapshot_stats()
    assert st.tods == 1 and st.demodulators == 2
    assert len(idx.tods()) == 1
    assert sum(n.kind.value == "success" for n in idx.tods()[0].nodes()) == 2


def test_per_equality_mode_two_tods(sig, swap_setup):
    l, r1, r2 = swap_setup
    idx = make_index(sig, "on")
    idx.insert(l, r1)
    idx.insert(l, r2)
    assert idx.snapshot_stats().tods == 2
    assert len(idx.tods()) == 2


def test_alpha_renamed_lhs_lands_in_same_group(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    idx.insert(l, r1)
    u, v = sig.var(7), sig.var(8)
    with pytest.raises(DuplicateEqualityError):
        idx.insert(sig.app("f", [u, v]), sig.app("f", [v, u]))
    assert len(idx.groups()) == 1


def test_duplicate_live_pair_rejected(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "off")
    idx.insert(l, r1)
    with pytest.raises(DuplicateEqualityError):
        idx.insert(l, r1)


def test_deleted_pair_can_be_reinserted(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    e1 = idx.insert(l, r1)
    idx.remove(e1)
    e2 = idx.insert(l, r1)
    assert e2 != e1
    a = sig.app("a")
    sigma = Substitution({0: sig.app("f", [a, a]), 1: a})
    assert idx.query(l, sigma) == [e2]


@pytest.mark.parametrize("mode", ["off", "on", "shared"])
def test_removed_pair_reinserts_in_every_mode(sig, swap_setup, mode):
    l, r1, r2 = swap_setup
    idx = make_index(sig, mode)
    e1 = idx.insert(l, r1)
    e2 = idx.insert(l, r2)
    idx.remove(e1)
    idx.remove(e2)          # the group goes with its last live equality
    e3 = idx.insert(l, r1)
    with pytest.raises(DuplicateEqualityError):
        idx.insert(l, r1)
    a = sig.app("a")
    sigma = Substitution({0: sig.app("f", [a, a]), 1: a})
    assert idx.query(l, sigma) == [e3]
    assert idx.equality(e3).rhs is r1


def test_rhs_with_fresh_variables_rejected(sig):
    x, z = sig.var(0), sig.var(5)
    with pytest.raises(MalformedEqualityError):
        make_index(sig, "off").insert(sig.app("g", [x]), sig.app("f", [x, z]))


def test_remove_unknown_and_idempotent(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    e1 = idx.insert(l, r1)
    created = idx.snapshot_stats().nodes_created
    idx.remove(e1)
    idx.remove(e1)
    st = idx.snapshot_stats()
    assert st.demodulators == 0
    assert st.nodes_created == created  # dropping the emptied group inserts nothing
    with pytest.raises(UnknownEqualityError):
        idx.remove(999)


@pytest.mark.parametrize("mode", ["off", "on", "shared"])
def test_remove_again_is_noop_for_every_assigned_id(sig, swap_setup, mode):
    # a compacted diagram keeps no trace of e1, yet removing it again,
    # or removing any other assigned id that is gone, still does nothing
    l, r1, r2 = swap_setup
    idx = make_index(sig, mode)
    e1 = idx.insert(l, r1)
    e2 = idx.insert(l, r2)
    e3 = idx.insert(l, sig.app("g", [l]))
    idx.remove(e1)
    idx.remove(e2)
    for eq_id in (e1, e2, e1):
        idx.remove(eq_id)
    assert idx.snapshot_stats().demodulators == 1
    assert idx.groups() == [(l, 1)]
    with pytest.raises(UnknownEqualityError):
        idx.remove(999)
    with pytest.raises(UnknownEqualityError):
        idx.remove(0)
    assert idx.equality(e3).eq_id == e3


@pytest.mark.parametrize("mode", ["off", "on", "shared"])
def test_equality_of_removed_id_is_unknown(sig, swap_setup, mode):
    l, r1, _ = swap_setup
    idx = make_index(sig, mode)
    e1 = idx.insert(l, r1)
    assert idx.equality(e1).rhs is r1
    idx.remove(e1)
    with pytest.raises(UnknownEqualityError):
        idx.equality(e1)


@pytest.mark.parametrize("bad_id", [True, 1.0, "1", None, [1]],
                         ids=["bool", "float", "str", "none", "list"])
def test_only_int_ids_name_equalities(sig, swap_setup, bad_id):
    # True == 1.0 == 1 as dict keys; none of them may alias equality 1
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    e1 = idx.insert(l, r1)
    assert e1 == 1
    with pytest.raises(UnknownEqualityError):
        idx.equality(bad_id)
    with pytest.raises(UnknownEqualityError):
        idx.remove(bad_id)
    assert idx.equality(e1).rhs is r1
    assert idx.snapshot_stats().demodulators == 1


def success_ids(tod) -> list:
    """Distinct ids of the equalities with a success node, in node order."""
    return list(dict.fromkeys(n.eq.eq_id for n in tod.nodes()
                              if n.kind is NodeKind.SUCCESS))


def test_per_equality_lifecycle(sig, swap_setup):
    l, r1, r2 = swap_setup
    a = sig.app("a")
    faa = sig.app("f", [a, a])
    idx = make_index(sig, "on")

    def naive():
        return idx.snapshot_stats().naive_comparisons

    def tods():
        assert len(idx.tods()) == idx.snapshot_stats().tods
        return idx.tods()

    # inserted before the group's first query: a diagram of its own
    e1 = idx.insert(l, r1)
    d1, = tods()
    assert success_ids(d1) == [e1]
    assert idx.query(l, Substitution({0: a, 1: a})) == []
    # later inserts are young: no diagram, and removing one is a pop
    gone = idx.insert(l, a)
    assert tods() == [d1]
    idx.remove(gone)
    assert tods() == [d1] and success_ids(d1) == [e1]
    e2, e4 = idx.insert(l, r2), idx.insert(l, a)
    assert tods() == [d1]
    # sigma: e1 (diagram) and e4 (young); tau: e2 and e4 (both young).
    # Young equalities are checked after the walk, unless it answered a
    # first-only query.
    sigma = Substitution({0: faa, 1: a})
    tau = Substitution({0: a, 1: faa})
    checks = ((sigma, "all", [e1, e4], True), (sigma, "first", [e1], False),
              (tau, "first", [e2], True), (tau, "all", [e2, e4], True))
    for k in range(PROMOTE_AFTER):
        sub, want, expect, checked = checks[k % len(checks)]
        before = naive()
        assert idx.query(l, sub, want) == expect, k
        assert (naive() > before) is checked, k
    # PROMOTE_AFTER queries since their insert leave them young; the
    # front of the next one gives each its own diagram, oldest first
    assert tods() == [d1]
    before = naive()
    assert idx.query(l, tau) == [e2, e4]
    assert naive() == before
    assert tods()[0] is d1
    assert [success_ids(t) for t in tods()] == [[e1], [e2], [e4]]
    assert idx.query(l, tau, want="first") == [e2]
    assert idx.query(l, sigma) == [e1, e4]
    # removing a promoted member drops its diagram only, and sends no
    # equality back to the FIFO
    d4 = tods()[2]
    idx.remove(e2)
    assert tods() == [d1, d4]
    assert idx.query(l, tau, want="first") == [e4]
    assert idx.query(l, tau) == [e4]
    assert naive() == before
    idx.remove(e1)
    assert tods() == [d4]


def test_removing_a_member_dissolves_the_shared_diagram(sig, swap_setup):
    l, r1, r2 = swap_setup
    a = sig.app("a")
    idx = make_index(sig, "shared")
    e1, e2, e3 = (idx.insert(l, r) for r in (r1, r2, a))
    tod, = idx.tods()
    sigma = Substitution({0: a, 1: sig.app("f", [a, a])})
    assert idx.query(l, sigma) == [e2, e3]
    assert idx.snapshot_stats().naive_comparisons == 0
    idx.remove(e2)
    # the diagram goes with the member; the survivors are young again,
    # and no diagram exists until one of them joins
    assert idx.tods() == [] and idx.snapshot_stats().tods == 0
    assert idx.query(l, sigma) == [e3]
    assert idx.snapshot_stats().naive_comparisons > 0
    for _ in range(PROMOTE_AFTER - 1):
        assert idx.query(l, sigma) == [e3]
    assert idx.tods() == []
    # the front of the next query promotes both, in insertion order,
    # into a new diagram
    naive = idx.snapshot_stats().naive_comparisons
    assert idx.query(l, sigma) == [e3]
    fresh, = idx.tods()
    assert fresh is not tod and success_ids(fresh) == [e1, e3]
    assert idx.snapshot_stats().naive_comparisons == naive
    fresh.validate()
    # removing a member before the group's first query leaves e2 young;
    # e3 must queue behind it, or the walk would answer e3 first
    for mode in MODES:
        idx = make_index(sig, mode)
        e1, e2 = idx.insert(l, r1), idx.insert(l, r2)
        idx.remove(e1)
        e3 = idx.insert(l, a)
        assert idx.query(l, sigma, want="first") == [e2], mode
        assert idx.query(l, sigma) == [e2, e3], mode


def test_query_unknown_lhs_is_empty(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    idx.insert(l, r1)
    before = idx.snapshot_stats().queries
    assert idx.query(sig.app("g", [sig.var(0)]), Substitution()) == []
    assert idx.snapshot_stats().queries == before


def test_query_extra_bindings_ignored(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "off")
    e1 = idx.insert(l, r1)
    a = sig.app("a")
    sigma = Substitution({0: sig.app("f", [a, a]), 1: a, 9: sig.app("b")})
    assert idx.query(l, sigma) == [e1]


def test_query_with_renamed_lhs(sig, swap_setup):
    # querying with an alpha-variant of the stored lhs remaps the bindings
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    e1 = idx.insert(l, r1)
    u, v = sig.var(3), sig.var(4)
    a = sig.app("a")
    sigma = Substitution({3: sig.app("f", [a, a]), 4: a})
    assert idx.query(sig.app("f", [u, v]), sigma) == [e1]


def test_documented_query_verdicts(sig, swap_setup):
    l, r1, r2 = swap_setup
    a = sig.app("a")
    faa = sig.app("f", [a, a])
    for mode in ("off", "on", "shared"):
        idx = make_index(sig, mode)
        e1 = idx.insert(l, r1)
        e2 = idx.insert(l, r2)
        assert idx.query(l, Substitution({0: a, 1: faa})) == [e2]
        assert idx.query(l, Substitution({0: a, 1: a})) == []
        assert idx.query(l, Substitution({0: faa, 1: a})) == [e1]
        assert idx.query(l, Substitution({0: faa, 1: a}), want="first") == [e1]


def test_first_mode_is_prefix_of_all(sig, swap_setup):
    l, r1, r2 = swap_setup
    rng = random.Random(4)
    from helpers import random_subst
    for mode in ("off", "on", "shared"):
        idx = make_index(sig, mode)
        idx.insert(l, r1)
        idx.insert(l, r2)
        for _ in range(40):
            sigma = random_subst(rng, sig, [0, 1], 3)
            assert idx.query(l, sigma, "first") == idx.query(l, sigma)[:1]


def test_stats_zero_after_construction(sig):
    st = make_index(sig, "shared").snapshot_stats()
    assert st.queries == st.answers == st.demodulators == st.tods == 0
    assert st.nodes_created.total == 0


def test_stats_after_one_insert(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    idx.insert(l, r1)
    st = idx.snapshot_stats()
    assert st.tods == 1 and st.demodulators == 1
    assert st.nodes_created.term == 1 and st.nodes_created.success == 1
    assert st.nodes_created.pos == 0


def test_queries_counter_increments(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    idx.insert(l, r1)
    a = sig.app("a")
    idx.query(l, Substitution({0: a, 1: a}))
    idx.query(l, Substitution({0: a, 1: a}))
    assert idx.snapshot_stats().queries == 2


def test_snapshot_is_independent(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    idx.insert(l, r1)
    snap = idx.snapshot_stats()
    idx.query(l, Substitution({0: sig.app("a"), 1: sig.app("a")}))
    assert snap.queries == 0
    assert idx.snapshot_stats().queries == 1


def test_answers_match_results_plus_exits(sig, swap_setup):
    l, r1, r2 = swap_setup
    idx = make_index(sig, "shared")
    idx.insert(l, r1)
    idx.insert(l, r2)
    a, b = sig.app("a"), sig.app("b")
    faa = sig.app("f", [a, a])
    total_results = 0
    exits = 0
    for sigma in (Substitution({0: faa, 1: a}), Substitution({0: a, 1: a}),
                  Substitution({0: b, 1: a}), Substitution({0: faa, 1: b})):
        total_results += len(idx.query(l, sigma))
        exits += 1  # "all" mode always runs to the exit
    assert idx.snapshot_stats().answers == total_results + exits


def test_young_answers_and_checks_are_counted(sig, swap_setup):
    # r2 arrives after the group's first query: it is young, answered by
    # a closure comparison after the walk, as ``off`` answers every query
    l, r1, r2 = swap_setup
    idx = make_index(sig, "shared")
    e1 = idx.insert(l, r1)
    a, b = sig.app("a"), sig.app("b")
    faa = sig.app("f", [a, a])
    assert idx.query(l, Substitution({0: a, 1: a})) == []
    e2 = idx.insert(l, r2)
    assert [n.eq.eq_id for n in idx.tods()[0].nodes()
            if n.kind.value == "success"] == [e1]
    assert idx.snapshot_stats().naive_comparisons == 0
    total_results, exits = 0, 1
    for sigma, want in ((Substitution({0: faa, 1: a}), [e1]),
                        (Substitution({0: a, 1: faa}), [e2]),
                        (Substitution({0: b, 1: a}), [e1])):
        got = idx.query(l, sigma)
        assert got == want
        total_results += len(got)
        exits += 1
    st = idx.snapshot_stats()
    assert st.answers == total_results + exits
    assert st.naive_comparisons > 0
    assert idx.query(l, Substitution({0: a, 1: faa}), want="first") == [e2]


def test_mode_agreement_random(sig):
    for seed in range(120):
        rng = random.Random(seed)
        checker = ScenarioChecker(rng, rng.choice(["kbo", "lpo"]))
        checker.insert_random()
        for _ in range(14):
            checker.random_op()


def test_query_idempotent_on_state(sig, swap_setup):
    l, r1, r2 = swap_setup
    for mode in ("on", "shared"):
        idx = make_index(sig, mode)
        idx.insert(l, r1)
        idx.insert(l, r2)
        a = sig.app("a")
        sigma = Substitution({0: sig.app("f", [a, a]), 1: a})
        first = idx.query(l, sigma)
        processed = idx.snapshot_stats().nodes_processed.total
        assert idx.query(l, sigma) == first
        assert idx.snapshot_stats().nodes_processed.total == processed


def test_canonicalize_equality_numbering(sig):
    u, v = sig.var(5), sig.var(9)
    lhs = sig.app("f", [v, u])
    rhs = sig.app("f", [u, v])
    l_c, r_c, mapping = canonicalize_equality(sig, lhs, rhs)
    assert l_c is sig.app("f", [sig.var(0), sig.var(1)])
    assert r_c is sig.app("f", [sig.var(1), sig.var(0)])
    assert mapping == {9: 0, 5: 1}


def test_index_mode_parse(sig):
    assert IndexMode("off") is IndexMode.OFF
    assert IndexMode("on") is IndexMode.PER_EQUALITY
    assert IndexMode(IndexMode.SHARED_BY_LHS) is IndexMode.SHARED_BY_LHS
    index = PostOrderingIndex(sig, "kbo", "shared")
    assert index.mode is IndexMode.SHARED_BY_LHS
    with pytest.raises(ValueError):
        PostOrderingIndex(sig, "kbo", "both")


def test_order_is_built_over_the_index_signature(sig):
    # a prebuilt order could weigh symbols by another signature
    with pytest.raises(ValueError):
        PostOrderingIndex(sig, make_order("kbo", sig))
    assert PostOrderingIndex(sig, "lpo").order.signature is sig


# -- the cached canonical lhs -------------------------------------------------

def spy_substitutions(idx):
    """Record the canonical substitutions ``idx`` passes on to its checks."""
    seen = []
    if idx.mode is IndexMode.OFF:
        compare = idx.order.compare_closure

        def spy(s, sigma, t, theta):
            seen.append(sigma)
            return compare(s, sigma, t, theta)

        idx.order.compare_closure = spy
    else:
        for tod in idx.tods():
            def spy(sigma, first_only=False, results=None,
                    _retrieve=tod.retrieve):
                seen.append(sigma)
                return _retrieve(sigma, first_only, results)

            tod.retrieve = spy
    return seen


@pytest.mark.parametrize("mode", MODES)
def test_alpha_renamed_query_lhs_answers_alike(sig, swap_setup, mode):
    l, r1, r2 = swap_setup
    idx = make_index(sig, mode)
    idx.insert(l, r1)
    idx.insert(l, r2)
    renamed = sig.app("f", [sig.var(5), sig.var(3)])
    a, b = sig.app("a"), sig.app("b")
    images = [a, b, sig.app("g", [a]), sig.app("f", [a, b]), sig.var(0),
              sig.var(2), sig.app("g", [sig.var(1)])]
    rng = random.Random(0)
    for _ in range(60):
        s, t = rng.choice(images), rng.choice(images)
        want = idx.query(l, Substitution({0: s, 1: t}))
        assert idx.query(renamed, Substitution({5: s, 3: t})) == want


@pytest.mark.parametrize("mode", MODES)
def test_binding_renamed_onto_itself_is_dropped(sig, swap_setup, mode):
    l, r1, r2 = swap_setup
    idx = make_index(sig, mode)
    idx.insert(l, r1)
    idx.insert(l, r2)
    seen = spy_substitutions(idx)
    # x5 -> x0 and x3 -> x1 are identities once x5, x3 become x0, x1
    sigma = Substitution({5: sig.var(0), 3: sig.var(1)})
    assert len(sigma) == 2
    got = idx.query(sig.app("f", [sig.var(5), sig.var(3)]), sigma)
    assert got == idx.query(l, Substitution())
    assert seen and all(len(s) == 0 and not s._m for s in seen)


@pytest.mark.parametrize("mode", MODES)
def test_bindings_outside_the_lhs_are_ignored(sig, swap_setup, mode):
    l, r1, r2 = swap_setup
    idx = make_index(sig, mode)
    idx.insert(l, r1)
    idx.insert(l, r2)
    a, b = sig.app("a"), sig.app("b")
    faa = sig.app("f", [a, a])
    want = idx.query(l, Substitution({0: faa, 1: a}))
    seen = spy_substitutions(idx)
    got = idx.query(l, Substitution({0: faa, 1: a, 2: b, 9: sig.var(4)}))
    assert got == want
    assert seen and all(dict(s.items()) == {0: faa, 1: a} for s in seen)


@pytest.mark.parametrize("mode", MODES)
def test_dropped_group_recreated_answers_from_the_new_one(sig, swap_setup, mode):
    l, r1, r2 = swap_setup
    idx = make_index(sig, mode)
    a = sig.app("a")
    faa = sig.app("f", [a, a])
    sigma = Substitution({0: faa, 1: a})
    renamed = sig.app("f", [sig.var(7), sig.var(6)])
    e1 = idx.insert(l, r1)
    assert idx.query(renamed, Substitution({7: faa, 6: a})) == [e1]
    idx.remove(e1)
    assert idx.groups() == []
    assert idx.query(l, sigma) == []
    assert idx.query(renamed, Substitution({7: faa, 6: a})) == []
    e2 = idx.insert(renamed, sig.app("f", [sig.var(7), sig.var(7)]))
    assert idx.query(l, Substitution({0: a, 1: faa})) == [e2]
    assert idx.query(renamed, Substitution({7: a, 6: faa})) == [e2]
    assert idx.query(l, sigma) == []


def test_canonical_lhs_is_cached_in_the_term(sig, swap_setup):
    l, r1, _ = swap_setup
    idx = make_index(sig, "shared")
    idx.insert(l, r1)
    renamed = sig.app("f", [sig.var(5), sig.var(3)])
    assert renamed._canon is None
    sigma = Substitution({5: sig.app("a")})
    idx.query(renamed, sigma)
    cached = renamed._canon
    assert cached == (l, (5, 3))
    idx.query(renamed, sigma)
    assert renamed._canon is cached


@pytest.mark.parametrize("mode", MODES)
def test_deep_lhs_query_and_insert(mode):
    sig = Signature([("a", 0, 1, 0), ("g", 1, 1, 1), ("f", 2, 1, 2)])
    assert sys.getrecursionlimit() < 10 ** 4
    x = sig.var(0)
    deep = x
    for _ in range(10 ** 4):
        deep = sig.app("g", [deep])
    idx = PostOrderingIndex(sig, "lpo", mode)
    idx.insert(sig.app("f", [x, sig.var(1)]), sig.app("f", [sig.var(1), x]))
    assert idx.query(deep, Substitution({0: sig.app("a")})) == []
    eq_id = idx.insert(deep, x)
    assert idx.equality(eq_id).lhs is deep


@pytest.mark.parametrize("mode", MODES)
def test_deep_lhs_retrieved_under_kbo(mode):
    # the lhs weight is summed over 10^4 nested subterms
    sig = Signature([("a", 0, 1, 0), ("g", 1, 1, 1)])
    assert sys.getrecursionlimit() < 10 ** 4
    x = sig.var(0)
    deep = x
    for _ in range(10 ** 4):
        deep = sig.app("g", [deep])
    idx = PostOrderingIndex(sig, "kbo", mode)
    eq_id = idx.insert(deep, x)
    assert idx.query(deep, Substitution({0: sig.app("a")})) == [eq_id]
