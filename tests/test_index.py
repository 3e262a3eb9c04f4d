import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (PROMOTE_SETTINGS, SIG_SHAPES, ScenarioChecker,
                     random_signature, random_subst, random_term, subterms)
from oracles import instantiate, ref_compare
from todx import (DuplicateEqualityError, IndexMode, Label, LinearExpr,
                  MalformedEqualityError, NodeKind, PostOrderingIndex,
                  Signature, SignatureError, Substitution, UnknownEqualityError,
                  canonicalize_equality, make_order, term_weight)
import todx.index
import todx.ordering
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


# -- one walk over a group's diagrams -----------------------------------------

def _third_of_four_setup(sig):
    """f(x,y) and four rhs; under {x -> a, y -> g(a)} only the third is
    ordered, under KBO and LPO alike."""
    x, y = sig.var(0), sig.var(1)
    rhss = [sig.app("f", [y, x]), sig.app("f", [y, y]), sig.app("f", [x, x]),
            sig.app("f", [y, sig.app("f", [x, x])])]
    a = sig.app("a")
    return sig.app("f", [x, y]), rhss, Substitution({0: a, 1: sig.app("g", [a])})


@pytest.mark.parametrize("order", ["kbo", "lpo"])
def test_one_walk_stops_at_the_first_success_in_any_diagram(sig, order):
    l, rhss, sigma = _third_of_four_setup(sig)
    ordered = [r for r in rhss
               if ref_compare(sig, order, instantiate(sig, l, sigma),
                              instantiate(sig, r, sigma)) is Label.GT]
    assert ordered == [rhss[2]]
    idx = make_index(sig, "on", order)
    ids = [idx.insert(l, r) for r in rhss]
    # inserted before the first query: a diagram each
    assert len(idx.tods()) == 4
    # the same group without its fourth member
    three = make_index(sig, "on", order)
    for r in rhss[:3]:
        three.insert(l, r)
    assert idx.query(l, sigma, want="first") == [ids[2]]
    assert three.query(l, sigma, want="first") == [ids[2]]
    st, st3 = idx.snapshot_stats(), three.snapshot_stats()
    # the fourth diagram is never entered
    assert st.nodes_traversed == st3.nodes_traversed
    assert st.nodes_processed == st3.nodes_processed
    assert not any(n.visited for n in idx.tods()[3].nodes()[1:])
    # one id, and the exits of the first two diagrams
    assert st.answers == 3
    assert idx.query(l, sigma) == [ids[2]]
    assert idx.snapshot_stats().answers == 3 + 1 + 4


@pytest.mark.parametrize("order", ["kbo", "lpo"])
def test_first_only_is_the_first_of_all_in_every_mode(sig, order):
    # four members inserted before the first query, so on holds four
    # diagrams; under each query only the second, third or fourth member
    # is ordered, and each query runs twice, the second time on the
    # settled paths
    x, y = sig.var(0), sig.var(1)
    a, b, ga = sig.app("a"), sig.app("b"), sig.app("g", [sig.app("a")])
    lhs = sig.app("f", [x, y])
    rhss = [sig.app("f", [x, sig.app("g", [x])]), sig.app("f", [y, x]),
            sig.app("f", [x, x]), sig.app("f", [b, x])]
    queries = [(Substitution({0: b, 1: a}), 2), (Substitution({0: a, 1: b}), 3),
               (Substitution({0: ga, 1: ga}), 4)]
    idxs = [make_index(sig, mode, order) for mode in MODES]
    for idx in idxs:
        assert [idx.insert(lhs, r) for r in rhss] == [1, 2, 3, 4]
    assert len(idxs[1].tods()) == 4
    for sigma, only in queries * 2:
        for idx in idxs:
            assert idx.query(lhs, sigma) == [only], (idx.mode, sigma)
            assert idx.query(lhs, sigma, "first") == [only], (idx.mode, sigma)


def _walk_per_diagram(tods, sigma, first_only=False, results=None):
    """The walk over a group's diagrams as a loop of one-diagram walks."""
    results = [] if results is None else results
    for tod in tods:
        tod.retrieve(sigma, first_only, results)
        if first_only and results:
            break
    return results


@pytest.mark.parametrize("order", ["kbo", "lpo"])
def test_one_walk_matches_a_walk_per_diagram(order, monkeypatch):
    # two ``on`` indexes take the same operations; one queries through a
    # loop that calls ``Tod.retrieve`` per diagram.  Results and every
    # counter must agree after each query.
    walk = todx.index.retrieve
    diagrams = 0
    for promote_after in PROMOTE_SETTINGS:
        monkeypatch.setattr(todx.index, "PROMOTE_AFTER", promote_after)
        for seed in range(30):
            rng = random.Random(seed)
            sig = random_signature(rng, rng.choice(list(SIG_SHAPES)))
            keys = []
            for _ in range(2):
                key = random_term(rng, sig, [0, 1], 1)
                while key.sym is None:
                    key = random_term(rng, sig, [0, 1], 1)
                keys.append(key)
            one, per = (make_index(sig, "on", order) for _ in range(2))
            for step in range(60):
                roll = rng.random()
                if step < 8 or roll < 0.2:
                    lhs = rng.choice(keys)
                    lvars = sorted({u.vid for u in subterms(lhs)
                                    if u.sym is None})
                    rhs = random_term(rng, sig, lvars or [0], 2)
                    try:
                        eq_id = one.insert(lhs, rhs)
                    except (MalformedEqualityError, DuplicateEqualityError):
                        continue
                    assert per.insert(lhs, rhs) == eq_id
                elif roll < 0.3:
                    live = list(one._live)
                    if live:
                        eq_id = rng.choice(live)
                        one.remove(eq_id)
                        per.remove(eq_id)
                else:
                    lhs = rng.choice(keys)
                    lvars = sorted({u.vid for u in subterms(lhs)
                                    if u.sym is None})
                    sigma = random_subst(rng, sig, lvars, 2)
                    want = rng.choice(["all", "first"])
                    diagrams = max([diagrams] + [len(g.tods) for g in
                                                 one._groups.values()])
                    got = one.query(lhs, sigma, want)
                    monkeypatch.setattr(todx.index, "retrieve",
                                        _walk_per_diagram)
                    expected = per.query(lhs, sigma, want)
                    monkeypatch.setattr(todx.index, "retrieve", walk)
                    assert got == expected, (seed, step)
                    assert one.snapshot_stats() == per.snapshot_stats(), (
                        seed, step)
    # some group held several diagrams when queried
    assert diagrams >= 6


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


@pytest.mark.parametrize("mode", MODES)
def test_insert_refuses_another_signatures_term(mode):
    # g and h trade indexes between the signatures: rebuilt in A, B's h(x)
    # would take the interner slot of A's g(x)
    a_sig = Signature([("a", 0, 1, 0), ("g", 1, 1, 1), ("h", 1, 5, 2),
                       ("f", 2, 1, 3)])
    b_sig = Signature([("a", 0, 1, 0), ("h", 1, 5, 1), ("g", 1, 1, 2),
                       ("f", 2, 1, 3)])
    x = b_sig.var(0)
    idx = make_index(a_sig, mode)
    with pytest.raises(SignatureError, match="symbol h"):
        idx.insert(b_sig.app("f", [b_sig.app("h", [x]), x]),
                   b_sig.app("f", [x, x]))
    gx = a_sig.app("g", [a_sig.var(0)])
    assert repr(gx) == "g(x0)" and gx.least == 1 + a_sig.w0
    assert idx.groups() == []


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


class _GroupClock:
    """Queries one group and records the group query counts at whose
    front the index looked at the young FIFO (called ``_promote``)."""

    def __init__(self, idx, lhs, sigma):
        self.idx, self.lhs, self.sigma = idx, lhs, sigma
        self.queries = 0
        self.promotions = []
        promote = idx._promote

        def spy(group):
            self.promotions.append(self.queries)
            promote(group)

        idx._promote = spy

    def ask(self) -> bool:
        """Query once; True if it checked a young equality."""
        before = self.idx.snapshot_stats().naive_comparisons
        self.idx.query(self.lhs, self.sigma)
        self.queries += 1
        return self.idx.snapshot_stats().naive_comparisons > before


def _members(idx) -> list:
    return [success_ids(t) for t in idx.tods()]


@pytest.mark.parametrize("mode", ["on", "shared"])
def test_removed_young_head_leaves_the_next_on_its_own_stamp(sig, swap_setup,
                                                             mode):
    l, r1, r2 = swap_setup
    y = sig.var(1)
    a = sig.app("a")
    idx = make_index(sig, mode)
    clock = _GroupClock(idx, l, Substitution({0: sig.app("f", [a, a]), 1: a}))
    e1 = idx.insert(l, r1)
    assert not clock.ask()
    e2 = idx.insert(l, r2)                      # stamped 1
    for _ in range(5):
        assert clock.ask()
    e3 = idx.insert(l, sig.app("f", [y, y]))    # stamped 6
    idx.remove(e2)
    # e3 is young through query 6 + PROMOTE_AFTER - 1, and joins a
    # diagram at the front of query 6 + PROMOTE_AFTER, not before or after
    while clock.queries < 6 + PROMOTE_AFTER:
        assert clock.ask(), clock.queries
        assert _members(idx) == [[e1]], clock.queries
    assert not clock.ask()
    assert _members(idx) == ([[e1], [e3]] if mode == "on" else [[e1, e3]])
    # the removed head left the FIFO due at its own stamp: one early
    # look there, then none until e3 is due, and none once it is empty
    for _ in range(3):
        assert not clock.ask()
    assert clock.promotions == [1 + PROMOTE_AFTER, 6 + PROMOTE_AFTER]


@pytest.mark.parametrize("mode", ["on", "shared"])
def test_dissolve_restamps_the_survivors_for_promotion(sig, swap_setup, mode):
    l, r1, r2 = swap_setup
    y = sig.var(1)
    a = sig.app("a")
    idx = make_index(sig, mode)
    clock = _GroupClock(idx, l, Substitution({0: sig.app("f", [a, a]), 1: a}))
    e1, e2 = idx.insert(l, r1), idx.insert(l, r2)   # both join at once
    for _ in range(3):
        assert not clock.ask()
    e3 = idx.insert(l, sig.app("f", [y, y]))        # stamped 3
    for _ in range(7):
        assert clock.ask()
    idx.remove(e1)
    if mode == "shared":
        # the diagram dissolves; e2 and e3 restart young, stamped 10
        held, due, promoted = [], 10 + PROMOTE_AFTER, [[e2, e3]]
    else:
        # e1's diagram alone goes; e3 keeps its stamp
        held, due, promoted = [[e2]], 3 + PROMOTE_AFTER, [[e2], [e3]]
    while clock.queries < due:
        assert clock.ask(), clock.queries
        assert _members(idx) == held, clock.queries
    assert not clock.ask()
    assert _members(idx) == promoted
    assert clock.promotions == [due]


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
    l_c, r_c = canonicalize_equality(sig, lhs, rhs)
    assert l_c is sig.app("f", [sig.var(0), sig.var(1)])
    assert r_c is sig.app("f", [sig.var(1), sig.var(0)])


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

def spy_substitutions(idx, monkeypatch):
    """Record the canonical substitutions ``idx`` passes on to its checks:
    in ``off`` to its order's comparisons, otherwise to the walk over a
    group's diagrams, where the index enters it."""
    seen = []
    if idx.mode is IndexMode.OFF:
        compare = idx.order.compare_closure

        def spy(s, sigma, t, theta):
            seen.append(sigma)
            return compare(s, sigma, t, theta)

        idx.order.compare_closure = spy
    else:
        walk = todx.index.retrieve

        def spy(tods, sigma, first_only=False, results=None):
            seen.append(sigma)
            return walk(tods, sigma, first_only, results)

        monkeypatch.setattr(todx.index, "retrieve", spy)
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
def test_binding_renamed_onto_itself_is_dropped(sig, swap_setup, mode,
                                                 monkeypatch):
    l, r1, r2 = swap_setup
    idx = make_index(sig, mode)
    idx.insert(l, r1)
    idx.insert(l, r2)
    seen = spy_substitutions(idx, monkeypatch)
    # x5 -> x0 and x3 -> x1 are identities once x5, x3 become x0, x1
    sigma = Substitution({5: sig.var(0), 3: sig.var(1)})
    assert len(sigma._m) == 2
    got = idx.query(sig.app("f", [sig.var(5), sig.var(3)]), sigma)
    assert got == idx.query(l, Substitution())
    assert seen and all(not s._m for s in seen)


@pytest.mark.parametrize("mode", MODES)
def test_bindings_outside_the_lhs_are_ignored(sig, swap_setup, mode):
    l, r1, r2 = swap_setup
    idx = make_index(sig, mode)
    idx.insert(l, r1)
    idx.insert(l, r2)
    a, b = sig.app("a"), sig.app("b")
    faa = sig.app("f", [a, a])
    want = idx.query(l, Substitution({0: faa, 1: a}))
    got = idx.query(l, Substitution({0: faa, 1: a, 2: b, 9: sig.var(4)}))
    assert got == want


@pytest.mark.parametrize("mode", MODES)
def test_canonical_lhs_passes_its_substitution_through(sig, swap_setup, mode,
                                                       monkeypatch):
    l, r1, r2 = swap_setup
    idx = make_index(sig, mode)
    idx.insert(l, r1)
    idx.insert(l, r2)
    a = sig.app("a")
    faa = sig.app("f", [a, a])
    for sigma in (Substitution({0: faa, 1: a}), Substitution({0: faa}),
                  Substitution({1: sig.var(0)}),
                  Substitution({0: faa, 2: a})):
        seen = spy_substitutions(idx, monkeypatch)
        idx.query(l, sigma)
        assert seen and all(s is sigma for s in seen), sigma
    # a renamed lhs takes the renaming
    sigma = Substitution({3: faa, 1: a})
    seen = spy_substitutions(idx, monkeypatch)
    idx.query(sig.app("f", [sig.var(3), sig.var(1)]), sigma)
    assert seen and all(s is not sigma for s in seen), sigma


@pytest.mark.parametrize("want", ["all", "first"])
@pytest.mark.parametrize("order", ["kbo", "lpo"])
@pytest.mark.parametrize("mode", MODES)
def test_extra_bindings_are_inert(sig, swap_setup, mode, order, want):
    # x5 occurs in x0's image only, where it stays free: binding it
    # changes nothing, and on the second pair x5 -> b would flip NGE
    # to GT were it applied
    l, r1, _ = swap_setup
    idx = make_index(sig, mode, order)
    e1 = idx.insert(l, r1)
    a, b = sig.app("a"), sig.app("b")
    x0_img = sig.app("f", [sig.var(5), a])
    for x1_img in (a, sig.app("f", [a, b])):
        bare = Substitution({0: x0_img, 1: x1_img})
        extra = Substitution({0: x0_img, 1: x1_img, 5: b})
        gt = ref_compare(sig, order, instantiate(sig, l, extra),
                         instantiate(sig, r1, extra)) is Label.GT
        for _ in range(3):
            assert idx.query(l, extra, want) == ([e1] if gt else [])
            assert idx.query(l, bare, want) == ([e1] if gt else [])


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


@pytest.mark.parametrize("mode", MODES)
def test_deep_terms_on_both_sides_compared_under_kbo(mode):
    # g^1500(f(x,y)) = g^1500(f(y,x)): the weights tie at every level, so
    # the comparison descends 1500 levels to f(g(a),a) > f(a,g(a)), one
    # step per level; the diagram modes compare along the path orderings
    # too, so they take seconds here
    sig = Signature([("a", 0, 1, 0), ("g", 1, 1, 1), ("f", 2, 1, 2)])
    assert sys.getrecursionlimit() < 1500
    x, y = sig.var(0), sig.var(1)
    lhs, rhs = sig.app("f", [x, y]), sig.app("f", [y, x])
    for _ in range(1500):
        lhs, rhs = sig.app("g", [lhs]), sig.app("g", [rhs])
    idx = PostOrderingIndex(sig, "kbo", mode)
    e1 = idx.insert(lhs, rhs)
    a = sig.app("a")
    assert idx.query(lhs, Substitution({0: sig.app("g", [a]), 1: a})) == [e1]
    if mode == "off":
        assert idx.snapshot_stats().naive_comparisons == 1500 + 2


@pytest.mark.parametrize("mode", MODES)
def test_deep_lhs_retrieved_under_lpo(mode):
    # g^(10^4)(x) = x under x := a, with a above g: LPO reaches the image
    # a through the last (and only) argument of each g, one loop turn per
    # level; the diagram modes compare g^(10^4)(x) with x as well
    sig = Signature([("a", 0, 1, 1), ("g", 1, 1, 0)])
    assert sys.getrecursionlimit() < 10 ** 4
    x = sig.var(0)
    deep = x
    for _ in range(10 ** 4):
        deep = sig.app("g", [deep])
    idx = PostOrderingIndex(sig, "lpo", mode)
    eq_id = idx.insert(deep, x)
    assert idx.query(deep, Substitution({0: sig.app("a")})) == [eq_id]
    if mode == "off":
        assert idx.snapshot_stats().naive_comparisons == 10 ** 4 + 1


@pytest.mark.parametrize("mode", MODES)
def test_deep_terms_on_both_sides_compared_under_lpo(mode):
    # g^1500(f(x,y)) = g^1500(f(y,x)): equal heads that differ only in
    # their last argument pair, so LPO descends 1500 levels in a loop to
    # f(g(a),a) > f(a,g(a))
    sig = Signature([("a", 0, 1, 0), ("g", 1, 1, 1), ("f", 2, 1, 2)])
    assert sys.getrecursionlimit() < 1500
    x, y = sig.var(0), sig.var(1)
    lhs, rhs = sig.app("f", [x, y]), sig.app("f", [y, x])
    for _ in range(1500):
        lhs, rhs = sig.app("g", [lhs]), sig.app("g", [rhs])
    idx = PostOrderingIndex(sig, "lpo", mode)
    e1 = idx.insert(lhs, rhs)
    a = sig.app("a")
    assert idx.query(lhs, Substitution({0: sig.app("g", [a]), 1: a})) == [e1]
    if mode == "off":
        # then g(a) > a, f(g(a),a) > g(a) and f(g(a),a) > a
        assert idx.snapshot_stats().naive_comparisons == 1500 + 4


@pytest.mark.parametrize("order", ["kbo", "lpo"])
def test_equal_heads_descend_into_the_last_pair_without_scanning_it(
        order, monkeypatch):
    # g^n(f(x,y)) = g^n(f(y,x)) in off: at each of the n levels of equal
    # heads the comparison descends into the last (only) argument pair,
    # so the pair resolutions grow linearly in n; scanning that pair
    # with closure_equal before each descent made them quadratic
    # (41006 at n = 200, 162006 at n = 400)
    calls = []
    deref = todx.ordering._deref

    def counted(s, sigma):
        calls.append(None)
        return deref(s, sigma)

    monkeypatch.setattr(todx.ordering, "_deref", counted)
    counts = []
    for n in (200, 400):
        sig = Signature([("a", 0, 1, 0), ("g", 1, 1, 1), ("f", 2, 1, 2)])
        x, y = sig.var(0), sig.var(1)
        lhs, rhs = sig.app("f", [x, y]), sig.app("f", [y, x])
        for _ in range(n):
            lhs, rhs = sig.app("g", [lhs]), sig.app("g", [rhs])
        idx = PostOrderingIndex(sig, order, "off")
        e1 = idx.insert(lhs, rhs)
        a = sig.app("a")
        del calls[:]
        assert idx.query(lhs, Substitution({0: sig.app("g", [a]), 1: a})) == [e1]
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0], counts


@pytest.mark.parametrize("mode", MODES)
def test_deep_duplicate_is_a_duplicate(mode):
    # the error message prints the 10^4 deep lhs
    sig = Signature([("a", 0, 1, 0), ("g", 1, 1, 1)])
    assert sys.getrecursionlimit() < 10 ** 4
    x = sig.var(0)
    deep = x
    for _ in range(10 ** 4):
        deep = sig.app("g", [deep])
    assert len(repr(deep)) == 3 * 10 ** 4 + len("x0")
    for order in ("kbo", "lpo"):
        idx = PostOrderingIndex(sig, order, mode)
        idx.insert(deep, x)
        with pytest.raises(DuplicateEqualityError):
            idx.insert(deep, x)


# -- positivity checks signed from the images' least weights -----------------

@pytest.fixture
def guard_setup():
    """f(x,y) = h(y,y) under KBO, f above h: the weight difference is
    x - y, and equal weights order it by the heads."""
    sig = Signature([("a", 0, 1, 0), ("h", 2, 1, 1), ("f", 2, 1, 2)])
    x, y = sig.var(0), sig.var(1)
    return sig, sig.app("f", [x, y]), sig.app("h", [y, y])


@pytest.mark.parametrize("mode", MODES)
def test_negative_coefficient_on_a_free_image_is_not_read_at_w0(guard_setup,
                                                                mode):
    # x := a, y := z leaves 1 - |z|: NGE.  At |z| = w0 it reads 0, and a
    # walk that took that for GEQ would order f(a,z) > h(z,z) by the heads
    sig, lhs, rhs = guard_setup
    sigma = Substitution({0: sig.app("a"), 1: sig.var(5)})
    for want in ("all", "first"):
        idx = make_index(sig, mode)
        idx.insert(lhs, rhs)
        for _ in range(3):
            assert idx.query(lhs, sigma, want) == []


@pytest.mark.parametrize("mode", MODES)
def test_unbound_variable_cancelled_by_an_image(mode):
    # f(x,y) = h(x,x) weighs y - x; y := g(x) with x unbound makes it 1, so
    # a walk that took the unbound x for a lone negative term would miss e1
    sig = Signature([("a", 0, 1, 0), ("g", 1, 1, 3), ("h", 2, 1, 1),
                     ("f", 2, 1, 2)])
    x, y = sig.var(0), sig.var(1)
    lhs = sig.app("f", [x, y])
    sigma = Substitution({1: sig.app("g", [x])})
    for want in ("all", "first"):
        idx = make_index(sig, mode)
        eq_id = idx.insert(lhs, sig.app("h", [x, x]))
        for _ in range(3):
            assert idx.query(lhs, sigma, want) == [eq_id]


@pytest.mark.parametrize("mode", MODES)
def test_ground_queries_sign_positivity_checks_without_sign(guard_setup, mode,
                                                            monkeypatch):
    sig, lhs, rhs = guard_setup
    idx = make_index(sig, mode)
    eq_id = idx.insert(lhs, rhs)
    a = sig.app("a")
    ground = Substitution({0: sig.app("h", [a, a]), 1: a})
    assert idx.query(lhs, ground) == [eq_id]    # settles the path
    calls = []
    sign = LinearExpr.sign

    def counting_sign(self, *args, **kwargs):
        calls.append(self)
        return sign(self, *args, **kwargs)

    monkeypatch.setattr(LinearExpr, "sign", counting_sign)
    pos = idx.stats.nodes_traversed.pos
    assert idx.query(lhs, ground) == [eq_id]
    assert idx.stats.nodes_traversed.pos > pos or mode == "off"
    # a fresh image is signed by its least weight, set by the interner:
    # its weight is never built
    fresh = sig.app("h", [sig.app("h", [a, a]), a])
    assert idx.query(lhs, Substitution({0: fresh, 1: a})) == [eq_id]
    assert fresh._weight is None
    assert calls == []
    assert idx.query(lhs, Substitution({0: a, 1: sig.var(5)})) == []
    assert calls


# -- checks decided from the stored weight difference -------------------------

_SYMBOLS = (("a", 0), ("b", 0), ("g", 1), ("h", 2), ("f", 2))


def _raw_terms(leaves):
    return st.recursive(
        leaves,
        lambda t: st.tuples(st.just("g"), st.tuples(t))
        | st.tuples(st.sampled_from(["f", "h"]), st.tuples(t, t)),
        max_leaves=5)


# lhs over x0..x2; rhs over its variables, and its leaves all variables,
# so the difference often has negative coefficients; images of x0..x2:
# none (unbound), ground, or over x0..x2 themselves and x100, x101, so an
# image can hold an lhs variable
@given(st.sampled_from(["kbo", "lpo"]),
       st.lists(st.integers(1, 3), min_size=5, max_size=5),
       st.permutations(range(5)),
       _raw_terms(st.sampled_from([0, 1, 2, "a", "b"])),
       _raw_terms(st.sampled_from([0, 1, 2])),
       st.lists(st.none()
                | _raw_terms(st.sampled_from([0, 1, 2, 100, 101, "a", "b"])),
                min_size=3, max_size=3))
@settings(max_examples=400, deadline=None)
# f(x,y) = f(y,x): the zero difference, a weight tie
@example("kbo", [1, 1, 1, 1, 1], [0, 1, 2, 3, 4], ("f", (0, 1)),
         ("f", (1, 0)), [("g", ("a",)), "a", None])
# f(x,y) = h(x,x) weighs y - x; y := g(x) cancels the unbound x
@example("kbo", [1, 1, 1, 1, 1], [0, 1, 2, 3, 4], ("f", (0, 1)),
         ("h", (0, 0)), [None, ("g", (0,)), None])
# with |f| = 3 it weighs 2 + y - x; y := a leaves 3 - |x|, which reads 2
# with the unbound x at w0
@example("kbo", [1, 1, 1, 1, 3], [0, 1, 2, 3, 4], ("f", (0, 1)),
         ("h", (0, 0)), [None, "a", None])
# f(x,y) = h(y,y) with |f| = 2 weighs 1 + x - y; x := a, y := z leaves
# 2 - |z|, which reads 1 with the image z at its least weight
@example("kbo", [1, 1, 1, 1, 2], [0, 1, 2, 3, 4], ("f", (0, 1)),
         ("h", (1, 1)), ["a", 100, None])
# an LPO equality stores no difference
@example("lpo", [1, 1, 1, 1, 1], [0, 1, 2, 3, 4], ("f", (0, 1)),
         ("f", (1, 0)), [("g", ("a",)), "a", None])
def test_off_check_answers_as_one_closure_comparison(order, weights, prec,
                                                     lhs, rhs, images):
    sig = Signature([(name, arity, w, p)
                     for (name, arity), w, p in zip(_SYMBOLS, weights, prec)])
    lhs = sig.intern(lhs)
    lhs_vars = {u.vid for u in subterms(lhs) if u.sym is None}
    # an rhs variable the lhs lacks becomes one it has, or a
    other = sig.var(min(lhs_vars)) if lhs_vars else sig.app("a")
    rhs = instantiate(sig, sig.intern(rhs),
                      Substitution({v: other for v in range(3)
                                    if v not in lhs_vars}))
    lhs, rhs = canonicalize_equality(sig, lhs, rhs)
    sigma = Substitution({v: sig.intern(raw)
                          for v, raw in enumerate(images) if raw is not None})
    idx = PostOrderingIndex(sig, order, "off")
    eq_id = idx.insert(lhs, rhs)
    diff = idx.equality(eq_id).weight_diff
    if order == "kbo":
        assert diff == term_weight(lhs) - term_weight(rhs)
    else:
        assert diff is None
    fresh = make_order(order, sig)
    verdict = fresh.compare_closure(lhs, sigma, rhs, sigma)
    assert idx.query(lhs, sigma) == ([eq_id] if verdict is Label.GT else [])
    assert idx.stats.naive_comparisons == fresh.steps


# lhs f(xi,xj), i != j, over x0..x2, so the canonical renaming moves an
# lhs variable unless (i, j) = (0, 1); rhs over the lhs variables; images of x0..x2: none
# (unbound), ground, or over x0..x2, so an image can name an lhs
# variable, bound or not.  The first equality joins a diagram at once
# in on/shared, the second starts young after the first query.
@given(st.sampled_from(["kbo", "lpo"]),
       st.lists(st.integers(1, 3), min_size=5, max_size=5),
       st.permutations(range(5)),
       st.permutations(range(3)),
       st.lists(_raw_terms(st.sampled_from([0, 1, 2, "a", "b"])),
                min_size=2, max_size=2),
       st.lists(st.none() | _raw_terms(st.sampled_from([0, 1, 2, "a", "b"])),
                min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
# f(x1,x0) = h(x0,x0) under x1 := g(x0): x0 stays the caller's x0, and
# f(g(x0),x0) > h(x0,x0); read as canonical x1 it would be incomparable
@example("kbo", [1, 1, 1, 1, 1], [0, 1, 2, 3, 4], [1, 0, 2],
         [("h", (0, 0)), "a"], [None, ("g", (0,)), None])
@example("lpo", [1, 1, 1, 1, 1], [0, 1, 2, 3, 4], [1, 0, 2],
         [("h", (0, 0)), "a"], [None, ("g", (0,)), None])
def test_renamed_lhs_answers_as_instantiate_then_compare(order, weights, prec,
                                                         lhs_vids, rhss,
                                                         images):
    sig = Signature([(name, arity, w, p)
                     for (name, arity), w, p in zip(_SYMBOLS, weights, prec)])
    i, j, k = lhs_vids
    lhs = sig.app("f", [sig.var(i), sig.var(j)])
    # x_k, which the lhs lacks, becomes x_i in the rhs
    fill = Substitution({k: sig.var(i)})
    rhss = [instantiate(sig, sig.intern(raw), fill) for raw in rhss]
    sigma = Substitution({v: sig.intern(raw)
                          for v, raw in enumerate(images) if raw is not None})
    lhs_sigma = instantiate(sig, lhs, sigma)
    for mode in MODES:
        idx = PostOrderingIndex(sig, order, mode)
        want = []
        for rhs in rhss:
            try:
                eq_id = idx.insert(lhs, rhs)
            except DuplicateEqualityError:
                continue
            if ref_compare(sig, order, lhs_sigma,
                           instantiate(sig, rhs, sigma)) is Label.GT:
                want.append(eq_id)
            assert idx.query(lhs, sigma) == want, mode
        assert idx.query(lhs, sigma, "first") == want[:1], mode
