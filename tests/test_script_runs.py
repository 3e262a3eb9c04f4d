"""Whole scripts under ``crosscheck``, which runs off, on and shared side
by side and reports every query whose answer lists differ: generated
scripts at scale, the diagram lifecycle, deep terms and blanks."""

import pytest

from todx import PostOrderingIndex, TodNode
from todx.cli import main
from todx.harness import (CSV_HEADER, GenParams, emit_stats_csv,
                          gen_random_script, parse_script, run)

WANTS = ("all", "first")


def _checked(method):
    """``method``, then every diagram of the index passes ``Tod.validate``
    and no node has a ``__dict__``."""
    def call(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        for tod in self.tods():
            tod.validate()
            for node in tod.nodes():
                assert not hasattr(node, "__dict__"), node
        return result
    return call


# one group of up to 30 equalities and 200 queries: deletions keep
# equalities young, and the survivors are promoted into the diagrams
# (0.15 is GenParams' own delete_prob)
@pytest.mark.parametrize("delete_prob", [0.15, 0.3])
@pytest.mark.parametrize("order", ["kbo", "lpo"])
def test_generated_scripts_at_scale_keep_every_diagram_valid(monkeypatch, order,
                                                            delete_prob):
    # the walk, every rewrite, Tod.nodes and Tod.validate read the edge
    # slots and never build the out view
    def no_view(node):
        raise AssertionError(f"TodNode.out built for {node!r}")

    monkeypatch.setattr(TodNode, "out", property(no_view))
    for name in ("insert", "remove", "query"):
        monkeypatch.setattr(PostOrderingIndex, name,
                            _checked(getattr(PostOrderingIndex, name)))
    promoted = []
    promote = PostOrderingIndex._promote

    def counted(self, group):
        promoted.append(group)
        return promote(self, group)

    monkeypatch.setattr(PostOrderingIndex, "_promote", counted)
    params = GenParams(order=order, groups=1, equalities=30, queries=200,
                       delete_prob=delete_prob)
    for seed in range(1, 21):
        script = gen_random_script(seed, params)
        for want in WANTS:
            rep = run(script, "crosscheck", want)
            assert rep.ok, (seed, want, rep.divergences)
    assert promoted


@pytest.mark.parametrize("order", ["kbo", "lpo"])
def test_generated_scripts_with_default_params_cross_check(order):
    for seed in range(1, 21):
        script = gen_random_script(seed, GenParams(order=order))
        for want in WANTS:
            rep = run(script, "crosscheck", want)
            assert rep.ok, (seed, want, rep.divergences)


_LIFECYCLE_HEAD = "sig a/0\nsig b/0\nsig g/1\nsig f/2\nord {order}\n"


def _queries(first, last):
    """Pairs of queries on f(x,y); each pair orders a different member."""
    return "".join(f"query q{i}: x := f(a,b), y := a\n"
                   f"query p{i}: x := b, y := g(f(a,a))\n"
                   for i in range(first, last + 1))


# a shared diagram member removed after the group's first queries, then
# an insert, and 76 queries to promote the survivors; in the g-group a
# member removed before any query, then an insert
_DISSOLUTION = (_LIFECYCLE_HEAD
                + "eq e1: f(x,y) = f(y,x)\neq e2: f(x,y) = f(x,x)\n"
                "eq e3: f(x,y) = a\neq e4: g(x) = x\neq e5: g(x) = a\n"
                "del e4\neq e6: g(x) = b\n"
                "query q1: x := a, y := f(a,a)\nquery q2: x := f(a,b), y := a\n"
                "del e2\neq e7: f(x,y) = g(y)\n" + _queries(3, 40))

# e1 joins its own diagram before the first query; e2 and e3 start young
# and are promoted after 32 queries; e2 is removed after its promotion,
# and e4 stays young to the end
_ON_LIFECYCLE = (_LIFECYCLE_HEAD
                 + "eq e1: f(x,y) = f(y,x)\nquery q0: x := a, y := f(a,a)\n"
                 "eq e2: f(x,y) = f(x,x)\neq e3: f(x,y) = a\n" + _queries(1, 17)
                 + "del e2\neq e4: f(x,y) = g(y)\n"
                 "query r1: x := f(a,b), y := a\nquery r2: x := a, y := g(f(a,a))\n")


@pytest.mark.parametrize("want", WANTS)
@pytest.mark.parametrize("order", ["kbo", "lpo"])
@pytest.mark.parametrize("text, tods", [
    (_DISSOLUTION, None),
    # on keeps the diagrams of e1 and e3; shared's one diagram went with e2
    (_ON_LIFECYCLE, {"off": 0, "on": 2, "shared": 0})],
    ids=["dissolution", "on-lifecycle"])
def test_lifecycle_scripts_cross_check(text, tods, order, want):
    rep = run(parse_script(text.format(order=order)), "crosscheck", want)
    assert rep.ok, rep.divergences
    if tods is not None:
        rows = [row.split(",") for row in emit_stats_csv([rep]).splitlines()[1:]]
        column = CSV_HEADER.split(",").index("tods")
        assert {row[1]: int(row[column]) for row in rows} == tods


def _run_cli(tmp_path, text, *options):
    path = tmp_path / "script.tod"
    path.write_text(text)
    return main(["run", str(path), *options])


@pytest.mark.parametrize("want", WANTS)
def test_a_script_10000_deep_answers_under_crosscheck(tmp_path, capsys, want):
    # a KBO rhs and the binding of x, 10^4 deep each
    deep = "g(" * 10 ** 4 + "a" + ")" * 10 ** 4
    text = ("sig a/0\nsig g/1\nsig f/2\nord kbo\n"
            f"eq e1: f(x,y) = {deep}\nquery q1: x := {deep}, y := a\n"
            "expect q1: {e1}\nquery q2: x := a, y := a\nexpect q2: {}\n")
    assert _run_cli(tmp_path, text, "--mode", "crosscheck", "--want", want) == 0
    assert capsys.readouterr().out.splitlines() == ["q1: {e1}", "q2: {}", "ok"]


def test_a_script_with_blanks_around_every_token_runs(tmp_path, capsys):
    text = ("sig a / 0 w = 2 p = 0\nsig f / 2\nord kbo\n"
            "eq e1 : f ( x , y ) = f ( y , x )\neq e2 : f ( x , y ) = x\n"
            "query q1 : x := f ( a , a ) , y := a\nexpect q1 : { e1 , e2 }\n")
    assert _run_cli(tmp_path, text, "--mode", "crosscheck") == 0
    assert capsys.readouterr().out.splitlines() == ["q1: {e1,e2}", "ok"]


@pytest.mark.parametrize("text, where", [
    ("sig x1/0\nsig f/2\nord kbo\neq e1: f(x,y) = f(y,x)\n", "line 1:5: "),
    ("sig a/0\nsig f/2\nord kbo\neq e1: f(x,y) = f(y,x)\neq e2: f(x,y) = x\n"
     "query q1: x := f(a,a), y := a\nexpect q1: {e1,,e2}\n", "line 7:16: "),
    ("sig a/0\nsig f/2\nord kbo\neq e1: f(a) = a\n", "line 4:8: ")],
    ids=["symbol-x1", "empty-id", "arity"])
def test_cli_refuses_a_bad_line_at_its_token(tmp_path, capsys, text, where):
    assert _run_cli(tmp_path, text) == 2
    assert where in capsys.readouterr().err
