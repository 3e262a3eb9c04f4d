import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import _argswap_script, _poly_script, bench
from todx import (IndexMode, PostOrderingIndex, SignatureError,
                  UnknownSymbolError, harness)
from todx.harness import (Delete, GenParams, Insert, OrderDecl, Query, Script,
                          ScriptError, SigDecl, emit_stats_csv, format_script,
                          gen_random_script, parse_script, run)

FIG_SCRIPT = """\
# the motivating swap pair, queried both ways
sig a/0 w=1 p=0
sig b/0 w=1 p=1
sig f/2 w=1 p=2
ord kbo
eq e1: f(x,y) = f(y,x)
query q1: x := a, y := a
expect q1: {}
eq e2: f(x,y) = f(x,x)
query q2: x := f(a,a), y := a
expect q2: {e1}
query q3: x := a, y := f(a,a)
expect q3: {e2}
"""


def test_parse_minimal_script():
    sc = parse_script("sig f/2 w=1 p=2\nsig a/0 w=1 p=1\nord kbo\n"
                      "eq e1: f(x,y) = f(y,x)\nquery q1: x:=a, y:=a\n")
    assert sc.order_kind == "kbo"
    kinds = [type(c).__name__ for c in sc.commands]
    assert kinds == ["SigDecl", "SigDecl", "OrderDecl", "Insert", "Query"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScriptError) as err:
        parse_script("sig f/2 w=1 p=2\nsig a/0 w=1 p=1\nord kbo\noops\n")
    assert "line 4" in str(err.value)
    with pytest.raises(ScriptError):
        parse_script("ord kbo\nord kbo\nsig a/0\n")
    with pytest.raises(ScriptError):
        parse_script("sig a/0\n")  # no ord line
    with pytest.raises(ScriptError):
        parse_script("sig a/0\nord kbo\neq e1: f(x = a\n")
    with pytest.raises(ScriptError):
        parse_script("sig a/0\nord kbo\neq e1: a = a\ndel e2\n")
    with pytest.raises(ScriptError):
        parse_script("sig a/0\nord kbo\nexpect q9: {}\n")


def test_sig_lines_must_come_first():
    with pytest.raises(ScriptError):
        parse_script("sig a/0\nord kbo\neq e1: a = a\nsig b/0\n")


def test_lpo_weight_warning():
    rep = run(parse_script("sig a/0 w=3\nsig g/1\nord lpo\neq e1: g(x) = a\n"))
    assert rep.warnings and "weight" in rep.warnings[0]
    assert not run(parse_script("sig a/0\nsig g/1\nord lpo\neq e1: g(x) = a\n")).warnings
    # the warning follows the order that runs, not the one the script names
    lpo = parse_script("sig a/0 w=2\nsig f/2\nord lpo\neq e1: f(x,y) = f(y,x)\n")
    assert not run(lpo, order_override="kbo").warnings
    kbo = parse_script("sig a/0 w=2\nsig f/2\nord kbo\neq e1: f(x,y) = f(y,x)\n")
    assert not run(kbo).warnings
    rep = run(kbo, order_override="lpo")
    assert rep.warnings and "weight" in rep.warnings[0]


def test_auto_precedence_avoids_explicit_values():
    sc = parse_script("sig a/0 p=1\nsig b/0\nsig c/0\nord kbo\n")
    precs = [c.precedence for c in sc.commands if isinstance(c, SigDecl)]
    assert precs == [1, None, None]
    sig = harness._build_signature(sc.commands)
    assert [sig.symbol(n).precedence for n in "abc"] == [1, 0, 2]


def test_undeclared_arity0_identifiers_are_variables():
    # x is not declared, so it is a variable: f(a,a) beats a under KBO
    sc = parse_script("sig a/0\nsig f/2\nord kbo\neq e1: f(x,a) = x\n"
                      "query q1: x := a\n")
    rep = run(sc, mode="crosscheck")
    assert rep.query_results == {"q1": ["e1"]}
    assert rep.ok


def test_fig_script_passes_in_all_modes():
    sc = parse_script(FIG_SCRIPT)
    for mode in ("off", "on", "shared", "crosscheck"):
        rep = run(sc, mode=mode)
        assert rep.ok, (mode, rep.expect_failures, rep.divergences)
        assert rep.query_results == {"q1": [], "q2": ["e1"], "q3": ["e2"]}


def test_expect_failure_reported():
    sc = parse_script(FIG_SCRIPT.replace("expect q1: {}", "expect q1: {e1}"))
    rep = run(sc, mode="shared")
    assert not rep.ok
    assert rep.expect_failures and "q1" in rep.expect_failures[0]


def test_order_override():
    sc = parse_script(FIG_SCRIPT)
    rep = run(sc, mode="crosscheck", order_override="lpo")
    assert rep.order == "lpo"
    assert rep.ok


def test_first_mode_returns_prefix():
    text = ("sig a/0\nsig b/0\nsig f/2\nord kbo\n"
            "eq e1: f(x,y) = f(y,x)\neq e2: f(x,y) = f(y,y)\n"
            "query q1: x := f(a,a), y := a\n")
    all_rep = run(parse_script(text), mode="shared", want="all")
    first_rep = run(parse_script(text), mode="shared", want="first")
    assert len(all_rep.query_results["q1"]) == 2
    assert first_rep.query_results["q1"] == all_rep.query_results["q1"][:1]


def test_multi_group_query_addresses_matching_groups():
    text = ("sig a/0\nsig g/1\nsig f/2\nord kbo\n"
            "eq e1: f(x,y) = f(y,x)\n"
            "eq e2: g(z) = z\n"
            "query q1: x := f(a,a), y := a, z := g(a)\n"
            "expect q1: {e1,e2}\n"
            "query q2: z := a\n"
            "expect q2: {e2}\n")
    rep = run(parse_script(text), mode="crosscheck")
    assert rep.ok, (rep.expect_failures, rep.divergences)
    assert set(rep.query_results["q1"]) == {"e1", "e2"}
    # q2 binds only z, so the f-group is skipped entirely
    assert rep.query_results["q2"] == ["e2"]


def test_roundtrip_generated_scripts():
    for seed in range(150):
        params = GenParams(order="kbo" if seed % 2 else "lpo")
        script = gen_random_script(seed, params)
        assert parse_script(format_script(script)) == script


def test_gen_is_deterministic():
    a = format_script(gen_random_script(42))
    b = format_script(gen_random_script(42))
    assert a == b
    assert a != format_script(gen_random_script(43))


# sha256 of the printed scripts, so a change to the generators or to the
# script printer that moves a single byte shows here
_WIDE = dict(symbols=5, max_arity=3, max_depth=4, equalities=20, queries=40,
             groups=4, delete_prob=0.3)
_GEN_DIGESTS = {
    ("default", "kbo"): "7362272f06186dcb7d319107839aefb7518466a1c0992042ca594bec7037a412",
    ("default", "lpo"): "b0c506c751581ce70587a916b8269ac6d070127461bd538c57930d156536e42e",
    ("wide", "kbo"): "6f3b68237c13d7e1842818ca69f16da6a06d38935ab44e052cd552d8c335e3f9",
    ("wide", "lpo"): "fc0fb4f6baf8084f928ca28fc9f0f05ed704e215e24587cc351a6e6145378db1",
}
_BENCH_DIGESTS = {
    ("swap", "kbo"): "15f650839b93846af30209cb63f999e9ff4cf96f20e20bb63610521917f2c579",
    ("swap", "lpo"): "cce351c8d03e657faabbdd1e9c12e740e186466d3eb5d8b139f4af65cb368c1a",
    ("poly", "kbo"): "a00631a44c8fcfa0f4e56b97de651fb1712f78c6870ff67be1341f3e9261a74d",
    ("poly", "lpo"): "49c8a03dfd4a27316ffae2438186495b2a83e6704a470e7a94bb53b18882a455",
}


def _digest(scripts) -> str:
    h = hashlib.sha256()
    for script in scripts:
        h.update(format_script(script).encode())
    return h.hexdigest()


@pytest.mark.parametrize("params,order", _GEN_DIGESTS)
def test_generated_script_bytes_are_pinned(params, order):
    kw = _WIDE if params == "wide" else {}
    scripts = (gen_random_script(seed, GenParams(order=order, **kw))
               for seed in range(300))
    assert _digest(scripts) == _GEN_DIGESTS[params, order]


@pytest.mark.parametrize("family,order", _BENCH_DIGESTS)
def test_bench_script_bytes_are_pinned(family, order):
    make = {"swap": _argswap_script, "poly": _poly_script}[family]
    scripts = (make(200, seed, order) for seed in range(5))
    assert _digest(scripts) == _BENCH_DIGESTS[family, order]


def test_gen_zero_queries_means_no_queries():
    params = GenParams(queries=0, delete_prob=0.0)
    script = gen_random_script(7, params)
    assert all(not isinstance(c, (Query, Delete)) for c in script.commands)
    assert any(isinstance(c, Insert) for c in script.commands)


def test_gen_emits_deletes():
    params = GenParams(delete_prob=0.5, equalities=12, queries=30)
    found = any(
        any(isinstance(c, Delete) for c in gen_random_script(s, params).commands)
        for s in range(5))
    assert found


def test_gen_params_cap_validation():
    with pytest.raises(ValueError):
        GenParams(symbols=9)
    with pytest.raises(ValueError):
        GenParams(queries=1000)
    with pytest.raises(ValueError):
        GenParams(order="rpo")


@pytest.mark.parametrize("name, value", [("delete_prob", 0.6), ("symbols", 0),
                                         ("groups", -3)])
def test_gen_params_rejects_out_of_range(name, value):
    # delete_prob > 0.5 can pick deletes forever; no symbol leaves no constant
    with pytest.raises(ValueError, match=name):
        GenParams(**{name: value})


@pytest.mark.parametrize("option, value", [("--symbols", "9"), ("--symbols", "0"),
                                           ("--groups", "-3")])
def test_cli_gen_rejects_out_of_range_params(capsys, option, value):
    from todx.cli import main
    assert main(["gen", "--seed", "1", option, value]) == 2
    err = capsys.readouterr().err
    bounds = {"--symbols": "symbols must be in [1, 5]",
              "--groups": "groups must be in [1, 30]"}
    assert err.startswith(f"todx gen: {bounds[option]}")


def test_crosscheck_generated_scripts():
    for order in ("kbo", "lpo"):
        params = GenParams(order=order, equalities=8, queries=10)
        for seed in range(1000):
            rep = run(gen_random_script(seed, params), mode="crosscheck")
            assert not rep.divergences, (order, seed, rep.divergences)


def test_csv_header_and_rows():
    rep = run(parse_script(FIG_SCRIPT), mode="crosscheck",
              script_name="figs")
    text = emit_stats_csv([rep])
    lines = text.strip().splitlines()
    assert lines[0] == ("script,mode,order,queries,answers,demodulators,tods,"
                        "created_term,created_success,created_pos,"
                        "processed_term,processed_success,processed_pos,"
                        "traversed_term,traversed_success,traversed_pos,"
                        "naive_comparisons")
    assert len(lines) == 4
    shared_row = next(l for l in lines if l.startswith("figs,shared,"))
    fields = shared_row.split(",")
    assert fields[2] == "kbo"
    assert int(fields[3]) == 3          # queries
    assert int(fields[4]) >= 1          # answers
    off_row = next(l for l in lines if l.startswith("figs,off,"))
    assert int(off_row.split(",")[-1]) > 0   # naive comparisons counted


def test_empty_report_list_gives_header_only():
    assert emit_stats_csv([]).strip().splitlines() == [harness.CSV_HEADER]


def test_cli_exit_codes(tmp_path):
    from todx.cli import main
    good = tmp_path / "good.tod"
    good.write_text(FIG_SCRIPT)
    assert main(["run", str(good), "--mode", "crosscheck"]) == 0
    bad = tmp_path / "bad.tod"
    bad.write_text(FIG_SCRIPT.replace("expect q2: {e1}", "expect q2: {}"))
    assert main(["run", str(bad)]) == 1
    broken = tmp_path / "broken.tod"
    broken.write_text("sig a/0\nnonsense\n")
    assert main(["run", str(broken)]) == 2


_HEAD = "sig a/0\nsig f/2\nord kbo\n"


def _deep_rhs(depth):
    return ("sig a/0\nsig g/1\nsig f/2\nord kbo\neq e1: f(x,y) = "
            + "g(" * depth + "a" + ")" * depth)


@pytest.mark.parametrize("text, message, line", [
    (_HEAD + "eq e1: f(x,y) = f(z,z)", "variables not in the left-hand side", 4),
    (_HEAD + "eq e1: f(x,y) = f(y,x)\neq e2: f(u,v) = f(v,u)", "already live", 5),
    (_HEAD + "eq e1: f(a) = a", "expects 2 arguments", 4),
    (_HEAD + "eq e1: f(x,y) = g(x)", "unknown symbol 'g'", 4),
    ("sig a/0 w=0\nsig f/2\nord kbo\neq e1: f(x,y) = x",
     "weights must be >= 1", 1),
    ("sig a/0 p=1 p=7\nsig f/2 p=1\nord kbo\neq e1: f(x,y) = x",
     "symbol a repeats p=", 1),
    ("sig a/0 w=1 w=5 p=1 p=7\nsig f/2 p=7\nord kbo\neq e1: f(x,y) = x",
     "symbol a repeats w=", 1),
], ids=["malformed", "duplicate", "arity", "unknown-symbol", "zero-weight",
        "repeated-p", "repeated-w"])
def test_cli_script_that_cannot_run_exits_2(tmp_path, capsys, text, message, line):
    from todx.cli import main
    path = tmp_path / "invalid.tod"
    path.write_text(text + "\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: ") and message in err
    assert f"line {line}:" in err


def test_cli_runs_a_script_term_600_deep(tmp_path, capsys):
    # term resolution keeps its own stack: the rhs and the binding of x,
    # 600 deep each, resolve and answer in every mode
    from todx.cli import main
    deep = "g(" * 600 + "a" + ")" * 600
    path = tmp_path / "deep.tod"
    path.write_text(_deep_rhs(600) + f"\nquery q1: x := {deep}, y := a"
                    "\nexpect q1: {e1}\nquery q2: x := a, y := a\n"
                    "expect q2: {}\n")
    assert main(["run", str(path), "--mode", "crosscheck"]) == 0
    assert capsys.readouterr().out.splitlines() == ["q1: {e1}", "q2: {}", "ok"]


def test_cli_runs_a_script_term_10000_deep(tmp_path, capsys):
    # the scanner and the printer keep their own stacks: a KBO rhs and
    # the binding of x, 10^4 deep each, print back as they parse and
    # answer in every mode
    from todx.cli import main
    depth = 10 ** 4
    deep = "g(" * depth + "a" + ")" * depth
    text = (_deep_rhs(depth) + f"\nquery q1: x := {deep}, y := a"
            "\nexpect q1: {e1}\nquery q2: x := a, y := a\nexpect q2: {}\n")
    script = parse_script(text)
    assert parse_script(format_script(script)) == script
    path = tmp_path / "deep.tod"
    path.write_text(text)
    assert main(["run", str(path), "--mode", "crosscheck"]) == 0
    assert capsys.readouterr().out.splitlines() == ["q1: {e1}", "q2: {}", "ok"]


def test_scripts_10000_deep_compare_by_value():
    # Insert and Query compare raw trees with their own stack: deep equal
    # scripts are equal, and deep scripts that differ at the bottom of the
    # rhs or of a binding are not
    depth = 10 ** 4

    def text(rhs_leaf, binding_leaf):
        return (_deep_rhs(depth)[:-depth - 1] + rhs_leaf + ")" * depth
                + "\nquery q1: x := " + "g(" * depth + binding_leaf
                + ")" * depth + ", y := a\n")

    script = parse_script(text("a", "a"))
    assert script == parse_script(text("a", "a"))
    assert hash(script) == hash(parse_script(text("a", "a")))
    assert script != parse_script(text("x", "a"))
    assert script != parse_script(text("a", "y"))


_TREE_SIG = "sig a/0\nsig b/0\nsig g/1\nsig f/2\nord kbo\n"

# raw trees as Signature.intern takes them, variable i printed as xi
_trees = st.recursive(
    st.sampled_from(["a", "b", 0, 1, 2]),
    lambda sub: st.one_of(
        st.tuples(st.just("g"), st.lists(sub, min_size=1, max_size=1)),
        st.tuples(st.just("f"), st.lists(sub, min_size=2, max_size=2))),
    max_leaves=12)


def _tokens(tree) -> list:
    """The tokens of a raw tree in prefix order, with its own stack."""
    out, stack = [], [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, int):
            out.append(f"x{t}")
        elif isinstance(t, str):    # a constant, or punctuation queued below
            out.append(t)
        else:
            name, args = t
            out += [name, "("]
            stack.append(")")
            for i in reversed(range(len(args))):
                stack.append(args[i])
                if i:
                    stack.append(",")
    return out


@settings(max_examples=200, deadline=None)
@given(tree=_trees, depth=st.integers(0, 3),
       blanks=st.lists(st.sampled_from(["", " ", "\t", " \t "]),
                       min_size=1, max_size=5))
@example(tree=0, depth=10 ** 4, blanks=[" "])
def test_script_terms_resolve_as_interned_trees(tree, depth, blanks):
    # term text with blanks around every token parses to its blank-free
    # text, prints as that text, and resolves to the interned tree
    for i in range(depth):
        tree = ("f", [tree, "b"]) if i % 100 == 0 else ("g", [tree])
    toks = _tokens(tree)
    pad = itertools.cycle(blanks)
    spaced = "".join(next(pad) + tok for tok in toks)
    plain = "".join(toks)
    script = parse_script(f"{_TREE_SIG}eq e1: {spaced} = a\n"
                          f"query q1: x0 :={spaced}\n")
    assert script.commands[-2:] == (Insert("e1", plain, "a"),
                                    Query("q1", (("x0", plain),)))
    assert format_script(script).endswith(
        f"eq e1: {plain} = a\nquery q1: x0 := {plain}\n")
    sig = harness._build_signature(script.commands)
    varmap = {f"x{i}": i for i in range(3)}
    assert harness._resolve(sig, plain, varmap) is sig.intern(tree)
    # without fixed numbers, variables are numbered as they first occur
    varmap = {}
    harness._resolve(sig, plain, varmap)
    assert list(varmap) == list(dict.fromkeys(
        tok for tok in toks if tok[0] == "x"))


@pytest.mark.parametrize("content", [None, b"sig a/0\n\xff\n"],
                         ids=["missing", "not-utf8"])
def test_cli_unreadable_script_exits_2(tmp_path, capsys, content):
    from todx.cli import main
    path = tmp_path / "script.tod"
    if content is not None:
        path.write_bytes(content)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{path}: ")


@pytest.mark.parametrize("command", ["gen", "run"])
def test_cli_unwritable_output_exits_2(tmp_path, capsys, command):
    from todx.cli import main
    script = tmp_path / "script.tod"
    script.write_text(FIG_SCRIPT)
    out = str(tmp_path / "missing" / "out")
    argv = {"gen": ["gen", "--seed", "1", "--out", out],
            "run": ["run", str(script), "--stats", out]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"todx {command}: ") and out in err
    assert err.count("\n") == 1


def test_bench_rejects_negative_size():
    with pytest.raises(ValueError, match="-3"):
        bench("swap", -3)


def test_cli_has_no_bench_command(capsys):
    from todx.cli import main
    with pytest.raises(SystemExit) as exit_:
        main(["bench", "--family", "swap", "--n", "3"])
    assert exit_.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    assert not hasattr(harness, "bench")


def test_sig_decl_built_in_code_keeps_weight_zero():
    # weight 0 is not "unset": it must reach the signature and fail there
    script = Script((SigDecl("a", 0, 0), OrderDecl("kbo")))
    with pytest.raises(SignatureError, match="weight 0"):
        run(script)
    assert SigDecl("a", 0).weight is None


def test_run_refuses_a_script_without_an_order():
    script = Script((SigDecl("a", 0, 1, 0),))
    with pytest.raises(ValueError, match="no 'ord' command") as err:
        run(script)
    assert type(err.value) is ValueError and "line" not in str(err.value)
    assert run(script, order_override="lpo").ok


def test_run_refuses_an_unknown_want():
    # refused before it runs, though no query would have read it
    script = Script((SigDecl("a", 0, 1, 0), OrderDecl("kbo")))
    with pytest.raises(ValueError, match="not 'bogus'") as err:
        run(script, want="bogus")
    assert type(err.value) is ValueError and "line" not in str(err.value)


def test_script_without_source_lines_raises_the_original_error():
    script = Script((SigDecl("a", 0, 1, 0), OrderDecl("kbo"),
                     Insert("e1", "g(x)", "a")))
    with pytest.raises(UnknownSymbolError):
        run(script)


@pytest.mark.parametrize("distort", [lambda ids: ids[::-1],
                                     lambda ids: ids + ids[:1]],
                         ids=["reordered", "duplicated"])
def test_crosscheck_compares_answer_lists(monkeypatch, distort):
    # same answer set, different list: still a divergence
    query = PostOrderingIndex.query

    def shared_distorted(self, *args):
        got = query(self, *args)
        return distort(got) if self.mode is IndexMode.SHARED_BY_LHS else got

    monkeypatch.setattr(PostOrderingIndex, "query", shared_distorted)
    rep = run(parse_script("sig a/0\nsig b/0\nsig f/2\nord kbo\n"
                           "eq e1: f(x,y) = x\neq e2: f(x,y) = y\n"
                           "query q1: x := a, y := b\n"), mode="crosscheck")
    assert rep.query_results["q1"] == distort(["e1", "e2"])
    assert rep.divergences == [
        f"q1: off=['e1', 'e2'] shared={distort(['e1', 'e2'])}"]


def test_cli_gen_and_stats_roundtrip(tmp_path):
    from todx.cli import main
    out = tmp_path / "gen.tod"
    assert main(["gen", "--seed", "5", "--out", str(out),
                 "--equalities", "5", "--queries", "6"]) == 0
    csv = tmp_path / "stats.csv"
    assert main(["run", str(out), "--mode", "crosscheck",
                 "--stats", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 4


def test_bench_families_run_clean():
    for family in ("swap", "poly"):
        rep = bench(family, 50, seed=3)
        assert not rep.divergences
        assert set(rep.mode_stats) == {"off", "on", "shared"}
        assert rep.mode_stats["off"].naive_comparisons > 0


@pytest.mark.parametrize("family, order, steps", [
    ("swap", "kbo", 6489), ("swap", "lpo", 15049),
    ("poly", "kbo", 12000), ("poly", "lpo", 63793)])
def test_naive_comparisons_are_pinned(family, order, steps):
    # one count per entry into compare_closure on the off path
    rep = bench(family, 2000, order=order, seed=0, mode="off")
    assert rep.mode_stats["off"].naive_comparisons == steps
