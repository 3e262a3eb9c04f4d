"""The script front: one lexer for every command, and the gen options."""

import re
from dataclasses import asdict, fields

import pytest

from todx.cli import build_parser, main
from todx.harness import (GenParams, ScriptError, SigDecl, format_script,
                          gen_random_script, parse_script)

_HEAD = "sig a/0\nsig f/2\nord kbo\n"          # lines 1-3
_EQ = _HEAD + "eq e1: f(x,y) = x\n"             # line 4
_QUERY = _EQ + "query q1: x := a, y := a\n"     # line 5


# (script before the bad line, the bad line, the column of the token it
# is refused at, a piece of the message); COL counts from 1 in the line
# as written, blanks before the first token included
@pytest.mark.parametrize("before, line, col, message", [
    ("", "sig a 0", 7, "expected '/'"),
    ("", "   sig a 0", 10, "expected '/'"),
    ("", "sig a/0 q=1", 9, "expected 'w=INT' or 'p=INT'"),
    ("", "sig a/0 w 2", 11, "expected '='"),
    ("", "sig a/0w=1", 7, "expected a number"),
    ("", "sig a/", 7, "expected a number"),
    ("", "sig 1a/0", 5, "expected a symbol name"),
    ("", "sig x1/0", 5, "symbol name 'x1' reads as a variable"),
    ("", "sig a/0 w=1 p=0 extra", 17, "expected 'w=INT' or 'p=INT'"),
    ("", "sig a/0 w=0", 11, "weights must be >= 1"),
    ("", "sig a/0 p=1 p=2", 13, "symbol a repeats p="),
    ("sig a/0 p=1\n", "sig b/0 p = 1", 13, "duplicate precedence 1"),
    ("sig a/0\n", "sig a/1", 5, "duplicate symbol 'a'"),
    (_EQ, "sig b/0", 1, "must precede"),
    ("sig a/0\n", "ord rpo", 5, "expected 'kbo' or 'lpo'"),
    ("sig a/0\n", "ord kbo lpo", 9, "unexpected trailing input 'lpo'"),
    ("sig a/0\n", "ord", 4, "expected 'kbo' or 'lpo'"),
    ("sig a/0\nord kbo\n", " ord lpo", 2, "exactly one 'ord' line"),
    (_HEAD, "eq e1 f(x,y) = x", 7, "expected ':'"),
    (_HEAD, "eq e1: f(x,y) x", 15, "expected '='"),
    (_HEAD, "eq e1: f(x,y = x", 14, "expected ',' or ')'"),
    (_HEAD, "eq e1: f(x,y) = f(x,", 21, "expected an identifier"),
    (_HEAD, "eq e1: f() = a", 10, "expected an identifier"),
    (_HEAD, "eq e1: f(x,y) = x y", 19, "unexpected trailing input 'y'"),
    (_HEAD, "eq 1e: a = a", 4, "expected an equality id"),
    (_EQ, "eq  e1: a = a", 5, "duplicate equality id 'e1'"),
    (_HEAD, "del", 4, "expected an equality id"),
    (_HEAD, "del (", 5, "expected an equality id"),
    (_EQ, "del e1 e1", 8, "unexpected trailing input 'e1'"),
    (_EQ, "del e2", 5, "unknown equality id 'e2'"),
    (_HEAD, "query q1 x := a", 10, "expected ':'"),
    (_HEAD, "query q1: x = a", 13, "expected ':='"),
    (_HEAD, "query q1: := a", 11, "expected a variable name"),
    (_HEAD, "query q1: x := f(a,a", 21, "expected ',' or ')'"),
    (_HEAD, "query q1: x := a y := a", 18, "unexpected trailing input 'y'"),
    (_HEAD, "query q1: x := a, x := a", 19, "variable bound twice"),
    (_HEAD, "query q-1: x := a", 8, "expected ':'"),
    (_QUERY, "query q1: x := a", 7, "duplicate query id 'q1'"),
    (_QUERY, "expect q1: {e1,,e1}", 16, "expected an equality id"),
    (_QUERY, "expect q1: {e1,}", 16, "expected an equality id"),
    (_QUERY, "expect q1 {e1}", 11, "expected ':'"),
    (_QUERY, "expect q1: e1", 12, "expected '{'"),
    (_QUERY, "expect q1: {e1 e1}", 16, "expected ',' or '}'"),
    (_QUERY, "expect q1: {e1", 15, "expected ',' or '}'"),
    (_QUERY, "expect q1: {e1} x", 17, "unexpected trailing input 'x'"),
    (_QUERY, "expect q1: {1}", 13, "expected an equality id"),
    (_QUERY, "expect q1: {e1, e2}", 17, "unknown equality id 'e2'"),
    (_QUERY, "expect q2: {}", 8, "unknown query id 'q2'"),
    (_HEAD, "oops", 1, "unknown command 'oops'"),
    (_HEAD, "  ?x := a", 3, "unknown command '?'"),
])
def test_malformed_line_is_refused_at_its_token(before, line, col, message):
    lineno = before.count("\n") + 1
    with pytest.raises(ScriptError) as err:
        parse_script(before + line + "  # a comment\n")
    assert (err.value.line, err.value.col) == (lineno, col)
    assert str(err.value).startswith(f"line {lineno}:{col}: ")
    assert message in str(err.value)


def test_blanks_may_go_around_every_token():
    # w= and p= take blanks around "=", as every other token may
    text = ("sig a / 0 w = 2 p = 1\nsig f/2\n ord\tkbo\n"
            "eq e1 : f ( x , y ) = f ( y , x )\n"
            "query q1 : x:=a , y :=f(a ,a)\nexpect q1 : { e1 , e1 }\n")
    script = parse_script(text)
    assert script.commands[0] == SigDecl("a", 0, 2, 1)
    assert format_script(script) == (
        "sig a/0 w=2 p=1\nsig f/2\nord kbo\neq e1: f(x,y) = f(y,x)\n"
        "query q1: x := a, y := f(a,a)\nexpect q1: {e1}\n")


# blanks around every token a printed script glues to its neighbours;
# ":=" stays one token
_GLUED = re.compile(r":=|[(),:={}/]")


# wide scripts are about 27 KB each, so fewer seeds
@pytest.mark.parametrize("order", ["kbo", "lpo"])
@pytest.mark.parametrize("params, seeds", [
    ({}, 300),
    ({"symbols": 5, "max_arity": 3, "max_depth": 4, "equalities": 30,
      "queries": 200, "groups": 30, "delete_prob": 0.5}, 100)],
    ids=["default", "wide"])
def test_generated_scripts_parse_back_with_and_without_blanks(order, params,
                                                              seeds):
    gen = GenParams(order=order, **params)
    for seed in range(seeds):
        script = gen_random_script(seed, gen)
        text = format_script(script)
        assert parse_script(text) == script, seed
        spaced = _GLUED.sub(lambda m: f" \t{m.group()} ", text)
        assert parse_script(spaced) == script, seed


def test_gen_options_default_to_gen_params():
    args = build_parser().parse_args(["gen", "--seed", "1"])
    assert {f.name: getattr(args, f.name) for f in fields(GenParams)} == \
        asdict(GenParams())


@pytest.mark.parametrize("flag, name, value", [
    ("--symbols", "symbols", 3), ("--max-arity", "max_arity", 1),
    ("--depth", "max_depth", 2), ("--equalities", "equalities", 7),
    ("--queries", "queries", 9), ("--groups", "groups", 4),
    ("--delete-prob", "delete_prob", 0.25), ("--order", "order", "lpo")])
def test_each_gen_flag_sets_its_field(capsys, flag, name, value):
    args = build_parser().parse_args(["gen", "--seed", "1", flag, str(value)])
    assert getattr(args, name) == value
    assert main(["gen", "--seed", "1", flag, str(value)]) == 0
    want = gen_random_script(1, GenParams(**{name: value}))
    assert capsys.readouterr().out == format_script(want)


def test_gen_refuses_an_unknown_order_and_flag(capsys):
    assert main(["gen", "--seed", "1", "--order", "rpo"]) == 2
    assert capsys.readouterr().err.startswith(
        "todx gen: order must be kbo or lpo")
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["gen", "--seed", "1", "--max-depth", "2"])
    assert err.value.code == 2
