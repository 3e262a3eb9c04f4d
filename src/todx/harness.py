"""Script files driving the index, plus generators, cross-checks and stats.

A script is line-based::

    # comment
    sig f/2 w=1 p=2
    sig a/0 w=1 p=1
    ord kbo
    eq e1: f(x,y) = f(y,x)
    del e1
    query q1: x := a, y := f(a,a)
    expect q1: {e1}

Blanks may go between any two tokens.  Terms are in prefix notation;
identifiers not declared as symbols are variables.  ``w=`` and ``p=``
are optional: the weight defaults to 1, and a symbol without ``p=``
takes the lowest precedence left free, in declaration order.  A query
binds variables by the names used in the equalities; it runs against
every group whose left-hand side variables are all bound.
"""

from __future__ import annotations

import io
import itertools
import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .index import (DuplicateEqualityError, MalformedEqualityError,
                    PostOrderingIndex, canonicalize_equality)
from .ordering import make_order
from .terms import (IDENT, Label, Signature, SignatureError, Substitution, Term,
                    is_symbol_name, term_weight)


class ScriptError(ValueError):
    """A parse or validation error with its position."""

    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SigDecl:
    """A symbol declaration; ``None`` leaves weight or precedence unset."""

    name: str
    arity: int
    weight: Optional[int] = None
    precedence: Optional[int] = None


@dataclass(frozen=True)
class OrderDecl:
    kind: str


# A script term is kept as its text without blanks, e.g. "f(x,g(a))";
# which names are variables needs the signature and is settled when a
# script runs.
@dataclass(frozen=True)
class Insert:
    eq_id: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class Delete:
    eq_id: str


@dataclass(frozen=True)
class Query:
    query_id: str
    bindings: tuple  # of (var name, term text)


@dataclass(frozen=True)
class Expect:
    query_id: str
    eq_ids: frozenset


Command = Union[SigDecl, OrderDecl, Insert, Delete, Query, Expect]


@dataclass(frozen=True)
class Script:
    commands: tuple
    # source line of each command; empty for generated scripts
    lines: tuple = field(default=(), compare=False)

    @property
    def order_kind(self) -> str:
        return next(c.kind for c in self.commands if isinstance(c, OrderDecl))


# -- script parsing ---------------------------------------------------------------

# The tokens of a script line: names, numbers, ":=" and single characters;
# blanks only separate them.  A number ends where a name cannot go on.
_LEX = re.compile(rf"(?P<name>{IDENT})|(?P<number>[0-9]+)\b|:=|\S")


class _Tokens:
    """The tokens of one script line, each with its kind and column, and
    a cursor.  The last token is the end of the line, the empty text."""

    def __init__(self, text: str, line: int):
        self.toks = [(m.group(), m.lastgroup, m.start() + 1)
                     for m in _LEX.finditer(text)]
        self.toks.append(("", None, len(text.rstrip()) + 1))
        self.pos = 0
        self.line = line

    def error(self, message: str, back: int = 0) -> ScriptError:
        """An error at the current token, or ``back`` tokens before it."""
        return ScriptError(message, self.line, self.toks[self.pos - back][2])

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def take(self, want: Optional[str] = None) -> str:
        tok = self.peek()
        if want is not None and tok != want:
            raise self.error(f"expected {want!r}")
        self.pos += 1
        return tok

    def name(self, what: str) -> str:
        if self.toks[self.pos][1] != "name":
            raise self.error(f"expected {what}")
        return self.take()

    def number(self) -> int:
        if self.toks[self.pos][1] != "number":
            raise self.error("expected a number")
        return int(self.take())

    def term(self, sig: Signature, varmap: dict, rhs: bool = False) -> tuple:
        """One term read through ``sig``, and its text without blanks.

        Declared names are symbols, and the others variables, numbered
        through ``varmap`` as they first occur; in a right-hand side
        (``rhs``) each must be there already.  A name the signature
        refuses is refused at its token; on line 0, which is no script
        line, the signature's own error is raised.  It keeps its own
        stack of open applications, so any depth is fine.
        """
        out: list[str] = []
        args: list[Term] = []       # the arguments read so far
        open_apps: list = []        # (name token, name, enclosing arguments)
        try:
            while True:
                at = self.pos
                name = self.name("an identifier")
                out.append(name)
                if self.peek() == "(":
                    out.append(self.take())
                    open_apps.append((at, name, args))
                    args = []
                    continue
                if sig.has_symbol(name):
                    args.append(sig.app(name, ()))
                elif rhs and name not in varmap:
                    raise self.error("right-hand side uses variables not in "
                                     "the left-hand side", 1)
                else:
                    args.append(sig.var(varmap.setdefault(name, len(varmap))))
                # the name completes an argument; close every application it ends
                while open_apps:
                    if self.peek() not in (",", ")"):
                        raise self.error("expected ',' or ')'")
                    out.append(self.take())
                    if out[-1] == ",":
                        break
                    at, name, outer = open_apps.pop()
                    outer.append(sig.app(name, args))
                    args = outer
                else:
                    return args[0], "".join(out)
        except SignatureError as err:
            if not self.line:
                raise
            raise ScriptError(str(err), self.line, self.toks[at][2]) from None

    def end(self) -> None:
        if self.peek():
            raise self.error(f"unexpected trailing input {self.peek()!r}")


def parse_script(text: str) -> Script:
    commands: list[Command] = []
    lines: list[int] = []
    sig: Optional[Signature] = None     # built at the first eq or query
    has_order = False
    eq_ids: set[str] = set()
    query_ids: set[str] = set()
    used_precs: set[int] = set()

    tk = _Tokens("", 1)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        tk = _Tokens(raw_line.split("#", 1)[0], lineno)
        if not tk.peek():
            continue
        word = tk.take()
        if word in ("eq", "query") and sig is None:
            try:
                sig = _build_signature(commands)
            except SignatureError as err:
                raise tk.error(str(err), 1) from None

        if word == "sig":
            if sig is not None:
                raise tk.error("sig declarations must precede equalities "
                               "and queries", 1)
            name = tk.name("a symbol name")
            if not is_symbol_name(name):
                raise tk.error(f"symbol name {name!r} reads as a variable", 1)
            if any(isinstance(c, SigDecl) and c.name == name for c in commands):
                raise tk.error(f"duplicate symbol {name!r}", 1)
            tk.take("/")
            arity = tk.number()
            attrs: dict[str, int] = {}
            while tk.peek():
                key = tk.take()
                if key not in ("w", "p"):
                    raise tk.error("expected 'w=INT' or 'p=INT'", 1)
                if key in attrs:
                    raise tk.error(f"symbol {name} repeats {key}=", 1)
                tk.take("=")
                attrs[key] = val = tk.number()
                if key == "w" and val < 1:
                    raise tk.error(f"symbol {name} has weight {val}; "
                                   "weights must be >= 1", 1)
                if key == "p":
                    if val in used_precs:
                        raise tk.error(f"duplicate precedence {val}", 1)
                    used_precs.add(val)
            commands.append(SigDecl(name, arity, attrs.get("w"), attrs.get("p")))

        elif word == "ord":
            if has_order:
                raise tk.error("script must contain exactly one 'ord' line", 1)
            kind = tk.take()
            if kind not in ("kbo", "lpo"):
                raise tk.error("expected 'kbo' or 'lpo'", 1)
            tk.end()
            has_order = True
            commands.append(OrderDecl(kind))

        elif word == "eq":
            eq_id = tk.name("an equality id")
            if eq_id in eq_ids:
                raise tk.error(f"duplicate equality id {eq_id!r}", 1)
            eq_ids.add(eq_id)
            tk.take(":")
            varmap: dict[str, int] = {}
            _, lhs = tk.term(sig, varmap)
            tk.take("=")
            _, rhs = tk.term(sig, varmap, rhs=True)
            tk.end()
            commands.append(Insert(eq_id, lhs, rhs))

        elif word == "del":
            eq_id = tk.name("an equality id")
            if eq_id not in eq_ids:
                raise tk.error(f"unknown equality id {eq_id!r}", 1)
            tk.end()
            commands.append(Delete(eq_id))

        elif word == "query":
            qid = tk.name("a query id")
            if qid in query_ids:
                raise tk.error(f"duplicate query id {qid!r}", 1)
            query_ids.add(qid)
            tk.take(":")
            bindings: dict[str, str] = {}
            while not bindings or tk.peek() == ",":
                if bindings:
                    tk.take()
                var = tk.name("a variable name")
                if var in bindings:
                    raise tk.error("variable bound twice in query", 1)
                tk.take(":=")
                _, bindings[var] = tk.term(sig, {})
            tk.end()
            commands.append(Query(qid, tuple(bindings.items())))

        elif word == "expect":
            qid = tk.name("a query id")
            if qid not in query_ids:
                raise tk.error(f"unknown query id {qid!r}", 1)
            tk.take(":")
            tk.take("{")
            ids: set[str] = set()
            while tk.peek() != "}":
                if ids and tk.take() != ",":
                    raise tk.error("expected ',' or '}'", 1)
                eq_id = tk.name("an equality id")
                if eq_id not in eq_ids:
                    raise tk.error(f"unknown equality id {eq_id!r}", 1)
                ids.add(eq_id)
            tk.take()
            tk.end()
            commands.append(Expect(qid, frozenset(ids)))

        else:
            raise tk.error(f"unknown command {word!r}", 1)
        lines.append(lineno)

    # both refused at the end of the last line
    if not has_order:
        raise tk.error("script must contain exactly one 'ord' line")
    if sig is None:         # no eq or query line built it
        try:
            _build_signature(commands)
        except SignatureError as err:
            raise tk.error(str(err)) from None

    return Script(tuple(commands), tuple(lines))


def format_script(script: Script) -> str:
    out = []
    for c in script.commands:
        if isinstance(c, SigDecl):
            attrs = ""
            if c.weight is not None:
                attrs += f" w={c.weight}"
            if c.precedence is not None:
                attrs += f" p={c.precedence}"
            out.append(f"sig {c.name}/{c.arity}{attrs}")
        elif isinstance(c, OrderDecl):
            out.append(f"ord {c.kind}")
        elif isinstance(c, Insert):
            out.append(f"eq {c.eq_id}: {c.lhs} = {c.rhs}")
        elif isinstance(c, Delete):
            out.append(f"del {c.eq_id}")
        elif isinstance(c, Query):
            inner = ", ".join(f"{v} := {t}" for v, t in c.bindings)
            out.append(f"query {c.query_id}: {inner}")
        elif isinstance(c, Expect):
            out.append(f"expect {c.query_id}: {{{','.join(sorted(c.eq_ids))}}}")
    return "\n".join(out) + "\n"


# -- execution --------------------------------------------------------------------


@dataclass
class RunReport:
    """Outcome of one script run; deterministic for a script and seed."""

    script_name: str
    mode: str
    order: str
    want: str
    query_results: dict
    mode_stats: dict
    expect_failures: list
    divergences: list
    warnings: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.expect_failures and not self.divergences


def _build_signature(commands: Iterable[Command]) -> Signature:
    """The declared symbols; unset weights are 1, unset precedences the
    lowest values left free, in declaration order."""
    decls = [c for c in commands if isinstance(c, SigDecl)]
    used = {c.precedence for c in decls}
    free = (p for p in itertools.count() if p not in used)
    return Signature((c.name, c.arity, 1 if c.weight is None else c.weight,
                      next(free) if c.precedence is None else c.precedence)
                     for c in decls)


def _resolve(sig: Signature, text: str, varmap: dict) -> Term:
    """Term text as a term, read as a script line reads it (see
    ``_Tokens.term``), with the signature's own errors."""
    return _Tokens(text, 0).term(sig, varmap)[0]


# errors a script that parses can still raise while it runs: the parser
# has read every term through the signature
_RUN_ERRORS = (DuplicateEqualityError, RecursionError)


def run(script: Script, mode: str = "shared", want: str = "all",
        order_override: Optional[str] = None,
        script_name: str = "script") -> RunReport:
    """Execute a script; ``crosscheck`` runs all three modes side by side.

    Execution is deterministic.  A command that cannot run raises a
    ``ScriptError`` on its source line; a script without source lines
    (a generated one) raises the original error.
    """
    sig = _build_signature(script.commands)
    order_kind = order_override or script.order_kind
    warnings = ()
    if order_kind == "lpo" and any(isinstance(c, SigDecl) and c.weight is not None
                                   for c in script.commands):
        warnings = ("lpo ignores symbol weights; w= attributes have no effect",)
    modes = (["off", "on", "shared"] if mode == "crosscheck" else [mode])
    indexes = {m: PostOrderingIndex(sig, order_kind, m) for m in modes}

    # every index numbers equalities alike: script id <-> index id
    eq_ids: dict[str, int] = {}
    eq_names: dict[int, str] = {}
    # group key -> canonical variable names, from the first group member
    group_names: dict[Term, list] = {}

    query_results: dict[str, list] = {}
    expect_failures: list[str] = []
    divergences: list[str] = []

    try:
        for pos, cmd in enumerate(script.commands):
            if isinstance(cmd, Insert):
                varmap: dict[str, int] = {}
                lhs = _resolve(sig, cmd.lhs, varmap)
                rhs = _resolve(sig, cmd.rhs, varmap)
                for idx in indexes.values():
                    eid = idx.insert(lhs, rhs)
                eq_ids[cmd.eq_id] = eid
                eq_names[eid] = cmd.eq_id
                # the lhs numbers its variables by first occurrence, as
                # its canonical form does, and the rhs adds none
                group_names.setdefault(idx.equality(eid).lhs, list(varmap))
            elif isinstance(cmd, Delete):
                for idx in indexes.values():
                    idx.remove(eq_ids[cmd.eq_id])
            elif isinstance(cmd, Query):
                bound = dict(cmd.bindings)
                per_mode: dict[str, list] = {m: [] for m in modes}
                for key, names in group_names.items():
                    if any(n not in bound for n in names):
                        continue
                    varmap = {n: i for i, n in enumerate(names)}
                    sigma = Substitution(
                        {varmap[n]: _resolve(sig, bound[n], varmap) for n in names})
                    for m, idx in indexes.items():
                        per_mode[m].extend(eq_names[i]
                                           for i in idx.query(key, sigma, want))
                first = per_mode[modes[0]]
                for m in modes[1:]:
                    if per_mode[m] != first:
                        divergences.append(
                            f"{cmd.query_id}: {modes[0]}={first} {m}={per_mode[m]}")
                query_results[cmd.query_id] = per_mode[modes[-1]]
            elif isinstance(cmd, Expect):
                got = set(query_results.get(cmd.query_id, []))
                if got != set(cmd.eq_ids):
                    expect_failures.append(
                        f"{cmd.query_id}: expected {sorted(cmd.eq_ids)}, "
                        f"got {sorted(got)}")
    except _RUN_ERRORS as err:
        if not script.lines:
            raise
        raise ScriptError(str(err), script.lines[pos]) from err

    return RunReport(
        script_name=script_name,
        mode=mode,
        order=order_kind,
        want=want,
        query_results=query_results,
        mode_stats={m: idx.snapshot_stats() for m, idx in indexes.items()},
        expect_failures=expect_failures,
        divergences=divergences,
        warnings=warnings,
    )


# -- random scripts ----------------------------------------------------------------


@dataclass
class GenParams:
    """Size bounds for generated scripts; capped to keep runs small."""

    symbols: int = 4
    max_arity: int = 2
    max_depth: int = 3
    equalities: int = 10
    queries: int = 20
    groups: int = 2
    delete_prob: float = 0.15
    order: str = "kbo"

    _RANGES = (("symbols", 1, 5), ("max_arity", 0, 3), ("max_depth", 0, 4),
               ("equalities", 0, 30), ("queries", 0, 200), ("groups", 1, 30),
               ("delete_prob", 0, 0.5))  # more can delete forever

    def __post_init__(self):
        for name, lo, hi in self._RANGES:
            v = getattr(self, name)
            if not lo <= v <= hi:
                raise ValueError(f"{name} must be in [{lo}, {hi}], got {v}")
        if self.order not in ("kbo", "lpo"):
            raise ValueError(f"order must be kbo or lpo, got {self.order!r}")


_SYMBOL_POOL = [("a", 0), ("b", 0), ("f", 2), ("g", 1), ("h", 2)]
_GROUND_PROB = 0.7      # chance that a query binds a variable to a ground term


def _gen_term(rng: random.Random, funcs, consts, var_names,
              depth: int) -> str:
    choices = list(consts) + list(var_names)
    if depth > 0 and funcs:
        choices += [f for f, _ in funcs] * 2
    pick = rng.choice(choices)
    arity = dict(funcs).get(pick)
    if arity is None:
        return pick
    args = [_gen_term(rng, funcs, consts, var_names, depth - 1)
            for _ in range(arity)]
    return f"{pick}({','.join(args)})"


def gen_random_script(seed: int, params: Optional[GenParams] = None) -> Script:
    """A reproducible random script: same seed, same bytes."""
    params = params or GenParams()
    rng = random.Random(seed)

    pool = [(n, min(a, params.max_arity)) for n, a in _SYMBOL_POOL[:params.symbols]]
    if not any(a == 0 for _, a in pool):
        pool[0] = (pool[0][0], 0)
    precs = list(range(len(pool)))
    rng.shuffle(precs)
    commands: list[Command] = []
    for (name, arity), p in zip(pool, precs):
        w = rng.randint(1, 3) if params.order == "kbo" else None
        commands.append(SigDecl(name, arity, w, p))
    commands.append(OrderDecl(params.order))

    consts = [n for n, a in pool if a == 0]
    funcs = [(n, a) for n, a in pool if a > 0]
    var_names = ["v0", "v1", "v2"]

    # duplicate inserts are an error at run time, so dedupe candidate
    # equalities on their canonical form, the same way the index will
    sig = _build_signature(commands)

    # (lhs text, its variable names): a constant or a symbol over names
    group_lhs: list[tuple] = []
    group_keys: set = set()
    if funcs:
        for _ in range(params.groups):
            name, arity = rng.choice(funcs)
            args = [rng.choice(var_names) for _ in range(arity)]
            lhs = f"{name}({','.join(args)})"
            key, _ = canonicalize_equality(
                sig, _resolve(sig, lhs, {}), sig.app(consts[0]))
            if key not in group_keys:
                group_keys.add(key)
                group_lhs.append((lhs, list(dict.fromkeys(args))))
    if not group_lhs:
        group_lhs = [(rng.choice(consts), var_names[:1])]

    eq_cmds: list[Insert] = []
    used_pairs = set()
    attempts = 0
    while len(eq_cmds) < params.equalities and attempts < params.equalities * 30:
        attempts += 1
        lhs, vs = rng.choice(group_lhs)
        rhs = _gen_term(rng, funcs, consts, vs, rng.randint(0, params.max_depth))
        if rhs == lhs:
            continue
        varmap: dict[str, int] = {}
        try:
            pair = canonicalize_equality(sig, _resolve(sig, lhs, varmap),
                                         _resolve(sig, rhs, varmap))
        except MalformedEqualityError:
            continue
        if pair in used_pairs:
            continue
        used_pairs.add(pair)
        eq_cmds.append(Insert(f"e{len(eq_cmds) + 1}", lhs, rhs))

    inserted: list[str] = []
    asked = 0
    pending = list(eq_cmds)
    while pending or asked < params.queries:
        roll = rng.random()
        if pending and (roll < 0.4 or asked == params.queries or not inserted):
            cmd = pending.pop(0)
            commands.append(cmd)
            inserted.append(cmd.eq_id)
        elif inserted and roll < 0.4 + params.delete_prob:
            commands.append(Delete(rng.choice(inserted)))
        elif asked < params.queries and inserted:
            asked += 1
            bindings = []
            for v in var_names:
                free = [] if rng.random() < _GROUND_PROB else ["u0", "u1"]
                bindings.append((v, _gen_term(rng, funcs, consts, free,
                                              rng.randint(0, params.max_depth))))
            commands.append(Query(f"q{asked}", tuple(bindings)))
        else:
            asked = params.queries
    return Script(tuple(commands))


# -- benchmarks --------------------------------------------------------------------


def _argswap_script(n: int, seed: int, order: str) -> Script:
    commands: list[Command] = [
        SigDecl("a", 0, 1, 0),
        SigDecl("b", 0, 1, 1),
        SigDecl("f", 2, 1, 2),
        OrderDecl(order),
        Insert("e1", "f(x,y)", "f(y,x)"),
        Insert("e2", "f(x,y)", "f(x,x)"),
    ]
    rng = random.Random(seed)
    images = ["a", "b", "f(a,a)", "f(a,b)", "f(b,a)", "f(f(a,a),b)", "u0", "u1"]
    for i in range(n):
        commands.append(Query(f"q{i + 1}", (("x", rng.choice(images)),
                                            ("y", rng.choice(images)))))
    return Script(tuple(commands))


def _poly_script(n: int, seed: int, order: str) -> Script:
    rng = random.Random(seed)
    commands: list[Command] = [
        SigDecl("a", 0, 1, 0),
        SigDecl("b", 0, 2, 1),
        SigDecl("g", 1, 2, 2),
        SigDecl("h", 1, 3, 3),
        SigDecl("f", 2, 1, 4),
        OrderDecl(order),
    ]
    sig = _build_signature(commands)
    kbo = make_order("kbo", sig)
    funcs = [("f", 2), ("g", 1), ("h", 1)]
    consts = ["a", "b"]
    lhs = "f(x,y)"
    chosen = []
    attempts = 0
    while len(chosen) < 6 and attempts < 500:
        attempts += 1
        rhs = _gen_term(rng, funcs, consts, ["x", "y"], 3)
        if rhs in chosen or rhs == lhs:
            continue
        varmap: dict[str, int] = {}
        l = _resolve(sig, lhs, varmap)
        r = _resolve(sig, rhs, varmap)
        diff = term_weight(l) - term_weight(r)
        if not diff._coeffs:
            continue
        if kbo.compare(l, r) is Label.GT or kbo.compare(r, l) is Label.GT:
            continue
        chosen.append(rhs)
        commands.append(Insert(f"e{len(chosen)}", lhs, rhs))
    for i in range(n):
        bindings = []
        for v in ("x", "y"):
            img = _gen_term(rng, funcs, consts,
                            [] if rng.random() < 0.7 else ["u0"], 2)
            bindings.append((v, img))
        commands.append(Query(f"q{i + 1}", tuple(bindings)))
    return Script(tuple(commands))


def bench(family: str, n: int, order: str = "kbo", want: str = "all",
          seed: int = 0, mode: str = "crosscheck") -> RunReport:
    """Run a benchmark family and return its report (one Stats per mode)."""
    if n < 0:
        raise ValueError(f"bench size must be >= 0, got {n}")
    if family == "swap":
        script = _argswap_script(n, seed, order)
    elif family == "poly":
        script = _poly_script(n, seed, order)
    else:
        raise ValueError(f"unknown bench family {family!r}")
    return run(script, mode=mode, want=want, script_name=f"bench-{family}")


# -- stats output -------------------------------------------------------------------

CSV_HEADER = ("script,mode,order,queries,answers,demodulators,tods,"
              "created_term,created_success,created_pos,"
              "processed_term,processed_success,processed_pos,"
              "traversed_term,traversed_success,traversed_pos,"
              "naive_comparisons")


def emit_stats_csv(reports: Iterable[RunReport]) -> str:
    """One row per (script, mode); fixed header, base-10 numbers."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for rep in reports:
        for mode, st in rep.mode_stats.items():
            c, p, t = st.nodes_created, st.nodes_processed, st.nodes_traversed
            row = [rep.script_name, mode, rep.order,
                   st.queries, st.answers, st.demodulators, st.tods,
                   c.term, c.success, c.pos,
                   p.term, p.success, p.pos,
                   t.term, t.success, t.pos,
                   st.naive_comparisons]
            out.write(",".join(str(x) for x in row) + "\n")
    return out.getvalue()
