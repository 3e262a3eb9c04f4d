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

Terms are written in prefix notation; identifiers not declared as
symbols are variables.  ``w=`` and ``p=`` are optional: the weight
defaults to 1, and a symbol without ``p=`` takes the lowest precedence
left free, in declaration order.  A query binds variables by the
names used in the equalities; it runs against every group whose
left-hand side variables are all bound.
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
from .terms import Label, Signature, SignatureError, Substitution, Term, term_weight


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


# -- term text ------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _TermScanner:
    def __init__(self, text: str, line: int, offset: int):
        self.text = text
        self.pos = 0
        self.line = line
        self.offset = offset

    def error(self, message: str) -> ScriptError:
        return ScriptError(message, self.line, self.offset + self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def term(self) -> str:
        """Scan one term and return its text without blanks.  The
        scanner counts the applications still open, so any depth is
        fine."""
        out: list[str] = []
        depth = 0
        while True:
            self.skip_ws()
            m = _IDENT.match(self.text, self.pos)
            if not m:
                raise self.error("expected an identifier")
            self.pos = m.end()
            out.append(m.group())
            self.skip_ws()
            if self.peek() == "(":
                self.pos += 1
                out.append("(")
                depth += 1
                continue
            # the name completes an argument; close every application it ends
            while depth:
                self.skip_ws()
                c = self.peek()
                if c not in (",", ")"):
                    raise self.error("expected ',' or ')'")
                self.pos += 1
                out.append(c)
                if c == ",":
                    break
                depth -= 1
            else:
                return "".join(out)

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected trailing input {self.text[self.pos:]!r}")

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)


# -- script parsing ---------------------------------------------------------------

_SIG_RE = re.compile(
    r"sig\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*/\s*(?P<arity>\d+)"
    r"(?P<attrs>(\s+[wp]=\d+)*)\s*$")


def parse_script(text: str) -> Script:
    commands: list[Command] = []
    lines: list[int] = []
    seen_term_command = False
    order_lines: list[int] = []
    eq_ids: set[str] = set()
    query_ids: set[str] = set()
    used_precs: set[int] = set()

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split(None, 1)[0]

        if word == "sig":
            if seen_term_command:
                raise ScriptError("sig declarations must precede equalities "
                                  "and queries", lineno)
            m = _SIG_RE.match(line)
            if not m:
                raise ScriptError("expected 'sig NAME/ARITY [w=INT] [p=INT]'",
                                  lineno)
            name = m.group("name")
            if any(isinstance(c, SigDecl) and c.name == name for c in commands):
                raise ScriptError(f"duplicate symbol {name!r}", lineno)
            attrs = {}
            for attr in m.group("attrs").split():
                key, val = attr.split("=")
                if key in attrs:
                    raise ScriptError(f"symbol {name} repeats {key}=", lineno)
                attrs[key] = int(val)
            weight, prec = attrs.get("w"), attrs.get("p")
            if weight is not None and weight < 1:
                raise ScriptError(f"symbol {name} has weight {weight}; "
                                  "weights must be >= 1", lineno)
            if prec is not None:
                if prec in used_precs:
                    raise ScriptError(f"duplicate precedence {prec}", lineno)
                used_precs.add(prec)
            commands.append(SigDecl(name, int(m.group("arity")), weight, prec))

        elif word == "ord":
            parts = line.split()
            if len(parts) != 2 or parts[1] not in ("kbo", "lpo"):
                raise ScriptError("expected 'ord kbo' or 'ord lpo'", lineno)
            order_lines.append(lineno)
            commands.append(OrderDecl(parts[1]))

        elif word == "eq":
            m = re.match(r"eq\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$", line)
            if not m:
                raise ScriptError("expected 'eq ID: TERM = TERM'", lineno)
            eq_id, rest = m.group(1), m.group(2)
            if eq_id in eq_ids:
                raise ScriptError(f"duplicate equality id {eq_id!r}", lineno)
            eq_ids.add(eq_id)
            sc = _TermScanner(rest, lineno, len(line) - len(rest))
            lhs = sc.term()
            sc.expect("=")
            rhs = sc.term()
            sc.expect_end()
            commands.append(Insert(eq_id, lhs, rhs))
            seen_term_command = True

        elif word == "del":
            parts = line.split()
            if len(parts) != 2:
                raise ScriptError("expected 'del ID'", lineno)
            if parts[1] not in eq_ids:
                raise ScriptError(f"unknown equality id {parts[1]!r}", lineno)
            commands.append(Delete(parts[1]))
            seen_term_command = True

        elif word == "query":
            m = re.match(r"query\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$", line)
            if not m:
                raise ScriptError("expected 'query ID: VAR:=TERM, ...'", lineno)
            qid, rest = m.group(1), m.group(2)
            if qid in query_ids:
                raise ScriptError(f"duplicate query id {qid!r}", lineno)
            query_ids.add(qid)
            sc = _TermScanner(rest, lineno, len(line) - len(rest))
            bindings = []
            while True:
                sc.skip_ws()
                mv = _IDENT.match(sc.text, sc.pos)
                if not mv:
                    raise sc.error("expected a variable name")
                var = mv.group()
                sc.pos = mv.end()
                sc.expect(":=")
                bindings.append((var, sc.term()))
                sc.skip_ws()
                if sc.peek() != ",":
                    break
                sc.pos += 1
            sc.expect_end()
            if len({v for v, _ in bindings}) != len(bindings):
                raise ScriptError("variable bound twice in query", lineno)
            commands.append(Query(qid, tuple(bindings)))
            seen_term_command = True

        elif word == "expect":
            m = re.match(r"expect\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*"
                         r"\{([^}]*)\}\s*$", line)
            if not m:
                raise ScriptError("expected 'expect QUERYID: {ID,...}'", lineno)
            qid = m.group(1)
            if qid not in query_ids:
                raise ScriptError(f"unknown query id {qid!r}", lineno)
            ids = frozenset(s.strip() for s in m.group(2).split(",") if s.strip())
            unknown = ids - eq_ids
            if unknown:
                raise ScriptError(f"unknown equality ids {sorted(unknown)}", lineno)
            commands.append(Expect(qid, ids))

        else:
            raise ScriptError(f"unknown command {word!r}", lineno)
        lines.append(lineno)

    if len(order_lines) != 1:
        raise ScriptError("script must contain exactly one 'ord' line",
                          order_lines[1] if order_lines else 0)

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


# the tokens of term text: "name(" opens an application and ")" closes
# it; commas only separate names, so they are skipped
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\(?|\)")


def _resolve(sig: Signature, text: str, varmap: dict) -> Term:
    """Term text as a term; undeclared identifiers are variables,
    numbered through ``varmap`` in left-to-right order.  It keeps its
    own stack of open applications, so any term the parser accepts
    resolves."""
    args: list[Term] = []       # the arguments resolved so far
    open_apps: list = []        # (name, arguments of the enclosing one)
    for tok in _TOKEN.findall(text):
        if tok[-1] == "(":
            open_apps.append((tok[:-1], args))
            args = []
        elif tok == ")":
            name, outer = open_apps.pop()
            outer.append(sig.app(name, args))
            args = outer
        elif sig.has_symbol(tok):
            args.append(sig.app(tok, ()))
        else:
            args.append(sig.var(varmap.setdefault(tok, len(varmap))))
    return args[0]


# errors a script that parses can still raise while it runs
_RUN_ERRORS = (SignatureError, MalformedEqualityError, DuplicateEqualityError,
               RecursionError)


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
    remaining_queries = params.queries
    q_n = 0
    body: list[Command] = []
    pending = list(eq_cmds)
    while pending or remaining_queries > 0:
        roll = rng.random()
        if pending and (roll < 0.4 or remaining_queries == 0):
            cmd = pending.pop(0)
            body.append(cmd)
            inserted.append(cmd.eq_id)
        elif inserted and roll < 0.4 + params.delete_prob:
            body.append(Delete(rng.choice(inserted)))
        elif remaining_queries > 0 and inserted:
            q_n += 1
            remaining_queries -= 1
            bindings = []
            for v in var_names:
                if rng.random() < _GROUND_PROB:
                    img = _gen_term(rng, funcs, consts, [],
                                    rng.randint(0, params.max_depth))
                else:
                    img = _gen_term(rng, funcs, consts, ["u0", "u1"],
                                    rng.randint(0, params.max_depth))
                bindings.append((v, img))
            body.append(Query(f"q{q_n}", tuple(bindings)))
        elif pending:
            cmd = pending.pop(0)
            body.append(cmd)
            inserted.append(cmd.eq_id)
        else:
            remaining_queries = 0
    commands.extend(body)
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
        if len(varmap) > 2:
            continue
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
