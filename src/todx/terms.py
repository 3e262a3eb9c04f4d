"""Signatures, interned first-order terms, substitutions, and weight arithmetic.

Terms are perfectly shared: building the same tree twice through one
``Signature`` returns the same object, so structural equality is an
identity check.  Signatures and terms are immutable once built; the
interner is mutated only while constructing new terms and carries a
single-writer contract.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional, Union


class SignatureError(ValueError):
    """Invalid signature declaration."""


class UnknownSymbolError(SignatureError):
    """Symbol name not declared in the signature."""


class ArityError(SignatureError):
    """Application with the wrong number of arguments."""


@dataclass(frozen=True, slots=True)
class Symbol:
    """A function symbol with weight and precedence parameters."""

    name: str
    arity: int
    weight: int
    precedence: int
    index: int

    def __repr__(self) -> str:
        return self.name


class Term:
    """An interned term: a variable or a symbol application.

    Never construct directly; use ``Signature.var`` / ``Signature.app``.
    Equality and hashing are by identity, which coincides with
    structural equality thanks to interning.  ``least`` is the term's
    weight with every variable at ``w0``, its least weight over all
    groundings with |x| >= w0; the signature sets it on construction.
    ``_weight`` and ``_canon`` cache pure functions of the term (its
    weight, and the index's canonical form of it as a left-hand side),
    filled on first use; they live and die with the term and never go
    stale.
    """

    __slots__ = ("sym", "args", "vid", "ground", "tid", "least", "_weight",
                 "_canon")

    def __init__(self, sym: Optional[Symbol], args: tuple, vid: int,
                 ground: bool, tid: int, least: int):
        self.sym = sym
        self.args = args
        self.vid = vid
        self.ground = ground
        self.tid = tid
        self.least = least
        self._weight: Optional[LinearExpr] = None
        self._canon: Optional[tuple] = None

    def __repr__(self) -> str:
        """``x3``, ``a`` or ``f(x3,a)``.  The walk keeps its own stack of
        terms and punctuation still to print, so any depth is fine."""
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            if type(t) is str:
                out.append(t)
            elif t.sym is None:
                out.append(f"x{t.vid}")
            elif not t.args:
                out.append(t.sym.name)
            else:
                out += (t.sym.name, "(")
                stack.append(")")
                for a in reversed(t.args[1:]):
                    stack += (a, ",")
                stack.append(t.args[0])
        return "".join(out)


# A raw term tree for Signature.intern: an int is a variable id, a str is a
# constant name, and a pair (name, [raw, ...]) is an application.
RawTerm = Union[int, str, tuple]


class Signature:
    """A fixed set of function symbols plus the term interner over them.

    A symbol's name must be a non-empty str, and arity, weight and
    precedence ints.  Every symbol weight must be at least 1 and at
    least one constant must exist, so the smallest constant weight
    ``w0`` is positive and the weight of any ground term is at least
    ``w0``.  A variable id must be an int.
    """

    def __init__(self, symbols: Iterable[tuple]):
        syms = []
        by_name: dict[str, Symbol] = {}
        precs = set()
        for i, decl in enumerate(symbols):
            name, arity, weight, precedence = decl
            if type(name) is not str or not name:
                raise SignatureError(f"symbol name {name!r} is not a non-empty str")
            # True is an int to isinstance: only a plain int counts
            if not all(type(p) is int for p in (arity, weight, precedence)):
                raise SignatureError(
                    f"symbol {name} has arity, weight and precedence "
                    f"{arity!r}, {weight!r}, {precedence!r}; each must be an int")
            if arity < 0:
                raise SignatureError(f"negative arity for {name}")
            if weight < 1:
                raise SignatureError(
                    f"symbol {name} has weight {weight}; weights must be >= 1")
            if precedence in precs:
                raise SignatureError(
                    f"duplicate precedence {precedence} (at symbol {name})")
            if name in by_name:
                raise SignatureError(f"duplicate symbol name {name}")
            sym = Symbol(name, arity, weight, precedence, i)
            syms.append(sym)
            by_name[name] = sym
            precs.add(precedence)
        consts = [s.weight for s in syms if s.arity == 0]
        if not consts:
            raise SignatureError("signature must contain at least one constant")
        self._symbols = tuple(syms)
        self._by_name = by_name
        self.w0 = min(consts)
        self._apps: dict[tuple, Term] = {}
        self._vars: dict[int, Term] = {}
        self._next_tid = 0

    @property
    def symbols(self) -> tuple:
        return self._symbols

    def symbol(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol {name!r}") from None

    def has_symbol(self, name: str) -> bool:
        return name in self._by_name

    def _new_tid(self) -> int:
        tid = self._next_tid
        self._next_tid = tid + 1
        return tid

    def var(self, vid: int) -> Term:
        if type(vid) is not int:        # True would key x1
            raise TypeError(f"variable id {vid!r} is not an int")
        t = self._vars.get(vid)
        if t is None:
            t = Term(None, (), vid, False, self._new_tid(), self.w0)
            self._vars[vid] = t
        return t

    def app(self, f: Union[Symbol, str], args: Sequence[Term] = ()) -> Term:
        if isinstance(f, str):
            f = self.symbol(f)
        elif self._by_name.get(f.name) is not f:
            # its index may key another symbol's terms here
            raise SignatureError(f"symbol {f.name} is not of this signature")
        args = tuple(args)
        if len(args) != f.arity:
            raise ArityError(
                f"{f.name} expects {f.arity} arguments, got {len(args)}")
        key = (f.index,) + tuple(a.tid for a in args)
        t = self._apps.get(key)
        if t is None:
            ground, least = True, f.weight
            for a in args:
                ground = ground and a.ground
                least += a.least
            t = Term(f, args, -1, ground, self._new_tid(), least)
            self._apps[key] = t
        return t

    def intern(self, raw: RawTerm) -> Term:
        """Intern a raw term tree (see ``RawTerm``).  The walk keeps its
        own stack, so any depth is fine."""
        var, app = self.var, self.app
        if isinstance(raw, int):
            return var(raw)
        if isinstance(raw, str):
            return app(raw, ())
        if isinstance(raw, Term):
            return raw
        # the open application: its name, its raw arguments not yet
        # visited and its interned ones; the applications above it wait
        # on the stack
        name, args = raw
        todo, done, stack = iter(args), [], []
        while True:
            for item in todo:
                if isinstance(item, int):
                    item = var(item)
                elif isinstance(item, str):
                    item = app(item, ())
                elif not isinstance(item, Term):
                    stack.append((name, todo, done))
                    name, args = item
                    todo, done = iter(args), []
                    break
                done.append(item)
            else:
                t = app(name, done)
                if not stack:
                    return t
                name, todo, done = stack.pop()
                done.append(t)


class Substitution:
    """A finite mapping from variable ids to terms.

    Identity bindings are dropped on construction, so the empty
    substitution is exactly the one with no bindings.
    """

    __slots__ = ("_m",)

    def __init__(self, bindings: Union[Mapping[int, Term], Iterable[tuple]] = ()):
        items = bindings.items() if isinstance(bindings, Mapping) else bindings
        self._m = {v: t for v, t in items if not (t.sym is None and t.vid == v)}

    @property
    def is_empty(self) -> bool:
        return not self._m

    def __repr__(self) -> str:
        inner = ", ".join(f"x{v}->{t!r}" for v, t in sorted(self._m.items()))
        return "{" + inner + "}"


EMPTY_SUBST = Substitution()


class Label(enum.Enum):
    """The answer of a check: the label of the edge the walk takes next.

    A term comparison answers GT, EQ or NGE; NGE merges "smaller" and
    "incomparable", which is all a post-ordering check needs.  A
    positivity check answers GT, GEQ or NGE over all groundings.  NEXT
    labels the one edge out of a root or success node.
    """

    GT = ">"
    EQ = "="
    GEQ = ">="
    NGE = "!>="
    NEXT = "."

    def __repr__(self) -> str:
        return self.value


class LinearExpr:
    """An integer linear expression over variables plus a constant.

    Zero coefficients are dropped on construction, so comparing against
    the zero expression is a cheap structural check.  Instances are
    immutable and hashable.
    """

    __slots__ = ("constant", "_coeffs")

    def __init__(self, constant: int = 0, coeffs: Union[dict, Iterable[tuple]] = ()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        self.constant = constant
        self._coeffs = tuple(sorted((v, c) for v, c in items if c != 0))

    @property
    def is_zero(self) -> bool:
        return self.constant == 0 and not self._coeffs

    def __sub__(self, other: "LinearExpr") -> "LinearExpr":
        acc = dict(self._coeffs)
        for v, c in other._coeffs:
            acc[v] = acc.get(v, 0) - c
        return LinearExpr(self.constant - other.constant, acc)

    def subst(self, sigma: Substitution) -> "LinearExpr":
        """Replace every variable by the weight of its image under sigma."""
        if sigma.is_empty or not self._coeffs:
            return self
        acc: dict[int, int] = {}
        return LinearExpr(_fold(acc, self, 1, sigma), acc)

    def sign(self, w0: int, sigma: Optional[Substitution] = None,
             minus: Optional["LinearExpr"] = None,
             theta: Optional[Substitution] = None) -> Label:
        """Classify self*sigma - minus*theta over all groundings with |x| >= w0.

        GT when it is positive for every grounding, GEQ when its minimum
        is 0, NGE otherwise.  A negative coefficient admits arbitrarily
        negative values; otherwise the minimum is attained with every
        variable at w0.  ``e*sigma`` is ``e.subst(sigma)``; an absent
        substitution is the empty one and an absent ``minus`` is 0.  The
        difference is summed in one pass over the coefficients and the
        images' cached weights, without building it as an expression.
        """
        acc: dict[int, int] = {}
        total = _fold(acc, self, 1, sigma)
        if minus is not None:
            total += _fold(acc, minus, -1, theta)
        for c in acc.values():
            if c < 0:
                return Label.NGE
            total += c * w0
        if total > 0:
            return Label.GT
        if total == 0:
            return Label.GEQ
        return Label.NGE

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self.constant == other.constant and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.constant, self._coeffs))

    def __repr__(self) -> str:
        parts = []
        for v, c in self._coeffs:
            if c == 1:
                parts.append(f"+ x{v}")
            elif c == -1:
                parts.append(f"- x{v}")
            elif c >= 0:
                parts.append(f"+ {c}*x{v}")
            else:
                parts.append(f"- {-c}*x{v}")
        if self.constant or not parts:
            parts.append(f"+ {self.constant}" if self.constant >= 0
                         else f"- {-self.constant}")
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]


def term_weight(t: Term) -> LinearExpr:
    """The weight |t|: symbol weights summed plus one unit per variable.

    The result is cached in the shared term and its subterms; weights
    are signature constants, so cached values never need invalidation.
    The walk keeps its own stack, so any depth is fine.
    """
    w = t._weight
    if w is not None:
        return w
    stack = [t]
    while stack:
        u = stack.pop()
        todo = [a for a in u.args if a._weight is None]
        if todo:
            stack.append(u)             # again once its arguments are done
            stack.extend(todo)
        elif u._weight is None:         # a shared subterm may come twice
            const, acc = ((0, {u.vid: 1}) if u.sym is None
                          else (u.sym.weight, {}))
            for a in u.args:
                wa = a._weight
                const += wa.constant
                for v, c in wa._coeffs:
                    acc[v] = acc.get(v, 0) + c
            u._weight = LinearExpr(const, acc)
    return t._weight


def _fold(acc: dict, e: LinearExpr, k: int,
          sigma: Optional[Substitution]) -> int:
    """Add k * e.subst(sigma)'s coefficients into acc; return its constant."""
    m = None if sigma is None else sigma._m
    const = k * e.constant
    for v, c in e._coeffs:
        img = m.get(v) if m else None
        if img is None:
            acc[v] = acc.get(v, 0) + k * c
        else:
            w = img._weight
            if w is None:
                w = term_weight(img)
            kc = k * c
            const += kc * w.constant
            for v2, c2 in w._coeffs:
                acc[v2] = acc.get(v2, 0) + kc * c2
    return const
