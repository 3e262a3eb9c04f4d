"""Reference implementations written directly from the order definitions.

These deliberately avoid the library's comparison code paths: weights
are recomputed on every call from scratch, the argument rules search
over every split position, and nothing is memoized.  Slow but obviously
faithful, which is what a test oracle should be.  The one-shot
counterparts of the library's incremental code live here too:
instantiation, the path term formula and a naive fixpoint closure of
partial-ordering facts.
"""

from __future__ import annotations

from itertools import permutations, product

from todx import Label


def ref_weight(t):
    """(constant, {vid: coeff}) computed by a fresh traversal."""
    const = 0
    coeffs: dict[int, int] = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if u.sym is None:
            coeffs[u.vid] = coeffs.get(u.vid, 0) + 1
        else:
            const += u.sym.weight
            stack.extend(u.args)
    return const, coeffs


def ref_sign(const, coeffs, w0):
    if any(c < 0 for c in coeffs.values()):
        return Label.NGE
    low = const + w0 * sum(coeffs.values())
    if low > 0:
        return Label.GT
    if low == 0:
        return Label.GEQ
    return Label.NGE


def _ref_weight_diff_sign(s, t, w0):
    cs, xs = ref_weight(s)
    ct, xt = ref_weight(t)
    coeffs = dict(xs)
    for v, c in xt.items():
        coeffs[v] = coeffs.get(v, 0) - c
    return ref_sign(cs - ct, coeffs, w0)


def ref_kbo(sig, s, t):
    """KBO verdict by literal application of the three defining cases."""
    if s is t:
        return Label.EQ
    sg = _ref_weight_diff_sign(s, t, sig.w0)
    if sg is Label.GT:
        return Label.GT
    if sg is Label.GEQ and s.sym is not None and t.sym is not None:
        if s.sym.precedence > t.sym.precedence:
            return Label.GT
        if s.sym is t.sym:
            n = len(s.args)
            for i in range(n):
                if (all(s.args[j] is t.args[j] for j in range(i))
                        and ref_kbo(sig, s.args[i], t.args[i]) is Label.GT):
                    return Label.GT
    return Label.NGE


def _ref_lpo_greater(s, t):
    if s.sym is None:
        return False
    if any(a is t or _ref_lpo_greater(a, t) for a in s.args):
        return True
    if t.sym is None:
        return False
    if s.sym is t.sym:
        n = len(s.args)
        for i in range(n):
            if (all(s.args[j] is t.args[j] for j in range(i))
                    and _ref_lpo_greater(s.args[i], t.args[i])
                    and all(_ref_lpo_greater(s, t.args[k])
                            for k in range(i + 1, n))):
                return True
    if s.sym.precedence > t.sym.precedence:
        if all(_ref_lpo_greater(s, b) for b in t.args):
            return True
    return False


def ref_lpo(sig, s, t):
    if s is t:
        return Label.EQ
    return Label.GT if _ref_lpo_greater(s, t) else Label.NGE


def ref_compare(sig, kind, s, t):
    return ref_kbo(sig, s, t) if kind == "kbo" else ref_lpo(sig, s, t)


def brute_sign(expr, w0, span=6):
    """Classify a linear expression by enumerating a grid of groundings.

    Assigns every variable each value in {w0, ..., w0+span-1}; returns
    (verdict, witness) where the witness is an assignment with a
    negative value when one exists on the grid.
    """
    coeffs = dict(expr._coeffs)
    if any(c < 0 for c in coeffs.values()):
        # some grounding family is unbounded below
        pass
    vids = sorted(coeffs)
    values = []
    witness = None
    for combo in product(range(w0, w0 + span), repeat=len(vids)):
        val = expr.constant + sum(c * v for c, v in zip(
            (coeffs[x] for x in vids), combo))
        values.append(val)
        if val < 0 and witness is None:
            witness = dict(zip(vids, combo))
    if any(c < 0 for c in coeffs.values()):
        return Label.NGE, witness
    if all(v > 0 for v in values):
        return Label.GT, witness
    if all(v >= 0 for v in values):
        return Label.GEQ, witness
    return Label.NGE, witness


def instantiate(sig, t, sigma):
    """Instantiate ``t`` with ``sigma`` (simultaneous, non-recursive).

    Shared subterms are rebuilt once, so the cost is linear in the
    dag size of ``t``.
    """
    if t.ground or sigma.is_empty:
        return t
    memo: dict[int, object] = {}

    def go(u):
        if u.ground:
            return u
        if u.sym is None:
            img = sigma._m.get(u.vid)
            return u if img is None else img
        r = memo.get(u.tid)
        if r is None:
            r = sig.app(u.sym, [go(a) for a in u.args])
            memo[u.tid] = r
        return r

    return go(t)


def term_formula(order, steps, node_terms=()):
    """The constraint conjunction for a traversed path.

    ``steps`` holds one (s, Label, t) entry per term comparison followed
    by the edge it took; positivity checks contribute nothing and are
    simply not listed.  ``node_terms`` are the label terms of the node
    under examination, which count as top-level terms but add no edge
    fact.  On top of the edge facts, every statically ordered pair of
    top-level terms becomes a greater-than fact.  ``TpoStore.extend``
    is the incremental version of this one-shot formula.
    """
    facts = list(steps)
    tops = []

    def note(v):
        if all(v is not u for u in tops):
            tops.append(v)

    for s, _, t in steps:
        note(s)
        note(t)
    for v in node_terms:
        note(v)
    for v in tops:
        for u in tops:
            if u is not v and order.compare(v, u) is Label.GT:
                facts.append((v, Label.GT, u))
    return facts


class Contradiction(Exception):
    """The naive closure derived conflicting facts."""


def ref_closure(n, facts):
    """Close (i, Label, j) facts over elements 0..n-1 by naive fixpoint.

    Besides = being symmetric and a > b entailing b !>= a, the rules
    tr1-tr5 of a simplification order are applied to every triple of
    distinct elements until nothing changes.  Returns the derived facts
    on distinct pairs.  Raises ``Contradiction`` for a reflexive strict
    input fact or when a pair ends up with two different relations.
    """
    G, E, N = Label.GT, Label.EQ, Label.NGE
    known = set()
    for i, r, j in facts:
        if i != j:
            known.add((i, r, j))
        elif r is not E:
            raise Contradiction((i, r, j))

    def ge(a, b):
        return (a, G, b) in known or (a, E, b) in known

    while True:
        new = {(j, E, i) for i, r, j in known if r is E}
        new |= {(j, N, i) for i, r, j in known if r is G}
        for a, b, c in permutations(range(n), 3):
            if (a, E, b) in known and (b, E, c) in known:       # tr1
                new.add((a, E, c))
            if ge(a, b) and (b, G, c) in known:                  # tr2
                new.add((a, G, c))
            if (a, G, b) in known and ge(b, c):                  # tr3
                new.add((a, G, c))
            if (a, N, b) in known and ge(c, b):                  # tr4
                new.add((a, N, c))
            if ge(b, a) and (b, N, c) in known:                  # tr5
                new.add((a, N, c))
        if new <= known:
            break
        known |= new
    for i, j in permutations(range(n), 2):
        if sum((i, r, j) in known for r in (G, E, N)) > 1:
            raise Contradiction((i, j))
    return known
