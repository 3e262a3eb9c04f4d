"""Three-valued KBO and LPO comparisons of closure terms.

A comparison answers with a ``Label``: GT, EQ or NGE (not greater or
equal).  NGE deliberately merges "smaller" and "incomparable", which is
all a post-ordering check needs.  A closure term is a (term,
substitution) pair compared without materializing the instance: the
substitution is consulted only when the traversal reaches a variable.
Each order has one comparison, ``compare_closure``; ``compare(s, t)``
is that comparison under empty substitutions.

All comparisons are pure functions over immutable terms.  The weight
memoization cache lives in the shared terms and follows the same
single-writer contract as the interner.  An order's one mutable field
is ``steps``, which counts the entries into ``compare_closure``; an
order that indexes share across threads can over-count it, but answers
are not affected.
"""

from __future__ import annotations

from itertools import repeat

from .terms import EMPTY_SUBST, Label, Signature, Substitution, Term, term_weight

_GT, _EQ, _GEQ, _NGE = Label.GT, Label.EQ, Label.GEQ, Label.NGE


def _deref(s: Term, sigma: Substitution):
    """Resolve a closure-term pair to its effective (term, substitution).

    Variables look up their image once (simultaneous application:
    variables inside the image stay free).  Every pair whose effective
    substitution is empty (a ground term, a variable, or an empty
    substitution) gets ``EMPTY_SUBST`` itself, so identical effective
    pairs are identical objects.
    """
    m = sigma._m
    if not m:
        return s, EMPTY_SUBST
    if s.sym is None:
        img = m.get(s.vid)
        return (s, EMPTY_SUBST) if img is None else (img, EMPTY_SUBST)
    if s.ground:
        return s, EMPTY_SUBST
    return s, sigma


def closure_equal(s: Term, sigma: Substitution, t: Term, theta: Substitution) -> bool:
    """Whether s*sigma and t*theta denote the same term, without building
    it.  Argument pairs wait on a stack of its own, so any depth is fine."""
    stack = []
    while True:
        if s is not t or sigma is not theta:
            s, sigma = _deref(s, sigma)
            t, theta = _deref(t, theta)
            if sigma is EMPTY_SUBST and theta is EMPTY_SUBST:
                if s is not t:
                    return False
            elif s.sym is not t.sym:
                # this includes a variable left by deref, which has an
                # empty substitution, against a non-ground application
                return False
            else:
                stack.extend(zip(s.args, repeat(sigma), t.args, repeat(theta)))
        if not stack:
            return True
        s, sigma, t, theta = stack.pop()


class TermOrder:
    """Common surface of the two simplification orders."""

    kind = ""

    def __init__(self, signature: Signature):
        self.signature = signature
        self.steps = 0


class KboOrder(TermOrder):
    """Knuth-Bendix order: weights first, then precedence, then arguments.

    Variable cases resolve uniformly through the weight-difference sign:
    when either side is a variable the precedence and argument rules are
    inapplicable, so the verdict is the sign plus structural equality.
    Under weights >= 1 this yields the standard relation.
    """

    kind = "kbo"

    def compare(self, s: Term, t: Term) -> Label:
        return self.compare_closure(s, EMPTY_SUBST, t, EMPTY_SUBST)

    def compare_closure(self, s: Term, sigma: Substitution,
                        t: Term, theta: Substitution) -> Label:
        # a loop into the first differing argument pair, one step a
        # level: its verdict is the answer, but EQ below the top is NGE.
        # The last pair is not scanned: when every pair before it is
        # equal, its verdict is the answer, EQ included, and an
        # identical one answers without a step
        eq = _EQ
        w0 = self.signature.w0
        while True:
            self.steps += 1
            s, sigma = _deref(s, sigma)
            t, theta = _deref(t, theta)
            if s is t and sigma is theta:
                return eq
            # The weight step signs |s*sigma| - |t*theta| in integers: the
            # least weight of s*sigma (each variable's image's Term.least,
            # w0 if unbound) less the weight of t*theta.  Weights have no
            # negative coefficient, so this is the least difference, and
            # exact, when every variable of t has a ground image, or with
            # both substitutions empty once s holds each variable of t
            # as often as t does; else LinearExpr.sign folds both weights.
            if theta is EMPTY_SUBST:
                exact = t.ground
                total = -t.least
                if not exact and sigma is EMPTY_SUBST:
                    # a variable more often in t than in s: a heavy image
                    # of it makes |s| - |t| negative
                    held = dict(term_weight(s)._coeffs)
                    for v, c in term_weight(t)._coeffs:
                        if held.get(v, 0) < c:
                            return _NGE
                    exact = True
            else:
                exact = True
                m = theta._m
                wt = term_weight(t)
                total = -wt.constant
                for v, c in wt._coeffs:
                    img = m.get(v)
                    if img is None or not img.ground:
                        exact = False
                        break
                    total -= c * img.least
            if exact:
                if sigma is EMPTY_SUBST:
                    total += s.least
                else:
                    m = sigma._m
                    ws = term_weight(s)
                    total += ws.constant
                    for v, c in ws._coeffs:
                        img = m.get(v)
                        total += c * (w0 if img is None else img.least)
                if total:
                    return _GT if total > 0 else _NGE
            else:
                sg = term_weight(s).sign(w0, sigma, term_weight(t), theta)
                if sg is not _GEQ:
                    return sg
            if s.sym is None or t.sym is None:
                # A variable left by deref vs. a term of the same weight:
                # equal instances were ruled out above, greater is impossible.
                return _NGE
            if s.sym.precedence > t.sym.precedence:
                return _GT
            if s.sym is not t.sym:
                return _NGE
            args_s, args_t = s.args, t.args
            last = len(args_s) - 1      # equal applications were caught above
            for i in range(last):
                if not closure_equal(args_s[i], sigma, args_t[i], theta):
                    s, t, eq = args_s[i], args_t[i], _NGE
                    break
            else:
                s, sigma = _deref(args_s[last], sigma)
                t, theta = _deref(args_t[last], theta)
                if s is t and sigma is theta:
                    return eq


class LpoOrder(TermOrder):
    """Lexicographic path order, purely precedence based."""

    kind = "lpo"

    def compare(self, s: Term, t: Term) -> Label:
        return self.compare_closure(s, EMPTY_SUBST, t, EMPTY_SUBST)

    def compare_closure(self, s: Term, sigma: Substitution,
                        t: Term, theta: Substitution) -> Label:
        # a loop into the last comparison whose verdict is the answer,
        # one step a turn; eq is what EQ there answers
        eq = _EQ
        while True:
            self.steps += 1
            s, sigma = _deref(s, sigma)
            t, theta = _deref(t, theta)
            if s is t and sigma is theta:
                return eq
            if s.sym is None:
                return _NGE
            if t.sym is not None:
                if s.sym is t.sym:
                    args_s, args_t = s.args, t.args
                    k = len(args_s)
                    i = 0
                    # the last pair is not scanned: when every pair before
                    # it is equal, its verdict is the answer, EQ included,
                    # and an identical one answers without a step
                    while i < k - 1 and closure_equal(args_s[i], sigma, args_t[i], theta):
                        i += 1
                    if i == k - 1:
                        s, sigma = _deref(args_s[i], sigma)
                        t, theta = _deref(args_t[i], theta)
                        if s is t and sigma is theta:
                            return eq
                        continue
                    if self.compare_closure(args_s[i], sigma, args_t[i], theta) is _GT:
                        for l in range(i + 1, k - 1):
                            if self.compare_closure(s, sigma, args_t[l], theta) is not _GT:
                                return _NGE
                        t, eq = args_t[k - 1], _NGE
                        continue
                    for j in range(i + 1, k - 1):
                        if self.compare_closure(args_s[j], sigma, t, theta) is not _NGE:
                            return _GT
                    s, eq = args_s[k - 1], _GT
                    continue
                if s.sym.precedence > t.sym.precedence:
                    args_t = t.args
                    if not args_t:
                        return _GT
                    for b in args_t[:-1]:
                        if self.compare_closure(s, sigma, b, theta) is not _GT:
                            return _NGE
                    t, eq = args_t[-1], _NGE
                    continue
            args_s = s.args
            if not args_s:
                return _NGE
            for a in args_s[:-1]:
                if self.compare_closure(a, sigma, t, theta) is not _NGE:
                    return _GT
            s, eq = args_s[-1], _GT


def make_order(kind: str, signature: Signature) -> TermOrder:
    if kind == "kbo":
        return KboOrder(signature)
    if kind == "lpo":
        return LpoOrder(signature)
    raise ValueError(f"unknown order kind {kind!r}")
