"""Instantiate-then-compare oracle over raw term trees.

Written from the order definitions and independent of ``todx``: it never
interns, never builds closure terms and shares no code with
``todx.ordering``.  Terms are the raw trees of ``workloads`` (an int is a
variable, a str a constant, ``(name, args)`` an application), so
structural equality is plain ``==``.
"""

from __future__ import annotations


def instantiate(raw, bindings: dict):
    """Simultaneous substitution: images are not substituted again."""
    if isinstance(raw, int):
        return bindings.get(raw, raw)
    if isinstance(raw, str):
        return raw
    return (raw[0], tuple(instantiate(a, bindings) for a in raw[1]))


def _head(raw):
    return raw if isinstance(raw, str) else raw[0]


def _args(raw) -> tuple:
    return () if isinstance(raw, str) else raw[1]


def weight(raw, weights: dict) -> tuple:
    """(constant, {vid: coefficient}) by a fresh traversal."""
    const = 0
    coeffs: dict = {}
    stack = [raw]
    while stack:
        u = stack.pop()
        if isinstance(u, int):
            coeffs[u] = coeffs.get(u, 0) + 1
        else:
            const += weights[_head(u)]
            stack.extend(_args(u))
    return const, coeffs


class RefOrder:
    """KBO or LPO over raw trees, for one signature."""

    def __init__(self, kind: str, symbols):
        if kind not in ("kbo", "lpo"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.weights = {n: w for n, _, w, _ in symbols}
        self.prec = {n: p for n, _, _, p in symbols}
        self.w0 = min(w for _, a, w, _ in symbols if a == 0)

    def greater(self, s, t) -> bool:
        if s == t:
            return False
        return self._kbo(s, t) if self.kind == "kbo" else self._lpo(s, t)

    def _kbo(self, s, t) -> bool:
        # Variable condition plus weight with every variable at w0.
        cs, vs = weight(s, self.weights)
        ct, vt = weight(t, self.weights)
        diff = dict(vs)
        for v, c in vt.items():
            diff[v] = diff.get(v, 0) - c
        if any(c < 0 for c in diff.values()):
            return False
        low = cs - ct + self.w0 * sum(diff.values())
        if low > 0:
            return True
        if low < 0 or isinstance(s, int) or isinstance(t, int):
            return False
        if self.prec[_head(s)] != self.prec[_head(t)]:
            return self.prec[_head(s)] > self.prec[_head(t)]
        for a, b in zip(_args(s), _args(t)):
            if a != b:
                return self._kbo(a, b)
        return False

    def _lpo(self, s, t) -> bool:
        if isinstance(s, int):
            return False
        if any(a == t or self._lpo(a, t) for a in _args(s)):
            return True
        if isinstance(t, int):
            return False
        f, g = self.prec[_head(s)], self.prec[_head(t)]
        if f > g:
            return all(self._lpo(s, b) for b in _args(t))
        if f < g:
            return False
        for i, (a, b) in enumerate(zip(_args(s), _args(t))):
            if a != b:
                return (self._lpo(a, b)
                        and all(self._lpo(s, c) for c in _args(t)[i + 1:]))
        return False


def expected_answers(workload) -> list:
    """For each operation, what the index must return.

    A query yields its sorted tuple of ids, an insert its new id, and a
    remove None.  Replays the operation list over a model of each
    instance's live equalities and decides every query by instantiating
    both sides and comparing.
    """
    order = RefOrder(workload.order, workload.symbols)
    live = [{slot + 1: rhs for slot, rhs in enumerate(rhss)}
            for rhss in workload.initial]
    next_id = [len(rhss) + 1 for rhss in workload.initial]
    memo: dict = {}
    out = []
    for kind, k, arg in workload.ops:
        if kind == "i":
            live[k][next_id[k]] = arg
            out.append(next_id[k])
            next_id[k] += 1
        elif kind == "r":
            del live[k][arg + 1]
            out.append(None)
        else:
            bindings = dict(arg)
            lhs = instantiate(workload.lhs, bindings)
            ids = []
            for eq_id, rhs in live[k].items():
                key = (rhs, arg)
                verdict = memo.get(key)
                if verdict is None:
                    verdict = order.greater(lhs, instantiate(rhs, bindings))
                    memo[key] = verdict
                if verdict:
                    ids.append(eq_id)
            out.append(tuple(sorted(ids)))
    return out
