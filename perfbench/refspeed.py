"""A fixed reference task that tells how fast the machine runs right now.

On a shared host the speed of plain interpreted code switches between
levels up to 2x apart, for stretches of milliseconds to minutes, as
other tenants come and go.  A pass therefore samples this task between
its calls, and scales each call's time by ``REF_S`` over the last
sample before it: the result is the time the same call takes on a core
that runs the task in ``REF_S`` seconds.

The task is the same kind of work as the index's: recursive walks and
comparisons of small term trees, in plain Python.  It does not use
``todx``, so a change to the library cannot change it, and it keeps no
object alive, so it does not move the points where the cyclic garbage
collector runs in the timed calls around it.
"""

from __future__ import annotations

import random
import time

from workloads import KBO_SYMBOLS, random_term

# Seconds of the task on the reference core: about its time on a 2-vCPU
# shared VM when no other tenant slowed it.
REF_S = 100e-6
# Seconds of timed calls between two samples of the task.
EVERY_S = 0.005

_WEIGHT = {n: w for n, _, w, _ in KBO_SYMBOLS}
_PREC = {n: p for n, _, _, p in KBO_SYMBOLS}
_rng = random.Random(0)             # fixed: the task never depends on --seed
PAIRS = tuple((random_term(_rng, KBO_SYMBOLS, (0, 1), 3),
               random_term(_rng, KBO_SYMBOLS, (0, 1), 3)) for _ in range(48))


def _weight(raw) -> int:
    if isinstance(raw, int):
        return 1
    if isinstance(raw, str):
        return _WEIGHT[raw]
    total = _WEIGHT[raw[0]]
    for a in raw[1]:
        total += _weight(a)
    return total


def _above(s, t) -> bool:
    """Weight, then head precedence, then the first differing argument."""
    ws, wt = _weight(s), _weight(t)
    if ws != wt:
        return ws > wt
    if not isinstance(s, tuple) or not isinstance(t, tuple):
        return False
    if s[0] != t[0]:
        return _PREC[s[0]] > _PREC[t[0]]
    for a, b in zip(s[1], t[1]):
        if a != b:
            return _above(a, b)
    return False


def task() -> int:
    n = 0
    for s, t in PAIRS:
        n += _above(s, t) + _above(t, s)
    return n


def sample() -> float:
    """Seconds of one run of the task, after an untimed run that brings
    its data back into the caches: the index's own use of the caches
    must not change the sample."""
    task()
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0
