"""Span tracing of the index's layers from outside the library.

``Tracer`` replaces the public functions of each layer module with
wrappers that record a span (layer, parent span, start, end) per call,
and puts the originals back on exit.  Spans stay in memory; ``drain``
folds them into per-layer self time and call counts.  A call to a
function that is already on the span stack (recursion, direct or
through other functions) runs unwrapped, so it folds into the
outermost span of that function.
"""

from __future__ import annotations

import functools
import time
from array import array

import todx.index
import todx.tod
from todx.forcing import TpoStore
from todx.index import PostOrderingIndex
from todx.ordering import KboOrder, LpoOrder
from todx.terms import LinearExpr, Substitution
from todx.tod import Tod

# (layer, owner, attribute): the owner is a class or a module whose
# attribute the library looks up at call time.
TARGETS = (
    ("index.front", PostOrderingIndex, "query"),
    ("index.insert", PostOrderingIndex, "insert"),
    ("index.remove", PostOrderingIndex, "remove"),
    ("index.canonicalize", todx.index, "canonicalize_term"),
    ("terms.substitution", Substitution, "__init__"),
    ("terms.linear", LinearExpr, "subst"),
    ("terms.linear", LinearExpr, "sign"),
    ("ordering.plain", KboOrder, "compare"),
    ("ordering.plain", LpoOrder, "compare"),
    ("ordering.closure", KboOrder, "compare_closure"),
    ("ordering.closure", LpoOrder, "compare_closure"),
    ("tod.walk", Tod, "retrieve"),
    ("tod.evaluate", Tod, "evaluate_node"),
    ("tod.transform", Tod, "transform_kbo"),
    ("tod.transform", Tod, "transform_lpo"),
    ("tod.replicate", Tod, "replicate_node"),
    ("tod.bypass", Tod, "remove_forced"),
    ("forcing.extend", TpoStore, "extend"),
    ("forcing.label", todx.tod, "force_term_label"),
    ("forcing.label", todx.tod, "force_positivity_label"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self._layer = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._current = [-1]
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for layer, owner, attr in TARGETS:
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, LAYERS.index(layer)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer_id: int):
        layers, parents = self._layer, self._parent
        starts, ends = self._start, self._end
        current = self._current
        clock = time.perf_counter
        active = [False]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            i = len(layers)
            parent = current[0]
            current[0] = i
            layers.append(layer_id)
            parents.append(parent)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                current[0] = parent
                active[0] = False

        return traced

    def drain(self) -> dict:
        """Per layer: (self seconds, calls) over the spans recorded so far.

        Self time is a span's duration minus the durations of its direct
        children.  The recorded spans are discarded.
        """
        if self._current[0] != -1:
            raise RuntimeError("drain with a span still open")
        n = len(self._layer)
        child = [0.0] * n
        starts, ends, parents = self._start, self._end, self._parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for i, layer in enumerate(self._layer):
            self_s[layer] += ends[i] - starts[i] - child[i]
            calls[layer] += 1
        for arr in (self._layer, self._parent, self._start, self._end):
            del arr[:]
        return {name: (self_s[k], calls[k]) for k, name in enumerate(LAYERS)}
