"""Spans around calls into the package's modules, recorded from outside.

The tracer replaces each public function of a module with a wrapper that
records a span (name, start, end, parent).  A function that other package
modules imported by name (``from .qfi import qfi_gaussian``) is replaced in
those modules too, so every call site is seen.  ``restore`` puts the
originals back.  Only this file knows how spans are stored; callers ask the
``SpanTree`` built from them for durations, self times and counts.
"""

from __future__ import annotations

import inspect
import sys
import time

PACKAGE = "bifrost"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """A callable that runs ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def replace(self, module, attr: str, make):
        """Replace ``module.attr`` by ``make(original)`` wherever the package holds it."""
        original = getattr(module, attr)
        new = make(original)
        for other in _package_modules():
            if other.__dict__.get(attr) is original:
                self._patch(other, attr, new)

    def wrap_module(self, module):
        """Trace every public function defined in ``module``."""
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            self.replace(module, attr, lambda fn, a=attr: self.wrap(f"{layer}.{a}", fn))

    def wrap_init(self, cls, name: str):
        """Trace construction of instances of ``cls``."""
        self._patch(cls, "__init__", self.wrap(name, cls.__dict__["__init__"]))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> "SpanTree":
        """The spans recorded since the last call, as a tree; the buffer empties."""
        if self._stack:
            raise RuntimeError("spans are still open")
        tree = SpanTree(self.spans)
        self.spans.clear()
        return tree


def _package_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTree:
    """Durations, self times and ancestry of one batch of spans."""

    def __init__(self, spans):
        self.names = [s[0] for s in spans]
        self.parents = [s[3] for s in spans]
        self.durations = [s[2] - s[1] for s in spans]
        self.self_times = list(self.durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                self.self_times[parent] -= self.durations[i]

    def ancestors(self, i: int):
        parent = self.parents[i]
        while parent >= 0:
            yield parent
            parent = self.parents[parent]

    def _select(self, name: str):
        return [i for i, n in enumerate(self.names) if n == name]

    def count(self, name: str) -> int:
        return len(self._select(name))

    def time(self, name: str) -> float:
        """Wall time inside spans called ``name``, not counting nested repeats."""
        return sum(
            self.durations[i] for i in self._select(name)
            if all(self.names[a] != name for a in self.ancestors(i))
        )

    def self_time(self, name: str) -> float:
        return sum(self.self_times[i] for i in self._select(name))

    def layer_self_time(self, layer: str) -> float:
        """Time spent in the layer's own code, outside every nested span."""
        return sum(
            t for n, t in zip(self.names, self.self_times) if layer_of(n) == layer
        )

    def layer_time_within(self, layer: str, within: str) -> float:
        """Wall time of the layer's outermost spans nested inside spans called ``within``."""
        total = 0.0
        for i, n in enumerate(self.names):
            if layer_of(n) != layer:
                continue
            ancestry = [self.names[a] for a in self.ancestors(i)]
            if within in ancestry and all(layer_of(a) != layer for a in ancestry):
                total += self.durations[i]
        return total

    def layer_calls_within(self, layer: str, within: str) -> int:
        return sum(
            1 for i, n in enumerate(self.names)
            if layer_of(n) == layer
            and any(self.names[a] == within for a in self.ancestors(i))
        )

    def outermost_calls(self, layer: str) -> int:
        """Spans of the layer that no other span of the same layer encloses."""
        return sum(
            1 for i, n in enumerate(self.names)
            if layer_of(n) == layer
            and all(layer_of(self.names[a]) != layer for a in self.ancestors(i))
        )

    def attributed(self, name: str, owners: tuple[str, ...]) -> dict[str, int]:
        """Count spans called ``name`` by the layer of their nearest ancestor in ``owners``."""
        counts = {owner: 0 for owner in owners}
        for i in self._select(name):
            for a in self.ancestors(i):
                layer = layer_of(self.names[a])
                if layer in owners:
                    counts[layer] += 1
                    break
        return counts
