"""Span recording at the package's module boundaries, from outside the package.

While ``boundary_bindings`` are installed, every function one ``omegarl``
module imports from another is replaced, in the importing module's
namespace, by a wrapper that records a span: name, start, end and the span
it was called from.  A module reached as an attribute (``from . import
ltl``) is replaced by a proxy whose functions are wrapped the same way.
Calls inside one module record nothing, so a span's self time is time
spent in its own layer.  Per-step callables handed around as objects (the
reward schemes) are never wrapped, so the Q-learning loop runs untouched.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import types

import numpy as np

LAYERS = ("ltl", "automata", "augment", "graphs", "mdp", "product", "learn", "verify", "cli")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Spans kept in memory as parallel lists; span ``i`` was called from
    span ``parent[i]``, or is a root when that is -1."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: call count, total duration and total self time.

        A span's self time is its duration minus the durations of the spans
        it called directly."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=n)
        own = dur - child
        out: dict[str, tuple[int, float, float]] = {}
        for name, d, s in zip(self.name, dur.tolist(), own.tolist()):
            count, total, self_total = out.get(name, (0, 0.0, 0.0))
            out[name] = (count + 1, total + d, self_total + s)
        return out

    def edge_totals(self) -> dict[str, tuple[int, float]]:
        """Per ``caller>callee`` pair of span names: call count and total duration."""
        out: dict[str, tuple[int, float]] = {}
        names = self.name
        for name, s, e, p in zip(names, self.start, self.end, self.parent):
            if p >= 0:
                key = f"{names[p]}>{name}"
                count, total = out.get(key, (0, 0.0))
                out[key] = (count + 1, total + e - s)
        return out


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _is_package_function(value, package: str) -> bool:
    return inspect.isfunction(value) and value.__module__.startswith(package + ".")


def boundary_bindings(tracer: Tracer, package: str = "omegarl") -> list[tuple[object, str, object]]:
    """(namespace, attribute, traced replacement) for every cross-module
    binding among the loaded submodules of ``package``."""
    bindings = []
    for mod_name, module in sorted(sys.modules.items()):
        if not mod_name.startswith(package + ".") or module is None:
            continue
        for key, value in sorted(vars(module).items()):
            if _is_package_function(value, package) and value.__module__ != mod_name:
                bindings.append((module, key, tracer.wrap(_span_name(value), value)))
            elif isinstance(value, types.ModuleType) and value.__name__.startswith(package + "."):
                proxy = types.SimpleNamespace(**vars(value))
                for attr, member in vars(value).items():
                    if _is_package_function(member, package) and member.__module__ == value.__name__:
                        setattr(proxy, attr, tracer.wrap(_span_name(member), member))
                bindings.append((module, key, proxy))
    return bindings


@contextlib.contextmanager
def patched(bindings):
    """Set each ``(namespace, attribute, value)`` and restore the originals on exit."""
    originals = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in bindings]
    try:
        for ns, attr, value in bindings:
            setattr(ns, attr, value)
        yield
    finally:
        for ns, attr, value in reversed(originals):
            setattr(ns, attr, value)
