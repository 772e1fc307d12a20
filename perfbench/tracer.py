"""Span tracer that wraps simplexcast's functions from outside the package.

``Tracer.install`` replaces module attributes and class methods with thin
wrappers that record one span per call: a name, start, end and the index of
the enclosing span.  Spans live in flat in-memory arrays until the run ends;
``summary`` turns them into call counts, inclusive time and self time per
span name and per layer, and ``write`` saves them.  ``uninstall`` restores
every attribute, so untraced units run the package exactly as shipped.

A span is named ``<layer>.<qualified name>``, where the layer is the module
that defines the function.  A function imported into another module under
the same name (``maar.as_float_vector``, ``caar._sm_update``) is patched in
every namespace that holds it, so calls across modules are traced too.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from types import FunctionType

import numpy as np

PACKAGE = "simplexcast"
LAYERS = ("cli", "harness", "core", "caar", "maar", "kaar", "projection", "substitution", "bounds")

# Third-party solvers that a layer imports by name; wrapping them in that
# layer's namespace counts the factorizations the layer asks for.
FOREIGN = {"kaar": ("cholesky", "cho_solve", "solve_triangular")}

# Private methods traced although they stay inside one module: the per-trial
# Gram copy is what kaar.gram_s times.
PRIVATE_METHODS = {("KaarForecaster", "_extended_gram")}

# Dunder methods that mark object construction.
CONSTRUCTORS = ("__init__", "__post_init__")


class Tracer:
    """Records spans around every call into the package's layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records one span named ``name`` per call."""
        nid = self._intern(name)
        clock = time.perf_counter
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def reset(self) -> None:
        """Drop recorded spans; the name table and patches stay."""
        for buf in (self.name_id, self.parent, self.start, self.end):
            del buf[:]

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package's functions and methods in every layer module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [*modules.values(), importlib.import_module(PACKAGE)]
        crossing = {
            id(obj)
            for mod in namespaces
            for obj in vars(mod).values()
            if _is_package_function(obj) and obj.__module__ != mod.__name__
        }
        wrappers: dict[int, object] = {}
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if not _is_package_function(obj):
                    continue
                if attr.startswith("_") and id(obj) not in crossing:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(f"{_layer_of(obj)}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[id(obj)])
        for layer, mod in modules.items():
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    self._wrap_class(layer, cls)
            for attr in FOREIGN.get(layer, ()):
                self._patch(mod, attr, self.wrap(f"{layer}.{attr}", getattr(mod, attr)))

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            traced = (not attr.startswith("_") or attr in CONSTRUCTORS
                      or (cls.__name__, attr) in PRIVATE_METHODS)
            if not traced:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, FunctionType):
                self._patch(cls, attr, self.wrap(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self.wrap(name, raw.__func__)))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> "Summary":
        return Summary(self.names, **self.arrays())

    def write(self, path) -> None:
        """Save the recorded spans as arrays plus the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class Summary:
    """Per-name counts, inclusive and self time, and per-layer self time."""

    def __init__(self, names, name_id, parent, start, end):
        size = len(names)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        self.names = list(names)
        self.spans = int(len(dur))
        self._index = {name: i for i, name in enumerate(names)}
        self._count = np.bincount(name_id, minlength=size)
        self._incl = np.bincount(name_id, weights=dur, minlength=size)
        self._self = np.bincount(name_id, weights=self_time, minlength=size)
        self._name_id, self._parent, self._dur = name_id, parent, dur

    def count(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else int(self._count[i])

    def incl(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self._incl[i])

    def per_call_us(self, name: str) -> float:
        calls = self.count(name)
        return 1e6 * self.incl(name) / calls if calls else 0.0

    def incl_under(self, name: str, parent_name: str) -> float:
        """Inclusive time of ``name`` spans whose direct parent is ``parent_name``."""
        i, j = self._index.get(name), self._index.get(parent_name)
        if i is None or j is None:
            return 0.0
        mask = (self._name_id == i) & (self._parent >= 0)
        mask[mask] = self._name_id[self._parent[mask]] == j
        return float(self._dur[mask].sum())

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return float(sum(self._self[i] for name, i in self._index.items() if name.startswith(prefix)))


def _is_package_function(obj) -> bool:
    return isinstance(obj, FunctionType) and obj.__module__.startswith(PACKAGE + ".")


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[1]
