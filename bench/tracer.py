"""Span tracer that times oflc's layers from outside the package.

A wrapper is installed over a module attribute or class method.  Every
module of the package that bound the same function object (for example
through ``from .sim import run_scenario``) is rebound to the wrapper too,
so the call site does not matter.  Each call is one span; a layer's self
time is the summed span durations minus the part covered by the spans of
wrapped functions it called.  Wrappers return the callee's value and let
its exceptions propagate unchanged.
"""

import functools
import sys
import time
from array import array


class Layer:
    """Running totals of one traced layer."""

    __slots__ = ("calls", "total_s", "self_s", "samples", "counts")

    def __init__(self, keep_samples=False):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.samples = array("d") if keep_samples else None
        self.counts = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Installs span wrappers and keeps their per-layer totals in memory."""

    def __init__(self, clock=time.perf_counter):
        self.layers = {}
        self.missing = []
        self._clock = clock
        self._stack = []  # time covered by the child spans of each open span
        self._undo = []

    def wrap(self, name, fn, keep_samples=False, observe=None):
        """Return ``fn`` wrapped in a span of layer ``name``.

        ``observe(layer, args, kwargs, result)`` runs after a call that
        returned, outside the span, to record counts from the result.
        """
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer(keep_samples)
        stack = self._stack
        clock = self._clock
        samples = layer.samples

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                layer.calls += 1
                layer.total_s += dt
                layer.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if samples is not None:
                    samples.append(dt)
            if observe is not None:
                observe(layer, args, kwargs, result)
            return result

        return wrapper

    def install(self, name, owner, attr, package="oflc", **kwargs):
        """Replace ``owner.attr`` and every alias of it in ``package``.

        A missing attribute is recorded in ``self.missing`` and its layer
        reports zero calls.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            self.layers.setdefault(name, Layer(kwargs.get("keep_samples", False)))
            return
        wrapper = self.wrap(name, original, **kwargs)
        targets = [(owner, attr)]
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original and (module, key) != (owner, attr):
                    targets.append((module, key))
        for obj, key in targets:
            self._undo.append((obj, key, original))
            setattr(obj, key, wrapper)

    def uninstall(self):
        """Restore every attribute replaced by ``install``."""
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)
