"""Span tracer that times calls into pdslab modules from outside.

The tracer never edits pdslab: it swaps a function attribute for a timing
wrapper in every ``pdslab`` module that holds it (and in module-level dicts of
function tuples, such as the CLI's battery table), and puts the originals back
on :meth:`Tracer.restore`.  Each call becomes a span with a parent link, so a
span's self time is its duration minus the time of the spans it caused.

Two kinds of target:

- recorded targets keep one :class:`Span` per call (coarse functions: samplers,
  scans, sweep points, CLI commands);
- counted targets (functions called hundreds of thousands of times, such as
  ``sample_pmf``) only add their count and time to a per-name total, so the
  traced run does not hold a million span objects.  They still charge their
  time to the parent's child time.

Worker threads start with an empty span stack; their spans take the current
step span as parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc

_MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("parent", "name", "step", "t0", "t1", "child", "note", "peak_mb")

    def __init__(self, parent, name, step):
        self.parent = parent
        self.name = name
        self.step = step
        self.t0 = self.t1 = self.child = 0.0
        self.note = None
        self.peak_mb = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.dur - self.child


class Tracer:
    """Collects spans for one traced operation at a time (see :meth:`reset`)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self.missing = []
        self.measure_alloc = False
        self.reset()

    def reset(self):
        self.spans = []
        self.counted = {}  # (name, parent name) -> [calls, seconds]
        self.step = None

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_step(self, name):
        """Start the span of one CLI step; threads without a stack hang under it."""
        span = Span(None, "step." + name, name)
        span.t0 = time.perf_counter()
        self.step = span
        self._stack().append(span)
        return span

    def close_step(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)
        self.step = None

    def _wrap(self, name, fn, note, counted, alloc):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.step
            span = Span(parent, name, tracer.step.step if tracer.step else None)
            stack.append(span)
            track = alloc and tracer.measure_alloc and not tracemalloc.is_tracing()
            if track:
                tracemalloc.start()
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if track:
                    span.peak_mb = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
                # a step span is shared by threads; its self time is never used
                if parent is not None and parent is not tracer.step:
                    parent.child += span.t1 - span.t0
            if counted:
                key = (name, parent.name if parent is not None else None)
                with tracer._lock:
                    entry = tracer.counted.setdefault(key, [0, 0.0])
                    entry[0] += 1
                    entry[1] += span.t1 - span.t0
            else:
                if note is not None:
                    try:
                        span.note = note(args, kwargs, result)
                    except Exception:  # a note must never fail the call it describes
                        span.note = None
                tracer.spans.append(span)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, module_name, attr, name, note=None, counted=False, alloc=False):
        """Swap ``module.attr`` (``attr`` may be ``Class.method``) everywhere it is held."""
        module = sys.modules.get(module_name)
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        original = getattr(holder, leaf, None) if holder is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = self._wrap(name, original, note, counted, alloc)
        if owner:
            self._set(holder, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "pdslab" or mod_name.startswith("pdslab.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if isinstance(dval, tuple) and any(f is original for f in dval):
                            new = tuple(wrapper if f is original else f for f in dval)
                            self._undo.append((value.__setitem__, dkey, dval))
                            value[dkey] = new

    def _set(self, obj, key, value):
        self._undo.append((functools.partial(setattr, obj), key, getattr(obj, key)))
        setattr(obj, key, value)

    def restore(self):
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)
