"""Spans recorded from outside the program, by wrapping its functions.

:class:`Tracer` replaces a function with a wrapper that records one span
per call: name, start, end and the span that was open when the call
began (its parent), per thread.  A generator function gets one span per
resumption, so a lazy reader is charged only for the work it does when
its consumer asks for the next item, not for the consumer's own work.

``Tracer.install`` rebinds every reference to the function that a loaded
``repro`` module holds (``from x import f`` copies the name into the
importing module), and methods on their class; ``uninstall`` restores
them.  Spans stay in memory until :meth:`Tracer.dump` writes them out.

A span's *self time* is its duration minus the time its child spans
cover; the self times of one call tree add up to the root span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        #: [name, start_ns, end_ns, parent_index, thread_ident]
        self.spans = []
        #: counter name -> total, filled by the hooks of wrapped calls
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter_ns(), 0, parent,
                               threading.get_ident()])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack().pop()
        self.spans[index][2] = perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper of ``fn`` recording span ``name``; ``on_result(tracer,
        args, kwargs, result)`` runs after each call (or yielded item)."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    if on_result is not None:
                        on_result(tracer, args, kwargs, item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, points) -> None:
        """Wrap each ``(module, qualified attr, span name, hook)`` point."""
        import importlib

        for module_name, attr, name, hook in points:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                original = cls.__dict__[leaf]
                setattr(cls, leaf, self.wrap(name, original, hook))
                self._patched.append((cls, leaf, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per-span self time in seconds, indexed like ``spans``."""
        own = [(end - start) for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return [ns / 1e9 for ns in own]

    def totals(self):
        """span name -> (calls, self seconds, inclusive seconds)."""
        out = {}
        own_times = self.self_times()
        for (name, start, end, _, _), own in zip(self.spans, own_times):
            calls, self_s, incl = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + own, incl + (end - start) / 1e9)
        return out

    def inclusive(self, name: str) -> float:
        """Seconds spent inside spans called ``name``, children included."""
        return self.totals().get(name, (0, 0.0, 0.0))[2]

    @classmethod
    def load(cls, path) -> "Tracer":
        """A tracer holding the spans and counters :meth:`dump` wrote."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        tracer = cls()
        tracer.spans = [[s["name"], s["start_ns"], s["end_ns"], s["parent"],
                         s["thread"]] for s in data["spans"]]
        tracer.counts.update(data["counts"])
        return tracer

    def dump(self, path) -> None:
        """Write spans (with self times) and counters as one JSON file."""
        own = self.self_times()
        data = {
            "spans": [
                {"name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "thread": thread, "self_s": s}
                for (name, start, end, parent, thread), s
                in zip(self.spans, own)
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
