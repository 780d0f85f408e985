"""In-memory span tracer that wraps the public functions of the ``unn_csi``
modules from outside the package.

Every function named in a module's ``__all__`` is replaced by a timing wrapper
wherever the package binds it, so ``cli.fit``, ``fitting.forward`` and
``decoder.mode_product`` are all caught under the defining module's name
(``fitting.fit``, ``decoder.forward``, ``tensors.mode_product``). Spans stay in
memory until :meth:`Tracer.dump` writes them out. Callees that run every fit
iteration are not kept as spans; they are aggregated as count, total and self
time under their parent span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "unn_csi"
# called once or more per Adam iteration: aggregated under the parent span
HIGH_FREQUENCY = frozenset({"decoder.forward", "tensors.mode_product"})


class _Frame:
    __slots__ = ("name", "span_id", "start", "child")

    def __init__(self, name, span_id, start):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child = 0.0


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "errors", "iterations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = {}
        self.iterations = 0


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Tracer:
    """Wrap, record, unwrap. One tracer per traced run; not thread-safe (the
    benchmark runs everything in one thread)."""

    def __init__(self):
        self.stats: dict = {}
        self.spans: list = []
        self.aggregated: dict = {}
        self.trace_id = ""
        self._stack: list = []
        self._next_id = 0
        self._patched: list = []
        self.region_wall_s = 0.0
        self.region_self_s = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> int:
        """Wrap every public function of the package's modules at each place
        the package binds it. Returns the number of bindings replaced."""
        modules = _package_modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        if name in HIGH_FREQUENCY:
            return self._wrap_aggregated(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return traced

    def _wrap_aggregated(self, name, fn):
        """Lean wrapper for per-iteration callees: no span of its own, only
        count, total and self time summed per (parent span, name)."""
        stack = self._stack
        stat = self.stats.setdefault(name, _Stat())
        aggregated = self.aggregated

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = _Frame(name, 0, perf_counter())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame.start
                stack.pop()
                parent = stack[-1]
                parent.child += duration
                self_s = duration - frame.child
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += self_s
                key = (parent.span_id, name)
                agg = aggregated.get(key)
                if agg is None:
                    agg = aggregated[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += self_s

        return traced

    # -- recording ---------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def _call(self, name, fn, args, kwargs):
        if not self._stack:  # outside every region: the benchmark's own checks
            return fn(*args, **kwargs)
        frame = _Frame(name, self._new_id(), perf_counter())
        self._stack.append(frame)
        error = None
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - frame.start
            self_s = duration - frame.child
            parent = self._stack[-1]
            parent.child += duration
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = _Stat()
            st.calls += 1
            st.total_s += duration
            st.self_s += self_s
            if error is not None:
                st.errors[error] = st.errors.get(error, 0) + 1
            elif name == "fitting.fit":
                st.iterations += result.iterations
            self.spans.append((frame.span_id, parent.span_id, name, frame.start, end, self.trace_id, error))

    @contextmanager
    def region(self):
        """Span that owns one traced region. Wrapped calls record only inside
        a region; region time not covered by a wrapped call is its self time."""
        frame = _Frame("bench", self._new_id(), perf_counter())
        self._stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.region_wall_s += end - frame.start
            self.region_self_s += end - frame.start - frame.child
            self.spans.append((frame.span_id, 0, frame.name, frame.start, end, self.trace_id, None))

    # -- results -----------------------------------------------------------

    def stat(self, name) -> _Stat:
        return self.stats.get(name) or _Stat()

    def self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def dump(self, path) -> None:
        doc = {
            "stats": {
                n: {
                    "calls": s.calls,
                    "total_s": s.total_s,
                    "self_s": s.self_s,
                    "errors": s.errors,
                    "iterations": s.iterations,
                }
                for n, s in sorted(self.stats.items())
            },
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b, "trace": t, "error": e}
                for i, p, n, a, b, t, e in self.spans
            ],
            "aggregated": [
                {"parent": p, "name": n, "calls": c, "total_s": tot, "self_s": slf}
                for (p, n), (c, tot, slf) in sorted(self.aggregated.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
