"""Span tracer that measures d2dsim's layers from outside the package.

It replaces chosen public functions with timing wrappers in every d2dsim
module that binds them (``radio`` imports ``pairwise_distance`` by name, for
example), so calls through any binding are seen.  Spans record name, start,
end and parent, are kept in memory, and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.

A function marked ``fold`` is counted and timed like the others, and its
time is subtracted from its parent's self time, but it keeps no span record
of its own: ``analytic.modified_laplace`` runs once per quadrature node,
about 160k times per planner call, and one record per call would dominate
the trace's memory.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # one frame per open span: [span index or -1, name, seconds covered by children]
        self.stack: list[list] = []
        self._patched: list[tuple] = []

    def open_names(self) -> list[str]:
        return [frame[1] for frame in self.stack]

    def _wrap(self, name: str, fn, hook, fold: bool):
        stack = self.stack
        clock = time.perf_counter
        name_id = len(self.names)
        self.names.append(name)
        calls, self_s = self.calls, self.self_s
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            start = clock()
            if fold:
                index = -1
            else:
                index = len(span_name)
                span_name.append(name_id)
                span_start.append(start)
                span_end.append(start)
                span_parent.append(parent[0] if parent else -1)
            frame = [index, name, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if index >= 0:
                    span_end[index] = end
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: dict):
        """Wrap each ``"module.function"`` in ``targets``.

        ``targets`` maps the qualified name to ``(hook, fold)``; the hook, if
        any, is called with (tracer, args, kwargs, result) after the call and
        adds work counts.
        """
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "d2dsim" or name.startswith("d2dsim."))]
        for qualname, (hook, fold) in targets.items():
            module_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"d2dsim.{module_name}"], fn_name)
            wrapper = self._wrap(qualname, original, hook, fold)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_spans(self, path):
        """One JSON object with the name table and the span columns."""
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
