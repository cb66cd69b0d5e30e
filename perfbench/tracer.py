"""Spans around catmn's public functions, recorded from outside the package.

``Tracer.install`` replaces every binding of every public module-level
function of a layer module (``catmn.cli``, ``catmn.core``, ...) with a
wrapper that records a span; names such as ``validate_nat`` are imported
into several modules, and each binding is replaced.  Methods and private
helpers are not wrapped: their time counts toward the public function that
called them.  ``uninstall`` puts the original functions back.

Spans are kept in memory as ``(verdict, name, start, end, parent)`` tuples,
where ``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "textio", "fibered", "core", "functors", "monads", "equivalence", "transport", "dot")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.verdict = 0
        self._stack: list[int] = []
        self._to_wrapper: dict[int, object] = {}
        self._to_original: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"catmn.{layer}"]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrapper = self._wrap(f"{layer}.{name}", fn)
                    self._to_wrapper[id(fn)] = wrapper
                    self._to_original[id(wrapper)] = fn

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.verdict, name, start, end, parent)

        return traced

    @staticmethod
    def _rebind(replacements: dict[int, object]) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "catmn" and not module_name.startswith("catmn."):
                continue
            for attr, value in list(vars(module).items()):
                replacement = replacements.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

    def install(self) -> None:
        self._rebind(self._to_wrapper)

    def uninstall(self) -> None:
        self._rebind(self._to_original)

    def drain(self) -> "Profile":
        """Summarize the recorded spans and forget them."""
        profile = Profile(self.spans)
        self.spans.clear()
        return profile


class Profile:
    """Calls, inclusive time and self time computed from a list of spans.

    A layer's self time is the duration of its spans minus the time of their
    direct child spans.  A function's inclusive time counts only its
    outermost spans, so recursion is not counted twice.
    """

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        for verdict, name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.verdict_calls: dict[int, Counter] = defaultdict(Counter)
        for i, (verdict, name, start, end, parent) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.verdict_calls[verdict][name] += 1
            self.self_time[name.split(".", 1)[0]] += duration - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][1] != name:
                ancestor = spans[ancestor][4]
            if ancestor < 0:
                self.inclusive[name] += duration
