"""Span tracing of hyra's modules from outside the package.

The tracer replaces functions and methods of the ``hyra`` modules with
wrappers that record one span per call: (name, start, end, parent span,
request id). Spans stay in memory until ``write_spans`` is called at the end
of the run. Self time is a span's duration minus the time covered by the
wrapped calls it made, and is accumulated while the run goes.

Targets are given as (module name, dotted attribute path) and resolved
through ``sys.modules``: ``import hyra.reach as R`` would yield the
``reach`` function re-exported by the package, not the module. A function
that other hyra modules imported by name (``from .sets import linear_map``)
is replaced in every hyra module namespace that holds it, otherwise calls
from those modules would bypass the wrapper.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from pathlib import Path


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _hyra_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hyra" or name.startswith("hyra."))]


class Tracer:
    """Wraps named functions, records spans, calls, self time and hits."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.calls: list = []
        self.self_ns: list = []
        self.hits: list = []
        self.counters: dict = {}
        self.request = 0
        self._stack: list = []
        self._undo: list = []
        self._request_span = None

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.hits.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, module_name: str, path: str, hit=None, hook=None):
        """Replace ``module_name``.``path`` (and its aliases) with a span wrapper.

        ``hit`` decides from the return value whether a call was a useful
        outcome; ``hook`` adds counts taken from the return value.
        """
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = self._span_wrapper(self._index(name), original, hit, hook)
        self._replace(owner, attr, original, wrapper)
        if isinstance(owner, type(sys)):
            for module in _hyra_modules():
                for alias, value in list(vars(module).items()):
                    if value is original and (module, alias) != (owner, attr):
                        self._replace(module, alias, original, wrapper)

    def run_request(self, fn):
        """Call ``fn`` as the root span of a new request."""
        if self._request_span is None:
            self._request_span = self._span_wrapper(self._index("request"), lambda f: f(), None, None)
        self.request += 1
        return self._request_span(fn)

    def _span_wrapper(self, key: int, original, hit, hook):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        hits = self.hits
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (key, start, end, parent, tracer.request)
                calls[key] += 1
                self_ns[key] += duration - frame[1]
            if hit is not None and hit(result):
                hits[key] += 1
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> int:
        """Write every span as a tab-separated row; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for key, start, end, parent, request in self.spans:
                out.write(f"{self.names[key]}\t{start}\t{end}\t{parent}\t{request}\n")
        return len(self.spans)
