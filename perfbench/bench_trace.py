"""In-memory layer tracing for the benchmark's traced run.

The tracer wraps the functions each layer exposes to its callers, records one
span per call (name, start, end, parent) and a few counters, and computes each
layer's self time at the end. Nothing under ``src/`` changes: wrappers replace
module and class attributes while a ``Tracer.installed()`` block runs, under
every name the package imports them as, and the originals come back on exit.

Spans are named by layer, not by function, so a refactor that moves work
between functions of one layer keeps the metric names.
"""

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


@dataclass(frozen=True)
class Boundary:
    """One function to wrap.

    ``layer`` names the span, or is None for a counter-only boundary. ``when``
    decides per call whether a span opens; ``count`` adds counters on every
    call; ``within`` restricts counting to calls made inside that layer.
    """

    module: str
    attr: str  # "func" or "Class.method"
    layer: str | None
    count: Callable | None = None
    when: Callable | None = None
    within: str | None = None


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s.name] = out.get(s.name, 0.0) + t
    return out


class Tracer:
    def __init__(self, boundaries: list[Boundary], package: str, clock=time.perf_counter):
        self.boundaries = boundaries
        self.package = package  # modules scanned for by-name imports
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[tuple[str, int]] = []  # open spans: (name, index)

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], {}, []

    def _add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def inside(self, layer: str) -> bool:
        return any(name == layer for name, _ in self._stack)

    def wrap(self, fn, b: Boundary):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if b.count is not None and (b.within is None or tracer.inside(b.within)):
                for key, value in b.count(args, kwargs).items():
                    tracer._add(key, value)
            stack = tracer._stack
            # a layer calling back into itself stays one span
            if b.layer is None or (stack and stack[-1][0] == b.layer) or (
                b.when is not None and not b.when(args, kwargs)
            ):
                return fn(*args, **kwargs)
            tracer._add(f"{b.layer}.calls")
            index = len(tracer.spans)
            parent = stack[-1][1] if stack else -1
            tracer.spans.append(None)  # reserved so children index after it
            stack.append((b.layer, index))
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans[index] = Span(b.layer, start, end, parent)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block."""
        patched = []
        try:
            for b in self.boundaries:
                owner = sys.modules[b.module]
                *cls_path, name = b.attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                wrapper = self.wrap(original, b)
                for target in [owner] + _aliases(original, self.package):
                    attrs = [k for k, v in vars(target).items() if v is original]
                    for attr in attrs:
                        patched.append((target, attr, original))
                        setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(patched):
                setattr(target, attr, original)


def _aliases(original, package: str) -> list:
    """The package's modules that imported ``original`` by name."""
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None
        and (name == package or name.startswith(package + "."))
        and any(v is original for v in vars(m).values())
    ]
