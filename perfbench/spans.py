"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions of the ``vixtrack``
modules (the layers) at every place they are bound: the defining
module, every other module that imported the name, and the package
namespace.  Each call records a span (name, start, end, parent) in
memory; ``Tracer.remove`` puts every original binding back.  Spans are
written out only when the run ends, so the traced run pays for a list
append per call and nothing else.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Layer modules whose public functions are traced, as (module, layer).
LAYERS = (
    ("vixtrack.data", "data"),
    ("vixtrack.calibrate", "calibrate"),
    ("vixtrack.static", "static"),
    ("vixtrack.analytics", "analytics"),
    ("vixtrack.simulate", "simulate"),
    ("vixtrack.dynamic", "dynamic"),
    ("vixtrack.cli", "cli"),
)
# Methods traced on their class; callers reach them through instances.
METHODS = (("vixtrack.data", "PricePanel", "observations", "data.observations"),)
# Factories whose returned callable is traced under the given name.
FACTORIES = {"dynamic.dynamic_strategy": "dynamic.rule"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.failed = False


class Tracer:
    """Records spans for the wrapped functions of one traced run.

    ``hooks`` maps a span name to ``hook(tracer, args, kwargs, result)``,
    called after each successful call to turn arguments and results into
    ``tracer.counts`` (days rolled, Euler steps, ...) and into the
    ``tracer.keys`` sets (distinct work items).
    """

    def __init__(self, hooks=None):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.keys = defaultdict(set)
        self.hooks = dict(hooks or {})
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name, fn):
        tracer = self
        hook = self.hooks.get(name)
        factory_name = FACTORIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, tracer._stack[-1] if tracer._stack else -1)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if factory_name is not None:
                result = tracer.wrap(factory_name, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every traced function with a wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}  # id(original) -> (span name, original)
        for mod_name, layer in LAYERS:
            mod = sys.modules[mod_name]
            # the CLI module has no __all__; its one public entry is main
            for attr in getattr(mod, "__all__", ["main"]):
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) \
                        and getattr(fn, "__module__", None) == mod_name:
                    targets[id(fn)] = (f"{layer}.{attr}", fn)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod_name in sorted(m for m in sys.modules if m == "vixtrack" or m.startswith("vixtrack.")):
            mod = sys.modules[mod_name]
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][1] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))

    def remove(self) -> None:
        """Restore every binding replaced by :meth:`install`."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def write(self, path) -> None:
        """Write the spans as tab-separated rows, one per call."""
        lines = ["index\tname\tstart_s\tend_s\tparent\tfailed"]
        t0 = self.spans[0].start if self.spans else 0.0
        for i, s in enumerate(self.spans):
            lines.append(
                f"{i}\t{s.name}\t{s.start - t0:.9f}\t{s.end - t0:.9f}\t{s.parent}\t{int(s.failed)}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def summarize(spans) -> dict:
    """Per-name totals: ``calls``, inclusive seconds ``s`` and ``self_s``.

    A span's self time is its duration minus the part of that interval
    covered by its direct children (their union, so overlapping children
    are not subtracted twice).
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, edge, s.start), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += (s.end - s.start) - covered
        row["failed"] += int(s.failed)
    return dict(out)
