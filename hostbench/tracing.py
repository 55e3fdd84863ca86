"""Host-time spans around the public entry points of each layer.

The tracer wraps functions from outside the program: class attributes
are replaced on their class, module-level functions in every loaded
module that binds them.  Each call made while the wrappers are
installed becomes a span (name, start, end, parent) kept in memory;
:meth:`Tracer.uninstall` restores every original object.

A span's self time is its duration minus the time its direct child
spans cover.  Calls are single-threaded and strictly nested, so the
children of a span never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List


class Tracer:
    """Keeps spans in memory; installs and removes the wrappers."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return traced

    # -- installing ------------------------------------------------------

    def replace(self, cls, attr: str, value) -> None:
        """Set ``cls.attr`` to ``value`` until :meth:`uninstall`."""
        original = cls.__dict__[attr]
        setattr(cls, attr, value)
        self._restore.append(functools.partial(setattr, cls, attr, original))

    def patch_method(self, cls, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (a plain function defined on ``cls``)."""
        self.replace(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def patch_public_methods(self, cls, name: str) -> None:
        """Wrap every public plain function defined on ``cls``."""
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                self.patch_method(cls, attr, name)

    def patch_function(self, fn: Callable, name: str) -> None:
        """Wrap ``fn`` in every loaded module that binds it."""
        traced = self.wrap(name, fn)
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._restore.append(
                        functools.partial(setattr, module, attr, fn))

    def uninstall(self) -> None:
        """Restore every wrapped object, newest first."""
        while self._restore:
            self._restore.pop()()

    # -- results ---------------------------------------------------------

    def times(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"total": s, "self": s, "count": n}}`` over all spans."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "count": 0})
        for index, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["total"] += end - start
            row["self"] += end - start - child_time[index]
            row["count"] += 1
        return dict(out)

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome-trace complete events (microseconds)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": 1, "args": {"span": index, "parent": parent},
        } for index, (name, start, end, parent) in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
