"""Layer timing from outside the program.

Every span is recorded by the benchmark around a call into one of the
program's public functions: module attributes are swapped for timing
wrappers while a traced replay runs and restored afterwards. Nothing under
`src/` knows it is being traced.

Spans are aggregated as they close (calls, inclusive time, self time), not
stored one by one: hri_parcorr makes about 720,000 simulator, bus and
collector calls per pass. A span's self time is its duration minus the time
of the spans it caused. The replay is single-threaded, so one stack suffices.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    """Aggregated spans keyed by layer name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[name] += 1
                inclusive[name] += elapsed
                self_time[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def patch(self, module, attr: str, name: str) -> None:
        """Replace `module.attr` by a traced wrapper until restore()."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


class FailureLog(logging.Handler):
    """Counts the program's own failure records on the `causalpipe` loggers.

    The program logs, but does not count, CI tests that raised (and were
    recorded as independent), postprocessors that failed (batch discarded)
    and quarantined pool files. These are the records counted here.
    """

    PATTERNS = {
        "ci_failures": "CI test failed",
        "postprocess_failures": "postprocessor failed",
        "quarantined": "quarantined",
    }

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.counts = {key: 0 for key in self.PATTERNS}

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        for key, pattern in self.PATTERNS.items():
            if pattern in message:
                self.counts[key] += 1
