"""Spans for the benchmark's traced mode.

Spans are recorded from the benchmark's side of each layer boundary:
around calls into a module's public functions, and around every
``discrete_log`` through ``TracedEngine``, a stand-in engine that the
benchmark hands to ``search`` and ``sampler`` in place of the real one.
Nothing inside ``src/lowmult`` is instrumented.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

LOG_SPAN = "dlog.discrete_log"


class Tracer:
    """Spans kept in memory as ``[name, parent, start, end]``.

    ``parent`` is the index of the enclosing span in ``spans``, or -1.
    Times are ``perf_counter`` seconds.  Nothing is written until
    ``write`` is called when the benchmark ends.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def parent(self) -> int:
        return self._open[-1] if self._open else -1

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [name, self.parent(), perf_counter(), None]
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield sid
        finally:
            self._open.pop()
            rec[3] = perf_counter()

    def duration(self, sid: int) -> float:
        _, _, start, end = self.spans[sid]
        return end - start

    def child_durations(self, sid: int, name: str) -> list[float]:
        """Durations of the direct children of span ``sid`` called name."""
        return [
            end - start
            for n, parent, start, end in self.spans[sid + 1:]
            if parent == sid and n == name
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {"fields": ["name", "parent", "start_s", "end_s"],
                 "spans": self.spans},
                fh,
            )


class TracedEngine:
    """Stands in for a ``LogEngine``: one span per ``discrete_log``.

    Each answer is kept in ``answers`` as ``(a, y)`` until the caller
    clears it, so giant steps can be counted from the answers.  Every
    other attribute is the wrapped engine's.
    """

    def __init__(self, engine, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer
        self.ctx = engine.ctx
        self.answers: list[tuple[int, int]] = []

    def discrete_log(self, a: int) -> int:
        start = perf_counter()
        y = self._engine.discrete_log(a)
        end = perf_counter()
        self._tracer.spans.append([LOG_SPAN, self._tracer.parent(), start, end])
        self.answers.append((a, y))
        return y

    def __getattr__(self, name):
        return getattr(self._engine, name)


def bsgs_giant_steps(engine, ys) -> int:
    """Giant steps the engine's baby-step giant-step solvers take for
    the answers ``ys``.

    A solver for p^e with baby table size m finds each base-p digit d
    of y mod p^e after d // m giant steps; tabulated primes take none.
    """
    bsgs = [(p, e, m) for p, e, strategy, m in engine.strategy_summary()
            if strategy == "bsgs"]
    steps = 0
    for y in ys:
        for p, e, m in bsgs:
            r = y % p**e
            for _ in range(e):
                r, d = divmod(r, p)
                steps += d // m
    return steps
