"""Span tracing from outside the package: an objective proxy and patched call sites.

Every span records its name, its parent span and its start and end times.  A
span's self time is its duration minus the durations of its direct children,
so objective calls nested inside ``coordinate_swap`` or projections nested
inside the certificate are charged to their own layer, not to the caller.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from sparsepg import solvers, stationarity
from sparsepg.sets import SymmetricSet

ROOT_SPAN = "solvers.solve"
CERTIFICATE_SPAN = "stationarity.check_strong_stationary"

# (owner, attribute, span name).  The solvers import these functions by name, so
# the names are replaced where they are looked up; the set methods are replaced on
# the class, which covers every caller.
PATCH_POINTS = (
    (solvers, "project_sparse", "projection.project_sparse"),
    (solvers, "coordinate_swap", "subroutines.coordinate_swap"),
    (solvers, "change_support", "subroutines.change_support"),
    (solvers, "minimize_support_gap", "stationarity.minimize_support_gap"),
    (solvers, "check_strong_stationary", CERTIFICATE_SPAN),
    (stationarity, "project_sparse", "projection.project_sparse"),
    (SymmetricSet, "ranking_values", "sets.ranking_values"),
    (SymmetricSet, "project_sub", "sets.project_sub"),
)


class Tracer:
    """Records the spans of one solve at a time and folds them into per-name sums."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        record = [name, self._open[-1] if self._open else -1, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def flush(self) -> tuple[dict[str, list], dict[str, float]]:
        """Aggregate and clear the recorded spans.

        Returns ``{name: [calls, self_s, inclusive_s]}`` over all spans, and
        ``{name: inclusive_s}`` over the direct children of the first span.
        """
        child_s = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        top: dict[str, float] = defaultdict(float)
        for index, (name, parent, start, end) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_s[index]
            entry[2] += end - start
            if parent == 0:
                top[name] += end - start
        self.spans.clear()
        self._open.clear()
        return dict(totals), dict(top)


class TracedObjective:
    """Objective proxy with the solvers' duck-typed protocol; each evaluation is a span."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    @property
    def dim(self) -> int:
        return self._inner.dim

    @property
    def lipschitz(self) -> float:
        return self._inner.lipschitz

    def value(self, x):
        return self._tracer.call("objectives.value", self._inner.value, x)

    def grad(self, x):
        return self._tracer.call("objectives.grad", self._inner.grad, x)

    def value_and_grad(self, x):
        return self._tracer.call("objectives.value_and_grad", self._inner.value_and_grad, x)


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Route every patch point through ``tracer`` until the block exits."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in PATCH_POINTS]
    try:
        for (owner, attr, name), (_, _, original) in zip(PATCH_POINTS, saved):
            setattr(owner, attr, _spanned(tracer, name, original))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
