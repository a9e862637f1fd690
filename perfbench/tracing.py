"""In-memory spans and counts around calls into the program's layers.

``instrument`` wraps the public entry points of each module for the length
of a ``with`` block and restores them afterwards; the program itself is not
edited. A span has a name, a start, an end and a parent; spans are kept in
lists and summarised after the pass. Times are integer nanoseconds from
``time.perf_counter_ns``, so self times add up exactly.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(-1)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` inside a span; ``on_call(counts, args, result)`` records
        counts taken at the same boundary."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_call is not None:
                on_call(self.counts, args, result)
            return result
        return traced

    def counted(self, fn, name: str):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    # ---------------------------------------------------------------- #
    def durations(self) -> np.ndarray:
        return np.array(self.ends, dtype=np.int64) \
            - np.array(self.starts, dtype=np.int64)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        own = dur.copy()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self nanoseconds."""
        dur, own = self.durations(), self.self_times()
        out: dict = {}
        for name, d, s in zip(self.names, dur, own):
            calls, total, self_total = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, total + int(d), self_total + int(s))
        return out


# -------------------------- program entry points --------------------------- #

def _imu_counts(counts, args, result):
    counts["imu.integrate_samples"] += len(args[0])


def _dvl_counts(counts, args, result):
    counts["dvl.preintegrate_samples"] += len(args[0])


def _refine_counts(counts, args, result):
    coarse = args[0]
    moved = not (np.array_equal(result.pose.R, coarse.R)
                 and np.array_equal(result.pose.t, coarse.t))
    counts["frontend.refine_moved"] += int(moved)


def _assemble_counts(counts, args, result):
    for factor in result[1]:
        counts["backend.factors." + factor.kind.value] += 1


def _solve_counts(counts, args, result):
    counts["backend.solve_iterations"] += result[1].iterations


def entry_points():
    """(owner, attribute, span name or None for a bare count, count hook)."""
    from aquafuse import backend, frontend, visual

    return [
        (frontend, "integrate_imu", "imu.integrate", _imu_counts),
        (frontend, "preintegrate_dvl", "dvl.preintegrate", _dvl_counts),
        (visual.IntensityField, "sample", "visual.field_sample", None),
        (visual.IntensityField, "gradient", "visual.field_gradient", None),
        (frontend, "track_coarse", "frontend.coarse", None),
        (frontend, "refine_photometric", "frontend.refine", _refine_counts),
        (frontend.Tracker, "_mini_solve", "frontend.joint", None),
        (frontend.Tracker, "_window_ba", "backend.window_ba", None),
        (backend, "assemble_window", "backend.assemble", _assemble_counts),
        (backend, "solve", "backend.solve", _solve_counts),
        (backend.Factor, "evaluate", None, "backend.factor_evals"),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the entry points through ``tracer`` inside the block."""
    saved = []
    try:
        for owner, attr, name, hook in entry_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if name is None:
                setattr(owner, attr, tracer.counted(original, hook))
            else:
                setattr(owner, attr, tracer.wrap(original, name, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
