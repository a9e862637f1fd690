"""Timing of one estimator pass, frame by frame, plus the host control."""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import os
import resource
import time

import numpy as np

from tracing import Tracer, instrument

clock = time.perf_counter_ns


# The host control: a fixed loop of small dense numpy operations, the same
# kind the estimator runs. It moves only when the host does.
_REF_M = np.eye(18) * 4.0 + np.full((18, 18), 0.1)
_REF_B = np.linspace(-1.0, 1.0, 18)
# loops of the control run at each frame draw (about 0.2-0.4 ms) and before
# and after each timed call or set-up step (about 3-7 ms)
PROBE_LOOPS = 16
BURST_LOOPS = 256
# nanoseconds one loop takes on the reference host's core at its faster
# speed (2-core x86-64 Xeon, Python 3.11, numpy 2.4, one BLAS thread);
# host-normalised times are times at this speed
NOMINAL_NS_PER_LOOP = 13_500


def ref_loop(loops: int) -> None:
    for _ in range(loops):
        x = np.linalg.solve(_REF_M, _REF_B)
        float(np.exp(-np.abs(_REF_M @ x)).sum())


def probe(loops: int) -> tuple[int, int]:
    """Nanoseconds the control takes for ``loops`` loops, and ``loops``."""
    start = clock()
    ref_loop(loops)
    return clock() - start, loops


def timed_step(steps: list, probes: list, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with its wall time appended to ``steps`` and
    a probe burst after it to ``probes`` (which starts with one before the
    first step), ready for ``host_scale(probes)``."""
    start = clock()
    out = fn(*args, **kwargs)
    steps.append(clock() - start)
    probes.append(probe(BURST_LOOPS))
    return out


def host_ref_ms() -> float:
    """Milliseconds for 1000 loops of the control."""
    return probe(1000)[0] / 1e6


def host_scale(probes) -> float:
    """The factor that takes a time measured while ``probes`` ran to the
    host's nominal speed: nominal time per loop ÷ the control's time per
    loop over ``probes`` (``probe`` results), weighted by their loops."""
    return NOMINAL_NS_PER_LOOP * sum(p[1] for p in probes) \
        / sum(p[0] for p in probes)


def normalise(seg, probes) -> np.ndarray:
    """Times ``seg`` scaled to the host's nominal speed.

    ``seg[j]`` ran between ``probes[j]`` and ``probes[j + 1]``, each a
    ``probe`` result. The core this host gives a process runs at one of two
    speeds, switching from within milliseconds to spells of tens of seconds
    (see README), so each time is scaled by the control's speed around it:
    nominal time per loop ÷ the time per loop over probes ``j - 1`` to
    ``j + 2``, weighted by their loops."""
    seg = np.asarray(seg, dtype=float)
    ns = np.concatenate([[0], np.cumsum([p[0] for p in probes])])
    loops = np.concatenate([[0], np.cumsum([p[1] for p in probes])])
    j = np.arange(len(seg))
    lo = np.maximum(j - 1, 0)
    hi = np.minimum(j + 3, len(probes))
    per_loop = (ns[hi] - ns[lo]) / (loops[hi] - loops[lo])
    return seg * NOMINAL_NS_PER_LOOP / per_loop


class StampedFrames(list):
    """The dataset's frame list, running a short probe of the host control
    and reading the clock around it each time the estimator draws the next
    frame by iterating. Indexing (``frames[0]``) and ``len`` leave no stamp,
    so a pass that looks at the ends of the sequence before it loops still
    gets one stamp per frame."""

    def __init__(self, frames, probe_loops: int = PROBE_LOOPS):
        super().__init__(frames)
        self.probe_loops = probe_loops
        self.stamps: list[tuple[int, int]] = []

    def __iter__(self):
        for frame in super().__iter__():
            before = clock()
            ref_loop(self.probe_loops)
            self.stamps.append((before, clock()))
            yield frame


def segments(start: int, stamps, end: int) -> tuple[np.ndarray, np.ndarray]:
    """The call's wall time cut at each frame draw, in nanoseconds, with the
    probes at the draws taken out: entry 0 runs from the call to the first
    draw, entry k + 1 is frame k's latency, from the end of its draw to the
    next draw (for the last frame, to the return). Also returns each draw's
    probe time. Segments and probes add up to the wall time of the call."""
    edges = np.array([start, *(t for pair in stamps for t in pair), end],
                     dtype=np.int64)
    return edges[1::2] - edges[0::2], edges[2:-1:2] - edges[1:-1:2]


@dataclasses.dataclass
class Pass:
    result: object
    seg: np.ndarray     # raw segments, ns (see ``segments``)
    norm: np.ndarray    # the same, each host-normalised by the probes near it
    wall: float         # their sum host-normalised by all the pass's probes


def timed_pass(run_estimator, dataset, run_config,
               tracer: Tracer | None = None) -> Pass:
    """Run the estimator once on a frame-stamping copy of ``dataset``.

    Untraced, the call is bracketed by probe bursts and the frames carry
    probes, so each segment, and the pass as a whole, can be
    host-normalised. With a tracer there are no probes (``norm`` is ``seg``),
    and the call runs inside an ``estimator.pass`` span with every entry
    point instrumented."""
    if tracer is not None:
        frames = StampedFrames(dataset.frames, probe_loops=0)
        stamped = dataclasses.replace(dataset, frames=frames)
        with instrument(tracer), tracer.span("estimator.pass"):
            root = len(tracer.names) - 1
            result = run_estimator(stamped, run_config)
        seg, _ = segments(tracer.starts[root], frames.stamps,
                          tracer.ends[root])
        return Pass(result, seg, seg.astype(float), float(seg.sum()))
    frames = StampedFrames(dataset.frames)
    stamped = dataclasses.replace(dataset, frames=frames)
    first = probe(BURST_LOOPS)
    start = clock()
    result = run_estimator(stamped, run_config)
    end = clock()
    last = probe(BURST_LOOPS)
    seg, probe_ns = segments(start, frames.stamps, end)
    probes = [first, *((int(ns), frames.probe_loops) for ns in probe_ns),
              last]
    return Pass(result, seg, normalise(seg, probes),
                float(seg.sum()) * host_scale(probes))


def blas_threads() -> int:
    """Size of numpy's OpenBLAS thread pool, or 0 if it cannot be read."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
