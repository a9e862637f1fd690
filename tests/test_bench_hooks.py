"""What the benchmark in ``perfbench/`` needs of the program: it wraps the
entry points of ``perfbench/tracing.py``, counts the DVL samples of each
preintegration as the length of its first argument, reports one factor
count per ``backend.factors.*`` metric of ``BENCHMARK.json``, reads what a
traced pass returns, and clocks each frame as the estimator iterates the
dataset's frames, once. A change in the program that breaks any of these
fails here, not only in a benchmark run."""

import importlib.util
import json
import pathlib
import sys

import pytest

from aquafuse import frontend
from aquafuse.backend import PAIR_KINDS, FactorKind
from aquafuse.frontend import EstimatorMode, RunConfig, run_estimator
from aquafuse.sim import ScenarioConfig, simulate

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_points_exist():
    points = _tracing().entry_points()
    assert points
    for owner, attr, _, _ in points:
        assert attr in owner.__dict__, (owner.__name__, attr)


def test_factor_count_metrics_name_factor_kinds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prefix = "backend.factors."
    kinds = [m["name"][len(prefix):] for m in spec["per_layer"]
             if m["name"].startswith(prefix)]
    assert kinds
    assert set(kinds) <= {k.value for k in FactorKind}


def test_traced_pass_counts_every_layer(monkeypatch):
    # what the hooks read beyond the entry points' names: the factors'
    # ``kind`` in the list ``assemble_window`` returns, the refined
    # ``pose``, and ``status_rows``
    bench = {}
    for stem in ("tracing", "timing", "run"):
        spec = importlib.util.spec_from_file_location(
            stem, ROOT / "perfbench" / f"{stem}.py")
        bench[stem] = importlib.util.module_from_spec(spec)
        # ``timing`` imports ``tracing``, and its dataclass looks its own
        # module up, by name
        monkeypatch.setitem(sys.modules, stem, bench[stem])
        spec.loader.exec_module(bench[stem])
    tracing, timing, run = bench.values()
    ds = simulate(ScenarioConfig(kind="circle", duration_s=1.5, seed=3,
                                 degradation_windows_s=((0.5, 0.8),)))
    tracer = tracing.Tracer()
    timed = timing.timed_pass(run_estimator, ds,
                              RunConfig(mode=EstimatorMode.FULL), tracer)
    layers = run.pass_layers(tracer, timed.result, FactorKind)
    for key in ("backend.factors.reprojection",
                *("backend.factors." + k.value for k in PAIR_KINDS),
                "frontend.refine_moved", "frontend.frames_visual",
                "frontend.frames_degraded"):
        assert layers[key] > 0, key


class CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("mode", list(EstimatorMode))
def test_each_mode_iterates_the_frames_once(mode):
    ds = simulate(ScenarioConfig(kind="circle", duration_s=1.5, seed=3,
                                 degradation_windows_s=((0.5, 0.8),)))
    ds.frames = CountingList(ds.frames)
    result = run_estimator(ds, RunConfig(mode=mode))
    assert len(result.frames) == len(ds.frames)
    assert ds.frames.iterations == 1


@pytest.mark.parametrize("mode", [EstimatorMode.FULL,
                                  EstimatorMode.ACOUSTIC_INERTIAL_DEPTH,
                                  EstimatorMode.DVL_DEADRECKON])
def test_dvl_preintegration_gets_the_samples_first(mode, monkeypatch):
    # the tracer counts DVL samples as len(args[0]) of each call
    ds = simulate(ScenarioConfig(kind="circle", duration_s=1.5, seed=3,
                                 degradation_windows_s=((0.5, 0.8),)))
    index = {id(s): k for k, s in enumerate(ds.dvl)}
    calls = []
    preintegrate = frontend.preintegrate_dvl

    def recorded(*args, **kwargs):
        calls.append(args)
        return preintegrate(*args, **kwargs)

    monkeypatch.setattr(frontend, "preintegrate_dvl", recorded)
    run_estimator(ds, RunConfig(mode=mode))
    assert calls
    for args in calls:
        assert isinstance(args[0], list) and args[0]
        held = [index[id(s)] for s in args[0]]
        assert held == list(range(held[0], held[0] + len(held)))
    if mode is EstimatorMode.DVL_DEADRECKON:
        assert [len(args[0]) for args in calls] == [len(ds.dvl)]
