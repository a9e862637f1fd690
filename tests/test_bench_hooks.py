"""What the benchmark in ``perfbench/`` needs of the program: it wraps the
entry points of ``perfbench/tracing.py``, reports one factor count per
``backend.factors.*`` metric of ``BENCHMARK.json``, and clocks each frame as
the estimator iterates the dataset's frames, once. A change in the program
that breaks any of these fails here, not only in a benchmark run."""

import importlib.util
import json
import pathlib

import pytest

from aquafuse.backend import FactorKind
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
