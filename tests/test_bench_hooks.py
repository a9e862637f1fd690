"""The names the benchmark in ``perfbench/`` reaches into the program by: it
wraps the entry points of ``perfbench/tracing.py`` and reports one factor
count per ``backend.factors.*`` metric of ``BENCHMARK.json``. A rename in
the program that breaks either fails here, not only in a traced run."""

import importlib.util
import json
import pathlib

from aquafuse.backend import FactorKind

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
