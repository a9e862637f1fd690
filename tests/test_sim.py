import dataclasses
import filecmp
import os

import numpy as np
import pytest

from aquafuse import sim

SHORT = dict(kind="lawnmower", duration_s=2.0, seed=4,
             degradation_windows_s=((0.5, 1.0),))


def assert_same(a, b, where="dataset"):
    """Exact equality, recursing through dataclasses, lists and arrays."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name),
                        f"{where}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{k}]")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(a, b), where
    else:
        assert a == b, where


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    ds = sim.simulate(sim.ScenarioConfig(**SHORT))
    path = tmp_path_factory.mktemp("sim") / "dataset"
    sim.write_dataset(ds, str(path))
    return ds, path


def test_written_dataset_reads_back_equal(written):
    ds, path = written
    back = sim.read_dataset(str(path))
    assert len(back.imu) > 0 and len(back.frames) > 0
    assert any(not f.observations for f in back.frames)  # the blackout
    assert_same(ds, back)


def test_same_seed_gives_identical_files(written, tmp_path):
    _, first = written
    again = tmp_path / "again"
    sim.write_dataset(sim.simulate(sim.ScenarioConfig(**SHORT)), str(again))
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(again))
    match, mismatch, errors = filecmp.cmpfiles(first, again, names,
                                               shallow=False)
    assert (mismatch, errors) == ([], [])
    other = tmp_path / "other"
    sim.write_dataset(sim.simulate(sim.ScenarioConfig(**{**SHORT, "seed": 5})),
                      str(other))
    assert not filecmp.cmp(first / "imu.jsonl", other / "imu.jsonl",
                           shallow=False)


@pytest.mark.parametrize("stream, lineno, edit", [
    ("imu.jsonl", 3, lambda line: "{not json"),
    ("dvl.jsonl", 5, lambda line: line.replace('"vel"', '"velocity"')),
    ("pressure.jsonl", 2, lambda line: line.replace('"t":"0.1"', '"t":"x"')),
    ("frames.jsonl", 4, lambda line: line.replace('"t":"0.2"', '"t":"0.0"')),
])
def test_parse_error_names_file_and_line(written, tmp_path, stream, lineno,
                                         edit):
    _, path = written
    broken = tmp_path / "broken"
    os.makedirs(broken)
    for name in os.listdir(path):
        text = (path / name).read_text()
        if name == stream:
            lines = text.splitlines()
            changed = edit(lines[lineno - 1])
            assert changed != lines[lineno - 1]
            lines[lineno - 1] = changed
            text = "\n".join(lines) + "\n"
        (broken / name).write_text(text)
    with pytest.raises(sim.ParseError) as err:
        sim.read_dataset(str(broken))
    assert f"{broken / stream}:{lineno}:" in str(err.value)
