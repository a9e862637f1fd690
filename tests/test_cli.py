import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from aquafuse import backend as bk, cli, sim
from aquafuse.backend import DivergedError, GaugeError, PreintCoverageError
from aquafuse.frontend import (EstimatorMode, InsufficientObservationsError,
                               RunConfig, Tracker, run_estimator)
from aquafuse.manifold import BranchAmbiguityError
from aquafuse.visual import (BehindCameraError, DegenerateTriangulationError,
                             OutOfDomainError)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "scenario.json"
    config.write_text(json.dumps({"duration_s": 2.0, "kind": "circle"}))
    out = root / "dataset"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                     "--seed", "1"]) == 0
    return out


def _estimate(dataset, out, *extra):
    return cli.main(["estimate", str(dataset), "--out", str(out), *extra])


class TestSuccess:
    def test_simulate_estimate_evaluate(self, dataset, tmp_path):
        run = tmp_path / "run"
        assert _estimate(dataset, run, "--mode", "full") == 0
        for name in ("trajectory.jsonl", "status.csv", "bias.csv"):
            assert (run / name).is_file()
        report = tmp_path / "report"
        assert cli.main(["evaluate", "--truth", str(dataset), str(run),
                         "--out", str(report), "--no-header-timestamp"]) == 0
        rows = json.loads((report / "report.json").read_text())["reports"]
        assert len(rows) == 1

    @pytest.mark.parametrize("mode", ["full", "dvl-deadreckon-only"])
    def test_estimate_files_hold_the_records(self, dataset, tmp_path, mode):
        run = tmp_path / "run"
        assert _estimate(dataset, run, "--mode", mode) == 0
        frames = run_estimator(sim.read_dataset(str(dataset)),
                               RunConfig(mode=EstimatorMode(mode))).frames

        traj = cli.load_trajectory(str(run / "trajectory.jsonl"))
        assert np.array_equal(traj.t, [f.t for f in frames])
        assert np.array_equal(traj.R, [f.nav.R for f in frames])
        assert np.array_equal(traj.p, [f.nav.p for f in frames])

        rows = [line.split(",") for line in
                (run / "status.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [f.frame_id for f in frames]
        assert [r[2] for r in rows] == [f.status.value for f in frames]
        if mode == "dvl-deadreckon-only":
            assert {r[2] for r in rows} == {"DeadReckon"}

        rows = [[float(v) for v in line.split(",")] for line in
                (run / "bias.csv").read_text().splitlines()[1:]]
        kf_frames = [f for f in frames if f.keyframe is not None]
        assert len(rows) == len(kf_frames)
        for row, f in zip(rows, kf_frames):
            kf = f.keyframe
            assert row[0] == f.t
            np.testing.assert_allclose(
                row[1:], np.concatenate([kf.bv, kf.bg, kf.ba]),
                rtol=1e-8, atol=1e-15)

    def test_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AQUAFUSE_THREADS", "1")
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "scenarios": [{"name": "short", "config": {"duration_s": 2.0}}],
            "modes": ["dvl-deadreckon-only"]}))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(spec),
                         "--out", str(out)]) == 0
        assert (out / "sweep_report.csv").is_file()

    def test_sweep_rows_do_not_depend_on_the_worker_count(self, tmp_path,
                                                           monkeypatch):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "scenarios": [
                {"name": "circle", "config": {"duration_s": 2.0, "seed": 1}},
                {"name": "mower", "config": {"duration_s": 2.0, "seed": 2,
                                             "kind": "lawnmower"}}],
            "modes": ["dvl-deadreckon-only", "acoustic-inertial-depth-only"]}))
        reports = []
        for workers in ("1", "2"):
            monkeypatch.setenv("AQUAFUSE_THREADS", workers)
            out = tmp_path / f"sweep{workers}"
            assert cli.main(["sweep", "--config", str(spec),
                             "--out", str(out)]) == 0
            reports.append(((out / "sweep_report.json").read_text(),
                            (out / "sweep_report.csv").read_text()))
        assert len(json.loads(reports[0][0])["rows"]) == 4
        assert reports[0] == reports[1]

    def test_nested_config_sets_the_patch_pattern(self, dataset, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"backend": {"pattern": {"weight_scale": 10.0}}}))
        assert _estimate(dataset, tmp_path / "run", "--mode", "full",
                         "--config", str(config)) == 0


def _leaves(config, prefix=""):
    """(dotted key, value) of every settable value of a config dataclass."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def _changed(value):
    """A valid setting of the type of ``value`` that differs from it."""
    if isinstance(value, np.ndarray):
        return value[::-1].tolist()  # the patch offsets, origin kept
    return (not value) if isinstance(value, bool) else value + 1


def _nested(flat: dict) -> dict:
    out: dict = {}
    for key, value in flat.items():
        *path, name = key.split(".")
        node = out
        for part in path:
            node = node.setdefault(part, {})
        node[name] = value
    return out


def test_no_run_config_setting_is_overwritten(dataset, monkeypatch):
    # the tracker decides the sensors of a mode and their noise from the
    # mode, the floors and the scenario; every setting reaches it as given
    ds = sim.read_dataset(str(dataset))
    scen = ds.config
    scenario_noise = {
        "sigma_pixel": scen.sigma_pixel_px, "sigma_dvl": scen.sigma_dvl_m_s,
        "sigma_pressure": scen.sigma_pressure_m,
        "sigma_g": scen.sigma_g_rad_s_sqrt_hz,
        "sigma_a": scen.sigma_a_m_s2_sqrt_hz,
        "sigma_bg_walk": scen.sigma_bg_walk_rad_s_sqrt_s,
        "sigma_ba_walk": scen.sigma_ba_walk_m_s2_sqrt_s,
        "sigma_bv_walk": scen.sigma_bv_walk_m_s_sqrt_s}
    given = {key: _changed(value) for key, value in _leaves(RunConfig())
             if key.startswith(("tracker.", "backend."))}
    # floors above the scenario's noise for half the sensors, below for
    # the others
    given.update({f"floors.{name}": value * (2.0 if k % 2 else 0.5)
                  for k, (name, value) in enumerate(scenario_noise.items())})
    cfg = cli.run_config_from_dict(_nested(given))
    tracker = Tracker(ds, cfg)
    got = dict(_leaves(tracker.cfg))
    for key, value in given.items():
        assert np.array_equal(got[key], value), key

    noise = tracker.noise
    for name, value in scenario_noise.items():
        assert getattr(noise, name) == max(value, given[f"floors.{name}"])
    assert dataclasses.astuple(tracker.imu_noise) == (noise.sigma_g,
                                                      noise.sigma_a)

    # window and per-frame solves take the run's settings and that noise
    seen = []
    assemble = bk.assemble_window

    def recorded(nodes, landmarks, intervals, rig, backend_cfg, noise, **kw):
        seen.append((len(nodes), backend_cfg, noise))
        return assemble(nodes, landmarks, intervals, rig, backend_cfg, noise,
                        **kw)

    monkeypatch.setattr(bk, "assemble_window", recorded)
    tracker.run()
    assert {k == 1 for k, _, _ in seen} == {True, False}
    assert all(c is cfg.backend for _, c, _ in seen)
    # the coarse tracker's single-node windows keep their own pixel noise
    assert all(n is tracker.noise for k, _, n in seen if k > 1)


class TestInputErrors:
    def test_parse_error_names_file_and_line(self, dataset, tmp_path, capsys):
        run = tmp_path / "run"
        assert _estimate(dataset, run, "--mode", "dvl-deadreckon-only") == 0
        traj = run / "trajectory.jsonl"
        lines = traj.read_text().splitlines()
        lines[1] = "{not json"
        traj.write_text("\n".join(lines) + "\n")
        code = cli.main(["evaluate", "--truth", str(dataset), str(traj),
                         "--out", str(tmp_path / "report")])
        assert code == 2
        assert f"{traj}:2" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path):
        assert _estimate(tmp_path / "absent", tmp_path / "run") == 2

    def test_unknown_config_key(self, dataset, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"no_such_key": 1}))
        assert _estimate(dataset, tmp_path / "run", "--config",
                         str(config)) == 2

    @pytest.mark.parametrize("config, key", [
        ({"tracker": {"tau_p": "x"}}, "tracker.tau_p"),
        ({"backend": {"pattern": {"size": 3}}}, "backend.pattern.size"),
        ({"backend": {"pattern": {"weight_scale": "big"}}},
         "backend.pattern.weight_scale"),
        ({"backend": {"pattern": {"offsets": [[0, 0], [1]]}}},
         "backend.pattern.offsets"),
        ({"backend": {"solver": {"max_iterations": 2.5}}},
         "backend.solver.max_iterations"),
        ({"backend": {"use_dvl": "yes"}}, "backend.use_dvl"),
        ({"floors": [0.1]}, "floors"),
        ({"mode": "sonar"}, "mode"),
        # the sensors of a mode and their noise are no run config keys
        ({"backend": {"use_vision": False}}, "backend.use_vision"),
        ({"backend": {"use_dvl": True}}, "backend.use_dvl"),
        ({"backend": {"use_pressure": False}}, "backend.use_pressure"),
        ({"backend": {"sigma_pixel": 1.0}}, "backend.sigma_pixel"),
        ({"backend": {"sigma_dvl": 0.1}}, "backend.sigma_dvl"),
        ({"backend": {"sigma_pressure": 0.1}}, "backend.sigma_pressure"),
        ({"backend": {"sigma_bg_walk": 1e-4}}, "backend.sigma_bg_walk"),
        ({"backend": {"sigma_ba_walk": 1e-3}}, "backend.sigma_ba_walk"),
        ({"backend": {"sigma_bv_walk": 1e-2}}, "backend.sigma_bv_walk"),
        ({"backend": {"photometric_enabled": "yes"}},
         "backend.photometric_enabled"),
    ])
    def test_malformed_nested_config(self, dataset, tmp_path, capsys,
                                     config, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert _estimate(dataset, tmp_path / "run", "--config",
                         str(path)) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        ([], "root"),
        ({"rate_cam_hz": "fast"}, "rate_cam_hz"),
        ({"seed": 1.5}, "seed"),
        ({"kind": 3}, "kind"),
        ({"bg0_rad_s": [0.1, 0.2]}, "bg0_rad_s"),
        ({"R_IC": [[1.0, 0.0, 0.0]] * 3}, "R_IC"),
        ({"degradation_windows_s": [0.5]}, "degradation_windows_s"),
        ({"degradation_windows_s": [[1.0, "x"]]}, "degradation_windows_s"),
        ({"degradation_windows_s": 1.0}, "degradation_windows_s"),
    ])
    def test_malformed_scenario_config(self, tmp_path, capsys, config, key):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "dataset")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err

    @pytest.mark.parametrize("meta, key", [
        ([], "root"),
        ({"degradation_windows_s": [0.5]}, "degradation_windows_s"),
        ({"rate_cam_hz": "fast"}, "rate_cam_hz"),
        ({"width_px": 640.0}, "width_px"),
    ])
    def test_malformed_meta_json(self, dataset, tmp_path, capsys, meta, key):
        bad = tmp_path / "dataset"
        shutil.copytree(dataset, bad)
        if isinstance(meta, dict):
            meta = {**json.loads((bad / "meta.json").read_text()), **meta}
        (bad / "meta.json").write_text(json.dumps(meta))
        assert _estimate(bad, tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert str(bad / "meta.json") in err and key in err

    @pytest.mark.parametrize("spec, named", [
        ([1, 2], "sweep.json"),
        ({"scenarios": "circle"}, "sweep.json"),
        ({"scenarios": [1]}, "sweep.json"),
        ({"scenarios": [{"config": {}}]}, "sweep.json"),
        ({"scenarios": [{"name": "a", "config": {"rate_cam_hz": "fast"}}]},
         "rate_cam_hz"),
    ])
    def test_malformed_sweep_spec(self, tmp_path, capsys, spec, named):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "sweep")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("change, named", [
        ({"modes": ["full", "sonar"]}, "modes[1]"),
        ({"modes": "full"}, "modes"),
        ({"run_config": {"tracker": {"tau_p": "x"}}}, "tracker.tau_p"),
        ({"scenarios": [{"name": "a", "config": {"duration_s": 2.0}},
                        {"name": "b", "config": {"seed": 1.5}}]}, "scenario b"),
    ], ids=["unknown-mode", "modes-not-a-list", "run-config", "second-scenario"])
    def test_sweep_spec_is_checked_before_any_dataset(self, tmp_path, capsys,
                                                      change, named):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "scenarios": [{"name": "a", "config": {"duration_s": 2.0}}],
            **change}))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["soon", None, [0.5]])
    def test_malformed_trajectory_names_the_line(self, dataset, tmp_path,
                                                 capsys, t):
        good = {"t": "0.0", "R": np.eye(3).ravel().tolist(), "p": [0, 0, 0]}
        path = tmp_path / "trajectory.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "t": t})
                        + "\n")
        assert cli.main(["evaluate", "--truth", str(dataset), str(path),
                         "--out", str(tmp_path / "report")]) == 2
        assert f"{path}:2: bad timestamp" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("R", [1, 0, 0, 1]), ("R", "eye"), ("p", [0, 0]), ("p", None)])
    def test_malformed_trajectory_vector_names_the_line(self, dataset, tmp_path,
                                                        capsys, key, value):
        good = {"t": "0.0", "R": np.eye(3).ravel().tolist(), "p": [0, 0, 0]}
        path = tmp_path / "trajectory.jsonl"
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, "t": "0.1", key: value}) + "\n")
        assert cli.main(["evaluate", "--truth", str(dataset), str(path),
                         "--out", str(tmp_path / "report")]) == 2
        assert f"{path}:2: field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("stream, key, value", [
        ("imu.jsonl", "gyro", [0.1, 0.2]), ("dvl.jsonl", "vel", [[0.1]])])
    def test_malformed_dataset_vector_names_the_line(self, dataset, tmp_path,
                                                     capsys, stream, key,
                                                     value):
        copy = tmp_path / "dataset"
        shutil.copytree(dataset, copy)
        lines = (copy / stream).read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), key: value})
        (copy / stream).write_text("\n".join(lines) + "\n")
        assert _estimate(copy, tmp_path / "run") == 2
        assert f"{copy / stream}:3: field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("stream, keys, value", [
        ("pressure.jsonl", ("depth",), [5.0]),
        ("frames.jsonl", ("frame_id",), {"id": 3}),
        ("frames.jsonl", ("obs", 0, "id"), [1]),
        ("frames.jsonl", ("obs", 0, "disparity"), "x"),
        ("frames.jsonl", ("field", "sigma_px"), {"px": 3.0}),
        ("frames.jsonl", ("field", "offset"), [0.0]),
        ("frames.jsonl", ("field", "amps"), "x")])
    def test_malformed_dataset_scalar_names_the_line(self, dataset, tmp_path,
                                                     capsys, stream, keys,
                                                     value):
        copy = tmp_path / "dataset"
        shutil.copytree(dataset, copy)
        lines = (copy / stream).read_text().splitlines()
        rec = json.loads(lines[2])
        inner = rec
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = value
        lines[2] = json.dumps(rec)
        (copy / stream).write_text("\n".join(lines) + "\n")
        assert _estimate(copy, tmp_path / "run") == 2
        assert f"{copy / stream}:3: field '{keys[-1]}'" in capsys.readouterr().err

    def test_bad_arguments(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate"])
        assert exc.value.code == 2


def test_refusal_without_force(dataset, tmp_path):
    out = tmp_path / "taken"
    os.makedirs(out)
    assert cli.main(["simulate", "--out", str(out)]) == 3
    assert _estimate(dataset, out) == 3


def test_divergence(dataset, tmp_path, monkeypatch):
    def diverge(ds, cfg):
        raise DivergedError("initial cost is not finite (nan)")

    monkeypatch.setattr(cli, "run_estimator", diverge)
    assert _estimate(dataset, tmp_path / "run") == 4


@pytest.mark.parametrize("error", [
    GaugeError, PreintCoverageError, InsufficientObservationsError,
    BehindCameraError, OutOfDomainError, DegenerateTriangulationError,
    BranchAmbiguityError])
def test_estimator_failure(dataset, tmp_path, monkeypatch, capsys, error):
    def fail(ds, cfg):
        raise error("inside the estimator")

    monkeypatch.setattr(cli, "run_estimator", fail)
    assert _estimate(dataset, tmp_path / "run") == 5
    assert error.__name__ in capsys.readouterr().err
