import concurrent.futures
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from aquafuse import backend as bk, cli, sim
from aquafuse.backend import DivergedError, GaugeError, PreintCoverageError
from aquafuse.frontend import (EstimatorMode, FrameState,
                               InsufficientObservationsError, RunConfig,
                               Tracker, TrackingStatus, run_estimator)
from aquafuse.manifold import BranchAmbiguityError
from aquafuse.state import NavState
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

    def test_sweep_workers_run_one_blas_thread(self, tmp_path):
        # a sweep started with no BLAS thread count set and two workers
        # writes each cell's trajectory as this process, at one thread, does
        if any(os.environ.get(var, "1") != "1" for var in cli.BLAS_THREADS):
            pytest.skip("compares with a run at one BLAS thread; the "
                        "environment sets another count")
        modes = ["acoustic-inertial-depth-only", "dvl-deadreckon-only"]
        spec, out = tmp_path / "sweep.json", tmp_path / "sweep"
        spec.write_text(json.dumps({"modes": modes, "scenarios": [{
            "name": "mower", "config": {"kind": "lawnmower", "duration_s": 4.0,
                                        "degradation_windows_s": [[1.0, 2.0]],
                                        "seed": 3}}]}))
        env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREADS}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env.update(AQUAFUSE_THREADS="2", PYTHONPATH=os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "aquafuse.cli", "sweep",
                        "--config", str(spec), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        ds = sim.read_dataset(out / "mower" / "dataset")
        for mode in modes:
            here = tmp_path / "here" / mode
            cli._estimate_to_dir(ds, str(here), RunConfig(mode=EstimatorMode(mode)))
            assert (out / "mower" / mode / "trajectory.jsonl").read_bytes() \
                == (here / "trajectory.jsonl").read_bytes(), mode

    def test_trajectory_file_holds_these_bytes(self, tmp_path):
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        frames = [
            FrameState(3, 0.1, NavState(rot, [1.5, -2.25, 1 / 3], np.zeros(3)),
                       TrackingStatus.VISUAL_OK, 12),
            FrameState(4, 0.1 + 0.2, NavState(np.eye(3), [0.0, 1e-17, 5.0],
                                              np.ones(3)),
                       TrackingStatus.DEAD_RECKON, 0)]
        path = tmp_path / "trajectory.jsonl"
        cli.write_trajectory(str(path), frames)
        assert path.read_text() == (
            '{"frame_id":3,"t":"0.1","R":[0.0,-1.0,0.0,1.0,0.0,0.0,0.0,0.0,'
            '1.0],"p":[1.5,-2.25,0.3333333333333333]}\n'
            '{"frame_id":4,"t":"0.30000000000000004","R":[1.0,0.0,0.0,0.0,'
            '1.0,0.0,0.0,0.0,1.0],"p":[0.0,1e-17,5.0]}\n')
        back = cli.load_trajectory(str(path))
        assert back.t.tolist() == [0.1, 0.30000000000000004]
        assert np.array_equal(back.R, [f.nav.R for f in frames])
        assert np.array_equal(back.p, [f.nav.p for f in frames])


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
    return (not value) if isinstance(value, bool) else value + 1


def test_run_config_settings_by_name():
    # adding or removing a run setting is a deliberate edit of this list
    assert [key for key, _ in _leaves(RunConfig())] == [
        "mode",
        "tracker.min_tracked_features", "tracker.min_coarse_observations",
        "tracker.reentry_frames", "tracker.tau_p", "tracker.tau_r",
        "tracker.tau_t", "tracker.coarse_max_iterations",
        "tracker.refine_max_iterations",
        "backend.window_size", "backend.huber_delta",
        "backend.sigma_intensity", "backend.photometric_enabled",
        "backend.photometric_max_points", "backend.photometric_gate",
        "backend.photometric_track_gate",
        "floors.sigma_pixel", "floors.sigma_dvl", "floors.sigma_pressure",
        "floors.sigma_g", "floors.sigma_a", "floors.sigma_bg_walk",
        "floors.sigma_ba_walk", "floors.sigma_bv_walk"]


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
    # the coarse tracker's single-node windows too
    assert all(n is tracker.noise for _, _, n in seen)
    # and so do the preintegrations
    run = tracker.interval
    assert (run.imu_preint.sigma_g, run.imu_preint.sigma_a,
            run.dvl_preint.sigma_v) == (noise.sigma_g, noise.sigma_a,
                                        noise.sigma_dvl)


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
        # the patch pattern and the window solver's stopping rule are no
        # run config keys: they are refused as unknown, well formed or not
        ({"backend": {"pattern": {"size": 3}}}, "backend.pattern"),
        ({"backend": {"pattern": {"weight_scale": 10.0}}}, "backend.pattern"),
        ({"backend": {"pattern": {"offsets": [[0, 0], [1, 0]]}}},
         "backend.pattern"),
        ({"backend": {"solver": {"max_iterations": 20}}}, "backend.solver"),
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
        ({"backend": {"pattern": {"offsets": [[0, 0], [1, float("inf")]]}}},
         "backend.pattern"),
        ({"backend": {"sigma_intensity_track": 10.0}},
         "backend.sigma_intensity_track"),
        # a zero noise divided by zero (exit 1 or 4): the intensity noise on
        # any dataset, a floor on a noiseless one; a negative intensity
        # noise ran as its absolute value
        ({"backend": {"sigma_intensity": 0}}, "backend.sigma_intensity"),
        ({"backend": {"sigma_intensity": -30.0}}, "backend.sigma_intensity"),
        *(({"floors": {key: 0}}, f"floors.{key}") for key in (
            "sigma_pixel", "sigma_dvl", "sigma_pressure", "sigma_g",
            "sigma_a", "sigma_bg_walk", "sigma_ba_walk", "sigma_bv_walk")),
    ])
    def test_malformed_nested_config(self, dataset, tmp_path, capsys,
                                     config, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert _estimate(dataset, tmp_path / "run", "--config",
                         str(path)) == 2
        # the key is named whole: not a key nested in it
        assert re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])",
                         capsys.readouterr().err), key

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
        ({"duration_s": -1.0}, "duration_s"),
        ({"landmark_count": -1}, "landmark_count"),
        ({"max_obs_per_frame": -5}, "max_obs_per_frame"),
        ({"width_px": 0}, "width_px"),
        ({"height_px": 0}, "height_px"),
        ({"sigma_pixel_px": -1.0}, "sigma_pixel_px"),
        ({"sigma_disparity_px": -0.1}, "sigma_disparity_px"),
        ({"sigma_g_rad_s_sqrt_hz": -1e-4}, "sigma_g_rad_s_sqrt_hz"),
        ({"sigma_a_m_s2_sqrt_hz": -1e-3}, "sigma_a_m_s2_sqrt_hz"),
        ({"sigma_bg_walk_rad_s_sqrt_s": -1e-5}, "sigma_bg_walk_rad_s_sqrt_s"),
        ({"sigma_ba_walk_m_s2_sqrt_s": -1e-4}, "sigma_ba_walk_m_s2_sqrt_s"),
        ({"sigma_dvl_m_s": -0.005}, "sigma_dvl_m_s"),
        ({"sigma_bv_walk_m_s_sqrt_s": -1e-4}, "sigma_bv_walk_m_s_sqrt_s"),
        ({"sigma_pressure_m": -0.01}, "sigma_pressure_m"),
        ({"field_sigma_px": 0.0}, "field_sigma_px"),
        ({"field_sigma_px": -6.0}, "field_sigma_px"),
        ({"baseline_m": 0.0}, "baseline_m"),
        ({"fx_px": 0}, "fx_px"),
        ({"fy_px": -300.0}, "fy_px"),
        ({"min_obs_depth_m": 5, "max_obs_depth_m": 2}, "min_obs_depth_m"),
        ({"kind": "figure8"}, "kind"),
        ({"R_ID": [2, 0, 0, 0, 1, 0, 0, 0, 1]}, "R_ID"),
        ({"R_ID": [1, 0, 0, 0, 1, 0, 0, 0, -1]}, "R_ID"),
        ({"R_IC": [1, 1e-6, 0, 0, 1, 0, 0, 0, 1]}, "R_IC"),
        ({"sigma_dvl_m_s": float("nan")}, "sigma_dvl_m_s"),
        ({"rate_imu_hz": float("inf")}, "rate_imu_hz"),
        ({"max_obs_depth_m": float("inf")}, "max_obs_depth_m"),
        ({"seed": -1}, "seed"),
        ({"p_IC_m": [0.15, float("nan"), 0.05]}, "p_IC_m"),
        ({"cx_px": 10 ** 400}, "cx_px"),
        # each divided by zero (exit 1)
        ({"period_s": 0}, "period_s"),
        ({"bv_sin_period_s": 0}, "bv_sin_period_s"),
        ({"kind": "lawnmower", "sweep_period_s": 0}, "sweep_period_s"),
        ({"amp_z_m": 1.0, "depth_period_s": 0}, "depth_period_s"),
    ])
    def test_malformed_scenario_config(self, tmp_path, capsys, config, key):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "dataset")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err

    @pytest.mark.parametrize("config", [
        {"kind": "lawnmower", "sweep_amp_m": 0, "speed_m_s": 0},
        {"kind": "figure-eight", "amp_x_m": 0, "amp_y_m": 0},
    ], ids=["lawnmower", "figure-eight"])
    def test_path_without_planar_speed_is_refused(self, tmp_path, capsys,
                                                  config):
        # its yaw rate is 0/0: every IMU and DVL line held NaN, simulate
        # exited 0 and estimate refused imu.jsonl:1
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"duration_s": 1.0, **config}))
        out = tmp_path / "dataset"
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(out)]) == 2
        assert "planar speed is zero" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("meta, key", [
        ([], "root"),
        ({"degradation_windows_s": [0.5]}, "degradation_windows_s"),
        ({"rate_cam_hz": "fast"}, "rate_cam_hz"),
        ({"width_px": 640.0}, "width_px"),
        ({"sigma_dvl_m_s": float("nan")}, "sigma_dvl_m_s"),
        ({"duration_s": float("inf")}, "duration_s"),
        ({"cx_px": float("nan")}, "cx_px"),
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

    @pytest.mark.parametrize("mode", ["full", "dvl-deadreckon-only"])
    def test_infinite_meta_number_names_the_key(self, dataset, tmp_path,
                                                capsys, mode):
        # it exited 4 in full and 0 in dead reckoning
        bad = tmp_path / "dataset"
        shutil.copytree(dataset, bad)
        meta = (bad / "meta.json").read_text()
        assert '"cx_px": 320.0,' in meta
        (bad / "meta.json").write_text(
            meta.replace('"cx_px": 320.0,', '"cx_px": 1e999,'))
        assert _estimate(bad, tmp_path / "run", "--mode", mode) == 2
        err = capsys.readouterr().err
        assert str(bad / "meta.json") in err and "cx_px" in err

    @pytest.mark.parametrize("text, key", [
        # the NaN switched the translation trigger off, and the run exited 0
        ('{"tracker": {"tau_p": NaN}}', "tracker.tau_p"),
        # it exited 4
        ('{"floors": {"sigma_dvl": 1e999}}', "floors.sigma_dvl"),
    ], ids=["nan", "overflow"])
    def test_non_finite_run_config_names_the_key(self, dataset, tmp_path,
                                                 capsys, text, key):
        path = tmp_path / "run.json"
        path.write_text(text)
        run = tmp_path / "run"
        assert _estimate(dataset, run, "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err
        assert not run.exists()

    def test_negative_seed_argument_names_the_key(self, tmp_path, capsys):
        out = tmp_path / "dataset"
        assert cli.main(["simulate", "--out", str(out), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, named", [
        ([1, 2], "sweep.json"),
        ({"scenarios": "circle"}, "sweep.json"),
        ({"scenarios": [1]}, "sweep.json"),
        ({"scenarios": [{"config": {}}]}, "sweep.json"),
        ({"scenarios": [{"name": "a", "config": {"rate_cam_hz": "fast"}}]},
         "rate_cam_hz"),
        ({"scenarios": [{"name": "a", "config": {"cx_px": float("nan")}}]},
         "cx_px"),
        # each simulated the dataset: the first ran two cells into one run
        # directory, the second none, and both exited 0
        ({"scenarios": [{"name": "a", "config": {"duration_s": 1.5}}],
          "modes": ["dvl-deadreckon-only", "dvl-deadreckon-only"]},
         "sweep.json: mode 'dvl-deadreckon-only' is given twice"),
        ({"scenarios": [{"name": "a", "config": {"duration_s": 1.5}}],
          "modes": []}, "sweep.json: 'modes' is not a nonempty list"),
    ])
    def test_malformed_sweep_spec(self, tmp_path, capsys, spec, named):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, named", [
        ({"modes": ["full", "sonar"]}, "modes[1]"),
        ({"modes": "full"}, "modes"),
        ({"run_config": {"tracker": {"tau_p": "x"}}}, "tracker.tau_p"),
        ({"scenarios": [{"name": "a", "config": {"duration_s": 2.0}},
                        {"name": "b", "config": {"seed": 1.5}}]}, "scenario b"),
        ({"scenarios": [{"name": "a", "config": {"duration_s": 2.0}},
                        {"name": "b", "config": {"kind": "figure8"}}]}, "kind"),
        ({"scenarios": [{"name": "a", "config": {"duration_s": 2.0}},
                        {"name": "a", "config": {"duration_s": 3.0}}]},
         "'a' is given twice"),
        ({"scenarios": [{"name": "../escaped", "config": {}}]}, "'../escaped'"),
        ({"scenarios": [{"name": "a/b", "config": {}}]}, "'a/b'"),
        ({"scenarios": [{"name": "..", "config": {}}]}, "'..'"),
        ({"scenarios": [{"name": "", "config": {}}]}, "''"),
        # the report took the scenario's directory path, after every cell ran
        ({"scenarios": [{"name": "sweep_report.csv",
                         "config": {"duration_s": 2.0}}]}, "'sweep_report.csv'"),
        ({"scenarios": [{"name": "sweep_report.json",
                         "config": {"duration_s": 2.0}}]},
         "'sweep_report.json'"),
    ], ids=["unknown-mode", "modes-not-a-list", "run-config", "second-scenario",
            "unknown-kind", "duplicate-name", "escaping-name", "nested-name",
            "parent-name", "empty-name", "csv-report-name", "json-report-name"])
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

    def test_sweep_checks_the_worker_count_before_writing(self, tmp_path,
                                                          capsys, monkeypatch):
        monkeypatch.setenv("AQUAFUSE_THREADS", "two")
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(
            {"scenarios": [{"name": "a", "config": {"duration_s": 2.0}}]}))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(out)]) == 2
        assert "AQUAFUSE_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_sweep_refuses_a_worker_count_below_one(self, tmp_path, capsys,
                                                    monkeypatch, count):
        monkeypatch.setenv("AQUAFUSE_THREADS", count)
        pools = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kwargs: pools.append(args))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(
            {"scenarios": [{"name": "a", "config": {"duration_s": 2.0}}]}))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(out)]) == 2
        assert f"AQUAFUSE_THREADS={count!r} is not a positive integer" \
            in capsys.readouterr().err
        assert not out.exists() and pools == []

    def test_sweep_reuses_a_dataset_of_its_own_config_only(self, tmp_path,
                                                           capsys, monkeypatch):
        monkeypatch.setenv("AQUAFUSE_THREADS", "1")
        path, out = tmp_path / "sweep.json", tmp_path / "sweep"

        def sweep(config):
            path.write_text(json.dumps({
                "scenarios": [{"name": "a", "config": config}],
                "modes": ["dvl-deadreckon-only"]}))
            return cli.main(["sweep", "--config", str(path), "--out", str(out)])

        circle = {"duration_s": 2.0, "kind": "circle", "seed": 1}
        assert sweep(circle) == 0
        report = (out / "sweep_report.csv").read_text()
        # an unchanged spec reuses the dataset as it is
        written = []
        monkeypatch.setattr(sim, "write_dataset",
                            lambda *args: written.append(args))
        assert sweep(circle) == 0
        assert written == [] and (out / "sweep_report.csv").read_text() == report
        # a changed one is refused, naming the scenario, before any output
        (out / "sweep_report.csv").unlink()
        assert sweep({**circle, "duration_s": 3.0, "kind": "line"}) == 3
        assert "scenario a" in capsys.readouterr().err
        assert written == [] and not (out / "sweep_report.csv").exists()

    # forms float() takes but no writer writes were read as times, with
    # exit 0: "2_0" as 20.0
    @pytest.mark.parametrize("t", ["2_0", " 2.0", "+2.0", "\u0661.\u0660"])
    @pytest.mark.parametrize("stream", ["pressure.jsonl", "trajectory.jsonl"])
    def test_timestamp_in_an_unwritten_form_names_the_line(
            self, dataset, tmp_path, capsys, stream, t):
        copy, out = tmp_path / "dataset", tmp_path / "out"
        shutil.copytree(dataset, copy)
        if stream == "trajectory.jsonl":
            assert _estimate(copy, tmp_path / "run", "--mode",
                             "dvl-deadreckon-only") == 0
            path = tmp_path / "run" / stream
            command = ["evaluate", "--truth", str(copy), str(path),
                       "--out", str(out)]
        else:
            path = copy / stream
            command = ["estimate", str(copy), "--out", str(out)]
        lines = path.read_text().splitlines()
        lines[-1] = json.dumps({**json.loads(lines[-1]), "t": t})
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(command) == 2
        assert f"{path}:{len(lines)}: bad timestamp" in capsys.readouterr().err
        assert not out.exists()

    # a JSON number was read as a time, with exit 0
    @pytest.mark.parametrize("t", ["soon", None, [0.5], "nan", 0.5])
    def test_malformed_trajectory_names_the_line(self, dataset, tmp_path,
                                                 capsys, t):
        good = {"t": "0.0", "R": np.eye(3).ravel().tolist(), "p": [0, 0, 0]}
        path = tmp_path / "trajectory.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "t": t})
                        + "\n")
        assert cli.main(["evaluate", "--truth", str(dataset), str(path),
                         "--out", str(tmp_path / "report")]) == 2
        assert f"{path}:2: bad timestamp" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("names, named", [
        (None, "estimate name 'full' is given twice (name each estimate "
               "with --names)"),
        ("a,a", "estimate name 'a' is given twice"),
        ("../escaped,b", "estimate name '../escaped' is not one plain path "
                         "component")],
        ids=["default-twice", "given-twice", "escaping"])
    def test_evaluate_names_are_checked_before_writing(self, dataset, tmp_path,
                                                       capsys, names, named):
        # each name names a series file: the first wrote one series for two
        # reports, the last wrote the reports, then failed on its series
        runs = [tmp_path / run / "full" for run in ("r1", "r2")]
        assert _estimate(dataset, runs[0], "--mode", "dvl-deadreckon-only") == 0
        shutil.copytree(runs[0], runs[1])
        out = tmp_path / "report"
        out.mkdir()
        argv = ["evaluate", "--truth", str(dataset), *map(str, runs),
                "--out", str(out)]
        assert cli.main(argv + (["--names", names] if names else [])) == 2
        assert named in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_trajectory_going_back_in_time_names_the_line(self, dataset,
                                                         tmp_path, capsys):
        good = {"t": "0.5", "R": np.eye(3).ravel().tolist(), "p": [0, 0, 0]}
        path = tmp_path / "trajectory.jsonl"
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, "t": "0.1"}) + "\n")
        assert cli.main(["evaluate", "--truth", str(dataset), str(path),
                         "--out", str(tmp_path / "report")]) == 2
        assert f"{path}:2: out-of-order timestamp" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("R", [1, 0, 0, 1]), ("R", "eye"), ("p", [0, 0]), ("p", None),
        ("p", [0, "nan", 0]), ("R", ["inf"] + [0] * 8)])
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
        ("imu.jsonl", "gyro", [0.1, 0.2]), ("dvl.jsonl", "vel", [[0.1]]),
        ("imu.jsonl", "accel", [0, "-inf", 0]), ("dvl.jsonl", "vel", ["nan", 0, 0]),
        ("groundtruth.jsonl", "bv", [0, 0, "1e999"]),
        # a numeric string and a bool, each read as a float, with exit 0
        ("imu.jsonl", "gyro", ["0.0", True, 0.0]),
        ("imu.jsonl", "accel", [0.0, 0.0, True])])
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
        ("frames.jsonl", ("field", "amps"), "x"),
        ("pressure.jsonl", ("depth",), "nan"),
        ("frames.jsonl", ("frame_id",), "1e999"),
        ("frames.jsonl", ("obs", 0, "disparity"), "inf"),
        ("frames.jsonl", ("obs", 0, "uv"), [0, "nan"]),
        ("frames.jsonl", ("field", "sigma_px"), "nan"),
        ("frames.jsonl", ("field", "offset"), "-inf"),
        # each raised a TypeError or AttributeError, with exit 1
        ("frames.jsonl", ("obs",), [5]),
        ("frames.jsonl", ("obs",), 3),
        ("frames.jsonl", ("field",), 5),
        # each read as an integer: frame 3, 3 and 1, landmark 3, 3 and 1
        ("frames.jsonl", ("frame_id",), 3.9),
        ("frames.jsonl", ("frame_id",), "3"),
        ("frames.jsonl", ("frame_id",), True),
        ("frames.jsonl", ("obs", 0, "id"), 3.9),
        ("frames.jsonl", ("obs", 0, "id"), "3"),
        ("frames.jsonl", ("obs", 0, "id"), True),
        # each read as a float: depth 5 and 1, disparity 0, a pixel row 180
        ("pressure.jsonl", ("depth",), "5.0"),
        ("pressure.jsonl", ("depth",), True),
        ("frames.jsonl", ("obs", 0, "disparity"), False),
        ("frames.jsonl", ("obs", 0, "uv"), [320.0, "180.0"])])
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

    def test_malformed_intensity_field_names_the_line(self, dataset, tmp_path,
                                                      capsys):
        copy = tmp_path / "dataset"
        shutil.copytree(dataset, copy)
        stream = copy / "frames.jsonl"
        lines = stream.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["field"]["amps"] = rec["field"]["amps"][:-1]
        assert len(rec["field"]["centers"]) == len(rec["field"]["amps"]) + 1
        lines[2] = json.dumps(rec)
        stream.write_text("\n".join(lines) + "\n")
        run = tmp_path / "run"
        assert _estimate(copy, run) == 2
        err = capsys.readouterr().err
        assert f"{stream}:3: field 'field'" in err and "amplitude" in err
        assert not run.exists()

    @pytest.mark.parametrize("stream, t", [
        ("imu.jsonl", "nan"), ("frames.jsonl", "nan"),
        ("pressure.jsonl", "inf"),
        # a bool and a number, each written on the line of its own time,
        # were read as times with exit 0
        ("imu.jsonl", True), ("frames.jsonl", 1 / 3)])
    def test_non_finite_dataset_timestamp_names_the_line(self, dataset,
                                                         tmp_path, capsys,
                                                         stream, t):
        copy = tmp_path / "dataset"
        shutil.copytree(dataset, copy)
        lines = (copy / stream).read_text().splitlines()
        lineno = 6 if isinstance(t, str) else next(
            k for k, line in enumerate(lines, 1)
            if float(json.loads(line)["t"]) == t)
        lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]),
                                        "t": t})
        (copy / stream).write_text("\n".join(lines) + "\n")
        run = tmp_path / "run"
        assert _estimate(copy, run) == 2
        assert f"{copy / stream}:{lineno}: bad timestamp" in \
            capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("stream, key, text, mode", [
        ("pressure.jsonl", "depth", "NaN", "full"),
        ("imu.jsonl", "gyro", "[NaN, 0, 0]", "full"),
        ("dvl.jsonl", "vel", "[Infinity, 0, 0]", "dvl-deadreckon-only"),
        ("dvl.jsonl", "vel", "[0, 1e999, 0]", "dvl-deadreckon-only"),
        ("frames.jsonl", "frame_id", "-Infinity", "full")])
    def test_non_finite_literal_names_the_line(self, dataset, tmp_path, capsys,
                                               stream, key, text, mode):
        # JSON literals the decoder would take, and one that overflows
        copy = tmp_path / "dataset"
        shutil.copytree(dataset, copy)
        lines = (copy / stream).read_text().splitlines()
        lines[5] = json.dumps({**json.loads(lines[5]), key: "@"}).replace(
            '"@"', text)
        (copy / stream).write_text("\n".join(lines) + "\n")
        run = tmp_path / "run"
        assert _estimate(copy, run, "--mode", mode) == 2
        assert f"{copy / stream}:6: " in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("name", [
        "meta.json", "imu.jsonl", "dvl.jsonl", "pressure.jsonl",
        "frames.jsonl", "groundtruth.jsonl", "trajectory.jsonl"])
    def test_empty_file_is_named(self, dataset, tmp_path, capsys, name):
        # an empty stream raised an IndexError, or ran on to empty outputs
        copy = tmp_path / "dataset"
        shutil.copytree(dataset, copy)
        empty = tmp_path / name if name == "trajectory.jsonl" else copy / name
        empty.write_text("")
        if name == "trajectory.jsonl":
            code = cli.main(["evaluate", "--truth", str(copy), str(empty),
                             "--out", str(tmp_path / "report")])
        else:
            code = _estimate(copy, tmp_path / "run")
        assert code == 2
        assert f"{empty}: " in capsys.readouterr().err

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
