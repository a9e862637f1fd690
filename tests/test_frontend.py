from dataclasses import replace
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import aquafuse.backend as bk
from aquafuse.dvl import preintegrate_dvl
import aquafuse.frontend as frontend
from aquafuse.frontend import (EstimatorMode, FrameState,
                               InsufficientObservationsError, RunConfig,
                               Tracker, TrackerConfig, TrackingStatus,
                               keyframe_decision, predict_state_degraded,
                               refine_photometric, run_estimator, track_coarse)
from aquafuse.imu import ImuBias, ImuNoiseSpec, integrate_imu
from aquafuse.manifold import Pose, exp_so3, log_so3, rotation_angle
from aquafuse.sim import ScenarioConfig, simulate
from aquafuse.state import NavState
from aquafuse.visual import IntensityField

from helpers import (discrete_imu_world, dvl_samples_from_world,
                     init_landmarks_reference, project)
from test_backend import default_rig, make_scene
from test_imu import _PREINT_FIELDS


def zero_noise_config(**kw):
    base = dict(duration_s=8.0, seed=5,
                sigma_g_rad_s_sqrt_hz=0.0, sigma_a_m_s2_sqrt_hz=0.0,
                sigma_bg_walk_rad_s_sqrt_s=0.0, sigma_ba_walk_m_s2_sqrt_s=0.0,
                sigma_dvl_m_s=0.0, sigma_bv_walk_m_s_sqrt_s=0.0,
                sigma_pressure_m=0.0, sigma_pixel_px=0.0,
                sigma_disparity_px=0.0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestTrackCoarse:
    def _scene(self, rng, pixel_noise=0.0):
        """Keyframe 1's observations, the landmarks, the rig and the state of
        keyframe 1."""
        nodes, landmarks, _, rig, truth = make_scene(
            rng, n_kf=2, n_lm=30, pixel_noise=pixel_noise)
        return nodes[1], landmarks, rig, truth[1]

    def test_perfect_init_returns_truth(self, rng):
        node, landmarks, rig, truth = self._scene(rng)
        pose = track_coarse(truth, node.observations, landmarks, rig,
                            TrackerConfig(), bk.BackendConfig())
        assert np.linalg.norm(pose.t - truth.p) < 1e-10
        assert rotation_angle(truth.R.T @ pose.R) < 1e-10

    def test_recovers_from_perturbed_init(self, rng):
        node, landmarks, rig, truth = self._scene(rng)
        init = truth.copy()
        init.p = truth.p + np.array([0.05, -0.03, 0.02])
        init.R = truth.R @ exp_so3([0.0, 0.02, -0.01])
        pose = track_coarse(init, node.observations, landmarks, rig,
                            TrackerConfig(), bk.BackendConfig())
        assert np.linalg.norm(pose.t - truth.p) < 1e-6
        assert rotation_angle(truth.R.T @ pose.R) < 1e-6

    def test_underdetermined_rejected(self, rng):
        node, landmarks, rig, truth = self._scene(rng)
        with pytest.raises(InsufficientObservationsError):
            track_coarse(truth, node.observations[:3], landmarks, rig,
                         TrackerConfig(), bk.BackendConfig())

    def test_nothing_tracked_is_rejected_without_a_minimum(self, rng):
        # with no tracked observation nothing anchors the pose
        node, landmarks, rig, truth = self._scene(rng)
        with pytest.raises(InsufficientObservationsError):
            track_coarse(truth, node.observations, {}, rig,
                         TrackerConfig(min_coarse_observations=0),
                         bk.BackendConfig())


class TestRefinePhotometric:
    # the intensity noise these scenes were tuned with, and no gate
    CFG = bk.BackendConfig(sigma_intensity_track=5.0,
                           photometric_track_gate=float("inf"))

    def _photometric_scene(self, rng):
        """Two camera frames of the same bump scene with exactly consistent
        analytic fields.

        The two cameras share one rotation, so the motion between them is a
        pure translation. Under it the constant-depth patch warp maps a
        fronto-parallel patch at depth z onto one scaled by z / z', and the
        bump width sigma = 18 / z scales by the same factor, so each warped
        patch reproduces its reference intensities exactly. (Under a
        rotation no fronto-parallel warp maps an isotropic bump onto an
        isotropic bump.) The landmarks sit on a pixel grid 120 px apart,
        at least 9 sigma for the widest bump (9 px at 2 m), so no patch
        sees a neighbour's tail.
        """
        rig = default_rig()
        _, _, _, rig, truth = make_scene(rng, n_kf=2, n_lm=0, kf_steps=8,
                                         rig=rig)
        truth[1].R = truth[0].R.copy()
        t_wc0 = truth[0].pose().compose(rig.T_IC)
        landmarks = []
        for v in (60.0, 180.0, 300.0):
            for u in (80.0, 200.0, 320.0, 440.0, 560.0):
                depth = rng.uniform(2.0, 5.0)
                x_c = np.array([(u - rig.cam.cx) / rig.cam.fx * depth,
                                (v - rig.cam.cy) / rig.cam.fy * depth, depth])
                landmarks.append(t_wc0.transform(x_c))
        fields = []
        points = []
        for k, state in enumerate((truth[0], truth[1])):
            t_cw = state.pose().compose(rig.T_IC).inverse()
            centers = []
            amps = []
            sigmas = []
            for lid, lw in enumerate(landmarks):
                x_c = t_cw.transform(lw)
                uv = project(rig.cam, x_c)
                centers.append(uv)
                amps.append(120.0 + 10.0 * lid)
                sigmas.append(6.0 * 3.0 / x_c[2])
                if k == 0:
                    points.append((uv, x_c[2]))
            fields.append(IntensityField(np.array(amps), np.array(centers),
                                         np.array(sigmas), rig.cam.width,
                                         rig.cam.height))
        # the premise: every patch is photometrically exact at the truth
        states = {0: truth[0], 1: truth[1]}
        for pixel, depth in points:
            f = bk.Factor(bk.FactorKind.PHOTOMETRIC, (0, 1),
                          bk.PhotometricData.batch(fields[0], fields[1],
                                                   [pixel], [depth],
                                                   bk.PatchPattern())[0],
                          np.eye(1))
            r, _, _ = f.evaluate(states, {}, rig, with_jacobians=False)
            assert abs(r[0]) < 1e-9
        return rig, truth, fields[0], fields[1], points

    def test_identity_refinement_is_noop(self, rng):
        rig, truth, f0, f1, points = self._photometric_scene(rng)
        coarse = truth[1].pose()
        res = refine_photometric(coarse, truth[0].pose(), f0, f1, points,
                                 rig, TrackerConfig(), self.CFG)
        assert np.abs(res.pose.t - coarse.t).max() < 1e-6

    def test_refinement_improves_perturbed_pose(self, rng):
        rig, truth, f0, f1, points = self._photometric_scene(rng)
        offset = np.array([0.005, -0.004, 0.003])  # about half a pixel
        coarse = Pose(truth[1].R, truth[1].p + offset)
        res = refine_photometric(coarse, truth[0].pose(), f0, f1, points,
                                 rig, TrackerConfig(refine_max_iterations=10),
                                 self.CFG)
        err_before = np.linalg.norm(coarse.t - truth[1].p)
        err_after = np.linalg.norm(res.pose.t - truth[1].p)
        assert err_after < err_before

    def test_textureless_field_is_noop(self, rng):
        rig, truth, f0, f1, points = self._photometric_scene(rng)
        flat = IntensityField(np.zeros(0), np.zeros((0, 2)), 5.0,
                              rig.cam.width, rig.cam.height, offset=12.0)
        coarse = truth[1].pose()
        res = refine_photometric(coarse, truth[0].pose(), flat, flat, points,
                                 rig, TrackerConfig(), self.CFG)
        assert (res.pose.t == coarse.t).all() and (res.pose.R == coarse.R).all()


class TestPredictDegraded:
    def test_zero_motion(self, rng):
        rig = default_rig()
        samples, states, _ = discrete_imu_world(rng, n=10, omega_scale=0.0,
                                                accel_scale=0.0)
        state = states[0]
        state.v = np.zeros(3)
        pre = integrate_imu(samples, ImuBias.zero(), ImuNoiseSpec(), t_end=0.1)
        dvl = dvl_samples_from_world([states[0]] * 3, [0.0, 0.05], 0.05,
                                     rig.dvl)
        dvl_pre = preintegrate_dvl(dvl, pre, rig.dvl, np.zeros(3),
                                   np.zeros(3))
        pose = predict_state_degraded(state, pre, dvl_pre, rig.dvl)
        assert np.abs(pose.t - state.p).max() < 1e-9

    def test_lever_arm_free_case(self, rng):
        from aquafuse.dvl import DvlExtrinsics
        ext = DvlExtrinsics(np.eye(3), np.zeros(3))
        samples, states, _ = discrete_imu_world(rng, n=100)
        pre = integrate_imu(samples, ImuBias.zero(), ImuNoiseSpec(), t_end=1.0)
        times = [k * 0.1 for k in range(10)]
        dvl_states = [states[k * 10] for k in range(10)] + [states[-1]]
        dvl = dvl_samples_from_world(dvl_states, times, 0.1, ext)
        dvl_pre = preintegrate_dvl(dvl, pre, ext, np.zeros(3), np.zeros(3))
        pose = predict_state_degraded(states[0], pre, dvl_pre, ext)
        expected = states[0].R @ dvl_pre.dp + states[0].p
        assert_allclose(pose.t, expected, atol=1e-14)

    def test_matches_discrete_truth(self, rng):
        # one-second horizon over an exactly consistent discrete world
        rig = default_rig()
        samples, states, _ = discrete_imu_world(rng, n=100)
        pre = integrate_imu(samples, ImuBias.zero(), ImuNoiseSpec(), t_end=1.0)
        times = [k * 0.1 for k in range(10)]
        dvl_states = [states[k * 10] for k in range(10)] + [states[-1]]
        dvl = dvl_samples_from_world(dvl_states, times, 0.1, rig.dvl)
        dvl_pre = preintegrate_dvl(dvl, pre, rig.dvl, np.zeros(3),
                                   np.zeros(3))
        pose = predict_state_degraded(states[0], pre, dvl_pre, rig.dvl)
        assert np.linalg.norm(pose.t - states[-1].p) < 1e-6
        assert np.linalg.norm(log_so3(states[-1].R.T @ pose.R)) < 1e-8


class TestKeyframeDecision:
    CFG = TrackerConfig(tau_p=0.3, tau_r=0.2, tau_t=1.0)

    def _fs(self, frame_id, t, p, yaw=0.0, status=TrackingStatus.VISUAL_OK):
        return FrameState(frame_id, t,
                          NavState(exp_so3([0, 0, yaw]), p, np.zeros(3)),
                          status, 20)

    def test_same_frame_is_not_keyframe(self):
        fs = self._fs(3, 1.0, [0, 0, 0])
        assert not keyframe_decision(fs, fs, self.CFG)

    def test_translation_threshold(self):
        last = self._fs(0, 0.0, [0, 0, 0])
        assert keyframe_decision(self._fs(1, 0.1, [0.5, 0, 0]), last, self.CFG)
        assert not keyframe_decision(self._fs(1, 0.1, [0.2, 0, 0]), last,
                                     self.CFG)

    def test_rotation_threshold(self):
        last = self._fs(0, 0.0, [0, 0, 0])
        assert keyframe_decision(self._fs(1, 0.1, [0, 0, 0], yaw=0.3), last,
                                 self.CFG)

    def test_time_threshold(self):
        last = self._fs(0, 0.0, [0, 0, 0])
        assert keyframe_decision(self._fs(1, 1.5, [0, 0, 0]), last, self.CFG)

    def test_status_flip_forces_keyframe(self):
        last = self._fs(0, 0.0, [0, 0, 0])
        cur = self._fs(1, 0.1, [0, 0, 0], status=TrackingStatus.DEGRADED)
        assert keyframe_decision(cur, last, self.CFG)


class TestPipeline:
    def test_visual_rich_frames_track(self):
        ds = simulate(zero_noise_config())
        result = run_estimator(ds, RunConfig())
        assert all(f.status is TrackingStatus.VISUAL_OK for f in result.frames)
        gt = {round(g.t, 6): g for g in ds.groundtruth}
        errs = [np.linalg.norm(f.nav.p - gt[round(f.t, 6)].p)
                for f in result.frames]
        assert max(errs) < 5e-3

    def test_degradation_window_status(self):
        ds = simulate(zero_noise_config(duration_s=12.0,
                                        degradation_windows_s=((4.0, 7.0),)))
        result = run_estimator(ds, RunConfig())
        for f in result.frames:
            if 4.0 <= f.t <= 7.0:
                assert f.status is TrackingStatus.DEGRADED
                assert f.tracked_features == 0

    def test_reentry_after_blackout(self):
        cfg = zero_noise_config(duration_s=12.0,
                                degradation_windows_s=((4.0, 7.0),))
        result = run_estimator(simulate(cfg), RunConfig())
        late = [f for f in result.frames if f.t > 9.0]
        assert all(f.status is TrackingStatus.VISUAL_OK for f in late)

    def test_no_discontinuity_at_transition(self):
        cfg = zero_noise_config(duration_s=12.0,
                                degradation_windows_s=((4.0, 7.0),))
        result = run_estimator(simulate(cfg), RunConfig())
        jumps = []
        for a, b in zip(result.frames[:-1], result.frames[1:]):
            jumps.append(np.linalg.norm(b.nav.p - a.nav.p))
        # motion is ~0.5 m/s at 15 Hz; a tracking glitch would spike this
        assert max(jumps) < 0.1

    def test_blackout_drift_bound_on_line(self):
        # constant-velocity line: the hold-based integrators are exact, so
        # a full blackout tracks truth to numerical precision
        cfg = zero_noise_config(kind="line", speed_m_s=0.4, duration_s=12.0,
                                degradation_windows_s=((1.0, 12.0),))
        ds = simulate(cfg)
        result = run_estimator(ds, RunConfig())
        gt = {round(g.t, 6): g for g in ds.groundtruth}
        for f in result.frames:
            assert np.linalg.norm(f.nav.p - gt[round(f.t, 6)].p) < 1e-5

    def test_determinism_bitwise(self):
        cfg = zero_noise_config(duration_s=6.0)
        ds = simulate(cfg)
        r1 = run_estimator(ds, RunConfig())
        r2 = run_estimator(ds, RunConfig())
        for a, b in zip(r1.frames, r2.frames):
            assert (a.nav.p == b.nav.p).all()
            assert (a.nav.R == b.nav.R).all()
        assert [f.status for f in r1.frames] == [f.status for f in r2.frames]

    def test_determinism_bitwise_acoustic(self):
        ds = simulate(zero_noise_config(duration_s=6.0))
        cfg = RunConfig(mode=EstimatorMode.ACOUSTIC_INERTIAL_DEPTH)
        r1 = run_estimator(ds, cfg)
        r2 = run_estimator(ds, cfg)
        for a, b in zip(r1.frames, r2.frames):
            assert (a.nav.p == b.nav.p).all()
            assert (a.nav.R == b.nav.R).all()
        assert [f.status for f in r1.frames] == [f.status for f in r2.frames]

    @pytest.mark.parametrize("renumber", [lambda k: k + 1000, lambda k: 2 * k],
                             ids=["offset", "doubled"])
    def test_frame_ids_need_not_be_positions(self, renumber):
        ds = simulate(ScenarioConfig(duration_s=3.0, seed=4))
        ref = run_estimator(ds, RunConfig())
        ds.frames = [replace(f, frame_id=renumber(f.frame_id), observations=[
            replace(o, frame_id=renumber(o.frame_id)) for o in f.observations])
            for f in ds.frames]
        got = run_estimator(ds, RunConfig())
        assert sum(f.keyframe is not None for f in ref.frames) > 1
        assert [f.frame_id for f in got.frames] == \
            [renumber(f.frame_id) for f in ref.frames]
        assert [f.status for f in got.frames] == [f.status for f in ref.frames]
        for a, b in zip(got.frames, ref.frames):
            assert (a.nav.p == b.nav.p).all() and (a.nav.R == b.nav.R).all()

    def test_dead_reckoning_mode_runs(self):
        cfg = zero_noise_config(duration_s=6.0)
        ds = simulate(cfg)
        result = run_estimator(ds, RunConfig(mode=EstimatorMode.DVL_DEADRECKON))
        gt = {round(g.t, 6): g for g in ds.groundtruth}
        errs = [np.linalg.norm(f.nav.p - gt[round(f.t, 6)].p)
                for f in result.frames]
        # noiseless dead reckoning drifts only through the hold discretization
        assert max(errs) < 0.2

    def test_acoustic_inertial_depth_mode(self):
        cfg = zero_noise_config(duration_s=6.0)
        ds = simulate(cfg)
        result = run_estimator(
            ds, RunConfig(mode=EstimatorMode.ACOUSTIC_INERTIAL_DEPTH))
        assert all(f.status is TrackingStatus.DEGRADED for f in result.frames)
        gt = {round(g.t, 6): g for g in ds.groundtruth}
        errs = [np.linalg.norm(f.nav.p - gt[round(f.t, 6)].p)
                for f in result.frames]
        assert max(errs) < 0.2


@pytest.fixture(scope="module")
def short_blackout_circle():
    return simulate(ScenarioConfig(duration_s=6.0, seed=3,
                                   degradation_windows_s=((2.5, 3.5),)))


@pytest.mark.parametrize("mode, kinds", [
    (EstimatorMode.FULL, {"reprojection", "photometric", "imu",
                          "dvl_position", "dvl_velocity", "pressure"}),
    (EstimatorMode.VISUAL_INERTIAL, {"reprojection", "photometric", "imu"}),
    (EstimatorMode.ACOUSTIC_INERTIAL_DEPTH, {"imu", "dvl_position",
                                             "dvl_velocity", "pressure"}),
], ids=["full", "visual-inertial-only", "acoustic-inertial-depth-only"])
def test_mode_decides_the_factor_kinds(short_blackout_circle, monkeypatch,
                                       mode, kinds):
    # counted where the benchmark's tracer counts them; the windows build a
    # factor for every measurement the tracker gives them
    seen = set()
    assemble = bk.assemble_window

    def counted(*args, **kwargs):
        window, factors = assemble(*args, **kwargs)
        seen.update(f.kind.value for f in factors)
        return window, factors

    monkeypatch.setattr(bk, "assemble_window", counted)
    run_estimator(short_blackout_circle, RunConfig(mode=mode))
    assert seen == kinds


def test_every_solve_takes_the_configured_knee(short_blackout_circle,
                                              monkeypatch):
    # the coarse, refinement, per-frame and window-BA solves alike
    knees = {}
    solve = bk.solve

    def recorded(window, factors, cfg=None):
        caller = sys._getframe(1).f_code.co_name
        knees.setdefault(caller, set()).add(window.huber_delta)
        return solve(window, factors, cfg)

    monkeypatch.setattr(bk, "solve", recorded)
    cfg = RunConfig(backend=bk.BackendConfig(huber_delta=3.0))
    run_estimator(short_blackout_circle, cfg)
    assert knees == {name: {3.0} for name in (
        "track_coarse", "refine_photometric", "_mini_solve", "_window_ba")}


@pytest.mark.parametrize("mode", list(EstimatorMode), ids=lambda m: m.value)
def test_status_rows_are_read_from_the_records(short_blackout_circle, mode):
    result = run_estimator(short_blackout_circle, RunConfig(mode=mode))
    rows = result.status_rows
    assert len(rows) == len(result.frames) == len(short_blackout_circle.frames)
    for f, row in zip(result.frames, rows):
        assert f.status.value == row[2]
        assert row[:2] == (f.frame_id, f.t) and row[3] == f.tracked_features
        assert row[4] is f.cost
    if mode is EstimatorMode.DVL_DEADRECKON:
        assert {f.status for f in result.frames} == {TrackingStatus.DEAD_RECKON}


def test_keyframe_records_hold_the_final_keyframe_states(short_blackout_circle):
    tracker = Tracker(short_blackout_circle, RunConfig())
    result = tracker.run()
    kf_frames = [f for f in result.frames if f.keyframe is not None]
    assert kf_frames[0] is result.frames[0]
    assert len(kf_frames) == len(tracker.keyframes) > 1
    for f, node in zip(kf_frames, tracker.keyframes):
        assert f.t == node.t and f.keyframe is node.state


def test_landmark_map_equals_the_per_observation_reference(
        short_blackout_circle):
    """Landmark initialisation over a frame's observations at once maps the
    same landmarks to the same points, bit for bit, as one at a time."""
    ds, rng = short_blackout_circle, np.random.default_rng(4)
    tracker = Tracker(ds, RunConfig())
    o = ds.frames[0].observations[0]
    # no disparity, at and just above the threshold, and a repeated id
    odd = SimpleNamespace(observations=[
        replace(o, landmark_id=9001, disparity=None),
        replace(o, landmark_id=9002, disparity=0.05),
        replace(o, landmark_id=9003, disparity=0.0500001),
        replace(o, landmark_id=9003, pixel=o.pixel + 7.0, disparity=3.0)])
    ref = {}
    for frame in [*ds.frames[::5], odd]:
        pose = Pose(exp_so3(rng.normal(size=3) * 0.2), rng.normal(size=3))
        tracker._init_landmarks(frame, pose)
        init_landmarks_reference(ref, tracker.rig, frame, pose)
        assert list(tracker.map) == list(ref)
        assert all(np.array_equal(tracker.map[k], ref[k]) for k in ref)
    assert 9003 in ref and not {9001, 9002} & set(ref)


class Recording(Tracker):
    """A tracker that keeps each frame's interval."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []

    def _extend_interval(self, kf, t):
        interval = super()._extend_interval(kf, t)
        self.seen.append(interval)
        return interval


_IMU_FIELDS = _PREINT_FIELDS + ("dt_total", "t_start", "t_end")
_DVL_FIELDS = ("dp", "lin_bg", "lin_bv", "J_dp_dbv", "J_dp_dbg", "cov",
               "t_start", "t_end", "step_t", "step_dp", "step_vel")


class TestKeyframePreintegration:
    """Each frame extends the running interval of its keyframe."""

    ACOUSTIC = RunConfig(mode=EstimatorMode.ACOUSTIC_INERTIAL_DEPTH)

    @staticmethod
    def _dataset(duration_s):
        return simulate(ScenarioConfig(kind="lawnmower", duration_s=duration_s,
                                       seed=2,
                                       degradation_windows_s=((2.0, 4.0),)))

    def _resume_and_rebuild(self, monkeypatch, mode):
        """Runs the tracker as is and with its interval rebuilt each frame;
        returns both trackers' intervals and both results."""
        class Rebuilding(Recording):
            def _extend_interval(self, kf, t):
                self.interval = None
                return super()._extend_interval(kf, t)

        resumes = []
        integrate = frontend.integrate_imu

        def counted(*args, **kwargs):
            resumes[-1] += kwargs.get("resume") is not None
            return integrate(*args, **kwargs)

        monkeypatch.setattr(frontend, "integrate_imu", counted)
        ds = self._dataset(5.0)
        trackers = [cls(ds, RunConfig(mode=mode))
                    for cls in (Recording, Rebuilding)]
        results = []
        for tracker in trackers:
            resumes.append(0)
            results.append(tracker.run())
        assert resumes[0] > 0 and resumes[1] == 0
        resumed, rebuilt = (tr.seen for tr in trackers)
        assert len(resumed) == len(rebuilt) == len(ds.frames) - 1
        return resumed, rebuilt, results

    @pytest.mark.parametrize("mode", [EstimatorMode.ACOUSTIC_INERTIAL_DEPTH,
                                      EstimatorMode.FULL])
    def test_matches_integrating_from_the_keyframe(self, monkeypatch, mode):
        resumed, rebuilt, results = self._resume_and_rebuild(monkeypatch, mode)
        for a, b in zip(resumed, rebuilt):
            for name in _IMU_FIELDS:
                assert np.array_equal(getattr(a.imu_preint, name),
                                      getattr(b.imu_preint, name)), name

        resumed, rebuilt = results
        assert [row[:4] for row in resumed.status_rows] == \
            [row[:4] for row in rebuilt.status_rows]
        # NaN (no per-frame solve) compares equal here
        np.testing.assert_array_equal([row[4] for row in resumed.status_rows],
                                      [row[4] for row in rebuilt.status_rows])
        for a, b in zip(resumed.frames, rebuilt.frames):
            assert np.array_equal(a.nav.p, b.nav.p)
            assert np.array_equal(a.nav.R, b.nav.R)
        assert [r.iterations for r in resumed.solver_reports] == \
            [r.iterations for r in rebuilt.solver_reports]

    def test_dvl_matches_preintegrating_from_the_keyframe(self, monkeypatch):
        resumed, rebuilt, _ = self._resume_and_rebuild(
            monkeypatch, EstimatorMode.ACOUSTIC_INERTIAL_DEPTH)
        assert any(d.dvl_preint is not None for d in resumed)
        for a, b in zip(resumed, rebuilt):
            assert (a.dvl_preint is None) == (b.dvl_preint is None)
            for name in _DVL_FIELDS if a.dvl_preint is not None else ():
                assert np.array_equal(getattr(a.dvl_preint, name),
                                      getattr(b.dvl_preint, name)), name

    def test_acoustic_mode_builds_no_map(self):
        ds = self._dataset(4.0)
        tracker = Tracker(ds, self.ACOUSTIC)
        result = tracker.run()
        assert tracker.map == {}
        assert [row[3] for row in result.status_rows] == [0] * len(ds.frames)

    @pytest.mark.parametrize("mode", [
        EstimatorMode.FULL, EstimatorMode.VISUAL_INERTIAL,
        EstimatorMode.ACOUSTIC_INERTIAL_DEPTH], ids=lambda m: m.value)
    def test_each_sample_is_integrated_once_per_keyframe(self, monkeypatch,
                                                         mode):
        # counts what the benchmark's tracer counts at this entry point
        seen = {"calls": 0, "samples": 0}
        integrate = frontend.integrate_imu

        def counted(*args, **kwargs):
            seen["calls"] += 1
            seen["samples"] += len(args[0])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(frontend, "integrate_imu", counted)
        ds = self._dataset(6.0)
        result = run_estimator(ds, RunConfig(mode=mode))
        if mode.uses_vision:
            assert {f.status for f in result.frames} == {
                TrackingStatus.VISUAL_OK, TrackingStatus.DEGRADED}
        # one call per frame after the first; a frame integrates again only
        # the sample of the keyframe preintegration's last, partial step
        assert seen["calls"] == len(ds.frames) - 1
        assert seen["samples"] <= len(ds.imu) + len(ds.frames)

    def test_dead_reckoning_integrates_the_buffer_in_one_call(self, monkeypatch):
        # counts what the benchmark's tracer counts at this entry point, and
        # the draws its frame list stamps
        seen = []
        integrate = frontend.integrate_imu

        def counted(*args, **kwargs):
            seen.append(len(args[0]))
            return integrate(*args, **kwargs)

        class DrawnFrames(list):
            draws = 0

            def __iter__(self):
                DrawnFrames.draws += 1
                return super().__iter__()

        monkeypatch.setattr(frontend, "integrate_imu", counted)
        ds = self._dataset(4.0)
        ds = replace(ds, frames=DrawnFrames(ds.frames))
        result = run_estimator(ds, RunConfig(mode=EstimatorMode.DVL_DEADRECKON))
        assert seen == [len(ds.imu)]
        assert DrawnFrames.draws == 1
        assert len(result.frames) == len(ds.frames)

    def test_each_interval_is_inverted_once(self, monkeypatch):
        # the per-frame solve and every window BA over a keyframe pair read
        # the information of one interval object
        inverted = []
        inverse = bk._safe_inverse

        def counted(cov):
            inverted.append(id(cov))
            return inverse(cov)

        monkeypatch.setattr(bk, "_safe_inverse", counted)
        tracker = Recording(self._dataset(6.0), self.ACOUSTIC)
        tracker.run()
        assert len(tracker.reports) > 3
        assert {id(d) for d in tracker.intervals.values()} <= \
            {id(d) for d in tracker.seen}
        # every frame after the first runs a per-frame solve; the intervals
        # are kept, so no two covariances share an id
        assert sorted(inverted) == sorted(
            id(pre.cov) for d in tracker.seen
            for pre in (d.imu_preint, d.dvl_preint))

    def test_each_dvl_sample_is_preintegrated_once_per_keyframe(self, monkeypatch):
        # counts what the benchmark's tracer counts at this entry point
        seen = {"samples": 0}
        preintegrate = frontend.preintegrate_dvl

        def counted(*args, **kwargs):
            seen["samples"] += len(args[0])
            return preintegrate(*args, **kwargs)

        monkeypatch.setattr(frontend, "preintegrate_dvl", counted)
        ds = self._dataset(6.0)
        run_estimator(ds, self.ACOUSTIC)
        # a frame preintegrates again only the sample of the last hold step
        assert seen["samples"] <= len(ds.dvl) + len(ds.frames)

