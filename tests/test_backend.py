from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import aquafuse.backend as bk
from aquafuse.depth import PressureSample, S3
from aquafuse.imu import integrate_imu
from aquafuse.manifold import BranchAmbiguityError, Pose, exp_so3, log_so3
from aquafuse.sim import ScenarioConfig, sensor_rig_from_config
from aquafuse.state import (PHI, STATE_DOF, NavState, retract_rows,
                            stack_states, unstack_state)
from aquafuse.visual import IntensityField, LandmarkObservation

from helpers import (discrete_imu_world, dvl_samples_from_world,
                     fd_jacobian, fill_photometric, huber_cost, jac_close,
                     project, random_nav_state, robust_weight)

NOISY = (2e-4, 2e-3)  # (sigma_g, sigma_a)
# the sensor noise the window factors of these scenes assume
NOISE = bk.SensorNoise(sigma_pixel=0.5, sigma_dvl=0.01, sigma_pressure=0.01,
                       sigma_bg_walk=1e-5, sigma_ba_walk=1e-4,
                       sigma_bv_walk=5e-3)


def default_rig() -> bk.SensorRig:
    return sensor_rig_from_config(ScenarioConfig())


def bumpy_field(rng) -> IntensityField:
    return IntensityField(rng.uniform(80, 200, 40),
                          rng.uniform([0, 0], [640, 360], (40, 2)),
                          rng.uniform(8, 14, 40))


def make_scene(rng, n_kf=3, n_lm=8, kf_steps=40, pixel_noise=0.0,
               rig=None):
    """Consistent multi-keyframe scene over a discrete world: exact
    observations, exact DVL/pressure measurements and covering preints."""
    rig = rig or default_rig()
    dt = 0.01
    n = kf_steps * (n_kf - 1)
    samples, states, g = discrete_imu_world(rng, n=max(n, 1), dt=dt,
                                            gravity=rig.gravity,
                                            omega_scale=0.15,
                                            accel_scale=0.25)
    kf_states = [states[k * kf_steps] for k in range(n_kf)]
    kf_times = [k * kf_steps * dt for k in range(n_kf)]

    # landmarks visible from the first keyframe camera
    t_wc0 = kf_states[0].pose().compose(rig.T_IC)
    landmarks = {}
    for lid in range(n_lm):
        uv = rng.uniform([80, 60], [560, 300])
        depth = rng.uniform(2.0, 5.0)
        x_c = np.array([(uv[0] - rig.cam.cx) / rig.cam.fx * depth,
                        (uv[1] - rig.cam.cy) / rig.cam.fy * depth, depth])
        landmarks[lid] = t_wc0.transform(x_c)

    dvl_every = 10
    nodes = []
    intervals = {}
    for k, (st, t) in enumerate(zip(kf_states, kf_times)):
        t_cw = st.pose().compose(rig.T_IC).inverse()
        obs = []
        for lid, lw in landmarks.items():
            x_c = t_cw.transform(lw)
            if x_c[2] < 0.5:
                continue
            uv = project(rig.cam, x_c)
            if not (0 <= uv[0] < rig.cam.width and 0 <= uv[1] < rig.cam.height):
                continue
            pix = uv + pixel_noise * rng.normal(size=2)
            obs.append(LandmarkObservation(lid, pix,
                                           rig.cam.fx * rig.cam.baseline / x_c[2]))
        p_wp = st.R @ rig.depth.p_IP + st.p
        gyro_idx = min(k * kf_steps, len(samples) - 1)
        nodes.append(bk.KeyframeNode(
            kf_id=k, t=t, state=st.copy(), observations=obs,
            gyro=samples[gyro_idx].gyro - 0.0,
            dvl_meas=None, pressure_meas=PressureSample(t, float(S3 @ p_wp))))

    for k in range(n_kf - 1):
        seg = samples[k * kf_steps:(k + 1) * kf_steps]
        t0, t1 = kf_times[k], kf_times[k + 1]
        pre = integrate_imu(seg, np.zeros(3), np.zeros(3), *NOISY, t_start=t0,
                            t_end=t1)
        dvl_idx = list(range(k * kf_steps, (k + 1) * kf_steps, dvl_every))
        dvl_times = [i * dt for i in dvl_idx]
        dvl_states = [states[i] for i in dvl_idx] + [states[(k + 1) * kf_steps]]
        dvl = dvl_samples_from_world(dvl_states, dvl_times, dvl_every * dt,
                                     rig.dvl)
        from aquafuse.dvl import preintegrate_dvl
        dvl_pre = preintegrate_dvl(dvl, pre, rig.dvl, np.zeros(3),
                                   sigma_v=0.01)
        intervals[(k, k + 1)] = bk.IntervalData(pre, dvl_pre)
    # velocity-factor measurements: exactly what a noiseless DVL reads at
    # the keyframe instants
    from aquafuse.dvl import DvlSample, dvl_velocity_estimate
    for k, node in enumerate(nodes):
        node.dvl_meas = DvlSample(node.t, dvl_velocity_estimate(
            node.state.R[None], node.state.v[None], node.gyro[None], rig.dvl)[0])
    return nodes, landmarks, intervals, rig, kf_states


def without_dvl_and_pressure(nodes, intervals):
    """Strip the DVL and pressure readings from ``nodes``, as the tracker
    gives them in a mode without those sensors; returns ``intervals``
    without their DVL preintegrations."""
    for node in nodes:
        node.dvl_meas = node.pressure_meas = None
    return {key: bk.IntervalData(d.imu_preint) for key, d in intervals.items()}


class TestRobustWeight:
    def test_zero_residual(self):
        assert robust_weight(0.0, 1.345) == 1.0

    def test_continuity_at_knee(self):
        assert robust_weight(1.345**2, 1.345) == pytest.approx(1.0)

    def test_above_knee(self):
        assert robust_weight((2 * 1.345) ** 2, 1.345) == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            robust_weight(-1.0, 1.0)

    def test_huber_cost_continuity(self):
        d = 1.345
        below = huber_cost((d - 1e-9) ** 2, d)
        above = huber_cost((d + 1e-9) ** 2, d)
        assert abs(below - above) < 1e-6


class TestAssembleWindow:
    def test_factor_counts_two_keyframes(self, rng):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=2, n_lm=5)
        cfg = bk.BackendConfig(photometric_enabled=False)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             cfg, NOISE, fixed_ids={0})
        kinds = [f.kind for f in factors]
        assert kinds.count(bk.FactorKind.IMU) == 1
        assert kinds.count(bk.FactorKind.DVL_POSITION) == 1
        assert kinds.count(bk.FactorKind.DVL_VELOCITY) == 1
        assert kinds.count(bk.FactorKind.PRESSURE) == 1
        assert kinds.count(bk.FactorKind.REPROJECTION) == 10
        assert kinds.count(bk.FactorKind.FIXED_PRIOR) == 0

    def test_degraded_window_is_solvable(self, rng):
        nodes, landmarks, intervals, rig, truth = make_scene(rng, n_kf=3)
        for node in nodes:
            node.observations = []
        window, factors = bk.assemble_window(nodes, {}, intervals, rig,
                                             bk.BackendConfig(), NOISE,
                                             fixed_ids={0})
        kinds = {f.kind for f in factors}
        assert bk.FactorKind.REPROJECTION not in kinds
        assert bk.FactorKind.IMU in kinds
        window, report = bk.solve(window, factors)
        assert report.termination is not bk.Termination.ITERATION_CAP

    def test_window_without_fixed_variable_is_refused(self, rng):
        # a window anchors its gauge only by what it fixes
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=2)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             bk.BackendConfig(), NOISE)
        assert not (window.fixed_states or window.fixed_landmarks)
        assert bk.FactorKind.FIXED_PRIOR not in {f.kind for f in factors}
        with pytest.raises(bk.GaugeError):
            bk.solve(window, factors)

    def test_missing_coverage_names_interval(self, rng):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=3)
        del intervals[(1, 2)]
        with pytest.raises(bk.PreintCoverageError) as err:
            bk.assemble_window(nodes, landmarks, intervals, rig,
                               bk.BackendConfig(), NOISE, fixed_ids={0})
        assert str(nodes[1].t) in str(err.value)

    def test_mode_flags_gate_factors(self, rng):
        # a mode gates a sensor by the measurements the tracker gives the
        # window: none of the DVL or pressure, no factor of theirs
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=2)
        intervals = without_dvl_and_pressure(nodes, intervals)
        cfg = bk.BackendConfig(photometric_enabled=False)
        _, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                        cfg, NOISE, fixed_ids={0})
        kinds = {f.kind for f in factors}
        assert bk.FactorKind.DVL_POSITION not in kinds
        assert bk.FactorKind.DVL_VELOCITY not in kinds
        assert bk.FactorKind.PRESSURE not in kinds


    def test_no_factor_between_fixed_keyframes(self, rng):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=4,
                                                         kf_steps=8)
        fields = [bumpy_field(rng) for _ in nodes]
        cfg = bk.BackendConfig(photometric_gate=float("inf"))
        fill_photometric(nodes, fields, intervals, rig.cam, cfg)
        _, factors = bk.assemble_window(nodes, landmarks, intervals, rig, cfg,
                                        NOISE, fixed_ids={0, 1})
        K = bk.FactorKind
        pairs = {}
        for f in factors:
            if len(f.state_ids) == 2:
                pairs.setdefault(f.kind, set()).add(f.state_ids)
        for kind in (K.IMU, K.DVL_POSITION, K.DVL_VELOCITY, K.PRESSURE,
                     K.PHOTOMETRIC):
            assert pairs[kind] == {(1, 2), (2, 3)}, kind
        # a fixed keyframe still observes free landmarks
        assert any(f.kind is K.REPROJECTION and f.state_ids == (0,)
                   for f in factors)

    @staticmethod
    def _observe_behind(nodes, landmarks, rig, lid=99):
        """A landmark 2 m behind keyframe 1's camera, observed by it: no
        reprojection factor is built for it."""
        t_wc = rig.camera_pose(nodes[1].state)
        landmarks[lid] = t_wc.transform(np.array([0.0, 0.0, -2.0]))
        nodes[1].observations.append(LandmarkObservation(
            lid, np.array([320.0, 180.0]), 9.0))

    def test_landmark_without_factor_gets_no_columns(self, rng):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=2, n_lm=5)
        self._observe_behind(nodes, landmarks, rig)
        cfg = bk.BackendConfig(photometric_enabled=False)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             cfg, NOISE, fixed_ids={0},
                                             fixed_landmarks={99})
        observed = {f.landmark_id for f in factors
                    if f.landmark_id is not None}
        assert 99 not in observed
        assert set(window.landmarks) == observed
        assert window.fixed_landmarks == set()
        # without observations no factor observes a landmark
        blind = [replace(n, observations=[]) for n in nodes]
        window, _ = bk.assemble_window(blind, landmarks, intervals, rig,
                                       bk.BackendConfig(), NOISE, fixed_ids={0})
        assert window.landmarks == {}

    def test_dead_landmark_leaves_the_solve_unchanged(self):
        def solve(dead):
            local = np.random.default_rng(11)
            nodes, landmarks, intervals, rig, _ = make_scene(local, n_kf=3)
            for node in nodes[1:]:
                node.state.p = node.state.p + local.normal(size=3) * 0.05
            if dead:
                self._observe_behind(nodes, landmarks, rig)
            window, factors = bk.assemble_window(
                nodes, landmarks, intervals, rig, bk.BackendConfig(), NOISE,
                fixed_ids={0})
            return bk.solve(window, factors)

        (w_ref, r_ref), (w_dead, r_dead) = solve(False), solve(True)
        assert r_dead.iterations == r_ref.iterations
        assert r_dead.final_cost == r_ref.final_cost
        for sid, ref in w_ref.states.items():
            got = w_dead.states[sid]
            for name in ("R", "p", "v", "bg", "ba", "bv"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
        for lid, pos in w_ref.landmarks.items():
            assert np.array_equal(w_dead.landmarks[lid], pos)


class TestSolve:
    def test_noiseless_window_at_truth(self, rng):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=3)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             bk.BackendConfig(), NOISE,
                                             fixed_ids={0})
        window, report = bk.solve(window, factors)
        assert report.iterations <= 2
        assert report.final_cost < 1e-16

    def test_recovers_truth_from_perturbation(self, rng):
        nodes, landmarks, intervals, rig, truth = make_scene(rng, n_kf=3,
                                                             n_lm=14)
        for node in nodes[1:]:
            node.state.p = node.state.p + rng.normal(size=3) * 0.1
            node.state.R = node.state.R @ exp_so3(rng.normal(size=3) * 0.05)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             bk.BackendConfig(), NOISE,
                                             fixed_ids={0})
        window, report = bk.solve(window, factors,
                                  bk.SolverConfig(max_iterations=50))
        for k, truth_state in enumerate(truth):
            got = window.states[k]
            assert np.linalg.norm(got.p - truth_state.p) < 1e-6
            assert np.linalg.norm(log_so3(truth_state.R.T @ got.R)) < 1e-6

    def test_huber_limits_outlier_damage(self, rng):
        def solve_case(robust, corrupt):
            local = np.random.default_rng(7)
            nodes, landmarks, intervals, rig, truth = make_scene(
                local, n_kf=2, n_lm=6)
            node = nodes[1]
            if corrupt:
                bad = node.observations[0]
                node.observations[0] = LandmarkObservation(
                    bad.landmark_id, bad.pixel + [50.0, 0.0], bad.disparity)
            node.state.p = node.state.p + [0.02, -0.01, 0.015]
            intervals = without_dvl_and_pressure(nodes, intervals)
            cfg = bk.BackendConfig(photometric_enabled=False)
            window, factors = bk.assemble_window(
                nodes, landmarks, intervals, rig, cfg, NOISE, fixed_ids={0},
                fixed_landmarks=set(landmarks.keys()))
            if not robust:
                window.huber_delta = None
            window.free_dims[1] = 6
            window, _ = bk.solve(window, factors,
                                 bk.SolverConfig(max_iterations=50))
            return np.linalg.norm(window.states[1].p - truth[1].p)

        clean = solve_case(robust=True, corrupt=False)
        with_huber = solve_case(robust=True, corrupt=True)
        without_huber = solve_case(robust=False, corrupt=True)
        assert with_huber <= max(2.0 * clean, 1e-4)
        assert without_huber > max(2.0 * clean, 1e-4)
        assert without_huber > with_huber

    def test_gauge_error_without_anchor(self, rng):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=2)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             bk.BackendConfig(), NOISE,
                                             fixed_ids={0})
        window.fixed_states = set()
        with pytest.raises(bk.GaugeError):
            bk.solve(window, factors)

    def test_fixed_states_bit_identical(self, rng):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=3)
        nodes[2].state.p = nodes[2].state.p + [0.05, 0, 0]
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             bk.BackendConfig(), NOISE,
                                             fixed_ids={0})
        before = (window.states[0].R.copy(), window.states[0].p.copy(),
                  window.states[0].v.copy())
        window, _ = bk.solve(window, factors)
        assert (window.states[0].R == before[0]).all()
        assert (window.states[0].p == before[1]).all()
        assert (window.states[0].v == before[2]).all()

    def test_accepted_steps_strictly_decrease(self, rng):
        for _ in range(5):
            nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=3)
            for node in nodes[1:]:
                node.state.p = node.state.p + rng.normal(size=3) * 0.05
            window, factors = bk.assemble_window(
                nodes, landmarks, intervals, rig, bk.BackendConfig(), NOISE,
                fixed_ids={0})
            _, report = bk.solve(window, factors)
            trace = report.cost_trace
            assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_termination_reasons(self):
        def run(perturb, **solver):
            local = np.random.default_rng(3)
            nodes, landmarks, intervals, rig, _ = make_scene(local, n_kf=3)
            for node in nodes[1:]:
                node.state.p = node.state.p + perturb * local.normal(size=3)
            window, factors = bk.assemble_window(
                nodes, landmarks, intervals, rig, bk.BackendConfig(), NOISE,
                fixed_ids={0})
            return bk.solve(window, factors, bk.SolverConfig(**solver))[1]

        T = bk.Termination
        report = run(0.05, max_iterations=1)
        assert report.termination is T.ITERATION_CAP
        # no step's model decrease reaches all of the cost, so the solve
        # stops before its first step
        report = run(0.05, rel_cost_tol=1.0, step_tol=0.0)
        assert report.termination is T.RELATIVE_COST
        assert report.iterations == 0
        report = run(0.05, rel_cost_tol=0.0, step_tol=1e-3)
        assert report.termination is T.STEP_SIZE
        # at the truth the cost reaches its rounding floor; no damping
        # lowers it further
        report = run(0.0, rel_cost_tol=0.0, step_tol=0.0, max_iterations=100)
        assert report.termination is T.NO_DESCENT
        assert report.iterations < 100

        # a camera at the origin, and a fixed landmark on its optical axis
        # observed at the principal point: the residual, and so the
        # gradient, is exactly zero
        rig = replace(default_rig(), T_IC=Pose(np.eye(3), np.zeros(3)))
        obs = LandmarkObservation(0, np.array([rig.cam.cx, rig.cam.cy]), None)
        factor = bk.Factor(bk.FactorKind.REPROJECTION, (0,), obs, np.eye(2),
                           landmark_id=0)

        def window(fixed_states):
            state = NavState(np.eye(3), np.zeros(3), np.zeros(3))
            return bk.LocalWindow({0: state}, rig, 1.345,
                                  {0: np.array([0.0, 0.0, 2.0])},
                                  fixed_states=fixed_states,
                                  fixed_landmarks={0}, free_dims={0: 6})

        # the gradient vanishes at the free pose, and without free dims
        for fixed in (set(), {0}):
            _, report = bk.solve(window(fixed), [factor])
            assert report.termination is T.ZERO_GRADIENT
            assert (report.iterations, report.cost_trace) == (0, [0.0])

    def test_dead_factors_leave_the_solve_unchanged(self):
        # factors on fixed variables alone, added by hand: an inertial pair
        # of two fixed keyframes and a fixed keyframe's reprojection of a
        # fixed landmark, both with a cost far from zero
        local = np.random.default_rng(5)
        nodes, landmarks, intervals, rig, _ = make_scene(local, n_kf=4)
        for node in nodes[2:]:
            node.state.p = node.state.p + local.normal(size=3) * 0.05
        window, factors = bk.assemble_window(
            nodes, landmarks, intervals, rig, bk.BackendConfig(), NOISE,
            fixed_ids={0, 1}, fixed_landmarks={0, 1, 2})
        imu = next(f for f in factors if f.kind is bk.FactorKind.IMU)
        obs = next(o for o in nodes[0].observations
                   if o.landmark_id in window.fixed_landmarks)
        dead = [bk.Factor(bk.FactorKind.IMU, (0, 1),
                          intervals[(0, 1)].imu_preint, imu.info),
                bk.Factor(bk.FactorKind.REPROJECTION, (0,),
                          replace(obs, pixel=obs.pixel + [3.0, -2.0]),
                          np.eye(2) / NOISE.sigma_pixel**2,
                          landmark_id=obs.landmark_id)]
        assert all(f.kind not in bk.PAIR_KINDS or f.state_ids != (0, 1)
                   for f in factors)
        assert not any(f.kind is bk.FactorKind.REPROJECTION
                       and f.state_ids == (0,)
                       and f.landmark_id in window.fixed_landmarks
                       for f in factors)

        w_ref, r_ref = bk.solve(replace(window), factors)
        w_dead, r_dead = bk.solve(replace(window), dead[:1] + factors + dead[1:])
        assert r_ref.iterations >= 2
        assert (r_dead.iterations, r_dead.termination, r_dead.cost_trace) == (
            r_ref.iterations, r_ref.termination, r_ref.cost_trace)
        for sid, ref in w_ref.states.items():
            got = w_dead.states[sid]
            for name in ("R", "p", "v", "bg", "ba", "bv"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
        for lid, pos in w_ref.landmarks.items():
            assert np.array_equal(w_dead.landmarks[lid], pos)

        # a list of dead factors alone leaves nothing to solve
        out, report = bk.solve(replace(window), dead)
        assert report.termination is bk.Termination.ZERO_GRADIENT
        assert (report.iterations, report.cost_trace) == (0, [0.0])
        assert out.states == window.states

    def test_model_decrease_predicts_a_small_step(self):
        # the decrease that stops a solve is the cost's own: a small step's
        # realized decrease is its model decrease, to first order in the
        # step, so a model off by a factor of 2 is seen
        local = np.random.default_rng(9)
        nodes, landmarks, intervals, rig, _ = make_scene(local, n_kf=3)
        for node in nodes[1:]:
            node.state.p = node.state.p + local.normal(size=3) * 1e-3
            node.state.R = node.state.R @ exp_so3(local.normal(size=3) * 1e-4)
        window, factors = bk.assemble_window(
            nodes, landmarks, intervals, rig, bk.BackendConfig(), NOISE,
            fixed_ids={0}, fixed_landmarks=set(landmarks))
        layout = bk._window_layout(window, factors)
        batches = bk._batches(window, factors, layout)
        lms = layout.landmark_array(window.landmarks)
        evaluation, cost = bk._evaluate(batches, layout.stack(window.states),
                                        lms)
        h, g = bk._normal_equations(batches, evaluation, layout.ndim)
        step = bk._solve_damped(h, damping(h, 1e-4), g, layout.ndim)
        predicted = bk._model_decrease(h, g, step)
        moved = dict(window.states)
        for sid in (1, 2):
            k = layout.state_cols[layout.rows[sid], 0]
            moved[sid] = window.states[sid].retract(step[k:k + STATE_DOF])
        _, new_cost = bk._evaluate(batches, layout.stack(moved), lms)
        realized = cost - new_cost
        assert realized > 0.5 * cost
        assert abs(realized - predicted) <= 0.1 * predicted

    # fewer than the pose, none, more than a state has, and a count that
    # is no integer
    @pytest.mark.parametrize("n", [3, 0, 19, 36, 6.0])
    def test_free_dims_out_of_range_rejected(self, rng, n):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=2)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             bk.BackendConfig(), NOISE,
                                             fixed_ids={0})
        window.free_dims[1] = n
        with pytest.raises(ValueError, match=f"state 1 frees {n!r} dims"):
            bk.solve(window, factors)

    def test_empty_factor_list_rejected(self, rng):
        window = bk.LocalWindow(states={0: NavState(
            np.eye(3), np.zeros(3), np.zeros(3))}, rig=default_rig(),
            huber_delta=1.345, fixed_states={0})
        with pytest.raises(ValueError):
            bk.solve(window, [])


class TestLayout:
    """Where a solve's variables sit, pinned on one window."""

    def test_column_tables(self):
        # window order 10 (fixed), 11 (pose), 12 (pose and velocity), 13
        # (all 18 dims); landmark 5 fixed, 3 and 7 free; the factors touch
        # the states in the order 13, 11, 12, 10
        state = NavState(np.eye(3), np.zeros(3), np.zeros(3))
        window = bk.LocalWindow(
            {sid: state for sid in (10, 11, 12, 13)}, default_rig(), None,
            {lid: np.zeros(3) for lid in (7, 5, 3)}, fixed_states={10},
            fixed_landmarks={5}, free_dims={11: 6, 12: 9})
        kind = bk.FactorKind
        factors = [bk.Factor(kind.REPROJECTION, (13,), None, np.eye(2), 7),
                   bk.Factor(kind.IMU, (11, 12), None, np.eye(15)),
                   bk.Factor(kind.PHOTOMETRIC, (12, 10), None, np.eye(1)),
                   bk.Factor(kind.REPROJECTION, (10,), None, np.eye(2), 5)]
        layout = bk._window_layout(window, factors)
        assert layout.rows == {13: 0, 11: 1, 12: 2, 10: 3}
        assert layout.lm_rows == {3: 0, 5: 1, 7: 2}
        assert (layout.n_s, layout.ndim) == (33, 39)
        dummy = [39] * STATE_DOF
        want = [list(range(15, 33)),
                list(range(0, 6)) + dummy[6:],
                list(range(6, 15)) + dummy[9:],
                dummy]
        assert layout.state_cols.tolist() == want
        assert layout.lm_cols.tolist() == [[33, 34, 35], [39, 39, 39],
                                           [36, 37, 38]]


class TestRetractRows:
    """The solver retracts the state stack rather than each state."""

    def test_moves_only_the_given_rows(self, rng):
        states = [random_nav_state(rng) for _ in range(4)]
        st = stack_states(states)
        delta = rng.normal(size=(2, STATE_DOF)) * 0.1
        out = retract_rows(st, [3, 1], delta)
        for row, d in ((3, delta[0]), (1, delta[1])):
            assert_allclose(out.R[row], states[row].R @ exp_so3(d[PHI]),
                            rtol=0, atol=1e-15)
            assert np.array_equal(out.x[row, 3:], st.x[row, 3:] + d[3:])
            # the finite-difference checks move states by the same map
            moved, want = states[row].retract(d), unstack_state(out, row)
            for name in ("R", "p", "v", "bg", "ba", "bv"):
                assert np.array_equal(getattr(moved, name), getattr(want, name))
        for row in (0, 2):
            assert np.array_equal(out.R[row], st.R[row])
            assert np.array_equal(out.x[row], st.x[row])
        assert not out.x[:, PHI].any()
        assert np.array_equal(st.R, stack_states(states).R)  # input untouched


class TestTranslationGauge:
    def test_relative_residuals_invariant_to_world_shift(self, rng):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=2, n_lm=4)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             bk.BackendConfig(), NOISE,
                                             fixed_ids=set())
        # quantized positions keep float addition of the shift exact
        quantum = 2.0**-20
        for st in window.states.values():
            st.p = np.round(st.p / quantum) * quantum
        for lid in window.landmarks:
            window.landmarks[lid] = np.round(window.landmarks[lid] / quantum) \
                * quantum
        shift = np.array([4.0, -8.0, 16.0])
        base = {}
        for k, f in enumerate(factors):
            base[k], _, _ = f.evaluate(window.states, window.landmarks, rig)
        shifted_states = {}
        for sid, st in window.states.items():
            moved = st.copy()
            moved.p = st.p + shift
            shifted_states[sid] = moved
        shifted_lms = {lid: p + shift for lid, p in window.landmarks.items()}
        for k, f in enumerate(factors):
            res, _, _ = f.evaluate(shifted_states, shifted_lms, rig)
            assert (res == base[k]).all(), f.kind


def robust(window, f):
    """Whether the window weighs factor ``f`` by its Huber knee."""
    return (f.kind in (bk.FactorKind.REPROJECTION, bk.FactorKind.PHOTOMETRIC)
            and window.huber_delta is not None)


def per_factor_normal_equations(window, factors, state_cols, lm_cols, ndim):
    """Reference assembly, one factor at a time, of the robustly weighted
    normal equations; variables without columns are skipped, and a state's
    Jacobian keeps the columns of its active dims."""
    h = np.zeros((ndim, ndim))
    g = np.zeros(ndim)
    for f in factors:
        r, js, jl = f.evaluate(window.states, window.landmarks, window.rig)
        w = 1.0
        if robust(window, f):
            w = robust_weight(float(r @ f.info @ r), window.huber_delta)
        blocks = [(state_cols[sid][0], jac[:, state_cols[sid][1]])
                  for sid, jac in js.items() if sid in state_cols]
        blocks += [(lm_cols[lid], jac) for lid, jac in jl.items()
                   if lid in lm_cols]
        for ca, ja in blocks:
            jt = w * ja.T @ f.info
            g[ca] += jt @ r
            for cb, jb in blocks:
                h[ca, cb] += jt @ jb
    return h, g


def factor_cost(window, f):
    """One factor's robustified cost in ``window``, through its batch of
    one."""
    r, _, _ = f.evaluate(window.states, window.landmarks, window.rig)
    r2 = float(r @ f.info @ r)
    return huber_cost(r2, window.huber_delta) if robust(window, f) else r2


def assert_matches_per_factor_path(window, factors):
    """The solver's cost and normal equations at the window's states equal
    the sums over the factors' batches of one, on the solver's columns."""
    layout = bk._window_layout(window, factors)
    batches = bk._batches(window, factors, layout)
    stack = layout.stack(window.states)
    lms = layout.landmark_array(window.landmarks)
    ndim = layout.ndim
    cost_single = sum(factor_cost(window, f) for f in factors)
    evaluation, cost = bk._evaluate(batches, stack, lms)
    assert cost == pytest.approx(cost_single, rel=1e-12)
    state_cols = {}
    for sid, k in layout.rows.items():
        cols = layout.state_cols[k]
        n = int(np.count_nonzero(cols < ndim))
        if n:
            state_cols[sid] = (slice(cols[0], cols[0] + n), np.arange(n))
    lm_cols = {lid: slice(c[0], c[0] + 3)
               for lid, c in zip(layout.lm_rows, layout.lm_cols) if c[0] < ndim}
    h_b, g_b = bk._normal_equations(batches, evaluation, ndim)
    h_s, g_s = per_factor_normal_equations(window, factors, state_cols,
                                           lm_cols, ndim)
    assert_allclose(h_b, h_s, atol=1e-9)
    assert_allclose(g_b, g_s, atol=1e-10)
    return layout, batches


def count_jacobian_passes(monkeypatch) -> list[str]:
    """The names of the batch classes whose Jacobian pass runs, one per
    call made while ``monkeypatch`` is active."""
    calls = []
    for cls in (bk._ReprojectionBatch, bk._PhotometricBatch, bk._PairGroup):
        def counted(self, ctx, _fn=cls.jacobians, _key=cls.__name__):
            calls.append(_key)
            return _fn(self, ctx)
        monkeypatch.setattr(cls, "jacobians", counted)
    return calls


class TestBatchedReprojection:
    """One batch for the reprojections of every host of a window."""

    @staticmethod
    def _window(rng, fix_and_repeat=False):
        """Keyframes 0 (fixed), 1 and 2 with their reprojections; with
        ``fix_and_repeat`` two landmarks that keyframe 1 sees are fixed and
        keyframe 1 observes a third one twice."""
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=3, n_lm=8,
                                                         pixel_noise=1.0)
        fixed = set()
        if fix_and_repeat:
            first = nodes[1].observations[0]
            nodes[1].observations.append(LandmarkObservation(
                first.landmark_id, first.pixel + [0.7, -0.4], first.disparity))
            fixed = {o.landmark_id for o in nodes[1].observations[1:3]}
        cfg = bk.BackendConfig(photometric_enabled=False)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             cfg, NOISE, fixed_ids={0},
                                             fixed_landmarks=fixed)
        reproj = [f for f in factors if f.kind is bk.FactorKind.REPROJECTION]
        assert {f.state_ids[0] for f in reproj} == {0, 1, 2}
        assert window.fixed_landmarks == fixed
        return window, reproj, nodes

    def test_matches_per_factor_path(self, rng):
        window, reproj, _ = self._window(rng)
        assert_matches_per_factor_path(window, reproj)

    def test_fixed_and_repeated_landmarks(self, rng):
        # a keyframe that observes one landmark twice must add both
        # contributions; fixed landmarks have no columns, and the fixed
        # host's rows on them are constant, so they are not built
        window, reproj, nodes = self._window(rng, fix_and_repeat=True)
        twice = nodes[1].observations[0].landmark_id
        ids = [f.landmark_id for f in reproj if f.state_ids == (1,)]
        assert ids.count(twice) == 2
        assert window.fixed_landmarks <= set(ids)
        assert_matches_per_factor_path(window, reproj)
        seen = {o.landmark_id for o in nodes[0].observations}
        assert window.fixed_landmarks <= seen
        assert not any(f.state_ids == (0,)
                       and f.landmark_id in window.fixed_landmarks
                       for f in reproj)

    def test_all_landmarks_fixed(self, rng):
        # the map fixed, as in a frame's coarse and joint solves: each row
        # is over its host pose's 6 dims, and its Jacobian is the first 6
        # columns of the same row with the landmarks free, bit for bit
        window, reproj, _ = self._window(rng)

        def batch_and_jacobian():
            layout = bk._window_layout(window, reproj)
            (batch,) = bk._batches(window, reproj, layout)
            _, ctx = batch.residuals(layout.stack(window.states),
                                     layout.landmark_array(window.landmarks))
            return layout, batch, batch.jacobians(ctx)

        _, free, jac_free = batch_and_jacobian()
        window.fixed_landmarks = set(window.landmarks)
        layout, batch, jac = batch_and_jacobian()
        assert free.built == [True, True] and batch.built == [True, False]
        assert np.array_equal(batch.cols, layout.state_cols[batch.host, :6])
        assert jac_free.shape == (len(reproj), 2, 9)
        assert np.array_equal(jac, jac_free[:, :, :6])
        assert_matches_per_factor_path(window, reproj)

    def test_behind_camera_makes_cost_infinite(self, rng, monkeypatch):
        # from the residual pass alone: no Jacobian rows are built
        window, reproj, _ = self._window(rng)
        layout = bk._window_layout(window, reproj)
        batches = bk._batches(window, reproj, layout)
        moved = dict(window.states)
        # a half turn about the body x axis faces the camera away
        moved[1] = moved[1].retract(np.r_[np.pi - 0.1, 0, 0, np.zeros(15)])
        lms = layout.landmark_array(window.landmarks)
        with pytest.raises(bk.BehindCameraError):
            batches[0].residuals(layout.stack(moved), lms)
        calls = count_jacobian_passes(monkeypatch)
        assert bk._evaluate(batches, layout.stack(moved), lms) == (
            None, float("inf"))
        assert calls == []

    def test_rows_on_fixed_variables_add_only_their_constant(self, rng):
        # the fixed keyframe's reprojections of fixed landmarks, which
        # assemble_window does not build, made by hand beside the pair
        # factors: their rows scatter into the dummy column alone, so they
        # add their constant cost and nothing to the normal equations
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=2, n_lm=8,
                                                         pixel_noise=1.0)
        window, factors = bk.assemble_window(
            nodes, landmarks, intervals, rig,
            bk.BackendConfig(photometric_enabled=False), NOISE, fixed_ids={0},
            fixed_landmarks=set(landmarks))
        assert not any(f.state_ids == (0,) for f in factors)
        pairs = [f for f in factors if f.kind in bk.PAIR_KINDS]
        info = np.eye(2) / NOISE.sigma_pixel**2
        dead = [bk.Factor(bk.FactorKind.REPROJECTION, (0,), obs, info,
                          landmark_id=obs.landmark_id)
                for obs in nodes[0].observations
                if obs.landmark_id in window.landmarks]
        assert pairs and dead

        def system(fs):
            layout = bk._window_layout(window, fs)
            batches = bk._batches(window, fs, layout)
            evaluation, cost = bk._evaluate(
                batches, layout.stack(window.states),
                layout.landmark_array(window.landmarks))
            return (layout, batches, cost,
                    *bk._normal_equations(batches, evaluation, layout.ndim))

        layout, batches, cost, h, g = system(pairs + dead)
        *_, cost_pairs, h_pairs, g_pairs = system(pairs)
        (reproj,) = [b for b in batches if isinstance(b, bk._ReprojectionBatch)]
        assert np.all(reproj.cols == layout.ndim)
        assert np.array_equal(h, h_pairs) and np.array_equal(g, g_pairs)
        constant = sum(factor_cost(window, f) for f in dead)
        assert constant > 0
        assert cost == pytest.approx(cost_pairs + constant, rel=1e-12)


def pair_window(rng, n_kf=12, biased=True, photometric=False):
    """A window of keyframes 0, 2, 3, ..., n_kf - 1: 0 is a fixed co-visible
    keyframe behind a gap (no pair factors across it), 2 the fixed boundary,
    5 and 8 are solved for pose and velocity and for pose only. States from
    3 on are perturbed, with their biases off the linearization when
    ``biased``; with ``photometric`` every keyframe has its own field and
    each live pair its photometric patches. Returns the window, all factors
    and the pair factors (their information scaled to a largest entry of
    1)."""
    nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=n_kf, n_lm=6,
                                                     kf_steps=10)
    nodes = [nodes[0]] + nodes[2:]
    fields = [bumpy_field(rng) for _ in nodes] if photometric else []
    for node in nodes[2:]:
        st = node.state
        st.R = st.R @ exp_so3(rng.normal(size=3) * 0.02)
        st.p, st.v = st.p + rng.normal(size=3) * 0.05, st.v + rng.normal(size=3) * 0.05
        if biased:
            st.bg, st.ba, st.bv = (rng.normal(size=3) * s for s in (1e-3, 1e-2, 1e-2))
    cfg = bk.BackendConfig(photometric_gate=float("inf"))
    fill_photometric(nodes, fields, intervals, rig.cam, cfg)
    window, factors = bk.assemble_window(nodes, landmarks, intervals, rig, cfg,
                                         NOISE, fixed_ids={0, 2})
    window.free_dims[5] = 9
    window.free_dims[8] = 6
    pairs = [f for f in factors if f.kind in bk.PAIR_KINDS]
    for f in pairs:
        f.info = f.info / np.abs(f.info).max()
    return window, factors, pairs


class TestStackedPairKinds:
    """The IMU, DVL-velocity, DVL-position and pressure kinds, each
    evaluated over all its pairs at once, against their batches of one."""

    @pytest.mark.parametrize("biased", [False, True])
    def test_matches_per_factor_path(self, rng, biased):
        window, _, pairs = pair_window(rng, biased=biased)
        assert {f.state_ids for f in pairs} == {(k, k + 1) for k in range(2, 11)}
        assert {f.kind for f in pairs} == set(bk.PAIR_KINDS)
        assert_matches_per_factor_path(window, pairs)

    @pytest.mark.parametrize("biased", [False, True])
    def test_blocks_match_finite_differences(self, rng, biased):
        window, _, pairs = pair_window(rng, biased=biased)
        layout = bk._window_layout(window, pairs)
        order, states = list(layout.rows), window.states
        for group in bk._batches(window, pairs, layout):
            rows = np.arange(len(order))
            rows_i, rows_j = rows[group.i], rows[group.j]
            for fn, data, const in group.kinds:
                def evaluate(st, fn=fn, data=data, const=const):
                    return fn(st, group.i, group.j, data, const)

                _, jac = evaluate(layout.stack(states))
                for k, sid in enumerate(order):
                    def res_at(delta, sid=sid, evaluate=evaluate):
                        moved = dict(states)
                        moved[sid] = states[sid].retract(delta)
                        return evaluate(layout.stack(moved))[0].ravel()

                    fd = fd_jacobian(res_at, STATE_DOF, None).reshape(
                        jac.shape[0], jac.shape[1], STATE_DOF)
                    for side, on in ((0, rows_i == k), (1, rows_j == k)):
                        if on.any():
                            assert jac_close(jac[on, :, side], fd[on],
                                             rtol=1e-5), (fn.__name__, sid, side)
                    assert np.all(fd[~((rows_i == k) | (rows_j == k))] == 0.0)

    def test_near_pi_relative_rotation_raises(self, rng):
        window, _, pairs = pair_window(rng, biased=False)
        imu = next(f for f in pairs if f.state_ids == (6, 7))
        s6, s7 = window.states[6], window.states[7]
        s7.R = s6.R @ imu.payload.dR @ exp_so3([np.pi - 1e-7, 0.0, 0.0])
        layout = bk._window_layout(window, pairs)
        batches = bk._batches(window, pairs, layout)
        with pytest.raises(BranchAmbiguityError):
            bk._evaluate(batches, layout.stack(window.states), None)
        with pytest.raises(BranchAmbiguityError):
            bk.solve(window, pairs)


class TestInformationSymmetry:
    """A factor whose information is not symmetric is refused by every
    batch that stacks it: in a solve and in the factor's batch of one."""

    @pytest.mark.parametrize("kind", [bk.FactorKind.REPROJECTION,
                                      bk.FactorKind.IMU,
                                      bk.FactorKind.DVL_VELOCITY])
    def test_asymmetric_information_raises(self, rng, kind):
        window, factors, _ = pair_window(rng, n_kf=4)
        f = next(f for f in factors if f.kind is kind)
        f.info = f.info.copy()
        f.info[0, 1] += 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            bk.solve(window, factors)
        with pytest.raises(ValueError, match="symmetric"):
            f.evaluate(window.states, window.landmarks, window.rig)


def count_field_calls(monkeypatch) -> list[str]:
    """The names of the ``IntensityField`` sampling methods, one per call
    made while ``monkeypatch`` is active."""
    calls = []
    for name in ("sample", "gradient"):
        def counted(self, *args, _fn=getattr(IntensityField, name), _key=name):
            calls.append(_key)
            return _fn(self, *args)
        monkeypatch.setattr(IntensityField, name, counted)
    return calls


class TestPairKindWorkCount:
    """Each pair kind's residual function, and the reprojection and
    photometric residual code, run once per point the solver visits (the
    initial state and each candidate step it evaluates), whatever the number
    of hosts or pairs; each distinct observer field gets one ``gradient``
    call (values and gradients) per point and no ``sample`` call."""

    KINDS = ("imu_pair_residuals", "dvl_velocity_pair_residuals",
             "dvl_position_pair_residuals", "pressure_pair_residuals")
    VISUAL = ((bk._ReprojectionBatch, "residuals"),
              (bk._PhotometricBatch, "_warp"))

    @pytest.mark.parametrize("n_kf", [4, 12])
    def test_one_call_per_kind_per_evaluation(self, rng, monkeypatch, n_kf):
        window, factors, _ = pair_window(rng, n_kf=n_kf, photometric=True)
        kinds = [f.kind for f in factors]
        assert kinds.count(bk.FactorKind.PHOTOMETRIC) > n_kf - 3
        hosts = {f.state_ids for f in factors
                 if f.kind is bk.FactorKind.REPROJECTION}
        assert len(hosts) == n_kf - 1
        fields = {id(f.payload.field_obs) for f in factors
                  if f.kind is bk.FactorKind.PHOTOMETRIC}
        assert len(fields) == n_kf - 3
        calls = dict.fromkeys(self.KINDS, 0)
        for name in self.KINDS:
            def counted(*args, _fn=getattr(bk, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(bk, name, counted)
        for cls, name in self.VISUAL:
            def counted_method(self, *args, _fn=getattr(cls, name), _key=cls):
                calls[_key] = calls.get(_key, 0) + 1
                return _fn(self, *args)
            monkeypatch.setattr(cls, name, counted_method)
        field_calls = count_field_calls(monkeypatch)
        candidates = {"n": 0}
        linear_solve = np.linalg.solve

        def counted_solve(*args):
            candidates["n"] += 1
            return linear_solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        evaluate = bk.Factor.evaluate
        single = []

        def counted_evaluate(self, *args, **kwargs):
            single.append(self.kind)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(bk.Factor, "evaluate", counted_evaluate)
        _, report = bk.solve(window, factors, bk.SolverConfig(max_iterations=6))
        assert report.iterations >= 2 and single == []
        # the initial state and each evaluated candidate: a candidate per
        # linear solve, but for a final one that a tolerance stopped
        stopped = report.termination in (bk.Termination.RELATIVE_COST,
                                         bk.Termination.STEP_SIZE)
        points = 1 + candidates["n"] - stopped
        for name in self.KINDS:
            assert calls[name] == points, name
        for cls, _ in self.VISUAL:
            assert calls[cls] == points, cls.__name__
        assert field_calls.count("gradient") == len(fields) * points
        assert field_calls.count("sample") == 0

    def test_one_field_call_per_payload_batch(self, rng, monkeypatch):
        field, cam = bumpy_field(rng), default_rig().cam
        pattern = bk.PATCH_PATTERN
        pixels = rng.uniform([100, 100], [540, 260], (5, 2))
        depths = rng.uniform(2.0, 5.0, 5)
        obs = [LandmarkObservation(k, pix, cam.fx * cam.baseline / z)
               for k, (pix, z) in enumerate(zip(pixels, depths))]
        field_calls = count_field_calls(monkeypatch)
        payloads = bk.photometric_payloads(field, obs, field, obs, cam,
                                           bk.BackendConfig())
        assert field_calls == ["gradient"]
        pts = pixels[:, None, :] + pattern.offsets
        monkeypatch.undo()
        vals, grads = field.gradient(pts.reshape(-1, 2))
        assert np.array_equal(np.stack([d.host_vals for d in payloads]),
                              vals.reshape(5, -1))
        assert np.array_equal(np.stack([d.weights for d in payloads]),
                              pattern.weights(grads).reshape(5, -1))
        # the host points, back-projected once, at the stereo depths
        depths = cam.stereo_depth([o.disparity for o in obs])
        assert np.array_equal(np.stack([d.pts_ci for d in payloads]),
                              cam.backproject(pts, depths[:, None]))


def photometric_window(rng, fixed_ids=(), info_scale=None):
    """Four keyframes of ``make_scene``, each with its own unrelated bumpy
    field, and the photometric factors of its three consecutive pairs (with
    information ``info_scale`` when given)."""
    nodes, _, intervals, rig, _ = make_scene(rng, n_kf=4, n_lm=8, kf_steps=8)
    fields = [bumpy_field(rng) for _ in nodes]
    cfg = bk.BackendConfig(photometric_gate=float("inf"))
    fill_photometric(nodes, fields, intervals, rig.cam, cfg)
    window, factors = bk.assemble_window(nodes, {}, intervals, rig, cfg, NOISE,
                                         fixed_ids=set(fixed_ids))
    factors = [f for f in factors if f.kind is bk.FactorKind.PHOTOMETRIC]
    if info_scale is not None:
        for f in factors:
            f.info = np.array([[info_scale]])
    pairs = [f.state_ids for f in factors]
    assert all(pairs.count(p) >= 3 for p in ((0, 1), (1, 2), (2, 3)))
    return window, factors


class TestBatchedPhotometric:
    """One batch for the photometric patches of every pair of a window."""

    def test_matches_per_factor_path(self, rng):
        window, factors = photometric_window(rng, info_scale=1e-3)
        layout, (batch,) = assert_matches_per_factor_path(window, factors)
        assert len(batch.fields) == 3

    def test_fixed_host_has_no_columns(self, rng):
        window, factors = photometric_window(rng, fixed_ids={0},
                                             info_scale=1e-3)
        layout, _ = assert_matches_per_factor_path(window, factors)
        assert np.all(layout.state_cols[layout.rows[0]] == layout.ndim)

    def test_invalid_patch_makes_cost_infinite(self, rng, monkeypatch):
        # from the residual pass alone: no Jacobian rows are built
        window, factors = photometric_window(rng)
        layout = bk._window_layout(window, factors)
        batch = bk._PhotometricBatch(window, factors, layout)
        moved = dict(window.states)
        moved[1] = moved[1].retract(np.r_[0, 0, 0, 40.0, 0, 0, np.zeros(12)])
        res, _, valid = batch.patch_residuals(layout.stack(moved))
        assert not valid.all() and np.isnan(res[~valid]).all()
        calls = count_jacobian_passes(monkeypatch)
        assert bk._evaluate([batch], layout.stack(moved), None) == (
            None, float("inf"))
        assert calls == []


class TestPhotometricHostsOnce:
    """A keyframe pair's photometric host side is built once, with the pair,
    and each window gates all its pairs' patches in one batch, with no host
    side call."""

    @staticmethod
    def _scene(rng, cfg=bk.BackendConfig()):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=4, n_lm=8,
                                                         kf_steps=8)
        fields = [bumpy_field(rng) for _ in nodes]
        fill_photometric(nodes, fields, intervals, rig.cam, cfg)
        return nodes, landmarks, intervals, rig, fields

    @staticmethod
    def _photometric(nodes, landmarks, intervals, rig, cfg):
        _, factors = bk.assemble_window(nodes, landmarks, intervals, rig, cfg,
                                        NOISE, fixed_ids={0})
        return [f for f in factors if f.kind is bk.FactorKind.PHOTOMETRIC]

    @staticmethod
    def _gated_per_pair(nodes, fields, rig, cfg):
        """The photometric factors of each pair built and gated on its own,
        at the window of ``assemble_window``."""
        window = bk.LocalWindow({n.kf_id: n.state for n in nodes}, rig,
                                cfg.huber_delta, fixed_states={0})
        out = []
        for k, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
            payloads = bk.photometric_payloads(
                fields[k], sorted(a.observations, key=lambda o: o.landmark_id),
                fields[k + 1], b.observations, rig.cam, cfg)
            out += bk.make_photometric_factors(
                window, [((a.kf_id, b.kf_id), payloads)], cfg.sigma_intensity,
                cfg.photometric_gate)
        return out

    def test_second_window_gates_without_host_calls(self, rng, monkeypatch):
        nodes, landmarks, intervals, rig, _ = self._scene(rng)
        cfg = bk.BackendConfig(photometric_gate=float("inf"))
        calls = count_field_calls(monkeypatch)
        first = self._photometric(nodes, landmarks, intervals, rig, cfg)
        second = self._photometric(nodes, landmarks, intervals, rig, cfg)
        monkeypatch.undo()
        observers = {id(f.payload.field_obs) for f in second}
        assert len(observers) == 3
        # each window: one sample per distinct observer field, no gradient
        assert calls == ["sample"] * (2 * len(observers))
        assert all(f.payload is g.payload for f, g in zip(first, second))
        assert [f.payload for f in first] == [
            d for key in ((0, 1), (1, 2), (2, 3))
            for d in intervals[key].photometric]

    def test_matches_gating_each_pair_alone(self, rng):
        nodes, landmarks, intervals, rig, fields = self._scene(rng)
        for node in nodes[1:]:
            node.state.p = node.state.p + rng.normal(size=3) * 0.02
        # a gate at the median residual rejects some patches of the window
        ungated = self._photometric(nodes, landmarks, intervals, rig,
                                    bk.BackendConfig(photometric_gate=float("inf")))
        window = bk.LocalWindow({n.kf_id: n.state for n in nodes}, rig, None)
        layout = bk._window_layout(window, ungated)
        batch = bk._PhotometricBatch(window, ungated, layout)
        res, _, _ = batch.patch_residuals(layout.stack(window.states))
        gate = float(np.median(np.abs(res) * np.sqrt(batch.infos[:, 0, 0])))
        cfg = bk.BackendConfig(photometric_gate=gate)
        got = self._photometric(nodes, landmarks, intervals, rig, cfg)
        want = self._gated_per_pair(nodes, fields, rig, cfg)
        assert 0 < len(got) < len(ungated)
        assert [f.state_ids for f in got] == [f.state_ids for f in want]
        assert len({f.state_ids for f in got}) == 3
        for f, ref in zip(got, want):
            assert f.payload.field_obs is ref.payload.field_obs
            for name in ("pts_ci", "host_vals", "weights"):
                assert np.array_equal(getattr(f.payload, name),
                                      getattr(ref.payload, name)), name
            assert np.array_equal(f.info, ref.info)

    def test_point_cap_bounds_each_pair(self, rng):
        nodes, landmarks, intervals, rig, fields = self._scene(rng)
        cfg = bk.BackendConfig(photometric_gate=float("inf"))

        def most_per_pair():
            got = self._photometric(nodes, landmarks, intervals, rig, cfg)
            return max(sum(f.state_ids == p for f in got)
                       for p in ((0, 1), (1, 2), (2, 3)))

        assert most_per_pair() > 2
        fill_photometric(nodes, fields, intervals, rig.cam,
                         replace(cfg, photometric_max_points=2))
        assert most_per_pair() == 2


class TestPhotometricJacobians:
    """The solver's photometric residual in its 18-dof layout against
    central differences along each state's retraction."""

    @staticmethod
    def _jacobian_rows(batch, stack):
        return batch.jacobians(batch.residuals(stack)[1])

    def test_rows_match_finite_differences(self, rng):
        window, factors = photometric_window(rng)
        states = window.states
        layout = bk._window_layout(window, factors)
        batch = bk._PhotometricBatch(window, factors, layout)
        assert batch.built == [True, True]
        jac = self._jacobian_rows(batch, layout.stack(states))
        for sid in window.states:
            def res_at(delta, sid=sid):
                moved = dict(states)
                moved[sid] = states[sid].retract(delta)
                return batch.residuals(layout.stack(moved))[0][:, 0]

            fd = fd_jacobian(res_at, STATE_DOF, None)
            # the warp sees rotation and position only
            assert np.all(fd[:, 6:] == 0.0)
            host = np.array([f.state_ids[0] == sid for f in factors])
            obs = np.array([f.state_ids[1] == sid for f in factors])
            assert np.all(fd[~(host | obs)] == 0.0)
            for on, cols in ((host, slice(0, 6)), (obs, slice(6, 12))):
                if on.any():
                    assert jac_close(jac[on, 0, cols], fd[on, :6], rtol=1e-4)
            for k, f in enumerate(factors):
                if host[k] or obs[k]:
                    _, js, _ = f.evaluate(states, {}, window.rig)
                    assert js[sid].shape == (1, STATE_DOF)
                    assert jac_close(js[sid], fd[k:k + 1], rtol=1e-4)

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_cross_sum_is_that_of_np_cross(self, rng, n):
        # the Jacobian pass's summed cross products, bit for bit
        a, b = rng.normal(size=(2, n, 8, 3)) * [[[[1.0]]], [[[1e3]]]]
        assert np.array_equal(bk._cross_sum(a, b), np.cross(a, b).sum(axis=1))

    def test_all_hosts_fixed(self, rng):
        # the patches of the fixed keyframe 0 toward keyframe 1, as in a
        # frame's refinement: the batch builds the observer block alone
        window, factors = photometric_window(rng, fixed_ids={0},
                                             info_scale=1e-3)
        factors = [f for f in factors if f.state_ids == (0, 1)]
        states = window.states
        layout = bk._window_layout(window, factors)
        batch = bk._PhotometricBatch(window, factors, layout)
        assert batch.built == [False, True]
        assert np.array_equal(batch.cols, layout.state_cols[
            [layout.rows[1]] * len(factors), :6])
        jac = self._jacobian_rows(batch, layout.stack(states))
        assert jac.shape == (len(factors), 1, 6)

        def res_at(delta):
            moved = dict(states)
            moved[1] = states[1].retract(delta)
            return batch.residuals(layout.stack(moved))[0][:, 0]

        fd = fd_jacobian(res_at, STATE_DOF, None)
        assert np.all(fd[:, 6:] == 0.0)
        assert jac_close(jac[:, 0], fd[:, :6], rtol=1e-4)
        # h and g against the per-factor path, which builds the host blocks
        assert_matches_per_factor_path(window, factors)

    def test_gradient_matches_robust_cost(self, rng):
        # g = J^T W r is half the gradient of the Huber cost, with patches on
        # both sides of the knee
        window, factors = photometric_window(rng)
        states = window.states
        layout = bk._window_layout(window, factors)
        stack = layout.stack(states)
        res = bk._PhotometricBatch(window, factors, layout).residuals(stack)[0][:, 0]
        delta = window.huber_delta
        for k, f in enumerate(factors):
            scale = 0.5 if k % 2 == 0 else 3.0  # |r| at scale * delta
            f.info = np.array([[(scale * delta / res[k]) ** 2]])
        batch = bk._PhotometricBatch(window, factors, layout)
        w, _ = batch.weights_cost(res[:, None])
        assert np.any(w == 1.0) and np.any(w < 1.0)

        ndim = layout.ndim
        _, g = bk._normal_equations(
            [batch], bk._evaluate([batch], stack, None)[0], ndim)

        def cost_at(delta):
            delta = np.append(delta, 0.0)
            moved = {sid: states[sid].retract(delta[layout.state_cols[k]])
                     for sid, k in layout.rows.items()}
            return bk._evaluate([batch], layout.stack(moved), None)[1]

        fd = fd_jacobian(cost_at, ndim, None)[0]
        assert jac_close(g, 0.5 * fd, rtol=1e-5)


class TestCarriedLinearization:
    """The evaluation a solve carries from an accepted candidate into the
    next iteration is that of the state it accepted: past rejected
    candidates, each iteration's normal equations, and the final cost,
    equal their fresh evaluation at the states the solve had reached. The
    Jacobian rows are built from that evaluation's intermediates, once per
    normal equations: never for a rejected candidate or the point a capped
    solve ends at."""

    def test_matches_fresh_evaluation(self, rng, monkeypatch):
        window, factors = photometric_window(rng, fixed_ids={0})
        cfg = bk.SolverConfig(max_iterations=4, lambda_init=1e-8)
        normal_equations, evaluate = bk._normal_equations, bk._evaluate
        log, used = [], []

        def counted_normal_equations(*args):
            log.append("N")
            used.append(normal_equations(*args))
            return used[-1]

        def counted_evaluate(*args):
            log.append("E")
            return evaluate(*args)

        monkeypatch.setattr(bk, "_normal_equations", counted_normal_equations)
        monkeypatch.setattr(bk, "_evaluate", counted_evaluate)
        jacobian_passes = count_jacobian_passes(monkeypatch)
        jacobians = bk._PhotometricBatch.jacobians

        def logged_jacobians(self, ctx):
            log.append("J")
            return jacobians(self, ctx)

        monkeypatch.setattr(bk._PhotometricBatch, "jacobians", logged_jacobians)
        out, report = bk.solve(replace(window), factors, cfg)
        monkeypatch.undo()
        # a rejected candidate (lambda grew) before an accepted step that
        # the next iteration linearizes at, and a solve that ends on its cap
        # at a point it evaluated and never linearized
        assert report.iterations == len(used) == 4
        assert report.termination is bk.Termination.ITERATION_CAP
        trace = "".join(log)
        per_iteration = trace.replace("J", "").split("N")[1:]
        assert any(len(e) > 1 for e in per_iteration[:-1])
        # one batch, whose rows are built inside each normal equations alone
        assert jacobian_passes == ["_PhotometricBatch"] * len(used)
        assert trace.count("NJ") == trace.count("J") == len(used)
        assert trace.endswith("E")

        def fresh(w):
            layout = bk._window_layout(w, factors)
            batches = bk._batches(w, factors, layout)
            return batches, bk._evaluate(batches, layout.stack(w.states),
                                         layout.landmark_array(w.landmarks))

        batches, (_, cost) = fresh(out)
        assert cost == report.final_cost == report.cost_trace[-1]
        for k, (h, g) in enumerate(used):
            # the states after k accepted steps
            at_k, _ = bk.solve(replace(window), factors,
                               replace(cfg, max_iterations=k))
            batches, (evaluation, cost) = fresh(at_k)
            assert cost == report.cost_trace[k]
            h_k, g_k = bk._normal_equations(batches, evaluation, h.shape[0])
            assert np.array_equal(h, h_k) and np.array_equal(g, g_k), k


def landmark_window(rng, landmarks=True, photometric=False):
    """Five keyframes of ``make_scene``: 0 fixed, 1 solved for pose and
    velocity, 2 for pose only, 3 and 4 in full, all but 0 perturbed. With
    ``landmarks``, two landmarks are fixed, one is seen by keyframe 3 alone
    and keyframe 2 observes another twice; without, the window has none.
    With ``photometric`` each keyframe has its own field, and each pair its
    patches. Returns the window,
    its ``h`` and ``g`` at its states, its number of state columns, the
    ids of the single-keyframe and twice-observed landmarks, and its
    factors."""
    nodes, lms, intervals, rig, _ = make_scene(rng, n_kf=5, n_lm=10,
                                               kf_steps=20, pixel_noise=0.5)
    twice = nodes[2].observations[0]
    single = next(o.landmark_id for o in nodes[3].observations
                  if o.landmark_id != twice.landmark_id)
    fields = []
    for node in nodes:
        if node is not nodes[3]:
            node.observations = [o for o in node.observations
                                 if o.landmark_id != single]
        if photometric:
            fields.append(bumpy_field(rng))
    nodes[2].observations.append(LandmarkObservation(
        twice.landmark_id, twice.pixel + [0.7, -0.4], twice.disparity))
    fixed = set(sorted(set(lms) - {single, twice.landmark_id})[:2])
    for node in nodes[1:]:
        st = node.state
        st.R = st.R @ exp_so3(rng.normal(size=3) * 0.01)
        st.p, st.v = (st.p + rng.normal(size=3) * 0.02,
                      st.v + rng.normal(size=3) * 0.02)
    cfg = bk.BackendConfig(photometric_gate=float("inf"))
    fill_photometric(nodes, fields, intervals, rig.cam, cfg)
    window, factors = bk.assemble_window(nodes, lms if landmarks else {},
                                         intervals, rig, cfg, NOISE,
                                         fixed_ids={0}, fixed_landmarks=fixed)
    window.free_dims[1] = 9
    window.free_dims[2] = 6
    layout = bk._window_layout(window, factors)
    batches = bk._batches(window, factors, layout)
    evaluation, _ = bk._evaluate(batches, layout.stack(window.states),
                                 layout.landmark_array(window.landmarks))
    h, g = bk._normal_equations(batches, evaluation, layout.ndim)
    return window, h, g, layout.n_s, single, twice.landmark_id, factors


def damping(h, lam):
    """The diagonal of h damped as ``solve`` damps it."""
    d = np.diag(h)
    return d + lam * d + 1e-15


def dense_step(h, g, lam):
    """The LM step as a dense solve of the whole damped system."""
    damped = h.copy()
    np.fill_diagonal(damped, damping(h, lam))
    return np.linalg.solve(damped, -g)


class TestLandmarkElimination:
    """The LM step with the free landmarks eliminated by Schur complement
    against a dense solve of the same damped system."""

    def test_landmark_blocks_do_not_couple(self, rng):
        # the structure the elimination relies on: no landmark-landmark
        # entry of h outside the 3 x 3 diagonal blocks
        window, h, _, n_s, _, _, _ = landmark_window(rng, photometric=True)
        n_lm = (len(h) - n_s) // 3
        assert n_lm >= 5 and window.fixed_landmarks
        blocks = h[n_s:, n_s:].reshape(n_lm, 3, n_lm, 3).transpose(0, 2, 1, 3)
        off = ~np.eye(n_lm, dtype=bool)
        assert np.all(blocks[off] == 0.0)
        assert np.all(blocks[~off].any(axis=(1, 2)))

    def test_landmarks_couple_only_to_their_observers(self, rng):
        # the structure the restricted Schur correction relies on: H_sl is
        # nonzero exactly in the pose columns of the keyframes that observe
        # a free landmark, a strict subset of the state columns
        window, h, _, n_s, _, _, factors = landmark_window(rng,
                                                           photometric=True)
        layout = bk._window_layout(window, factors)
        free = set(window.landmarks) - window.fixed_landmarks
        observers = {f.state_ids[0] for f in factors
                     if f.landmark_id in free} - window.fixed_states
        assert len(observers) >= 3
        pose_cols = {c for sid in observers
                     for c in layout.state_cols[layout.rows[sid], :6].tolist()}
        nonzero = np.flatnonzero(h[:n_s, n_s:].any(axis=1))
        assert set(nonzero.tolist()) == pose_cols
        assert len(pose_cols) < n_s

    @pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0])
    def test_step_matches_dense_solve(self, rng, lam):
        window, h, g, n_s, single, twice, _ = landmark_window(rng)
        free = sorted(set(window.landmarks) - window.fixed_landmarks)
        assert single in free and twice in free
        k = n_s + 3 * free.index(single)
        # one keyframe's reprojection: a rank-2 block before damping
        assert np.linalg.matrix_rank(h[k:k + 3, k:k + 3]) == 2
        step = bk._solve_damped(h, damping(h, lam), g, n_s)
        ref = dense_step(h, g, lam)
        assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("lam", [1e-4, 1.0])
    def test_states_only_step_is_the_dense_solve(self, rng, lam):
        _, h, g, n_s, _, _, _ = landmark_window(rng, landmarks=False)
        assert n_s == len(g) == 6 + 9 + 2 * STATE_DOF
        assert np.array_equal(bk._solve_damped(h, damping(h, lam), g, n_s),
                              dense_step(h, g, lam))
