from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import aquafuse.backend as bk
from aquafuse.depth import PressureSample, S3
from aquafuse.imu import ImuBias, ImuNoiseSpec, integrate_imu
from aquafuse.manifold import BranchAmbiguityError, Pose, exp_so3, log_so3
from aquafuse.sim import ScenarioConfig, sensor_rig_from_config
from aquafuse.state import (PHI, STATE_DOF, NavState, retract_rows,
                            stack_states, unstack_state)
from aquafuse.visual import IntensityField, LandmarkObservation

from helpers import (discrete_imu_world, dvl_samples_from_world,
                     fd_jacobian, huber_cost, jac_close, project,
                     random_nav_state, robust_weight)

NOISY = ImuNoiseSpec(sigma_g=2e-4, sigma_a=2e-3)
# the sensor noise the window factors of these scenes assume
NOISE = bk.SensorNoise(sigma_pixel=0.5, sigma_dvl=0.01, sigma_pressure=0.01,
                       sigma_bg_walk=1e-5, sigma_ba_walk=1e-4,
                       sigma_bv_walk=5e-3)


def default_rig() -> bk.SensorRig:
    return sensor_rig_from_config(ScenarioConfig())


def bumpy_field(rng) -> IntensityField:
    return IntensityField(rng.uniform(80, 200, 40),
                          rng.uniform([0, 0], [640, 360], (40, 2)),
                          rng.uniform(8, 14, 40), 640, 360)


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
            obs.append(LandmarkObservation(k, lid, pix,
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
        pre = integrate_imu(seg, ImuBias.zero(), NOISY, t_start=t0, t_end=t1)
        dvl_idx = list(range(k * kf_steps, (k + 1) * kf_steps, dvl_every))
        dvl_times = [i * dt for i in dvl_idx]
        dvl_states = [states[i] for i in dvl_idx] + [states[(k + 1) * kf_steps]]
        dvl = dvl_samples_from_world(dvl_states, dvl_times, dvl_every * dt,
                                     rig.dvl)
        from aquafuse.dvl import preintegrate_dvl
        dvl_pre = preintegrate_dvl(dvl, pre, rig.dvl, np.zeros(3), np.zeros(3),
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
        for node in nodes:
            node.field = bumpy_field(rng)
        cfg = bk.BackendConfig(photometric_gate=float("inf"))
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
            1, lid, np.array([320.0, 180.0]), 9.0))

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
        # without observations or fields no factor observes a landmark
        blind = [replace(n, observations=[], field=None) for n in nodes]
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
                    bad.frame_id, bad.landmark_id, bad.pixel + [50.0, 0.0],
                    bad.disparity)
            node.state.p = node.state.p + [0.02, -0.01, 0.015]
            intervals = without_dvl_and_pressure(nodes, intervals)
            cfg = bk.BackendConfig(photometric_enabled=False)
            window, factors = bk.assemble_window(
                nodes, landmarks, intervals, rig, cfg, NOISE, fixed_ids={0},
                fixed_landmarks=set(landmarks.keys()))
            if not robust:
                window.huber_delta = None
            window.state_masks[1] = bk.POSE_MASK
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
        # any accepted step drops the cost by less than all of it
        report = run(0.05, rel_cost_tol=1.0, step_tol=0.0)
        assert report.termination is T.RELATIVE_COST
        assert report.iterations == 1
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
        rig = replace(default_rig(), T_IC=Pose.identity())
        obs = LandmarkObservation(0, 0, np.array([rig.cam.cx, rig.cam.cy]),
                                  None)
        factor = bk.Factor(bk.FactorKind.REPROJECTION, (0,), obs, np.eye(2),
                           landmark_id=0)

        def window(fixed_states):
            state = NavState(np.eye(3), np.zeros(3), np.zeros(3))
            return bk.LocalWindow([0], {0: state}, rig, 1.345,
                                  {0: np.array([0.0, 0.0, 2.0])},
                                  fixed_states=fixed_states,
                                  fixed_landmarks={0},
                                  state_masks={0: bk.POSE_MASK})

        # the gradient vanishes at the free pose, and without free dims
        for fixed in (set(), {0}):
            _, report = bk.solve(window(fixed), [factor])
            assert report.termination is T.ZERO_GRADIENT
            assert (report.iterations, report.cost_trace) == (0, [0.0])

    @pytest.mark.parametrize("mask", [
        np.array([True] * 3 + [False] * 15),            # rotation only
        np.array([False] * 3 + [True] * 15),            # no rotation
        np.array([True] * 6 + [False] * 3 + [True] * 9),  # a gap
        np.array([False] * 18),
        np.ones(9, dtype=bool),                         # wrong length
    ])
    def test_non_prefix_mask_rejected(self, rng, mask):
        nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=2)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             bk.BackendConfig(), NOISE,
                                             fixed_ids={0})
        window.state_masks[1] = mask
        with pytest.raises(ValueError, match="contiguous prefix"):
            bk.solve(window, factors)

    def test_empty_factor_list_rejected(self, rng):
        window = bk.LocalWindow(kf_ids=[0], states={0: NavState(
            np.eye(3), np.zeros(3), np.zeros(3))}, rig=default_rig(),
            huber_delta=1.345, fixed_states={0})
        with pytest.raises(ValueError):
            bk.solve(window, [])


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
            base[k], _, _ = f.evaluate(window.states, window.landmarks, rig,
                                       with_jacobians=False)
        shifted_states = {}
        for sid, st in window.states.items():
            moved = st.copy()
            moved.p = st.p + shift
            shifted_states[sid] = moved
        shifted_lms = {lid: p + shift for lid, p in window.landmarks.items()}
        for k, f in enumerate(factors):
            res, _, _ = f.evaluate(shifted_states, shifted_lms, rig,
                                   with_jacobians=False)
            assert (res == base[k]).all(), f.kind


def robust(window, f):
    """Whether the window weighs factor ``f`` by its Huber knee."""
    return f.kind in bk.VISUAL_KINDS and window.huber_delta is not None


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
    r, _, _ = f.evaluate(window.states, window.landmarks, window.rig,
                         with_jacobians=False)
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
    assert bk._cost(batches, stack, lms) == pytest.approx(cost_single,
                                                          rel=1e-12)
    state_cols = {}
    for sid, cols in layout.cols.items():
        n = sum(c < ndim for c in cols)
        if n:
            state_cols[sid] = (slice(cols[0], cols[0] + n), np.arange(n))
    lm_cols = {lid: slice(c[0], c[0] + 3) for lid, c in layout.lm_cols.items()
               if c[0] < ndim}
    h_b, g_b = bk._normal_equations(batches, stack, lms, ndim)
    h_s, g_s = per_factor_normal_equations(window, factors, state_cols,
                                           lm_cols, ndim)
    assert_allclose(h_b, h_s, atol=1e-9)
    assert_allclose(g_b, g_s, atol=1e-10)
    return layout, batches


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
                first.frame_id, first.landmark_id, first.pixel + [0.7, -0.4],
                first.disparity))
            fixed = {o.landmark_id for o in nodes[1].observations[1:3]}
        cfg = bk.BackendConfig(photometric_enabled=False)
        window, factors = bk.assemble_window(nodes, landmarks, intervals, rig,
                                             cfg, NOISE, fixed_ids={0},
                                             fixed_landmarks=fixed)
        reproj = [f for f in factors if f.kind is bk.FactorKind.REPROJECTION]
        assert {f.state_ids[0] for f in reproj} == {0, 1, 2}
        assert window.fixed_landmarks == fixed
        return window, reproj, nodes[1].observations[0].landmark_id

    def test_matches_per_factor_path(self, rng):
        window, reproj, _ = self._window(rng)
        assert_matches_per_factor_path(window, reproj)

    def test_fixed_and_repeated_landmarks(self, rng):
        # a keyframe that observes one landmark twice must add both
        # contributions; fixed landmarks have no columns and are skipped,
        # and so are the rows of the fixed host on them
        window, reproj, twice = self._window(rng, fix_and_repeat=True)
        ids = [f.landmark_id for f in reproj if f.state_ids == (1,)]
        assert ids.count(twice) == 2
        assert window.fixed_landmarks <= set(ids)
        layout, (batch,) = assert_matches_per_factor_path(window, reproj)
        dead = [f.state_ids == (0,) and f.landmark_id in window.fixed_landmarks
                for f in reproj]
        assert any(dead)
        assert list(batch.live) == [k for k, d in enumerate(dead) if not d]


def pair_window(rng, n_kf=12, biased=True, photometric=False):
    """A window of keyframes 0, 2, 3, ..., n_kf - 1: 0 is a fixed co-visible
    keyframe behind a gap (no pair factors across it), 2 the fixed boundary,
    5 and 8 are solved for pose and velocity and for pose only. States from
    3 on are perturbed, with their biases off the linearization when
    ``biased``; with ``photometric`` every keyframe has its own field and
    each live pair its photometric factors. Returns the window, all factors
    and the pair factors (their information scaled to a largest entry of
    1)."""
    nodes, landmarks, intervals, rig, _ = make_scene(rng, n_kf=n_kf, n_lm=6,
                                                     kf_steps=10)
    nodes = [nodes[0]] + nodes[2:]
    if photometric:
        for node in nodes:
            node.field = bumpy_field(rng)
    for node in nodes[2:]:
        st = node.state
        st.R = st.R @ exp_so3(rng.normal(size=3) * 0.02)
        st.p, st.v = st.p + rng.normal(size=3) * 0.05, st.v + rng.normal(size=3) * 0.05
        if biased:
            st.bg, st.ba, st.bv = (rng.normal(size=3) * s for s in (1e-3, 1e-2, 1e-2))
    cfg = bk.BackendConfig(photometric_enabled=photometric,
                           photometric_gate=float("inf"))
    window, factors = bk.assemble_window(nodes, landmarks, intervals, rig, cfg,
                                         NOISE, fixed_ids={0, 2})
    window.state_masks[5] = bk.POSE_VEL_MASK
    window.state_masks[8] = bk.POSE_MASK
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
        for batch in (b for g in bk._batches(window, pairs, layout)
                      for b in g.batches):
            _, jac = batch.evaluate(layout.stack(states))
            rows = np.arange(len(order))
            rows_i, rows_j = rows[batch.i], rows[batch.j]
            for k, sid in enumerate(order):
                def res_at(delta, sid=sid):
                    moved = dict(states)
                    moved[sid] = states[sid].retract(delta)
                    st = layout.stack(moved)
                    return batch.evaluate(st, with_jacobians=False)[0].ravel()

                fd = fd_jacobian(res_at, STATE_DOF, None).reshape(
                    jac.shape[0], jac.shape[1], STATE_DOF)
                for side, on in ((0, rows_i == k), (1, rows_j == k)):
                    if on.any():
                        assert jac_close(jac[on, :, side], fd[on], rtol=1e-5), \
                            (batch.kind, sid, side)
                assert np.all(fd[~((rows_i == k) | (rows_j == k))] == 0.0)

    def test_near_pi_relative_rotation_raises(self, rng):
        window, _, pairs = pair_window(rng, biased=False)
        imu = next(f for f in pairs if f.state_ids == (6, 7))
        s6, s7 = window.states[6], window.states[7]
        s7.R = s6.R @ imu.payload.dR @ exp_so3([np.pi - 1e-7, 0.0, 0.0])
        layout = bk._window_layout(window, pairs)
        batch = next(b for g in bk._batches(window, pairs, layout)
                     for b in g.batches if b.kind is bk.FactorKind.IMU)
        with pytest.raises(BranchAmbiguityError):
            batch.evaluate(layout.stack(window.states), with_jacobians=False)
        with pytest.raises(BranchAmbiguityError):
            bk.solve(window, pairs)


class TestPairKindWorkCount:
    """Each pair kind's residual function, and the reprojection and
    photometric residual code, run once per normal-equation assembly and
    once per cost evaluation, whatever the number of hosts or pairs; each
    distinct observer field is sampled at most once per evaluation."""

    KINDS = ("imu_pair_residuals", "dvl_velocity_pair_residuals",
             "dvl_position_pair_residuals", "pressure_pair_residuals")
    VISUAL = ((bk._ReprojectionBatch, "_project"),
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
        calls = {(name, jac): 0 for name in self.KINDS for jac in (False, True)}
        for name in self.KINDS:
            def counted(*args, _fn=getattr(bk, name), _name=name):
                calls[_name, args[-1]] += 1
                return _fn(*args)
            monkeypatch.setattr(bk, name, counted)
        for cls, name in self.VISUAL:
            def counted_method(self, *args, _fn=getattr(cls, name), _key=cls):
                calls[_key] = calls.get(_key, 0) + 1
                return _fn(self, *args)
            monkeypatch.setattr(cls, name, counted_method)
        for name in ("sample", "gradient"):
            def counted_field(self, *args, _fn=getattr(IntensityField, name),
                              _key=name):
                calls[_key] = calls.get(_key, 0) + 1
                return _fn(self, *args)
            monkeypatch.setattr(IntensityField, name, counted_field)
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
        stopped = report.termination in (bk.Termination.ZERO_GRADIENT,
                                         bk.Termination.NO_DESCENT)
        # the initial cost and one per candidate step
        costs, assemblies = 1 + candidates["n"], report.iterations + stopped
        for name in self.KINDS:
            assert calls[name, False] == costs, name
            assert calls[name, True] == assemblies, name
        for cls, _ in self.VISUAL:
            assert calls[cls] == costs + assemblies, cls.__name__
        assert calls["gradient"] == len(fields) * assemblies
        assert calls["sample"] <= len(fields) * (costs + assemblies)


def photometric_window(rng, fixed_ids=(), info_scale=None):
    """Four keyframes of ``make_scene``, each with its own unrelated bumpy
    field, and the photometric factors of its three consecutive pairs (with
    information ``info_scale`` when given)."""
    nodes, _, intervals, rig, _ = make_scene(rng, n_kf=4, n_lm=8, kf_steps=8)
    for node in nodes:
        node.field = bumpy_field(rng)
    cfg = bk.BackendConfig(photometric_gate=float("inf"))
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
        assert layout.cols[0] == [layout.ndim] * STATE_DOF

    def test_invalid_patch_makes_cost_infinite(self, rng):
        window, factors = photometric_window(rng)
        layout = bk._window_layout(window, factors)
        batch = bk._PhotometricBatch(window, factors, layout)
        moved = dict(window.states)
        moved[1] = moved[1].retract(np.r_[0, 0, 0, 40.0, 0, 0, np.zeros(12)])
        res, _, valid = batch.patch_residuals(layout.stack(moved))
        assert not valid.all() and np.isnan(res[~valid]).all()
        assert bk._cost([batch], layout.stack(moved), None) == float("inf")


class TestPhotometricJacobians:
    """The solver's photometric residual in its 18-dof layout against
    central differences along each state's retraction."""

    def test_rows_match_finite_differences(self, rng):
        window, factors = photometric_window(rng)
        states = window.states
        layout = bk._window_layout(window, factors)
        batch = bk._PhotometricBatch(window, factors, layout)
        _, jac = batch.linearize(layout.stack(states))
        for sid in window.kf_ids:
            def res_at(delta, sid=sid):
                moved = dict(states)
                moved[sid] = states[sid].retract(delta)
                return batch.residuals(layout.stack(moved))[:, 0]

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

    def test_gradient_matches_robust_cost(self, rng):
        # g = J^T W r is half the gradient of the Huber cost, with patches on
        # both sides of the knee
        window, factors = photometric_window(rng)
        states = window.states
        layout = bk._window_layout(window, factors)
        stack = layout.stack(states)
        res = bk._PhotometricBatch(window, factors, layout).residuals(stack)[:, 0]
        delta = window.huber_delta
        for k, f in enumerate(factors):
            scale = 0.5 if k % 2 == 0 else 3.0  # |r| at scale * delta
            f.info = np.array([[(scale * delta / res[k]) ** 2]])
        batch = bk._PhotometricBatch(window, factors, layout)
        w, _ = batch.weights_cost(res[:, None])
        assert np.any(w == 1.0) and np.any(w < 1.0)

        ndim = layout.ndim
        _, g = bk._normal_equations([batch], stack, None, ndim)

        def cost_at(delta):
            moved = {sid: states[sid].retract(delta[cols[0]:cols[-1] + 1])
                     for sid, cols in layout.cols.items()}
            return bk._cost([batch], layout.stack(moved), None)

        fd = fd_jacobian(cost_at, ndim, None)[0]
        assert jac_close(g, 0.5 * fd, rtol=1e-5)
