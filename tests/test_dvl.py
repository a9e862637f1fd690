import numpy as np
import pytest
from numpy.testing import assert_allclose

from aquafuse.dvl import (DvlExtrinsics, DvlSample, correct_dvl_bias,
                          dvl_position_pair_residuals, dvl_velocity_estimate,
                          dvl_velocity_pair_residuals, preintegrate_dvl,
                          stack_dvl_position_pairs, stack_dvl_velocity_pairs)
from aquafuse.frontend import EstimatorMode, RunConfig, run_estimator
from aquafuse.imu import ImuSample, integrate_imu
from aquafuse.manifold import exp_so3
from aquafuse.sim import ScenarioConfig, sensor_rig_from_config, simulate
from aquafuse.state import BG, BV, PHI, POS, VEL, NavState, stack_states

from helpers import (DvlBias, assert_first_block_skipped, dead_reckon_dvl,
                     dead_reckoning_positions_reference, discrete_imu_world,
                     dvl_samples_from_world, preintegrate_dvl_reference,
                     random_nav_state, random_rotation)

IDENTITY_EXT = DvlExtrinsics(np.eye(3), np.zeros(3))
NOISY = (2e-4, 2e-3)  # (sigma_g, sigma_a)


def velocity_residual(state_i, state_m, gyro_i, gyro_m, meas_i, meas_m, ext,
                      blocks=False):
    """The stacked relative-velocity residual of one pair; with ``blocks``
    also its 3x3 Jacobian blocks by name."""
    readings = (meas_i.vel, meas_m.vel, gyro_i, gyro_m)
    res, jac = dvl_velocity_pair_residuals(
        stack_states([state_i, state_m]), [0], [1],
        stack_dvl_velocity_pairs([readings], ext), ext)
    if not blocks:
        return res[0]
    ji, jm = jac[0, :, 0], jac[0, :, 1]
    return res[0], {"phi_i": ji[:, PHI], "v_i": ji[:, VEL],
                    "phi_m": jm[:, PHI], "v_m": jm[:, VEL]}


def position_residual(state_i, state_m, pre, ext, blocks=False):
    """Rows 0:3 (relative translation) of the stacked DVL position residual
    of one pair; with ``blocks`` also its 3x3 Jacobian blocks by name."""
    res, jac = dvl_position_pair_residuals(
        stack_states([state_i, state_m]), [0], [1],
        stack_dvl_position_pairs([pre]), ext)
    if not blocks:
        return res[0, :3]
    ji, jm = jac[0, :3, 0], jac[0, :3, 1]
    return res[0, :3], {"phi_i": ji[:, PHI], "p_i": ji[:, POS],
                        "bg_i": ji[:, BG], "bv_i": ji[:, BV],
                        "phi_m": jm[:, PHI], "p_m": jm[:, POS]}


def _uniform_dvl(n, dt, vel):
    return [DvlSample(k * dt, vel) for k in range(n)]


def _still_imu(t_end):
    """An IMU preintegration over [0, t_end] of a body at rest: every
    rotation checkpoint is exactly I."""
    samples = [ImuSample(0.01 * k, np.zeros(3), np.zeros(3))
               for k in range(int(round(t_end / 0.01)))]
    return integrate_imu(samples, np.zeros(3), np.zeros(3), t_end=t_end)


def _world_with_dvl(rng, n_imu=100, dvl_every=10, ext=IDENTITY_EXT,
                    bv=np.zeros(3)):
    """Discrete world, its IMU preintegration and DVL samples exactly
    consistent with the world displacements."""
    samples, states, g = discrete_imu_world(rng, n=n_imu)
    t_end = n_imu * 0.01
    pre = integrate_imu(samples, np.zeros(3), np.zeros(3), t_end=t_end)
    dvl_idx = list(range(0, n_imu, dvl_every))
    dvl_times = [k * 0.01 for k in dvl_idx]
    dvl_states = [states[k] for k in dvl_idx] + [states[-1]]
    dvl = dvl_samples_from_world(dvl_states, dvl_times, dvl_every * 0.01,
                                 ext, bias=bv)
    return samples, states, pre, dvl, t_end


class TestDeadReckon:
    def test_straight_line(self):
        samples = _uniform_dvl(10, 0.1, np.array([1.0, 0, 0]))
        rotations = [np.eye(3)] * 10
        p = dead_reckon_dvl(np.zeros(3), rotations, samples, DvlBias.zero(),
                            t_end=1.0)
        assert_allclose(p, [1.0, 0, 0], atol=1e-14)

    def test_bias_cancels_measurement(self):
        vel = np.array([0.3, -0.2, 0.1])
        samples = _uniform_dvl(10, 0.1, vel)
        rotations = [random_rotation(np.random.default_rng(k)) for k in range(10)]
        p0 = np.array([5.0, -2.0, 1.0])
        p = dead_reckon_dvl(p0, rotations, samples, DvlBias(vel), t_end=1.0)
        assert_allclose(p, p0, atol=1e-15)

    def test_quarter_circle_arc(self):
        # left-endpoint sum vs the analytic arc integral: first-order in dt
        n = 1000
        dt = 1e-3
        rotations = [exp_so3([0, 0, np.pi / 2 * k * dt]) for k in range(n)]
        samples = _uniform_dvl(n, dt, np.array([1.0, 0, 0]))
        p = dead_reckon_dvl(np.zeros(3), rotations, samples, DvlBias.zero(),
                            t_end=1.0)
        analytic = np.array([2 / np.pi, 2 / np.pi, 0.0])
        assert np.linalg.norm(p - analytic) < 2e-3

    def test_length_mismatch_rejected(self):
        samples = _uniform_dvl(5, 0.1, np.zeros(3))
        with pytest.raises(ValueError):
            dead_reckon_dvl(np.zeros(3), [np.eye(3)] * 4, samples,
                            DvlBias.zero())


class TestPreintegrate:
    def test_identity_checkpoints_straight_line(self):
        dvl = _uniform_dvl(10, 0.1, np.array([1.0, 0, 0]))
        out = preintegrate_dvl(dvl, _still_imu(1.0), IDENTITY_EXT, np.zeros(3))
        assert_allclose(out.dp, [1.0, 0, 0], atol=1e-14)
        assert (out.t_start, out.t_end) == (0.0, 1.0)

    def test_linearization_bias_cancels(self):
        vel = np.array([1.0, 0, 0])
        dvl = _uniform_dvl(10, 0.1, vel)
        out = preintegrate_dvl(dvl, _still_imu(1.0), IDENTITY_EXT, vel)
        assert_allclose(out.dp, np.zeros(3), atol=1e-15)

    def test_matches_dead_reckoning_oracle(self, rng):
        # the decoupled preintegration and the world-frame dead-reckoned
        # relative translation are the same sum expressed in frame i
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.3)
        for _ in range(20):
            samples, states, pre, dvl, t_end = _world_with_dvl(rng, ext=ext)
            out = preintegrate_dvl(dvl, pre, ext, np.zeros(3))
            r_wi = states[0].R
            rotations = [r_wi @ r @ ext.R_ID
                         for r in pre.rotations_at([s.t for s in dvl])]
            p0 = rng.normal(size=3)
            p_m = dead_reckon_dvl(p0, rotations, dvl, DvlBias.zero(),
                                  t_end=t_end)
            assert np.linalg.norm(out.dp - r_wi.T @ (p_m - p0)) < 1e-12

    def test_empty_samples_rejected(self, rng):
        samples, _, pre, dvl, _ = _world_with_dvl(rng)
        with pytest.raises(ValueError):
            preintegrate_dvl([], pre, IDENTITY_EXT, np.zeros(3))

    def test_negative_noise_rejected(self, rng):
        # squared, -1 would act as 1
        _, _, pre, dvl, _ = _world_with_dvl(rng)
        with pytest.raises(ValueError, match="DVL noise must be nonnegative"):
            preintegrate_dvl(dvl, pre, IDENTITY_EXT, np.zeros(3), sigma_v=-1.0)


class TestAgainstReference:
    """The array form against the per-hold loop of
    ``helpers.preintegrate_dvl_reference``, whose checkpoints are taken at
    the sample times with the first sample moved to the span's start."""

    FIELDS = ("dp", "J_dp_dbv", "J_dp_dbg", "cov", "t_start", "t_end")

    @staticmethod
    def _compare(dvl, pre, ext, bg, bv, sigma_v):
        got = preintegrate_dvl(dvl, pre, ext, bv, sigma_v=sigma_v)
        # the buffer of the loop: the samples holding in the span, the
        # first moved to its start
        held = [s for k, s in enumerate(dvl)
                if s.t < pre.t_end and (k + 1 == len(dvl)
                                        or dvl[k + 1].t > pre.t_start)]
        held[0] = DvlSample(pre.t_start, held[0].vel)
        want = preintegrate_dvl_reference(
            held, pre.checkpoints_at([s.t for s in held]), ext, bg, bv,
            pre.t_end, sigma_v)
        for name in TestAgainstReference.FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b) or np.allclose(
                a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max()), name
        return got

    @staticmethod
    def _setup(rng, n_imu=120):
        samples, _, _ = discrete_imu_world(rng, n=n_imu)
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
        bg, bv = rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.02
        return samples, ext, bg, bv

    @pytest.mark.parametrize("sigma_v", [0.0, 0.02])
    def test_irregular_sample_times(self, rng, sigma_v):
        samples, ext, bg, bv = self._setup(rng)
        pre = integrate_imu(samples, bg, np.zeros(3), *NOISY, t_end=1.2)
        times = np.cumsum(rng.uniform(0.01, 0.2, size=12))
        times = times[times < 1.2] - times[0]
        dvl = [DvlSample(t, rng.normal(size=3)) for t in times]
        self._compare(dvl, pre, ext, bg, bv, sigma_v)

    def test_first_sample_before_the_span(self, rng):
        samples, ext, bg, bv = self._setup(rng)
        pre = integrate_imu(samples[23:], bg, np.zeros(3), *NOISY,
                            t_start=0.234, t_end=0.91)
        dvl = [DvlSample(0.1 * k, rng.normal(size=3)) for k in range(12)]
        got = self._compare(dvl, pre, ext, bg, bv, 0.02)
        assert got.step_t[0] == got.t_start == 0.234
        assert got.last_step.sample_t == 0.9

    def test_zero_length_last_hold(self, rng):
        # a sample at the span's end holds for no time and adds nothing
        samples, ext, bg, bv = self._setup(rng)
        pre = integrate_imu(samples, bg, np.zeros(3), *NOISY, t_end=0.9)
        dvl = [DvlSample(0.1 * k, rng.normal(size=3)) for k in range(10)]
        got = self._compare(dvl, pre, ext, bg, bv, 0.02)
        shorter = preintegrate_dvl(dvl[:-1], pre, ext, bv, sigma_v=0.02)
        assert len(got.step_t) == 9
        for name in self.FIELDS:
            assert np.array_equal(getattr(got, name), getattr(shorter, name))

    def test_zero_noise_leaves_the_covariance_zero(self, rng):
        samples, ext, bg, bv = self._setup(rng)
        pre = integrate_imu(samples, bg, np.zeros(3), t_end=1.2)
        dvl = [DvlSample(0.1 * k, rng.normal(size=3)) for k in range(12)]
        assert not self._compare(dvl, pre, ext, bg, bv, 0.0).cov.any()


class TestTranslationsAt:
    def test_hold_ends_are_the_sums(self, rng):
        _, _, pre, dvl, t_end = _world_with_dvl(rng, dvl_every=7)
        out = preintegrate_dvl(dvl, pre, IDENTITY_EXT, np.zeros(3))
        assert np.array_equal(out.translations_at([0.0]), np.zeros((1, 3)))
        assert_allclose(out.translations_at([t_end])[0], out.dp, atol=1e-15)
        assert_allclose(out.translations_at(out.step_t), out.step_dp,
                        atol=0.0)

    def test_within_a_hold_the_velocity_is_held(self, rng):
        _, _, pre, dvl, _ = _world_with_dvl(rng, dvl_every=10)
        out = preintegrate_dvl(dvl, pre, IDENTITY_EXT, np.zeros(3))
        mid = out.translations_at([0.34])[0]
        assert_allclose(mid, out.step_dp[3] + 0.04 * out.step_vel[3],
                        atol=1e-15)

    def test_outside_the_span_rejected(self, rng):
        _, _, pre, dvl, t_end = _world_with_dvl(rng)
        out = preintegrate_dvl(dvl, pre, IDENTITY_EXT, np.zeros(3))
        with pytest.raises(ValueError):
            out.translations_at([t_end + 1e-6])

    @pytest.mark.parametrize("seed", [4, 7])
    def test_dead_reckoning_matches_the_world_frame_sum(self, seed):
        # the dead-reckoned positions, from body-frame sums, against the
        # world-frame running sum it replaced
        ds = simulate(ScenarioConfig(kind="figure-eight", duration_s=8.0,
                                     seed=seed, bv_const_m_s=(0.01, 0.0, 0.02)))
        result = run_estimator(ds, RunConfig(mode=EstimatorMode.DVL_DEADRECKON))
        gt0 = ds.groundtruth[0]
        times = [f.t for f in ds.frames]
        imu = integrate_imu(ds.imu, gt0.bg, gt0.ba,
                            t_start=times[0], t_end=times[-1])
        want = dead_reckoning_positions_reference(
            ds.dvl, imu, sensor_rig_from_config(ds.config).dvl, gt0.R, gt0.p,
            gt0.bv, times)
        got = np.array([f.nav.p for f in result.frames])
        assert np.abs(got - want).max() < 1e-12


class TestCorrectBias:
    def test_zero_delta_unchanged(self, rng):
        _, _, pre, dvl, _ = _world_with_dvl(rng)
        out = preintegrate_dvl(dvl, pre, IDENTITY_EXT, np.zeros(3))
        assert_allclose(correct_dvl_bias(out, np.zeros(3), np.zeros(3)),
                        out.dp)

    def test_velocity_bias_exact_when_rotations_fixed(self):
        # straight line: identity checkpoints make the bv dependence linear
        dvl = _uniform_dvl(10, 0.1, np.array([0.4, 0.1, 0.0]))
        still = _still_imu(1.0)
        pre = preintegrate_dvl(dvl, still, IDENTITY_EXT, np.zeros(3))
        dbv = np.array([0.05, 0, 0])
        corrected = correct_dvl_bias(pre, np.zeros(3), dbv)
        re_pre = preintegrate_dvl(dvl, still, IDENTITY_EXT, dbv)
        assert_allclose(corrected, re_pre.dp, atol=1e-15)
        assert_allclose(corrected - pre.dp, [-0.05, 0, 0], atol=1e-15)

    def test_gyro_bias_quadratic_remainder(self, rng):
        samples, _, _, dvl, t_end = _world_with_dvl(rng)

        def gap(dbg):
            pre_imu = integrate_imu(samples, np.zeros(3), np.zeros(3),
                                    t_end=t_end)
            pre = preintegrate_dvl(dvl, pre_imu, IDENTITY_EXT, np.zeros(3))
            first_order = correct_dvl_bias(pre, dbg, np.zeros(3))
            re_imu = integrate_imu(samples, dbg, np.zeros(3), t_end=t_end)
            re_pre = preintegrate_dvl(dvl, re_imu, IDENTITY_EXT, np.zeros(3))
            return np.linalg.norm(first_order - re_pre.dp)

        dbg = np.array([0.0, 0.0, 0.02])
        ratio = gap(dbg) / gap(dbg / 2)
        assert 3.5 <= ratio <= 4.5

    def test_velocity_jacobian_closed_form(self, rng):
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
        _, _, imu, dvl, t_end = _world_with_dvl(rng, ext=ext)
        pre = preintegrate_dvl(dvl, imu, ext, np.zeros(3))
        times = [s.t for s in dvl]
        dts = np.diff(times + [t_end])
        closed = -sum(r @ ext.R_ID * dt
                      for r, dt in zip(imu.rotations_at(times), dts))
        assert_allclose(pre.J_dp_dbv, closed, atol=1e-15)

    def test_is_the_pair_residuals_correction(self, rng):
        # a batch of one of the correction in dvl_position_pair_residuals,
        # and the closed form bit for bit
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
        _, _, imu, dvl, _ = _world_with_dvl(rng, ext=ext)
        pre = preintegrate_dvl(dvl, imu, ext, np.zeros(3))
        bg, bv = rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.02
        got = correct_dvl_bias(pre, bg, bv)
        assert np.array_equal(
            got, pre.dp + pre.J_dp_dbv @ bv + pre.J_dp_dbg @ bg)
        state = NavState(np.eye(3), np.zeros(3), np.zeros(3), bg,
                         np.zeros(3), bv)
        res = position_residual(state, state.copy(), pre, IDENTITY_EXT)
        assert np.array_equal(res, -got)


class TestResumeDvl:
    """A preintegration extended frame by frame equals one batch call."""

    FIELDS = ("dp", "J_dp_dbv", "J_dp_dbg", "cov", "t_start", "t_end",
              "lin_bg", "lin_bv", "step_t", "step_dp", "step_vel")

    @staticmethod
    def _setup(rng):
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
        samples, _, _, dvl, t_end = _world_with_dvl(rng, n_imu=100,
                                                    dvl_every=7, ext=ext)
        bg, bv = rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.02
        return ext, samples, dvl, t_end, bg, bv

    @staticmethod
    def _part(dvl, imu_samples, ext, bg, bv, t0, t1, resume=None):
        """Samples holding in [t0, t1), like the tracker's buffer, over the
        IMU preintegration of [0, t1]."""
        samples = [s for k, s in enumerate(dvl)
                   if s.t < t1 and (k + 1 == len(dvl) or dvl[k + 1].t > t0)]
        imu = integrate_imu(imu_samples, bg, np.zeros(3), *NOISY,
                            t_start=0.0, t_end=t1)
        return preintegrate_dvl(samples, imu, ext, bv, sigma_v=0.01,
                                resume=resume)

    def _assert_bitwise(self, got, want):
        for name in self.FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("split", [0.35, 0.37, 0.0701])
    def test_one_resume(self, rng, split):
        # on a sample time (0.35), between samples and just after one
        ext, imu, dvl, t_end, bg, bv = self._setup(rng)
        batch = self._part(dvl, imu, ext, bg, bv, 0.0, t_end)
        first = self._part(dvl, imu, ext, bg, bv, 0.0, split)
        resumed = self._part(dvl, imu, ext, bg, bv, first.step_t[-1], t_end,
                             resume=first)
        self._assert_bitwise(resumed, batch)

    def test_resume_every_few_steps(self, rng):
        ext, imu, dvl, t_end, bg, bv = self._setup(rng)
        ends = np.arange(0.013, t_end, 0.023).tolist() + [t_end]
        run = self._part(dvl, imu, ext, bg, bv, 0.0, ends[0])
        for t1 in ends[1:]:
            run = self._part(dvl, imu, ext, bg, bv, run.step_t[-1], t1,
                             resume=run)
            self._assert_bitwise(run, self._part(dvl, imu, ext, bg, bv, 0.0, t1))

    def test_records_the_gyro_bias_of_its_span(self, rng):
        # its sums are rotated by the span's rotations, so a fresh call and
        # a resume record the span's gyro-bias linearization bit for bit
        ext, imu, dvl, t_end, bg, bv = self._setup(rng)
        spans = [integrate_imu(imu, bg, np.zeros(3), *NOISY, t_start=0.0,
                               t_end=t1) for t1 in (0.5, t_end)]
        first = preintegrate_dvl([s for s in dvl if s.t < 0.5], spans[0], ext,
                                 bv, sigma_v=0.01)
        buffer = [s for s in dvl if first.last_step.sample_t <= s.t]
        resumed = preintegrate_dvl(buffer, spans[1], ext, bv, sigma_v=0.01,
                                   resume=first)
        for pre, span in zip((first, resumed), spans):
            assert np.array_equal(pre.lin_bg, span.lin_bg)

    def test_rejects_other_biases_or_start(self, rng):
        ext, imu, dvl, t_end, bg, bv = self._setup(rng)
        first = self._part(dvl, imu, ext, bg, bv, 0.0, 0.5)
        with pytest.raises(ValueError):
            self._part(dvl, imu, ext, bg, bv + 1e-3, first.step_t[-1], t_end,
                       resume=first)
        with pytest.raises(ValueError):
            self._part(dvl, imu, ext, bg, bv, 0.0, t_end, resume=first)


def _resume_args(rng, sensor, change):
    """A first IMU or DVL preintegration to 0.37 s and a call that resumes
    it to 0.8 s, with ``change`` made to the call: another bias
    linearization (the DVL's, over a span integrated at another gyro bias),
    a start 0.01 s later, a buffer that begins one sample late, or none."""
    ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
    imu, _, _, dvl, _ = _world_with_dvl(rng, n_imu=100, dvl_every=7, ext=ext)
    bg, bv = rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.02
    other = rng.normal(size=3) * 0.01 if change == "bias" else bg
    moved = change == "start"
    first = integrate_imu(imu, bg, np.zeros(3), *NOISY, t_start=0.0,
                          t_end=0.37)
    if sensor == "dvl":
        first = preintegrate_dvl([s for s in dvl if s.t < 0.37], first, ext,
                                 bv)
    buffer = [s for s in (imu if sensor == "imu" else dvl)
              if first.last_step.sample_t <= s.t < 0.8]
    buffer = buffer[1:] if change == "sample" else buffer
    if sensor == "imu":
        return integrate_imu, (buffer, other, np.zeros(3), *NOISY,
                               0.01 if moved else None), \
            dict(t_end=0.8, resume=first)
    span = integrate_imu(imu, other, np.zeros(3), *NOISY,
                         t_start=0.01 if moved else 0.0, t_end=0.8)
    return preintegrate_dvl, (buffer, span, ext, bv), dict(resume=first)


@pytest.mark.parametrize("sensor", ["imu", "dvl"])
@pytest.mark.parametrize("change", ["bias", "start", "sample"])
def test_a_resume_keeps_its_linearization_start_and_sample(rng, sensor,
                                                           change):
    # both preintegrations resume through ``imu.hold_steps``
    fn, args, kwargs = _resume_args(rng, sensor, None)
    fn(*args, **kwargs)
    fn, args, kwargs = _resume_args(rng, sensor, change)
    with pytest.raises(ValueError, match="resumes only"):
        fn(*args, **kwargs)


@pytest.mark.parametrize("change", ["sigma_v", "R_ID", "p_ID"])
def test_a_dvl_resume_keeps_its_noise_and_extrinsics(rng, change):
    # a resume at another velocity noise would sum two noise models in one
    # covariance, and at another mounting two frames in one translation
    ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
    imu, _, _, dvl, _ = _world_with_dvl(rng, n_imu=100, dvl_every=7, ext=ext)
    bg, bv = rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.02

    def span(t_end):
        return integrate_imu(imu, bg, np.zeros(3), *NOISY, t_start=0.0,
                             t_end=t_end)

    first = preintegrate_dvl([s for s in dvl if s.t < 0.37], span(0.37), ext,
                             bv, sigma_v=0.01)
    buffer = [s for s in dvl if first.last_step.sample_t <= s.t < 0.8]
    # equal extrinsics in other arrays resume
    same = DvlExtrinsics(ext.R_ID.copy(), ext.p_ID.copy())
    preintegrate_dvl(buffer, span(0.8), same, bv, sigma_v=0.01, resume=first)
    other, sigma_v = {
        "sigma_v": (same, 0.5),
        "R_ID": (DvlExtrinsics(ext.R_ID @ exp_so3(np.array([0.0, 0.0, 1e-3])),
                               ext.p_ID), 0.01),
        "p_ID": (DvlExtrinsics(ext.R_ID, ext.p_ID + [0.0, 0.0, 1e-3]), 0.01),
    }[change]
    with pytest.raises(ValueError, match="resumes only"):
        preintegrate_dvl(buffer, span(0.8), other, bv, sigma_v=sigma_v,
                         resume=first)


def estimate(state, gyro, ext):
    """``dvl_velocity_estimate`` at one state."""
    return dvl_velocity_estimate(state.R[None], state.v[None], gyro[None], ext)[0]


class TestVelocityEstimate:
    def test_pure_translation(self):
        state = NavState(np.eye(3), np.zeros(3), np.array([1.0, 0, 0]))
        out = estimate(state, np.zeros(3), IDENTITY_EXT)
        assert_allclose(out, [1.0, 0, 0])

    def test_lever_arm(self):
        state = NavState(np.eye(3), np.zeros(3), np.zeros(3))
        ext = DvlExtrinsics(np.eye(3), np.array([0, 1.0, 0]))
        out = estimate(state, np.array([0, 0, 1.0]), ext)
        assert_allclose(out, [-1.0, 0, 0], atol=1e-15)

    def test_lever_arm_rotated_frame(self):
        state = NavState(np.eye(3), np.zeros(3), np.zeros(3))
        ext = DvlExtrinsics(exp_so3([0, 0, np.pi / 2]), np.array([0, 1.0, 0]))
        out = estimate(state, np.array([0, 0, 1.0]), ext)
        assert_allclose(out, [0, 1.0, 0], atol=1e-15)


class TestVelocityResidual:
    def test_identical_states_and_measurements(self, rng):
        state = random_nav_state(rng)
        gyro = rng.normal(size=3)
        meas = DvlSample(0.0, rng.normal(size=3))
        res = velocity_residual(state, state, gyro, gyro, meas, meas,
                                IDENTITY_EXT)
        assert_allclose(res, np.zeros(3))

    def test_common_offset_invariance_exact(self, rng):
        # dyadic values keep the cancellation bit-exact
        si, sm = random_nav_state(rng), random_nav_state(rng)
        gi, gm = rng.normal(size=3), rng.normal(size=3)
        vi = np.array([0.5, -0.25, 0.125])
        vm = np.array([1.5, 0.75, -0.5])
        offset = np.array([2.0, -4.0, 8.0])
        base = velocity_residual(si, sm, gi, gm, DvlSample(0, vi),
                                 DvlSample(1, vm), IDENTITY_EXT)
        shifted = velocity_residual(si, sm, gi, gm,
                                    DvlSample(0, vi + offset),
                                    DvlSample(1, vm + offset),
                                    IDENTITY_EXT)
        assert (base == shifted).all()

    def test_simulated_consistency(self, rng):
        # measurements generated from the states themselves
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
        si, sm = random_nav_state(rng), random_nav_state(rng)
        gi, gm = rng.normal(size=3), rng.normal(size=3)
        meas_i = DvlSample(0.0, estimate(si, gi, ext))
        meas_m = DvlSample(1.0, estimate(sm, gm, ext))
        res = velocity_residual(si, sm, gi, gm, meas_i, meas_m, ext)
        assert np.abs(res).max() < 1e-10

    def test_jacobians_match_finite_differences(self, rng):
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
        for _ in range(20):
            si, sm = random_nav_state(rng), random_nav_state(rng)
            gi, gm = rng.normal(size=3), rng.normal(size=3)
            meas_i = DvlSample(0.0, rng.normal(size=3))
            meas_m = DvlSample(1.0, rng.normal(size=3))
            _, jac = velocity_residual(si, sm, gi, gm, meas_i, meas_m, ext,
                                       blocks=True)
            h = 1e-6
            for key, state, which, slot in (("phi_i", si, "i", 0),
                                            ("v_i", si, "i", 6),
                                            ("phi_m", sm, "m", 0),
                                            ("v_m", sm, "m", 6)):
                fd = np.zeros((3, 3))
                for d in range(3):
                    dv = np.zeros(18)
                    dv[slot + d] = h
                    sp, smn = state.retract(dv), state.retract(-dv)
                    if which == "i":
                        rp = velocity_residual(sp, sm, gi, gm, meas_i,
                                               meas_m, ext)
                        rm = velocity_residual(smn, sm, gi, gm, meas_i,
                                               meas_m, ext)
                    else:
                        rp = velocity_residual(si, sp, gi, gm, meas_i,
                                               meas_m, ext)
                        rm = velocity_residual(si, smn, gi, gm, meas_i,
                                               meas_m, ext)
                    fd[:, d] = (rp - rm) / (2 * h)
                scale = max(np.abs(fd).max(), 1.0)
                assert np.abs(jac[key] - fd).max() < 1e-5 * scale, key

    def test_first_state_block_off(self, rng):
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
        readings = rng.normal(size=(3, 4, 3))
        states = [random_nav_state(rng) for _ in range(6)]
        assert_first_block_skipped(
            dvl_velocity_pair_residuals, stack_states(states), [0, 2, 4],
            [1, 3, 5], stack_dvl_velocity_pairs(readings, ext), ext)


class TestPositionResidual:
    def _consistent_pair(self, rng, ext):
        samples, states, pre, dvl, t_end = _world_with_dvl(rng, ext=ext)
        out = preintegrate_dvl(dvl, pre, ext, np.zeros(3))
        return states[0], states[-1], out

    def test_noiseless_consistency(self, rng):
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.3)
        si, sm, pre = self._consistent_pair(rng, ext)
        res = position_residual(si, sm, pre, ext)
        assert np.abs(res).max() < 1e-9

    def test_translation_perturbation(self, rng):
        ext = DvlExtrinsics(np.eye(3), np.zeros(3))
        si, sm, pre = self._consistent_pair(rng, ext)
        si.R = np.eye(3)
        base = position_residual(si, sm, pre, ext)
        sm2 = sm.copy()
        sm2.p = sm.p + np.array([0.1, 0, 0])
        shifted = position_residual(si, sm2, pre, ext)
        assert_allclose(shifted - base, [0.1, 0, 0], atol=1e-12)

    def test_pure_rotation_isolates_lever_arm(self, rng):
        # equal positions, different attitudes: only the lever-arm term stays
        ext = DvlExtrinsics(np.eye(3), np.array([0.2, -0.1, 0.3]))
        si = random_nav_state(rng)
        si.bg = np.zeros(3)
        si.bv = np.zeros(3)
        sm = si.copy()
        sm.R = si.R @ exp_so3([0.0, 0.0, 0.4])
        zero_pre = preintegrate_dvl([DvlSample(0.0, np.zeros(3))],
                                    _still_imu(1.0), ext,
                                    np.zeros(3))
        res = position_residual(si, sm, zero_pre, ext)
        expected = si.R.T @ (sm.R @ ext.p_ID - si.R @ ext.p_ID)
        assert_allclose(res, expected, atol=1e-14)

    def test_bias_correction_enters_residual(self, rng):
        ext = DvlExtrinsics(np.eye(3), np.zeros(3))
        si, sm, pre = self._consistent_pair(rng, ext)
        si2 = si.copy()
        si2.bv = si.bv + np.array([0.01, 0, 0])
        base = position_residual(si, sm, pre, ext)
        shifted = position_residual(si2, sm, pre, ext)
        assert_allclose(shifted - base, -pre.J_dp_dbv @ [0.01, 0, 0],
                        atol=1e-14)

    def test_jacobians_match_finite_differences(self, rng):
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
        for _ in range(15):
            si, sm, pre = self._consistent_pair(rng, ext)
            sm.p += rng.normal(size=3) * 0.05
            _, jac = position_residual(si, sm, pre, ext, blocks=True)
            h = 1e-6
            for key, state, which, slot in (("phi_i", si, "i", 0),
                                            ("p_i", si, "i", 3),
                                            ("bg_i", si, "i", 9),
                                            ("bv_i", si, "i", 15),
                                            ("phi_m", sm, "m", 0),
                                            ("p_m", sm, "m", 3)):
                fd = np.zeros((3, 3))
                for d in range(3):
                    dv = np.zeros(18)
                    dv[slot + d] = h
                    sp, smn = state.retract(dv), state.retract(-dv)
                    if which == "i":
                        rp = position_residual(sp, sm, pre, ext)
                        rm = position_residual(smn, sm, pre, ext)
                    else:
                        rp = position_residual(si, sp, pre, ext)
                        rm = position_residual(si, smn, pre, ext)
                    fd[:, d] = (rp - rm) / (2 * h)
                scale = max(np.abs(fd).max(), 1.0)
                assert np.abs(jac[key] - fd).max() < 1e-5 * scale, key

    def test_first_state_block_off(self, rng):
        # random biases at state i move the preintegrations off their
        # linearization, so the bias correction runs
        ext = DvlExtrinsics(random_rotation(rng), rng.normal(size=3) * 0.2)
        pre = [self._consistent_pair(rng, ext)[2] for _ in range(3)]
        states = [random_nav_state(rng) for _ in range(6)]
        assert_first_block_skipped(
            dvl_position_pair_residuals, stack_states(states), [0, 2, 4],
            [1, 3, 5], stack_dvl_position_pairs(pre), ext)

