import numpy as np
import pytest
from numpy.testing import assert_allclose

import aquafuse.imu as imu
import aquafuse.manifold as manifold
from aquafuse.imu import (ImuBias, ImuNoiseSpec, ImuSample, correct_imu_bias,
                          hold_intervals, imu_pair_residuals, integrate_imu,
                          predict_state_imu, stack_imu_pairs)
from aquafuse.manifold import SMALL_ANGLE, exp_so3, log_so3
from aquafuse.state import BA, BG, PHI, POS, STATE_DOF, VEL, NavState, stack_states

from helpers import (checkpoint_reference, discrete_imu_world,
                     hold_intervals_reference, integrate_imu_reference,
                     random_nav_state)

QUIET = ImuNoiseSpec()
NOISY = ImuNoiseSpec(sigma_g=2e-4, sigma_a=2e-3)


def residual(state_i, state_j, pre, gravity, with_jacobians=False):
    """Rows 0:9 (rotation, velocity, translation) of the stacked inertial
    residual of one pair; with Jacobians also its 9x3 blocks by name."""
    res, jac = imu_pair_residuals(stack_states([state_i, state_j]), [0], [1],
                                  stack_imu_pairs([pre]), gravity, with_jacobians)
    if not with_jacobians:
        return res[0, :9]
    ji, jj = jac[0, :9, 0], jac[0, :9, 1]
    return res[0, :9], {"phi_i": ji[:, PHI], "p_i": ji[:, POS], "v_i": ji[:, VEL],
                        "bg_i": ji[:, BG], "ba_i": ji[:, BA], "phi_j": jj[:, PHI],
                        "p_j": jj[:, POS], "v_j": jj[:, VEL]}


def _uniform_samples(n, dt, gyro, accel):
    return [ImuSample(k * dt, gyro, accel) for k in range(n)]


class TestIntegrateImu:
    def test_zero_samples_over_one_second(self):
        samples = _uniform_samples(100, 0.01, np.zeros(3), np.zeros(3))
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=1.0)
        assert_allclose(pre.dR, np.eye(3))
        assert_allclose(pre.dv, np.zeros(3))
        assert_allclose(pre.dp, np.zeros(3))
        assert pre.dt_total == pytest.approx(1.0)

    def test_constant_acceleration_closed_form(self):
        # the discrete left sum telescopes to a*T and a*T^2/2 exactly
        samples = _uniform_samples(100, 0.01, np.zeros(3), np.array([1.0, 0, 0]))
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=1.0)
        assert_allclose(pre.dv, [1.0, 0, 0], atol=1e-14)
        assert_allclose(pre.dp, [0.5, 0, 0], atol=1e-14)

    def test_constant_rate_closed_form(self):
        samples = _uniform_samples(100, 0.01, np.array([0, 0, np.pi / 2]),
                                   np.zeros(3))
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=1.0)
        assert_allclose(pre.dR, exp_so3([0, 0, np.pi / 2]), atol=1e-9)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty IMU sample buffer"):
            integrate_imu([], ImuBias.zero(), QUIET, t_end=1.0)

    def test_non_monotone_timestamps_rejected(self):
        samples = [ImuSample(0.0, np.zeros(3), np.zeros(3)),
                   ImuSample(0.0, np.zeros(3), np.zeros(3))]
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate_imu(samples, ImuBias.zero(), QUIET, t_end=1.0)

    def test_dt_total_matches_span(self, rng):
        samples, _, _ = discrete_imu_world(rng, n=37)
        pre = integrate_imu(samples, ImuBias.zero(), QUIET,
                            t_start=0.0, t_end=0.37)
        assert pre.dt_total == pytest.approx(0.37)

    def test_covariance_trace_grows_with_samples(self, rng):
        samples, _, _ = discrete_imu_world(rng, n=80)
        traces = []
        for n in (20, 40, 80):
            pre = integrate_imu(samples[:n], ImuBias.zero(), NOISY,
                                t_end=n * 0.01)
            traces.append(np.trace(pre.cov))
        assert traces[0] < traces[1] < traces[2]

    def test_covariance_symmetric_psd(self, rng):
        samples, _, _ = discrete_imu_world(rng, n=60)
        pre = integrate_imu(samples, ImuBias.zero(), NOISY, t_end=0.6)
        assert_allclose(pre.cov, pre.cov.T, atol=1e-18)
        assert np.linalg.eigvalsh(pre.cov).min() >= -1e-18


def _hold_slice(samples, t0, t1):
    """The samples a zero-order hold over [t0, t1] reads: from the one
    holding at t0 (or the first) up to the last one before t1."""
    times = np.array([s.t for s in samples])
    i0 = max(int(np.searchsorted(times, t0, side="right")) - 1, 0)
    i1 = int(np.searchsorted(times, t1, side="left"))
    return samples[i0:max(i1, i0 + 1)]


def _assert_same_bits(a, b, probe_times):
    for name in ("dR", "dv", "dp", "cov", "J_dR_dbg", "J_dv_dbg", "J_dv_dba",
                 "J_dp_dbg", "J_dp_dba", "step_t", "step_omega", "step_dR",
                 "step_J", "step_phi_cov"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.t_start, a.t_end, a.dt_total) == (b.t_start, b.t_end, b.dt_total)
    ca, cb = a.checkpoints_at(probe_times), b.checkpoints_at(probe_times)
    for name in ("rotations", "bias_jacobians", "phi_covs"):
        assert np.array_equal(getattr(ca, name), getattr(cb, name)), name


class TestResumeImu:
    """Extending a preintegration equals integrating the whole span at once,
    bit for bit."""

    BIAS = ImuBias(np.array([0.003, -0.002, 0.001]),
                   np.array([0.02, 0.01, -0.03]))

    def _check(self, rng, t_start, ends):
        samples, _, _ = discrete_imu_world(rng, n=150)
        pre = integrate_imu(_hold_slice(samples, t_start, ends[0]), self.BIAS,
                            NOISY, t_start=t_start, t_end=ends[0])
        for t_end in ends[1:]:
            pre = integrate_imu(_hold_slice(samples, pre.step_t[-1], t_end),
                                self.BIAS, NOISY, t_end=t_end, resume=pre)
            batch = integrate_imu(_hold_slice(samples, t_start, t_end),
                                  self.BIAS, NOISY, t_start=t_start,
                                  t_end=t_end)
            probes = np.linspace(t_start, t_end, 23)
            _assert_same_bits(pre, batch, probes)

    def test_split_at_a_sample_time(self, rng):
        # 0.2 is the timestamp of sample 20: the step before it is complete
        self._check(rng, 0.0, [0.2, 0.6])

    def test_split_between_samples(self, rng):
        self._check(rng, 0.0123, [0.2345, 0.81])

    def test_many_resumes_in_a_row(self, rng):
        # camera-rate ends, some on sample times and some between them
        self._check(rng, 0.1, [0.1 + k / 15.0 for k in range(1, 18)]
                    + [1.3, 1.31, 1.4])

    def test_first_step_extended_back(self, rng):
        # the buffer starts at 0: the first hold reaches back to -0.005,
        # and the first resume integrates that step again
        self._check(rng, -0.005, [0.004, 0.008, 0.0123, 0.5])

    def test_rejects_a_buffer_from_the_wrong_sample(self, rng):
        samples, _, _ = discrete_imu_world(rng, n=50)
        pre = integrate_imu(samples[:21], self.BIAS, NOISY, t_start=0.0,
                            t_end=0.2)
        # the last step holds sample 19: a buffer from sample 20 is too late
        with pytest.raises(ValueError):
            integrate_imu(samples[20:40], self.BIAS, NOISY, t_end=0.4,
                          resume=pre)

    def test_rejects_another_bias_or_start(self, rng):
        samples, _, _ = discrete_imu_world(rng, n=50)
        pre = integrate_imu(samples[:21], self.BIAS, NOISY, t_start=0.0,
                            t_end=0.2)
        with pytest.raises(ValueError):
            integrate_imu(samples[19:40], ImuBias.zero(), NOISY, t_end=0.4,
                          resume=pre)
        with pytest.raises(ValueError):
            integrate_imu(samples[19:40], self.BIAS, NOISY, t_start=0.0,
                          t_end=0.4, resume=pre)


def _assert_rel(got, want, name, rtol=1e-12):
    """Agreement to ``rtol`` relative to the largest entry of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, name
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert float(np.abs(got - want).max(initial=0.0)) <= rtol * scale, name


_PREINT_FIELDS = ("dR", "dv", "dp", "J_dR_dbg", "J_dv_dbg", "J_dv_dba",
                  "J_dp_dbg", "J_dp_dba", "cov", "step_t", "step_omega",
                  "step_dR", "step_J", "step_phi_cov")


class TestAgainstPerStepReference:
    """The array-coded integrator equals the per-step loop it replaced, to
    1e-12 relative, on every output."""

    BIAS = ImuBias(np.array([0.003, -0.002, 0.001]),
                   np.array([0.02, 0.01, -0.03]))

    @staticmethod
    def _samples(rng, times, omega_scale=0.4):
        return [ImuSample(t, rng.normal(size=3) * omega_scale,
                          rng.normal(size=3) + [0.0, 0.0, -9.81]) for t in times]

    def _check(self, samples, t_start, t_end, noise=NOISY):
        got = integrate_imu(samples, self.BIAS, noise, t_start=t_start,
                            t_end=t_end)
        want = integrate_imu_reference(samples, self.BIAS, noise, t_start, t_end)
        for name in _PREINT_FIELDS:
            _assert_rel(getattr(got, name), getattr(want, name), name)
        return got

    def test_irregular_steps(self, rng):
        times = np.cumsum(rng.uniform(0.002, 0.03, size=120))
        self._check(self._samples(rng, times), float(times[0]),
                    float(times[-1]) + 0.01)

    def test_first_sample_precedes_the_start(self, rng):
        times = np.arange(80) * 0.01
        pre = self._check(self._samples(rng, times), 0.0137, 0.6543)
        assert pre.step_t[0] == 0.0137

    def test_small_angle_steps(self, rng):
        # rates below SMALL_ANGLE / dt take the series branch, mixed with
        # steps on the closed form
        samples = self._samples(rng, np.arange(60) * 0.01)
        for k in range(0, 60, 2):
            samples[k] = ImuSample(samples[k].t, self.BIAS.bg
                                   + rng.normal(size=3) * 1e-8, samples[k].accel)
        pre = self._check(samples, 0.0, 0.6)
        angles = np.linalg.norm(pre.step_omega, axis=1) * 0.01
        assert np.count_nonzero(angles < SMALL_ANGLE) == 30

    def test_steps_near_one_radian(self, rng):
        times = np.arange(40) * 0.01
        pre = self._check(self._samples(rng, times, omega_scale=60.0), 0.0, 0.4)
        angles = np.linalg.norm(pre.step_omega, axis=1) * 0.01
        assert angles.max() > 0.9

    def test_zero_noise(self, rng):
        # no covariance is propagated: it stays zero, and every other output
        # is that of a noisy integration, bit for bit
        times = np.cumsum(rng.uniform(0.002, 0.03, size=120))
        samples = self._samples(rng, times)
        span = (float(times[0]), float(times[-1]) + 0.01)
        pre = self._check(samples, *span, noise=QUIET)
        for cov in (pre.cov, pre.step_phi_cov, pre.last_step.cov):
            assert not cov.any()
        noisy = integrate_imu(samples, self.BIAS, NOISY, t_start=span[0],
                              t_end=span[1])
        for name in _PREINT_FIELDS:
            if "cov" not in name:
                assert np.array_equal(getattr(pre, name),
                                      getattr(noisy, name)), name

    def test_checkpoints_on_between_and_just_after_steps(self, rng):
        times = np.cumsum(rng.uniform(0.005, 0.02, size=50))
        pre = integrate_imu(self._samples(rng, times), self.BIAS, NOISY,
                            t_start=float(times[0]), t_end=float(times[-1]))
        steps = pre.step_t
        probes = np.concatenate([
            steps,                                  # on a step
            0.5 * (steps[:-1] + steps[1:]),         # between two steps
            steps[:-1] + 5e-10,                     # within the 1e-9 s tolerance
            steps[:-1] + 3e-9,                      # just past it
            [pre.t_end]])
        got = pre.checkpoints_at(probes)
        assert np.array_equal(got.times, probes)
        for i, s in enumerate(probes):
            want = checkpoint_reference(pre, float(s))
            for name, value in zip(("rotations", "bias_jacobians", "phi_covs"),
                                   want):
                _assert_rel(getattr(got, name)[i], value, name)
            assert np.array_equal(pre.rotations_at([s])[0], got.rotations[i])
        one = pre.checkpoints_at([float(probes[60])])
        assert np.array_equal(one.rotations[0], got.rotations[60])

    def test_checkpoints_outside_the_span_rejected(self, rng):
        samples = self._samples(rng, np.arange(20) * 0.01)
        pre = integrate_imu(samples, self.BIAS, NOISY, t_start=0.0, t_end=0.2)
        for bad in (-0.01, 0.21):
            with pytest.raises(ValueError):
                pre.checkpoints_at([0.1, bad])

    @pytest.mark.parametrize("t_start,t_end", [(0.0, 0.5), (0.013, 0.377),
                                               (-0.02, 0.05), (0.3, 0.3),
                                               (0.6, 0.9)])
    def test_hold_intervals_match_the_per_sample_loop(self, t_start, t_end):
        times = np.array([0.0, 0.01, 0.025, 0.03, 0.07, 0.2, 0.41])
        got = hold_intervals(times, t_start, t_end)
        want = hold_intervals_reference(times, t_start, t_end)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_hold_intervals_of_an_empty_buffer(self):
        idx, starts, dts = hold_intervals(np.zeros(0), 0.0, 1.0)
        assert len(idx) == len(starts) == len(dts) == 0


class TestWorkCount:
    """The step terms are array calls: no scalar SO(3) map runs per step or
    per checkpoint, and the batched ones run a fixed number of times."""

    def test_closed_forms_run_once_per_call_not_per_step(self, rng, monkeypatch):
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("exp_so3", "right_jacobian_so3", "exp_so3_batch",
                     "right_jacobian_so3_batch"):
            wrapped = counted(name, getattr(manifold, name))
            monkeypatch.setattr(manifold, name, wrapped)
            if hasattr(imu, name):
                monkeypatch.setattr(imu, name, wrapped)
        samples = [ImuSample(k * 0.01, rng.normal(size=3), rng.normal(size=3))
                   for k in range(6000)]
        pre = integrate_imu(samples, ImuBias.zero(), NOISY, t_end=60.0)
        # on and between steps
        pre.checkpoints_at(np.linspace(0.0, 59.9, 600) + 0.003 * (np.arange(600) % 2))
        assert len(pre.step_t) == 6000
        assert calls.get("exp_so3", 0) + calls.get("right_jacobian_so3", 0) == 0
        assert calls["exp_so3_batch"] == 2
        assert calls["right_jacobian_so3_batch"] == 2


class TestCorrectBias:
    def test_zero_delta_is_identity(self, rng):
        samples, _, _ = discrete_imu_world(rng, n=50)
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=0.5)
        d_r, dv, dp = correct_imu_bias(pre, ImuBias.zero())
        assert_allclose(d_r, pre.dR)
        assert_allclose(dv, pre.dv)
        assert_allclose(dp, pre.dp)

    def test_accel_bias_linear_case_exact(self):
        # straight line: with dR constant the accel-bias dependence is linear,
        # so the first-order update equals full re-integration
        samples = _uniform_samples(100, 0.01, np.zeros(3), np.array([1.0, 0, 0]))
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=1.0)
        new_bias = ImuBias(np.zeros(3), np.array([0.01, 0, 0]))
        _, dv, dp = correct_imu_bias(pre, new_bias)
        re_pre = integrate_imu(samples, new_bias, QUIET, t_end=1.0)
        assert_allclose(dv, re_pre.dv, atol=1e-14)
        assert_allclose(dp, re_pre.dp, atol=1e-14)

    def test_gyro_bias_quadratic_remainder(self, rng):
        samples, _, _ = discrete_imu_world(rng, n=100)

        def gap(delta_bg):
            pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=1.0)
            bias = ImuBias(delta_bg, np.zeros(3))
            d_r, dv, dp = correct_imu_bias(pre, bias)
            exact = integrate_imu(samples, bias, QUIET, t_end=1.0)
            return np.linalg.norm(dp - exact.dp) \
                + np.linalg.norm(dv - exact.dv) \
                + np.linalg.norm(log_so3(exact.dR.T @ d_r))

        delta = np.array([0.015, -0.01, 0.02])
        ratio = gap(delta) / gap(delta / 2)
        assert 3.5 <= ratio <= 4.5

    def test_equals_the_pair_residuals_correction(self, rng):
        samples, _, _ = discrete_imu_world(rng, n=80)
        lin = ImuBias(rng.normal(size=3) * 1e-3, rng.normal(size=3) * 1e-2)
        pre = integrate_imu(samples, lin, NOISY, t_end=0.8)
        bias = ImuBias(lin.bg + [0.004, -0.002, 0.003],
                       lin.ba + [0.02, 0.01, -0.03])
        d_r, dv, dp = correct_imu_bias(pre, bias)
        # the first-order update, term by term
        dbg, dba = bias.bg - lin.bg, bias.ba - lin.ba
        assert_allclose(d_r, pre.dR @ exp_so3(pre.J_dR_dbg @ dbg), atol=1e-15)
        assert_allclose(dv, pre.dv + pre.J_dv_dbg @ dbg + pre.J_dv_dba @ dba,
                        atol=1e-15)
        assert_allclose(dp, pre.dp + pre.J_dp_dbg @ dbg + pre.J_dp_dba @ dba,
                        atol=1e-15)
        # the state it predicts from an identity state at the new biases
        # zeroes the pair residual, which corrects to the same biases
        g = np.array([0.0, 0.0, 9.81])
        s_i = NavState(np.eye(3), np.zeros(3), np.zeros(3), bias.bg, bias.ba)
        s_j = NavState(d_r, 0.5 * g * pre.dt_total**2 + dp, g * pre.dt_total + dv,
                       bias.bg, bias.ba)
        assert_allclose(residual(s_i, s_j, pre, g), np.zeros(9), atol=1e-14)
        # and a batch of one is that batch's row
        two = stack_imu_pairs([pre, pre])
        rows = imu.correct_imu_bias_batch(
            two, np.tile(np.concatenate([bias.bg, bias.ba]), (2, 1)))
        assert np.array_equal(rows[0][1], d_r)
        assert np.array_equal(rows[1][1], np.concatenate([dv, dp]))


class TestPredict:
    def test_zero_preint_zero_gravity(self, rng):
        samples = _uniform_samples(10, 0.01, np.zeros(3), np.zeros(3))
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=0.1)
        state = random_nav_state(rng)
        state.v = np.zeros(3)
        state.bg = np.zeros(3)
        state.ba = np.zeros(3)
        out = predict_state_imu(state, pre, np.zeros(3))
        assert_allclose(out.R, state.R)
        assert_allclose(out.p, state.p)
        assert_allclose(out.v, state.v)

    def test_free_fall(self):
        samples = _uniform_samples(100, 0.01, np.zeros(3), np.zeros(3))
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=1.0)
        state = NavState(np.eye(3), np.zeros(3), np.zeros(3))
        out = predict_state_imu(state, pre, [0, 0, 9.81])
        assert_allclose(out.p, [0, 0, 4.905], atol=1e-12)
        assert_allclose(out.v, [0, 0, 9.81], atol=1e-12)

    def test_predict_residual_duality(self, rng):
        samples, _, g = discrete_imu_world(rng, n=70)
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=0.7)
        state_i = random_nav_state(rng)
        state_j = predict_state_imu(state_i, pre, g)
        res = residual(state_i, state_j, pre, g)
        assert np.abs(res).max() < 1e-12

    def test_reproduces_discrete_world(self, rng):
        # ten seconds of piecewise-constant truth
        bias = ImuBias(np.array([0.002, -0.001, 0.003]),
                       np.array([0.02, 0.01, -0.015]))
        samples, states, g = discrete_imu_world(rng, n=1000, bias=bias)
        pre = integrate_imu(samples, bias, QUIET, t_end=10.0)
        start = states[0]
        start.bg, start.ba = bias.bg.copy(), bias.ba.copy()
        out = predict_state_imu(start, pre, g)
        truth = states[-1]
        assert np.linalg.norm(out.p - truth.p) < 1e-6
        assert np.linalg.norm(log_so3(truth.R.T @ out.R)) < 1e-6
        assert np.linalg.norm(out.v - truth.v) < 1e-6


class TestResidual:
    def test_consistent_states_zero(self, rng):
        samples, _, g = discrete_imu_world(rng, n=40)
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=0.4)
        si = random_nav_state(rng)
        sj = predict_state_imu(si, pre, g)
        assert np.abs(residual(si, sj, pre, g)).max() < 1e-10

    def test_position_perturbation_direct(self, rng):
        samples, _, g = discrete_imu_world(rng, n=40)
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=0.4)
        si = random_nav_state(rng)
        si.R = np.eye(3)
        sj = predict_state_imu(si, pre, g)
        base = residual(si, sj, pre, g)
        sj_shift = sj.copy()
        sj_shift.p = sj.p + np.array([0.1, 0, 0])
        shifted = residual(si, sj_shift, pre, g)
        assert_allclose(shifted[6:9] - base[6:9], [0.1, 0, 0], atol=1e-12)

    def test_rotation_perturbation_small_angle(self, rng):
        samples, _, g = discrete_imu_world(rng, n=40)
        pre = integrate_imu(samples, ImuBias.zero(), QUIET, t_end=0.4)
        si = random_nav_state(rng)
        sj = predict_state_imu(si, pre, g)
        sj.R = sj.R @ exp_so3([0, 0, 1e-4])
        res = residual(si, sj, pre, g)
        assert_allclose(res[0:3], [0, 0, 1e-4], atol=1e-8)

    def test_jacobians_match_finite_differences(self, rng):
        g = np.array([0.0, 0.0, 9.81])
        for _ in range(20):
            samples, _, _ = discrete_imu_world(rng, n=30)
            pre = integrate_imu(samples, ImuBias.zero(), NOISY, t_end=0.3)
            si = random_nav_state(rng)
            sj = predict_state_imu(si, pre, g)
            sj.p += rng.normal(size=3) * 0.05
            sj.R = sj.R @ exp_so3(rng.normal(size=3) * 0.02)
            _, jac = residual(si, sj, pre, g, with_jacobians=True)
            h = 1e-6
            for key, state, slot in (("phi_i", si, 0), ("p_i", si, 3),
                                     ("v_i", si, 6), ("bg_i", si, 9),
                                     ("ba_i", si, 12), ("phi_j", sj, 0),
                                     ("p_j", sj, 3), ("v_j", sj, 6)):
                fd = np.zeros((9, 3))
                for d in range(3):
                    dv = np.zeros(STATE_DOF)
                    dv[slot + d] = h
                    sp = state.retract(dv)
                    sm = state.retract(-dv)
                    if state is si:
                        rp = residual(sp, sj, pre, g)
                        rm = residual(sm, sj, pre, g)
                    else:
                        rp = residual(si, sp, pre, g)
                        rm = residual(si, sm, pre, g)
                    fd[:, d] = (rp - rm) / (2 * h)
                scale = max(np.abs(fd).max(), 1.0)
                assert np.abs(jac[key] - fd).max() < 1e-5 * scale, key
