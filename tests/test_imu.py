import numpy as np
import pytest
from numpy.testing import assert_allclose

from aquafuse.imu import (ImuBias, ImuNoiseSpec, ImuSample, correct_imu_bias,
                          imu_pair_residuals, integrate_imu, predict_state_imu,
                          stack_imu_pairs)
from aquafuse.manifold import exp_so3, log_so3
from aquafuse.state import BA, BG, PHI, POS, STATE_DOF, VEL, NavState, stack_states

from helpers import discrete_imu_world, random_nav_state

QUIET = ImuNoiseSpec()
NOISY = ImuNoiseSpec(sigma_g=2e-4, sigma_a=2e-3,
                     sigma_bg_walk=1e-5, sigma_ba_walk=1e-4)


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
        with pytest.raises(ValueError):
            integrate_imu([], ImuBias.zero(), QUIET)

    def test_non_monotone_timestamps_rejected(self):
        samples = [ImuSample(0.0, np.zeros(3), np.zeros(3)),
                   ImuSample(0.0, np.zeros(3), np.zeros(3))]
        with pytest.raises(ValueError):
            integrate_imu(samples, ImuBias.zero(), QUIET)

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
