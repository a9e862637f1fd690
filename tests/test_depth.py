import numpy as np
from numpy.testing import assert_allclose

from aquafuse.depth import (DepthExtrinsics, PressureSample,
                            pressure_pair_residuals, pressure_position_estimate)
from aquafuse.manifold import exp_so3
from aquafuse.state import PHI, POS, NavState, stack_states

from helpers import assert_first_block_skipped, random_nav_state

NO_LEVER = DepthExtrinsics(np.zeros(3))


def residual(state_i, state_n, meas_i, meas_n, ext, blocks=False):
    """The stacked relative-depth residual of one pair, as a float; with
    ``blocks`` also its 1x3 Jacobian blocks by name."""
    res, jac = pressure_pair_residuals(
        stack_states([state_i, state_n]), [0], [1],
        np.array([[meas_n.depth - meas_i.depth]]), ext)
    if not blocks:
        return float(res[0, 0])
    ji, jn = jac[0, :, 0], jac[0, :, 1]
    return res[0], {"phi_i": ji[:, PHI], "p_i": ji[:, POS],
                    "phi_n": jn[:, PHI], "p_n": jn[:, POS]}


def position(state, ext):
    """``pressure_position_estimate`` at one state."""
    return pressure_position_estimate(state.R[None], state.p[None], ext)[0]


class TestPositionEstimate:
    def test_zero_lever_arm(self, rng):
        state = random_nav_state(rng)
        assert_allclose(position(state, NO_LEVER), state.p)

    def test_pure_translation(self):
        state = NavState(np.eye(3), np.array([1.0, 1.0, 5.0]), np.zeros(3))
        ext = DepthExtrinsics([0, 0, 0.2])
        assert_allclose(position(state, ext),
                        [1.0, 1.0, 5.2])

    def test_rotated_lever_arm(self, rng):
        state = random_nav_state(rng)
        state.R = exp_so3([np.pi / 2, 0, 0])
        ext = DepthExtrinsics([0, 0.2, 0])
        assert_allclose(position(state, ext),
                        state.p + [0, 0, 0.2], atol=1e-15)


class TestResidual:
    def test_identical_states_and_measurements(self, rng):
        state = random_nav_state(rng)
        meas = PressureSample(0.0, 4.2)
        assert residual(state, state, meas, meas, NO_LEVER) == 0.0

    def test_direct_depth_change(self):
        si = NavState(np.eye(3), np.zeros(3), np.zeros(3))
        sn = NavState(np.eye(3), np.array([0, 0, 1.0]), np.zeros(3))
        full = residual(si, sn, PressureSample(0, 2.0),
                        PressureSample(1, 3.0), NO_LEVER)
        assert full == 0.0
        short = residual(si, sn, PressureSample(0, 2.0),
                         PressureSample(1, 2.8), NO_LEVER)
        assert np.isclose(short, 0.2)

    def test_common_offset_invariance_exact(self, rng):
        si, sn = random_nav_state(rng), random_nav_state(rng)
        base = residual(si, sn, PressureSample(0, 2.0),
                        PressureSample(1, 7.25), NO_LEVER)
        shifted = residual(si, sn, PressureSample(0, 7.0),
                           PressureSample(1, 12.25), NO_LEVER)
        assert base == shifted

    def test_horizontal_translation_invariance_exact(self, rng):
        si, sn = random_nav_state(rng), random_nav_state(rng)
        mi, mn = PressureSample(0, 2.0), PressureSample(1, 3.5)
        ext = DepthExtrinsics([0.1, -0.2, 0.05])
        base = residual(si, sn, mi, mn, ext)
        sn2 = sn.copy()
        sn2.p = sn.p + np.array([4.0, -8.0, 0.0])
        si2 = si.copy()
        si2.p = si.p + np.array([-16.0, 2.0, 0.0])
        assert residual(si, sn2, mi, mn, ext) == base
        assert residual(si2, sn, mi, mn, ext) == base

    def test_jacobians_match_finite_differences(self, rng):
        ext = DepthExtrinsics([0.1, -0.2, 0.3])
        for _ in range(20):
            si, sn = random_nav_state(rng), random_nav_state(rng)
            mi, mn = PressureSample(0, 2.0), PressureSample(1, 3.1)
            _, jac = residual(si, sn, mi, mn, ext, blocks=True)
            h = 1e-6
            for key, state, which, slot in (("phi_i", si, "i", 0),
                                            ("p_i", si, "i", 3),
                                            ("phi_n", sn, "n", 0),
                                            ("p_n", sn, "n", 3)):
                fd = np.zeros(3)
                for d in range(3):
                    dv = np.zeros(18)
                    dv[slot + d] = h
                    sp, sm = state.retract(dv), state.retract(-dv)
                    if which == "i":
                        rp = residual(sp, sn, mi, mn, ext)
                        rm = residual(sm, sn, mi, mn, ext)
                    else:
                        rp = residual(si, sp, mi, mn, ext)
                        rm = residual(si, sm, mi, mn, ext)
                    fd[d] = (rp - rm) / (2 * h)
                scale = max(np.abs(fd).max(), 1.0)
                assert np.abs(jac[key][0] - fd).max() < 1e-5 * scale, key

    def test_first_state_block_off(self, rng):
        states = [random_nav_state(rng) for _ in range(6)]
        assert_first_block_skipped(
            pressure_pair_residuals, stack_states(states), [0, 2, 4],
            [1, 3, 5], rng.normal(size=(3, 1)),
            DepthExtrinsics([0.1, -0.2, 0.3]))
