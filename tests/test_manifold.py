import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation as ScipyRotation

from aquafuse.manifold import (BranchAmbiguityError, Pose, exp_so3, hat,
                               log_so3, right_jacobian_inv_so3_batch,
                               right_jacobian_so3, rotation_angle)

from helpers import check_rotation, random_rotation


class TestHat:
    def test_definition(self):
        assert_allclose(hat([1, 2, 3]),
                        [[0, -3, 2], [3, 0, -1], [-2, 1, 0]])

    def test_cross_product(self):
        assert_allclose(hat([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])

    def test_self_annihilation(self, rng):
        for _ in range(10):
            v = rng.normal(size=3)
            assert_allclose(hat(v) @ v, np.zeros(3), atol=1e-15)


class TestExpSo3:
    def test_zero_is_identity(self):
        assert_allclose(exp_so3([0, 0, 0]), np.eye(3))

    def test_quarter_turn_about_z(self):
        # independent Rodrigues oracle
        expected = ScipyRotation.from_rotvec([0, 0, np.pi / 2]).as_matrix()
        r = exp_so3([0, 0, np.pi / 2])
        assert_allclose(r, expected, atol=1e-15)
        assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_matches_oracle_at_random_angles(self, rng):
        for _ in range(50):
            phi = rng.normal(size=3) * rng.uniform(1e-10, 2.0)
            assert_allclose(exp_so3(phi),
                            ScipyRotation.from_rotvec(phi).as_matrix(),
                            atol=1e-13)

    def test_output_is_valid_rotation(self, rng):
        for _ in range(25):
            r = exp_so3(rng.normal(size=3))
            check_rotation(r, tol=1e-9)

    def test_small_angle_linearization_bound(self):
        phi = np.array([0.6, -0.8, 0.0]) * 1e-3
        gap = np.linalg.norm(exp_so3(phi) - np.eye(3) - hat(phi))
        assert gap <= np.dot(phi, phi)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            exp_so3([np.nan, 0, 0])


class TestLogSo3:
    def test_identity(self):
        assert_allclose(log_so3(np.eye(3)), np.zeros(3))

    def test_round_trip_small(self):
        phi = np.array([0.1, -0.2, 0.3])
        assert_allclose(log_so3(exp_so3(phi)), phi, atol=1e-12)

    def test_half_radian_about_z(self):
        # axis-angle construction oracle
        r = ScipyRotation.from_rotvec([0, 0, 0.5]).as_matrix()
        assert_allclose(log_so3(r), [0, 0, 0.5], atol=1e-12)

    def test_exp_log_round_trip_wide_range(self, rng):
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            phi = axis * rng.uniform(1e-6, np.pi - 0.01)
            r = exp_so3(phi)
            assert_allclose(exp_so3(log_so3(r)), r, atol=1e-12)
            assert_allclose(log_so3(r), phi, atol=1e-9)

    def test_round_trip_tiny_angles(self, rng):
        for angle in np.geomspace(1e-12, 1e-7, 30):
            axis = rng.normal(size=3)
            phi = axis / np.linalg.norm(axis) * angle
            assert_allclose(log_so3(exp_so3(phi)), phi, rtol=0.0,
                            atol=1e-9 * angle)

    def test_branch_ambiguity_near_pi(self):
        r = exp_so3([np.pi - 1e-8, 0, 0])
        with pytest.raises(BranchAmbiguityError):
            log_so3(r)


class TestRotationAngle:
    def test_matches_rotation_vector_norm(self, rng):
        for angle in np.geomspace(1e-12, np.pi - 1e-3, 60):
            axis = rng.normal(size=3)
            r = exp_so3(axis / np.linalg.norm(axis) * angle)
            assert abs(rotation_angle(r) - angle) <= 1e-9 * angle

    def test_relative_rotation_to_self_is_zero(self, rng):
        for _ in range(50):
            r = random_rotation(rng)
            assert rotation_angle(r.T @ r) == 0.0


class TestRightJacobian:
    def test_zero_is_identity(self):
        assert_allclose(right_jacobian_so3([0, 0, 0]), np.eye(3))

    def test_first_order_relation(self):
        # finite-difference check of exp(phi+d) ~ exp(phi) exp(Jr d)
        phi = np.array([0.2, -0.1, 0.3])
        jr = right_jacobian_so3(phi)
        rng = np.random.default_rng(0)
        for _ in range(5):
            delta = rng.normal(size=3) * 1e-6
            lhs = exp_so3(phi + delta)
            rhs = exp_so3(phi) @ exp_so3(jr @ delta)
            rel = np.abs(lhs - rhs).max() / np.linalg.norm(delta)
            assert rel < 1e-5

    def test_left_right_symmetry(self):
        phi = np.array([0.3, 0.0, 0.0])
        assert_allclose(right_jacobian_so3(-phi), right_jacobian_so3(phi).T,
                        atol=1e-12)

    def test_inverse_consistency(self, rng):
        for _ in range(20):
            phi = rng.normal(size=3) * 0.7
            prod = (right_jacobian_so3(phi)
                    @ right_jacobian_inv_so3_batch(phi[None])[0])
            assert_allclose(prod, np.eye(3), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-5, np.pi - 0.02),
       st.integers(0, 10_000))
def test_round_trip_property(angle, seed):
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    phi = axis * angle
    assert np.allclose(log_so3(exp_so3(phi)), phi, atol=1e-12)


class TestPose:
    def test_inverse_composition_is_identity(self, rng):
        for _ in range(10):
            pose = Pose(random_rotation(rng), rng.normal(size=3))
            ident = pose.compose(pose.inverse())
            assert np.abs(ident.R - np.eye(3)).max() < 1e-9
            assert np.abs(ident.t).max() < 1e-9

    def test_composition_associative(self, rng):
        a, b, c = (Pose(random_rotation(rng), rng.normal(size=3))
                   for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert_allclose(left.R, right.R, atol=1e-12)
        assert_allclose(left.t, right.t, atol=1e-12)

    def test_transform_batch(self, rng):
        pose = Pose(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(5, 3))
        batch = pose.transform(pts)
        for k in range(5):
            assert_allclose(batch[k], pose.transform(pts[k]))
