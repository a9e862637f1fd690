import numpy as np
import pytest
from numpy.testing import assert_allclose

import aquafuse.backend as bk
from aquafuse.depth import DepthExtrinsics
from aquafuse.dvl import DvlExtrinsics
from aquafuse.manifold import Pose, exp_so3
from aquafuse.state import PHI, POS, STATE_DOF, NavState
from aquafuse.visual import (BehindCameraError, CameraModel,
                             DegenerateTriangulationError, IntensityField,
                             LandmarkObservation, OutOfDomainError,
                             PatchPattern)

from helpers import project

CAM = CameraModel(fx=100.0, fy=100.0, cx=320.0, cy=180.0,
                  width=640, height=360, baseline=0.1)
IDENTITY = Pose(np.eye(3), np.zeros(3))
# camera at the body origin, so the states below are the camera poses
RIG = bk.SensorRig(CAM, IDENTITY, DvlExtrinsics(np.eye(3), np.zeros(3)),
                   DepthExtrinsics(np.zeros(3)), np.array([0.0, 0.0, 9.81]))


def reprojection(pose, landmark_w, obs, blocks=True):
    """The solver's reprojection factor (a batch of one) with the camera at
    ``pose``: the residual, and with ``blocks`` its Jacobians w.r.t. the
    camera rotation (R <- R exp(phi)), its position and the landmark."""
    factor = bk.Factor(bk.FactorKind.REPROJECTION, (0,), obs, np.eye(2),
                       landmark_id=0)
    res, js, jl = factor.evaluate(
        {0: NavState(pose.R, pose.t, np.zeros(3))},
        {0: np.asarray(landmark_w, dtype=float)}, RIG)
    if not blocks:
        return res
    return res, js[0][:, PHI], js[0][:, POS], jl[0]


class TestPinhole:
    def test_principal_ray(self):
        assert_allclose(project(CAM, [0, 0, 1.0]), [320, 180])

    def test_offset_point(self):
        assert_allclose(project(CAM, [0.1, 0, 1.0]), [330, 180])

    def test_round_trip(self, rng):
        for _ in range(20):
            x = np.array([rng.uniform(-1, 1), rng.uniform(-0.5, 0.5),
                          rng.uniform(0.5, 10)])
            uv = project(CAM, x)
            assert_allclose(CAM.backproject(uv, x[2]), x, atol=1e-12)

    def test_behind_camera_rejected(self):
        with pytest.raises(BehindCameraError):
            project(CAM, [0, 0, -1.0])

    def test_backproject_bad_depth(self):
        with pytest.raises(ValueError):
            CAM.backproject([320, 180], 0.0)

    def test_projection_jacobian_fd(self, rng):
        x = np.array([0.4, -0.2, 2.0])
        # at the identity pose the landmark Jacobian is minus the projection's
        obs = LandmarkObservation(0, project(CAM, x))
        jac = -reprojection(IDENTITY, x, obs)[3]
        h = 1e-7
        for d in range(3):
            dv = np.zeros(3)
            dv[d] = h
            fd = (project(CAM, x + dv) - project(CAM, x - dv)) / (2 * h)
            assert_allclose(jac[:, d], fd, rtol=1e-6, atol=1e-6)


class TestStereoDepth:
    def test_basic(self):
        assert CAM.stereo_depth(10.0) == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateTriangulationError):
            CAM.stereo_depth(0.0)

    def test_two_camera_round_trip(self, rng):
        # disparity from explicit left/right projections recovers the depth
        for _ in range(10):
            x = np.array([rng.uniform(-1, 1), rng.uniform(-0.5, 0.5),
                          rng.uniform(0.5, 8)])
            u_left = project(CAM, x)[0]
            u_right = project(CAM, x - np.array([CAM.baseline, 0, 0]))[0]
            disparity = u_left - u_right
            assert CAM.stereo_depth(disparity) == pytest.approx(x[2],
                                                                 abs=1e-9)


class TestCameraArrays:
    """The camera's pinhole geometry over arrays; one item is a batch of one."""

    def _points(self, rng, n):
        return np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-1, 1, n),
                                rng.uniform(0.5, 10, n)])

    def test_projection_equals_the_per_point_form(self, rng):
        x = self._points(rng, 60)
        uv = CAM.project(x)
        assert uv.shape == (60, 2)
        for k in range(60):
            assert np.array_equal(uv[k], project(CAM, x[k]))
        assert np.array_equal(CAM.project(x.reshape(6, 10, 3)),
                              uv.reshape(6, 10, 2))
        assert np.array_equal(CAM.project(x[7]), uv[7])

    def test_backproject_round_trips(self, rng):
        x = self._points(rng, 40)
        back = CAM.backproject(CAM.project(x), x[:, 2])
        assert_allclose(back, x, rtol=1e-12)
        uv = rng.uniform([0, 0], [640, 360], size=(40, 2))
        depth = rng.uniform(0.5, 10, 40)
        pts = CAM.backproject(uv, depth)
        assert np.array_equal(pts[:, 2], depth)
        assert_allclose(CAM.project(pts), uv, rtol=1e-12)
        assert np.array_equal(CAM.backproject(uv[3], depth[3]), pts[3])
        # one depth per row of a (rows, m, 2) block of pixels
        block = CAM.backproject(uv.reshape(8, 5, 2), depth[:8, None])
        assert block.shape == (8, 5, 3)
        assert np.array_equal(block[:, :, 2], np.repeat(depth[:8, None], 5, 1))

    def test_backproject_rejects_one_bad_depth(self):
        with pytest.raises(ValueError):
            CAM.backproject([[320, 180], [300, 100]], [2.0, -1.0])

    def test_stereo_depth_array(self):
        assert_allclose(CAM.stereo_depth(np.array([10.0, 5.0, 2.0])),
                        [1.0, 2.0, 5.0])
        for bad in ([10.0, 0.0, 5.0], [10.0, -3.0]):
            with pytest.raises(DegenerateTriangulationError):
                CAM.stereo_depth(np.array(bad))

    def test_in_image(self):
        uv = np.array([[0.0, 0.0], [639.9, 359.9], [640.0, 10.0],
                       [-0.1, 10.0], [10.0, 360.0]])
        assert CAM.in_image(uv).tolist() == [True, True, False, False, False]
        assert CAM.in_image(uv, margin=1.0).all()
        assert not CAM.in_image(uv, margin=-1.0)[[0, 1]].any()


class TestReprojection:
    def test_zero_at_true_pose(self, rng):
        pose = Pose(exp_so3(rng.normal(size=3) * 0.3), rng.normal(size=3))
        lm = pose.transform([0.2, -0.1, 3.0])
        obs = LandmarkObservation(0, project(CAM, [0.2, -0.1, 3.0]))
        assert_allclose(reprojection(pose, lm, obs, blocks=False),
                        np.zeros(2), atol=1e-12)

    def test_linear_in_observation(self, rng):
        pose = Pose(np.eye(3), np.zeros(3))
        lm = np.array([0.0, 0.0, 2.0])
        base_pix = project(CAM, lm)
        obs = LandmarkObservation(0, base_pix + [2.0, -1.0])
        assert_allclose(reprojection(pose, lm, obs, blocks=False),
                        [2.0, -1.0], atol=1e-12)

    def test_jacobians_match_finite_differences(self, rng):
        for _ in range(25):
            pose = Pose(exp_so3(rng.normal(size=3) * 0.4), rng.normal(size=3))
            x_c = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4),
                            rng.uniform(1.0, 6.0)])
            lm = pose.transform(x_c)
            obs = LandmarkObservation(0, project(CAM, x_c) + rng.normal(size=2))
            _, j_phi, j_t, j_lm = reprojection(pose, lm, obs)
            h = 1e-6

            def res_at(dphi=np.zeros(3), dt=np.zeros(3), dlm=np.zeros(3)):
                p2 = Pose(pose.R @ exp_so3(dphi), pose.t + dt)
                return reprojection(p2, lm + dlm, obs, blocks=False)

            for d in range(3):
                dv = np.zeros(3)
                dv[d] = h
                fd_phi = (res_at(dphi=dv) - res_at(dphi=-dv)) / (2 * h)
                fd_t = (res_at(dt=dv) - res_at(dt=-dv)) / (2 * h)
                fd_lm = (res_at(dlm=dv) - res_at(dlm=-dv)) / (2 * h)
                scale = max(np.abs(fd_phi).max(), np.abs(fd_t).max(), 1.0)
                assert np.abs(j_phi[:, d] - fd_phi).max() < 1e-5 * scale
                assert np.abs(j_t[:, d] - fd_t).max() < 1e-5 * scale
                assert np.abs(j_lm[:, d] - fd_lm).max() < 1e-5 * scale


def _bumpy_field(rng, n=12):
    return IntensityField(rng.uniform(80, 200, n),
                          rng.uniform([100, 60], [540, 300], (n, 2)),
                          rng.uniform(5, 9, n))


def _reference(field, pts):
    """Values and gradients at ``pts`` summed over every bump, no cutoff."""
    d = pts[:, None, :] - field.centers[None, :, :]
    s2 = np.broadcast_to(field.sigma_px, field.amplitudes.shape) ** 2
    e = field.amplitudes * np.exp(-0.5 * np.sum(d * d, axis=2) / s2)
    return (field.offset + e.sum(axis=1),
            -np.sum((e / s2)[:, :, None] * d, axis=1))


class TestIntensityField:
    def test_empty_field_is_offset(self):
        for sigma in (5.0, np.zeros(0) + 5.0):
            field = IntensityField(np.zeros(0), np.zeros((0, 2)), sigma,
                                   offset=7.5)
            assert field.sample([100.0, 100.0]) == 7.5
            val, grad = field.gradient([100.0, 100.0])
            assert val == 7.5
            assert_allclose(grad, [0, 0])
            vals, grads = field.gradient(np.zeros((3, 2)))
            assert_allclose(vals, [7.5] * 3)
            assert_allclose(grads, np.zeros((3, 2)))
            assert field.sample(np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("per_bump", [True, False])
    def test_matches_the_sum_over_every_bump(self, rng, per_bump):
        # a field the size the simulator makes, with bumps far beyond the
        # reach of most points, queried inside and outside the image
        n = 250
        sigma = rng.uniform(3, 9, n) if per_bump else 6.0
        field = IntensityField(rng.uniform(80, 200, n),
                               rng.uniform([-30, -30], [670, 390], (n, 2)),
                               sigma, offset=4.0)
        pts = np.vstack([rng.uniform([0, 0], [640, 360], (300, 2)),
                         rng.uniform([-100, -100], [0, 0], (20, 2)),
                         rng.uniform([640, 360], [760, 460], (20, 2)),
                         [[-1e4, 5e3]]])
        ref_vals, ref_grads = _reference(field, pts)
        tol = 1e-12 * np.max(field.amplitudes)
        vals, grads = field.gradient(pts)
        assert np.abs(field.sample(pts) - ref_vals).max() < tol
        assert np.abs(vals - ref_vals).max() < tol
        assert np.abs(grads - ref_grads).max() < tol
        assert vals[-1] == 4.0 and np.all(grads[-1] == 0.0)
        # a point's value does not depend on the other points of its query
        for k in range(0, len(pts), 7):
            val, grad = field.gradient(pts[k])
            assert field.sample(pts[k]) == vals[k] == val
            assert np.array_equal(grad, grads[k])
        vals, grads = field.gradient(np.zeros((0, 2)))
        assert vals.shape == (0,) and grads.shape == (0, 2)

    def test_gradient_consistent_with_sampling(self, rng):
        field = _bumpy_field(rng)
        h = 1e-5
        for _ in range(20):
            uv = rng.uniform([50, 50], [590, 310])
            _, g = field.gradient(uv)
            fd = np.array([
                (field.sample(uv + [h, 0]) - field.sample(uv - [h, 0])) / (2 * h),
                (field.sample(uv + [0, h]) - field.sample(uv - [0, h])) / (2 * h),
            ])
            assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_batch_matches_scalar(self, rng):
        field = _bumpy_field(rng)
        pts = rng.uniform([0, 0], [640, 360], (7, 2))
        batch = field.sample(pts)
        for k in range(7):
            assert batch[k] == pytest.approx(field.sample(pts[k]))


class TestPatchPattern:
    def test_contains_origin(self):
        assert np.any(np.all(PatchPattern().offsets == 0, axis=1))
        with pytest.raises(ValueError):
            PatchPattern(offsets=np.array([[1.0, 0.0]]))

    def test_weight_rule(self, rng):
        pattern = PatchPattern()
        flat = IntensityField(np.zeros(0), np.zeros((0, 2)), 5.0)
        _, g = flat.gradient(np.array([[100.0, 100.0]]))
        assert_allclose(pattern.weights(g), [1.0])
        # non-increasing in gradient magnitude
        field = _bumpy_field(rng)
        pts = rng.uniform([50, 50], [590, 310], (50, 2))
        _, g = field.gradient(pts)
        g2 = np.sum(g ** 2, axis=1)
        w = pattern.weights(g)
        order = np.argsort(g2)
        assert np.all(np.diff(w[order]) <= 1e-12)
        assert np.all(w <= 1.0)


def _photometric(field_i, field_j, T_CjCi, p, depth_p,
                 d_obs=np.zeros(STATE_DOF), blocks=False):
    """The solver's photometric factor (a batch of one) for the patch around
    ``p`` of camera i at depth ``depth_p`` (``photometric_payloads`` of one
    observation) seen from camera j at relative pose ``T_CjCi``; the
    observer state is retracted by ``d_obs``. Returns the residual, plus the
    18-dof observer Jacobian with ``blocks``."""
    host = NavState(np.eye(3), np.zeros(3), np.zeros(3))
    t_wcj = T_CjCi.inverse()
    obs = NavState(t_wcj.R, t_wcj.t, np.zeros(3)).retract(d_obs)
    seen = [LandmarkObservation(0, p, CAM.fx * CAM.baseline / depth_p)]
    (payload,) = bk.photometric_payloads(field_i, seen, field_j, seen, CAM,
                                         bk.BackendConfig())
    factor = bk.Factor(bk.FactorKind.PHOTOMETRIC, (0, 1), payload, np.eye(1))
    res, js, _ = factor.evaluate({0: host, 1: obs}, {}, RIG)
    return (res[0], js[1]) if blocks else res[0]


class TestPhotometric:
    def test_identity_warp_same_field_is_zero(self, rng):
        field = _bumpy_field(rng)
        res = _photometric(field, field, IDENTITY, [320.0, 180.0], 2.0)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_fields(self):
        # fields constant over the image have unit weights everywhere; their
        # one bump lies far outside it, beyond its reach, since a field
        # without bumps hosts no patch
        far = (np.ones(1), np.array([[-1e4, -1e4]]), 5.0)
        f_i = IntensityField(*far, offset=10.0)
        f_j = IntensityField(*far, offset=13.0)
        res = _photometric(f_i, f_j, IDENTITY, [320.0, 180.0], 2.0)
        assert res == pytest.approx(len(bk.PATCH_PATTERN.offsets) * 3.0)

    def test_out_of_domain_raises(self, rng):
        field = _bumpy_field(rng)
        warp = Pose(np.eye(3), np.array([50.0, 0.0, 0.0]))
        with pytest.raises(OutOfDomainError):
            _photometric(field, field, warp, [320.0, 180.0], 2.0)

    def test_gradient_matches_finite_differences(self, rng):
        # observer-state Jacobian (R <- R exp(phi), p additive) of the
        # solver's residual against central differences along the retraction
        for _ in range(15):
            f_i = _bumpy_field(rng)
            f_j = _bumpy_field(rng)
            rel = Pose(exp_so3(rng.normal(size=3) * 0.02),
                       rng.normal(size=3) * 0.05)
            pix = rng.uniform([200, 120], [440, 240])
            depth = rng.uniform(1.5, 4.0)
            try:
                _, j_obs = _photometric(f_i, f_j, rel, pix, depth,
                                        blocks=True)
            except OutOfDomainError:
                continue
            j_phi, j_t = j_obs[:, PHI], j_obs[:, POS]
            h = 1e-6
            for d in range(3):
                dv = np.zeros(STATE_DOF)
                dv[PHI.start + d] = h
                rp = _photometric(f_i, f_j, rel, pix, depth, dv)
                rm = _photometric(f_i, f_j, rel, pix, depth, -dv)
                fd = (rp - rm) / (2 * h)
                scale = max(abs(fd), 1.0)
                assert abs(j_phi[0, d] - fd) < 1e-4 * scale
                dv = np.zeros(STATE_DOF)
                dv[POS.start + d] = h
                rp = _photometric(f_i, f_j, rel, pix, depth, dv)
                rm = _photometric(f_i, f_j, rel, pix, depth, -dv)
                fd = (rp - rm) / (2 * h)
                scale = max(abs(fd), 1.0)
                assert abs(j_t[0, d] - fd) < 1e-4 * scale
