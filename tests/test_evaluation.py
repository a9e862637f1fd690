import numpy as np
import pytest
from numpy.testing import assert_allclose

from aquafuse.evaluation import (InsufficientCorrespondencesError,
                                 NoOverlapError, Trajectory, align_to_truth,
                                 error_metrics, nearest_pairs, preprocess)
from aquafuse.manifold import exp_so3

from helpers import random_rotation


def random_trajectory(rng, n=40):
    rots = np.array([random_rotation(rng) for _ in range(n)])
    return Trajectory(np.arange(n) * 0.1, rots, rng.normal(size=(n, 3)))


class TestNearestPairs:
    def test_a_tie_goes_to_the_earlier_time(self):
        q, k = nearest_pairs(np.array([0.0, 1.0, 2.0]), [0.5, 1.5, 1.6])
        assert q.tolist() == [0, 1, 2]
        assert k.tolist() == [0, 1, 2]

    def test_max_gap_drops_far_pairs(self):
        q, k = nearest_pairs(np.array([0.0, 1.0, 2.0]),
                             [-0.5, 0.05, 1.3, 2.1, 9.0], max_gap=0.2)
        assert q.tolist() == [1, 3]
        assert k.tolist() == [0, 2]

    def test_no_times_no_pairs(self):
        q, k = nearest_pairs(np.zeros(0), [0.0, 1.0])
        assert len(q) == len(k) == 0


class TestPreprocess:
    def test_truncates_to_the_latest_start_and_moves_it_to_the_origin(self,
                                                                      rng):
        a, b = random_trajectory(rng), random_trajectory(rng)
        late = Trajectory(a.t[5:], a.R[5:], a.p[5:])
        out_late, out_b = preprocess([late, b])
        assert np.array_equal(out_b.t, b.t[5:])
        assert np.array_equal(out_b.R, b.R[5:])
        assert np.array_equal(out_b.p, b.p[5:] - b.p[5])
        assert np.array_equal(out_late.t, late.t)
        assert not out_late.p[0].any() and not out_b.p[0].any()

    def test_no_overlap_raises(self, rng):
        a = random_trajectory(rng, n=10)
        later = Trajectory(a.t + 5.0, a.R, a.p)
        with pytest.raises(NoOverlapError):
            preprocess([a, later])


class TestErrorMetrics:
    def test_constant_offset(self, rng):
        truth = random_trajectory(rng)
        offset = np.array([0.3, -0.4, 1.2])
        est = Trajectory(truth.t.copy(), truth.R.copy(), truth.p + offset)
        report = error_metrics(est, truth)
        assert report.translation_rmse_m == pytest.approx(1.3, rel=1e-12)
        assert report.translation_std_m == pytest.approx(0.0, abs=1e-7)
        assert report.rotation_rmse_deg == 0.0
        assert report.n_unmatched == 0

    def test_self_comparison_is_exactly_zero(self, rng):
        traj = random_trajectory(rng)
        report = error_metrics(
            traj, Trajectory(traj.t.copy(), traj.R.copy(), traj.p.copy()))
        assert report.n_matched == len(traj)
        assert report.translation_rmse_m == 0.0
        assert report.rotation_rmse_deg == 0.0
        assert np.all(report.series_rotation_deg == 0.0)


class TestAlignToTruth:
    def test_recovers_a_known_rigid_transform(self, rng):
        truth = random_trajectory(rng)
        r0, t0 = random_rotation(rng), rng.normal(size=3) * 10.0
        # the estimate is the truth seen from a moved frame
        est = Trajectory(truth.t.copy(), np.einsum("ij,njk->nik", r0.T, truth.R),
                         (truth.p - t0) @ r0)
        aligned, pose = align_to_truth(est, truth)
        assert_allclose(pose.R, r0, atol=1e-12)
        assert_allclose(pose.t, t0, atol=1e-12)
        assert_allclose(aligned.p, truth.p, atol=1e-12)
        assert_allclose(aligned.R, truth.R, atol=1e-12)

    def test_fewer_than_three_pairs_raise(self, rng):
        truth = random_trajectory(rng, n=10)
        est = Trajectory(truth.t[:2], truth.R[:2], truth.p[:2])
        with pytest.raises(InsufficientCorrespondencesError):
            align_to_truth(est, truth)

    def test_invariant_to_a_rigid_transform_of_the_estimate(self, rng):
        truth = random_trajectory(rng)
        est = Trajectory(truth.t.copy(),
                         np.einsum("nij,njk->nik", truth.R,
                                   [exp_so3(rng.normal(size=3) * 0.02)
                                    for _ in range(len(truth))]),
                         truth.p + rng.normal(size=truth.p.shape) * 0.05)
        r0, t0 = random_rotation(rng), rng.normal(size=3) * 10.0
        moved = Trajectory(est.t.copy(), np.einsum("ij,njk->nik", r0, est.R),
                           est.p @ r0.T + t0)
        aligned, _ = align_to_truth(est, truth)
        aligned_moved, _ = align_to_truth(moved, truth)
        assert_allclose(aligned_moved.p, aligned.p, atol=1e-9)
        assert_allclose(aligned_moved.R, aligned.R, atol=1e-12)
        a = error_metrics(aligned, truth)
        b = error_metrics(aligned_moved, truth)
        assert b.translation_rmse_m == pytest.approx(a.translation_rmse_m,
                                                     rel=1e-9)
        assert b.rotation_rmse_deg == pytest.approx(a.rotation_rmse_deg,
                                                    rel=1e-6)
