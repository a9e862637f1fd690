import numpy as np
import pytest
from numpy.testing import assert_allclose

from aquafuse.evaluation import Trajectory, align_to_truth, error_metrics
from aquafuse.manifold import exp_so3

from helpers import random_rotation


def random_trajectory(rng, n=40):
    rots = np.array([random_rotation(rng) for _ in range(n)])
    return Trajectory(np.arange(n) * 0.1, rots, rng.normal(size=(n, 3)))


class TestErrorMetrics:
    def test_self_comparison_is_exactly_zero(self, rng):
        traj = random_trajectory(rng)
        report = error_metrics(traj, traj.copy())
        assert report.n_matched == len(traj)
        assert report.translation_rmse_m == 0.0
        assert report.rotation_rmse_deg == 0.0
        assert np.all(report.series_rotation_deg == 0.0)


class TestAlignToTruth:
    @pytest.mark.parametrize("anchor_start", [True, False])
    def test_invariant_to_a_rigid_transform_of_the_estimate(self, rng,
                                                            anchor_start):
        truth = random_trajectory(rng)
        est = Trajectory(truth.t.copy(),
                         np.einsum("nij,njk->nik", truth.R,
                                   [exp_so3(rng.normal(size=3) * 0.02)
                                    for _ in range(len(truth))]),
                         truth.p + rng.normal(size=truth.p.shape) * 0.05)
        r0, t0 = random_rotation(rng), rng.normal(size=3) * 10.0
        moved = Trajectory(est.t.copy(), np.einsum("ij,njk->nik", r0, est.R),
                           est.p @ r0.T + t0)
        aligned, _ = align_to_truth(est, truth, anchor_start=anchor_start)
        aligned_moved, _ = align_to_truth(moved, truth,
                                          anchor_start=anchor_start)
        assert_allclose(aligned_moved.p, aligned.p, atol=1e-9)
        assert_allclose(aligned_moved.R, aligned.R, atol=1e-12)
        a = error_metrics(aligned, truth)
        b = error_metrics(aligned_moved, truth)
        assert b.translation_rmse_m == pytest.approx(a.translation_rmse_m,
                                                     rel=1e-9)
        assert b.rotation_rmse_deg == pytest.approx(a.rotation_rmse_deg,
                                                    rel=1e-6)
