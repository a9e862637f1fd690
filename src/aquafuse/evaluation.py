"""Trajectory preprocessing, rigid alignment and error metrics.

The evaluation protocol: truncate all trajectories to a common start time,
translate each start to the origin, register each estimate to the ground
truth with a closed-form least-squares rotation (no scale), and report RMSE
and standard deviation of the per-timestamp translation (meters) and rotation
(degrees, geodesic angle) errors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .manifold import Pose, rotation_angle


class NoOverlapError(ValueError):
    """Trajectories share no usable time span."""


class InsufficientCorrespondencesError(ValueError):
    """Fewer than three associated pose pairs."""


@dataclass
class Trajectory:
    t: np.ndarray          # (n,)
    R: np.ndarray          # (n, 3, 3)
    p: np.ndarray          # (n, 3)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.R = np.asarray(self.R, dtype=float).reshape(-1, 3, 3)
        self.p = np.asarray(self.p, dtype=float).reshape(-1, 3)
        if not (len(self.t) == len(self.R) == len(self.p)):
            raise ValueError("timestamp/pose count mismatch")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("trajectory timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class ErrorReport:
    sequence: str
    length_m: float
    translation_rmse_m: float
    translation_std_m: float
    rotation_rmse_deg: float
    rotation_std_deg: float
    n_matched: int
    n_unmatched: int
    series_t: np.ndarray
    series_translation_m: np.ndarray
    series_rotation_deg: np.ndarray

    def to_dict(self) -> dict:
        """The summary fields, without the series."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not f.name.startswith("series_")}

    def csv_row(self) -> str:
        return (f"{self.sequence},{self.length_m:.3f},"
                f"{self.translation_rmse_m:.6f},{self.translation_std_m:.6f},"
                f"{self.rotation_rmse_deg:.6f},{self.rotation_std_deg:.6f}")

    @staticmethod
    def csv_header() -> str:
        return "sequence,length_m,t_rmse_m,t_std_m,r_rmse_deg,r_std_deg"


def preprocess(trajectories: list[Trajectory]) -> list[Trajectory]:
    """Truncate all trajectories to the latest common start time and
    translate each starting position to the origin."""
    if not trajectories:
        raise ValueError("no trajectories to preprocess")
    start = max(tr.t[0] for tr in trajectories)
    out = []
    for tr in trajectories:
        keep = tr.t >= start - 1e-12
        if not np.any(keep):
            raise NoOverlapError("trajectory ends before the common start")
        t = tr.t[keep]
        p = tr.p[keep]
        out.append(Trajectory(t, tr.R[keep], p - p[0]))
    return out


def associate(est: Trajectory,
              truth: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-timestamp association; pairs farther apart than half the
    estimate's median sample period are discarded."""
    diffs = np.diff(est.t)
    max_dt = 0.5 * float(np.median(diffs)) if len(diffs) else 0.5
    return nearest_pairs(truth.t, est.t, max_dt)


def nearest_pairs(times: np.ndarray, queries,
                  max_gap: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``queries`` the nearest of the sorted ``times``, the
    earlier one on a tie: the (query, time) index pairs at most ``max_gap``
    apart."""
    queries = np.asarray(queries, dtype=float)
    if len(times) == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    j = np.searchsorted(times, queries)
    before, after = np.maximum(j - 1, 0), np.minimum(j, len(times) - 1)
    best = np.where(np.abs(times[after] - queries)
                    < np.abs(times[before] - queries), after, before)
    keep = np.flatnonzero(np.abs(times[best] - queries) <= max_gap)
    return keep, best[keep]


def umeyama_rotation(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares rotation aligning centered source points to centered
    target points (closed form via SVD, determinant corrected)."""
    mu_s = source.mean(axis=0)
    mu_t = target.mean(axis=0)
    cov = (target - mu_t).T @ (source - mu_s) / len(source)
    u, _, vt = np.linalg.svd(cov)
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2, 2] = -1.0
    return u @ s @ vt


def align_to_truth(est: Trajectory, truth: Trajectory) -> tuple[Trajectory, Pose]:
    """Rigid (rotation + translation, no scale) registration of an estimate
    to the ground truth.

    The rotation is the closed-form least-squares solution over the
    associated position pairs; the translation pins the first associated
    pair together.
    """
    ie, it = associate(est, truth)
    if len(ie) < 3:
        raise InsufficientCorrespondencesError(
            f"only {len(ie)} associated pairs (need 3)")
    src = est.p[ie]
    dst = truth.p[it]
    r = umeyama_rotation(src, dst)
    t = dst[0] - r @ src[0]
    aligned = Trajectory(est.t.copy(),
                         np.einsum("ij,njk->nik", r, est.R),
                         est.p @ r.T + t)
    return aligned, Pose(r, t)


def error_metrics(est: Trajectory, truth: Trajectory,
                  sequence: str = "") -> ErrorReport:
    """Per-timestamp translation and geodesic rotation errors with their
    RMSE and (population) standard deviation."""
    ie, it = associate(est, truth)
    if len(ie) == 0:
        raise NoOverlapError("no associated pose pairs")
    terr = np.linalg.norm(est.p[ie] - truth.p[it], axis=1)
    rerr = np.array([
        np.degrees(rotation_angle(est.R[i].T @ truth.R[j]))
        for i, j in zip(ie, it)
    ])

    def rmse_std(e):
        rmse = float(np.sqrt(np.mean(e * e)))
        std = float(np.sqrt(max(np.mean(e * e) - np.mean(e) ** 2, 0.0)))
        return rmse, std

    t_rmse, t_std = rmse_std(terr)
    r_rmse, r_std = rmse_std(rerr)
    matched = truth.p[it]
    length = float(np.sum(np.linalg.norm(np.diff(matched, axis=0), axis=1))) \
        if len(it) > 1 else 0.0
    return ErrorReport(
        sequence=sequence,
        length_m=length,
        translation_rmse_m=t_rmse, translation_std_m=t_std,
        rotation_rmse_deg=r_rmse, rotation_std_deg=r_std,
        n_matched=len(ie), n_unmatched=len(est) - len(ie),
        series_t=est.t[ie], series_translation_m=terr,
        series_rotation_deg=rerr)
