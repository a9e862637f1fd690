"""Output checks that do not rely on a stored copy of earlier output.

Every check compares the program's output with a computation made here,
apart from the program (closed-form paths, an independent alignment), or
with a property the method must have (statuses that follow from the mode and
the blackout windows, monotone solver cost traces). Run-level checks return
a list of failure messages; per-frame checks return one message or ``None``
per frame.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from workloads import stream_length, truth_pva, yaw_matrices

# ATE limit as a share of the distance travelled. The scenarios' own noise
# (DVL white noise 5 mm/s and bias walk 1e-4 m/s/sqrt(s), gyro noise
# 2e-4 rad/s/sqrt(Hz) and bias walk 1e-5 rad/s/sqrt(s)) gives a 1-sigma dead
# reckoning drift of at most 0.18 % of the distance over these runs (see
# README); 1 % leaves room for the zero-order-hold discretisation of the
# preintegrated factors and still catches an estimate that lost a sensor.
DRIFT_FRACTION = 0.01
TRUTH_TOL = 1e-9
ORTHONORMAL_TOL = 1e-9
ATE_REL_TOL = 1e-9


# ------------------------------- dataset ----------------------------------- #

def dataset_digest(ds) -> dict:
    """SHA-256 of every number of a dataset, per stream, so two datasets can
    be compared bit for bit without holding both copies' arrays."""
    obs = [(f.frame_id, o.landmark_id, *o.pixel,
            -1.0 if o.disparity is None else o.disparity)
           for f in ds.frames for o in f.observations]
    streams = {
        "imu": [[s.t, *s.gyro, *s.accel] for s in ds.imu],
        "dvl": [[s.t, *s.vel] for s in ds.dvl],
        "pressure": [[s.t, s.depth] for s in ds.pressure],
        "frames": [[f.frame_id, f.t, len(f.observations)] for f in ds.frames],
        "observations": obs,
        "field": [[*f.field.amplitudes, *f.field.centers.ravel(),
                   *np.atleast_1d(f.field.sigma_px), f.field.offset]
                  for f in ds.frames],
        "truth": [[g.t, *g.R.ravel(), *g.p, *g.v, *g.bg, *g.ba, *g.bv]
                  for g in ds.groundtruth],
    }
    config = repr(sorted(ds.config.to_dict().items())).encode()
    out = {"config": hashlib.sha256(config).hexdigest()}
    for name, rows in streams.items():
        h = hashlib.sha256()
        for row in rows:
            h.update(np.asarray(row, dtype=float).tobytes())
            h.update(b"|")
        out[name] = h.hexdigest()
    return out


def same_digest(a: dict, b: dict) -> list[str]:
    return [f"{key} differs" for key in a if a[key] != b[key]]


def check_dataset(ds) -> list[str]:
    """Stream lengths and the ground truth against the path's closed form."""
    cfg = ds.config
    errors = []
    for name, samples, rate in (("imu", ds.imu, cfg.rate_imu_hz),
                                ("dvl", ds.dvl, cfg.rate_dvl_hz),
                                ("pressure", ds.pressure, cfg.rate_pressure_hz),
                                ("frames", ds.frames, cfg.rate_cam_hz)):
        want = stream_length(cfg.duration_s, rate)
        if len(samples) != want:
            errors.append(f"{name}: {len(samples)} samples, want {want}")
    t = np.array([g.t for g in ds.groundtruth])
    p, v, yaw = truth_pva(cfg, t)
    for name, got, want in (
            ("position", np.stack([g.p for g in ds.groundtruth]), p),
            ("velocity", np.stack([g.v for g in ds.groundtruth]), v),
            ("rotation", np.stack([g.R for g in ds.groundtruth]),
             yaw_matrices(yaw))):
        err = float(np.max(np.abs(got - want)))
        if not err <= TRUTH_TOL:
            errors.append(f"truth {name} off its closed form by {err:.3g}")
    return errors


# ------------------------------ estimator ---------------------------------- #

def expected_statuses(frame_times, mode: str, blackouts,
                      reentry_frames: int) -> list[str]:
    """Statuses the tracker must report: Degraded inside each blackout and
    for the first ``reentry_frames - 1`` frames after it in ``full`` mode,
    Degraded throughout without vision, DeadReckon in dead reckoning."""
    if mode == "dvl-deadreckon-only":
        return ["DeadReckon"] * len(frame_times)
    if mode == "acoustic-inertial-depth-only":
        return ["Degraded"] * len(frame_times)
    if mode != "full":
        raise ValueError(f"no status rule for mode '{mode}'")
    out = []
    pending = 0
    for t in frame_times:
        if any(a <= t <= b for a, b in blackouts):
            out.append("Degraded")
            pending = reentry_frames - 1
        elif pending > 0:
            out.append("Degraded")
            pending -= 1
        else:
            out.append("VisualOk")
    return out


def frame_failures(result, frames, statuses) -> list:
    """One message per frame whose pose, timestamp or status is wrong, else
    ``None``. The result must hold one entry per frame."""
    out = []
    eye = np.eye(3)
    for fs, row, frame, want in zip(result.frames, result.status_rows,
                                    frames, statuses):
        r, p = fs.T_WI.R, fs.T_WI.t
        if fs.frame_id != frame.frame_id or fs.t != frame.t:
            out.append(f"frame {frame.frame_id}: pose stamped "
                       f"{fs.frame_id}@{fs.t}")
        elif not (np.all(np.isfinite(r)) and np.all(np.isfinite(p))):
            out.append(f"frame {frame.frame_id}: pose not finite")
        elif not (np.max(np.abs(r.T @ r - eye)) <= ORTHONORMAL_TOL
                  and np.linalg.det(r) > 0):
            out.append(f"frame {frame.frame_id}: rotation not orthonormal")
        elif row[2] != want:
            out.append(f"frame {frame.frame_id}: status {row[2]}, want {want}")
        else:
            out.append(None)
    return out


def check_cost_traces(reports) -> list[str]:
    return [f"window BA {k}: cost trace does not strictly decrease"
            for k, rep in enumerate(reports)
            if any(not b < a for a, b in zip(rep.cost_trace,
                                              rep.cost_trace[1:]))]


# ----------------------------- accuracy ------------------------------------ #

def horn_rotation(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Rotation R minimising sum |(dst - mean) - R (src - mean)|^2, from the
    unit quaternion of Horn (1987): the eigenvector of the largest eigenvalue
    of the 4x4 matrix built from the cross-covariance."""
    s = (src - src.mean(axis=0)).T @ (dst - dst.mean(axis=0))
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = s
    n = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, syy - sxx - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, szz - sxx - syy]])
    w, x, y, z = np.linalg.eigh(n)[1][:, -1]
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def independent_ate(est_t, est_r, est_p, truth_t, truth_r, truth_p):
    """Translation (m) and rotation (deg) RMSE under the evaluation protocol
    (common start, start at the origin, rotation fitted over all pairs,
    start pinned), computed without the program's evaluation code. Each
    estimate timestamp must appear in the truth."""
    start = max(est_t[0], truth_t[0])
    ke, kt = est_t >= start - 1e-12, truth_t >= start - 1e-12
    est_t, est_r, est_p = est_t[ke], est_r[ke], est_p[ke] - est_p[ke][0]
    truth_t, truth_r = truth_t[kt], truth_r[kt]
    truth_p = truth_p[kt] - truth_p[kt][0]
    idx = np.searchsorted(truth_t, est_t)
    if np.any(idx >= len(truth_t)) or np.any(truth_t[idx] != est_t):
        raise ValueError("estimate timestamps missing from the truth")
    src, dst, dst_r = est_p, truth_p[idx], truth_r[idx]
    rot = horn_rotation(src, dst)
    shift = dst[0] - rot @ src[0]
    terr = np.linalg.norm(src @ rot.T + shift - dst, axis=1)
    aligned_r = np.einsum("ij,njk->nik", rot, est_r)
    rel = np.einsum("nji,njk->nik", aligned_r, dst_r)
    # geodesic angle from |R - I|_F = 2 sqrt(2) sin(theta / 2)
    chord = np.linalg.norm(rel - np.eye(3), axis=(1, 2)) / (2.0 * math.sqrt(2))
    rerr = np.degrees(2.0 * np.arcsin(np.clip(chord, 0.0, 1.0)))
    return (float(np.sqrt(np.mean(terr * terr))),
            float(np.sqrt(np.mean(rerr * rerr))))


def close_rel(a: float, b: float, tol: float = ATE_REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def path_length(cfg, frame_times) -> float:
    """Distance travelled between the frames, along the closed-form path."""
    p, _, _ = truth_pva(cfg, np.asarray(frame_times))
    return float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))
