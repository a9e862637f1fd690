"""DVL velocity model with a slowly varying bias: decoupled (resumable)
translation preintegration, first-order bias updates and the DVL residuals,
stacked over keyframe pairs.

The preintegrated translation is the body-frame sum of rotated, bias-corrected
velocity samples. Rotation checkpoints come from the IMU preintegration
(:class:`aquafuse.imu.RotationCheckpoints`), which also supplies the
gyro-bias Jacobians and rotation-noise covariances needed for the incremental
bias Jacobians and the measurement covariance.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .imu import RotationCheckpoints, hold_intervals, _infer_t_end
from .manifold import hat, hat_batch
from .state import BG, BV, PHI, POS, STATE_DOF, VEL, StateStack, matvec


@dataclass(frozen=True)
class DvlSample:
    t: float
    vel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vel", np.asarray(self.vel, dtype=float))


@dataclass(frozen=True)
class DvlExtrinsics:
    """Fixed transform from the DVL frame to the body frame."""

    R_ID: np.ndarray
    p_ID: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R_ID", np.asarray(self.R_ID, dtype=float))
        object.__setattr__(self, "p_ID", np.asarray(self.p_ID, dtype=float))


@dataclass
class DvlPreintegrated:
    dp: np.ndarray
    dt_total: float
    lin_bg: np.ndarray
    lin_bv: np.ndarray
    J_dp_dbv: np.ndarray
    J_dp_dbg: np.ndarray
    cov: np.ndarray
    t_start: float
    t_end: float
    # (sample time, dp, J_dp_dbv, J_dp_dbg, cov) before the last hold step,
    # from which ``preintegrate_dvl`` resumes
    last_step: tuple | None = None


def preintegrate_dvl(samples, imu_rot_checkpoints: RotationCheckpoints,
                     ext: DvlExtrinsics, lin_bg, lin_bv,
                     t_end: float | None = None,
                     sigma_v: float = 0.0,
                     resume: DvlPreintegrated | None = None) -> DvlPreintegrated:
    """Translation preintegration of a DVL buffer at fixed bias linearization.

    ``imu_rot_checkpoints`` must be aligned to the DVL sample times (one
    entry per sample). The covariance accumulates the rotation-noise term
    (through the checkpoint phi covariances) and the white velocity noise
    ``sigma_v`` (per-sample standard deviation).

    ``resume`` extends an earlier preintegration about the same biases to
    ``t_end``, as ``integrate_imu`` does: its last hold step is integrated
    again from the sums stored before it, so ``samples`` must start at the
    sample that step holds. The result equals one call over the whole span
    bit for bit.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty DVL sample buffer")
    times = np.array([s.t for s in samples], dtype=float)
    if len(imu_rot_checkpoints.times) != len(samples):
        raise ValueError("rotation checkpoints misaligned with DVL samples: "
                         f"{len(imu_rot_checkpoints.times)} for {len(samples)}")
    if np.max(np.abs(np.asarray(imu_rot_checkpoints.times) - times)) > 1e-9:
        raise ValueError("rotation checkpoint times do not match DVL sample times")
    if np.any(np.diff(times) <= 0):
        raise ValueError("DVL timestamps must be strictly increasing")
    if t_end is None:
        t_end = _infer_t_end(times)

    lin_bg = np.asarray(lin_bg, dtype=float)
    lin_bv = np.asarray(lin_bv, dtype=float)
    t_start, dp = float(times[0]), np.zeros(3)
    j_bv, j_bg, cov = np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))
    if resume is not None:
        if not (np.array_equal(lin_bg, resume.lin_bg)
                and np.array_equal(lin_bv, resume.lin_bv)
                and times[0] == resume.last_step[0]):
            raise ValueError("a preintegration resumes only about its own biases, "
                             f"from its last step's sample t={resume.last_step[0]}")
        t_start = resume.t_start
        dp, j_bv, j_bg, cov = (a.copy() for a in resume.last_step[1:])
    sv2 = sigma_v**2

    idx, _, dts = hold_intervals(times, float(times[0]), float(t_end))
    last = None
    for step, (k, dt) in enumerate(zip(idx, dts)):
        if step == len(idx) - 1:
            last = (samples[k].t, dp, j_bv.copy(), j_bg.copy(), cov.copy())
        d_r = imu_rot_checkpoints.rotations[k]
        j_rot = imu_rot_checkpoints.bias_jacobians[k]
        cov_phi = imu_rot_checkpoints.phi_covs[k]
        w = ext.R_ID @ (samples[k].vel - lin_bv)
        dp = dp + d_r @ w * dt
        j_bv += -(d_r @ ext.R_ID) * dt
        j_bg += -(d_r @ hat(w) @ j_rot) * dt
        rw = d_r @ hat(w)
        cov += (rw @ cov_phi @ rw.T) * dt * dt
        cov += (d_r @ ext.R_ID) @ (sv2 * np.eye(3)) @ (d_r @ ext.R_ID).T * dt * dt

    return DvlPreintegrated(
        dp=dp, dt_total=float(t_end - t_start),
        lin_bg=lin_bg.copy(), lin_bv=lin_bv.copy(),
        J_dp_dbv=j_bv, J_dp_dbg=j_bg, cov=cov,
        t_start=t_start, t_end=float(t_end), last_step=last,
    )


def correct_dvl_bias(preint: DvlPreintegrated, new_bg, new_bv) -> np.ndarray:
    """First-order update of the preintegrated translation for new biases;
    never re-integrates."""
    dbg = np.asarray(new_bg, dtype=float) - preint.lin_bg
    dbv = np.asarray(new_bv, dtype=float) - preint.lin_bv
    return preint.dp + preint.J_dp_dbv @ dbv + preint.J_dp_dbg @ dbg


def dvl_velocity_estimate(r: np.ndarray, v: np.ndarray, gyro: np.ndarray,
                          ext: DvlExtrinsics) -> np.ndarray:
    """Velocities (n, 3) the DVL should measure at n states with rotations
    ``r`` (n, 3, 3), world velocities ``v`` (n, 3) and raw gyro readings
    ``gyro`` (n, 3), given the lever arm."""
    body = matvec(r.transpose(0, 2, 1), v) + matvec(hat_batch(gyro), ext.p_ID)
    return matvec(ext.R_ID.T, body)


# per pair of n, the change of the DVL reading between the keyframes and
# of the lever-arm velocity hat(gyro) @ p_ID of the raw gyro readings there
DvlVelocityPairData = namedtuple("DvlVelocityPairData", "d_meas d_lever")


def stack_dvl_velocity_pairs(pairs, ext: DvlExtrinsics) -> DvlVelocityPairData:
    """From objects with the DVL samples ``meas_i``, ``meas_m`` and the
    raw gyro readings ``gyro_i``, ``gyro_m`` of each pair."""
    pairs = list(pairs)
    meas = np.array([(d.meas_i.vel, d.meas_m.vel) for d in pairs])
    gyro = np.array([(d.gyro_i, d.gyro_m) for d in pairs])
    lever = (hat_batch(gyro.reshape(-1, 3)) @ ext.p_ID).reshape(-1, 2, 3)
    return DvlVelocityPairData(meas[:, 1] - meas[:, 0], lever[:, 1] - lever[:, 0])


def dvl_velocity_pair_residuals(st: StateStack, i, j, d: DvlVelocityPairData,
                                ext: DvlExtrinsics, with_jacobians: bool = True):
    """Relative-velocity residuals (n, 3) of n state pairs: the change of
    ``dvl_velocity_estimate`` against the change of the reading, so a bias
    common to both readings of a pair cancels. With Jacobians also their
    (n, 3, 2, 18) blocks w.r.t. states i and j; else None."""
    r_it, r_jt = st.R[i].transpose(0, 2, 1), st.R[j].transpose(0, 2, 1)
    body_i, body_j = matvec(r_it, st.x[i, VEL]), matvec(r_jt, st.x[j, VEL])
    res = ((body_j - body_i) + d.d_lever) @ ext.R_ID - d.d_meas
    if not with_jacobians:
        return res, None
    rdt = ext.R_ID.T
    jac = np.zeros((len(res), 3, 2, STATE_DOF))
    jac[:, :, 0, PHI] = -rdt @ hat_batch(body_i)
    jac[:, :, 0, VEL] = -rdt @ r_it
    jac[:, :, 1, PHI] = rdt @ hat_batch(body_j)
    jac[:, :, 1, VEL] = rdt @ r_jt
    return res, jac


# n DVL translation preintegrations stacked, and jac0, the Jacobian blocks
# that they fix alone
DvlPositionPairData = namedtuple("DvlPositionPairData",
                                 "dp J_dp_dbg J_dp_dbv lin_bg lin_bv jac0")
_WALK_BLOCKS = np.stack([-np.eye(3), np.eye(3)], axis=1)  # bv walk, i and j


def stack_dvl_position_pairs(preints) -> DvlPositionPairData:
    pre = list(preints)
    mats = np.array([(p.J_dp_dbg, p.J_dp_dbv) for p in pre])
    vecs = np.array([(p.dp, p.lin_bg, p.lin_bv) for p in pre])
    jac0 = np.zeros((len(pre), 6, 2, STATE_DOF))
    jac0[:, 0:3, 0, BG], jac0[:, 0:3, 0, BV] = -mats[:, 0], -mats[:, 1]
    jac0[:, 3:6, :, BV] = _WALK_BLOCKS
    return DvlPositionPairData(vecs[:, 0], mats[:, 0], mats[:, 1], vecs[:, 1],
                               vecs[:, 2], jac0)


def dvl_position_pair_residuals(st: StateStack, i, j, d: DvlPositionPairData,
                                ext: DvlExtrinsics, with_jacobians: bool = True):
    """Relative-translation residuals of n state pairs against the
    bias-corrected DVL preintegrations, in the frame of state i, then the
    DVL-bias random walk: (n, 6). With Jacobians also their (n, 6, 2, 18)
    blocks w.r.t. states i and j; else None."""
    r_i, r_j, x_i = st.R[i], st.R[j], st.x[i]
    dx, r_it = st.x[j] - x_i, r_i.transpose(0, 2, 1)
    # the translation difference is taken on its own before the lever arm
    # is added, so a common world shift of both states cancels exactly
    rel = matvec(r_it, (r_j @ ext.p_ID - r_i @ ext.p_ID) + dx[:, POS])
    # correct_dvl_bias of each pair, skipped where it is an exact no-op
    dp, dbv, dbg = d.dp, x_i[:, BV] - d.lin_bv, x_i[:, BG] - d.lin_bg
    if np.count_nonzero(dbv) + np.count_nonzero(dbg):
        dp = dp + matvec(d.J_dp_dbv, dbv) + matvec(d.J_dp_dbg, dbg)
    res = np.concatenate([rel - dp, dx[:, BV]], axis=1)
    if not with_jacobians:
        return res, None
    jac, hat_lever = d.jac0.copy(), hat(ext.p_ID)
    jac[:, 0:3, 0, PHI] = hat_batch(rel) + hat_lever
    jac[:, 0:3, 0, POS] = -r_it
    jac[:, 0:3, 1, PHI] = -r_it @ r_j @ hat_lever
    jac[:, 0:3, 1, POS] = r_it
    return res, jac
