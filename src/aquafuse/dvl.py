"""DVL velocity model with a slowly varying bias: decoupled (resumable)
translation preintegration, first-order bias updates and the DVL residuals,
stacked over keyframe pairs.

The preintegrated translation is the body-frame sum of rotated, bias-corrected
velocity samples under a zero-order hold, over the span of an IMU
preintegration whose rotation checkpoints at the hold starts give each hold's
rotation, gyro-bias Jacobian and rotation-noise covariance, so its gyro-bias
linearization is the span's. As in the IMU integrator, every per-hold term is
computed over all holds at once and the sums are running sums, the DVL bias
and noise are a plain array and a float, and the buffer and noise checks, the
holds and the resume are written once for both, in ``imu.hold_steps`` and
``imu.join_steps``.

Written once as array code: the bias correction in :func:`correct_dvl_bias_batch`
(the position pairs; :func:`correct_dvl_bias` is a batch of one) and the lever
arm ``hat(gyro) @ p_ID`` in :func:`lever_velocity` (the velocity estimate, the
velocity pairs and the tracker's degraded branch).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .imu import (ImuPreintegrated, _running_sums, held_steps, hold_steps,
                  join_steps)
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


# the running sums of a DVL preintegration at the start of one hold, and
# the time of the sample that hold holds
DvlStepState = namedtuple("DvlStepState", "sample_t dp J_dp_dbv J_dp_dbg cov")


@dataclass
class DvlPreintegrated:
    dp: np.ndarray
    lin_bg: np.ndarray
    lin_bv: np.ndarray
    J_dp_dbv: np.ndarray
    J_dp_dbg: np.ndarray
    cov: np.ndarray
    t_start: float
    t_end: float
    # the velocity noise and extrinsics it was made with, which a resume keeps
    sigma_v: float
    ext: DvlExtrinsics
    # per hold: its start, the translation sum before it and the velocity
    # it adds, rotated into the frame at the span's start
    step_t: np.ndarray
    step_dp: np.ndarray
    step_vel: np.ndarray
    # the sums before the last hold, from which ``preintegrate_dvl`` resumes
    last_step: DvlStepState

    def translations_at(self, times) -> np.ndarray:
        """The translation sum (n, 3) at each of ``times``: the sum before
        the hold that starts at or before it, carried on with that hold's
        velocity, as :meth:`ImuPreintegrated.rotations_at` carries the
        rotation."""
        k, delta = held_steps(self, times)
        return self.step_dp[k] + self.step_vel[k] * delta[:, None]


def preintegrate_dvl(samples, imu_preint: ImuPreintegrated,
                     ext: DvlExtrinsics, lin_bv, sigma_v: float = 0.0,
                     resume: DvlPreintegrated | None = None) -> DvlPreintegrated:
    """Translation preintegration of a DVL buffer about the DVL bias
    ``lin_bv`` over the span of ``imu_preint``, whose rotations it sums with,
    so it records the span's gyro bias ``lin_bg``: the holds are
    ``hold_intervals`` of the span, the first extended back to its start, as
    in ``integrate_imu``. The covariance adds, hold by hold, the
    rotation-noise term and the white velocity noise ``sigma_v`` (per-sample
    standard deviation).

    ``resume`` extends an earlier preintegration about the same biases, at
    the same ``sigma_v`` and extrinsics, from the same start, to the end of
    ``imu_preint``, as :func:`~aquafuse.imu.hold_steps` lays out.
    """
    lin_bg, lin_bv = imu_preint.lin_bg, np.array(lin_bv, dtype=float)
    own = resume is not None and imu_preint.t_start == resume.t_start \
        and np.array_equal(lin_bg, resume.lin_bg) \
        and np.array_equal(lin_bv, resume.lin_bv) \
        and sigma_v == resume.sigma_v \
        and np.array_equal(ext.R_ID, resume.ext.R_ID) \
        and np.array_equal(ext.p_ID, resume.ext.p_ID)
    t_start, held, starts, dts, kept = hold_steps(
        "DVL", samples, imu_preint.t_start, imu_preint.t_end, resume, own,
        (sigma_v,))
    zero = np.zeros((3, 3))
    first = resume.last_step if resume is not None else DvlStepState(
        float("nan"), np.zeros(3), zero, zero, zero)
    cps = imu_preint.checkpoints_at(starts)
    d_r, dt1, dt = cps.rotations, dts[:, None], dts[:, None, None]
    # R_ID @ v row by row: a (n, 3) @ (3, 3) product sums in another order
    w = matvec(np.broadcast_to(ext.R_ID, d_r.shape),
               np.array([s.vel for s in held]) - lin_bv)
    vel = matvec(d_r, w)
    d_r_ext = d_r @ ext.R_ID
    rw = d_r @ hat_batch(w)
    dp = _running_sums(first.dp, vel * dt1)
    j_bv = _running_sums(first.J_dp_dbv, -d_r_ext * dt)
    j_bg = _running_sums(first.J_dp_dbg, -(rw @ cps.bias_jacobians) * dt)

    # with no noise entering and none carried in, the covariance stays zero
    cov = last_cov = first.cov
    sv2 = sigma_v**2
    if sv2 or cps.phi_covs.any() or cov.any():
        # each hold adds the rotation-noise term, then the velocity noise
        terms = np.stack([rw @ cps.phi_covs @ rw.transpose(0, 2, 1),
                          (d_r_ext * sv2) @ d_r_ext.transpose(0, 2, 1)], axis=1)
        covs = _running_sums(cov, (terms * dt[:, None] * dt[:, None])
                             .reshape(-1, 3, 3))
        cov, last_cov = covs[-1], covs[-3]

    last = DvlStepState(held[-1].t, dp[-2], j_bv[-2], j_bg[-2], last_cov)

    return DvlPreintegrated(
        dp=dp[-1], lin_bg=lin_bg, lin_bv=lin_bv, J_dp_dbv=j_bv[-1],
        J_dp_dbg=j_bg[-1], cov=cov, t_start=t_start, t_end=imu_preint.t_end,
        sigma_v=sigma_v, ext=ext, last_step=last,
        **join_steps(resume, kept, step_t=starts, step_dp=dp[:-1], step_vel=vel))


def correct_dvl_bias(preint: DvlPreintegrated, new_bg, new_bv) -> np.ndarray:
    """First-order update of the preintegrated translation for new biases,
    the pair residuals' correction of one preintegration."""
    return correct_dvl_bias_batch(stack_dvl_position_pairs([preint]),
                                  *np.reshape([new_bg, new_bv], (2, 1, 3)))[0]


def lever_velocity(gyro: np.ndarray, ext: DvlExtrinsics) -> np.ndarray:
    """The velocities hat(gyro) @ p_ID (n, 3) that rotation at the raw gyro
    readings ``gyro`` (n, 3) adds at the DVL, in the body frame."""
    return hat_batch(gyro) @ ext.p_ID


def dvl_velocity_estimate(r: np.ndarray, v: np.ndarray, gyro: np.ndarray,
                          ext: DvlExtrinsics) -> np.ndarray:
    """Velocities (n, 3) the DVL should measure at n states with rotations
    ``r`` (n, 3, 3), world velocities ``v`` (n, 3) and raw gyro readings
    ``gyro`` (n, 3), given the lever arm."""
    body = matvec(r.transpose(0, 2, 1), v) + lever_velocity(gyro, ext)
    return matvec(ext.R_ID.T, body)


# per pair of n, the change of the DVL reading between the keyframes and
# of the lever-arm velocity of the raw gyro readings there
DvlVelocityPairData = namedtuple("DvlVelocityPairData", "d_meas d_lever")


def stack_dvl_velocity_pairs(pairs, ext: DvlExtrinsics) -> DvlVelocityPairData:
    """From the readings ``(v_i, v_j, w_i, w_j)`` of each pair: the DVL
    velocities and the raw gyro readings at its two keyframes."""
    pairs = np.array(list(pairs), dtype=float)  # (n, 4, 3)
    lever = lever_velocity(pairs[:, 2:].reshape(-1, 3), ext).reshape(-1, 2, 3)
    return DvlVelocityPairData(pairs[:, 1] - pairs[:, 0],
                               lever[:, 1] - lever[:, 0])


def dvl_velocity_pair_residuals(st: StateStack, i, j, d: DvlVelocityPairData,
                                ext: DvlExtrinsics, first=True):
    """Relative-velocity residuals (n, 3) of n state pairs: the change of
    ``dvl_velocity_estimate`` against the change of the reading, so a bias
    common to both readings of a pair cancels; and their (n, 3, 2, 18)
    Jacobian blocks w.r.t. states i and j. Without ``first`` state i's
    block is not built and stays zero."""
    r_it, r_jt = st.R[i].transpose(0, 2, 1), st.R[j].transpose(0, 2, 1)
    body_i, body_j = matvec(r_it, st.x[i, VEL]), matvec(r_jt, st.x[j, VEL])
    res = ((body_j - body_i) + d.d_lever) @ ext.R_ID - d.d_meas
    rdt = ext.R_ID.T
    jac = np.zeros((len(res), 3, 2, STATE_DOF))
    if first:
        jac[:, :, 0, PHI] = -rdt @ hat_batch(body_i)
        jac[:, :, 0, VEL] = -rdt @ r_it
    jac[:, :, 1, PHI] = rdt @ hat_batch(body_j)
    jac[:, :, 1, VEL] = rdt @ r_jt
    return res, jac


# n DVL translation preintegrations stacked
DvlPositionPairData = namedtuple("DvlPositionPairData",
                                 "dp J_dp_dbg J_dp_dbv lin_bg lin_bv")
_WALK_BLOCKS = np.stack([-np.eye(3), np.eye(3)], axis=1)  # bv walk, i and j


def stack_dvl_position_pairs(preints) -> DvlPositionPairData:
    pre = list(preints)
    mats = np.array([(p.J_dp_dbg, p.J_dp_dbv) for p in pre])
    vecs = np.array([(p.dp, p.lin_bg, p.lin_bv) for p in pre])
    return DvlPositionPairData(vecs[:, 0], mats[:, 0], mats[:, 1], vecs[:, 1],
                               vecs[:, 2])


def correct_dvl_bias_batch(d: DvlPositionPairData, bg, bv) -> np.ndarray:
    """The stacked preintegrated translations (n, 3) corrected to first
    order to the biases ``bg`` and ``bv`` (n, 3), skipped where that is an
    exact no-op."""
    dp, dbv, dbg = d.dp, bv - d.lin_bv, bg - d.lin_bg
    if np.count_nonzero(dbv) + np.count_nonzero(dbg):
        dp = dp + matvec(d.J_dp_dbv, dbv) + matvec(d.J_dp_dbg, dbg)
    return dp


def dvl_position_pair_residuals(st: StateStack, i, j, d: DvlPositionPairData,
                                ext: DvlExtrinsics, first=True):
    """Relative-translation residuals of n state pairs against the
    bias-corrected DVL preintegrations, in the frame of state i, then the
    DVL-bias random walk: (n, 6); and their (n, 6, 2, 18) Jacobian blocks
    w.r.t. states i and j. Without ``first`` state i's block is not built
    and stays zero."""
    r_i, r_j, x_i = st.R[i], st.R[j], st.x[i]
    dx, r_it = st.x[j] - x_i, r_i.transpose(0, 2, 1)
    # the translation difference is taken on its own before the lever arm
    # is added, so a common world shift of both states cancels exactly
    rel = matvec(r_it, (r_j @ ext.p_ID - r_i @ ext.p_ID) + dx[:, POS])
    dp = correct_dvl_bias_batch(d, x_i[:, BG], x_i[:, BV])
    res = np.concatenate([rel - dp, dx[:, BV]], axis=1)
    jac, hat_lever = np.zeros((len(res), 6, 2, STATE_DOF)), hat(ext.p_ID)
    jac[:, 3:6, 1, BV] = _WALK_BLOCKS[:, 1]
    jac[:, 0:3, 1, PHI] = -r_it @ r_j @ hat_lever
    jac[:, 0:3, 1, POS] = r_it
    if first:
        jac[:, 0:3, 0, BG], jac[:, 0:3, 0, BV] = -d.J_dp_dbg, -d.J_dp_dbv
        jac[:, 3:6, 0, BV] = _WALK_BLOCKS[:, 0]
        jac[:, 0:3, 0, PHI] = hat_batch(rel) + hat_lever
        jac[:, 0:3, 0, POS] = -r_it
    return res, jac
