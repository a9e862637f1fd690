"""IMU sample buffering, preintegration, bias correction and the inertial
residual, stacked over keyframe pairs.

Integration uses a zero-order hold: sample k is applied over the interval
between its timestamp and the next (or the requested end time), so the
preintegrated quantities are plain left-Riemann sums and products. Per-step
rotation checkpoints (rotation, gyro-bias Jacobian, rotation-noise covariance)
are recorded so the DVL preintegration can reuse them.

The integrator is array code (Forster et al., "On-Manifold Preintegration",
T-RO 2017, in discrete form): every term of a step that does not depend on
the step before it is computed over all steps at once, the sums are running
sums (the rotation's gyro-bias Jacobian too, in the span's start frame), and
only the rotation product and the covariance are sequential loops.
Checkpoints at any set of times are one batched evaluation.

Both preintegrations take and record plain biases and noise (here ``lin_bg``,
``lin_ba``, ``sigma_g`` and ``sigma_a``; the DVL's records its IMU span's
``lin_bg``), which a resume must repeat. Their buffer and noise checks, holds
and resume are written once, :func:`hold_steps` and :func:`join_steps`.

The first-order bias correction is written once, :func:`correct_imu_bias_batch`:
the pair residuals apply it, and the state predictions read it through
:func:`correct_imu_bias`, a batch of one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .manifold import (I3, exp_so3_batch, hat_batch, log_so3_batch,
                       right_jacobian_inv_so3_batch, right_jacobian_so3_batch)
from .state import BG, PHI, POS, STATE_DOF, VEL, NavState, StateStack, matvec


@dataclass(frozen=True)
class ImuSample:
    t: float
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gyro", np.asarray(self.gyro, dtype=float))
        object.__setattr__(self, "accel", np.asarray(self.accel, dtype=float))


# preintegrated-rotation state at the n times asked for, in their order: the
# relative rotation since the buffer start, its gyro-bias Jacobian and the
# covariance of the rotation-vector noise, each (n, 3, 3)
RotationCheckpoints = namedtuple("RotationCheckpoints",
                                 "rotations bias_jacobians phi_covs")


# the running sums of a preintegration at the start of one step (S is dR
# J_dR_dbg, see integrate_imu), and the time of the sample that step holds
ImuStepState = namedtuple("ImuStepState", "sample_t dR dv dp S J_dv_dbg "
                          "J_dv_dba J_dp_dbg J_dp_dba cov")


@dataclass
class ImuPreintegrated:
    dR: np.ndarray
    dv: np.ndarray
    dp: np.ndarray
    dt_total: float
    lin_bg: np.ndarray
    lin_ba: np.ndarray
    cov: np.ndarray              # 9x9 ordered (phi, v, p)
    J_dR_dbg: np.ndarray
    J_dv_dbg: np.ndarray
    J_dv_dba: np.ndarray
    J_dp_dbg: np.ndarray
    J_dp_dba: np.ndarray
    # the white-noise densities it was made with, which a resume keeps
    sigma_g: float
    sigma_a: float
    t_start: float
    t_end: float
    # per-step bookkeeping at each integration step start (before the step)
    step_t: np.ndarray
    step_omega: np.ndarray
    step_dR: np.ndarray
    step_J: np.ndarray
    step_phi_cov: np.ndarray
    # the sums before the last step, from which ``integrate_imu`` resumes
    last_step: ImuStepState

    def _held(self, times):
        """``held_steps`` of ``times``, the held rotation vector and its
        exponential."""
        k, delta = held_steps(self, times)
        phi = self.step_omega[k] * delta[:, None]
        return k, delta[:, None, None], phi, exp_so3_batch(phi)

    def rotations_at(self, times) -> np.ndarray:
        """The rotations of :meth:`checkpoints_at` alone."""
        k, _, _, e = self._held(times)
        return self.step_dR[k] @ e

    def checkpoints_at(self, times) -> RotationCheckpoints:
        """Rotation checkpoints at each of ``times``: the step state recorded
        at or before each time, carried on to it with that step's gyro
        reading held constant."""
        k, dt, phi, e = self._held(times)
        jr, et = right_jacobian_so3_batch(phi), e.transpose(0, 2, 1)
        return RotationCheckpoints(
            self.step_dR[k] @ e, et @ self.step_J[k] - jr * dt,
            et @ self.step_phi_cov[k] @ e
            + self.sigma_g**2 * dt * (jr @ jr.transpose(0, 2, 1)))


def held_steps(pre, times) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``times`` within the span of the preintegration ``pre``:
    the last step that starts at or before it (``pre.step_t``), and the
    hold since that step's start, 0 within 1e-9 s of it."""
    tol = 1e-9
    times = np.asarray(times, dtype=float)
    if np.count_nonzero((times < pre.t_start - tol) | (times > pre.t_end + tol)):
        raise ValueError(f"times {times.min()}..{times.max()} outside the "
                         f"preintegration span [{pre.t_start}, {pre.t_end}]")
    k = np.maximum(np.searchsorted(pre.step_t, times + tol) - 1, 0)
    delta = times - pre.step_t[k]
    # a zero hold is exact: it adds nothing, and its exponential is I
    return k, np.where(delta > tol, delta, 0.0)


def hold_intervals(times: np.ndarray, t_start: float, t_end: float):
    """Zero-order-hold coverage of [t_start, t_end] by samples at ``times``.

    Returns (indices, effective start times, durations). The hold of the
    first overlapping sample is extended backwards to t_start if needed, so
    the durations always sum to t_end - t_start.
    """
    if t_end < t_start:
        raise ValueError("t_end precedes t_start")
    times = np.asarray(times, dtype=float)
    starts = np.maximum(times, t_start)
    starts[:1] = t_start
    ends = np.minimum(np.append(times[1:], t_end), t_end)
    idx = np.flatnonzero(ends > starts)
    return idx, starts[idx], (ends - starts)[idx]


def _running_sums(first: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``first`` and its sums with each prefix of ``steps``, added left to
    right as a loop would: n + 1 entries for n steps."""
    return np.cumsum(np.concatenate([first[None], steps]), axis=0)


def hold_steps(sensor: str, samples, t_start: float | None, t_end: float,
               resume, own: bool, noise):
    """The holds of one preintegration call, for the IMU and the DVL alike:
    the start (``t_start``, or the first sample's time if None), the sample,
    start and length of each hold of the buffer ``samples`` up to ``t_end``,
    and how many steps of ``resume`` are kept. No ``noise`` may be negative.

    ``resume`` extends an earlier preintegration, whose last step is
    integrated again from the sums before it (``last_step``): the holds
    start there, the start stays the earlier one's, and the buffer must
    begin at the sample that step holds. ``own`` says that the call's
    linearization, noise, extrinsics (the DVL's) and start are the earlier
    one's. The result equals one call over the whole span bit for bit."""
    if min(noise) < 0:
        raise ValueError(f"{sensor} noise must be nonnegative, not {noise}")
    samples = list(samples)
    if not samples:
        raise ValueError(f"empty {sensor} sample buffer")
    times = np.array([s.t for s in samples], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError(f"{sensor} timestamps must be strictly increasing")
    if resume is None:
        t_start = float(times[0]) if t_start is None else t_start
        first_t, kept = t_start, 0
    else:
        if not own or times[0] != resume.last_step.sample_t:
            raise ValueError(
                f"a {sensor} preintegration resumes only with its own "
                f"linearization, noise, extrinsics and start, from the sample "
                f"of its last hold step (t={resume.last_step.sample_t}), "
                f"not t={times[0]}")
        t_start, first_t = resume.t_start, float(resume.step_t[-1])
        kept = len(resume.step_t) - 1
    idx, starts, dts = hold_intervals(times, first_t, t_end)
    if len(idx) == 0:
        raise ValueError(f"no {sensor} samples overlap the requested interval")
    return t_start, [samples[k] for k in idx], starts, dts, kept


def join_steps(resume, kept: int, **steps) -> dict:
    """The per-step arrays ``steps`` after the first ``kept`` of ``resume``."""
    return {name: np.concatenate([getattr(resume, name)[:kept], new])
            if kept else new for name, new in steps.items()}


def integrate_imu(samples, lin_bg, lin_ba, sigma_g=0.0, sigma_a=0.0,
                  t_start: float | None = None, *, t_end: float,
                  resume: ImuPreintegrated | None = None) -> ImuPreintegrated:
    """Preintegrate a buffer of IMU samples about fixed biases ``lin_bg`` and
    ``lin_ba`` from ``t_start`` (the first sample's time if None) to ``t_end``.

    Produces the relative rotation/velocity/translation sums, the bias
    Jacobians for first-order bias updates, and the (phi, v, p) covariance
    propagated with per-step noise sigma^2 / dt from the white-noise
    densities (per sqrt(Hz)) ``sigma_g`` and ``sigma_a``.

    Every per-step term is computed as arrays over all steps at once: the
    bias-corrected rates and specific forces, the exponential and right
    Jacobian of each step's rotation, the rotated force terms, and the
    covariance's transition and noise blocks. The velocity and translation
    sums and their bias Jacobians are running sums of per-step increments,
    and so is S = dR J, the rotation's gyro-bias Jacobian J in the span's
    start frame: S_{k+1} = S_k - dR_{k+1} Jr_k dt_k is J's recursion
    J_{k+1} = exp(phi_k)^T J_k - Jr_k dt_k in closed form. Only the rotation
    product and the 9x9 covariance stay sequential, one loop each.

    ``resume`` extends an earlier preintegration about the same biases and
    densities to ``t_end``, as :func:`hold_steps` lays out, from its last
    step's S, so the sum adds what one call adds; ``t_start`` is None.
    """
    lin_bg, lin_ba = (np.array(b, dtype=float) for b in (lin_bg, lin_ba))
    own = resume is not None and t_start is None \
        and np.array_equal(lin_bg, resume.lin_bg) \
        and np.array_equal(lin_ba, resume.lin_ba) \
        and (sigma_g, sigma_a) == (resume.sigma_g, resume.sigma_a)
    t_start, held, starts, dts, kept = hold_steps(
        "IMU", samples, t_start, t_end, resume, own, (sigma_g, sigma_a))
    z = np.zeros((3, 3))
    first = resume.last_step if resume is not None else ImuStepState(
        float("nan"), np.eye(3), np.zeros(3), np.zeros(3), z, z, z, z, z, np.zeros((9, 9)))

    # per-step terms that do not depend on the previous step
    omega = np.array([s.gyro for s in held]) - lin_bg
    acc = np.array([s.accel for s in held]) - lin_ba
    n, dt1, dt = len(held), dts[:, None], dts[:, None, None]
    phi = omega * dt1
    e = exp_so3_batch(phi)
    jr_dt = right_jacobian_so3_batch(phi) * dt

    # sequential: the rotation at each step start; then its gyro-bias
    # Jacobian, dR^T S with S a running sum
    rots = [first.dR]
    for e_k in e:
        rots.append(rots[-1] @ e_k)
    rots = np.array(rots)
    s = _running_sums(first.S, -rots[1:] @ jr_dt)
    jacs = rots.transpose(0, 2, 1) @ s
    d_r, j_r = rots[:-1], jacs[:-1]  # before each step

    racc = matvec(d_r, acc)
    ra_hat = d_r @ hat_batch(acc)
    ra_hat_j = ra_hat @ j_r
    dv = _running_sums(first.dv, racc * dt1)
    dp = _running_sums(first.dp, dv[:-1] * dt1 + 0.5 * racc * dt1 * dt1)
    # translation/velocity bias Jacobians use pre-step dR and J terms
    j_v_bg = _running_sums(first.J_dv_dbg, -ra_hat_j * dt)
    j_v_ba = _running_sums(first.J_dv_dba, -d_r * dt)
    j_p_bg = _running_sums(first.J_dp_dbg,
                           j_v_bg[:-1] * dt - 0.5 * ra_hat_j * dt * dt)
    j_p_ba = _running_sums(first.J_dp_dba,
                           j_v_ba[:-1] * dt - 0.5 * d_r * dt * dt)

    # with no noise entering and none carried in, the covariance stays zero
    cov = last_cov = first.cov
    phi_covs = np.zeros((n, 3, 3))
    if sigma_g or sigma_a or cov.any():
        # covariance transition A and noise B Q B^T in (phi, v, p), with
        # per-step noise sigma^2 / dt
        a_mat = np.broadcast_to(np.eye(9), (n, 9, 9)).copy()
        a_mat[:, 0:3, 0:3] = e.transpose(0, 2, 1)
        a_mat[:, 3:6, 0:3] = -ra_hat * dt
        a_mat[:, 6:9, 0:3] = -0.5 * ra_hat * dt * dt
        a_mat[:, 6:9, 3:6] = I3 * dt
        b_mat = np.zeros((n, 9, 6))
        b_mat[:, 0:3, 0:3] = jr_dt
        b_mat[:, 3:6, 3:6] = d_r * dt
        b_mat[:, 6:9, 3:6] = 0.5 * d_r * dt * dt
        q = np.repeat(np.array([sigma_g**2, sigma_a**2]), 3) / dt1
        n_mat = (b_mat * q[:, None, :]) @ b_mat.transpose(0, 2, 1)
        del b_mat

        # sequential: the covariance, its rotation block at each step start
        for k, (a_k, n_k) in enumerate(zip(a_mat, n_mat)):
            phi_covs[k] = cov[0:3, 0:3]
            last_cov = cov
            cov = a_k @ cov @ a_k.T + n_k

    last = ImuStepState(held[-1].t, rots[-2], dv[-2], dp[-2], s[-2],
                        j_v_bg[-2], j_v_ba[-2], j_p_bg[-2], j_p_ba[-2], last_cov)

    return ImuPreintegrated(
        dR=rots[-1], dv=dv[-1], dp=dp[-1], dt_total=float(t_end - t_start),
        lin_bg=lin_bg, lin_ba=lin_ba, cov=cov,
        J_dR_dbg=jacs[-1], J_dv_dbg=j_v_bg[-1], J_dv_dba=j_v_ba[-1],
        J_dp_dbg=j_p_bg[-1], J_dp_dba=j_p_ba[-1],
        sigma_g=sigma_g, sigma_a=sigma_a, t_start=float(t_start),
        t_end=float(t_end),
        last_step=last, **join_steps(
            resume, kept, step_t=starts, step_omega=omega, step_dR=d_r,
            step_J=j_r, step_phi_cov=phi_covs))


def correct_imu_bias(preint: ImuPreintegrated, new_bg, new_ba):
    """First-order update of (dR, dv, dp) for new biases, without
    re-integration; intended for small changes (|delta| < 0.1 per component).
    """
    b = np.concatenate([new_bg, new_ba])[None]
    d_r, dvp, _ = correct_imu_bias_batch(stack_imu_pairs([preint]), b)
    return d_r[0], dvp[0, :3], dvp[0, 3:]


def predict_state_imu(state_i: NavState, preint: ImuPreintegrated,
                      gravity) -> NavState:
    """Propagate a state across a preintegrated interval under known gravity."""
    g = np.asarray(gravity, dtype=float)
    dt = preint.dt_total
    d_r, dv, dp = correct_imu_bias(preint, state_i.bg, state_i.ba)
    r_j = state_i.R @ d_r
    v_j = state_i.v + g * dt + state_i.R @ dv
    p_j = state_i.p + state_i.v * dt + 0.5 * g * dt * dt + state_i.R @ dp
    return NavState(r_j, p_j, v_j, state_i.bg.copy(), state_i.ba.copy(),
                    state_i.bv.copy())


# n preintegrations stacked: dvp is (dv, dp), J_vp their Jacobian w.r.t.
# (bg, ba), lin_b the (bg, ba) linearization and dt an (n, 1) column
ImuPairData = namedtuple("ImuPairData", "dR J_dR_dbg dvp J_vp lin_b dt")
_WALK_BLOCKS = np.stack([-np.eye(6), np.eye(6)], axis=1)  # (bg, ba) walk, i and j


def stack_imu_pairs(preints) -> ImuPairData:
    pre = list(preints)
    n = len(pre)
    rot = np.array([(p.dR, p.J_dR_dbg) for p in pre])
    j_vp = np.array([(p.J_dv_dbg, p.J_dv_dba, p.J_dp_dbg, p.J_dp_dba) for p in pre])
    j_vp = j_vp.reshape(n, 2, 2, 3, 3).transpose(0, 1, 3, 2, 4).reshape(n, 6, 6)
    vecs = np.array([(p.dv, p.dp, p.lin_bg, p.lin_ba) for p in pre])
    return ImuPairData(rot[:, 0], rot[:, 1], vecs[:, :2].reshape(n, 6), j_vp,
                       vecs[:, 2:].reshape(n, 6), np.array([[p.dt_total] for p in pre]))


def correct_imu_bias_batch(d: ImuPairData, b: np.ndarray):
    """The stacked dR (n, 3, 3) and (dv, dp) (n, 6) corrected to first order
    to the biases (bg, ba) ``b`` (n, 6), and the rotation vectors of the
    corrections (n, 3); unchanged, and None, when no bias changed at all."""
    db = b - d.lin_b
    if not np.count_nonzero(db):
        return d.dR, d.dvp, None
    phi = matvec(d.J_dR_dbg, db[:, :3])
    return d.dR @ exp_so3_batch(phi), d.dvp + matvec(d.J_vp, db), phi


def imu_pair_residuals(st: StateStack, i, j, d: ImuPairData, gravity,
                       first=True):
    """Inertial residuals of n state pairs (rows ``i`` and ``j`` of ``st``),
    each preintegration corrected to state i's biases: (n, 15) rows of
    rotation, velocity and translation error, then the gyro and accel bias
    random walks, and their (n, 15, 2, 18) Jacobian blocks w.r.t. the local
    perturbations of states i and j (rotation right-multiplied, everything
    else additive). Without ``first`` state i's block is not built and
    stays zero, for a solve that holds every state i fixed."""
    r_i, r_j, x_i, x_j = st.R[i], st.R[j], st.x[i], st.x[j]
    dx, dt, r_it = x_j - x_i, d.dt, r_i.transpose(0, 2, 1)
    d_r, dvp, phi_b = correct_imu_bias_batch(d, x_i[:, 9:15])
    m = d_r.transpose(0, 2, 1) @ r_it @ r_j
    e_r = log_so3_batch(m)
    g_dt = np.asarray(gravity, dtype=float) * dt
    # velocity and translation change in state i's frame, as columns
    a_vp = r_it @ np.stack([dx[:, VEL] - g_dt,
                            dx[:, POS] - x_i[:, VEL] * dt - 0.5 * g_dt * dt], axis=2)
    a_vp = a_vp.transpose(0, 2, 1).reshape(-1, 6)
    res = np.concatenate([e_r, a_vp - dvp, dx[:, 9:15]], axis=1)
    jac = np.zeros((len(res), 15, 2, STATE_DOF))
    ji, jj = jac[:, :, 0], jac[:, :, 1]
    jr_inv = right_jacobian_inv_so3_batch(e_r)
    jj[:, 0:3, PHI] = jr_inv
    jj[:, 3:6, VEL] = jj[:, 6:9, POS] = r_it
    jj[:, 9:15, 9:15] = _WALK_BLOCKS[:, 1]
    if not first:
        return res, jac
    ji[:, 3:9, 9:15] = -d.J_vp
    ji[:, 9:15, 9:15] = _WALK_BLOCKS[:, 0]
    ji[:, 0:3, PHI] = -jr_inv @ r_j.transpose(0, 2, 1) @ r_i
    j_bg = -jr_inv @ m.transpose(0, 2, 1)  # exp(-e_r) is m^T
    if phi_b is not None:
        j_bg = j_bg @ right_jacobian_so3_batch(phi_b)
    ji[:, 0:3, BG] = j_bg @ d.J_dR_dbg
    ji[:, 3:9, PHI] = hat_batch(a_vp.reshape(-1, 3)).reshape(-1, 6, 3)
    ji[:, 3:6, VEL] = ji[:, 6:9, POS] = -r_it
    ji[:, 6:9, VEL] = -r_it * dt[:, :, None]
    return res, jac
