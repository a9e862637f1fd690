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
sums, and only the rotation product, the rotation's gyro-bias Jacobian and
the covariance are sequential loops. Checkpoints at any set of times are one
batched evaluation.

The first-order bias correction is written once, :func:`correct_imu_bias_batch`:
the pair residuals apply it, and the state predictions read it through
:func:`correct_imu_bias`, a batch of one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ImuBias:
    bg: np.ndarray
    ba: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bg", np.asarray(self.bg, dtype=float))
        object.__setattr__(self, "ba", np.asarray(self.ba, dtype=float))

    @staticmethod
    def zero() -> "ImuBias":
        return ImuBias(np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class ImuNoiseSpec:
    """White-noise densities (per sqrt(Hz)); the bias random walks enter the
    window as factors of their own (``backend.SensorNoise``)."""

    sigma_g: float = 0.0
    sigma_a: float = 0.0

    def __post_init__(self):
        if min(self.sigma_g, self.sigma_a) < 0:
            raise ValueError("noise densities must be nonnegative")


# preintegrated-rotation state at n times: the relative rotation since the
# buffer start, its gyro-bias Jacobian and the covariance of the
# rotation-vector noise, each (n, 3, 3)
RotationCheckpoints = namedtuple("RotationCheckpoints",
                                 "times rotations bias_jacobians phi_covs")


# the running sums of a preintegration at the start of one step, and the
# time of the sample that step holds
ImuStepState = namedtuple("ImuStepState", "sample_t dR dv dp J_dR_dbg J_dv_dbg "
                          "J_dv_dba J_dp_dbg J_dp_dba cov")


@dataclass
class ImuPreintegrated:
    dR: np.ndarray
    dv: np.ndarray
    dp: np.ndarray
    dt_total: float
    lin_bias: ImuBias
    cov: np.ndarray              # 9x9 ordered (phi, v, p)
    J_dR_dbg: np.ndarray
    J_dv_dbg: np.ndarray
    J_dv_dba: np.ndarray
    J_dp_dbg: np.ndarray
    J_dp_dba: np.ndarray
    noise: ImuNoiseSpec
    t_start: float
    t_end: float
    # per-step bookkeeping at each integration step start (before the step)
    step_t: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_omega: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    step_dR: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    step_J: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    step_phi_cov: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    # the sums before the last step, from which ``integrate_imu`` resumes
    last_step: ImuStepState | None = None

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
            np.asarray(times, dtype=float), self.step_dR[k] @ e,
            et @ self.step_J[k] - jr * dt,
            et @ self.step_phi_cov[k] @ e
            + (self.noise.sigma_g**2) * dt * (jr @ jr.transpose(0, 2, 1)))


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


def integrate_imu(samples, lin_bias: ImuBias, noise: ImuNoiseSpec,
                  t_start: float | None = None, *, t_end: float,
                  resume: ImuPreintegrated | None = None) -> ImuPreintegrated:
    """Preintegrate a buffer of IMU samples about a fixed bias linearization
    from ``t_start`` (the first sample's time if None) to ``t_end``.

    Produces the relative rotation/velocity/translation sums, the bias
    Jacobians for first-order bias updates, and the (phi, v, p) covariance
    propagated with per-step noise sigma^2 / dt.

    Every per-step term is computed as arrays over all steps at once: the
    bias-corrected rates and specific forces, the exponential and right
    Jacobian of each step's rotation, the rotated force terms, and the
    covariance's transition and noise blocks. The velocity and translation
    sums and their bias Jacobians are running sums of per-step increments.
    Only three chains stay sequential, each one loop over precomputed
    arrays: the rotation product, the gyro-bias Jacobian of the rotation,
    and the 9x9 covariance.

    ``resume`` extends an earlier preintegration about the same bias and
    noise to ``t_end``. Its last hold step may have ended between two
    samples, so that step is integrated again from the sums recorded before
    it: ``samples`` must start at the sample that step holds, and
    ``t_start`` stays the earlier one's. The result, checkpoints included,
    equals one call over the whole span bit for bit.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty IMU sample buffer")
    times = np.array([s.t for s in samples], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("IMU timestamps must be strictly increasing")
    if resume is None:
        if t_start is None:
            t_start = float(times[0])
        zero = np.zeros((3, 3))
        first = ImuStepState(float("nan"), np.eye(3), np.zeros(3), np.zeros(3),
                             zero, zero, zero, zero, zero, np.zeros((9, 9)))
        first_t, kept = t_start, 0
    else:
        _check_resume(resume, times[0], lin_bias, noise, t_start)
        t_start = resume.t_start
        first = resume.last_step
        first_t = float(resume.step_t[-1])
        kept = len(resume.step_t) - 1

    idx, starts, dts = hold_intervals(times, first_t, t_end)
    if len(idx) == 0:
        raise ValueError("no IMU samples overlap the requested interval")

    # per-step terms that do not depend on the previous step
    held = [samples[k] for k in idx]
    omega = np.array([s.gyro for s in held]) - lin_bias.bg
    acc = np.array([s.accel for s in held]) - lin_bias.ba
    n, dt1, dt = len(idx), dts[:, None], dts[:, None, None]
    phi = omega * dt1
    e = exp_so3_batch(phi)
    jr_dt = right_jacobian_so3_batch(phi) * dt

    # sequential: the rotation and its gyro-bias Jacobian at each step start
    d_r, j_r_bg = first.dR, first.J_dR_dbg
    rots, jacs = [d_r], [j_r_bg]
    for e_k, jr_k in zip(e, jr_dt):
        j_r_bg = e_k.T @ j_r_bg - jr_k
        d_r = d_r @ e_k
        rots.append(d_r)
        jacs.append(j_r_bg)
    rots, jacs = np.array(rots), np.array(jacs)
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
    if noise.sigma_g or noise.sigma_a or cov.any():
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
        q = np.repeat(np.array([noise.sigma_g**2, noise.sigma_a**2]), 3) / dt1
        n_mat = (b_mat * q[:, None, :]) @ b_mat.transpose(0, 2, 1)
        del b_mat

        # sequential: the covariance, its rotation block at each step start
        for k, (a_k, n_k) in enumerate(zip(a_mat, n_mat)):
            phi_covs[k] = cov[0:3, 0:3]
            last_cov = cov
            cov = a_k @ cov @ a_k.T + n_k

    last = ImuStepState(samples[idx[-1]].t, rots[-2], dv[-2], dp[-2], jacs[-2],
                        j_v_bg[-2], j_v_ba[-2], j_p_bg[-2], j_p_ba[-2], last_cov)

    def steps(name, new):
        # the resumed preintegration's steps before its last, then the new
        return np.concatenate([getattr(resume, name)[:kept], new]) if kept else new

    return ImuPreintegrated(
        dR=rots[-1], dv=dv[-1], dp=dp[-1], dt_total=float(t_end - t_start),
        lin_bias=lin_bias, cov=cov,
        J_dR_dbg=jacs[-1], J_dv_dbg=j_v_bg[-1], J_dv_dba=j_v_ba[-1],
        J_dp_dbg=j_p_bg[-1], J_dp_dba=j_p_ba[-1],
        noise=noise, t_start=float(t_start), t_end=float(t_end),
        step_t=steps("step_t", starts), step_omega=steps("step_omega", omega),
        step_dR=steps("step_dR", d_r), step_J=steps("step_J", j_r),
        step_phi_cov=steps("step_phi_cov", phi_covs),
        last_step=last,
    )


def _check_resume(resume: ImuPreintegrated, first_sample_t: float,
                  lin_bias: ImuBias, noise: ImuNoiseSpec,
                  t_start: float | None) -> None:
    if t_start is not None:
        raise ValueError("a resumed preintegration keeps its own start time")
    if not (np.array_equal(lin_bias.bg, resume.lin_bias.bg)
            and np.array_equal(lin_bias.ba, resume.lin_bias.ba)
            and noise == resume.noise):
        raise ValueError("a preintegration resumes only about its own bias "
                         "linearization and noise")
    if first_sample_t != resume.last_step.sample_t:
        raise ValueError(
            f"a resumed buffer must start at the sample of the last hold "
            f"step (t={resume.last_step.sample_t}), not at t={first_sample_t}")


def correct_imu_bias(preint: ImuPreintegrated, new_bias: ImuBias):
    """First-order update of (dR, dv, dp) for a bias change, without
    re-integration; intended for small changes (|delta| < 0.1 per component).
    """
    b = np.concatenate([new_bias.bg, new_bias.ba])[None]
    d_r, dvp, _ = correct_imu_bias_batch(stack_imu_pairs([preint]), b)
    return d_r[0], dvp[0, :3], dvp[0, 3:]


def predict_state_imu(state_i: NavState, preint: ImuPreintegrated,
                      gravity) -> NavState:
    """Propagate a state across a preintegrated interval under known gravity."""
    g = np.asarray(gravity, dtype=float)
    dt = preint.dt_total
    d_r, dv, dp = correct_imu_bias(preint, ImuBias(state_i.bg, state_i.ba))
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
    vecs = np.array([(p.dv, p.dp, p.lin_bias.bg, p.lin_bias.ba) for p in pre])
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
                       with_jacobians: bool = True):
    """Inertial residuals of n state pairs (rows ``i`` and ``j`` of ``st``),
    each preintegration corrected to state i's biases: (n, 15) rows of
    rotation, velocity and translation error, then the gyro and accel bias
    random walks. With Jacobians also their (n, 15, 2, 18) blocks w.r.t.
    the local perturbations of states i and j (rotation right-multiplied,
    everything else additive); else None."""
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
    if not with_jacobians:
        return res, None
    jac = np.zeros((len(res), 15, 2, STATE_DOF))
    jac[:, 3:9, 0, 9:15] = -d.J_vp
    jac[:, 9:15, :, 9:15] = _WALK_BLOCKS
    ji, jj = jac[:, :, 0], jac[:, :, 1]
    jr_inv = right_jacobian_inv_so3_batch(e_r)
    ji[:, 0:3, PHI] = -jr_inv @ r_j.transpose(0, 2, 1) @ r_i
    jj[:, 0:3, PHI] = jr_inv
    j_bg = -jr_inv @ m.transpose(0, 2, 1)  # exp(-e_r) is m^T
    if phi_b is not None:
        j_bg = j_bg @ right_jacobian_so3_batch(phi_b)
    ji[:, 0:3, BG] = j_bg @ d.J_dR_dbg
    ji[:, 3:9, PHI] = hat_batch(a_vp.reshape(-1, 3)).reshape(-1, 6, 3)
    ji[:, 3:6, VEL] = ji[:, 6:9, POS] = -r_it
    jj[:, 3:6, VEL] = jj[:, 6:9, POS] = r_it
    ji[:, 6:9, VEL] = -r_it * dt[:, :, None]
    return res, jac
