"""Shared test utilities: finite-difference Jacobians, discrete-time world
generators (oracles for the zero-order-hold integrators), per-step
reference forms of the array-coded integrators and of dead reckoning, the
scalar Huber kernel, DVL dead reckoning, random states, and the
photometric patches of keyframe pairs as the tracker makes them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from aquafuse.backend import photometric_payloads
from aquafuse.dvl import DvlExtrinsics, DvlSample, preintegrate_dvl
from aquafuse.frontend import initial_state
from aquafuse.imu import ImuSample, hold_intervals, integrate_imu
from aquafuse.manifold import SMALL_ANGLE, exp_so3, hat
from aquafuse.sim import sensor_rig_from_config
from aquafuse.state import NavState, matvec
from aquafuse.visual import BehindCameraError


def project(cam, point_c) -> np.ndarray:
    """Pinhole projection of a camera-frame point to pixel coordinates."""
    x, y, z = np.asarray(point_c, dtype=float)
    if z <= 1e-6:
        raise BehindCameraError(f"point depth {z} is not positive")
    return np.array([cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy])


def init_landmarks_reference(landmarks: dict, rig, frame, pose) -> None:
    """The tracker's landmark initialisation one observation at a time: each
    landmark ``frame`` observes that ``landmarks`` lacks, with a disparity
    above 0.05 px, back-projected at its stereo depth from the camera of
    the body ``pose``."""
    cam, t_wc = rig.cam, pose.compose(rig.T_IC)
    for obs in frame.observations:
        if obs.landmark_id in landmarks or obs.disparity is None \
                or obs.disparity <= 0.05:
            continue
        depth = cam.fx * cam.baseline / obs.disparity
        u, v = obs.pixel
        x_c = np.array([(u - cam.cx) / cam.fx * depth,
                        (v - cam.cy) / cam.fy * depth, depth])
        landmarks[obs.landmark_id] = t_wc.transform(x_c)


def fill_photometric(nodes, fields, intervals, cam, cfg) -> None:
    """Give each pair of consecutive ``nodes`` that ``intervals`` holds the
    photometric patches the tracker makes with a pair: hosted by the first
    node's observations at their lowest landmark ids, in its field of
    ``fields`` (one per node), toward the second's observations and field."""
    for (a, f_a), (b, f_b) in zip(zip(nodes, fields),
                                  zip(nodes[1:], fields[1:])):
        if (a.kf_id, b.kf_id) in intervals:
            intervals[(a.kf_id, b.kf_id)].photometric = photometric_payloads(
                f_a, sorted(a.observations, key=lambda o: o.landmark_id),
                f_b, b.observations, cam, cfg)


def fd_jacobian(fn, dim, retract, h=1e-6):
    """Central finite differences of ``fn`` along a retraction."""
    r0 = np.atleast_1d(np.asarray(fn(np.zeros(dim)), dtype=float))
    jac = np.zeros((len(r0), dim))
    for d in range(dim):
        dv = np.zeros(dim)
        dv[d] = h
        rp = np.atleast_1d(np.asarray(fn(dv), dtype=float))
        rm = np.atleast_1d(np.asarray(fn(-dv), dtype=float))
        jac[:, d] = (rp - rm) / (2.0 * h)
    del retract  # retraction is folded into fn by the callers
    return jac


def check_rotation(r, tol: float = 1e-9) -> np.ndarray:
    """Validate orthonormality and unit determinant; returns the array."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        raise ValueError("rotation must be a finite 3x3 matrix")
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol:
        raise ValueError("matrix is not orthonormal")
    if abs(np.linalg.det(r) - 1.0) > tol:
        raise ValueError("matrix determinant is not +1")
    return r


def jac_close(analytic, numeric, rtol=1e-5):
    scale = max(float(np.abs(numeric).max()), 1.0)
    return float(np.abs(np.asarray(analytic) - numeric).max()) <= rtol * scale


def assert_first_block_skipped(pair_residuals, *args) -> None:
    """A pair kind's residual function called with ``args``, and again with
    the first state's block off: the same residuals and state j blocks bit
    for bit, and zero state i blocks where the full call's are not."""
    res, jac = pair_residuals(*args)
    res_off, jac_off = pair_residuals(*args, False)
    assert np.array_equal(res_off, res)
    assert np.array_equal(jac_off[:, :, 1], jac[:, :, 1])
    assert np.all(jac_off[:, :, 0] == 0.0)
    assert np.all(np.abs(jac[:, :, 0]).max(axis=(1, 2)) > 0.0)


def random_rotation(rng: np.random.Generator,
                    max_angle: float = np.pi - 0.1) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_so3(axis * rng.uniform(0.0, max_angle))


def random_nav_state(rng: np.random.Generator) -> NavState:
    return NavState(
        random_rotation(rng, max_angle=1.5),
        rng.normal(size=3) * 2.0,
        rng.normal(size=3) * 0.8,
        rng.normal(size=3) * 0.01,
        rng.normal(size=3) * 0.05,
        rng.normal(size=3) * 0.02,
    )


def discrete_imu_world(rng: np.random.Generator, n: int = 100, dt: float = 0.01,
                       gravity=(0.0, 0.0, 9.81), bias=(np.zeros(3), np.zeros(3)),
                       omega_scale: float = 0.4, accel_scale: float = 0.5):
    """Random piecewise-constant IMU signals plus the exact discrete-time
    state sequence they generate (independent re-statement of the zero-order
    hold kinematics; used as the oracle for integrate/predict round trips).

    Returns (samples, states, gravity) with states[k] at time k*dt; the
    readings carry the biases ``bias``, (bg, ba).
    """
    g = np.asarray(gravity, dtype=float)
    bg, ba = bias
    r = random_rotation(rng, max_angle=0.5)
    p = rng.normal(size=3)
    v = rng.normal(size=3) * 0.5
    states = [NavState(r.copy(), p.copy(), v.copy(), bg.copy(), ba.copy())]
    samples = []
    for k in range(n):
        omega = rng.normal(size=3) * omega_scale
        a_w = rng.normal(size=3) * accel_scale  # hovering body: a_w stays small
        f_body = r.T @ (a_w - g)
        samples.append(ImuSample(k * dt, omega + bg, f_body + ba))
        p = p + v * dt + 0.5 * a_w * dt * dt
        v = v + a_w * dt
        r = r @ exp_so3(omega * dt)
        states.append(NavState(r.copy(), p.copy(), v.copy(), bg.copy(), ba.copy()))
    return samples, states, g


def dvl_samples_from_world(states, times, dt, ext: DvlExtrinsics,
                           bias=np.zeros(3)):
    """Exact DVL readings for a discrete world: per-interval velocities that
    reproduce the world's sensor-point displacements under the discrete sum.
    ``states[k]`` must be the state at ``times[k]``; the final state closes
    the last interval."""
    samples = []
    for k in range(len(times)):
        s0 = states[k]
        s1 = states[k + 1]
        p0 = s0.R @ ext.p_ID + s0.p
        p1 = s1.R @ ext.p_ID + s1.p
        r_wd = s0.R @ ext.R_ID
        v_d = r_wd.T @ (p1 - p0) / dt
        samples.append(DvlSample(float(times[k]), v_d + bias))
    return samples


# ------------- per-step references for the array-coded integrators ------------- #

def right_jacobian_reference(phi) -> np.ndarray:
    """Scalar closed form of the SO(3) right Jacobian."""
    phi = np.asarray(phi, dtype=float)
    theta = float(np.linalg.norm(phi))
    k = hat(phi)
    if theta < SMALL_ANGLE:
        return np.eye(3) - 0.5 * k + (k @ k) / 6.0
    a = (1.0 - np.cos(theta)) / (theta * theta)
    b = (theta - np.sin(theta)) / (theta**3)
    return np.eye(3) - a * k + b * (k @ k)


def hold_intervals_reference(times, t_start: float, t_end: float):
    """Zero-order-hold coverage of [t_start, t_end], one sample at a time."""
    idx, starts, dts = [], [], []
    n = len(times)
    for k in range(n):
        hold_end = times[k + 1] if k + 1 < n else t_end
        a = t_start if k == 0 else max(times[k], t_start)
        b = min(hold_end, t_end)
        if b > a:
            idx.append(k)
            starts.append(a)
            dts.append(b - a)
    return np.array(idx, dtype=int), np.array(starts), np.array(dts)


def integrate_imu_reference(samples, lin_bg, lin_ba, sigma_g: float,
                            sigma_a: float, t_start: float,
                            t_end: float) -> SimpleNamespace:
    """IMU preintegration one hold step at a time (Forster et al., T-RO 2017,
    zero-order hold): the sums, the bias Jacobians, the (phi, v, p)
    covariance and the per-step records, under the names of
    ``ImuPreintegrated``."""
    times = np.array([s.t for s in samples])
    idx, starts, dts = hold_intervals_reference(times, t_start, t_end)
    d_r, dv, dp, cov = np.eye(3), np.zeros(3), np.zeros(3), np.zeros((9, 9))
    # updated in place below
    j_r_bg, j_v_bg, j_v_ba, j_p_bg, j_p_ba = (np.zeros((3, 3)) for _ in range(5))
    steps = {name: [] for name in ("step_t", "step_omega", "step_dR",
                                   "step_J", "step_phi_cov")}
    for k, ts, dt in zip(idx, starts, dts):
        omega = samples[k].gyro - lin_bg
        acc = samples[k].accel - lin_ba
        for name, value in zip(steps, (ts, omega, d_r, j_r_bg, cov[0:3, 0:3])):
            steps[name].append(np.copy(value))
        e = exp_so3(omega * dt)
        jr = right_jacobian_reference(omega * dt)
        racc = d_r @ acc
        acc_hat = hat(acc)

        # translation/velocity bias Jacobians use pre-step dR and J terms
        j_p_ba += j_v_ba * dt - 0.5 * d_r * dt * dt
        j_p_bg += j_v_bg * dt - 0.5 * (d_r @ acc_hat @ j_r_bg) * dt * dt
        j_v_ba += -d_r * dt
        j_v_bg += -(d_r @ acc_hat @ j_r_bg) * dt

        # covariance propagation in (phi, v, p) with per-step noise sigma^2/dt

        a_mat = np.eye(9)
        a_mat[0:3, 0:3] = e.T
        a_mat[3:6, 0:3] = -(d_r @ acc_hat) * dt
        a_mat[6:9, 0:3] = -0.5 * (d_r @ acc_hat) * dt * dt
        a_mat[6:9, 3:6] = np.eye(3) * dt
        b_mat = np.zeros((9, 6))
        b_mat[0:3, 0:3] = jr * dt
        b_mat[3:6, 3:6] = d_r * dt
        b_mat[6:9, 3:6] = 0.5 * d_r * dt * dt
        q = np.diag([sigma_g**2 / dt] * 3 + [sigma_a**2 / dt] * 3)
        cov = a_mat @ cov @ a_mat.T + b_mat @ q @ b_mat.T

        dp = dp + dv * dt + 0.5 * racc * dt * dt
        dv = dv + racc * dt
        j_r_bg = e.T @ j_r_bg - jr * dt
        d_r = d_r @ e
    return SimpleNamespace(
        dR=d_r, dv=dv, dp=dp, cov=cov, J_dR_dbg=j_r_bg, J_dv_dbg=j_v_bg,
        J_dv_dba=j_v_ba, J_dp_dbg=j_p_bg, J_dp_dba=j_p_ba,
        **{name: np.array(values) for name, values in steps.items()})


def checkpoint_reference(pre, s: float):
    """Rotation checkpoint (dR, J_dR_dbg, cov_phi) of ``pre`` at time ``s``,
    read from its per-step records one time at a time."""
    tol = 1e-9
    k = max(int(np.searchsorted(pre.step_t, s + tol)) - 1, 0)
    delta = max(s - pre.step_t[k], 0.0)
    d_r, jac, cov = pre.step_dR[k], pre.step_J[k], pre.step_phi_cov[k]
    if delta <= tol:
        return d_r, jac, cov
    e = exp_so3(pre.step_omega[k] * delta)
    jr = right_jacobian_reference(pre.step_omega[k] * delta)
    return (d_r @ e, e.T @ jac - jr * delta,
            e.T @ cov @ e + pre.sigma_g**2 * delta * (jr @ jr.T))


def preintegrate_dvl_reference(samples, checkpoints, ext: DvlExtrinsics,
                               lin_bg, lin_bv, t_end: float,
                               sigma_v: float = 0.0) -> SimpleNamespace:
    """DVL translation preintegration one hold at a time, from rotation
    checkpoints aligned to the sample times (one per sample), over
    [first sample time, t_end]: the sums, the bias Jacobians and the
    covariance, under the names of ``DvlPreintegrated``."""
    samples = list(samples)
    if len(checkpoints.rotations) != len(samples):
        raise ValueError("rotation checkpoints misaligned with DVL samples")
    times = np.array([s.t for s in samples], dtype=float)
    lin_bv = np.asarray(lin_bv, dtype=float)
    dp = np.zeros(3)
    j_bv, j_bg, cov = np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))
    sv2 = sigma_v**2
    idx, _, dts = hold_intervals_reference(times, float(times[0]), t_end)
    for k, dt in zip(idx, dts):
        d_r = checkpoints.rotations[k]
        j_rot = checkpoints.bias_jacobians[k]
        cov_phi = checkpoints.phi_covs[k]
        w = ext.R_ID @ (samples[k].vel - lin_bv)
        dp = dp + d_r @ w * dt
        j_bv += -(d_r @ ext.R_ID) * dt
        j_bg += -(d_r @ hat(w) @ j_rot) * dt
        rw = d_r @ hat(w)
        cov += (rw @ cov_phi @ rw.T) * dt * dt
        cov += (d_r @ ext.R_ID) @ (sv2 * np.eye(3)) @ (d_r @ ext.R_ID).T * dt * dt
    return SimpleNamespace(dp=dp, J_dp_dbv=j_bv, J_dp_dbg=j_bg, cov=cov,
                           t_start=float(times[0]), t_end=float(t_end))


def dead_reckoning_positions_reference(dvl, imu_preint, ext: DvlExtrinsics,
                                       r0, p0, bv, times) -> np.ndarray:
    """World body positions (n, 3) at ``times`` from p0, summing each DVL
    hold over the span of ``imu_preint`` as a world-frame displacement of
    the DVL (the hold's velocity rotated by r0 and the preintegrated
    rotation at the hold's start), less the lever arm's swing
    (R(t) - r0) p_ID."""
    idx, starts, dts = hold_intervals(np.array([s.t for s in dvl]),
                                      imu_preint.t_start, imu_preint.t_end)
    vel = np.array([dvl[k].vel for k in idx]).reshape(-1, 3) - bv
    hold_vel = matvec(r0 @ imu_preint.rotations_at(starts) @ ext.R_ID, vel)
    hold_pos = np.cumsum(np.concatenate([p0[None], hold_vel * dts[:, None]]),
                         axis=0)
    out = []
    for t, r_t in zip(times, r0 @ imu_preint.rotations_at(times)):
        k = int(np.searchsorted(starts, t, side="right")) - 1
        dvl_pos = hold_pos[0] if k < 0 else \
            hold_pos[k] + hold_vel[k] * min(t - starts[k], dts[k])
        out.append(dvl_pos - (r_t - r0) @ ext.p_ID)
    return np.array(out)


def dead_reckoning_reference(dataset):
    """Dead reckoning's rotations (n, 3, 3) and body positions (n, 3) at the
    frames of ``dataset`` from a full IMU preintegration: the rotations of
    ``integrate_imu`` and the translations of ``preintegrate_dvl`` over it,
    from ``initial_state`` at the first frame, the DVL's lever arm taken
    back out."""
    rig = sensor_rig_from_config(dataset.config)
    t0 = dataset.frames[0].t
    times = np.array([f.t for f in dataset.frames])
    s0 = initial_state(dataset, t0)
    imu = integrate_imu(dataset.imu, s0.bg, s0.ba, t_start=t0,
                        t_end=max(dataset.frames[-1].t, t0 + 1e-9))
    dvl = preintegrate_dvl(dataset.dvl, imu, rig.dvl, s0.bv)
    rots = s0.R @ imu.rotations_at(times)
    return rots, (s0.p + dvl.translations_at(times) @ s0.R.T
                  - (rots - s0.R) @ rig.dvl.p_ID)


# ------------- scalar references for the solver and the DVL model ------------- #

def robust_weight(r2: float, delta: float) -> float:
    """Huber reweighting on the Mahalanobis norm: 1 inside the knee,
    delta/sqrt(r2) outside."""
    if r2 < 0:
        raise ValueError("squared residual must be nonnegative")
    s = math.sqrt(r2)
    return 1.0 if s <= delta else delta / s


def huber_cost(r2: float, delta: float) -> float:
    s = math.sqrt(r2)
    return r2 if s <= delta else 2.0 * delta * s - delta * delta


@dataclass(frozen=True)
class DvlBias:
    bv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bv", np.asarray(self.bv, dtype=float))

    @staticmethod
    def zero() -> "DvlBias":
        return DvlBias(np.zeros(3))


def _infer_t_end(times: np.ndarray) -> float:
    """One median sample period past the last of ``times``."""
    if len(times) < 2:
        raise ValueError("cannot infer the buffer end time from a single sample; "
                         "pass t_end explicitly")
    return float(times[-1] + np.median(np.diff(times)))


def dead_reckon_dvl(p0, rotations_at_samples, samples, bias: DvlBias,
                    t_end: float | None = None) -> np.ndarray:
    """World-frame position reached by summing rotated, bias-corrected DVL
    velocities over their zero-order-hold intervals."""
    samples = list(samples)
    rotations = list(rotations_at_samples)
    if len(rotations) != len(samples):
        raise ValueError(f"{len(rotations)} rotations for {len(samples)} samples")
    if not samples:
        raise ValueError("empty DVL sample buffer")
    times = np.array([s.t for s in samples], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("DVL timestamps must be strictly increasing")
    if t_end is None:
        t_end = _infer_t_end(times)
    p = np.asarray(p0, dtype=float).copy()
    idx, _, dts = hold_intervals(times, float(times[0]), t_end)
    for k, dt in zip(idx, dts):
        p = p + rotations[k] @ (samples[k].vel - bias.bv) * dt
    return p
