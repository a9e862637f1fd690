"""Factor-graph assembly for the local optimization window and a damped
Gauss-Newton (Levenberg-Marquardt) solver on the state manifold.

Variables are keyframe states (18 local dof: rotation vector, position,
velocity, gyro/accel/DVL biases) and landmark positions. Rotation updates are
applied on the right (R <- R exp(phi)); translations, velocities and biases
are additive. Robust (Huber) reweighting applies to visual factors only.

Per-keyframe biases are coupled by random-walk terms folded into the inertial
factor (gyro/accel biases) and the DVL translation factor (velocity bias), so
the factor kinds stay exactly the six sensor kinds plus the fixed prior.

The solver evaluates factors in batches, each residual written once:
reprojections per host state, photometric patches per state pair, and each
pair kind (IMU, DVL velocity, DVL position, pressure) over all its pairs in
one call of its stacked residual function, on the window's states stacked
once per linearization point. ``Factor.evaluate`` is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Any

import numpy as np

from .depth import DepthExtrinsics, PressureSample, pressure_pair_residuals
from .dvl import (DvlExtrinsics, DvlPreintegrated, DvlSample,
                  dvl_position_pair_residuals, dvl_velocity_pair_residuals,
                  stack_dvl_position_pairs, stack_dvl_velocity_pairs)
from .imu import ImuPreintegrated, imu_pair_residuals, stack_imu_pairs
from .manifold import (Pose, hat, hat_batch, log_so3,
                       right_jacobian_inv_so3_batch)
from .state import STATE_DOF, NavState, StateStack, matvec, stack_states
from .visual import (BehindCameraError, CameraModel, IntensityField,
                     LandmarkObservation, OutOfDomainError, PatchPattern)


class GaugeError(ValueError):
    """The window has no anchored variable; the system is rank deficient."""


class DivergedError(RuntimeError):
    """The solver encountered a non-finite cost."""


class PreintCoverageError(ValueError):
    """A consecutive keyframe pair lacks covering preintegrated measurements."""


class FactorKind(Enum):
    REPROJECTION = "reprojection"
    PHOTOMETRIC = "photometric"
    IMU = "imu"
    DVL_VELOCITY = "dvl_velocity"
    DVL_POSITION = "dvl_position"
    PRESSURE = "pressure"
    FIXED_PRIOR = "fixed_prior"

VISUAL_KINDS = (FactorKind.REPROJECTION, FactorKind.PHOTOMETRIC)
PAIR_KINDS = (FactorKind.IMU, FactorKind.DVL_VELOCITY, FactorKind.DVL_POSITION,
              FactorKind.PRESSURE)


@dataclass(frozen=True)
class SensorRig:
    """Camera model, sensor extrinsics and the world gravity vector."""

    cam: CameraModel
    T_IC: Pose
    dvl: DvlExtrinsics
    depth: DepthExtrinsics
    gravity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gravity", np.asarray(self.gravity, dtype=float))

    def camera_pose(self, state: NavState) -> Pose:
        return state.pose().compose(self.T_IC)


# ----------------------------- factor payloads ----------------------------- #

@dataclass(frozen=True)
class DvlVelocityData:
    meas_i: DvlSample
    meas_m: DvlSample
    gyro_i: np.ndarray
    gyro_m: np.ndarray


@dataclass(frozen=True)
class PressureData:
    meas_i: PressureSample
    meas_n: PressureSample


@dataclass(frozen=True)
class ReprojectionData:
    obs: LandmarkObservation


@dataclass(frozen=True)
class PhotometricData:
    field_host: IntensityField
    field_obs: IntensityField
    pixel: np.ndarray
    depth: float
    pattern: PatchPattern
    # host-side quantities are fixed per factor; cached at construction,
    # by ``batch`` (here a batch of one) unless it supplied them
    host_pix: np.ndarray = None
    host_vals: np.ndarray = None
    weights: np.ndarray = None

    def __post_init__(self):
        if self.host_vals is not None:
            return
        (one,) = self.batch(self.field_host, self.field_obs, [self.pixel],
                            [self.depth], self.pattern)
        for name in ("host_pix", "host_vals", "weights"):
            object.__setattr__(self, name, getattr(one, name))

    @classmethod
    def batch(cls, field_host: IntensityField, field_obs: IntensityField,
              pixels, depths, pattern: PatchPattern) -> list[PhotometricData]:
        """One payload per (pixel, depth), with the host-side caches of all
        patches taken from one field sample and one gradient call."""
        pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
        if len(pixels) == 0:
            return []
        m = len(pattern.offsets)
        pix = pixels[:, None, :] + pattern.offsets  # (n, m, 2)
        flat = pix.reshape(-1, 2)
        vals = field_host.sample(flat).reshape(-1, m)
        weights = pattern.weights(field_host, flat).reshape(-1, m)
        return [cls(field_host, field_obs, pixels[k].copy(), float(depth),
                    pattern, pix[k], vals[k], weights[k])
                for k, depth in enumerate(depths)]


@dataclass(frozen=True)
class PriorData:
    ref: NavState


@dataclass
class Factor:
    """One residual block: kind, connected variables, measurement payload,
    information matrix and the robust-loss flag (visual kinds only)."""

    kind: FactorKind
    state_ids: tuple[int, ...]
    payload: Any
    info: np.ndarray
    landmark_id: int | None = None
    robust: bool = False
    robust_delta: float = 1.345
    rig: SensorRig | None = None

    def __post_init__(self):
        self.info = np.atleast_2d(np.asarray(self.info, dtype=float))
        if np.max(np.abs(self.info - self.info.T)) > 1e-9:
            raise ValueError("information matrix must be symmetric")
        if self.robust and self.kind not in VISUAL_KINDS:
            raise ValueError("robust loss is restricted to visual factors")

    # ------------------------------------------------------------------ #
    def evaluate(self, states: dict[int, NavState],
                 landmarks: dict[int, np.ndarray], with_jacobians: bool = True):
        """Residual plus Jacobian blocks keyed by state id / landmark id.

        With ``with_jacobians=False`` the Jacobian dicts are empty; used for
        cost-only evaluations of candidate steps.
        """
        if self.kind in PAIR_KINDS:
            # a batch of one: each pair residual is written once, there
            i, j = self.state_ids
            res, jac = _PairBatch([self], [0], [1]).evaluate(
                stack_states((states[i], states[j])), with_jacobians)
            jacs = {i: jac[0, :, 0], j: jac[0, :, 1]} if with_jacobians else {}
            return res[0], jacs, {}
        if self.kind == FactorKind.REPROJECTION:
            return self._eval_reprojection(states, landmarks, with_jacobians)
        if self.kind == FactorKind.PHOTOMETRIC:
            return self._eval_photometric(states, with_jacobians)
        if self.kind == FactorKind.FIXED_PRIOR:
            return self._eval_prior(states, with_jacobians)
        raise ValueError(f"unknown factor kind {self.kind}")

    def _eval_reprojection(self, states, landmarks, with_jacobians=True):
        # a batch of one: the reprojection residual is written once, there
        res, j_state, j_lm = _ReprojectionBatch([self]).linearize(
            states, landmarks, with_jacobians, strict=True)
        if not with_jacobians:
            return res[0], {}, {}
        js = np.zeros((2, STATE_DOF))
        js[:, :6] = j_state[0]
        return res[0], {self.state_ids[0]: js}, {self.landmark_id: j_lm[0]}

    def _eval_photometric(self, states, with_jacobians=True):
        # a batch of one: the photometric residual is written once, there
        batch = _PhotometricBatch([self])
        if not with_jacobians:
            res, _ = batch.residuals(states, strict=True)
            return res, {}, {}
        res, j_host, j_obs = batch.linearize(states)
        host_id, obs_id = self.state_ids
        jh = np.zeros((1, STATE_DOF))
        jo = np.zeros((1, STATE_DOF))
        jh[:, :6] = j_host
        jo[:, :6] = j_obs
        return res, {host_id: jh, obs_id: jo}, {}

    def _eval_prior(self, states, with_jacobians=True):
        (sid,) = self.state_ids
        s = states[sid]
        ref = self.payload.ref
        e_phi = log_so3(ref.R.T @ s.R)
        res = np.concatenate([e_phi, s.p - ref.p, s.v - ref.v,
                              s.bg - ref.bg, s.ba - ref.ba, s.bv - ref.bv])
        if not with_jacobians:
            return res, {}, {}
        js = np.eye(STATE_DOF)
        js[0:3, 0:3] = right_jacobian_inv_so3_batch(e_phi[None])[0]
        return res, {sid: js}, {}


# ------------------------------ robust kernel ------------------------------ #

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


# ------------------------------ local window ------------------------------- #

FULL_MASK = np.ones(STATE_DOF, dtype=bool)
POSE_MASK = np.array([True] * 6 + [False] * 12)
POSE_VEL_MASK = np.array([True] * 9 + [False] * 9)


@dataclass
class LocalWindow:
    """Ordered keyframe states plus landmarks; fixed entries are never
    touched by the solver."""

    kf_ids: list[int]
    states: dict[int, NavState]
    landmarks: dict[int, np.ndarray] = dc_field(default_factory=dict)
    fixed_states: set[int] = dc_field(default_factory=set)
    fixed_landmarks: set[int] = dc_field(default_factory=set)
    state_masks: dict[int, np.ndarray] = dc_field(default_factory=dict)

    def mask_of(self, sid: int) -> np.ndarray:
        return self.state_masks.get(sid, FULL_MASK)


@dataclass
class SolverConfig:
    max_iterations: int = 50
    rel_cost_tol: float = 1e-8
    step_tol: float = 1e-10
    lambda_init: float = 1e-4
    lambda_max: float = 1e10


class Termination(Enum):
    """Why a solve stopped."""

    RELATIVE_COST = "relative_cost"    # cost drop below rel_cost_tol
    STEP_SIZE = "step_size"            # step norm below step_tol
    ITERATION_CAP = "iteration_cap"    # max_iterations steps taken
    ZERO_GRADIENT = "zero_gradient"    # gradient vanished (or no free dims)
    NO_DESCENT = "no_descent"          # no damping up to lambda_max lowers the cost


@dataclass
class SolveReport:
    """``converged`` is true for every termination but the iteration cap."""

    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    cost_trace: list[float]
    termination: Termination


def _factor_cost(factor: Factor, r: np.ndarray) -> float:
    r2 = float(r @ factor.info @ r)
    if factor.robust:
        return huber_cost(r2, factor.robust_delta)
    return r2


def _robust_weights_cost(r2: np.ndarray, robust: np.ndarray,
                         deltas: np.ndarray):
    """Per-factor Huber weights and the summed robustified cost of the
    squared Mahalanobis norms ``r2``; non-robust factors weigh 1."""
    s = np.sqrt(r2)
    outside = robust & (s > deltas)
    w = np.ones(len(r2))
    np.divide(deltas, s, out=w, where=outside)
    cost = np.where(outside, 2.0 * deltas * s - deltas**2, r2)
    return w, float(cost.sum())


class _ReprojectionBatch:
    """Vectorized evaluation of all reprojection factors hosted by one state.

    Exploits the fact that the rotation/translation perturbations occupy the
    first six local dimensions of every state mask in use. Landmark blocks
    are scattered into the normal equations through flat index arrays with
    ``np.add.at``, so several observations of one landmark (a keyframe that
    sees it twice) all add up; landmarks without columns (fixed ones) are
    skipped.
    """

    def __init__(self, factors: list[Factor]):
        self.sid = factors[0].state_ids[0]
        self.rig = factors[0].rig
        self.lm_ids = [f.landmark_id for f in factors]
        self.pixels = np.stack([f.payload.obs.pixel for f in factors])
        self.infos = np.stack([f.info for f in factors])
        self.robust = np.array([f.robust for f in factors])
        self.deltas = np.array([f.robust_delta for f in factors])

    def _weights_cost(self, res):
        r2 = np.einsum("ni,nij,nj->n", res, self.infos, res)
        return _robust_weights_cost(r2, self.robust, self.deltas)

    def cost(self, states, landmarks) -> float:
        res, _, _ = self.linearize(states, landmarks, with_jacobians=False)
        return float("inf") if res is None else self._weights_cost(res)[1]

    def linearize(self, states, landmarks, with_jacobians=True, strict=False):
        """Residuals (n, 2) and, with Jacobians, their rows w.r.t. the host
        state's first six local dims (n, 2, 6) and w.r.t. the landmarks
        (n, 2, 3). The residuals are None when a point is not in front of
        the camera; with ``strict`` that raises BehindCameraError."""
        state, rig = states[self.sid], self.rig
        r_wc = state.R @ rig.T_IC.R
        lms = np.stack([landmarks[lid] for lid in self.lm_ids])
        x_c = ((lms - state.p) - state.R @ rig.T_IC.t) @ r_wc
        z = x_c[:, 2]
        if np.any(z <= 1e-6):
            if strict:
                raise BehindCameraError(f"landmark depth {z.min()} is not positive")
            return None, None, None
        cam = rig.cam
        res = self.pixels - np.stack([cam.fx * x_c[:, 0] / z + cam.cx,
                                      cam.fy * x_c[:, 1] / z + cam.cy], axis=1)
        if not with_jacobians:
            return res, None, None
        dpi = np.zeros((len(z), 2, 3))
        dpi[:, 0, 0] = cam.fx / z
        dpi[:, 0, 2] = -cam.fx * x_c[:, 0] / (z * z)
        dpi[:, 1, 1] = cam.fy / z
        dpi[:, 1, 2] = -cam.fy * x_c[:, 1] / (z * z)
        r_ic = rig.T_IC.R
        c_p = r_ic.T @ hat(rig.T_IC.t)
        j_phi = -(np.einsum("nij,njk->nik", dpi, hat_batch(x_c)) @ r_ic.T
                  + dpi @ c_p)
        j_pos = dpi @ r_wc.T
        return res, np.concatenate([j_phi, j_pos], axis=2), -j_pos

    def accumulate(self, h, g, states, landmarks, state_cols, lm_cols):
        res, j_state, j_lm = self.linearize(states, landmarks)
        w, _ = self._weights_cost(res)
        a_mats = w[:, None, None] * self.infos

        sc = state_cols.get(self.sid)
        if sc is not None:
            s0 = sc[0].start
            s6 = slice(s0, s0 + 6)
            h[s6, s6] += np.einsum("nai,nab,nbj->ij", j_state, a_mats, j_state)
            g[s6] += np.einsum("nai,nab,nb->i", j_state, a_mats, res)

        starts = np.array([lm_cols[lid].start if lid in lm_cols else -1
                           for lid in self.lm_ids])
        keep = starts >= 0
        if not keep.any():
            return
        cols = starts[keep, None] + np.arange(3)           # (k, 3)
        jl = j_lm[keep]
        al = a_mats[keep] @ jl                             # (k, 2, 3)
        ndim = h.shape[1]
        h_flat = h.reshape(-1)                             # a view of h
        np.add.at(h_flat, cols[:, :, None] * ndim + cols[:, None, :],
                  np.einsum("kai,kaj->kij", jl, al))
        np.add.at(g, cols, np.einsum("kai,ka->ki", al, res[keep]))
        if sc is not None:
            cross = np.einsum("kai,kaj->kij", j_state[keep], al)  # (k, 6, 3)
            rows6 = np.arange(s0, s0 + 6)
            np.add.at(h_flat, rows6[None, :, None] * ndim + cols[:, None, :],
                      cross)
            np.add.at(h_flat, cols[:, :, None] * ndim + rows6[None, None, :],
                      cross.transpose(0, 2, 1))


class _PhotometricBatch:
    """Vectorized evaluation of the photometric factors of one (host,
    observer) state pair that share one observer field and one pattern.

    All n x m patch points are warped at once, and the observer field is
    sampled and differentiated in one call each. Reduced over the pattern,
    this gives per-patch residuals, Huber weights and 1x6 Jacobian rows
    (rotation, position) for the host and the observer; the warp touches no
    other state dimension, so the rows occupy the first six local dims.
    """

    def __init__(self, factors: list[Factor]):
        f0 = factors[0]
        self.host_id, self.obs_id = f0.state_ids
        self.rig = f0.rig
        self.field_obs = f0.payload.field_obs
        payloads = [f.payload for f in factors]
        self.host_vals = np.stack([d.host_vals for d in payloads])  # (n, m)
        self.weights = np.stack([d.weights for d in payloads])      # (n, m)
        pix = np.stack([d.host_pix for d in payloads])              # (n, m, 2)
        depth = np.array([d.depth for d in payloads])[:, None]
        cam = self.rig.cam
        self.pts_ci = np.stack(
            [(pix[..., 0] - cam.cx) / cam.fx * depth,
             (pix[..., 1] - cam.cy) / cam.fy * depth,
             np.broadcast_to(depth, pix.shape[:2])], axis=-1)
        self.infos = np.array([f.info[0, 0] for f in factors])
        self.robust = np.array([f.robust for f in factors])
        self.deltas = np.array([f.robust_delta for f in factors])

    def _rotations(self, states):
        r_ic = self.rig.T_IC.R
        return states[self.host_id].R @ r_ic, states[self.obs_id].R @ r_ic

    def _warp(self, states, strict: bool):
        """Observer-frame points (n, m, 3), their pixels (n, m, 2) and the
        mask of patches whose every point lies in front of the observer
        camera and inside its image. With ``strict`` a patch outside the
        mask raises instead (BehindCameraError before OutOfDomainError)."""
        si, sj = states[self.host_id], states[self.obs_id]
        p_ic = self.rig.T_IC.t
        r_wci, r_wcj = self._rotations(states)
        # host-to-observer points with the translation difference taken
        # first, so a common world shift cancels exactly
        rel = (si.p - sj.p) + (si.R @ p_ic - sj.R @ p_ic)
        pts_cj = (self.pts_ci @ r_wci.T + rel) @ r_wcj
        z = pts_cj[..., 2]
        front = z > 1e-6
        z = np.where(front, z, 1.0)  # finite pixels for rejected points
        cam = self.rig.cam
        u = cam.fx * pts_cj[..., 0] / z + cam.cx
        v = cam.fy * pts_cj[..., 1] / z + cam.cy
        inside = (u >= 0.0) & (u < cam.width) & (v >= 0.0) & (v < cam.height)
        front = front.all(axis=1)
        valid = front & inside.all(axis=1)
        if strict and not valid.all():
            if not front.all():
                raise BehindCameraError("patch point behind the current camera")
            raise OutOfDomainError("warped patch left the image domain")
        return pts_cj, np.stack([u, v], axis=-1), valid

    def residuals(self, states, strict: bool = False):
        """Per-patch residuals (n,) and the validity mask of ``_warp``;
        invalid patches read NaN and are not sampled."""
        _, warped, valid = self._warp(states, strict)
        res = np.full(len(valid), np.nan)
        if valid.any():
            vals = self.field_obs.sample(warped[valid].reshape(-1, 2))
            res[valid] = np.sum(self.weights[valid] * (
                vals.reshape(-1, warped.shape[1]) - self.host_vals[valid]),
                axis=1)
        return res, valid

    def linearize(self, states):
        """Per-patch residuals (n,) and 1x6 Jacobian rows (n, 6) w.r.t.
        the host and the observer state; every patch must be valid."""
        pts_cj, warped, _ = self._warp(states, strict=True)
        n, m = warped.shape[:2]
        flat = warped.reshape(-1, 2)
        vals = self.field_obs.sample(flat).reshape(n, m)
        grads = self.field_obs.gradient(flat).reshape(n, m, 2)
        w = self.weights
        res = np.sum(w * (vals - self.host_vals), axis=1)

        # weighted image gradient times the projection derivative
        cam = self.rig.cam
        z = pts_cj[..., 2]
        gu = w * grads[..., 0] * cam.fx / z
        gv = w * grads[..., 1] * cam.fy / z
        rows = np.stack([gu, gv, -(gu * pts_cj[..., 0] + gv * pts_cj[..., 1])
                         / z], axis=-1)                            # (n, m, 3)
        r_ic, p_ic = self.rig.T_IC.R, self.rig.T_IC.t
        r_wci, r_wcj = self._rotations(states)
        rows_sum = rows.sum(axis=1)
        # row @ hat(x) == cross(row, x), batched over patches and pattern
        j_obs = np.empty((n, 6))
        j_obs[:, 0:3] = (np.cross(rows, pts_cj).sum(axis=1) @ r_ic.T
                         + rows_sum @ (r_ic.T @ hat(p_ic)))
        j_obs[:, 3:6] = -rows_sum @ r_wcj.T
        srows = rows @ r_wcj.T
        srows_sum = srows.sum(axis=1)
        j_host = np.empty((n, 6))
        j_host[:, 0:3] = (-np.cross(srows @ r_wci, self.pts_ci).sum(axis=1)
                          @ r_ic.T
                          - srows_sum @ (states[self.host_id].R @ hat(p_ic)))
        j_host[:, 3:6] = srows_sum
        return res, j_host, j_obs

    def cost(self, states, landmarks=None) -> float:
        res, valid = self.residuals(states)
        if not valid.all():
            return float("inf")
        _, total = _robust_weights_cost(res * self.infos * res, self.robust,
                                        self.deltas)
        return total

    def accumulate(self, h, g, states, landmarks, state_cols, lm_cols):
        res, j_host, j_obs = self.linearize(states)
        w, _ = _robust_weights_cost(res * self.infos * res, self.robust,
                                    self.deltas)
        a = w * self.infos
        blocks = []
        for sid, jac in ((self.host_id, j_host), (self.obs_id, j_obs)):
            if sid in state_cols:
                s0 = state_cols[sid][0].start
                blocks.append((slice(s0, s0 + 6), jac))
        for cols_a, jac_a in blocks:
            aj = a[:, None] * jac_a
            g[cols_a] += aj.T @ res
            for cols_b, jac_b in blocks:
                h[cols_a, cols_b] += aj.T @ jac_b


class _PairBatch:
    """The factors of one pair kind on one rig, payloads and information
    stacked once; the kind's residual function evaluates all their pairs in
    one call, at rows ``i`` and ``j`` of a :class:`StateStack`."""

    def __init__(self, factors: list[Factor], i, j, live=None):
        f0, ds = factors[0], [f.payload for f in factors]
        self.kind, self.rig, self.i, self.j, self.live = f0.kind, f0.rig, i, j, live
        self.infos = np.array([f.info for f in factors])
        if self.kind is FactorKind.IMU:
            self.data = stack_imu_pairs(ds)
        elif self.kind is FactorKind.DVL_POSITION:
            self.data = stack_dvl_position_pairs(ds)
        elif self.kind is FactorKind.DVL_VELOCITY:
            self.data = stack_dvl_velocity_pairs(ds, f0.rig.dvl)
        else:
            self.data = np.array([[d.meas_n.depth - d.meas_i.depth] for d in ds])

    def evaluate(self, stack: StateStack, with_jacobians: bool = True):
        args = (stack, self.i, self.j, self.data)
        if self.kind is FactorKind.IMU:
            return imu_pair_residuals(*args, self.rig.gravity, with_jacobians)
        if self.kind is FactorKind.DVL_VELOCITY:
            return dvl_velocity_pair_residuals(*args, self.rig.dvl, with_jacobians)
        if self.kind is FactorKind.DVL_POSITION:
            return dvl_position_pair_residuals(*args, self.rig.dvl, with_jacobians)
        return pressure_pair_residuals(*args, self.rig.depth, with_jacobians)

    def cost(self, stack: StateStack) -> float:
        res, _ = self.evaluate(stack, with_jacobians=False)
        return float(np.vdot(res, self.infos @ res[:, :, None]))

    def normal_equations(self, stack: StateStack):
        """Per pair J^T W J (n, c, c) and J^T W r (n, c) over the ``live``
        columns of the pair's 36 local dims (state i's, then j's)."""
        res, jac = self.evaluate(stack)
        n, r = res.shape
        jac = jac.reshape(n, r, 2 * STATE_DOF).take(self.live, 2)
        jt_info = jac.transpose(0, 2, 1) @ self.infos
        return jt_info @ jac, matvec(jt_info, res)


class _PairGroup:
    """The pair batches (one per kind and rig) over one ordered list of
    state-id pairs. A pair's 36 local dims take their columns from
    ``colmap`` (18 per state id, ``dummy`` where a dim has none), and only
    dims with a column in some pair are kept (``live``). The batches'
    normal-equation blocks add up per pair and one ``np.add.at`` scatters
    them into h and g, which carry a trailing dummy row and column."""

    def __init__(self, pairs, kinds, rows: dict[int, int],
                 colmap: dict[int, list[int]], dummy: int):
        cols = np.array([colmap[a] + colmap[b] for a, b in pairs])
        live = np.flatnonzero(cols.min(axis=0) < dummy)
        self.cols = cols.take(live, 1)
        self.h_index = self.cols[:, :, None] * (dummy + 1) + self.cols[:, None, :]
        # contiguous rows (consecutive keyframes) are read as views
        i, j = ([rows[pair[side]] for pair in pairs] for side in (0, 1))
        i, j = (slice(r[0], r[-1] + 1) if r == list(range(r[0], r[-1] + 1))
                else np.array(r) for r in (i, j))
        self.batches = [_PairBatch(fs, i, j, live) for fs in kinds]

    def cost(self, stack: StateStack) -> float:
        return sum(b.cost(stack) for b in self.batches)

    def accumulate(self, h, g, stack: StateStack):
        blocks = [b.normal_equations(stack) for b in self.batches]
        np.add.at(h.reshape(-1), self.h_index, sum(hb for hb, _ in blocks))
        np.add.at(g, self.cols, sum(gb for _, gb in blocks))


def _pair_groups(factors: list[Factor], state_cols: dict, ndim: int):
    """The ids of the states that the pair ``factors`` touch, in stack
    order, and the factors as :class:`_PairGroup` s; dims without a column
    in ``state_cols`` go to a dummy row and column ``ndim``."""
    kinds: dict[tuple, list[Factor]] = {}
    for f in factors:
        kinds.setdefault((f.kind, id(f.rig)), []).append(f)
    by_pairs: dict[tuple, list[list[Factor]]] = {}
    for fs in kinds.values():
        by_pairs.setdefault(tuple(f.state_ids for f in fs), []).append(fs)
    order = list(dict.fromkeys(sid for f in factors for sid in f.state_ids))
    colmap = {sid: [ndim] * STATE_DOF for sid in order}
    for sid in colmap.keys() & state_cols.keys():
        cols, local = state_cols[sid]
        for col, dim in zip(range(cols.start, cols.stop), local):
            colmap[sid][dim] = col
    rows = {sid: k for k, sid in enumerate(order)}
    return order, [_PairGroup(key, fss, rows, colmap, ndim)
                   for key, fss in by_pairs.items()]


def _total_cost(factors, states, landmarks) -> float:
    total = 0.0
    for f in factors:
        try:
            r, _, _ = f.evaluate(states, landmarks, with_jacobians=False)
        except (BehindCameraError, OutOfDomainError):
            return float("inf")
        total += _factor_cost(f, r)
    return total


def solve(window: LocalWindow, factors: list[Factor],
          cfg: SolverConfig | None = None):
    """Damped Gauss-Newton over the window. Accepted steps strictly decrease
    the robustified cost; a violation raises, so a finished solve certifies
    a monotone cost trace. Returns the updated window and a report."""
    cfg = cfg or SolverConfig()
    if not factors:
        raise ValueError("cannot solve an empty factor list")

    anchored = (bool(window.fixed_states) or bool(window.fixed_landmarks)
                or any(f.kind == FactorKind.FIXED_PRIOR for f in factors))
    if not anchored:
        raise GaugeError("no fixed state, fixed landmark or prior factor; "
                         "add a gauge fix before solving")

    # global column layout over active dims; all masks in use are contiguous
    # prefixes, so Jacobian columns and hessian blocks index through slices
    state_cols: dict[int, tuple[slice, np.ndarray]] = {}
    lm_cols: dict[int, slice] = {}
    offset = 0
    for sid in window.kf_ids:
        if sid in window.fixed_states:
            continue
        mask = window.mask_of(sid)
        local = np.flatnonzero(mask)
        n = len(local)
        if n == 0:
            continue
        state_cols[sid] = (slice(offset, offset + n), local)
        offset += n
    for lid in sorted(window.landmarks):
        if lid in window.fixed_landmarks:
            continue
        lm_cols[lid] = slice(offset, offset + 3)
        offset += 3
    ndim = offset

    states = window.states
    landmarks = window.landmarks

    # group visual factors for vectorized evaluation: reprojection per host
    # state, photometric per (host, observer) pair, observer field and
    # pattern; valid whenever the pose occupies the first six active dims
    # (all masks in use are prefixes of the full layout)
    def _pose_first(sid: int) -> bool:
        if sid in state_cols:
            local = state_cols[sid][1]
            return len(local) >= 6 and local[5] == 5
        return sid in window.fixed_states or sid not in window.states

    reproj: dict[int, list[Factor]] = {}
    photo: dict[tuple, list[Factor]] = {}
    pairs, scalar_factors = [], []
    for f in factors:
        if f.kind in PAIR_KINDS:
            pairs.append(f)
        elif (f.kind == FactorKind.REPROJECTION and f.landmark_id in landmarks
                and _pose_first(f.state_ids[0])):
            reproj.setdefault(f.state_ids[0], []).append(f)
        elif (f.kind == FactorKind.PHOTOMETRIC
              and all(_pose_first(sid) for sid in f.state_ids)):
            key = (f.state_ids, id(f.payload.field_obs),
                   id(f.payload.pattern), id(f.rig))
            photo.setdefault(key, []).append(f)
        else:
            scalar_factors.append(f)
    batches = ([_ReprojectionBatch(fs) for fs in reproj.values()]
               + [_PhotometricBatch(fs) for fs in photo.values()])

    order, groups = _pair_groups(pairs, state_cols, ndim)

    def stacked(st):
        return stack_states(st[sid] for sid in order) if order else None

    def total_cost(st, lm, stack):
        total = 0.0
        for b in batches:
            total += b.cost(st, lm)
            if not np.isfinite(total):
                return float("inf")
        for group in groups:
            total += group.cost(stack)
        return total + _total_cost(scalar_factors, st, lm)

    stack = stacked(states)
    cost = total_cost(states, landmarks, stack)
    if not np.isfinite(cost):
        raise DivergedError(f"initial cost is not finite ({cost})")
    initial_cost = cost
    trace = [cost]
    if ndim == 0:
        return window, SolveReport(0, initial_cost, cost, True, trace,
                                   Termination.ZERO_GRADIENT)

    def assemble():
        h = np.zeros((ndim + 1, ndim + 1))
        g = np.zeros(ndim + 1)
        for b in batches:
            b.accumulate(h, g, states, landmarks, state_cols, lm_cols)
        for group in groups:
            group.accumulate(h, g, stack)
        # the fixed prior and visual factors on states whose pose is not
        # in the first six active dims
        for f in scalar_factors:
            r, js, jl = f.evaluate(states, landmarks)
            w = 1.0
            if f.robust:
                w = robust_weight(float(r @ f.info @ r), f.robust_delta)
            blocks = [(state_cols[sid][0], jac[:, state_cols[sid][1]])
                      for sid, jac in js.items() if sid in state_cols]
            blocks += [(lm_cols[lid], jac) for lid, jac in jl.items()
                       if lid in lm_cols]
            for cols_a, jac_a in blocks:
                jt_info = w * jac_a.T @ f.info
                g[cols_a] += jt_info @ r
                for cols_b, jac_b in blocks:
                    h[cols_a, cols_b] += jt_info @ jac_b
        return h[:ndim, :ndim], g[:ndim]

    def retract(delta):
        new_states = dict(states)
        for sid, (cols, local) in state_cols.items():
            full = np.zeros(STATE_DOF)
            full[local] = delta[cols]
            new_states[sid] = states[sid].retract(full)
        new_landmarks = dict(landmarks)
        for lid, cols in lm_cols.items():
            new_landmarks[lid] = landmarks[lid] + delta[cols]
        return new_states, new_landmarks

    lam = cfg.lambda_init
    accepted = 0
    termination = Termination.ITERATION_CAP
    for _ in range(cfg.max_iterations):
        h, g = assemble()
        if np.linalg.norm(g) < 1e-15:
            termination = Termination.ZERO_GRADIENT
            break
        step = None
        new_cost = None
        while lam <= cfg.lambda_max:
            damped = h + lam * np.diag(np.diag(h)) + 1e-15 * np.eye(ndim)
            try:
                candidate = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand_states, cand_landmarks = retract(candidate)
            cand_stack = stacked(cand_states)
            cand_cost = total_cost(cand_states, cand_landmarks, cand_stack)
            if math.isnan(cand_cost):
                raise DivergedError("candidate cost is NaN")
            if cand_cost < cost:
                step = candidate
                new_cost = cand_cost
                states, landmarks = cand_states, cand_landmarks
                stack = cand_stack
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        if step is None:
            # no descent direction at any damping: stationary for our purposes
            termination = Termination.NO_DESCENT
            break
        if not new_cost < cost:
            raise AssertionError("accepted step failed to decrease the cost")
        accepted += 1
        rel_drop = (cost - new_cost) / max(cost, 1e-300)
        cost = new_cost
        trace.append(cost)
        if rel_drop < cfg.rel_cost_tol:
            termination = Termination.RELATIVE_COST
            break
        if np.linalg.norm(step) < cfg.step_tol:
            termination = Termination.STEP_SIZE
            break

    window.states = states
    window.landmarks = landmarks
    converged = termination is not Termination.ITERATION_CAP
    return window, SolveReport(accepted, initial_cost, cost, converged, trace,
                               termination)


# --------------------------- window construction --------------------------- #

@dataclass
class KeyframeNode:
    """Everything the window builder needs to know about one keyframe."""

    kf_id: int
    t: float
    state: NavState
    observations: list[LandmarkObservation] = dc_field(default_factory=list)
    field: IntensityField | None = None
    gyro: np.ndarray | None = None
    dvl_meas: DvlSample | None = None
    pressure_meas: PressureSample | None = None


@dataclass
class IntervalData:
    """Preintegrated measurements covering one consecutive keyframe pair."""

    imu_preint: ImuPreintegrated
    dvl_preint: DvlPreintegrated | None = None


@dataclass
class BackendConfig:
    window_size: int = 10
    huber_delta: float = 1.345
    sigma_pixel: float = 0.5
    # measured luminance-constancy violation of the synthetic fields grows
    # with baseline: a few units frame-to-frame, tens between keyframes
    sigma_intensity: float = 30.0
    sigma_intensity_track: float = 10.0
    sigma_dvl: float = 0.01
    sigma_pressure: float = 0.01
    sigma_bg_walk: float = 1e-5
    sigma_ba_walk: float = 1e-4
    sigma_bv_walk: float = 5e-3
    use_vision: bool = True
    use_dvl: bool = True
    use_pressure: bool = True
    photometric_enabled: bool = True
    photometric_max_points: int = 8
    # patches whose Mahalanobis residual exceeds these at the initial guess
    # are rejected: they violate luminance constancy (clutter, parallax)
    photometric_gate: float = 0.05
    photometric_track_gate: float = 1.0
    pattern: PatchPattern = dc_field(default_factory=PatchPattern)
    # window solves sit inside a per-keyframe loop; a tighter iteration cap
    # and looser relative tolerance than the solver's standalone defaults
    # keep the pipeline fast without changing the termination rules
    solver: SolverConfig = dc_field(
        default_factory=lambda: SolverConfig(max_iterations=12,
                                             rel_cost_tol=1e-6))


def _safe_inverse(cov: np.ndarray) -> np.ndarray:
    dim = cov.shape[0]
    jitter = max(np.trace(cov) / dim, 1e-14) * 1e-9
    info = np.linalg.inv(cov + jitter * np.eye(dim))
    return 0.5 * (info + info.T)


def make_prior_factor(sid: int, ref: NavState,
                      sigma: float = 1e-4) -> Factor:
    info = np.eye(STATE_DOF) / sigma**2
    return Factor(FactorKind.FIXED_PRIOR, (sid,), PriorData(ref.copy()), info)


def assemble_window(keyframes: list[KeyframeNode],
                    landmarks: dict[int, np.ndarray],
                    intervals: dict[tuple[int, int], IntervalData],
                    rig: SensorRig, cfg: BackendConfig,
                    fixed_ids: set[int] | None = None,
                    fixed_landmarks: set[int] | None = None):
    """Build the local window and its factor list.

    One inertial factor per consecutive pair (coverage required), DVL
    translation and relative-velocity factors plus a relative-depth factor
    per pair when measurements are available, a reprojection factor per
    (keyframe, landmark) observation, and photometric factors between
    consecutive textured keyframes for up to ``photometric_max_points``
    host points with known stereo depth.

    The window holds only what can move the solution: a consecutive pair of
    fixed keyframes gets none of these pair factors (their cost is constant
    and they add nothing to the normal equations), and a landmark enters
    the window only when a factor built here observes it.
    """
    fixed_ids = set(fixed_ids or set())
    fixed_landmarks = set(fixed_landmarks or set())

    window_lms: dict[int, np.ndarray] = {}
    for kf in keyframes:
        if kf.kf_id in fixed_ids:
            continue
        for obs in kf.observations:
            if obs.landmark_id in landmarks:
                window_lms[obs.landmark_id] = landmarks[obs.landmark_id]

    window = LocalWindow(
        kf_ids=[kf.kf_id for kf in keyframes],
        states={kf.kf_id: kf.state for kf in keyframes},
        landmarks=window_lms,
        fixed_states=fixed_ids,
        fixed_landmarks={lid for lid in fixed_landmarks if lid in window_lms},
    )

    factors: list[Factor] = []
    if not fixed_ids and not window.fixed_landmarks and keyframes:
        factors.append(make_prior_factor(keyframes[0].kf_id, keyframes[0].state))

    def live_pair(a: KeyframeNode, b: KeyframeNode) -> bool:
        # a gap means a co-visible prior: visual factors only
        return b.kf_id == a.kf_id + 1 and not (a.kf_id in fixed_ids
                                               and b.kf_id in fixed_ids)

    for a, b in zip(keyframes[:-1], keyframes[1:]):
        if not live_pair(a, b):
            continue
        key = (a.kf_id, b.kf_id)
        if key not in intervals or intervals[key].imu_preint is None:
            raise PreintCoverageError(
                f"no inertial preintegration covering [{a.t}, {b.t}]")
        data = intervals[key]
        dt = max(b.t - a.t, 1e-9)
        walk = np.concatenate([
            np.full(3, 1.0 / (cfg.sigma_bg_walk**2 * dt)),
            np.full(3, 1.0 / (cfg.sigma_ba_walk**2 * dt)),
        ])
        info = np.zeros((15, 15))
        info[0:9, 0:9] = _safe_inverse(data.imu_preint.cov)
        info[9:15, 9:15] = np.diag(walk)
        factors.append(Factor(FactorKind.IMU, key, data.imu_preint, info, rig=rig))

        if cfg.use_dvl and data.dvl_preint is not None:
            info = np.zeros((6, 6))
            info[0:3, 0:3] = _safe_inverse(data.dvl_preint.cov)
            info[3:6, 3:6] = np.eye(3) / (cfg.sigma_bv_walk**2 * dt)
            factors.append(Factor(FactorKind.DVL_POSITION, key, data.dvl_preint,
                                  info, rig=rig))
        if cfg.use_dvl and a.dvl_meas is not None and b.dvl_meas is not None \
                and a.gyro is not None and b.gyro is not None:
            info = np.eye(3) / (2.0 * cfg.sigma_dvl**2)
            factors.append(Factor(
                FactorKind.DVL_VELOCITY, key,
                DvlVelocityData(a.dvl_meas, b.dvl_meas, a.gyro, b.gyro),
                info, rig=rig))
        if cfg.use_pressure and a.pressure_meas is not None \
                and b.pressure_meas is not None:
            info = np.array([[1.0 / (2.0 * cfg.sigma_pressure**2)]])
            factors.append(Factor(FactorKind.PRESSURE, key,
                                  PressureData(a.pressure_meas, b.pressure_meas),
                                  info, rig=rig))

    if cfg.use_vision:
        pix_info = np.eye(2) / cfg.sigma_pixel**2
        for kf in keyframes:
            t_cw = rig.camera_pose(kf.state).inverse()
            for obs in kf.observations:
                if obs.landmark_id not in window_lms:
                    continue
                if t_cw.transform(window_lms[obs.landmark_id])[2] <= 1e-3:
                    continue  # behind or grazing the camera at the initial guess
                factors.append(Factor(
                    FactorKind.REPROJECTION, (kf.kf_id,), ReprojectionData(obs),
                    pix_info, landmark_id=obs.landmark_id, robust=True,
                    robust_delta=cfg.huber_delta, rig=rig))

        if cfg.photometric_enabled:
            n_pat = len(cfg.pattern.offsets)
            photo_info = np.array([[1.0 / (n_pat * cfg.sigma_intensity**2)]])
            for a, b in zip(keyframes[:-1], keyframes[1:]):
                if not live_pair(a, b):
                    continue
                if a.field is None or b.field is None:
                    continue
                if len(a.field.amplitudes) == 0 or len(b.field.amplitudes) == 0:
                    continue
                # luminance constancy needs the patch visible in both frames
                ids_b = {o.landmark_id for o in b.observations}
                hosts = sorted(
                    (o for o in a.observations
                     if o.disparity is not None and o.disparity > 0
                     and o.landmark_id in ids_b),
                    key=lambda o: o.landmark_id)
                points = [(obs.pixel,
                           rig.cam.fx * rig.cam.baseline / obs.disparity)
                          for obs in hosts[:cfg.photometric_max_points]]
                factors += make_photometric_factors(
                    (a.kf_id, b.kf_id), a.field, b.field, points, cfg.pattern,
                    photo_info, rig, window.states, cfg.photometric_gate,
                    cfg.huber_delta)

    observed = {f.landmark_id for f in factors if f.landmark_id is not None}
    window.landmarks = {lid: pos for lid, pos in window_lms.items()
                        if lid in observed}
    window.fixed_landmarks &= observed
    return window, factors


def make_photometric_factors(ids: tuple[int, int], field_host: IntensityField,
                             field_obs: IntensityField, points,
                             pattern: PatchPattern, info: np.ndarray,
                             rig: SensorRig, states: dict[int, NavState],
                             gate: float = float("inf"),
                             robust_delta: float = 1.345) -> list[Factor]:
    """Robust photometric factors, one per (pixel, depth) host point of the
    state pair ``ids``, gated at ``states``. A patch is kept when every
    point warps in front of and inside the observer image and its
    Mahalanobis residual is at most ``gate``; patches that fail violate
    luminance constancy (clutter, parallax) or leave the image at the guess.
    The host side takes one field sample and one gradient call, the gate one
    batch evaluation."""
    payloads = PhotometricData.batch(field_host, field_obs,
                                     [p for p, _ in points],
                                     [d for _, d in points], pattern)
    if not payloads:
        return []
    factors = [Factor(FactorKind.PHOTOMETRIC, ids, d, info, robust=True,
                      robust_delta=robust_delta, rig=rig) for d in payloads]
    batch = _PhotometricBatch(factors)
    res, valid = batch.residuals(states)
    keep = valid & ~(np.sqrt(res * batch.infos * res) > gate)
    return [f for f, k in zip(factors, keep) if k]
