"""Factor-graph assembly for the local optimization window and a damped
Gauss-Newton (Levenberg-Marquardt) solver on the state manifold.

Variables are keyframe states (18 local dof: rotation vector, position,
velocity, gyro/accel/DVL biases) and landmark positions. Rotation updates are
applied on the right (R <- R exp(phi)); translations, velocities and biases
are additive. A factor holds only its measurement: the sensor rig, the
Huber knee of the visual kinds (the only robust ones) and the gauge belong
to the window it is solved in, which its fixed states or fixed landmarks
anchor.

Per-keyframe biases are coupled by random-walk terms folded into the inertial
factor (gyro/accel biases) and the DVL translation factor (velocity bias), so
the factor kinds stay exactly the six sensor kinds. A window has a factor for
every measurement its nodes and intervals carry, so the caller decides which
sensors it fuses by the measurements it gives.

Each factor kind is one batch per solve, its residual written once: all
reprojections, all photometric patches, and the pair kinds (IMU, DVL
velocity, DVL position, pressure) over all their pairs. Every
batch reads the window's states stacked once per linearization point and
returns per-row residuals and Jacobian rows over the columns it declares;
one routine forms the weighted normal equations of all batches and adds
them into h and g with one scatter. ``Factor.evaluate`` is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from enum import Enum
from typing import Any

import numpy as np

from .depth import DepthExtrinsics, PressureSample, pressure_pair_residuals
from .dvl import (DvlExtrinsics, DvlPreintegrated, DvlSample,
                  dvl_position_pair_residuals, dvl_velocity_pair_residuals,
                  stack_dvl_position_pairs, stack_dvl_velocity_pairs)
from .imu import ImuPreintegrated, imu_pair_residuals, stack_imu_pairs
from .manifold import Pose, hat, hat_batch
from .state import (STATE_DOF, NavState, StateStack, matvec, retract_rows,
                    stack_states, unstack_state)
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
    # no builder yet: the benchmark reports a count per kind, and the
    # marginalization prior of the window boundary would be its first
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
class PhotometricData:
    field_host: IntensityField
    field_obs: IntensityField
    pixel: np.ndarray
    depth: float
    pattern: PatchPattern
    # host-side quantities are fixed per factor, cached by ``batch``
    host_pix: np.ndarray
    host_vals: np.ndarray
    weights: np.ndarray

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


@dataclass
class Factor:
    """One residual block: kind, connected variables, measurement payload,
    information matrix and, for a reprojection, the observed landmark."""

    kind: FactorKind
    state_ids: tuple[int, ...]
    payload: Any
    info: np.ndarray
    landmark_id: int | None = None

    def __post_init__(self):
        self.info = np.atleast_2d(np.asarray(self.info, dtype=float))
        if np.max(np.abs(self.info - self.info.T)) > 1e-9:
            raise ValueError("information matrix must be symmetric")

    # ------------------------------------------------------------------ #
    def evaluate(self, states: dict[int, NavState],
                 landmarks: dict[int, np.ndarray], rig: SensorRig,
                 with_jacobians: bool = True):
        """Raw residual plus Jacobian blocks keyed by state id / landmark
        id, evaluated with ``rig`` as a batch of one: each residual is
        written once, in its kind's batch.

        With ``with_jacobians=False`` the Jacobian dicts are empty; used for
        cost-only evaluations of candidate steps.
        """
        lids = () if self.landmark_id is None else (self.landmark_id,)
        window = LocalWindow(list(self.state_ids), states, rig, None,
                             {lid: landmarks[lid] for lid in lids})
        layout = _window_layout(window, [self])
        (batch,) = _batches(window, [self], layout)
        stack, lms = layout.stack(states), layout.landmark_array(landmarks)
        if not with_jacobians:
            return batch.residuals(stack, lms)[0], {}, {}
        res, jac = batch.linearize(stack, lms)
        dense = np.zeros((res.shape[1], layout.ndim + 1))
        dense[:, batch.cols[0]] = jac[0]
        return (res[0],
                {sid: dense[:, c[0]:c[0] + STATE_DOF]
                 for sid, c in layout.cols.items()},
                {lid: dense[:, c[0]:c[0] + 3]
                 for lid, c in layout.lm_cols.items()})


# ------------------------------ local window ------------------------------- #

FULL_MASK = np.ones(STATE_DOF, dtype=bool)
POSE_MASK = np.array([True] * 6 + [False] * 12)
POSE_VEL_MASK = np.array([True] * 9 + [False] * 9)


@dataclass
class LocalWindow:
    """Ordered keyframe states plus landmarks, the rig and the Huber knee of
    the visual factors (None: unweighted). Fixed entries are never touched
    by the solver and anchor the gauge. A free state's mask must be a
    contiguous prefix of its local dims that holds at least the pose
    (POSE_MASK, POSE_VEL_MASK or FULL_MASK)."""

    kf_ids: list[int]
    states: dict[int, NavState]
    rig: SensorRig
    huber_delta: float | None
    landmarks: dict[int, np.ndarray] = dc_field(default_factory=dict)
    fixed_states: set[int] = dc_field(default_factory=set)
    fixed_landmarks: set[int] = dc_field(default_factory=set)
    state_masks: dict[int, np.ndarray] = dc_field(default_factory=dict)


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
    """Accepted steps, final cost, cost trace and why the solve stopped."""

    iterations: int
    final_cost: float
    cost_trace: list[float]
    termination: Termination


@dataclass
class _Layout:
    """Where the variables of a solve sit: each state's row in the state
    stack and each landmark's in the landmark array, and the normal-equation
    columns of each state's 18 local dims and each landmark's 3. A dim
    without a column (fixed or masked) takes the dummy column ``ndim``."""

    rows: dict[int, int]
    cols: dict[int, list[int]]
    lm_rows: dict[int, int]
    lm_cols: dict[int, list[int]]
    ndim: int

    def stack(self, states: dict[int, NavState]) -> StateStack:
        return stack_states(states[sid] for sid in self.rows)

    def landmark_array(self, landmarks: dict[int, np.ndarray]) -> np.ndarray:
        return np.array([landmarks[lid] for lid in self.lm_rows],
                        dtype=float).reshape(-1, 3)


def _window_layout(window: LocalWindow, factors: list[Factor]) -> _Layout:
    """The solve's layout: columns for the active dims of each free state,
    then for each free landmark; the states in the order the factors first
    touch them, so consecutive keyframe pairs read contiguous stack rows."""
    spans, lm_spans, offset = {}, {}, 0
    for sid in window.kf_ids:
        if sid in window.fixed_states:
            continue
        mask = np.asarray(window.state_masks.get(sid, FULL_MASK), dtype=bool)
        n = int(mask.sum())
        if mask.shape != (STATE_DOF,) or n < 6 or not mask[:n].all():
            raise ValueError(f"the mask of state {sid} is not a contiguous "
                             f"prefix of at least 6 of its {STATE_DOF} dims")
        spans[sid] = range(offset, offset + n)
        offset += n
    lm_ids = sorted(window.landmarks)
    for lid in lm_ids:
        if lid not in window.fixed_landmarks:
            lm_spans[lid] = range(offset, offset + 3)
            offset += 3

    def padded(span, size):
        return list(span) + [offset] * (size - len(span))

    order = dict.fromkeys(sid for f in factors for sid in f.state_ids)
    return _Layout({sid: k for k, sid in enumerate(order)},
                   {sid: padded(spans.get(sid, ()), STATE_DOF)
                    for sid in order | spans},
                   {lid: k for k, lid in enumerate(lm_ids)},
                   {lid: padded(lm_spans.get(lid, ()), 3) for lid in lm_ids},
                   offset)


class _Batch:
    """The factors of one kind, evaluated at once over a :class:`StateStack`
    and the landmark array. A row is one factor (one state pair for the pair
    kinds). Per row a batch holds ``cols`` (n, c), the normal-equation
    columns of the dims its residual depends on, and ``infos`` (n, r, r);
    ``delta`` is the Huber knee of all its rows (None: no robust loss).
    ``residuals(stack, lms)`` returns (n, r); ``linearize(stack, lms)`` also
    returns the Jacobian rows (n, r, c) over ``cols``. A point that leaves a
    camera raises BehindCameraError or OutOfDomainError."""

    def _set_rows(self, cols, infos, delta: float | None, dummy: int):
        self.cols = np.asarray(cols, dtype=np.intp)
        self.infos, self.delta = infos, delta
        # rows whose every column is the dummy add nothing to h and g
        live = np.flatnonzero((self.cols < dummy).any(axis=1))
        self.live = slice(None) if len(live) == len(self.cols) else live
        cols = self.cols[self.live]
        self.h_index = cols[:, :, None] * (dummy + 1) + cols[:, None, :]

    def weights_cost(self, res: np.ndarray):
        """Per-row Huber weights on the Mahalanobis norm (None without a
        knee) and the summed robustified cost of the residuals."""
        r2 = np.einsum("ni,nij,nj->n", res, self.infos, res)
        if self.delta is None:
            return None, float(r2.sum())
        s, delta = np.sqrt(r2), self.delta
        outside = s > delta
        w = np.ones(len(r2))
        np.divide(delta, s, out=w, where=outside)
        return w, float(np.where(outside, 2.0 * delta * s - delta * delta,
                                 r2).sum())


class _ReprojectionBatch(_Batch):
    """All reprojection factors, one row per observation, over the host
    pose's 6 dims and the landmark's 3."""

    def __init__(self, window: LocalWindow, factors: list[Factor], layout: _Layout):
        self.rig = window.rig
        self.host = np.array([layout.rows[f.state_ids[0]] for f in factors])
        self.lm = np.array([layout.lm_rows[f.landmark_id] for f in factors])
        self.pixels = np.array([f.payload.pixel for f in factors])
        self._set_rows([layout.cols[f.state_ids[0]][:6]
                        + layout.lm_cols[f.landmark_id] for f in factors],
                       np.array([f.info for f in factors]),
                       window.huber_delta, layout.ndim)

    def _project(self, stack: StateStack, lms: np.ndarray):
        """Camera rotations (n, 3, 3), camera-frame points (n, 3) and the
        residuals (n, 2)."""
        r_wb = stack.R[self.host]
        r_wc = r_wb @ self.rig.T_IC.R
        d = (lms[self.lm] - stack.x[self.host, 3:6]) - r_wb @ self.rig.T_IC.t
        x_c = matvec(r_wc.transpose(0, 2, 1), d)  # d @ r_wc per row
        if np.any(x_c[:, 2] <= 1e-6):
            raise BehindCameraError(f"landmark depth {x_c[:, 2].min()} is not positive")
        return r_wc, x_c, self.pixels - self.rig.cam.project(x_c)

    def residuals(self, stack: StateStack, lms: np.ndarray) -> np.ndarray:
        return self._project(stack, lms)[2]

    def linearize(self, stack: StateStack, lms: np.ndarray):
        r_wc, x_c, res = self._project(stack, lms)
        cam, z = self.rig.cam, x_c[:, 2]
        dpi = np.zeros((len(z), 2, 3))
        dpi[:, 0, 0] = cam.fx / z
        dpi[:, 0, 2] = -cam.fx * x_c[:, 0] / (z * z)
        dpi[:, 1, 1] = cam.fy / z
        dpi[:, 1, 2] = -cam.fy * x_c[:, 1] / (z * z)
        r_ic = self.rig.T_IC.R
        c_p = r_ic.T @ hat(self.rig.T_IC.t)
        j_phi = -(dpi @ hat_batch(x_c) @ r_ic.T + dpi @ c_p)
        j_pos = dpi @ r_wc.transpose(0, 2, 1)
        return res, np.concatenate([j_phi, j_pos, -j_pos], axis=2)


def _check_patches(front: np.ndarray, valid: np.ndarray) -> None:
    if not valid.all():
        if not front.all():
            raise BehindCameraError("patch point behind the current camera")
        raise OutOfDomainError("warped patch left the image domain")


class _PhotometricBatch(_Batch):
    """All photometric factors, one row per patch, over the host pose's 6
    dims and the observer pose's 6 (the warp touches no other dim).

    The n x m patch points are warped at once; each distinct observer field
    is sampled, and differentiated when linearizing, once for all the
    patches it observes."""

    def __init__(self, window: LocalWindow, factors: list[Factor], layout: _Layout):
        self.rig = window.rig
        self.host = np.array([layout.rows[f.state_ids[0]] for f in factors])
        self.obs = np.array([layout.rows[f.state_ids[1]] for f in factors])
        payloads = [f.payload for f in factors]
        self.host_vals = np.stack([d.host_vals for d in payloads])  # (n, m)
        self.weights = np.stack([d.weights for d in payloads])      # (n, m)
        self.pts_ci = self.rig.cam.backproject(                     # (n, m, 3)
            np.stack([d.host_pix for d in payloads]), [[d.depth] for d in payloads])
        fields: dict[int, tuple] = {}
        for k, d in enumerate(payloads):
            fields.setdefault(id(d.field_obs), (d.field_obs, []))[1].append(k)
        self.fields = [(fld, np.array(rows)) for fld, rows in fields.values()]
        self._set_rows([layout.cols[f.state_ids[0]][:6]
                        + layout.cols[f.state_ids[1]][:6] for f in factors],
                       np.array([f.info for f in factors]),
                       window.huber_delta, layout.ndim)

    def _warp(self, stack: StateStack):
        """Host body rotations and host and observer camera rotations
        (n, 3, 3), observer-frame points (n, m, 3), their pixels (n, m, 2),
        and the masks (n,) of patches whose every point lies in front of the
        observer camera, and also inside its image."""
        r_ic, p_ic = self.rig.T_IC.R, self.rig.T_IC.t
        r_h, r_o = stack.R[self.host], stack.R[self.obs]
        r_wci, r_wcj = r_h @ r_ic, r_o @ r_ic
        # host-to-observer points with the translation difference taken
        # first, so a common world shift cancels exactly
        rel = ((stack.x[self.host, 3:6] - stack.x[self.obs, 3:6])
               + (r_h @ p_ic - r_o @ p_ic))
        pts_cj = (self.pts_ci @ r_wci.transpose(0, 2, 1)
                  + rel[:, None, :]) @ r_wcj
        front = pts_cj[..., 2] > 1e-6
        # finite pixels for rejected points
        pix = self.rig.cam.project(np.where(front[..., None], pts_cj, 1.0))
        inside = self.rig.cam.in_image(pix)
        front = front.all(axis=1)
        return (r_h, r_wci, r_wcj, pts_cj, pix, front,
                front & inside.all(axis=1))

    def _sample(self, pix: np.ndarray, keep: np.ndarray, gradient: bool):
        """Observer-field values (n, m) at the points ``pix`` of the patches
        ``keep`` (NaN elsewhere) and, with ``gradient``, their gradients
        (n, m, 2); one call per distinct observer field."""
        n, m = pix.shape[:2]
        vals = np.full((n, m), np.nan)
        grads = np.zeros((n, m, 2)) if gradient else None
        for fld, rows in self.fields:
            rows = rows[keep[rows]]
            if len(rows) == 0:
                continue
            flat = pix[rows].reshape(-1, 2)
            vals[rows] = fld.sample(flat).reshape(-1, m)
            if gradient:
                grads[rows] = fld.gradient(flat).reshape(-1, m, 2)
        return vals, grads

    def patch_residuals(self, stack: StateStack):
        """Per-patch residuals (n,), NaN where the patch is not valid, and
        the masks of ``_warp``; invalid patches are not sampled."""
        *_, pix, front, valid = self._warp(stack)
        vals, _ = self._sample(pix, valid, gradient=False)
        return np.sum(self.weights * (vals - self.host_vals), axis=1), front, valid

    def residuals(self, stack: StateStack, lms=None) -> np.ndarray:
        res, front, valid = self.patch_residuals(stack)
        _check_patches(front, valid)
        return res[:, None]

    def linearize(self, stack: StateStack, lms=None):
        r_h, r_wci, r_wcj, pts_cj, pix, front, valid = self._warp(stack)
        _check_patches(front, valid)
        vals, grads = self._sample(pix, valid, gradient=True)
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
        rows_sum = rows.sum(axis=1)
        srows = rows @ r_wcj.transpose(0, 2, 1)
        srows_sum = srows.sum(axis=1)
        jac = np.empty((len(res), 1, 12))
        # row @ hat(x) == cross(row, x), batched over patches and pattern
        jac[:, 0, 0:3] = (-np.cross(srows @ r_wci, self.pts_ci).sum(axis=1)
                          @ r_ic.T
                          - np.einsum("ni,nij->nj", srows_sum, r_h @ hat(p_ic)))
        jac[:, 0, 3:6] = srows_sum
        jac[:, 0, 6:9] = (np.cross(rows, pts_cj).sum(axis=1) @ r_ic.T
                          + rows_sum @ (r_ic.T @ hat(p_ic)))
        jac[:, 0, 9:12] = -matvec(r_wcj, rows_sum)
        return res[:, None], jac


class _PairBatch:
    """The factors of one pair kind, payloads and information stacked once;
    the kind's residual function evaluates all their pairs in one call, at
    rows ``i`` and ``j`` of a :class:`StateStack`."""

    def __init__(self, factors: list[Factor], i, j, rig: SensorRig):
        f0, ds = factors[0], [f.payload for f in factors]
        self.kind, self.i, self.j = f0.kind, i, j
        self.infos = np.array([f.info for f in factors])
        # the stacked payload, the residual function and its sensor constant
        if self.kind is FactorKind.IMU:
            self.data, self.fn, self.const = (
                stack_imu_pairs(ds), imu_pair_residuals, rig.gravity)
        elif self.kind is FactorKind.DVL_POSITION:
            self.data, self.fn, self.const = (
                stack_dvl_position_pairs(ds), dvl_position_pair_residuals, rig.dvl)
        elif self.kind is FactorKind.DVL_VELOCITY:
            self.data, self.fn, self.const = (stack_dvl_velocity_pairs(
                ds, rig.dvl), dvl_velocity_pair_residuals, rig.dvl)
        else:
            self.data = np.array([[d.meas_n.depth - d.meas_i.depth] for d in ds])
            self.fn, self.const = pressure_pair_residuals, rig.depth

    def evaluate(self, stack: StateStack, with_jacobians: bool = True):
        return self.fn(stack, self.i, self.j, self.data, self.const,
                       with_jacobians)


class _PairGroup(_Batch):
    """The pair kinds that span one list of state pairs, one row per pair:
    the kinds' residuals one after another, with a block-diagonal
    information. A row's columns are the 36 local dims of its two states
    (i's, then j's), kept where some pair has a column (``dims``)."""

    def __init__(self, window: LocalWindow, kinds: list[list[Factor]], layout: _Layout):
        pairs = [f.state_ids for f in kinds[0]]
        cols = np.array([layout.cols[a] + layout.cols[b] for a, b in pairs])
        self.dims = np.flatnonzero(cols.min(axis=0) < layout.ndim)
        # contiguous rows (consecutive keyframes) are read as views
        i, j = ([layout.rows[pair[side]] for pair in pairs] for side in (0, 1))
        i, j = (slice(r[0], r[-1] + 1) if r == list(range(r[0], r[-1] + 1))
                else np.array(r) for r in (i, j))
        self.batches = [_PairBatch(fs, i, j, window.rig) for fs in kinds]
        size = sum(b.infos.shape[1] for b in self.batches)
        infos, lo = np.zeros((len(pairs), size, size)), 0
        for b in self.batches:
            hi = lo + b.infos.shape[1]
            infos[:, lo:hi, lo:hi], lo = b.infos, hi
        self._set_rows(cols.take(self.dims, 1), infos, None, layout.ndim)

    def residuals(self, stack: StateStack, lms=None) -> np.ndarray:
        return np.concatenate([b.evaluate(stack, with_jacobians=False)[0]
                               for b in self.batches], axis=1)

    def linearize(self, stack: StateStack, lms=None):
        out = [b.evaluate(stack) for b in self.batches]
        jac = np.concatenate([j.reshape(j.shape[0], j.shape[1], 2 * STATE_DOF)
                              for _, j in out], axis=1)
        return (np.concatenate([r for r, _ in out], axis=1),
                jac.take(self.dims, 2))


def _batches(window: LocalWindow, factors: list[Factor],
             layout: _Layout) -> list[_Batch]:
    """One batch per factor kind, with the window's rig and knee; the pair
    kinds that span the same list of state pairs share one :class:`_PairGroup`."""
    kinds: dict[FactorKind, list[Factor]] = {}
    for f in factors:
        kinds.setdefault(f.kind, []).append(f)
    make = {FactorKind.REPROJECTION: _ReprojectionBatch,
            FactorKind.PHOTOMETRIC: _PhotometricBatch}
    out = [make[kind](window, fs, layout) for kind, fs in kinds.items()
           if kind not in PAIR_KINDS]
    by_pairs: dict[tuple, list[list[Factor]]] = {}
    for kind, fs in kinds.items():
        if kind in PAIR_KINDS:
            by_pairs.setdefault(tuple(f.state_ids for f in fs), []).append(fs)
    return out + [_PairGroup(window, fss, layout) for fss in by_pairs.values()]


def _cost(batches: list[_Batch], stack: StateStack, lms: np.ndarray) -> float:
    """The robustified cost of all batches; infinite when a point leaves a
    camera."""
    try:
        return sum(b.weights_cost(b.residuals(stack, lms))[1] for b in batches)
    except (BehindCameraError, OutOfDomainError):
        return float("inf")


def _normal_equations(batches: list[_Batch], stack: StateStack,
                      lms: np.ndarray, ndim: int):
    """The robustly weighted normal equations J^T W J and J^T W r of all
    batches. Each row's blocks over its columns are added into h and g by one
    ``np.add.at`` each; h and g carry a trailing dummy row and column for
    the dims without a column, which are dropped."""
    h_at, h_add, g_at, g_add = [], [], [], []
    for b in batches:
        if len(b.h_index) == 0:
            continue
        res, jac = b.linearize(stack, lms)
        live, a = b.live, b.infos[b.live]
        if b.delta is not None:
            a = b.weights_cost(res)[0][live, None, None] * a
        jac, res = jac[live], res[live]
        jt_a = jac.transpose(0, 2, 1) @ a
        h_at.append(b.h_index.reshape(-1))
        h_add.append((jt_a @ jac).reshape(-1))
        g_at.append(b.cols[live].reshape(-1))
        g_add.append(matvec(jt_a, res).reshape(-1))
    h = np.zeros((ndim + 1) ** 2)
    g = np.zeros(ndim + 1)
    if h_at:
        np.add.at(h, np.concatenate(h_at), np.concatenate(h_add))
        np.add.at(g, np.concatenate(g_at), np.concatenate(g_add))
    return h.reshape(ndim + 1, ndim + 1)[:ndim, :ndim], g[:ndim]


def solve(window: LocalWindow, factors: list[Factor],
          cfg: SolverConfig | None = None):
    """Damped Gauss-Newton over the window. Accepted steps strictly decrease
    the robustified cost; a violation raises, so a finished solve certifies
    a monotone cost trace. Returns the updated window and a report."""
    cfg = cfg or SolverConfig()
    if not factors:
        raise ValueError("cannot solve an empty factor list")

    if not (window.fixed_states or window.fixed_landmarks):
        raise GaugeError("no fixed state or fixed landmark; "
                         "add a gauge fix before solving")

    layout = _window_layout(window, factors)
    ndim = layout.ndim
    batches = _batches(window, factors, layout)
    lms = layout.landmark_array(window.landmarks)
    stack = layout.stack(window.states)

    cost = _cost(batches, stack, lms)
    if not np.isfinite(cost):
        raise DivergedError(f"initial cost is not finite ({cost})")
    trace = [cost]
    if ndim == 0:
        return window, SolveReport(0, cost, trace, Termination.ZERO_GRADIENT)

    # the stack rows of the free states that a factor touches (the others
    # have no gradient and stay put) and their columns
    free = [sid for sid in layout.rows if layout.cols[sid][0] < ndim]
    free_rows = np.array([layout.rows[sid] for sid in free], dtype=np.intp)
    free_cols = np.array([layout.cols[sid] for sid in free],
                         dtype=np.intp).reshape(-1, STATE_DOF)
    lm_index = np.array(list(layout.lm_cols.values()),
                        dtype=np.intp).reshape(-1, 3)

    def retract(stack, lms, delta):
        delta = np.append(delta, 0.0)  # the dummy column moves nothing
        return (retract_rows(stack, free_rows, delta[free_cols]),
                lms + delta[lm_index])

    lam = cfg.lambda_init
    accepted = 0
    termination = Termination.ITERATION_CAP
    for _ in range(cfg.max_iterations):
        h, g = _normal_equations(batches, stack, lms, ndim)
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
            cand_stack, cand_lms = retract(stack, lms, candidate)
            cand_cost = _cost(batches, cand_stack, cand_lms)
            if math.isnan(cand_cost):
                raise DivergedError("candidate cost is NaN")
            if cand_cost < cost:
                step = candidate
                new_cost = cand_cost
                stack, lms = cand_stack, cand_lms
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

    window.states = dict(window.states)
    for sid in free:
        window.states[sid] = unstack_state(stack, layout.rows[sid])
    window.landmarks = dict(zip(layout.lm_rows, lms))
    return window, SolveReport(accepted, cost, trace, termination)


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
    """Preintegrated measurements covering one consecutive keyframe pair,
    and their information matrices, inverted once and shared by every
    window that spans the pair."""

    imu_preint: ImuPreintegrated
    dvl_preint: DvlPreintegrated | None = None

    @cached_property
    def imu_info(self) -> np.ndarray:
        return _safe_inverse(self.imu_preint.cov)

    @cached_property
    def dvl_info(self) -> np.ndarray:
        return _safe_inverse(self.dvl_preint.cov)


@dataclass
class BackendConfig:
    window_size: int = 10
    huber_delta: float = 1.345
    # measured luminance-constancy violation of the synthetic fields grows
    # with baseline: a few units frame-to-frame, tens between keyframes
    sigma_intensity: float = 30.0
    sigma_intensity_track: float = 10.0
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


@dataclass
class SensorNoise:
    """Standard deviations of the sensor noise the factors assume, in the
    scenario's units. As ``RunConfig.floors`` they are lower bounds on it:
    they keep the information matrices finite on noiseless synthetic
    datasets and absorb the zero-order-hold discretization error of the
    preintegrated factors (first order in the sample period), which would
    otherwise bias the solution away from the visual optimum."""

    sigma_pixel: float = 0.2
    sigma_dvl: float = 0.02
    sigma_pressure: float = 0.02
    sigma_g: float = 1e-3
    sigma_a: float = 5e-3
    sigma_bg_walk: float = 1e-6
    sigma_ba_walk: float = 1e-5
    sigma_bv_walk: float = 5e-3


def _safe_inverse(cov: np.ndarray) -> np.ndarray:
    dim = cov.shape[0]
    jitter = max(np.trace(cov) / dim, 1e-14) * 1e-9
    info = np.linalg.inv(cov + jitter * np.eye(dim))
    return 0.5 * (info + info.T)


def assemble_window(keyframes: list[KeyframeNode],
                    landmarks: dict[int, np.ndarray],
                    intervals: dict[tuple[int, int], IntervalData],
                    rig: SensorRig, cfg: BackendConfig, noise: SensorNoise,
                    fixed_ids: set[int] | None = None,
                    fixed_landmarks: set[int] | None = None):
    """Build the local window and its factor list, a factor for every
    measurement given, weighted by ``noise``.

    One inertial factor per consecutive pair (coverage required), DVL
    translation, DVL relative-velocity and relative-depth factors per pair
    whose interval and keyframes carry those measurements, a reprojection
    factor per (keyframe, landmark) observation, and photometric factors
    between consecutive textured keyframes for up to
    ``photometric_max_points`` host points with known stereo depth.

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
        rig=rig, huber_delta=cfg.huber_delta,
        landmarks=window_lms,
        fixed_states=fixed_ids,
        fixed_landmarks={lid for lid in fixed_landmarks if lid in window_lms},
    )

    factors: list[Factor] = []

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
            np.full(3, 1.0 / (noise.sigma_bg_walk**2 * dt)),
            np.full(3, 1.0 / (noise.sigma_ba_walk**2 * dt)),
        ])
        info = np.zeros((15, 15))
        info[0:9, 0:9] = data.imu_info
        info[9:15, 9:15] = np.diag(walk)
        factors.append(Factor(FactorKind.IMU, key, data.imu_preint, info))

        if data.dvl_preint is not None:
            info = np.zeros((6, 6))
            info[0:3, 0:3] = data.dvl_info
            info[3:6, 3:6] = np.eye(3) / (noise.sigma_bv_walk**2 * dt)
            factors.append(Factor(FactorKind.DVL_POSITION, key, data.dvl_preint,
                                  info))
        if a.dvl_meas is not None and b.dvl_meas is not None \
                and a.gyro is not None and b.gyro is not None:
            info = np.eye(3) / (2.0 * noise.sigma_dvl**2)
            factors.append(Factor(
                FactorKind.DVL_VELOCITY, key,
                DvlVelocityData(a.dvl_meas, b.dvl_meas, a.gyro, b.gyro),
                info))
        if a.pressure_meas is not None and b.pressure_meas is not None:
            info = np.array([[1.0 / (2.0 * noise.sigma_pressure**2)]])
            factors.append(Factor(FactorKind.PRESSURE, key,
                                  PressureData(a.pressure_meas, b.pressure_meas),
                                  info))

    pix_info = np.eye(2) / noise.sigma_pixel**2
    for kf in keyframes:
        seen = [o for o in kf.observations if o.landmark_id in window_lms]
        if not seen:
            continue
        t_cw = rig.camera_pose(kf.state).inverse()
        z = t_cw.transform([window_lms[o.landmark_id] for o in seen])[:, 2]
        # none behind or grazing the camera at the initial guess
        factors += [Factor(FactorKind.REPROJECTION, (kf.kf_id,), obs, pix_info,
                           landmark_id=obs.landmark_id)
                    for obs, behind in zip(seen, z <= 1e-3) if not behind]

    if cfg.photometric_enabled:
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
                key=lambda o: o.landmark_id)[:cfg.photometric_max_points]
            points = list(zip([o.pixel for o in hosts], rig.cam.stereo_depth(
                [o.disparity for o in hosts])))
            factors += make_photometric_factors(
                window, (a.kf_id, b.kf_id), a.field, b.field, points,
                cfg.pattern, cfg.sigma_intensity, cfg.photometric_gate)

    observed = {f.landmark_id for f in factors if f.landmark_id is not None}
    window.landmarks = {lid: pos for lid, pos in window_lms.items()
                        if lid in observed}
    window.fixed_landmarks &= observed
    return window, factors


def make_photometric_factors(window: LocalWindow, ids: tuple[int, int],
                             field_host: IntensityField,
                             field_obs: IntensityField, points,
                             pattern: PatchPattern, sigma_intensity: float,
                             gate: float) -> list[Factor]:
    """Photometric factors, one per (pixel, depth) host point of the state
    pair ``ids`` with per-point intensity noise ``sigma_intensity``, gated
    at the states of the ``window`` they will join. A patch is kept when
    every point warps in front of and inside the observer image and its
    Mahalanobis residual is at most ``gate``; patches that fail violate
    luminance constancy (clutter, parallax) or leave the image at the
    guess. The host side takes one field sample and one gradient call, the
    gate one batch evaluation."""
    payloads = PhotometricData.batch(field_host, field_obs,
                                     [p for p, _ in points],
                                     [d for _, d in points], pattern)
    if not payloads:
        return []
    info = np.array([[1.0 / (len(pattern.offsets) * sigma_intensity**2)]])
    factors = [Factor(FactorKind.PHOTOMETRIC, ids, d, info) for d in payloads]
    layout = _window_layout(window, factors)
    batch = _PhotometricBatch(window, factors, layout)
    res, _, valid = batch.patch_residuals(layout.stack(window.states))
    keep = valid & ~(np.sqrt(res * batch.infos[:, 0, 0] * res) > gate)
    return [f for f, k in zip(factors, keep) if k]
