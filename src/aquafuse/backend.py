"""Factor-graph assembly for the local optimization window and a damped
Gauss-Newton (Levenberg-Marquardt) solver on the state manifold.

Variables are keyframe states (18 local dof: rotation vector, position,
velocity, gyro/accel/DVL biases) and landmark positions. Rotation updates are
applied on the right (R <- R exp(phi)); translations, velocities and biases
are additive. A factor holds only its measurement: the sensor rig, the
Huber knee of the visual kinds (the only robust ones) and the gauge belong
to the window it is solved in, which its fixed states or fixed landmarks
anchor. A pair factor carries plain readings: an IMU or DVL position
factor its preintegration, a DVL velocity factor the DVL velocities and
raw gyro readings ``(v_i, v_j, w_i, w_j)`` at its keyframes, and a
pressure factor the depth change ``d_j - d_i``, a float.

Per-keyframe biases are coupled by random-walk terms folded into the inertial
factor (gyro/accel biases) and the DVL translation factor (velocity bias), so
the factor kinds stay exactly the six sensor kinds. A window has a factor for
every measurement its nodes and intervals carry, so the caller decides which
sensors it fuses by the measurements it gives.

Each factor kind is one batch per solve, its residual and Jacobian
written once: all reprojections, all photometric patches, and each pair kind
(IMU, DVL velocity, DVL position, pressure) over all its pairs. A batch
reads the window's states stacked once per point in two passes: residuals
per row, then Jacobian rows over its columns from the first pass's
intermediates. Its columns come from the solve's ``_Layout`` tables, by
the stack and landmark rows it reads (a free state solves its first
``free_dims`` local dims). One rule holds for every batch: a side of its
rows (host pose, landmark, observer pose, state i) that no row has free
gets no columns and no Jacobian block, so a frame's solves, which hold
the map and the reference keyframe fixed, build the frame state's blocks
alone. The solver drops every factor on fixed variables alone, so its
cost is that of the factors that can move. It runs the residual pass at
each point it visits, the Jacobian pass only
where it builds normal equations. Each damped step eliminates the free
landmarks by Schur complement, its correction formed on the observing
keyframes' pose columns alone, solves the state system alone, and is
judged against the tolerances before it is evaluated.
``Factor.evaluate`` is a batch of one.

A keyframe pair's photometric patches are measurements too: the tracker
builds them once with ``photometric_payloads``, when it makes the pair, and
the pair's ``IntervalData`` carries them to each window, which gates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from functools import cached_property
from enum import Enum
from typing import Any

import numpy as np

from .config import require_positive
from .depth import DepthExtrinsics, PressureSample, pressure_pair_residuals
from .dvl import (DvlExtrinsics, DvlPreintegrated, DvlSample,
                  dvl_position_pair_residuals, dvl_velocity_pair_residuals,
                  stack_dvl_position_pairs, stack_dvl_velocity_pairs)
from .imu import ImuPreintegrated, imu_pair_residuals, stack_imu_pairs
from .manifold import Pose, hat, hat_batch
from .state import (STATE_DOF, NavState, StateStack, matvec, retract_rows,
                    stack_states, unstack_state)
from .visual import (BehindCameraError, CameraModel, IntensityField,
                     LandmarkObservation, OutOfDomainError, PATCH_OFFSETS,
                     patch_weights)


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

PAIR_KINDS = (FactorKind.IMU, FactorKind.DVL_VELOCITY, FactorKind.DVL_POSITION,
              FactorKind.PRESSURE)
# the least disparity (px) at which an observation hosts a depth: a map
# landmark of the tracker or a photometric patch
MIN_HOST_DISPARITY_PX = 0.05


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
class PhotometricData:
    """A patch of ``photometric_payloads``: the observer's field, and the
    host camera's pattern points (m, 3), values and weights (m,)."""

    field_obs: IntensityField
    pts_ci: np.ndarray
    host_vals: np.ndarray
    weights: np.ndarray


@dataclass
class Factor:
    """One residual block: kind, connected variables, measurement payload,
    information matrix (symmetric, checked where a batch stacks it) and,
    for a reprojection, the observed landmark."""

    kind: FactorKind
    state_ids: tuple[int, ...]
    payload: Any
    info: np.ndarray
    landmark_id: int | None = None

    # ------------------------------------------------------------------ #
    def evaluate(self, states: dict[int, NavState],
                 landmarks: dict[int, np.ndarray], rig: SensorRig):
        """Raw residual plus Jacobian blocks keyed by state id / landmark
        id, evaluated with ``rig`` as a batch of one: each residual is
        written once, in its kind's batch."""
        lids = () if self.landmark_id is None else (self.landmark_id,)
        window = LocalWindow({sid: states[sid] for sid in self.state_ids}, rig,
                             None, {lid: landmarks[lid] for lid in lids})
        layout = _window_layout(window, [self])
        (batch,) = _batches(window, [self], layout)
        res, ctx = batch.residuals(layout.stack(states),
                                   layout.landmark_array(landmarks))
        dense = np.zeros((res.shape[1], layout.ndim + 1))
        dense[:, batch.cols[0]] = batch.jacobians(ctx)[0]
        return (res[0],
                {sid: dense[:, layout.state_cols[k]]
                 for sid, k in layout.rows.items()},
                {lid: dense[:, layout.lm_cols[k]]
                 for lid, k in layout.lm_rows.items()})


# ------------------------------ local window ------------------------------- #

@dataclass
class LocalWindow:
    """Keyframe states in window order plus landmarks, the rig and the Huber
    knee of the visual factors (None: unweighted). Fixed entries are never
    touched by the solver and anchor the gauge. A free state solves the
    first ``free_dims`` of its 18 local dims (18 by default; 6 the pose, 9
    the pose and velocity), at least its pose."""

    states: dict[int, NavState]
    rig: SensorRig
    huber_delta: float | None
    landmarks: dict[int, np.ndarray] = dc_field(default_factory=dict)
    fixed_states: set[int] = dc_field(default_factory=set)
    fixed_landmarks: set[int] = dc_field(default_factory=set)
    free_dims: dict[int, int] = dc_field(default_factory=dict)


@dataclass
class SolverConfig:
    max_iterations: int = 50
    rel_cost_tol: float = 1e-8
    step_tol: float = 1e-10


# a solve's LM damping starts at LAMBDA_INIT; one past LAMBDA_MAX ends it
LAMBDA_INIT, LAMBDA_MAX = 1e-4, 1e10


class Termination(Enum):
    """Why a solve stopped."""

    # the tolerances judge the next step before it is taken, so a solve
    # they stop ends at a point its last normal equations were built at
    RELATIVE_COST = "relative_cost"    # its model decrease below rel_cost_tol x cost
    STEP_SIZE = "step_size"            # its norm below step_tol
    ITERATION_CAP = "iteration_cap"    # max_iterations steps taken
    ZERO_GRADIENT = "zero_gradient"    # gradient vanished (or no free dims)
    NO_DESCENT = "no_descent"          # no damping up to LAMBDA_MAX lowers the cost


@dataclass
class SolveReport:
    """Accepted steps, final cost, cost trace and why the solve stopped."""

    iterations: int
    final_cost: float
    cost_trace: list[float]
    termination: Termination


@dataclass
class _Layout:
    """Where the variables of a solve sit: each state's stack row and each
    landmark's row, and by those rows the normal-equation columns of each
    state's 18 local dims (K, 18) and each landmark's 3 (L, 3): the free
    states' ``n_s`` first, then 3 per free landmark. A dim without a column
    (fixed, or past a state's free dims) takes the dummy column ``ndim``."""

    rows: dict[int, int]
    lm_rows: dict[int, int]
    state_cols: np.ndarray
    lm_cols: np.ndarray
    n_s: int
    ndim: int

    def stack(self, states: dict[int, NavState]) -> StateStack:
        return stack_states(states[sid] for sid in self.rows)

    def landmark_array(self, landmarks: dict[int, np.ndarray]) -> np.ndarray:
        return np.array([landmarks[lid] for lid in self.lm_rows],
                        dtype=float).reshape(-1, 3)


def _window_layout(window: LocalWindow, factors: list[Factor]) -> _Layout:
    """The solve's layout: columns for the free dims of each free state in
    window order, then for each free landmark in id order; the states'
    rows in the order the factors first touch them, so consecutive
    keyframe pairs read contiguous stack rows."""
    spans, n_s = {}, 0
    for sid in window.states:
        if sid not in window.fixed_states:
            n = window.free_dims.get(sid, STATE_DOF)
            if not (isinstance(n, int) and 6 <= n <= STATE_DOF):
                raise ValueError(f"state {sid} frees {n!r} dims, not 6 "
                                 f"to {STATE_DOF}")
            spans[sid], n_s = range(n_s, n_s + n), n_s + n
    lm_rows = {lid: k for k, lid in enumerate(sorted(window.landmarks))}
    free_lm = np.array([lid not in window.fixed_landmarks for lid in lm_rows],
                       dtype=bool)
    ndim = n_s + 3 * int(np.count_nonzero(free_lm))
    lm_cols = np.full((len(lm_rows), 3), ndim, dtype=np.intp)
    lm_cols[free_lm] = np.arange(n_s, ndim).reshape(-1, 3)
    rows = {sid: k for k, sid in enumerate(
        dict.fromkeys(sid for f in factors for sid in f.state_ids))}
    state_cols = np.full((len(rows), STATE_DOF), ndim, dtype=np.intp)
    for sid, k in rows.items():
        if sid in spans:
            state_cols[k, :len(spans[sid])] = spans[sid]
    return _Layout(rows, lm_rows, state_cols, lm_cols, n_s, ndim)


class _Batch:
    """The factors of one kind, evaluated at once over a :class:`StateStack`
    and the landmark array. A row is one factor (one state pair for the pair
    kinds), over the dims of its two sides: a host pose and a landmark, a
    host and an observer pose, or states i and j. Per row a batch holds
    ``cols`` (n, c), the normal-equation columns of those dims that some
    row has free (``dims`` of the sides' columns), and ``infos`` (n, r, r);
    ``delta`` is the Huber knee of all its rows (None: no robust loss). The
    one rule: a side (its columns in ``sides`` of ``_set_rows``) that no
    row has free is not ``built``: it has no columns and no Jacobian block.
    A visual side is free whole (a pose or a landmark); a pair kind builds
    state j's block always, since no solve of the tracker holds every
    state j fixed. A batch evaluates in two passes. ``residuals(stack,
    lms)`` gives the residuals (n, r) and the intermediates ``ctx`` of the
    point; a point that leaves a camera raises BehindCameraError or
    OutOfDomainError. ``jacobians(ctx)`` gives the Jacobian rows (n, r, c)
    over ``cols`` from them. A fixed variable of a row scatters into the
    dummy column, which is dropped."""

    def _set_rows(self, sides, infos, delta: float | None, dummy: int):
        if np.max(np.abs(infos - infos.transpose(0, 2, 1))) > 1e-9:
            raise ValueError("information matrix must be symmetric")
        cols = np.concatenate(sides, axis=1)
        self.dims = np.flatnonzero(cols.min(axis=0) < dummy)
        self.built = [bool(np.any(c < dummy)) for c in sides]
        self.cols = cols = cols.take(self.dims, 1)
        self.infos, self.delta = infos, delta
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
    pose's 6 dims and the landmark's 3: over the host's alone when every
    landmark is fixed, as in a frame's coarse and joint solves."""

    def __init__(self, window: LocalWindow, factors: list[Factor], layout: _Layout):
        self.rig = window.rig
        self.host = np.array([layout.rows[f.state_ids[0]] for f in factors])
        self.lm = np.array([layout.lm_rows[f.landmark_id] for f in factors])
        self.pixels = np.array([f.payload.pixel for f in factors])
        self._set_rows([layout.state_cols[self.host, :6],
                        layout.lm_cols[self.lm]],
                       np.array([f.info for f in factors]),
                       window.huber_delta, layout.ndim)

    def residuals(self, stack: StateStack, lms: np.ndarray):
        r_wb = stack.R[self.host]
        r_wc = r_wb @ self.rig.T_IC.R
        d = (lms[self.lm] - stack.x[self.host, 3:6]) - r_wb @ self.rig.T_IC.t
        x_c = matvec(r_wc.transpose(0, 2, 1), d)  # d @ r_wc per row
        if np.any(x_c[:, 2] <= 1e-6):
            raise BehindCameraError(f"landmark depth {x_c[:, 2].min()} is not positive")
        return self.pixels - self.rig.cam.project(x_c), (r_wc, x_c)

    def jacobians(self, ctx):
        r_wc, x_c = ctx
        cam, z = self.rig.cam, x_c[:, 2]
        dpi = np.zeros((len(z), 2, 3))
        dpi[:, 0, 0] = cam.fx / z
        dpi[:, 0, 2] = -cam.fx * x_c[:, 0] / (z * z)
        dpi[:, 1, 1] = cam.fy / z
        dpi[:, 1, 2] = -cam.fy * x_c[:, 1] / (z * z)
        j_pos = dpi @ r_wc.transpose(0, 2, 1)
        blocks = []
        if self.built[0]:
            r_ic = self.rig.T_IC.R
            c_p = r_ic.T @ hat(self.rig.T_IC.t)
            blocks += [-(dpi @ hat_batch(x_c) @ r_ic.T + dpi @ c_p), j_pos]
        if self.built[1]:
            blocks.append(-j_pos)
        return np.concatenate(blocks, axis=2)


class _PhotometricBatch(_Batch):
    """All photometric factors, one row per patch, over the host pose's 6
    dims and the observer pose's 6 (the warp touches no other dim).

    The n x m patch points are warped at once; each distinct observer field
    is called once for all the patches it observes: sampled with its
    gradients by the residual pass, and sampled alone for the gate's
    ``patch_residuals``. When every host is fixed, as in a frame's
    photometric refinement, a row is over the observer's 6 dims alone."""

    def __init__(self, window: LocalWindow, factors: list[Factor], layout: _Layout):
        self.rig = window.rig
        self.host = np.array([layout.rows[f.state_ids[0]] for f in factors])
        self.obs = np.array([layout.rows[f.state_ids[1]] for f in factors])
        payloads = [f.payload for f in factors]
        self.host_vals = np.stack([d.host_vals for d in payloads])  # (n, m)
        self.weights = np.stack([d.weights for d in payloads])      # (n, m)
        self.pts_ci = np.stack([d.pts_ci for d in payloads])        # (n, m, 3)
        fields: dict[int, tuple] = {}
        for k, d in enumerate(payloads):
            fields.setdefault(id(d.field_obs), (d.field_obs, []))[1].append(k)
        self.fields = [(fld, np.array(rows)) for fld, rows in fields.values()]
        self._set_rows([layout.state_cols[self.host, :6],
                        layout.state_cols[self.obs, :6]],
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
        (n, m, 2); one field call per distinct observer field."""
        n, m = pix.shape[:2]
        vals = np.full((n, m), np.nan)
        grads = np.zeros((n, m, 2)) if gradient else None
        for fld, rows in self.fields:
            rows = rows[keep[rows]]
            if len(rows) == 0:
                continue
            if gradient:
                vals[rows], grads[rows] = fld.gradient(pix[rows])
            else:
                vals[rows] = fld.sample(pix[rows])
        return vals, grads

    def patch_residuals(self, stack: StateStack):
        """Per-patch residuals (n,), NaN where the patch is not valid, and
        the masks of ``_warp``; invalid patches are not sampled."""
        *_, pix, front, valid = self._warp(stack)
        vals, _ = self._sample(pix, valid, gradient=False)
        return np.sum(self.weights * (vals - self.host_vals), axis=1), front, valid

    def residuals(self, stack: StateStack, lms=None):
        r_h, r_wci, r_wcj, pts_cj, pix, front, valid = self._warp(stack)
        if not valid.all():
            if not front.all():
                raise BehindCameraError("patch point behind the current camera")
            raise OutOfDomainError("warped patch left the image domain")
        vals, grads = self._sample(pix, valid, gradient=True)
        res = np.sum(self.weights * (vals - self.host_vals), axis=1)
        return res[:, None], (r_h, r_wci, r_wcj, pts_cj, grads)

    def jacobians(self, ctx):
        r_h, r_wci, r_wcj, pts_cj, grads = ctx
        # weighted image gradient times the projection derivative
        w, cam = self.weights, self.rig.cam
        z = pts_cj[..., 2]
        gu = w * grads[..., 0] * cam.fx / z
        gv = w * grads[..., 1] * cam.fy / z
        rows = np.stack([gu, gv, -(gu * pts_cj[..., 0] + gv * pts_cj[..., 1])
                         / z], axis=-1)                            # (n, m, 3)
        r_ic, p_ic = self.rig.T_IC.R, self.rig.T_IC.t
        blocks = []
        # row @ hat(x) == cross(row, x), batched over patches and pattern
        if self.built[0]:
            srows = rows @ r_wcj.transpose(0, 2, 1)
            srows_sum = srows.sum(axis=1)
            blocks += [-_cross_sum(srows @ r_wci, self.pts_ci) @ r_ic.T
                       - np.einsum("ni,nij->nj", srows_sum, r_h @ hat(p_ic)),
                       srows_sum]
        if self.built[1]:
            rows_sum = rows.sum(axis=1)
            blocks += [_cross_sum(rows, pts_cj) @ r_ic.T
                       + rows_sum @ (r_ic.T @ hat(p_ic)),
                       -matvec(r_wcj, rows_sum)]
        return np.concatenate(blocks, axis=1)[:, None, :]


def _cross_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cross products of the rows of ``a`` and ``b`` (n, m, 3) summed
    over m, as ``np.cross(a, b).sum(axis=1)``, bit for bit and faster."""
    c = np.empty(a.shape)
    c[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    c[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    c[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return c.sum(axis=1)


def _pair_kind(kind: FactorKind, payloads: list, rig: SensorRig):
    """A pair kind's residual function, its payloads stacked once and the
    sensor constant the function takes."""
    if kind is FactorKind.IMU:
        return imu_pair_residuals, stack_imu_pairs(payloads), rig.gravity
    if kind is FactorKind.DVL_POSITION:
        return (dvl_position_pair_residuals, stack_dvl_position_pairs(payloads),
                rig.dvl)
    if kind is FactorKind.DVL_VELOCITY:
        return (dvl_velocity_pair_residuals,
                stack_dvl_velocity_pairs(payloads, rig.dvl), rig.dvl)
    return pressure_pair_residuals, np.array(payloads)[:, None], rig.depth


class _PairGroup(_Batch):
    """The pair kinds that span one list of state pairs, one row per pair:
    the kinds' residuals one after another, with a block-diagonal
    information. A row's columns are the 36 local dims of its two states
    (i's, then j's), kept where some pair has a column (``dims``); the
    kinds build no block for state i when every state i is fixed, as in a
    frame's joint solve."""

    def __init__(self, window: LocalWindow, kinds: list[list[Factor]], layout: _Layout):
        pairs = [f.state_ids for f in kinds[0]]
        i, j = ([layout.rows[pair[side]] for pair in pairs] for side in (0, 1))
        # contiguous rows (consecutive keyframes) are read as views
        self.i, self.j = (slice(r[0], r[-1] + 1) if r == list(range(r[0], r[-1] + 1))
                          else np.array(r) for r in (i, j))
        # per kind: its residual function, stacked payload and constant
        self.kinds = [_pair_kind(fs[0].kind, [f.payload for f in fs], window.rig)
                      for fs in kinds]
        blocks = [np.array([f.info for f in fs]) for fs in kinds]
        size = sum(b.shape[1] for b in blocks)
        infos, lo = np.zeros((len(pairs), size, size)), 0
        for b in blocks:
            hi = lo + b.shape[1]
            infos[:, lo:hi, lo:hi], lo = b, hi
        self._set_rows([layout.state_cols[i], layout.state_cols[j]], infos,
                       None, layout.ndim)

    def residuals(self, stack: StateStack, lms=None):
        # the residual functions return their kind's Jacobian rows as well
        out = [fn(stack, self.i, self.j, data, const, self.built[0])
               for fn, data, const in self.kinds]
        return (np.concatenate([r for r, _ in out], axis=1),
                [j for _, j in out])

    def jacobians(self, ctx):
        jac = np.concatenate([j.reshape(j.shape[0], j.shape[1], 2 * STATE_DOF)
                              for j in ctx], axis=1)
        return jac.take(self.dims, 2)


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


def _evaluate(batches: list[_Batch], stack: StateStack, lms: np.ndarray):
    """The residual pass of each batch at one point: its residuals, the
    intermediates of its Jacobian pass, its Huber weights and cost; and
    their total, the cost of the factors given. (None, inf) when a point
    leaves a camera."""
    out = []
    try:
        for b in batches:
            res, ctx = b.residuals(stack, lms)
            out.append((res, ctx, *b.weights_cost(res)))
    except (BehindCameraError, OutOfDomainError):
        return None, float("inf")
    return out, sum((cost for *_, cost in out), 0.0)


def _normal_equations(batches: list[_Batch], evaluation, ndim: int):
    """The robustly weighted normal equations J^T W J and J^T W r of all
    batches from their ``_evaluate``, whose Jacobian passes run here alone.
    Each row's blocks over its columns are summed into h and g by one
    ``np.bincount`` each, in row order from zero; h and g carry a trailing
    dummy row and column for the dims without a column, which are dropped."""
    h_at, h_add, g_at, g_add = [], [], [], []
    for b, (res, ctx, w, _) in zip(batches, evaluation):
        if not any(b.built):  # rows on fixed variables alone
            continue
        jac = b.jacobians(ctx)
        a = b.infos if w is None else w[:, None, None] * b.infos
        jt_a = jac.transpose(0, 2, 1) @ a
        h_at.append(b.h_index.reshape(-1))
        h_add.append((jt_a @ jac).reshape(-1))
        g_at.append(b.cols.reshape(-1))
        g_add.append(matvec(jt_a, res).reshape(-1))
    h = np.bincount(np.concatenate(h_at), np.concatenate(h_add),
                    (ndim + 1) ** 2)
    g = np.bincount(np.concatenate(g_at), np.concatenate(g_add), ndim + 1)
    return h.reshape(ndim + 1, ndim + 1)[:ndim, :ndim], g[:ndim]


def _solve_damped(h: np.ndarray, damp: np.ndarray, g: np.ndarray,
                  n_s: int) -> np.ndarray:
    """The LM step x of (h with the diagonal ``damp``) x = -g, when the
    columns after the first ``n_s`` are free landmarks, 3 each.

    Only a reprojection row touches a landmark: one landmark and its host's
    pose. So the landmark columns couple in 3 x 3 diagonal blocks, and H_sl
    is nonzero only in the pose columns of the observing keyframes. The
    step inverts the landmark blocks in one batched call, forms the Schur
    correction H_sl H_ll^-1 [H_ls | g_l] on those columns alone, solves the
    state system it leaves and back-substitutes the landmark steps. Without
    a landmark it is one ``np.linalg.solve`` of the damped h, bit for bit.
    Raises LinAlgError when a damped system is singular. The damped h is
    positive definite but solved by LU: numpy has no Cholesky or triangular
    solve, scipy is no runtime dependency (its import takes 0.3-0.4 s, half
    a set-up), and its Cholesky saves 0.16 ms of a 180-dimension window step
    but slows the 6- and 9-dimension frame solves, which would keep LU."""
    schur, rhs = h[:n_s, :n_s].copy(), -g[:n_s]
    np.fill_diagonal(schur, damp[:n_s])
    if n_s == len(g):
        return np.linalg.solve(schur, rhs)
    obs = np.flatnonzero(h[:n_s, n_s:].any(axis=1))
    k = len(obs)  # the last column of v and red is the right-hand side
    lm = np.arange(n_s, len(g)).reshape(-1, 3)
    h_ll = h[lm[:, :, None], lm[:, None, :]]                     # (L, 3, 3)
    # entries 0, 4 and 8 of each flattened block are its diagonal
    h_ll.reshape(-1, 9)[:, ::4] = damp[n_s:].reshape(-1, 3)
    h_lg = np.concatenate([h[n_s:, obs], g[n_s:, None]],
                          axis=1).reshape(-1, 3, k + 1)        # [H_ls | g_l]
    v = (np.linalg.inv(h_ll) @ h_lg).reshape(-1, k + 1)
    red = h[obs, n_s:] @ v  # H_sl H_ll^-1 [H_ls | g_l] on the observer rows
    schur[np.ix_(obs, obs)] -= red[:, :k]
    rhs[obs] += red[:, k]
    x = np.linalg.solve(schur, rhs)
    return np.concatenate([x, -(v[:, k] + v[:, :k] @ x[obs])])


def _model_decrease(h: np.ndarray, g: np.ndarray, step: np.ndarray) -> float:
    """The cost decrease the quadratic model of the normal equations h, g
    promises for ``step``. The cost is the sum of r^T W r, without a half,
    so its gradient is 2 g and its Gauss-Newton Hessian 2 h."""
    return -float(2.0 * (g @ step) + step @ (h @ step))


def solve(window: LocalWindow, factors: list[Factor],
          cfg: SolverConfig | None = None):
    """Damped Gauss-Newton over the window. The batches' residual pass
    alone sets the cost of each point visited; their Jacobian pass, from its
    intermediates, runs only where normal equations are built, so a
    rejected candidate and a capped solve's last point cost no Jacobian
    rows. Each damping trial solves the normal equations with the free
    landmarks eliminated (``_solve_damped``); without a free landmark that
    is a dense solve of the damped system.

    The factors on fixed variables alone are dropped first: the cost, its
    trace and the tolerances count only the terms the solve can change.
    The tolerances judge each trial step before it is retracted or
    evaluated: a solve stops with RELATIVE_COST when the step's model
    decrease is below ``rel_cost_tol`` times the current cost, and with
    STEP_SIZE when its norm is below ``step_tol``, without taking it.
    Accepted steps strictly decrease the robustified cost; a violation
    raises, so a finished solve certifies a monotone cost trace. Returns
    the updated window and a report."""
    cfg = cfg or SolverConfig()
    if not factors:
        raise ValueError("cannot solve an empty factor list")

    if not (window.fixed_states or window.fixed_landmarks):
        raise GaugeError("no fixed state or fixed landmark; "
                         "add a gauge fix before solving")

    free_states = set(window.states) - window.fixed_states
    free_lms = set(window.landmarks) - window.fixed_landmarks
    factors = [f for f in factors if free_states.intersection(f.state_ids)
               or f.landmark_id in free_lms]
    layout = _window_layout(window, factors)
    ndim = layout.ndim
    batches = _batches(window, factors, layout)
    lms = layout.landmark_array(window.landmarks)
    stack = layout.stack(window.states)

    evaluation, cost = _evaluate(batches, stack, lms)
    if not np.isfinite(cost):
        raise DivergedError(f"initial cost is not finite ({cost})")
    trace = [cost]
    if not factors:  # nothing the solve can move
        return window, SolveReport(0, cost, trace, Termination.ZERO_GRADIENT)

    # the stack rows of the free states that a factor touches (the others
    # have no gradient and stay put)
    free_rows = np.flatnonzero(layout.state_cols[:, 0] < ndim)
    free_cols = layout.state_cols[free_rows]

    def retract(stack, lms, delta):
        delta = np.append(delta, 0.0)  # the dummy column moves nothing
        return (retract_rows(stack, free_rows, delta[free_cols]),
                lms + delta[layout.lm_cols])

    lam = LAMBDA_INIT
    accepted = 0
    termination = None
    for _ in range(cfg.max_iterations):
        h, g = _normal_equations(batches, evaluation, ndim)
        if np.linalg.norm(g) < 1e-15:
            termination = Termination.ZERO_GRADIENT
            break
        h_diag = np.diag(h)
        while lam <= LAMBDA_MAX:
            try:
                # h + lam diag(h) + 1e-15 I, formed on the diagonal alone
                step = _solve_damped(h, h_diag + lam * h_diag + 1e-15, g,
                                     layout.n_s)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if _model_decrease(h, g, step) < cfg.rel_cost_tol * cost:
                termination = Termination.RELATIVE_COST
                break
            if np.linalg.norm(step) < cfg.step_tol:
                termination = Termination.STEP_SIZE
                break
            cand_stack, cand_lms = retract(stack, lms, step)
            cand_eval, cand_cost = _evaluate(batches, cand_stack, cand_lms)
            if math.isnan(cand_cost):
                raise DivergedError("candidate cost is NaN")
            if cand_cost < cost:
                stack, lms, evaluation = cand_stack, cand_lms, cand_eval
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        else:
            # no descent direction at any damping: stationary for our purposes
            termination = Termination.NO_DESCENT
        if termination is not None:
            break
        if not cand_cost < cost:
            raise AssertionError("accepted step failed to decrease the cost")
        accepted += 1
        cost = cand_cost
        trace.append(cost)

    ids = list(layout.rows)
    window.states = {**window.states,
                     **{ids[k]: unstack_state(stack, k) for k in free_rows}}
    window.landmarks = dict(zip(layout.lm_rows, lms))
    return window, SolveReport(accepted, cost, trace,
                               termination or Termination.ITERATION_CAP)


# --------------------------- window construction --------------------------- #

@dataclass
class KeyframeNode:
    """One keyframe's state and measurements; its photometric patches are
    its pairs' (``IntervalData``)."""

    kf_id: int
    t: float
    state: NavState
    observations: list[LandmarkObservation] = dc_field(default_factory=list)
    gyro: np.ndarray | None = None
    dvl_meas: DvlSample | None = None
    pressure_meas: PressureSample | None = None


@dataclass
class IntervalData:
    """The measurements of one consecutive keyframe pair, its
    preintegrations and photometric patches (made with the pair), and their
    information matrices, inverted once for every window that spans it."""

    imu_preint: ImuPreintegrated
    dvl_preint: DvlPreintegrated | None = None
    photometric: list[PhotometricData] = dc_field(default_factory=list)

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
    # the per-point intensity noise of every photometric factor: the fields'
    # luminance-constancy violation is tens of units between keyframes
    sigma_intensity: float = 30.0
    photometric_enabled: bool = True
    photometric_max_points: int = 8
    # patches whose Mahalanobis residual, |r| / (sqrt(m) sigma_intensity) for
    # m points, exceeds these at the initial guess are rejected: they violate
    # luminance constancy (clutter, parallax); 1/3 passes 10 units a point
    photometric_gate: float = 0.05
    photometric_track_gate: float = 1.0 / 3.0

    def __post_init__(self):
        require_positive(self, ("sigma_intensity",))


@dataclass
class SensorNoise:
    """Standard deviations of the sensor noise the factors assume, in the
    scenario's units, each positive and finite. As ``RunConfig.floors``
    they are lower bounds on it: they keep the information matrices finite
    on noiseless synthetic datasets and absorb the zero-order-hold
    discretization error of the preintegrated factors (first order in the
    sample period), which would otherwise bias the solution away from the
    visual optimum. The preintegrations take ``sigma_g``, ``sigma_a`` and
    ``sigma_dvl`` as floats."""

    sigma_pixel: float = 0.2
    sigma_dvl: float = 0.02
    sigma_pressure: float = 0.02
    sigma_g: float = 1e-3
    sigma_a: float = 5e-3
    sigma_bg_walk: float = 1e-6
    sigma_ba_walk: float = 1e-5
    sigma_bv_walk: float = 5e-3

    def __post_init__(self):
        require_positive(self, [f.name for f in fields(self)])


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
    factor per (keyframe, landmark) observation, and a photometric factor
    per patch its pairs carry (``IntervalData.photometric``, made with the
    pair), all the window's patches gated in one batch
    (``make_photometric_factors``).

    The window holds only what can move the solution: a consecutive pair of
    fixed keyframes gets none of these pair factors, and a fixed keyframe no
    reprojection of a fixed landmark (their cost is constant and they add
    nothing to the normal equations; ``solve`` would drop them); a landmark
    enters the window only when a factor built here observes it.
    """
    fixed_ids = set(fixed_ids or set())
    fixed_landmarks = set(fixed_landmarks or set())

    window_lms = {o.landmark_id: landmarks[o.landmark_id] for kf in keyframes
                  if kf.kf_id not in fixed_ids for o in kf.observations
                  if o.landmark_id in landmarks}

    window = LocalWindow(
        states={kf.kf_id: kf.state for kf in keyframes},
        rig=rig, huber_delta=cfg.huber_delta,
        landmarks=window_lms,
        fixed_states=fixed_ids,
        fixed_landmarks={lid for lid in fixed_landmarks if lid in window_lms},
    )

    factors: list[Factor] = []
    patches = []  # (state pair, its photometric payloads)
    for a, b in zip(keyframes[:-1], keyframes[1:]):
        # a gap means a co-visible prior: visual factors only
        if b.kf_id != a.kf_id + 1 or (a.kf_id in fixed_ids
                                      and b.kf_id in fixed_ids):
            continue
        key = (a.kf_id, b.kf_id)
        if key not in intervals:
            raise PreintCoverageError(
                f"no inertial preintegration covering [{a.t}, {b.t}]")
        data = intervals[key]
        patches.append((key, data.photometric))
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
                (a.dvl_meas.vel, b.dvl_meas.vel, a.gyro, b.gyro), info))
        if a.pressure_meas is not None and b.pressure_meas is not None:
            info = np.array([[1.0 / (2.0 * noise.sigma_pressure**2)]])
            factors.append(Factor(
                FactorKind.PRESSURE, key,
                b.pressure_meas.depth - a.pressure_meas.depth, info))

    pix_info = np.eye(2) / noise.sigma_pixel**2
    for kf in keyframes:
        fixed = fixed_landmarks if kf.kf_id in fixed_ids else set()
        seen = [o for o in kf.observations
                if o.landmark_id in window_lms and o.landmark_id not in fixed]
        if not seen:
            continue
        t_cw = rig.camera_pose(kf.state).inverse()
        z = t_cw.transform([window_lms[o.landmark_id] for o in seen])[:, 2]
        # none behind or grazing the camera at the initial guess
        factors += [Factor(FactorKind.REPROJECTION, (kf.kf_id,), obs, pix_info,
                           landmark_id=obs.landmark_id)
                    for obs, behind in zip(seen, z <= 1e-3) if not behind]

    factors += make_photometric_factors(window, patches, cfg.sigma_intensity,
                                        cfg.photometric_gate)

    observed = {f.landmark_id for f in factors if f.landmark_id is not None}
    window.landmarks = {lid: pos for lid, pos in window_lms.items()
                        if lid in observed}
    window.fixed_landmarks &= observed
    return window, factors


def photometric_payloads(host_field, host_obs, obs_field, obs_obs,
                         cam: CameraModel, cfg: BackendConfig) -> list[PhotometricData]:
    """A frame pair's photometric patches, none if ``cfg`` turns them off or
    a field is missing or has no bumps: the ``PATCH_OFFSETS`` around each of
    the first ``photometric_max_points`` of ``host_obs`` with a stereo depth
    whose landmark ``obs_obs`` holds too, as luminance constancy needs; their
    host side from one ``gradient`` call on ``host_field``."""
    if not (cfg.photometric_enabled and host_field is not None
            and obs_field is not None and len(host_field.amplitudes)
            and len(obs_field.amplitudes)):
        return []
    ids = {o.landmark_id for o in obs_obs}
    hosts = [o for o in host_obs if (o.disparity or 0.0) > MIN_HOST_DISPARITY_PX
             and o.landmark_id in ids][:cfg.photometric_max_points]
    if not hosts:
        return []
    pix = np.array([o.pixel for o in hosts])[:, None, :] + PATCH_OFFSETS
    vals, grads = host_field.gradient(pix)  # (n, m) and (n, m, 2)
    weights = patch_weights(grads)
    depth = cam.stereo_depth([o.disparity for o in hosts])
    pts = cam.backproject(pix, depth[:, None])
    return [PhotometricData(obs_field, pts[k], vals[k], weights[k])
            for k in range(len(hosts))]


def make_photometric_factors(window: LocalWindow, pairs,
                             sigma_intensity: float, gate: float) -> list[Factor]:
    """Photometric factors, one per payload of each ``(ids, payloads)`` of
    ``pairs`` (the state pair and its ``photometric_payloads``), in
    pair order, with per-point intensity noise ``sigma_intensity``, gated
    at the states of the ``window`` they will join. A patch is kept when
    every point warps in front of and inside the observer image and its
    Mahalanobis residual is at most ``gate``; patches that fail violate
    luminance constancy (clutter, parallax) or leave the image at the
    guess. The gate is one batch over every pair's patches: one field
    sample per distinct observer field, and no host-side call."""
    factors = [Factor(FactorKind.PHOTOMETRIC, ids, d, np.array(
                   [[1.0 / (len(d.host_vals) * sigma_intensity**2)]]))
               for ids, payloads in pairs for d in payloads]
    if not factors:
        return []
    layout = _window_layout(window, factors)
    batch = _PhotometricBatch(window, factors, layout)
    res, _, valid = batch.patch_residuals(layout.stack(window.states))
    keep = valid & ~(np.sqrt(res * batch.infos[:, 0, 0] * res) > gate)
    return [f for f, k in zip(factors, keep) if k]
