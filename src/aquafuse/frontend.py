"""Per-frame tracking pipeline.

Feature-rich frames run coarse feature-based tracking, direct photometric
refinement and a joint per-frame optimization against the reference keyframe.
When tracked features fall below the threshold the pipeline switches to the
degraded branch: gyro-driven rotation plus DVL translation prediction,
refined by acoustic-inertial-depth optimization. Keyframes trigger local
window bundle adjustment in the backend.

Each frame yields one ``FrameState`` record, which names the branch that
produced it; ``EstimationResult`` holds the records and the window BA reports.

The pipeline is strictly sequential per dataset and deterministic: the
same dataset and configuration reproduce the same frame states bit for bit
at a fixed BLAS thread count. Linear algebra summed over a different number
of BLAS threads can change the last bits of the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import backend as bk
from .dvl import (DvlPreintegrated, DvlSample, correct_dvl_bias,
                  lever_velocity, preintegrate_dvl)
from .evaluation import nearest_pairs
from .imu import (ImuPreintegrated, ImuSample, correct_imu_bias,
                  integrate_imu, integrate_rotation, predict_state_imu)
from .manifold import Pose, rotation_angle
from .sim import sensor_rig_from_config
from .state import NavState


class InsufficientObservationsError(ValueError):
    """Too few associated observations for a coarse pose solve."""


def _tracking_solver(max_iterations: int) -> bk.SolverConfig:
    # per-frame solves need millimeter precision, not machine precision; a
    # tolerance stops a solve before the step it judges, so the solve never
    # evaluates a step that promises less
    return bk.SolverConfig(max_iterations=max_iterations,
                           rel_cost_tol=1e-6, step_tol=1e-8)


# window solves sit in a per-keyframe loop: a tighter iteration cap and
# looser relative tolerance than the solver's defaults keep them fast
_WINDOW_SOLVER = bk.SolverConfig(max_iterations=12, rel_cost_tol=1e-6)


class TrackingStatus(Enum):
    VISUAL_OK = "VisualOk"
    DEGRADED = "Degraded"
    DEAD_RECKON = "DeadReckon"


class EstimatorMode(Enum):
    FULL = "full"
    VISUAL_INERTIAL = "visual-inertial-only"
    ACOUSTIC_INERTIAL_DEPTH = "acoustic-inertial-depth-only"
    DVL_DEADRECKON = "dvl-deadreckon-only"

    @property
    def uses_vision(self) -> bool:
        return self in (EstimatorMode.FULL, EstimatorMode.VISUAL_INERTIAL)

    @property
    def uses_dvl(self) -> bool:
        return self in (EstimatorMode.FULL, EstimatorMode.ACOUSTIC_INERTIAL_DEPTH,
                        EstimatorMode.DVL_DEADRECKON)

    @property
    def uses_pressure(self) -> bool:
        return self in (EstimatorMode.FULL, EstimatorMode.ACOUSTIC_INERTIAL_DEPTH)


@dataclass
class FrameState:
    """A frame's state, tracking branch, tracked features and solve cost (NaN
    if none ran; without the reference keyframe's constant reprojections);
    for a keyframe also its state after its last window BA."""

    frame_id: int
    t: float
    nav: NavState
    status: TrackingStatus
    tracked_features: int
    cost: float = float("nan")
    keyframe: NavState | None = None

    @property
    def T_WI(self) -> Pose:
        return self.nav.pose()


@dataclass
class TrackerConfig:
    min_tracked_features: int = 8
    min_coarse_observations: int = 4
    reentry_frames: int = 3
    tau_p: float = 0.3        # keyframe translation threshold, meters
    tau_r: float = 0.2        # keyframe rotation threshold, radians
    tau_t: float = 1.0        # keyframe time threshold, seconds
    coarse_max_iterations: int = 10  # the coarse and per-frame joint solves
    refine_max_iterations: int = 4


@dataclass
class RunConfig:
    mode: EstimatorMode = EstimatorMode.FULL
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    backend: bk.BackendConfig = field(default_factory=bk.BackendConfig)
    floors: bk.SensorNoise = field(default_factory=bk.SensorNoise)


# ------------------------------- frame ops --------------------------------- #

def track_coarse(init: NavState, observations, map_points: dict,
                 rig: bk.SensorRig, cfg: TrackerConfig,
                 backend_cfg: bk.BackendConfig, noise: bk.SensorNoise) -> Pose:
    """Pose minimizing the robustified reprojection cost over the tracked
    observations, weighted by ``noise``, from the pose ``init`` predicts."""
    tracked = [o for o in observations if o.landmark_id in map_points]
    if len(tracked) < cfg.min_coarse_observations:
        raise InsufficientObservationsError(
            f"{len(tracked)} observations (< {cfg.min_coarse_observations})")
    node = bk.KeyframeNode(kf_id=0, t=0.0, state=init, observations=tracked)
    window, factors = bk.assemble_window(
        [node], map_points, {}, rig, backend_cfg, noise,
        fixed_landmarks=set(map_points.keys()))
    if not window.fixed_landmarks:
        raise InsufficientObservationsError(
            "no tracked observation in front of the camera")
    window.free_dims[0] = 6  # the pose
    window, _ = bk.solve(window, factors, _tracking_solver(cfg.coarse_max_iterations))
    s = window.states[0]
    return Pose(s.R, s.p)


@dataclass(frozen=True)
class RefineResult:
    pose: Pose


def refine_photometric(coarse: Pose, ref_pose: Pose, payloads,
                       rig: bk.SensorRig, cfg: TrackerConfig,
                       backend_cfg: bk.BackendConfig) -> RefineResult:
    """Direct sparse refinement of a coarse pose against the reference
    frame, over the patches ``payloads`` it hosts toward the current frame
    (``bk.photometric_payloads``, made by the caller), at the noise and
    knee of the window's patches, gated at ``photometric_track_gate``.
    Never increases the photometric cost; patches whose warp leaves the
    current image (or fails the Mahalanobis gate at the coarse pose) are
    dropped, and if none survive the coarse pose is returned."""
    window = bk.LocalWindow(
        rig=rig, huber_delta=backend_cfg.huber_delta,
        states={0: NavState(ref_pose.R, ref_pose.t, np.zeros(3)),
                1: NavState(coarse.R, coarse.t, np.zeros(3))},
        fixed_states={0}, free_dims={1: 6})
    factors = bk.make_photometric_factors(
        window, [((0, 1), payloads)], backend_cfg.sigma_intensity,
        backend_cfg.photometric_track_gate)
    if not factors:
        return RefineResult(coarse)
    window, _ = bk.solve(window, factors,
                         _tracking_solver(cfg.refine_max_iterations))
    s = window.states[1]
    return RefineResult(Pose(s.R, s.p))


def predict_state_degraded(state_i: NavState, imu_preint: ImuPreintegrated,
                           dvl_preint: DvlPreintegrated) -> Pose:
    """Rotation from the gyro preintegration, translation from the DVL
    translation preintegration (both corrected to the state's biases), over
    the lever arm of the DVL mounting it was made with."""
    d_r, _, _ = correct_imu_bias(imu_preint, state_i.bg, state_i.ba)
    r_j = state_i.R @ d_r
    dp_d = correct_dvl_bias(dvl_preint, state_i.bg, state_i.bv)
    p_j = state_i.R @ dp_d + state_i.p - (r_j - state_i.R) @ dvl_preint.ext.p_ID
    return Pose(r_j, p_j)


def keyframe_decision(cur: FrameState, last_kf: FrameState,
                      cfg: TrackerConfig) -> bool:
    """Deterministic keyframe policy: motion or time thresholds exceeded, or
    the tracking status just changed."""
    if cur.status != last_kf.status:
        return True
    if np.linalg.norm(cur.nav.p - last_kf.nav.p) > cfg.tau_p:
        return True
    if rotation_angle(last_kf.nav.R.T @ cur.nav.R) > cfg.tau_r:
        return True
    return (cur.t - last_kf.t) > cfg.tau_t


# ------------------------------ orchestration ------------------------------ #

@dataclass
class EstimationResult:
    frames: list[FrameState]
    solver_reports: list[bk.SolveReport]

    @property
    def status_rows(self) -> list[tuple]:
        """(frame_id, t, status, features, cost) per frame, for the benchmark
        harness, which stays fixed while the estimator changes."""
        return [(f.frame_id, f.t, f.status.value, f.tracked_features, f.cost)
                for f in self.frames]


def initial_state(dataset, t: float) -> NavState:
    """The state every mode starts from at its first frame time ``t``: the
    ground-truth record nearest it."""
    gt = dataset.groundtruth
    g = gt[nearest_pairs(np.array([r.t for r in gt]), [t])[1][0]]
    return NavState(g.R.copy(), g.p.copy(), g.v.copy(),
                    g.bg.copy(), g.ba.copy(), g.bv.copy())


def _span(times: np.ndarray, t0: float, t1: float) -> tuple[int, int]:
    """Index of the last time at or before t0 (0 if none), the first at or
    after t1."""
    return (max(int(np.searchsorted(times, t0, side="right")) - 1, 0),
            int(np.searchsorted(times, t1, side="left")))


def _nearest_at(times: np.ndarray, samples, queries: list,
                max_gap: float = np.inf) -> dict:
    """By query, the sample nearest each of ``queries`` if at most
    ``max_gap`` away."""
    q, k = nearest_pairs(times, queries, max_gap)
    return {queries[i]: samples[j] for i, j in zip(q.tolist(), k.tolist())}


class Tracker:
    """Sequential frame-by-frame estimator over one dataset.

    Each frame extends the running IMU and (in DVL modes) DVL
    preintegrations from the current keyframe, one interval record, so each
    sample is integrated once per keyframe interval; the coarse tracker
    starts from its inertial prediction. The DVL preintegration spans the
    IMU's, from the keyframe to the frame, and is handed the DVL samples
    that hold in it. A keyframe pair keeps the interval its frame solved
    with, so its covariances are inverted once.
    Only the tracker reads which sensors a mode fuses: its window nodes
    and intervals carry only their measurements, so modes without vision
    build no landmark map and their windows hold keyframe states alone. All
    factors, the coarse tracker's too, assume one noise record, the
    scenario's floored by ``floors``, and all patches one intensity noise.
    """

    def __init__(self, dataset, cfg: RunConfig):
        self.ds = dataset
        self.cfg = cfg
        scen = dataset.config
        self.rig = sensor_rig_from_config(scen)

        floors = cfg.floors
        self.noise = bk.SensorNoise(
            sigma_pixel=max(scen.sigma_pixel_px, floors.sigma_pixel),
            sigma_dvl=max(scen.sigma_dvl_m_s, floors.sigma_dvl),
            sigma_pressure=max(scen.sigma_pressure_m, floors.sigma_pressure),
            sigma_g=max(scen.sigma_g_rad_s_sqrt_hz, floors.sigma_g),
            sigma_a=max(scen.sigma_a_m_s2_sqrt_hz, floors.sigma_a),
            sigma_bg_walk=max(scen.sigma_bg_walk_rad_s_sqrt_s, floors.sigma_bg_walk),
            sigma_ba_walk=max(scen.sigma_ba_walk_m_s2_sqrt_s, floors.sigma_ba_walk),
            sigma_bv_walk=max(scen.sigma_bv_walk_m_s_sqrt_s, floors.sigma_bv_walk))

        self.imu_times = np.array([s.t for s in dataset.imu])
        self.dvl_times = np.array([s.t for s in dataset.dvl])
        # by frame time, the gyro reading nearest each frame and the DVL and
        # pressure samples nearest it within one sample period; the frames
        # are read by index here, so that the run iterates them once
        frame_t = [dataset.frames[k].t for k in range(len(dataset.frames))]
        self.gyro_at = _nearest_at(self.imu_times,
                                   [s.gyro for s in dataset.imu], frame_t)
        self.dvl_at = _nearest_at(self.dvl_times, dataset.dvl, frame_t,
                                  1.0 / scen.rate_dvl_hz)
        self.pressure_at = _nearest_at(
            np.array([s.t for s in dataset.pressure]), dataset.pressure,
            frame_t, 1.0 / scen.rate_pressure_hz)

        self.map: dict[int, np.ndarray] = {}
        self.keyframes: list[bk.KeyframeNode] = []
        self.kf_frame = None  # the last keyframe's frame
        self.intervals: dict[tuple[int, int], bk.IntervalData] = {}
        self.reports: list[bk.SolveReport] = []
        # the running interval, restarted when a keyframe is made
        self.interval: bk.IntervalData | None = None
        self.status = TrackingStatus.VISUAL_OK
        self.reentry_count = 0

    # ------------------------------------------------------------------ #
    def _imu_slice(self, t0: float, t1: float) -> list[ImuSample]:
        i0, i1 = _span(self.imu_times, t0, t1)
        return self.ds.imu[i0:max(i1, i0 + 1)]

    def _dvl_slice(self, t0: float, t1: float) -> list[DvlSample]:
        """DVL samples holding in [t0, t1)."""
        i0, i1 = _span(self.dvl_times, t0, t1)
        return self.ds.dvl[i0:i1]

    def _extend_interval(self, kf: bk.KeyframeNode, t: float) -> bk.IntervalData:
        """The running interval extended to ``t``, or started from ``kf``
        once ``_make_keyframe`` cleared it. Its DVL part is None while no
        DVL sample precedes ``t``."""
        s, run = kf.state, self.interval
        imu_run, dvl_run = (run.imu_preint, run.dvl_preint) if run else (None, None)
        # a resumed preintegration starts from the sample of its last hold
        # step, which is integrated again
        t_imu, t_dvl = (kf.t if pre is None else pre.step_t[-1]
                        for pre in (imu_run, dvl_run))
        imu = integrate_imu(self._imu_slice(t_imu, t), s.bg, s.ba,
                            self.noise.sigma_g, self.noise.sigma_a,
                            t_start=None if imu_run else kf.t, t_end=t, resume=imu_run)
        samples = self._dvl_slice(t_dvl, t) if self.cfg.mode.uses_dvl else []
        dvl = preintegrate_dvl(samples, imu, self.rig.dvl, s.bv,
                               sigma_v=self.noise.sigma_dvl,
                               resume=dvl_run) if samples else None
        self.interval = bk.IntervalData(imu, dvl)
        return self.interval

    def _node(self, kf_id: int, t: float, state: NavState,
              observations) -> bk.KeyframeNode:
        """A window node at frame time ``t`` with the measurements of the
        mode's sensors, and the nearest gyro reading."""
        mode, vision = self.cfg.mode, self.cfg.mode.uses_vision
        return bk.KeyframeNode(
            kf_id, t, state, list(observations) if vision else [],
            self.gyro_at.get(t),
            self.dvl_at.get(t) if mode.uses_dvl else None,
            self.pressure_at.get(t) if mode.uses_pressure else None)

    # ------------------------------------------------------------------ #
    def _mini_solve(self, kf: bk.KeyframeNode, t: float, init: NavState,
                    tracked_obs, interval) -> tuple[NavState, float]:
        """Joint per-frame optimization of the current state against the
        (fixed) reference keyframe."""
        temp_id = kf.kf_id + 1
        node = self._node(temp_id, t, init.copy(), tracked_obs)
        window, factors = bk.assemble_window(
            [kf, node], self.map,
            {(kf.kf_id, temp_id): interval},
            self.rig, self.cfg.backend, self.noise, fixed_ids={kf.kf_id},
            fixed_landmarks=set(self.map.keys()))
        window.free_dims[temp_id] = 9  # the pose and velocity
        window, report = bk.solve(
            window, factors,
            _tracking_solver(self.cfg.tracker.coarse_max_iterations))
        return window.states[temp_id], report.final_cost

    def _init_landmarks(self, frame, pose: Pose):
        """Map each landmark the frame observes first, at its stereo depth."""
        new = {}
        for o in frame.observations:
            if (o.landmark_id not in self.map
                    and (o.disparity or 0.0) > bk.MIN_HOST_DISPARITY_PX):
                new.setdefault(o.landmark_id, o)
        if new:
            cam, obs = self.rig.cam, new.values()
            x_c = cam.backproject([o.pixel for o in obs],
                                  cam.stereo_depth([o.disparity for o in obs]))
            self.map.update(zip(new, pose.compose(self.rig.T_IC).transform(x_c)))

    def _make_keyframe(self, frame, nav: NavState, interval):
        """A keyframe at ``frame``. The pair it closes keeps ``interval``,
        with the pair's patches hosted at the last keyframe's lowest
        landmark ids (none without vision: its nodes observe nothing)."""
        kf_id = len(self.keyframes)
        node = self._node(kf_id, frame.t, nav.copy(), frame.observations)
        if self.keyframes:
            last = self.keyframes[-1]
            interval.photometric = bk.photometric_payloads(
                self.kf_frame.field,
                sorted(last.observations, key=lambda o: o.landmark_id),
                frame.field, node.observations, self.rig.cam, self.cfg.backend)
            self.intervals[(last.kf_id, kf_id)] = interval
        if self.cfg.mode.uses_vision:
            self._init_landmarks(frame, nav.pose())
        self.kf_frame = frame
        self.keyframes.append(node)
        self.interval = None

    def _window_ba(self):
        size = self.cfg.backend.window_size
        window_nodes = self.keyframes[-size:]
        window_ids = {n.kf_id for n in window_nodes}
        window_lm_ids = set()
        for n in window_nodes:
            window_lm_ids.update(o.landmark_id for o in n.observations
                                 if o.landmark_id in self.map)
        fixed_nodes = []
        older = self.keyframes[:-size]
        if older:
            fixed_nodes.append(older[-1])  # predecessor anchors the boundary
            for n in older[-6:-1]:
                if any(o.landmark_id in window_lm_ids for o in n.observations):
                    fixed_nodes.append(n)
        nodes = sorted(fixed_nodes + window_nodes, key=lambda n: n.kf_id)
        fixed_ids = {n.kf_id for n in fixed_nodes} or {nodes[0].kf_id}
        window, factors = bk.assemble_window(
            nodes, self.map, self.intervals, self.rig, self.cfg.backend,
            self.noise, fixed_ids=fixed_ids)
        window, report = bk.solve(window, factors, _WINDOW_SOLVER)
        self.reports.append(report)
        for node in nodes:
            if node.kf_id not in fixed_ids:
                node.state = window.states[node.kf_id]
        for lid, pos in window.landmarks.items():
            self.map[lid] = pos

    # ------------------------------------------------------------------ #
    def run(self) -> EstimationResult:
        frames_out: list[FrameState] = []
        kf_frames: list[FrameState] = []
        tracker_cfg, backend_cfg = self.cfg.tracker, self.cfg.backend
        mode = self.cfg.mode

        prev_frame = None
        for frame in self.ds.frames:
            t = frame.t
            tracked_obs = [o for o in frame.observations
                           if o.landmark_id in self.map]
            n_tracked = len(tracked_obs)
            cost = float("nan")

            if not self.keyframes:
                nav = initial_state(self.ds, t)
                rich = mode.uses_vision and \
                    len(frame.observations) >= tracker_cfg.min_tracked_features
                self.status = (TrackingStatus.VISUAL_OK if rich
                               else TrackingStatus.DEGRADED)
            else:
                kf = self.keyframes[-1]
                interval = self._extend_interval(kf, t)
                imu_pre, dvl_pre = interval.imu_preint, interval.dvl_preint

                visual_ok = (mode.uses_vision
                             and n_tracked >= tracker_cfg.min_tracked_features)
                if visual_ok:
                    pred = predict_state_imu(kf.state, imu_pre, self.rig.gravity)
                    pose = track_coarse(pred, tracked_obs, self.map, self.rig,
                                        tracker_cfg, backend_cfg, self.noise)
                    # direct refinement against the previous frame: the short
                    # baseline keeps the luminance-constancy assumption tight
                    payloads = bk.photometric_payloads(
                        prev_frame.field, prev_frame.observations,
                        frame.field, frame.observations, self.rig.cam,
                        backend_cfg)
                    if payloads:
                        pose = refine_photometric(
                            pose, frames_out[-1].T_WI, payloads, self.rig,
                            tracker_cfg, backend_cfg).pose
                    init = NavState(pose.R, pose.t, pred.v,
                                    kf.state.bg, kf.state.ba, kf.state.bv)
                    nav, cost = self._mini_solve(kf, t, init, tracked_obs,
                                                 interval)
                elif dvl_pre is not None:
                    pose = predict_state_degraded(kf.state, imu_pre, dvl_pre)
                    v = self._degraded_velocity(pose, t, kf.state)
                    init = NavState(pose.R, pose.t, v,
                                    kf.state.bg, kf.state.ba, kf.state.bv)
                    nav, cost = self._mini_solve(kf, t, init, [], interval)
                else:
                    nav = predict_state_imu(kf.state, imu_pre, self.rig.gravity)

                # back to VisualOk after reentry_frames visual frames in a row
                self.reentry_count = self.reentry_count + 1 if visual_ok else 0
                if not visual_ok:
                    self.status = TrackingStatus.DEGRADED
                elif (self.status == TrackingStatus.VISUAL_OK
                      or self.reentry_count >= tracker_cfg.reentry_frames):
                    self.status = TrackingStatus.VISUAL_OK
                    self.reentry_count = 0

            fs = FrameState(frame.frame_id, t, nav, self.status, n_tracked,
                            cost)
            if not kf_frames:
                self._make_keyframe(frame, nav, None)
                kf_frames.append(fs)
            elif keyframe_decision(fs, kf_frames[-1], tracker_cfg):
                self._make_keyframe(frame, nav, interval)
                self._window_ba()
                fs.nav = self.keyframes[-1].state.copy()
                kf_frames.append(fs)
            frames_out.append(fs)
            prev_frame = frame

        # later windows move a keyframe after its frame's record was made
        for fs, node in zip(kf_frames, self.keyframes):
            fs.keyframe = node.state
        return EstimationResult(frames_out, self.reports)

    def _degraded_velocity(self, pose: Pose, t: float,
                           ref: NavState) -> np.ndarray:
        """Body velocity inferred from the nearest bias-corrected DVL sample."""
        meas = self.dvl_at.get(t)
        gyro = self.gyro_at.get(t)
        if meas is None or gyro is None:
            return ref.v.copy()
        lever = lever_velocity(gyro[None], self.rig.dvl)[0]
        return pose.R @ (self.rig.dvl.R_ID @ (meas.vel - ref.bv) - lever)


def run_estimator(dataset, cfg: RunConfig) -> EstimationResult:
    """Run the configured estimator over a dataset and return one record
    per frame and the window BA solve reports."""
    if cfg.mode == EstimatorMode.DVL_DEADRECKON:
        return run_dead_reckoning(dataset, cfg)
    return Tracker(dataset, cfg).run()


def run_dead_reckoning(dataset, cfg: RunConfig) -> EstimationResult:
    """Pure dead reckoning from ``initial_state`` at the first frame:
    gyro-chained attitude plus summed DVL velocities at the initial biases,
    the body position taken back from the DVL's over the lever arm as
    ``predict_state_degraded`` does. No optimization: one IMU rotation stage
    and one DVL preintegration span the frames, read at each frame's time."""
    rig = sensor_rig_from_config(dataset.config)
    frames = dataset.frames
    t0 = frames[0].t
    t_last = max(frames[-1].t, t0 + 1e-9)
    s0 = initial_state(dataset, t0)
    imu = integrate_rotation(dataset.imu, s0.bg, t0, t_last)[0]
    dvl = preintegrate_dvl(dataset.dvl, imu, rig.dvl, s0.bv)

    # the frame times by index: the frames are iterated once, below
    times = np.array([frames[k].t for k in range(len(frames))])
    rots = s0.R @ imu.rotations_at(times)
    positions = (s0.p + dvl.translations_at(times) @ s0.R.T
                 - (rots - s0.R) @ rig.dvl.p_ID)
    frames_out = []
    for r, p, frame in zip(rots, positions, frames):
        nav = NavState(r, p, np.zeros(3), s0.bg, s0.ba, s0.bv)
        frames_out.append(FrameState(frame.frame_id, frame.t, nav,
                                     TrackingStatus.DEAD_RECKON, 0))
    return EstimationResult(frames_out, [])
