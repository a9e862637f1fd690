"""Deterministic underwater scenario simulator.

Generates analytic ground-truth trajectories (C2 in position, yaw following
the planar velocity), samples IMU/DVL/pressure/visual streams at configured
rates with seeded noise and bias injection, and serializes datasets as one
directory of JSONL streams plus a JSON config echo.

World convention: z points down along gravity (depth is +z), the body x axis
points forward and carries the camera's optical axis. The accelerometer
measures R^T (a - g); the inverse convention is used by the state prediction,
which a round-trip test pins down.

Determinism: a fixed (config, seed) pair yields a byte-identical dataset.
The random numbers are drawn in blocks, in this order, each block in
row-major order, which is the order of drawing its rows one at a time:

1. landmarks, (landmark_count, 4) uniforms: per landmark its time on the
   path, its forward and lateral offsets there and its seabed scatter;
2. IMU bias walks, (n_imu - 1, 2, 3) standard normals: per step the gyro
   bias step, then the accelerometer bias step;
3. IMU noise, (n_imu, 2, 3): per sample the gyro, then the accelerometer
   noise;
4. DVL bias walk, (n_dvl - 1, 3);
5. DVL noise, (n_dvl, 3);
6. pressure noise, (n_pressure,);
7. per frame outside the degradation windows, in frame order, (m, 3) for
   its m nearest visible landmarks, nearest first: the pixel noise in u and
   v, then the disparity noise. An observation whose noisy pixel leaves the
   image is dropped after its draws.

The path is evaluated as array code; its yaw keeps ``math.atan2`` (see
``trajectory_truth``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .backend import SensorRig
from .config import config_from_dict
from .depth import (DepthExtrinsics, PressureSample, S3,
                    pressure_position_estimate)
from .dvl import DvlExtrinsics, DvlSample, dvl_velocity_estimate
from .imu import ImuSample
from .manifold import Pose
from .state import matvec
from .visual import CameraModel, IntensityField, LandmarkObservation


class ParseError(ValueError):
    """Malformed dataset file; message carries file and line number."""


# camera optical axis pitched down from body x toward the seabed; image x
# axis along body y. Columns are the camera axes in the body frame.
_CAM_PITCH = 0.9  # radians below the forward axis
_R_IC_DEFAULT = (0.0, -math.sin(_CAM_PITCH), math.cos(_CAM_PITCH),
                 1.0, 0.0, 0.0,
                 0.0, math.cos(_CAM_PITCH), math.sin(_CAM_PITCH))
_R_ID_DEFAULT = (1.0, 0.0, 0.0,
                 0.0, 1.0, 0.0,
                 0.0, 0.0, 1.0)


@dataclass
class ScenarioConfig:
    kind: str = "circle"
    duration_s: float = 60.0
    seed: int = 0
    rate_cam_hz: float = 15.0
    rate_imu_hz: float = 100.0
    rate_dvl_hz: float = 10.0
    rate_pressure_hz: float = 10.0
    # trajectory geometry
    depth_m: float = 5.0
    speed_m_s: float = 0.5
    heading_rad: float = 0.0
    radius_m: float = 6.5
    period_s: float = 80.0
    amp_x_m: float = 6.0
    amp_y_m: float = 3.0
    amp_z_m: float = 0.0
    depth_period_s: float = 30.0
    sweep_amp_m: float = 4.0
    sweep_period_s: float = 20.0
    # IMU noise model (densities per sqrt(Hz); walk densities per sqrt(s)).
    # No reference magnitudes exist for the target vehicles; these defaults
    # are documented assumptions at tactical-grade MEMS scale.
    sigma_g_rad_s_sqrt_hz: float = 2e-4
    sigma_a_m_s2_sqrt_hz: float = 2e-3
    sigma_bg_walk_rad_s_sqrt_s: float = 1e-5
    sigma_ba_walk_m_s2_sqrt_s: float = 1e-4
    bg0_rad_s: tuple = (0.0, 0.0, 0.0)
    ba0_m_s2: tuple = (0.0, 0.0, 0.0)
    # DVL noise and injected velocity-bias profile
    sigma_dvl_m_s: float = 0.005
    sigma_bv_walk_m_s_sqrt_s: float = 1e-4
    bv_const_m_s: tuple = (0.0, 0.0, 0.0)
    bv_sin_amp_m_s: tuple = (0.0, 0.0, 0.0)
    bv_sin_period_s: float = 60.0
    bv_sin_phase_rad: tuple = (0.0, 2.0943951023931953, 4.18879020478639)
    # pressure
    sigma_pressure_m: float = 0.01
    # stereo camera
    fx_px: float = 300.0
    fy_px: float = 300.0
    cx_px: float = 320.0
    cy_px: float = 180.0
    width_px: int = 640
    height_px: int = 360
    baseline_m: float = 0.12
    sigma_pixel_px: float = 0.4
    sigma_disparity_px: float = 0.3
    max_obs_per_frame: int = 40
    min_obs_depth_m: float = 1.0
    max_obs_depth_m: float = 9.0
    # landmark field: features live on a gently undulating seabed below the
    # vehicle, so image neighbors share similar depths and patch warps stay
    # photometrically consistent
    landmark_count: int = 300
    landmark_forward_min_m: float = 0.5
    landmark_forward_max_m: float = 8.0
    landmark_lateral_m: float = 4.0
    seabed_depth_m: float = 9.0
    seabed_relief_m: float = 0.5
    landmark_scatter_m: float = 0.15
    field_sigma_px: float = 6.0
    field_ref_depth_m: float = 5.0
    field_amp_min: float = 100.0
    field_amp_max: float = 200.0
    # visual degradation windows [t_start, t_end] in seconds
    degradation_windows_s: tuple = ()
    # extrinsics (rotations row-major)
    R_IC: tuple = _R_IC_DEFAULT
    p_IC_m: tuple = (0.15, 0.0, 0.05)
    R_ID: tuple = _R_ID_DEFAULT
    p_ID_m: tuple = (-0.05, 0.0, 0.25)
    p_IP_m: tuple = (-0.1, 0.0, -0.15)
    gravity_m_s2: tuple = (0.0, 0.0, 9.81)

    def __post_init__(self):
        for name in ("rate_cam_hz", "rate_imu_hz", "rate_dvl_hz",
                     "rate_pressure_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for w in self.degradation_windows_s:
            if np.shape(w) != (2,) or not 0.0 <= w[0] < w[1] <= self.duration_s:
                raise ValueError(f"degradation_windows_s: {w!r} is no window "
                                 f"[t_start, t_end] in [0, {self.duration_s}]")

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, (tuple, list)) else v
                         for v in value]
            out[f.name] = value
        return out

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        return config_from_dict(ScenarioConfig, data, "scenario config")


def sensor_rig_from_config(cfg: ScenarioConfig) -> SensorRig:
    cam = CameraModel(cfg.fx_px, cfg.fy_px, cfg.cx_px, cfg.cy_px,
                      cfg.width_px, cfg.height_px, cfg.baseline_m)
    r_ic = np.array(cfg.R_IC, dtype=float).reshape(3, 3)
    r_id = np.array(cfg.R_ID, dtype=float).reshape(3, 3)
    return SensorRig(
        cam=cam,
        T_IC=Pose(r_ic, np.array(cfg.p_IC_m, dtype=float)),
        dvl=DvlExtrinsics(r_id, np.array(cfg.p_ID_m, dtype=float)),
        depth=DepthExtrinsics(np.array(cfg.p_IP_m, dtype=float)),
        gravity=np.array(cfg.gravity_m_s2, dtype=float),
    )


# ------------------------------- trajectories ------------------------------ #

# the analytic ground truth at an array of times: yaw rotations R (n, 3, 3),
# positions p, velocities v, accelerations a (n, 3) and yaw rates (n,)
Truth = namedtuple("Truth", "R p v a yaw_rate")


def trajectory_truth(cfg: ScenarioConfig, t) -> Truth:
    """The path's closed forms at times ``t`` (C2 in position), with a yaw
    attitude that follows the planar velocity direction."""
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)
    yaw = None
    if cfg.kind == "line":
        d = np.array([math.cos(cfg.heading_rad), math.sin(cfg.heading_rad), 0.0])
        p = np.array([0.0, 0.0, cfg.depth_m]) + (cfg.speed_m_s * t)[:, None] * d
        v = np.tile(cfg.speed_m_s * d, (len(t), 1))
        a = np.zeros_like(p)
        yaw, yaw_rate = zero + cfg.heading_rad, zero
    elif cfg.kind == "circle":
        om = 2.0 * math.pi / cfg.period_s
        r = cfg.radius_m
        c, s = np.cos(om * t), np.sin(om * t)
        p = np.stack([r * c, r * s, zero + cfg.depth_m], axis=1)
        v = np.stack([-r * om * s, r * om * c, zero], axis=1)
        a = np.stack([-r * om * om * c, -r * om * om * s, zero], axis=1)
        if cfg.amp_z_m != 0.0:
            oz = 2.0 * math.pi / cfg.depth_period_s
            p[:, 2] += cfg.amp_z_m * np.sin(oz * t)
            v[:, 2] = cfg.amp_z_m * oz * np.cos(oz * t)
            a[:, 2] = -cfg.amp_z_m * oz * oz * np.sin(oz * t)
        yaw, yaw_rate = om * t + math.pi / 2.0, zero + om
    elif cfg.kind == "figure-eight":
        om = 2.0 * math.pi / cfg.period_s
        ax, ay, az = cfg.amp_x_m, cfg.amp_y_m, cfg.amp_z_m
        s1, c1 = np.sin(om * t), np.cos(om * t)
        s2, c2 = np.sin(2 * om * t), np.cos(2 * om * t)
        p = np.stack([ax * s1, ay * s2, cfg.depth_m + az * s1], axis=1)
        v = np.stack([ax * om * c1, 2 * ay * om * c2, az * om * c1], axis=1)
        a = np.stack([-ax * om * om * s1, -4 * ay * om * om * s2,
                      -az * om * om * s1], axis=1)
    elif cfg.kind == "lawnmower":
        # sinusoidal sweep across a steady advance
        ox = 2.0 * math.pi / cfg.sweep_period_s
        amp = cfg.sweep_amp_m
        p = np.stack([amp * np.sin(ox * t), cfg.speed_m_s * t,
                      zero + cfg.depth_m], axis=1)
        v = np.stack([amp * ox * np.cos(ox * t), zero + cfg.speed_m_s, zero],
                     axis=1)
        a = np.stack([-amp * ox * ox * np.sin(ox * t), zero, zero], axis=1)
    else:
        raise ValueError(f"unknown trajectory kind '{cfg.kind}'")
    if yaw is None:
        # math.atan2, not np.arctan2: the two differ in the last bit on some
        # inputs, and the datasets are pinned to the former
        yaw = np.array(list(map(math.atan2, v[:, 1].tolist(), v[:, 0].tolist())))
        yaw_rate = (v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0]) \
            / (v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.zeros((len(t), 3, 3))
    rot[:, 0, 0], rot[:, 0, 1] = c, -s
    rot[:, 1, 0], rot[:, 1, 1] = s, c
    rot[:, 2, 2] = 1.0
    return Truth(rot, p, v, a, yaw_rate)


# --------------------------------- dataset --------------------------------- #

@dataclass
class FrameData:
    frame_id: int
    t: float
    observations: list[LandmarkObservation]
    field: IntensityField


@dataclass
class GroundTruthRecord:
    t: float
    R: np.ndarray
    p: np.ndarray
    v: np.ndarray
    bg: np.ndarray
    ba: np.ndarray
    bv: np.ndarray


@dataclass
class SensorDataset:
    config: ScenarioConfig
    imu: list[ImuSample] = field(default_factory=list)
    dvl: list[DvlSample] = field(default_factory=list)
    pressure: list[PressureSample] = field(default_factory=list)
    frames: list[FrameData] = field(default_factory=list)
    groundtruth: list[GroundTruthRecord] = field(default_factory=list)


def _sample_times(duration: float, rate: float) -> np.ndarray:
    n = int(math.floor(duration * rate + 1e-9)) + 1
    return np.arange(n) / rate


def simulate(cfg: ScenarioConfig) -> SensorDataset:
    """The scenario's sensor streams, camera frames and ground truth."""
    rng = np.random.default_rng(cfg.seed)
    rig = sensor_rig_from_config(cfg)

    # landmarks scattered on a smooth seabed (z positive down) under the path
    # footprint: per landmark a time on the path, a forward and a lateral
    # offset from the vehicle there, and a scatter about the seabed
    draw = rng.uniform(
        (0.0, cfg.landmark_forward_min_m, -cfg.landmark_lateral_m,
         -cfg.landmark_scatter_m),
        (cfg.duration_s, cfg.landmark_forward_max_m, cfg.landmark_lateral_m,
         cfg.landmark_scatter_m), size=(cfg.landmark_count, 4))
    at = trajectory_truth(cfg, draw[:, 0])
    offset = np.stack([draw[:, 1], draw[:, 2], np.zeros(len(draw))], axis=1)
    xy = at.p + matvec(at.R, offset)
    seabed = cfg.seabed_depth_m + cfg.seabed_relief_m \
        * np.sin(0.12 * xy[:, 0]) * np.sin(0.1 * xy[:, 1] + 1.0)
    landmarks = np.stack([xy[:, 0], xy[:, 1], seabed + draw[:, 3]], axis=1)

    # the ground truth at the union of all sensor timestamps; each stream
    # reads its rows of it
    imu_times = _sample_times(cfg.duration_s, cfg.rate_imu_hz)
    dvl_times = _sample_times(cfg.duration_s, cfg.rate_dvl_hz)
    press_times = _sample_times(cfg.duration_s, cfg.rate_pressure_hz)
    frame_times = _sample_times(cfg.duration_s, cfg.rate_cam_hz)
    all_times = np.unique(np.concatenate([imu_times, dvl_times, press_times,
                                          frame_times]))
    truth = trajectory_truth(cfg, all_times)

    def truth_at(times):
        """The truth at ``times`` and the body rates there."""
        rows = Truth(*(x[np.searchsorted(all_times, times)] for x in truth))
        omega = np.zeros((len(times), 3))
        omega[:, 2] = rows.yaw_rate
        return rows, omega

    # IMU stream with random-walk biases (bg, ba)
    tr, omega = truth_at(imu_times)
    walk = math.sqrt(1.0 / cfg.rate_imu_hz) * np.array(
        [[cfg.sigma_bg_walk_rad_s_sqrt_s], [cfg.sigma_ba_walk_m_s2_sqrt_s]]) \
        * rng.standard_normal((len(imu_times) - 1, 2, 3))
    bias = np.cumsum(np.concatenate([[[cfg.bg0_rad_s, cfg.ba0_m_s2]], walk]),
                     axis=0)
    ideal = np.stack([omega, matvec(tr.R.transpose(0, 2, 1),
                                    tr.a - rig.gravity)], axis=1)
    meas = ideal + bias + math.sqrt(cfg.rate_imu_hz) * np.array(
        [[cfg.sigma_g_rad_s_sqrt_hz], [cfg.sigma_a_m_s2_sqrt_hz]]) \
        * rng.standard_normal((len(imu_times), 2, 3))
    imu = [ImuSample(t, w, f) for t, (w, f) in zip(imu_times.tolist(), meas)]

    # DVL stream: injected bias profile (constant + sinusoid + random walk)
    tr, omega = truth_at(dvl_times)
    walk = (cfg.sigma_bv_walk_m_s_sqrt_s * math.sqrt(1.0 / cfg.rate_dvl_hz)) \
        * rng.standard_normal((len(dvl_times) - 1, 3))
    om_bv = 2.0 * math.pi / cfg.bv_sin_period_s
    bv = np.array(cfg.bv_const_m_s) \
        + np.cumsum(np.concatenate([np.zeros((1, 3)), walk]), axis=0) \
        + np.array(cfg.bv_sin_amp_m_s) \
        * np.sin(om_bv * dvl_times[:, None] + np.array(cfg.bv_sin_phase_rad))
    vel = dvl_velocity_estimate(tr.R, tr.v, omega, rig.dvl) + bv \
        + cfg.sigma_dvl_m_s * rng.standard_normal((len(dvl_times), 3))
    dvl = [DvlSample(t, m) for t, m in zip(dvl_times.tolist(), vel)]

    # pressure stream
    tr, _ = truth_at(press_times)
    depth = pressure_position_estimate(tr.R, tr.p, rig.depth) @ S3 \
        + cfg.sigma_pressure_m * rng.standard_normal(len(press_times))
    pressure = [PressureSample(t, d)
                for t, d in zip(press_times.tolist(), depth.tolist())]

    # camera frames
    tr, _ = truth_at(frame_times)
    amps = _landmark_amplitudes(cfg)
    frames = []
    for fid, t in enumerate(frame_times.tolist()):
        if any(a <= t <= b for a, b in cfg.degradation_windows_s):
            obs, fld = [], IntensityField(np.zeros(0), np.zeros((0, 2)),
                                          cfg.field_sigma_px, cfg.width_px,
                                          cfg.height_px)
        else:
            # a stacked product, which sums unlike Pose.transform's R @ x
            t_cw = Pose(tr.R[fid], tr.p[fid]).compose(rig.T_IC).inverse()
            obs, fld = _view(cfg, rig.cam, rng, fid, amps,
                             landmarks @ t_cw.R.T + t_cw.t)
        frames.append(FrameData(fid, t, obs, fld))

    # ground truth records: the biases hold from their last sample
    ki = np.clip(np.searchsorted(imu_times, all_times, side="right") - 1,
                 0, len(imu_times) - 1)
    kd = np.clip(np.searchsorted(dvl_times, all_times, side="right") - 1,
                 0, len(dvl_times) - 1)
    records = [GroundTruthRecord(*row) for row in zip(
        all_times.tolist(), truth.R, truth.p, truth.v, bias[ki, 0], bias[ki, 1],
        bv[kd])]
    return SensorDataset(cfg, imu, dvl, pressure, frames, records)


def _landmark_amplitudes(cfg: ScenarioConfig) -> np.ndarray:
    """Bump amplitude of each landmark, a fixed hash of its id."""
    u = (np.arange(cfg.landmark_count) * 2654435761 % 4294967296) / 4294967296.0
    return cfg.field_amp_min + u * (cfg.field_amp_max - cfg.field_amp_min)


def _view(cfg: ScenarioConfig, cam: CameraModel, rng, fid: int,
          amps: np.ndarray, pts_c: np.ndarray):
    """One frame's observations and intensity field of the landmarks at
    camera-frame points ``pts_c``."""
    # the field keeps every landmark near the view (border margin, wide
    # depth band) so bumps enter and leave the image smoothly. Isolated
    # sigma ~ 1/z bumps match the constant-depth patch warp exactly only
    # under pure camera translation; under rotation no fronto-parallel
    # warp maps an isotropic bump onto an isotropic bump, so patches
    # match to first order, and the width clip below breaks the 1/z
    # scaling outside its band. Observations are the capped nearest
    # subset of the strictly visible landmarks
    z = pts_c[:, 2]
    ids = np.flatnonzero((0.5 * cfg.min_obs_depth_m <= z)
                         & (z <= 1.5 * cfg.max_obs_depth_m))
    z = z[ids]
    uv = cam.project(pts_c[ids])
    near = cam.in_image(uv, margin=5.0 * cfg.field_sigma_px)
    # bump width tracks apparent size but stays compact so neighbors do
    # not bleed into each other's patches
    sigmas = np.clip(cfg.field_sigma_px * cfg.field_ref_depth_m / z[near],
                     0.5 * cfg.field_sigma_px, 1.5 * cfg.field_sigma_px)
    fld = IntensityField(amps[ids[near]], uv[near], sigmas, cfg.width_px,
                         cfg.height_px)

    visible = np.flatnonzero((cfg.min_obs_depth_m <= z)
                             & (z <= cfg.max_obs_depth_m) & cam.in_image(uv))
    # nearest first, ties by landmark id
    visible = visible[np.argsort(z[visible], kind="stable")][:cfg.max_obs_per_frame]
    noise = rng.standard_normal((len(visible), 3))
    pix = uv[visible] + cfg.sigma_pixel_px * noise[:, :2]
    disp = cam.fx * cam.baseline / z[visible] \
        + cfg.sigma_disparity_px * noise[:, 2]
    inside = cam.in_image(pix)
    obs = [LandmarkObservation(fid, i, px, max(d, 0.06)) for i, px, d in zip(
        ids[visible[inside]].tolist(), pix[inside], disp[inside].tolist())]
    return obs, fld


# ------------------------------ serialization ------------------------------ #

def _vec(x) -> list:
    return np.asarray(x, dtype=float).reshape(-1).tolist()


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def write_dataset(ds: SensorDataset, path: str) -> None:
    """Write one directory per scenario: meta.json plus five JSONL streams.

    Timestamps are serialized as decimal strings (shortest round-trip repr)
    so parsing is exact and platform independent.
    """
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(ds.config.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(path, "imu.jsonl"), "w") as fh:
        for s in ds.imu:
            fh.write(_dumps({"t": repr(float(s.t)), "gyro": _vec(s.gyro),
                             "accel": _vec(s.accel)}) + "\n")
    with open(os.path.join(path, "dvl.jsonl"), "w") as fh:
        for s in ds.dvl:
            fh.write(_dumps({"t": repr(float(s.t)), "vel": _vec(s.vel)}) + "\n")
    with open(os.path.join(path, "pressure.jsonl"), "w") as fh:
        for s in ds.pressure:
            fh.write(_dumps({"t": repr(float(s.t)),
                             "depth": float(s.depth)}) + "\n")
    with open(os.path.join(path, "frames.jsonl"), "w") as fh:
        for fr in ds.frames:
            obs = [{"id": int(o.landmark_id), "uv": _vec(o.pixel),
                    "disparity": None if o.disparity is None
                    else float(o.disparity)}
                   for o in fr.observations]
            sig = fr.field.sigma_px
            fld = {"amps": _vec(fr.field.amplitudes),
                   "centers": [_vec(c) for c in fr.field.centers],
                   "sigma_px": _vec(sig) if np.ndim(sig) > 0 else float(sig),
                   "offset": float(fr.field.offset)}
            fh.write(_dumps({"frame_id": int(fr.frame_id),
                             "t": repr(float(fr.t)),
                             "obs": obs, "field": fld}) + "\n")
    with open(os.path.join(path, "groundtruth.jsonl"), "w") as fh:
        for g in ds.groundtruth:
            fh.write(_dumps({"t": repr(float(g.t)), "R": _vec(g.R),
                             "p": _vec(g.p), "v": _vec(g.v), "bg": _vec(g.bg),
                             "ba": _vec(g.ba), "bv": _vec(g.bv)}) + "\n")


def _read_jsonl(path: str):
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from exc


def _field_of(rec: dict, key: str, path: str, lineno: int, shape=None):
    """The value of ``key`` in a record; with a ``shape`` tuple, as such an array."""
    if key not in rec:
        raise ParseError(f"{path}:{lineno}: missing field '{key}'")
    if shape is None:
        return rec[key]
    try:
        arr = np.array(rec[key], dtype=float)
        # no view where the shape holds: each holds its base in memory
        return arr if arr.shape == shape else arr.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}:{lineno}: field '{key}' is not an array of "
                         f"shape {shape} of numbers: {rec[key]!r}") from exc


def _scalar_of(rec: dict, key: str, path: str, lineno: int, kind=float):
    """The value of ``key`` in a record as a ``kind`` scalar."""
    try:
        return kind(rec[key])
    except (KeyError, TypeError, ValueError) as exc:
        raw = _field_of(rec, key, path, lineno)  # names a missing key
        raise ParseError(f"{path}:{lineno}: field '{key}' is not a number: "
                         f"{raw!r}") from exc


def _parse_t(rec: dict, path: str, lineno: int) -> float:
    raw = _field_of(rec, "t", path, lineno)
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}:{lineno}: bad timestamp {raw!r}") from exc


def _stream(path: str, name: str):
    """(time, record, (file, line number)) of each line of a stream, whose
    times must increase."""
    fp = os.path.join(path, name)
    prev = -math.inf
    for lineno, rec in _read_jsonl(fp):
        t = _parse_t(rec, fp, lineno)
        if t <= prev:
            raise ParseError(f"{fp}:{lineno}: out-of-order timestamp {t}")
        prev = t
        yield t, rec, (fp, lineno)


def _frame(cfg: ScenarioConfig, t: float, rec: dict, at) -> FrameData:
    fid = _scalar_of(rec, "frame_id", *at, int)
    obs = [LandmarkObservation(
        fid, _scalar_of(o, "id", *at, int), _field_of(o, "uv", *at, (2,)),
        None if o.get("disparity") is None
        else _scalar_of(o, "disparity", *at))
        for o in _field_of(rec, "obs", *at)]
    fld = _field_of(rec, "field", *at)
    sig = (_field_of(fld, "sigma_px", *at, (-1,))
           if isinstance(fld.get("sigma_px"), list)
           else _scalar_of(fld, "sigma_px", *at))
    return FrameData(fid, t, obs, IntensityField(
        _field_of(fld, "amps", *at, (-1,)),
        _field_of(fld, "centers", *at, (-1, 2)),
        sig, cfg.width_px, cfg.height_px,
        _scalar_of(fld, "offset", *at) if "offset" in fld else 0.0))


def read_dataset(path: str) -> SensorDataset:
    meta_path = os.path.join(path, "meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"{meta_path}: missing")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{meta_path}: invalid JSON ({exc})") from exc
    try:
        cfg = ScenarioConfig.from_dict(meta)
    except ValueError as exc:
        raise ParseError(f"{meta_path}: {exc}") from exc

    imu = [ImuSample(t, _field_of(rec, "gyro", *at, (3,)),
                     _field_of(rec, "accel", *at, (3,)))
           for t, rec, at in _stream(path, "imu.jsonl")]
    dvl = [DvlSample(t, _field_of(rec, "vel", *at, (3,)))
           for t, rec, at in _stream(path, "dvl.jsonl")]
    pressure = [PressureSample(t, _scalar_of(rec, "depth", *at))
                for t, rec, at in _stream(path, "pressure.jsonl")]
    frames = [_frame(cfg, t, rec, at)
              for t, rec, at in _stream(path, "frames.jsonl")]
    groundtruth = []
    for t, rec, at in _stream(path, "groundtruth.jsonl"):
        groundtruth.append(GroundTruthRecord(t, *(
            _field_of(rec, key, *at, (3, 3) if key == "R" else (3,))
            for key in ("R", "p", "v", "bg", "ba", "bv"))))
    return SensorDataset(cfg, imu, dvl, pressure, frames, groundtruth)
