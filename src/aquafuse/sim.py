"""Deterministic underwater scenario simulator.

Generates analytic ground-truth trajectories (C2 in position, yaw following
the planar velocity), samples IMU/DVL/pressure/visual streams at configured
rates with seeded noise and bias injection, and serializes datasets.

Serialization: a dataset is a directory of meta.json, its config, and a
JSONL file per stream. ``STREAMS`` gives each flat stream's record type and
fields, which ``write_stream`` and ``read_stream`` serve, as they do any
flat stream; frames.jsonl nests each frame's observations and field.

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
import functools
import itertools
import json
import math
import operator
import os
import re
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .backend import SensorRig
from .config import config_from_dict, require_positive
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


# the trajectory kinds that ``trajectory_truth`` writes in closed form
TRAJECTORY_KINDS = ("line", "circle", "figure-eight", "lawnmower")


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
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"kind must be one of {TRAJECTORY_KINDS}, "
                             f"not {self.kind!r}")
        # sensor rates and the periods of the paths and the DVL bias, and a
        # camera needs focal lengths, an image, a stereo baseline, bumps of
        # some width and a range of depths to observe
        require_positive(self, (
            "rate_cam_hz", "rate_imu_hz", "rate_dvl_hz", "rate_pressure_hz",
            "period_s", "depth_period_s", "sweep_period_s", "bv_sin_period_s",
            "fx_px", "fy_px", "width_px", "height_px", "baseline_m",
            "field_sigma_px"))
        if not -math.inf < self.min_obs_depth_m < self.max_obs_depth_m < math.inf:
            raise ValueError("min_obs_depth_m must be below max_obs_depth_m, "
                             "both finite")
        for name in ("duration_s", "seed", "landmark_count", "max_obs_per_frame",
                     *(f.name for f in dataclasses.fields(self)
                       if f.name.startswith("sigma_"))):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and not negative")
        for w in self.degradation_windows_s:
            if np.shape(w) != (2,) or not 0.0 <= w[0] < w[1] <= self.duration_s:
                raise ValueError(f"degradation_windows_s: {w!r} is no window "
                                 f"[t_start, t_end] in [0, {self.duration_s}]")
        for name in ("R_IC", "R_ID"):
            r = np.reshape(getattr(self, name), (3, 3))
            if not (abs(r.T @ r - np.eye(3)).max() <= 1e-9 and np.linalg.det(r) > 0):
                raise ValueError(f"{name} is no rotation (orthonormal within "
                                 "1e-9, determinant +1)")
        # the keys above are checked by name; a config built in Python
        # skips the loader's finiteness check, so every key is checked here
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (float, tuple)) \
                    and not np.isfinite(np.array(value, dtype=float)).all():
                raise ValueError(f"{f.name} holds a number that is not finite")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

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
        raise ValueError(f"kind must be one of {TRAJECTORY_KINDS}, not {cfg.kind!r}")
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
                                          cfg.field_sigma_px)
        else:
            # a stacked product, which sums unlike Pose.transform's R @ x
            t_cw = Pose(tr.R[fid], tr.p[fid]).compose(rig.T_IC).inverse()
            obs, fld = _view(cfg, rig.cam, rng, amps,
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

    # the reader refuses a number that is not finite, so none is handed on
    for name, arrays in (
            ("imu", [meas]), ("dvl", [vel]), ("pressure", [depth]),
            ("groundtruth", [truth.R, truth.p, truth.v]),
            ("frames", [amps, [o.disparity for f in frames
                               for o in f.observations]])):
        if not all(np.isfinite(a).all() for a in arrays):
            stalled = all_times[np.isnan(truth.yaw_rate)].tolist()
            cause = (f"the path's planar speed is zero at t={stalled[0]!r}, "
                     "so its yaw rate is 0/0") if stalled \
                else "a number overflowed"
            raise ValueError(f"the simulated {name} stream holds a number "
                             f"that is not finite: {cause}")
    return SensorDataset(cfg, imu, dvl, pressure, frames, records)


def _landmark_amplitudes(cfg: ScenarioConfig) -> np.ndarray:
    """Bump amplitude of each landmark, a fixed hash of its id."""
    u = (np.arange(cfg.landmark_count) * 2654435761 % 4294967296) / 4294967296.0
    return cfg.field_amp_min + u * (cfg.field_amp_max - cfg.field_amp_min)


def _view(cfg: ScenarioConfig, cam: CameraModel, rng, amps: np.ndarray,
          pts_c: np.ndarray):
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
    fld = IntensityField(amps[ids[near]], uv[near], sigmas)

    visible = np.flatnonzero((cfg.min_obs_depth_m <= z)
                             & (z <= cfg.max_obs_depth_m) & cam.in_image(uv))
    # nearest first, ties by landmark id
    visible = visible[np.argsort(z[visible], kind="stable")][:cfg.max_obs_per_frame]
    noise = rng.standard_normal((len(visible), 3))
    pix = uv[visible] + cfg.sigma_pixel_px * noise[:, :2]
    disp = cam.fx * cam.baseline / z[visible] \
        + cfg.sigma_disparity_px * noise[:, 2]
    inside = cam.in_image(pix)
    obs = [LandmarkObservation(i, px, max(d, 0.06)) for i, px, d in zip(
        ids[visible[inside]].tolist(), pix[inside], disp[inside].tolist())]
    return obs, fld


# ------------------------------ serialization ------------------------------ #

STREAMS = {
    "imu": (ImuSample, {"t": "t", "gyro": (3,), "accel": (3,)}),
    "dvl": (DvlSample, {"t": "t", "vel": (3,)}),
    "pressure": (PressureSample, {"t": "t", "depth": ()}),
    "groundtruth": (GroundTruthRecord, {"t": "t", "R": (3, 3), "p": (3,),
                                        "v": (3,), "bg": (3,), "ba": (3,),
                                        "bv": (3,)}),
}


def _vec(x) -> list:
    return np.asarray(x, dtype=float).reshape(-1).tolist()


_dumps = json.JSONEncoder(separators=(",", ":")).encode


def write_stream(path: str, fields: dict, rows) -> None:
    """Write ``rows``, each the values of ``fields`` in order, as the JSONL
    stream at ``path``. ``fields`` maps each key, in write order, to its
    kind: "t" the timestamp (a decimal string, so parsing is exact), int,
    () a float, or an array shape."""
    writers = [(key, {"t": lambda t: repr(float(t)), int: int, (): float}.get(
        kind, _vec)) for key, kind in fields.items()]
    with open(path, "w") as fh:
        for row in rows:
            fh.write(_dumps({key: write(v) for (key, write), v
                             in zip(writers, row)}) + "\n")


def write_dataset(ds: SensorDataset, path: str) -> None:
    """Write one directory per scenario: meta.json, the ``STREAMS`` and
    frames.jsonl."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(ds.config.to_dict(), fh, indent=2)
        fh.write("\n")
    for name, (_, fields) in STREAMS.items():
        write_stream(os.path.join(path, name + ".jsonl"), fields,
                     map(operator.attrgetter(*fields), getattr(ds, name)))
    with open(os.path.join(path, "frames.jsonl"), "w") as fh:
        for fr in ds.frames:
            obs = [{"id": int(o.landmark_id), "uv": o.pixel.tolist(),
                    "disparity": None if o.disparity is None
                    else float(o.disparity)}
                   for o in fr.observations]
            sig = fr.field.sigma_px
            fld = {"amps": _vec(fr.field.amplitudes),
                   "centers": fr.field.centers.tolist(),
                   "sigma_px": _vec(sig) if np.ndim(sig) > 0 else float(sig),
                   "offset": float(fr.field.offset)}
            fh.write(_dumps({"frame_id": int(fr.frame_id),
                             "t": repr(float(fr.t)),
                             "obs": obs, "field": fld}) + "\n")


def _read_jsonl(path: str):
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise ParseError(f"{path}:{lineno}: not a JSON object")
            yield lineno, rec


@functools.cache
def _reader(kind):
    """The function reading a JSON value as a field of ``kind``; an
    array's numbers are checked by ``_check_finite``. A timestamp is a
    string as repr(float) writes it; any other number a JSON number."""
    def integer(value):
        if type(value) is not int:  # not a float, a string or a bool
            raise TypeError(f"{value!r} is no JSON integer")
        return value

    def number(value):
        # float() would take a bool (an int) or a numeric string for a
        # number, and for a timestamp a JSON number or a string in a form
        # repr(float) never writes: "2_0", " 2.0", "+2.0", other digits
        if not (_DECIMAL.fullmatch(value) if kind == "t" and type(value) is str
                else kind != "t" and type(value) in (float, int)):
            raise TypeError(f"{value!r} is of the wrong JSON type or form")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{value} is not finite")
        return value

    def array(value):
        arr = np.array(value, dtype=float)
        # each entry checked as a number is; one nested deeper than two
        # lists is refused
        for x in value if arr.ndim < 2 else itertools.chain.from_iterable(value):
            if type(x) not in (float, int):
                raise TypeError(f"{x!r} is no JSON number")
        # no view where the shape holds: each holds its base in memory
        return arr if arr.shape == kind else arr.reshape(kind)
    return number if kind in ("t", ()) else integer if kind is int else array


_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)
# a timestamp as repr(float) writes it
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?")


def _value(rec: dict, key: str, kind, at):
    """The field ``key`` of the record ``rec`` at ``at``, its (file, line
    number), read as ``kind``; a malformed one is named."""
    try:
        return _reader(kind)(rec[key])
    except _MALFORMED:
        where = f"{at[0]}:{at[1]}:"
        if key not in rec:
            raise ParseError(f"{where} missing field '{key}'") from None
        what = {int: "an integer", (): "a finite number"}.get(
            kind, f"an array of shape {kind} of numbers")
        what = "bad timestamp" if kind == "t" else f"field '{key}' is not {what}:"
        raise ParseError(f"{where} {what} {rec[key]!r}") from None


def _check_finite(path: str, key: str, arrays: list, counts=None) -> None:
    """Check that ``arrays``, the values of the field ``key`` in the stream
    ``path`` in file order (``counts[k]`` of them in record k, or one
    each), hold finite numbers only: one array check for the field over the
    whole stream; only a failure looks for the record and its line."""
    if arrays and not np.isfinite(np.concatenate(arrays)).all():
        i = next(i for i, a in enumerate(arrays) if not np.isfinite(a).all())
        k = i if counts is None else np.searchsorted(np.cumsum(counts), i,
                                                     side="right")
        lineno, _ = next(itertools.islice(_read_jsonl(path), k, None))
        raise ParseError(f"{path}:{lineno}: field '{key}' holds a number that "
                         "is not finite")


def _stream(path: str):
    """(time, record, (file, line number)) of each line of the stream at
    ``path``, which must hold a record, and whose times must increase."""
    prev = -math.inf
    for lineno, rec in _read_jsonl(path):
        at = (path, lineno)
        t = _value(rec, "t", "t", at)
        if t <= prev:
            raise ParseError(f"{path}:{lineno}: out-of-order timestamp {t}")
        prev = t
        yield t, rec, at
    if prev == -math.inf:
        raise ParseError(f"{path}: no record")


def read_stream(path: str, fields: dict) -> list:
    """The columns of the JSONL stream at ``path``: per field of ``fields``
    (see ``write_stream``; "t" among them), its values in file order. A
    record's other keys are not read."""
    columns = {key: [] for key in fields}
    readers = [(key, _reader(kind), columns[key].append)
               for key, kind in fields.items() if kind != "t"]
    for t, rec, at in _stream(path):
        columns["t"].append(t)
        for key, read, append in readers:
            try:
                append(read(rec[key]))
            except _MALFORMED:
                _value(rec, key, fields[key], at)  # raises, naming the field
    for key, kind in fields.items():
        if kind not in ("t", int, ()):
            _check_finite(path, key, columns[key])
    return list(columns.values())


def _frame(t: float, rec: dict, at) -> FrameData:
    fid = _value(rec, "frame_id", int, at)
    obs, fld = rec.get("obs"), rec.get("field")
    if not (isinstance(obs, list) and all(isinstance(o, dict) for o in obs)):
        raise ParseError(f"{at[0]}:{at[1]}: field 'obs' is not a list of "
                         f"objects: {obs!r}")
    if not isinstance(fld, dict):
        raise ParseError(f"{at[0]}:{at[1]}: field 'field' is not an object: "
                         f"{fld!r}")
    obs = [LandmarkObservation(
        _value(o, "id", int, at), _value(o, "uv", (2,), at),
        None if o.get("disparity") is None else _value(o, "disparity", (), at))
        for o in obs]
    sig = _value(fld, "sigma_px", (-1,) if isinstance(fld.get("sigma_px"), list)
                 else (), at)
    args = (_value(fld, "amps", (-1,), at), _value(fld, "centers", (-1, 2), at),
            sig, _value(fld, "offset", (), at) if "offset" in fld else 0.0)
    try:
        intensity = IntensityField(*args)
    except ValueError as exc:
        raise ParseError(f"{at[0]}:{at[1]}: field 'field' is no intensity "
                         f"field ({exc})") from exc
    return FrameData(fid, t, obs, intensity)


def read_config(path: str) -> ScenarioConfig:
    meta_path = os.path.join(path, "meta.json")
    try:
        with open(meta_path) as fh:
            return ScenarioConfig.from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{meta_path}: invalid JSON ({exc})") from exc
    except ValueError as exc:
        raise ParseError(f"{meta_path}: {exc}") from exc


def read_dataset(path: str) -> SensorDataset:
    """The dataset in the directory ``path``. A malformed record, or one
    holding a number that is not finite, is named by file and line."""
    cfg = read_config(path)
    streams = {name: list(map(record, *read_stream(
        os.path.join(path, name + ".jsonl"), fields)))
        for name, (record, fields) in STREAMS.items()}
    fp = os.path.join(path, "frames.jsonl")
    frames = [_frame(t, rec, at) for t, rec, at in _stream(fp)]
    for key, arrays, counts in (
            ("amps", [f.field.amplitudes for f in frames], None),
            ("centers", [f.field.centers for f in frames], None),
            ("sigma_px", [np.ravel(f.field.sigma_px) for f in frames], None),
            ("uv", [o.pixel for f in frames for o in f.observations],
             [len(f.observations) for f in frames])):
        _check_finite(fp, key, arrays, counts)
    return SensorDataset(cfg, frames=frames, **streams)
