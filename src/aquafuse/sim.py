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
Random draws happen in a fixed order (landmarks, IMU bias walks, IMU noise,
DVL bias walk, DVL noise, pressure noise, per-frame pixel noise).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .backend import SensorRig
from .depth import (DepthExtrinsics, PressureSample, S3,
                    pressure_position_estimate)
from .dvl import DvlExtrinsics, DvlSample, dvl_velocity_estimate
from .imu import ImuSample
from .manifold import Pose
from .state import NavState
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
        for a, b in self.degradation_windows_s:
            if not (0.0 <= a < b <= self.duration_s):
                raise ValueError(
                    f"degradation window [{a}, {b}] outside [0, {self.duration_s}]")

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
        names = {f.name for f in dataclasses.fields(ScenarioConfig)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown scenario config keys: {sorted(unknown)}")
        kwargs = {}
        for key, value in data.items():
            if isinstance(value, list):
                value = tuple(tuple(v) if isinstance(v, list) else v
                              for v in value)
            kwargs[key] = value
        return ScenarioConfig(**kwargs)


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

def _rz(psi: float) -> np.ndarray:
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TrajectoryTruth:
    """Analytic ground truth: position/velocity/acceleration plus a yaw
    attitude that follows the planar velocity direction."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.gravity = np.array(cfg.gravity_m_s2, dtype=float)
        if cfg.kind not in ("line", "circle", "figure-eight", "lawnmower"):
            raise ValueError(f"unknown trajectory kind '{cfg.kind}'")

    def _pva(self, t: float):
        cfg = self.cfg
        if cfg.kind == "line":
            d = np.array([math.cos(cfg.heading_rad), math.sin(cfg.heading_rad), 0.0])
            p = np.array([0.0, 0.0, cfg.depth_m]) + cfg.speed_m_s * t * d
            return p, cfg.speed_m_s * d, np.zeros(3)
        if cfg.kind == "circle":
            om = 2.0 * math.pi / cfg.period_s
            r = cfg.radius_m
            th = om * t
            p = np.array([r * math.cos(th), r * math.sin(th), cfg.depth_m])
            v = np.array([-r * om * math.sin(th), r * om * math.cos(th), 0.0])
            a = np.array([-r * om * om * math.cos(th),
                          -r * om * om * math.sin(th), 0.0])
            if cfg.amp_z_m != 0.0:
                oz = 2.0 * math.pi / cfg.depth_period_s
                p[2] += cfg.amp_z_m * math.sin(oz * t)
                v[2] = cfg.amp_z_m * oz * math.cos(oz * t)
                a[2] = -cfg.amp_z_m * oz * oz * math.sin(oz * t)
            return p, v, a
        if cfg.kind == "figure-eight":
            om = 2.0 * math.pi / cfg.period_s
            ax, ay, az = cfg.amp_x_m, cfg.amp_y_m, cfg.amp_z_m
            p = np.array([ax * math.sin(om * t), ay * math.sin(2 * om * t),
                          cfg.depth_m + az * math.sin(om * t)])
            v = np.array([ax * om * math.cos(om * t),
                          2 * ay * om * math.cos(2 * om * t),
                          az * om * math.cos(om * t)])
            a = np.array([-ax * om * om * math.sin(om * t),
                          -4 * ay * om * om * math.sin(2 * om * t),
                          -az * om * om * math.sin(om * t)])
            return p, v, a
        # lawnmower: sinusoidal sweep across a steady advance
        ox = 2.0 * math.pi / cfg.sweep_period_s
        p = np.array([cfg.sweep_amp_m * math.sin(ox * t), cfg.speed_m_s * t,
                      cfg.depth_m])
        v = np.array([cfg.sweep_amp_m * ox * math.cos(ox * t), cfg.speed_m_s, 0.0])
        a = np.array([-cfg.sweep_amp_m * ox * ox * math.sin(ox * t), 0.0, 0.0])
        return p, v, a

    def _yaw(self, t: float):
        cfg = self.cfg
        if cfg.kind == "line":
            return cfg.heading_rad, 0.0
        if cfg.kind == "circle":
            om = 2.0 * math.pi / cfg.period_s
            return om * t + math.pi / 2.0, om
        _, v, a = self._pva(t)
        s2 = v[0] * v[0] + v[1] * v[1]
        psi = math.atan2(v[1], v[0])
        psi_dot = (v[0] * a[1] - v[1] * a[0]) / s2
        return psi, psi_dot

    # -------------------------------------------------------------- #
    def position(self, t: float) -> np.ndarray:
        return self._pva(t)[0]

    def velocity(self, t: float) -> np.ndarray:
        return self._pva(t)[1]

    def acceleration(self, t: float) -> np.ndarray:
        return self._pva(t)[2]

    def rotation(self, t: float) -> np.ndarray:
        return _rz(self._yaw(t)[0])

    def angular_velocity_body(self, t: float) -> np.ndarray:
        return np.array([0.0, 0.0, self._yaw(t)[1]])

    def specific_force(self, t: float) -> np.ndarray:
        p, v, a = self._pva(t)
        return self.rotation(t).T @ (a - self.gravity)

    def state(self, t: float) -> NavState:
        """Rotation, position and velocity at ``t``, with zero biases."""
        p, v, _ = self._pva(t)
        return NavState(self.rotation(t), p, v)


def generate_trajectory(cfg: ScenarioConfig) -> TrajectoryTruth:
    return TrajectoryTruth(cfg)


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
    return np.array([k / rate for k in range(n)])


def _landmark_amplitude(cfg: ScenarioConfig, lm_id: int) -> float:
    u = ((lm_id * 2654435761) % 4294967296) / 4294967296.0
    return cfg.field_amp_min + u * (cfg.field_amp_max - cfg.field_amp_min)


def _in_degradation(cfg: ScenarioConfig, t: float) -> bool:
    return any(a <= t <= b for a, b in cfg.degradation_windows_s)


def seabed_depth(cfg: ScenarioConfig, x: float, y: float) -> float:
    """Smooth deterministic seabed profile (z positive down)."""
    return cfg.seabed_depth_m + cfg.seabed_relief_m \
        * math.sin(0.12 * x) * math.sin(0.1 * y + 1.0)


def sample_sensors(truth: TrajectoryTruth, cfg: ScenarioConfig) -> SensorDataset:
    rng = np.random.default_rng(cfg.seed)
    rig = sensor_rig_from_config(cfg)
    cam = rig.cam

    # landmarks scattered on the seabed under the path footprint
    landmarks = np.empty((cfg.landmark_count, 3))
    for i in range(cfg.landmark_count):
        ti = rng.uniform(0.0, cfg.duration_s)
        offset = np.array([
            rng.uniform(cfg.landmark_forward_min_m, cfg.landmark_forward_max_m),
            rng.uniform(-cfg.landmark_lateral_m, cfg.landmark_lateral_m),
            0.0,
        ])
        xy = truth.position(ti) + truth.rotation(ti) @ offset
        z = seabed_depth(cfg, xy[0], xy[1]) \
            + rng.uniform(-cfg.landmark_scatter_m, cfg.landmark_scatter_m)
        landmarks[i] = np.array([xy[0], xy[1], z])

    # IMU stream with random-walk biases
    imu_times = _sample_times(cfg.duration_s, cfg.rate_imu_hz)
    dt_imu = 1.0 / cfg.rate_imu_hz
    n_imu = len(imu_times)
    bg = np.empty((n_imu, 3))
    ba = np.empty((n_imu, 3))
    bg[0] = np.array(cfg.bg0_rad_s)
    ba[0] = np.array(cfg.ba0_m_s2)
    for k in range(1, n_imu):
        bg[k] = bg[k - 1] + cfg.sigma_bg_walk_rad_s_sqrt_s * math.sqrt(dt_imu) \
            * rng.standard_normal(3)
        ba[k] = ba[k - 1] + cfg.sigma_ba_walk_m_s2_sqrt_s * math.sqrt(dt_imu) \
            * rng.standard_normal(3)
    sg = cfg.sigma_g_rad_s_sqrt_hz * math.sqrt(cfg.rate_imu_hz)
    sa = cfg.sigma_a_m_s2_sqrt_hz * math.sqrt(cfg.rate_imu_hz)
    imu = []
    for k, t in enumerate(imu_times):
        w = truth.angular_velocity_body(t) + bg[k] + sg * rng.standard_normal(3)
        f = truth.specific_force(t) + ba[k] + sa * rng.standard_normal(3)
        imu.append(ImuSample(float(t), w, f))

    # DVL stream: injected bias profile (constant + sinusoid + random walk)
    dvl_times = _sample_times(cfg.duration_s, cfg.rate_dvl_hz)
    dt_dvl = 1.0 / cfg.rate_dvl_hz
    n_dvl = len(dvl_times)
    bv_walk = np.zeros((n_dvl, 3))
    for k in range(1, n_dvl):
        bv_walk[k] = bv_walk[k - 1] + cfg.sigma_bv_walk_m_s_sqrt_s \
            * math.sqrt(dt_dvl) * rng.standard_normal(3)
    amp = np.array(cfg.bv_sin_amp_m_s)
    phase = np.array(cfg.bv_sin_phase_rad)
    om_bv = 2.0 * math.pi / cfg.bv_sin_period_s
    bv = np.array(cfg.bv_const_m_s) + bv_walk \
        + amp * np.sin(om_bv * dvl_times[:, None] + phase)
    dvl = []
    for k, t in enumerate(dvl_times):
        v_d = dvl_velocity_estimate(truth.state(t),
                                    truth.angular_velocity_body(t), rig.dvl)
        meas = v_d + bv[k] + cfg.sigma_dvl_m_s * rng.standard_normal(3)
        dvl.append(DvlSample(float(t), meas))

    # pressure stream
    press_times = _sample_times(cfg.duration_s, cfg.rate_pressure_hz)
    pressure = []
    for t in press_times:
        p_wp = pressure_position_estimate(truth.state(t), rig.depth)
        d = float(S3 @ p_wp) + cfg.sigma_pressure_m * float(rng.standard_normal())
        pressure.append(PressureSample(float(t), d))

    # camera frames: observations of visible landmarks plus the analytic
    # intensity field built from the same projections
    frame_times = _sample_times(cfg.duration_s, cfg.rate_cam_hz)
    frames = []
    empty_field = IntensityField(np.zeros(0), np.zeros((0, 2)),
                                 cfg.field_sigma_px, cfg.width_px, cfg.height_px)
    for fid, t in enumerate(frame_times):
        if _in_degradation(cfg, t):
            frames.append(FrameData(fid, float(t), [], empty_field))
            continue
        t_wc = Pose(truth.rotation(t), truth.position(t)).compose(rig.T_IC)
        t_cw = t_wc.inverse()
        pts_c = t_cw.transform(landmarks)
        # the field keeps every landmark near the view (border margin, wide
        # depth band) so bumps enter and leave the image smoothly. Isolated
        # sigma ~ 1/z bumps match the constant-depth patch warp exactly only
        # under pure camera translation; under rotation no fronto-parallel
        # warp maps an isotropic bump onto an isotropic bump, so patches
        # match to first order, and the width clip below breaks the 1/z
        # scaling outside its band. Observations are the capped nearest
        # subset of the strictly visible landmarks
        margin = 5.0 * cfg.field_sigma_px
        visible = []
        centers = []
        amps = []
        sigmas = []
        for i in range(cfg.landmark_count):
            z = pts_c[i, 2]
            if not (0.5 * cfg.min_obs_depth_m <= z <= 1.5 * cfg.max_obs_depth_m):
                continue
            u = cam.fx * pts_c[i, 0] / z + cam.cx
            v = cam.fy * pts_c[i, 1] / z + cam.cy
            if -margin <= u < cam.width + margin \
                    and -margin <= v < cam.height + margin:
                centers.append((u, v))
                amps.append(_landmark_amplitude(cfg, i))
                # bump width tracks apparent size but stays compact so
                # neighbors do not bleed into each other's patches
                sig = cfg.field_sigma_px * cfg.field_ref_depth_m / z
                sigmas.append(float(np.clip(sig, 0.5 * cfg.field_sigma_px,
                                            1.5 * cfg.field_sigma_px)))
            if cfg.min_obs_depth_m <= z <= cfg.max_obs_depth_m \
                    and 0.0 <= u < cam.width and 0.0 <= v < cam.height:
                visible.append((z, i, u, v))
        visible.sort()
        visible = visible[:cfg.max_obs_per_frame]
        obs = []
        for z, i, u, v in visible:
            pix = np.array([u, v]) + cfg.sigma_pixel_px * rng.standard_normal(2)
            disp = cam.fx * cam.baseline / z \
                + cfg.sigma_disparity_px * float(rng.standard_normal())
            if not (0.0 <= pix[0] < cam.width and 0.0 <= pix[1] < cam.height):
                continue
            obs.append(LandmarkObservation(fid, i, pix, max(disp, 0.06)))
        fld = IntensityField(np.array(amps), np.array(centers).reshape(-1, 2),
                             np.array(sigmas), cfg.width_px, cfg.height_px)
        frames.append(FrameData(fid, float(t), obs, fld))

    # ground truth at the union of all sensor timestamps
    all_times = np.unique(np.concatenate([imu_times, dvl_times, press_times,
                                          frame_times]))
    records = []
    for t in all_times:
        ki = min(int(np.searchsorted(imu_times, t, side="right")) - 1, n_imu - 1)
        kd = min(int(np.searchsorted(dvl_times, t, side="right")) - 1, n_dvl - 1)
        records.append(GroundTruthRecord(
            float(t), truth.rotation(t), truth.position(t), truth.velocity(t),
            bg[max(ki, 0)].copy(), ba[max(ki, 0)].copy(), bv[max(kd, 0)].copy()))

    return SensorDataset(cfg, imu, dvl, pressure, frames, records)


def simulate(cfg: ScenarioConfig) -> SensorDataset:
    return sample_sensors(generate_trajectory(cfg), cfg)


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


def _field_of(rec: dict, key: str, path: str, lineno: int):
    if key not in rec:
        raise ParseError(f"{path}:{lineno}: missing field '{key}'")
    return rec[key]


def _parse_t(rec: dict, path: str, lineno: int) -> float:
    raw = _field_of(rec, "t", path, lineno)
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}:{lineno}: bad timestamp {raw!r}") from exc


def _check_monotone(t: float, prev: float, path: str, lineno: int) -> float:
    if t <= prev:
        raise ParseError(f"{path}:{lineno}: out-of-order timestamp {t}")
    return t


def read_dataset(path: str) -> SensorDataset:
    meta_path = os.path.join(path, "meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"{meta_path}: missing")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{meta_path}: invalid JSON ({exc})") from exc
    cfg = ScenarioConfig.from_dict(meta)

    imu = []
    prev = -math.inf
    fp = os.path.join(path, "imu.jsonl")
    for lineno, rec in _read_jsonl(fp):
        t = _check_monotone(_parse_t(rec, fp, lineno), prev, fp, lineno)
        prev = t
        imu.append(ImuSample(t, np.array(_field_of(rec, "gyro", fp, lineno)),
                             np.array(_field_of(rec, "accel", fp, lineno))))

    dvl = []
    prev = -math.inf
    fp = os.path.join(path, "dvl.jsonl")
    for lineno, rec in _read_jsonl(fp):
        t = _check_monotone(_parse_t(rec, fp, lineno), prev, fp, lineno)
        prev = t
        dvl.append(DvlSample(t, np.array(_field_of(rec, "vel", fp, lineno))))

    pressure = []
    prev = -math.inf
    fp = os.path.join(path, "pressure.jsonl")
    for lineno, rec in _read_jsonl(fp):
        t = _check_monotone(_parse_t(rec, fp, lineno), prev, fp, lineno)
        prev = t
        pressure.append(PressureSample(
            t, float(_field_of(rec, "depth", fp, lineno))))

    frames = []
    prev = -math.inf
    fp = os.path.join(path, "frames.jsonl")
    for lineno, rec in _read_jsonl(fp):
        t = _check_monotone(_parse_t(rec, fp, lineno), prev, fp, lineno)
        prev = t
        fid = int(_field_of(rec, "frame_id", fp, lineno))
        obs = []
        for o in _field_of(rec, "obs", fp, lineno):
            obs.append(LandmarkObservation(
                fid, int(_field_of(o, "id", fp, lineno)),
                np.array(_field_of(o, "uv", fp, lineno)),
                None if o.get("disparity") is None else float(o["disparity"])))
        fld = _field_of(rec, "field", fp, lineno)
        sig_raw = _field_of(fld, "sigma_px", fp, lineno)
        sig = np.array(sig_raw, dtype=float) if isinstance(sig_raw, list) \
            else float(sig_raw)
        field_obj = IntensityField(
            np.array(_field_of(fld, "amps", fp, lineno), dtype=float),
            np.array(_field_of(fld, "centers", fp, lineno),
                     dtype=float).reshape(-1, 2),
            sig, cfg.width_px, cfg.height_px, float(fld.get("offset", 0.0)))
        frames.append(FrameData(fid, t, obs, field_obj))

    groundtruth = []
    prev = -math.inf
    fp = os.path.join(path, "groundtruth.jsonl")
    for lineno, rec in _read_jsonl(fp):
        t = _check_monotone(_parse_t(rec, fp, lineno), prev, fp, lineno)
        prev = t
        groundtruth.append(GroundTruthRecord(
            t,
            np.array(_field_of(rec, "R", fp, lineno), dtype=float).reshape(3, 3),
            np.array(_field_of(rec, "p", fp, lineno), dtype=float),
            np.array(_field_of(rec, "v", fp, lineno), dtype=float),
            np.array(_field_of(rec, "bg", fp, lineno), dtype=float),
            np.array(_field_of(rec, "ba", fp, lineno), dtype=float),
            np.array(_field_of(rec, "bv", fp, lineno), dtype=float)))

    return SensorDataset(cfg, imu, dvl, pressure, frames, groundtruth)
