"""Benchmark workloads and the closed-form ground truth they are checked
against.

Each workload is one scenario kind and one estimator mode. A run sets up
``DATASETS`` scenarios whose seeds follow from the benchmark's ``--seed``
(``scenario_seeds``); everything else is fixed here, so the same seed gives
the same datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    duration_s: float
    mode: str
    blackouts: tuple = ()

    def scenario_kwargs(self, seed: int) -> dict:
        return dict(kind=self.kind, duration_s=self.duration_s, seed=seed,
                    degradation_windows_s=self.blackouts)


# datasets per run, each set up once (import, simulate, write, read) and
# passed through the estimator once per round; the run pools their frames, so
# one dataset's keyframe costs do not set the run's figures alone
DATASETS = 3


def scenario_seeds(seed: int) -> list[int]:
    """Scenario seeds of the run with benchmark seed ``seed``: ``DATASETS``
    of them, and no two runs with distinct non-negative seeds share one."""
    return [DATASETS * seed + k for k in range(DATASETS)]

WORKLOADS = {w.name: w for w in (
    # 14 s of a textured circle, dark from 5 s to 7 s: both tracking
    # branches, the switch back through reentry_frames, every sensor fused.
    # Longer blackouts re-enter late on some seeds (see CHANGES.md)
    Workload("circle-full", "circle", 14.0, "full", ((5.0, 7.0),)),
    # 20 s lawnmower leg with a 6 s blackout, no vision layer at all
    Workload("lawnmower-aid", "lawnmower", 20.0,
             "acoustic-inertial-depth-only", ((6.0, 12.0),)),
    # 60 s figure-eight, dead reckoning: no solver runs
    Workload("figure8-deadreckon", "figure-eight", 60.0,
             "dvl-deadreckon-only"),
)}


# --------------------------- closed-form truth ----------------------------- #

def truth_pva(cfg, t: np.ndarray):
    """Position, velocity and yaw of the scenario's analytic path at times
    ``t``, written out from the path definitions (circle at constant depth,
    lawnmower, figure-eight) without calling the simulator."""
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)
    if cfg.kind == "circle":
        om = 2.0 * math.pi / cfg.period_s
        r = cfg.radius_m
        p = np.stack([r * np.cos(om * t), r * np.sin(om * t),
                      np.full_like(t, cfg.depth_m)], axis=1)
        v = np.stack([-r * om * np.sin(om * t), r * om * np.cos(om * t), zero],
                     axis=1)
        yaw = om * t + math.pi / 2.0
        return p, v, yaw
    if cfg.kind == "lawnmower":
        ox = 2.0 * math.pi / cfg.sweep_period_s
        a = cfg.sweep_amp_m
        p = np.stack([a * np.sin(ox * t), cfg.speed_m_s * t,
                      np.full_like(t, cfg.depth_m)], axis=1)
        v = np.stack([a * ox * np.cos(ox * t),
                      np.full_like(t, cfg.speed_m_s), zero], axis=1)
    elif cfg.kind == "figure-eight":
        om = 2.0 * math.pi / cfg.period_s
        ax, ay, az = cfg.amp_x_m, cfg.amp_y_m, cfg.amp_z_m
        p = np.stack([ax * np.sin(om * t), ay * np.sin(2.0 * om * t),
                      cfg.depth_m + az * np.sin(om * t)], axis=1)
        v = np.stack([ax * om * np.cos(om * t),
                      2.0 * ay * om * np.cos(2.0 * om * t),
                      az * om * np.cos(om * t)], axis=1)
    else:
        raise ValueError(f"no closed form for path kind '{cfg.kind}'")
    return p, v, np.arctan2(v[:, 1], v[:, 0])


def yaw_matrices(yaw: np.ndarray) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    out = np.zeros((len(yaw), 3, 3))
    out[:, 0, 0], out[:, 0, 1] = c, -s
    out[:, 1, 0], out[:, 1, 1] = s, c
    out[:, 2, 2] = 1.0
    return out


def stream_length(duration_s: float, rate_hz: float) -> int:
    """Samples a stream sampled from 0 to the end inclusive must hold."""
    return math.floor(duration_s * rate_hz) + 1
