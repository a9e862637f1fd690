"""Shared test utilities: finite-difference Jacobians, discrete-time world
generators (oracles for the zero-order-hold integrators) and random states."""

from __future__ import annotations

import numpy as np

from aquafuse.dvl import DvlExtrinsics, DvlSample
from aquafuse.imu import ImuBias, ImuSample
from aquafuse.manifold import exp_so3
from aquafuse.state import NavState


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
                       gravity=(0.0, 0.0, 9.81), bias: ImuBias | None = None,
                       omega_scale: float = 0.4, accel_scale: float = 0.5):
    """Random piecewise-constant IMU signals plus the exact discrete-time
    state sequence they generate (independent re-statement of the zero-order
    hold kinematics; used as the oracle for integrate/predict round trips).

    Returns (samples, states, gravity) with states[k] at time k*dt.
    """
    g = np.asarray(gravity, dtype=float)
    bias = bias if bias is not None else ImuBias.zero()
    r = random_rotation(rng, max_angle=0.5)
    p = rng.normal(size=3)
    v = rng.normal(size=3) * 0.5
    states = [NavState(r.copy(), p.copy(), v.copy(), bias.bg.copy(), bias.ba.copy())]
    samples = []
    for k in range(n):
        omega = rng.normal(size=3) * omega_scale
        a_w = rng.normal(size=3) * accel_scale  # hovering body: a_w stays small
        f_body = r.T @ (a_w - g)
        samples.append(ImuSample(k * dt, omega + bias.bg, f_body + bias.ba))
        p = p + v * dt + 0.5 * a_w * dt * dt
        v = v + a_w * dt
        r = r @ exp_so3(omega * dt)
        states.append(NavState(r.copy(), p.copy(), v.copy(),
                               bias.bg.copy(), bias.ba.copy()))
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
