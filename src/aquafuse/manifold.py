"""Rotation-group and rigid-transform primitives.

Rotations are plain 3x3 numpy arrays (direction-cosine matrices). Exp and Log
switch to truncated series below ``SMALL_ANGLE`` to avoid cancellation in the
Rodrigues coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SMALL_ANGLE = 1e-8
I3 = np.eye(3)


class BranchAmbiguityError(ValueError):
    """Rotation angle at or near pi; the principal log branch is ill defined."""


def hat(v) -> np.ndarray:
    """Skew-symmetric matrix such that hat(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(m) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def exp_so3(phi) -> np.ndarray:
    """Rodrigues map from a finite rotation vector (radians) to a rotation
    matrix; a batch of one of :func:`exp_so3_batch`."""
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("rotation vector must be finite")
    return exp_so3_batch(phi[None])[0]


def log_so3(r) -> np.ndarray:
    """Principal rotation vector of a rotation matrix; a batch of one."""
    return log_so3_batch(np.asarray(r, dtype=float)[None])[0]


def right_jacobian_so3(phi) -> np.ndarray:
    """Right Jacobian Jr with exp(phi + d) ~= exp(phi) @ exp(Jr(phi) @ d); a
    batch of one of :func:`right_jacobian_so3_batch`."""
    return right_jacobian_so3_batch(np.asarray(phi, dtype=float)[None])[0]


# ---------------------- stacked (n, 3) / (n, 3, 3) forms --------------------- #

_HAT = np.zeros((3, 9))  # hat(v).ravel() == v @ _HAT
_HAT[2, 1] = _HAT[0, 5] = _HAT[1, 6] = -1.0
_HAT[1, 2] = _HAT[2, 3] = _HAT[0, 7] = 1.0


def hat_batch(v: np.ndarray) -> np.ndarray:
    """:func:`hat` of each row of an (n, 3) array: (n, 3, 3)."""
    return (v @ _HAT).reshape(-1, 3, 3)


def _series(phi: np.ndarray, small_coeffs, coeffs):
    """hat(phi), its square and two (n, 1, 1) coefficients: the closed
    forms ``coeffs(theta)`` above SMALL_ANGLE, the series values below."""
    theta = np.sqrt((phi * phi).sum(1)).reshape(-1, 1, 1)
    k, small = hat_batch(phi), theta < SMALL_ANGLE
    if not np.count_nonzero(small):
        return (k, k @ k) + tuple(coeffs(theta))
    ab = coeffs(np.where(small, 1.0, theta))
    return (k, k @ k) + tuple(np.where(small, s, c) for s, c in zip(small_coeffs, ab))


def exp_so3_batch(phi: np.ndarray) -> np.ndarray:
    """Rodrigues map of each row of an (n, 3) array of rotation vectors,
    below SMALL_ANGLE its second-order series in the skew matrix."""
    k, kk, a, b = _series(phi, (1.0, 0.5), lambda t: (
        np.sin(t) / t, (1.0 - np.cos(t)) / (t * t)))
    return I3 + a * k + b * kk


def right_jacobian_so3_batch(phi: np.ndarray) -> np.ndarray:
    """:func:`right_jacobian_so3` of each row of an (n, 3) array."""
    k, kk, a, b = _series(phi, (0.5, 1.0 / 6.0), lambda t: (
        (1.0 - np.cos(t)) / (t * t), (t - np.sin(t)) / t**3))
    return I3 - a * k + b * kk


def right_jacobian_inv_so3_batch(phi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian of each row of an (n, 3) array."""
    k, kk, _, c = _series(phi, (0.5, 1.0 / 12.0), lambda t: (
        0.5, 1.0 / (t * t) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t))))
    return I3 + 0.5 * k + c * kk


def _vee_angle(r: np.ndarray):
    """vee(r - r^T), which is 2 sin(theta) axis, and the angle theta of
    each rotation of an (n, 3, 3) stack. Unlike arccos of the trace alone,
    atan2 of 2 sin and 2 cos keeps full relative precision at small angles
    (Sola et al. 2018, "A micro Lie theory")."""
    flat = r.reshape(-1, 9)
    m = flat.take([7, 2, 3], 1) - flat.take([5, 6, 1], 1)
    return m, np.arctan2(np.sqrt((m * m).sum(1)), flat.take([0, 4, 8], 1).sum(1) - 1.0)


def log_so3_batch(r: np.ndarray) -> np.ndarray:
    """Principal rotation vectors of an (n, 3, 3) stack of rotations; an
    angle within 1e-6 of pi raises :class:`BranchAmbiguityError`."""
    m, theta = _vee_angle(r)
    if np.count_nonzero(theta >= np.pi - 1e-6):
        raise BranchAmbiguityError(f"rotation angle {theta.max():.9f} too close to pi")
    small = theta < SMALL_ANGLE
    if np.count_nonzero(small):
        scale = np.where(small, 1.0 + theta * theta / 6.0,
                         theta / np.sin(np.where(small, 1.0, theta)))
    else:
        scale = theta / np.sin(theta)
    return m * (scale / 2.0)[:, None]


def rotation_angle(r) -> float:
    """Geodesic angle of a rotation matrix in radians (0..pi, branch safe)."""
    return float(_vee_angle(np.asarray(r, dtype=float))[1][0])


@dataclass(frozen=True)
class Pose:
    """Rigid transform (R, t): maps local coordinates x to R @ x + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.R @ other.R, self.R @ other.t + self.t)

    def inverse(self) -> "Pose":
        rt = self.R.T
        return Pose(rt, -rt @ self.t)

    def transform(self, points) -> np.ndarray:
        """Apply to one point (3,) or each row of (n, 3), as R @ x + t."""
        return (self.R @ np.asarray(points, dtype=float)[..., None])[..., 0] + self.t
