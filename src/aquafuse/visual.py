"""Pinhole camera model, stereo depth, the analytic intensity field and the
photometric patch (``PATCH_OFFSETS`` and ``patch_weights``). The
reprojection and photometric residuals are evaluated by the solver, each
kind as one batch over a whole window (``backend._ReprojectionBatch`` and
``backend._PhotometricBatch``).

The camera owns the pinhole geometry, as array code over any leading shape.
Its callers (``backend``'s batches and ``assemble_window``, ``sim._view``, the
tracker's landmark map and refinement) each keep their own depth threshold.

Intensity fields are smooth sums of Gaussian bumps (plus a constant offset),
so photometric values and gradients have closed forms and can be checked
against finite differences exactly where needed. Real images and descriptor
matching are out of scope; data association is supplied by the scenario
simulator as landmark ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class BehindCameraError(ValueError):
    """Point at non-positive depth cannot be projected."""


class DegenerateTriangulationError(ValueError):
    """Non-positive disparity carries no depth information."""


class OutOfDomainError(ValueError):
    """A warped patch point left the image domain."""


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    baseline: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.baseline <= 0:
            raise ValueError("stereo baseline must be positive")

    def project(self, x_c) -> np.ndarray:
        """Pixels (..., 2) of camera-frame points (..., 3) at positive depth."""
        x, y, z = x_c[..., 0], x_c[..., 1], x_c[..., 2]
        return np.stack([self.fx * x / z + self.cx, self.fy * y / z + self.cy], -1)

    def backproject(self, uv, depth) -> np.ndarray:
        """Camera-frame points (..., 3) at pixels (..., 2) and positive depths."""
        if np.count_nonzero(np.asarray(depth) <= 0):
            raise ValueError(f"depth must be positive, got {np.min(depth)}")
        uv = np.asarray(uv, dtype=float)
        x = (uv[..., 0] - self.cx) / self.fx * depth
        return np.stack([x, (uv[..., 1] - self.cy) / self.fy * depth,
                         np.broadcast_to(depth, x.shape)], -1)

    def stereo_depth(self, disparity):
        """Depths of disparities; a non-positive one raises."""
        disparity = np.asarray(disparity, dtype=float)
        if np.count_nonzero(disparity <= 0):
            raise DegenerateTriangulationError(
                f"disparity must be positive, got {disparity.min()}")
        return self.fx * self.baseline / disparity

    def in_image(self, uv, margin: float = 0.0) -> np.ndarray:
        """Whether pixels (..., 2) lie in the image grown by ``margin``."""
        u, v = uv[..., 0], uv[..., 1]
        return ((-margin <= u) & (u < self.width + margin)
                & (-margin <= v) & (v < self.height + margin))


@dataclass(frozen=True)
class LandmarkObservation:
    landmark_id: int
    pixel: np.ndarray
    disparity: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pixel", np.asarray(self.pixel, dtype=float))


@dataclass(frozen=True)
class IntensityField:
    """Smooth scalar image: constant offset plus isotropic Gaussian bumps.

    ``sigma_px`` may be a scalar or one width per bump (the simulator scales
    widths inversely with landmark depth so bumps act like fixed-size blobs
    in the scene). A point is sampled against only the bumps within 9 of
    their own sigma of it. A bump farther away adds less than exp(-40.5) ~
    3e-18 of its amplitude, far below the rounding of values of the
    amplitudes' order, so samples and gradients agree with the sum over
    every bump to rounding. A point's value depends on that point alone, not
    on the other points of its query. Such a field is exactly consistent
    with the constant-depth patch warp only under pure camera translation
    and for bumps isolated beyond that reach; under rotation it holds to
    first order. A field has no size: ``CameraModel.in_image`` bounds the
    image.
    """

    amplitudes: np.ndarray
    centers: np.ndarray
    sigma_px: float | np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float).reshape(-1)
        ctrs = np.asarray(self.centers, dtype=float).reshape(-1, 2)
        if len(amps) != len(ctrs):
            raise ValueError("one amplitude per bump center required")
        sig = self.sigma_px
        if np.ndim(sig) > 0:
            sig = np.asarray(sig, dtype=float).reshape(-1)
            if len(sig) != len(amps):
                raise ValueError("one width per bump required")
            if np.any(sig <= 0):
                raise ValueError("bump widths must be positive")
            object.__setattr__(self, "sigma_px", sig)
        elif sig <= 0:
            raise ValueError("bump width must be positive")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "centers", ctrs)

    def _sum(self, uv, gradient: bool):
        """Values (...) at the pixels ``uv`` (..., 2) and, with ``gradient``,
        their gradients (..., 2), each summed over the (pixel, bump) pairs
        within 9 sigma of the bump, in bump order. The bumps whose reach
        misses the query's bounding box are dropped first."""
        uv = np.asarray(uv, dtype=float)
        pts = uv.reshape(-1, 2)
        n = len(pts)
        sig = np.broadcast_to(self.sigma_px, self.amplitudes.shape)
        gap = np.maximum(pts.min(axis=0, initial=np.inf) - self.centers,
                         self.centers - pts.max(axis=0, initial=-np.inf))
        near = np.flatnonzero(np.maximum(gap[:, 0], gap[:, 1]) <= 9.0 * sig)
        cu, cv = self.centers[near].T
        du = pts[:, :1] - cu                                     # (n, k)
        dv = pts[:, 1:] - cv
        s2 = sig[near] ** 2
        q = (du * du + dv * dv) / s2
        p, b = np.nonzero(q <= 81.0)
        e = self.amplitudes[near][b] * np.exp(-0.5 * q[p, b])
        vals = (self.offset + np.bincount(p, e, n)).reshape(uv.shape[:-1])
        if not gradient:
            return vals, None
        w = -e / s2[b]
        return vals, np.column_stack([np.bincount(p, w * du[p, b], n),
                                      np.bincount(p, w * dv[p, b], n)]
                                     ).reshape(uv.shape)

    def sample(self, uv) -> np.ndarray:
        """Values (...) at pixels (..., 2)."""
        return self._sum(uv, gradient=False)[0]

    def gradient(self, uv) -> tuple[np.ndarray, np.ndarray]:
        """Values (...) and analytic image gradients (dI/du, dI/dv) (..., 2)
        at pixels (..., 2), from one pass over the bumps."""
        return self._sum(uv, gradient=True)


# the pixel offsets of a photometric patch, its center first
PATCH_OFFSETS = np.array([[0, 0], [-2, 0], [2, 0], [0, -2], [0, 2], [-1, -1],
                          [1, -1], [-1, 1]], dtype=float)


def patch_weights(gradients) -> np.ndarray:
    """Weights (...) of patch points with image gradients (..., 2),
    c^2 / (c^2 + |grad I|^2) with c = 50: one at zero gradient, and
    non-increasing in the gradient's magnitude."""
    return 2500.0 / (2500.0 + np.sum(np.square(gradients), axis=-1))
