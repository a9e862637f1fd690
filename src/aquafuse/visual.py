"""Pinhole camera model, stereo depth, the analytic intensity field and the
photometric patch pattern. The reprojection and photometric residuals are
evaluated by the solver, each kind as one batch over a whole window
(``backend._ReprojectionBatch`` and ``backend._PhotometricBatch``).

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

from dataclasses import dataclass, field

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
    frame_id: int
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
    in the scene). Such a field is exactly consistent with the constant-depth
    patch warp only under pure camera translation and for bumps isolated
    beyond the ``_near`` cutoff; under rotation it holds to first order.
    """

    amplitudes: np.ndarray
    centers: np.ndarray
    sigma_px: float | np.ndarray
    width: int
    height: int
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

    def _near(self, pts: np.ndarray):
        """Bumps within reach of the query cluster. Beyond 9 sigma a bump's
        contribution is below double precision for values of order the
        amplitudes, so the cutoff does not perturb samples or gradients."""
        cut = 9.0 * np.max(self.sigma_px)
        lo = pts.min(axis=0) - cut
        hi = pts.max(axis=0) + cut
        mask = np.all((self.centers >= lo) & (self.centers <= hi), axis=1)
        return mask if mask.sum() < len(mask) else None

    def _bumps(self, pts: np.ndarray):
        """The offsets (n, m, 2) of the query points from the m bumps within
        reach, the bumps' Gaussians at them (n, m), and the bumps'
        amplitudes and squared widths."""
        mask = self._near(pts)
        ctr = self.centers if mask is None else self.centers[mask]
        amp = self.amplitudes if mask is None else self.amplitudes[mask]
        s2 = np.asarray(self.sigma_px, dtype=float) ** 2
        if mask is not None and np.ndim(s2) > 0:
            s2 = s2[mask]
        d = pts[:, None, :] - ctr[None, :, :]
        return d, np.exp(-0.5 * np.sum(d * d, axis=2) / s2), amp, s2

    def sample(self, uv) -> float | np.ndarray:
        pts = np.atleast_2d(np.asarray(uv, dtype=float))
        if len(self.amplitudes) == 0:
            vals = np.full(len(pts), self.offset)
        else:
            _, e, amp, _ = self._bumps(pts)
            vals = self.offset + e @ amp
        return float(vals[0]) if np.asarray(uv).ndim == 1 else vals

    def gradient(self, uv) -> np.ndarray:
        """Analytic image gradient (dI/du, dI/dv)."""
        pts = np.atleast_2d(np.asarray(uv, dtype=float))
        if len(self.amplitudes) == 0:
            g = np.zeros((len(pts), 2))
        else:
            d, e, amp, s2 = self._bumps(pts)
            w = e * amp[None, :] / s2
            g = -np.sum(w[:, :, None] * d, axis=1)
        return g[0] if np.asarray(uv).ndim == 1 else g


@dataclass(frozen=True)
class PatchPattern:
    """Pixel offsets of the residual patch plus the gradient down-weighting
    scale. Weights are w = c^2 / (c^2 + |grad I|^2): one at zero gradient and
    non-increasing in gradient magnitude."""

    offsets: np.ndarray = field(
        default_factory=lambda: np.array(
            [[0, 0], [-2, 0], [2, 0], [0, -2], [0, 2], [-1, -1], [1, -1], [-1, 1]],
            dtype=float))
    weight_scale: float = 50.0

    def __post_init__(self):
        offs = np.asarray(self.offsets, dtype=float).reshape(-1, 2)
        if not np.any(np.all(offs == 0.0, axis=1)):
            raise ValueError("pattern must contain the origin offset")
        object.__setattr__(self, "offsets", offs)

    def weights(self, field_ref: IntensityField, pixels) -> np.ndarray:
        g = np.atleast_2d(field_ref.gradient(pixels))
        g2 = np.sum(g * g, axis=1)
        c2 = self.weight_scale**2
        return c2 / (c2 + g2)

