"""Pressure-sensor depth model and the relative-depth residual, stacked
over keyframe pairs.

World convention: the z axis points down along gravity, so depth is the +z
component of the pressure sensor's world position. Only depth differences
enter the residual; any common tare or atmospheric offset cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import hat
from .state import PHI, POS, STATE_DOF, StateStack, matvec

S3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class PressureSample:
    t: float
    depth: float


@dataclass(frozen=True)
class DepthExtrinsics:
    """Lever arm from the body origin to the pressure sensor."""

    p_IP: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_IP", np.asarray(self.p_IP, dtype=float))


def pressure_position_estimate(r: np.ndarray, p: np.ndarray,
                               ext: DepthExtrinsics) -> np.ndarray:
    """World positions (n, 3) of the pressure sensor at n body rotations
    ``r`` (n, 3, 3) and positions ``p`` (n, 3)."""
    return matvec(r, ext.p_IP) + p


def pressure_pair_residuals(st: StateStack, i, j, d_depth: np.ndarray,
                            ext: DepthExtrinsics, first=True):
    """Relative-depth residuals (n, 1) of n state pairs against the changes
    ``d_depth`` (n, 1) of the depth reading from state i to state j, and
    their (n, 1, 2, 18) Jacobian blocks w.r.t. states i and j. Without
    ``first`` state i's block is not built and stays zero."""
    r_i, r_j = st.R[i], st.R[j]
    # translation difference on its own first, so a common shift cancels
    dz = ((r_j @ ext.p_IP - r_i @ ext.p_IP) + (st.x[j, POS] - st.x[i, POS]))[:, 2:]
    res = dz - d_depth
    jac = np.zeros((len(res), 1, 2, STATE_DOF))
    jac[:, 0, 1, POS] = S3
    jac[:, 0, 1, PHI] = -(r_j @ hat(ext.p_IP))[:, 2]
    if first:
        jac[:, 0, 0, POS] = -S3
        jac[:, 0, 0, PHI] = (r_i @ hat(ext.p_IP))[:, 2]
    return res, jac
