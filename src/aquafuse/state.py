"""Per-keyframe navigation state shared by the sensor models and the solver."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .manifold import Pose, exp_so3_batch


@dataclass
class NavState:
    """Rotation, position and velocity of the body in the world frame plus
    the accelerometer, gyroscope and DVL-velocity biases."""

    R: np.ndarray
    p: np.ndarray
    v: np.ndarray
    bg: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ba: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bv: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.bg = np.asarray(self.bg, dtype=float)
        self.ba = np.asarray(self.ba, dtype=float)
        self.bv = np.asarray(self.bv, dtype=float)

    def copy(self) -> "NavState":
        return NavState(self.R.copy(), self.p.copy(), self.v.copy(),
                        self.bg.copy(), self.ba.copy(), self.bv.copy())

    def pose(self) -> Pose:
        return Pose(self.R, self.p)

    def retract(self, delta: np.ndarray) -> "NavState":
        """Apply an 18-dof local update [phi, dp, dv, dbg, dba, dbv]; a batch
        of one of :func:`retract_rows`."""
        d = np.asarray(delta, dtype=float)[None]
        return unstack_state(retract_rows(stack_states([self]), [0], d), 0)


# slice layout of the 18-dof local parametrization
PHI = slice(0, 3)
POS = slice(3, 6)
VEL = slice(6, 9)
BG = slice(9, 12)
BA = slice(12, 15)
BV = slice(15, 18)
STATE_DOF = 18


# states stacked one row per state: rotations R (K, 3, 3) and the vector
# parts x (K, 18) in their local-dof columns (POS, VEL, BG, BA, BV; the PHI
# columns are zero); the stacked pair residuals read rows i and j of both
StateStack = namedtuple("StateStack", "R x")
_ZERO3 = np.zeros(3)


def stack_states(states) -> StateStack:
    states = list(states)
    x = np.array([(_ZERO3, s.p, s.v, s.bg, s.ba, s.bv) for s in states])
    return StateStack(np.array([s.R for s in states]), x.reshape(-1, STATE_DOF))


def unstack_state(st: StateStack, row: int) -> NavState:
    """A copy of the state at ``row`` of ``st``."""
    x = st.x[row].copy()
    return NavState(st.R[row].copy(), x[POS], x[VEL], x[BG], x[BA], x[BV])


def retract_rows(st: StateStack, rows, delta: np.ndarray) -> StateStack:
    """``st`` with the states at ``rows`` moved by the (n, 18) local updates
    ``delta`` = [phi, dp, dv, dbg, dba, dbv]: the rotation update applied on
    the right, R <- R @ exp(phi), the rest added."""
    r, x = st.R.copy(), st.x.copy()
    r[rows] = st.R[rows] @ exp_so3_batch(delta[:, PHI])
    x[rows, 3:] += delta[:, 3:]
    return StateStack(r, x)


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise a[k] @ x[k] of an (n, r, c) and an (n, c) stack."""
    return (a @ x[..., None])[..., 0]
