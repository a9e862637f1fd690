"""Print one SHA-256 per case of the estimator's outputs, to check that a
change keeps the estimator's arithmetic bit for bit.

Run it against two source trees and diff the outputs:

    PYTHONPATH=<old tree>/src python tests/output_digest.py > old.txt
    PYTHONPATH=<new tree>/src python tests/output_digest.py > new.txt
    diff old.txt new.txt

A case's hash covers every frame's state (R, p, v and the three biases),
tracking status, tracked features, cost and keyframe state, and each window
BA report's iterations, termination and cost trace. Sums over a different
number of BLAS threads change the last bits, so the BLAS pool is pinned to
one thread unless the environment sets it. This is a script, not a test.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from aquafuse.frontend import EstimatorMode, RunConfig, run_estimator  # noqa: E402
from aquafuse.sim import ScenarioConfig, simulate  # noqa: E402

MODES = ("full", "visual-inertial-only", "acoustic-inertial-depth-only")


def cases():
    """(name, scenario, mode) of every case."""
    out = []
    for kind, duration, blackout in (("circle", 14.0, (5.0, 7.0)),
                                     ("lawnmower", 20.0, (6.0, 12.0))):
        for seed in (3, 4, 5):
            scen = ScenarioConfig(kind=kind, duration_s=duration, seed=seed,
                                  degradation_windows_s=(blackout,))
            out += [(f"{kind}-s{seed}-{mode}", scen, mode) for mode in MODES]
    biased = ScenarioConfig(kind="circle", duration_s=10.0, seed=3,
                            degradation_windows_s=((4.0, 6.0),),
                            bg0_rad_s=(2e-3, -1e-3, 5e-4),
                            ba0_m_s2=(0.02, -0.03, 0.01),
                            bv_const_m_s=(0.01, -0.02, 0.005),
                            bv_sin_amp_m_s=(0.005, 0.004, 0.003))
    out.append(("circle-biased-s3-full", biased, "full"))
    out.append(("figure8-s3-dvl-deadreckon-only",
                ScenarioConfig(kind="figure-eight", duration_s=60.0, seed=3),
                "dvl-deadreckon-only"))
    return out


def _add(h, *arrays):
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())


def _add_state(h, nav):
    _add(h, nav.R, nav.p, nav.v, nav.bg, nav.ba, nav.bv)


def digest(result) -> str:
    h = hashlib.sha256()
    for f in result.frames:
        h.update(f"{f.frame_id} {f.status.value} {f.tracked_features}".encode())
        _add(h, [f.t, f.cost])
        _add_state(h, f.nav)
        if f.keyframe is None:
            h.update(b"-")
        else:
            _add_state(h, f.keyframe)
    for r in result.solver_reports:
        h.update(f"{r.iterations} {r.termination.value}".encode())
        _add(h, r.cost_trace)
    return h.hexdigest()


def main() -> int:
    for name, scen, mode in cases():
        result = run_estimator(simulate(scen), RunConfig(mode=EstimatorMode(mode)))
        print(name, digest(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
