"""The estimator's outputs, pinned bit for bit on one short case per mode.

Each pin is ``output_digest.digest`` of a run: every frame's state, status,
tracked features, cost and keyframe state, and each window BA report. A
change that moves any of them must update the pins and say why.
"""

import os

import pytest

from aquafuse.frontend import EstimatorMode, RunConfig, run_estimator
from aquafuse.sim import ScenarioConfig, simulate
from output_digest import digest

# (scenario, mode, sha256); pinned at one platform's libm and BLAS rounding
# (x86-64, numpy 2.4) and one BLAS thread: another platform may round
# differently
CIRCLE = dict(kind="circle", duration_s=3.0, seed=3,
              degradation_windows_s=((1.0, 1.5),))
PINNED = {
    # the vision pins hold the coarse tracker at the run's floored pixel
    # noise and photometric refinement at the window's intensity noise; the
    # three fused pins hold the preintegrated rotation's gyro-bias Jacobian
    # read from its running sum in the span's start frame
    "circle-full": (CIRCLE, "full",
                    "c9d322ea332f7b03e954fe399fe3124aad1ca9ab9e8d28101962d8372f060d2f"),
    "circle-visual-inertial": (
        CIRCLE, "visual-inertial-only",
        "997c7cba8b92f2bbdb779c48168c91294fd4bea22abc0b4f546f4e17db21f1b0"),
    "lawnmower-acoustic": (
        dict(kind="lawnmower", duration_s=4.0, seed=3,
             degradation_windows_s=((1.0, 2.0),)),
        "acoustic-inertial-depth-only",
        "cc48421cccbcf96a96d06c8c3447729ffa9abbb8281ae30f318a07d160fc9668"),
    "figure8-deadreckon": (
        dict(kind="figure-eight", duration_s=6.0, seed=3),
        "dvl-deadreckon-only",
        "abc9999570363817a338f90476b4a3b107adc67c90ff2b15344b72a31e1e0d8b"),
}
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_match_pinned_digest(name):
    # sums over another BLAS thread count change the last bits
    if any(os.environ.get(var, "1") != "1" for var in BLAS_THREADS):
        pytest.skip("pinned at one BLAS thread; the environment sets another"
                    " count")
    scenario, mode, pinned = PINNED[name]
    result = run_estimator(simulate(ScenarioConfig(**scenario)),
                           RunConfig(mode=EstimatorMode(mode)))
    assert digest(result) == pinned
