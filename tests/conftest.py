import os
import sys

# one BLAS thread, as the benchmark and ``output_digest.py`` use: sums over
# another thread count change the last bits, and small products run no
# faster on more. Set before numpy loads, unless the environment sets it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
