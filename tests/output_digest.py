"""Print one SHA-256 per case of the estimator's outputs, to check that a
change keeps the estimator's arithmetic bit for bit; optionally dump the
outputs too, to check that a change which only rounds differently keeps
them within a tolerance.

Run it against two source trees and diff the outputs:

    PYTHONPATH=<old tree>/src python tests/output_digest.py > old.txt
    PYTHONPATH=<new tree>/src python tests/output_digest.py > new.txt
    diff old.txt new.txt

A case's hash covers every frame's state (R, p, v and the three biases),
tracking status, tracked features, cost and keyframe state, and each window
BA report's iterations, termination and cost trace.

With ``--dump FILE`` it also writes each case's frame positions and
statuses, its keyframe count, each window BA's iterations, termination
and final cost, the iterations and termination of every ``backend.solve``
call (coarse tracking, photometric refinement, the per-frame solve and
window BA), and the case's residual and Jacobian passes to FILE
(``.npz``). A residual pass is one ``backend._evaluate`` call, the
residuals of every batch at one point; a Jacobian pass is one
``backend._normal_equations`` call, which builds the batches' Jacobian
rows (in a tree whose batches have no Jacobian pass of their own, every
evaluation is one). ``--compare OLD NEW`` then prints, per case, the
largest position difference, the largest relative difference of a window
BA's final cost, whether the statuses, keyframe counts and window-BA
iterations and terminations agree, and the case's solve iterations and
passes in each dump; then the largest differences over all cases, and the
solve iterations, the passes and each termination's count summed over all
cases. It exits 1 if any of the window-BA fields differ, a position moves
by more than ``TOL_M`` (1e-9 m) or a final cost by more than ``TOL_COST``
(1e-9 relative, absolute below a cost of 1); the solve and pass totals
are reported, not checked, since a change to the stopping rule moves them:

    PYTHONPATH=<old tree>/src python tests/output_digest.py --dump old.npz > old.txt
    PYTHONPATH=<new tree>/src python tests/output_digest.py --dump new.npz > new.txt
    PYTHONPATH=<new tree>/src python tests/output_digest.py --compare old.npz new.npz

Sums over a different number of BLAS threads change the last bits, so the
BLAS pool is pinned to one thread unless the environment sets it. This is a
script, not a test.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import aquafuse.backend as bk  # noqa: E402
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


FIELDS = ("p", "ba_cost", "status", "keyframes", "ba_iterations",
          "ba_termination")
SOLVE_FIELDS = ("solve_iterations", "solve_termination")
# dumps of an earlier version of this script lack them
PASS_FIELDS = ("residual_passes", "jacobian_passes")
TOL_M = 1e-9  # position differences below this are rounding, not a change
TOL_COST = 1e-9  # and so are relative final-cost differences below this
# a cost is a sum of squared whitened residuals: below one unit a final cost
# is compared absolutely, since windows that fit exactly end near 1e-23
COST_FLOOR = 1.0


def outputs(result, solves, passes) -> dict:
    """The compared outputs of one case, as arrays; ``solves`` holds the
    report of each of its ``backend.solve`` calls, ``passes`` the count of
    each of ``PASS_FIELDS``."""
    reports = result.solver_reports
    return {**{key: np.array(passes[key]) for key in PASS_FIELDS},
            "solve_iterations": np.array([r.iterations for r in solves],
                                         dtype=int),
            "solve_termination": np.array([r.termination.value
                                           for r in solves]),
            "p": np.array([f.nav.p for f in result.frames]),
            "status": np.array([f.status.value for f in result.frames]),
            "keyframes": np.array(sum(f.keyframe is not None
                                      for f in result.frames)),
            "ba_cost": np.array([r.final_cost for r in reports], dtype=float),
            "ba_iterations": np.array([r.iterations for r in reports], dtype=int),
            "ba_termination": np.array([r.termination.value for r in reports])}


def _largest(a: np.ndarray, b: np.ndarray, scale=1.0) -> float:
    """The largest |a - b| / scale, inf when the shapes differ."""
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b) / scale, initial=0.0))


def compare(old_path: str, new_path: str) -> int:
    """Print how the dumps at the two paths differ; 1 if beyond ``TOL_M``
    or ``TOL_COST``."""
    old, new = np.load(old_path), np.load(new_path)
    names = sorted({key.split("/")[0] for key in old.files}
                   | {key.split("/")[0] for key in new.files})
    worst, worst_cost, failed = 0.0, 0.0, False
    # per dump, the solve iterations and the count of each termination
    totals = (collections.Counter(), collections.Counter())
    for name in names:
        try:
            a, b = ({key: dump[f"{name}/{key}"]
                     for key in FIELDS + SOLVE_FIELDS} for dump in (old, new))
        except KeyError:
            print(name, "missing from one dump")
            failed = True
            continue
        differ = [key for key in FIELDS[2:]
                  if not np.array_equal(a[key], b[key])]
        dp = _largest(a["p"], b["p"])
        dc = _largest(a["ba_cost"], b["ba_cost"],
                      np.maximum(np.abs(a["ba_cost"]), COST_FLOOR))
        worst, worst_cost = max(worst, dp), max(worst_cost, dc)
        failed |= bool(differ) or not (dp <= TOL_M and dc <= TOL_COST)
        counts = [int(d["solve_iterations"].sum()) for d in (a, b)]
        passes = [{key: int(dump[f"{name}/{key}"]) for key in PASS_FIELDS
                   if f"{name}/{key}" in dump.files} for dump in (old, new)]
        for total, d, n, p in zip(totals, (a, b), counts, passes):
            total["iterations"] += n
            total.update(d["solve_termination"].tolist())
            total.update(p)
        print(f"{name} max_dp_m={dp:.3e} max_dcost_rel={dc:.3e} "
              f"{'differ: ' + ' '.join(differ) if differ else 'same'} "
              f"solve_iterations={counts[0]}->{counts[1]}" + "".join(
                  f" {key}={passes[0].get(key, '-')}->{passes[1].get(key, '-')}"
                  for key in PASS_FIELDS))
    print(f"largest position difference {worst:.3e} m over {len(names)} cases")
    print(f"largest relative window-BA final-cost difference {worst_cost:.3e}"
          f" over {len(names)} cases")
    print("solve totals over all cases: " + ", ".join(
        f"{key} {totals[0][key]} -> {totals[1][key]}"
        for key in sorted(totals[0] | totals[1])))
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="FILE",
                        help="write each case's outputs to FILE (.npz)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two dumps instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    dumped, solves, passes = {}, [], collections.Counter()
    solve, evaluate, normal_equations = (bk.solve, bk._evaluate,
                                         bk._normal_equations)
    two_pass = hasattr(bk._ReprojectionBatch, "jacobians")

    # the frontend looks ``bk.solve`` up at each call, and ``solve`` the
    # other two
    def recorded(*args, **kwargs):
        window, report = solve(*args, **kwargs)
        solves.append(report)
        return window, report

    def evaluated(*args):
        passes["residual_passes"] += 1
        passes["jacobian_passes"] += not two_pass
        return evaluate(*args)

    def built(*args):
        passes["jacobian_passes"] += two_pass
        return normal_equations(*args)

    bk.solve, bk._evaluate, bk._normal_equations = recorded, evaluated, built
    try:
        for name, scen, mode in cases():
            solves.clear()
            passes.clear()
            result = run_estimator(simulate(scen),
                                   RunConfig(mode=EstimatorMode(mode)))
            print(name, digest(result), flush=True)
            if args.dump:
                dumped.update({f"{name}/{key}": value for key, value
                               in outputs(result, solves, passes).items()})
    finally:
        bk.solve, bk._evaluate, bk._normal_equations = (solve, evaluate,
                                                        normal_equations)
    if args.dump:
        np.savez(args.dump, **dumped)
    return 0


if __name__ == "__main__":
    sys.exit(main())
