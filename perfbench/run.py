"""Estimator benchmark: one workload per process.

    python3 perfbench/run.py --workload circle-full --seed 1 --seconds 15 --trace 0

Run from the repository root. The run imports ``aquafuse`` from ``src/``,
then sets up three datasets seeded from ``--seed`` (each: a fresh
interpreter importing the package, simulate, write, read back), then runs
``frontend.run_estimator`` over them in whole rounds, one pass per dataset,
until ``--seconds`` have passed, and scores each dataset's trajectory with
the program's evaluation protocol. Times are host-normalised (see
``timing.normalise``). Every output is checked (see ``checks.py``). The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` frames, and the metrics that ``BENCHMARK.json`` lists, end to end
with ``--trace 0`` and per layer with ``--trace 1``. Earlier lines are a
readable summary; failed checks go to standard error.
"""

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS = ("estimator.pass", "imu.integrate", "dvl.preintegrate",
         "visual.field_sample", "visual.field_gradient", "frontend.coarse",
         "frontend.refine", "frontend.joint", "backend.window_ba",
         "backend.assemble", "backend.solve")
# per-layer metrics that must read the same in every round of a run
EXACT_UNITS = ("count", "ratio")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pass_layers(tracer, result, factor_kinds) -> dict:
    """Per-layer numbers of one traced pass, as sums (``sum_layers`` turns
    the refinement count into ``frontend.refine_moved_ratio``)."""
    summary = tracer.summary()
    counts = tracer.counts
    out = {}
    for span in SPANS:
        calls, total, own = summary.get(span, (0, 0, 0))
        out[span + "_calls"] = calls
        out[span + "_s"] = total / 1e9
        out[span + "_self_s"] = own / 1e9
    for key in ("imu.integrate_samples", "dvl.preintegrate_samples",
                "backend.solve_iterations", "backend.factor_evals"):
        out[key] = counts[key]
    for kind in factor_kinds:
        key = "backend.factors." + kind.value
        out[key] = counts[key]
    out["frontend.refine_moved"] = counts["frontend.refine_moved"]
    statuses = [row[2] for row in result.status_rows]
    out["frontend.frames_visual"] = statuses.count("VisualOk")
    out["frontend.frames_degraded"] = statuses.count("Degraded")
    return out


def set_up(scen, workdir, env, errors) -> tuple:
    """One timed set-up of one dataset: a fresh interpreter importing the
    package, then simulate, write and read back the dataset, each step
    followed by a probe burst. Returns the read-back dataset, the
    host-normalised step times in seconds and the dataset's size in MB."""
    import checks
    import numpy as np
    import timing
    from aquafuse import sim

    steps, probes = [], [timing.probe(timing.BURST_LOOPS)]
    step = functools.partial(timing.timed_step, steps, probes)
    try:
        step(subprocess.run, [sys.executable, "-c", "import aquafuse"],
             env=env, check=True, timeout=120)
        simulated = step(sim.simulate, scen)
        step(sim.write_dataset, simulated, workdir)
        dataset = step(sim.read_dataset, workdir)
        size_mb = sum(os.path.getsize(os.path.join(workdir, name))
                      for name in os.listdir(workdir)) / 1e6
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors += ["read-back " + e for e in checks.same_digest(
        checks.dataset_digest(simulated), checks.dataset_digest(dataset))]
    errors += checks.check_dataset(dataset)
    return dataset, np.array(steps) * timing.host_scale(probes) / 1e9, size_mb


def sum_layers(per_dataset: list) -> dict:
    """One round's per-layer numbers: the datasets' passes added up."""
    out = {key: sum(layer[key] for layer in per_dataset)
           for key in per_dataset[0]}
    refines = out["frontend.refine_calls"]
    out["frontend.refine_moved_ratio"] = \
        out.pop("frontend.refine_moved") / refines if refines else 0.0
    return out


def score(scen, dataset, poses, errors) -> tuple:
    """ATE of one pass's poses under the program's evaluation protocol,
    checked against the independent alignment and the drift limit."""
    import checks
    import numpy as np
    from aquafuse import evaluation

    frame_times = [f.t for f in dataset.frames]
    gt = dataset.groundtruth
    truth = evaluation.Trajectory([g.t for g in gt], np.stack([g.R for g in gt]),
                                  np.stack([g.p for g in gt]))
    est = evaluation.Trajectory(frame_times, poses[0], poses[1])
    truth_p, est_p = evaluation.preprocess([truth, est])
    aligned, _ = evaluation.align_to_truth(est_p, truth_p)
    report = evaluation.error_metrics(aligned, truth_p)
    ate_m, ate_deg = report.translation_rmse_m, report.rotation_rmse_deg
    own_m, own_deg = checks.independent_ate(
        est.t, est.R, est.p, truth.t, truth.R, truth.p)
    if not (checks.close_rel(ate_m, own_m)
            and checks.close_rel(ate_deg, own_deg)):
        errors.append(f"seed {scen.seed}: ATE {ate_m!r} m, {ate_deg!r} deg; "
                      f"independent alignment gives {own_m!r} m, "
                      f"{own_deg!r} deg")
    limit = checks.DRIFT_FRACTION * checks.path_length(scen, frame_times)
    if not ate_m <= limit:
        errors.append(f"seed {scen.seed}: ATE {ate_m:.4f} m over the drift "
                      f"limit {limit:.4f} m")
    return ate_m, ate_deg


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "aquafuse", "__init__.py")):
        print(f"perfbench: no aquafuse package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    import numpy as np
    from aquafuse import backend, frontend, sim

    import checks
    import timing
    from tracing import Tracer
    from workloads import WORKLOADS, scenario_seeds

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    scens = [sim.ScenarioConfig(**work.scenario_kwargs(seed))
             for seed in scenario_seeds(args.seed)]
    run_cfg = frontend.RunConfig(mode=frontend.EstimatorMode(work.mode))
    errors: list[str] = []

    # ----------------------------- set-up -------------------------------- #
    workdir = os.path.join(HERE, f".work-{os.getpid()}")
    env = dict(os.environ, PYTHONPATH=src)
    datasets, setups, sizes = [], [], []
    for scen in scens:
        dataset, steps, size_mb = set_up(scen, workdir, env, errors)
        datasets.append(dataset)
        setups.append(steps)
        sizes.append(size_mb)

    # ---------------------------- measured loop -------------------------- #
    # whole rounds, each one pass over every dataset
    n_frames = len(datasets[0].frames)
    statuses = [checks.expected_statuses([f.t for f in ds.frames], work.mode,
                                         work.blackouts,
                                         run_cfg.tracker.reentry_frames)
                for ds in datasets]
    segs, norms, walls, refs, rounds = [], [], [], [], []
    firsts = [None] * len(datasets)
    failed_frames = 0
    passes = 0
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        round_layers = []
        for k, dataset in enumerate(datasets):
            tracer = Tracer() if args.trace else None
            refs.append(timing.host_ref_ms())
            timed = timing.timed_pass(frontend.run_estimator, dataset, run_cfg,
                                      tracer)
            result, seg = timed.result, timed.seg
            refs.append(timing.host_ref_ms())
            passes += 1
            if len(seg) != n_frames + 1 or len(result.frames) != n_frames \
                    or len(result.status_rows) != n_frames:
                errors.append(f"pass {passes}: {len(result.frames)} poses and "
                              f"{len(seg) - 1} latencies for {n_frames} frames")
                continue
            segs.append(seg)
            norms.append(timed.norm)
            walls.append(timed.wall)
            bad = [m for m in checks.frame_failures(result, dataset.frames,
                                                    statuses[k]) if m]
            failed_frames += len(bad)
            errors += bad[:5]
            errors += checks.check_cost_traces(result.solver_reports)
            poses = (np.stack([fs.T_WI.R for fs in result.frames]),
                     np.stack([fs.T_WI.t for fs in result.frames]))
            if tracer is not None:
                round_layers.append(
                    pass_layers(tracer, result, backend.FactorKind))
            if firsts[k] is None:
                firsts[k] = poses
            elif not all(np.array_equal(a, b)
                         for a, b in zip(firsts[k], poses)):
                errors.append(f"pass {passes}: trajectory differs from the "
                              f"first pass on seed {scens[k].seed}")
        rounds.append(sum_layers(round_layers) if round_layers else {})

    # ------------------------------ accuracy ----------------------------- #
    ates = [score(scen, ds, poses, errors)
            for scen, ds, poses in zip(scens, datasets, firsts)
            if poses is not None]

    # ------------------------------ metrics ------------------------------ #
    if not segs:
        for line in errors[:20]:
            print("perfbench: FAILED " + line, file=sys.stderr)
        return 1
    # host-normalised times, pooled over every pass of the run: each pass's
    # wall time by the control's speed over the whole pass, each frame's by
    # its speed around the frame
    frame_ms = np.stack(norms)[:, 1:].ravel() / 1e6
    values = {
        "rtf": scens[0].duration_s * len(walls) / (sum(walls) / 1e9),
        "frame_ms_p50": float(np.median(frame_ms)),
        "frame_ms_p95": float(np.percentile(frame_ms, 95)),
        "setup_s": statistics.median(sum(s) for s in setups),
        "peak_rss_mb": timing.peak_rss_mb(),
        "setup.import_s": statistics.median(s[0] for s in setups),
        "sim.simulate_s": statistics.median(s[1] for s in setups),
        "sim.write_s": statistics.median(s[2] for s in setups),
        "sim.read_s": statistics.median(s[3] for s in setups),
        "sim.dataset_mb": statistics.median(sizes),
        "host.ref_ms": statistics.median(refs),
        "host.blas_threads": timing.blas_threads(),
        "evaluation.ate_m": statistics.mean(a[0] for a in ates),
        "evaluation.ate_deg": statistics.mean(a[1] for a in ates),
    }
    units = {m["name"]: m["unit"] for m in wanted}
    for key in rounds[0]:
        per_round = [r[key] for r in rounds]
        if units.get(key) in EXACT_UNITS:
            if any(v != per_round[0] for v in per_round):
                errors.append(f"{key} differs between rounds: {per_round}")
            values[key] = per_round[0]
        else:
            values[key] = min(per_round)

    missing = [name for name in units if name not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    attempted = passes * n_frames
    # as measured, before host normalisation
    raw_rtf = scens[0].duration_s * len(segs) / (np.stack(segs).sum() / 1e9)
    raw_walls = sorted(seg.sum() / 1e9 for seg in segs)
    pass_walls = "/".join(f"{x:.3f}" for x in (
        raw_walls[0], raw_walls[len(raw_walls) // 2], raw_walls[-1]))
    if errors:
        for line in errors[:20]:
            print("perfbench: FAILED " + line, file=sys.stderr)
    run_failed = any(not e.startswith("frame ") for e in errors)
    failed = attempted if run_failed else failed_frames
    print(f"# {work.name} seed={args.seed} datasets={len(datasets)} "
          f"mode={work.mode} duration={scens[0].duration_s:g}s "
          f"frames={n_frames} rounds={len(rounds)} passes={passes} "
          f"trace={args.trace} blas_threads={values['host.blas_threads']} "
          f"rtf={values['rtf']:.4f} raw_rtf={raw_rtf:.4f} "
          f"pass_s={pass_walls} host.ref_ms={values['host.ref_ms']:.3f} "
          f"ate_m={values['evaluation.ate_m']:.6f} "
          f"ate_deg={values['evaluation.ate_deg']:.5f}")
    out = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    # one BLAS thread: a second buys the estimator no wall time and makes
    # the run fragile under any other load (see README)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
