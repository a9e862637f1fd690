"""Batch orchestration: simulate scenarios, run estimator configurations,
evaluate trajectories and emit comparison tables.

Exit codes: 0 success, 2 input error (unreadable or malformed files and
configs, bad arguments), 3 refusal (existing output without --force), 4
numerical divergence, 5 estimator failure (the estimator itself gave up: no
gauge anchor, a keyframe pair without preintegration coverage, too few
observations, or degenerate geometry). Sweep cells run in fresh processes
with one BLAS thread, AQUAFUSE_THREADS (a positive integer) at a time.

A run config sets ``RunConfig`` fields by dotted key; which sensors a run
fuses, and their noise, follow from ``mode``, ``floors`` and the scenario.

``estimate`` writes the estimator's per-frame records (``FrameState``) as
``trajectory.jsonl`` (poses, a flat stream of ``sim.write_stream``),
``status.csv`` (statuses, tracked features and per-frame costs) and
``bias.csv`` (each keyframe's final biases). A frame's cost leaves out its
reference keyframe's constant reprojection terms.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import datetime
import json
import multiprocessing
import os
import sys
from unittest import mock

import numpy as np

from . import sim
from .backend import DivergedError, GaugeError, PreintCoverageError
from .config import config_from_dict
from .evaluation import (ErrorReport, Trajectory, align_to_truth,
                         error_metrics, preprocess)
from .frontend import (EstimatorMode, FrameState,
                       InsufficientObservationsError, RunConfig, run_estimator)
from .manifold import BranchAmbiguityError
from .visual import (BehindCameraError, DegenerateTriangulationError,
                     OutOfDomainError)


class RefusalError(RuntimeError):
    """Output already exists and --force was not given."""


# failures raised inside the estimator rather than by reading its inputs;
# all are ValueErrors, so they are told apart before the input errors
ESTIMATOR_FAILURES = (GaugeError, PreintCoverageError,
                      InsufficientObservationsError, BehindCameraError,
                      OutOfDomainError, DegenerateTriangulationError,
                      BranchAmbiguityError)
# the files a sweep writes beside its scenarios' directories
SWEEP_REPORTS = ("sweep_report.csv", "sweep_report.json")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ------------------------------ config loading ----------------------------- #

def run_config_from_dict(data: dict) -> RunConfig:
    return config_from_dict(RunConfig, data, "run config")


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _named(where: str, from_dict, data):
    """``from_dict(data)``, naming ``where`` the data came from in errors."""
    try:
        return from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _load_config(path: str, from_dict):
    """``from_dict`` of the JSON file at ``path``, naming it in errors."""
    return _named(path, from_dict, _load_json(path))


def _check_names(names: list[str], what: str, hint: str = "") -> None:
    """Refuse a name of ``names`` that is not one plain path component or is
    given twice, since each names a file or directory; the message names
    the name as ``what`` and ends with ``hint``."""
    for k, name in enumerate(names):
        if name in ("", ".", "..") or os.path.dirname(name):
            raise ValueError(f"{what} {name!r} is not one plain path "
                             f"component{hint}")
        if name in names[:k]:
            raise ValueError(f"{what} {name!r} is given twice{hint}")


# ------------------------------ trajectory io ------------------------------ #

# the fields of a trajectory.jsonl record (see sim.write_stream); a pose is
# read from the last three, so a trajectory from elsewhere needs no frame ids
POSE_FIELDS = {"t": "t", "R": (3, 3), "p": (3,)}
TRAJECTORY_FIELDS = {"frame_id": int, **POSE_FIELDS}


def write_trajectory(path: str, frames: list[FrameState]) -> None:
    sim.write_stream(path, TRAJECTORY_FIELDS, (
        (fs.frame_id, fs.t, fs.nav.R, fs.nav.p) for fs in frames))


def load_trajectory(path: str) -> Trajectory:
    """The poses of a ``trajectory.jsonl``, read as the dataset streams
    are: a malformed line is named by file and line number."""
    return Trajectory(*sim.read_stream(path, POSE_FIELDS))


def truth_trajectory(ds: sim.SensorDataset) -> Trajectory:
    ts = np.array([g.t for g in ds.groundtruth])
    rs = np.stack([g.R for g in ds.groundtruth])
    ps = np.stack([g.p for g in ds.groundtruth])
    return Trajectory(ts, rs, ps)


# -------------------------------- subcommands ------------------------------ #

def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, sim.ScenarioConfig.from_dict) \
        if args.config else sim.ScenarioConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if os.path.exists(args.out):
        if not args.force:
            raise RefusalError(f"output directory {args.out} exists "
                               "(use --force to overwrite)")
    ds = sim.simulate(cfg)
    sim.write_dataset(ds, args.out)
    print(f"wrote {args.out}: kind={cfg.kind} duration={cfg.duration_s}s "
          f"seed={cfg.seed}")
    print(f"  imu={len(ds.imu)} dvl={len(ds.dvl)} pressure={len(ds.pressure)} "
          f"frames={len(ds.frames)} groundtruth={len(ds.groundtruth)}")
    return 0


def _estimate_to_dir(ds: sim.SensorDataset, out_dir: str,
                     cfg: RunConfig) -> list[FrameState]:
    frames = run_estimator(ds, cfg).frames
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory(os.path.join(out_dir, "trajectory.jsonl"), frames)
    with open(os.path.join(out_dir, "status.csv"), "w") as fh:
        fh.write("frame,t,status,features,cost\n")
        for fs in frames:
            fh.write(f"{fs.frame_id},{fs.t!r},{fs.status.value},"
                     f"{fs.tracked_features},{fs.cost:.9e}\n")
    with open(os.path.join(out_dir, "bias.csv"), "w") as fh:
        fh.write("t,bvx,bvy,bvz,bgx,bgy,bgz,bax,bay,baz\n")
        for fs in frames:
            kf = fs.keyframe
            if kf is not None:
                vals = np.concatenate([kf.bv, kf.bg, kf.ba])
                fh.write(f"{fs.t!r}," + ",".join(f"{v:.9e}" for v in vals)
                         + "\n")
    return frames


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config, run_config_from_dict) if args.config \
        else RunConfig()
    if args.mode is not None:
        cfg.mode = EstimatorMode(args.mode)
    if os.path.exists(args.out) and not args.force:
        raise RefusalError(f"output directory {args.out} exists "
                           "(use --force to overwrite)")
    _estimate_to_dir(sim.read_dataset(args.dataset), args.out, cfg)
    print(f"wrote {args.out} (mode={cfg.mode.value})")
    return 0


def _evaluate_pair(truth: Trajectory, est: Trajectory, name: str) -> ErrorReport:
    truth_p, est_p = preprocess([truth, est])
    aligned, _ = align_to_truth(est_p, truth_p)
    return error_metrics(aligned, truth_p, sequence=name)


def cmd_evaluate(args) -> int:
    if args.names:
        names, hint = args.names.split(","), ""
        if len(names) != len(args.estimates):
            raise ValueError("--names count must match the number of estimates")
    else:
        names = [os.path.basename(p.rstrip("/")) for p in args.estimates]
        hint = " (name each estimate with --names)"
    _check_names(names, "estimate name", hint)
    truth = truth_trajectory(sim.read_dataset(args.truth)) \
        if os.path.isdir(args.truth) else load_trajectory(args.truth)
    reports = []
    for name, path in zip(names, args.estimates):
        if os.path.isdir(path):
            path = os.path.join(path, "trajectory.jsonl")
        reports.append(_evaluate_pair(truth, load_trajectory(path), name))
    os.makedirs(args.out, exist_ok=True)
    _write_reports(args.out, reports, not args.no_header_timestamp)
    for r in reports:
        print(f"{r.sequence}: t_rmse={r.translation_rmse_m:.4f} m "
              f"r_rmse={r.rotation_rmse_deg:.4f} deg over {r.length_m:.1f} m")
    return 0


def _write_reports(out_dir: str, reports: list[ErrorReport],
                   header_timestamp: bool) -> None:
    payload = {"reports": [r.to_dict() for r in reports]}
    if header_timestamp:
        payload["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.csv"), "w") as fh:
        if header_timestamp:
            fh.write(f"# generated_at {payload['generated_at']}\n")
        fh.write(ErrorReport.csv_header() + "\n")
        for r in reports:
            fh.write(r.csv_row() + "\n")
    for r in reports:
        series = os.path.join(out_dir, f"series_{r.sequence}.csv")
        with open(series, "w") as fh:
            fh.write("t,translation_error_m,rotation_error_deg\n")
            for t, te, re_ in zip(r.series_t, r.series_translation_m,
                                  r.series_rotation_deg):
                fh.write(f"{t!r},{te:.9e},{re_:.9e}\n")


def _worker_count() -> int:
    env = os.environ.get("AQUAFUSE_THREADS") or str(os.cpu_count() or 1)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"AQUAFUSE_THREADS={env!r} is not a positive integer")
    return int(env)


def _sweep_cell(cell):
    dataset_dir, run_dir, run_cfg, mode, name = cell
    cfg = dataclasses.replace(run_cfg, mode=EstimatorMode(mode))
    ds = sim.read_dataset(dataset_dir)
    _estimate_to_dir(ds, run_dir, cfg)
    est = load_trajectory(os.path.join(run_dir, "trajectory.jsonl"))
    report = _evaluate_pair(truth_trajectory(ds), est, f"{name}:{mode}")
    return {**report.to_dict(), "scenario": name, "mode": mode}


def cmd_sweep(args) -> int:
    spec = _load_json(args.config)
    scenarios = spec.get("scenarios") if isinstance(spec, dict) else None
    if not (isinstance(scenarios, list) and scenarios):
        raise ValueError(f"{args.config}: expected an object with a nonempty "
                         "'scenarios' list")
    # the whole spec and the environment are read before anything is written
    run_cfg = _named(args.config, run_config_from_dict,
                     spec.get("run_config", {}))
    modes = spec.get("modes", ["full"])
    if not (isinstance(modes, list) and modes):
        raise ValueError(f"{args.config}: 'modes' is not a nonempty list")
    for k, mode in enumerate(modes):
        _named(f"{args.config}: modes[{k}]", EstimatorMode, mode)
        if mode in modes[:k]:
            raise ValueError(f"{args.config}: mode {mode!r} is given twice")
    for entry in scenarios:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise ValueError(f"{args.config}: scenario {entry!r} is not an "
                             "object with a 'name' string")
    names = [entry["name"] for entry in scenarios]
    _check_names(names, f"{args.config}: scenario name")
    if taken := set(names) & set(SWEEP_REPORTS):
        raise ValueError(f"{args.config}: scenario name {taken.pop()!r} is "
                         "the name of a sweep report")
    scenario_cfgs = {name: _named(f"{args.config}: scenario {name}",
                                  sim.ScenarioConfig.from_dict,
                                  entry.get("config", {}))
                     for name, entry in zip(names, scenarios)}
    workers = _worker_count()
    # a dataset left by an earlier sweep is reused only for its own config
    for name, s_cfg in scenario_cfgs.items():
        dataset_dir = os.path.join(args.out, name, "dataset")
        if os.path.exists(dataset_dir) and sim.read_config(dataset_dir) != s_cfg:
            raise RefusalError(f"{dataset_dir} holds another config than "
                               f"scenario {name} (remove it to simulate anew)")
    os.makedirs(args.out, exist_ok=True)

    cells = []
    for name, s_cfg in scenario_cfgs.items():
        dataset_dir = os.path.join(args.out, name, "dataset")
        if not os.path.exists(dataset_dir):
            sim.write_dataset(sim.simulate(s_cfg), dataset_dir)
        for mode in modes:
            run_dir = os.path.join(args.out, name, mode)
            cells.append((dataset_dir, run_dir, run_cfg, mode, name))

    # a worker loads numpy with one BLAS thread, so a cell rounds as in tests
    spawn = multiprocessing.get_context("spawn")
    with mock.patch.dict(os.environ, dict.fromkeys(BLAS_THREADS, "1")), \
            concurrent.futures.ProcessPoolExecutor(
                min(workers, len(cells)), spawn) as pool:
        rows = list(pool.map(_sweep_cell, cells))
    rows.sort(key=lambda r: (r["scenario"], r["mode"]))

    csv_name, json_name = SWEEP_REPORTS
    with open(os.path.join(args.out, csv_name), "w") as fh:
        fh.write("scenario,mode,length_m,t_rmse_m,t_std_m,r_rmse_deg,r_std_deg\n")
        for r in rows:
            fh.write(f"{r['scenario']},{r['mode']},{r['length_m']:.3f},"
                     f"{r['translation_rmse_m']:.6f},{r['translation_std_m']:.6f},"
                     f"{r['rotation_rmse_deg']:.6f},{r['rotation_std_deg']:.6f}\n")
    with open(os.path.join(args.out, json_name), "w") as fh:
        json.dump({"rows": rows}, fh, indent=2)
        fh.write("\n")
    print(f"sweep complete: {len(rows)} cells -> {args.out}/{csv_name}")
    return 0


# ----------------------------------- main ----------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aquafuse",
        description="Underwater visual-inertial-acoustic-depth state "
                    "estimation on synthetic scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a scenario dataset")
    p_sim.add_argument("--config", help="scenario config JSON")
    p_sim.add_argument("--out", required=True, help="output dataset directory")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--force", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="run the estimator on a dataset")
    p_est.add_argument("dataset", help="dataset directory")
    p_est.add_argument("--out", required=True)
    p_est.add_argument("--mode", choices=[m.value for m in EstimatorMode])
    p_est.add_argument("--config", help="run config JSON")
    p_est.add_argument("--force", action="store_true")
    p_est.set_defaults(func=cmd_estimate)

    p_eval = sub.add_parser("evaluate", help="compare estimates to truth")
    p_eval.add_argument("--truth", required=True,
                        help="dataset directory or trajectory file")
    p_eval.add_argument("estimates", nargs="+",
                        help="trajectory files or run directories")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--names", help="comma-separated sequence names")
    p_eval.add_argument("--no-header-timestamp", action="store_true")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="batch over a scenario x mode grid")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except DivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 4
    except ESTIMATOR_FAILURES as exc:
        print(f"estimator failed ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 5
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
