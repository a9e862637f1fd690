"""The benchmark's own tests: frame stamping, the independent alignment and
span self times. Run with ``python3 -m pytest perfbench/tests``."""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from aquafuse import frontend, sim  # noqa: E402
from aquafuse.manifold import exp_so3  # noqa: E402

import checks  # noqa: E402
import timing  # noqa: E402
from tracing import Tracer  # noqa: E402


def _dataset(kind, duration, blackouts=()):
    return sim.simulate(sim.ScenarioConfig(
        kind=kind, duration_s=duration, seed=4,
        degradation_windows_s=blackouts))


@pytest.fixture(scope="module")
def circle():
    return _dataset("circle", 1.5, ((0.6, 0.8),))


@pytest.mark.parametrize("mode", ["dvl-deadreckon-only",
                                  "acoustic-inertial-depth-only"])
def test_one_latency_per_frame(circle, mode):
    cfg = frontend.RunConfig(mode=frontend.EstimatorMode(mode))
    start = timing.clock()
    timed = timing.timed_pass(frontend.run_estimator, circle, cfg)
    wall = timing.clock() - start
    seg = timed.seg
    assert len(seg) - 1 == len(circle.frames) == len(timed.result.frames)
    assert len(timed.norm) == len(seg)
    assert np.all(seg >= 0) and np.all(timed.norm >= 0) and timed.wall > 0
    assert seg.sum() <= wall


def test_segments_leave_out_the_probes():
    stamps = [(10, 13), (20, 24), (30, 31)]
    seg, probe_ns = timing.segments(0, stamps, 40)
    assert seg.tolist() == [10, 7, 6, 9]
    assert probe_ns.tolist() == [3, 4, 1]
    assert seg.sum() + probe_ns.sum() == 40


def test_normalise_scales_by_the_local_control_speed():
    nominal = timing.NOMINAL_NS_PER_LOOP
    # the control at nominal speed for the first two probes, then at half
    probes = [(nominal * 4, 4), (nominal * 2, 2),
              (nominal * 4, 2), (nominal * 8, 4)]
    seg = [100.0, 100.0, 100.0]
    # segment j is scaled by probes j - 1 to j + 2, weighted by their loops
    got = timing.normalise(seg, probes)
    assert got == pytest.approx([100.0 * 8 / 10, 100.0 * 12 / 18,
                                 100.0 * 8 / 14], rel=1e-12)
    # all four probes: 18 nominal loops' time over 12 loops
    assert timing.host_scale(probes) == pytest.approx(12 / 18, rel=1e-12)


def test_indexing_leaves_no_stamp():
    frames = timing.StampedFrames(["a", "b", "c"])
    assert (frames[0], frames[-1], len(frames)) == ("a", "c", 3)
    assert frames.stamps == []
    assert list(frames) == ["a", "b", "c"]
    assert len(frames.stamps) == 3


def test_alignment_recovers_rigid_transform():
    t = np.linspace(0.0, 10.0, 200)
    truth_p = np.stack([3 * np.cos(t), 2 * np.sin(0.7 * t), 0.3 * t], axis=1)
    truth_r = np.stack([exp_so3([0.01 * k, -0.2, 0.05 * k]) for k in t])
    rot = exp_so3([0.3, -0.5, 1.1])
    shift = np.array([4.0, -1.0, 2.5])
    # the estimate is the truth seen from another world frame
    est_p = (truth_p - shift) @ rot
    est_r = np.einsum("ji,njk->nik", rot, truth_r)
    src, dst = est_p - est_p.mean(axis=0), truth_p - truth_p.mean(axis=0)
    assert np.allclose(checks.horn_rotation(src, dst), rot, atol=1e-12)
    ate_m, ate_deg = checks.independent_ate(t, est_r, est_p,
                                            t, truth_r, truth_p)
    assert ate_m < 1e-12 and ate_deg < 1e-9


def test_alignment_reports_a_known_error():
    t = np.linspace(0.0, 5.0, 50)
    truth_p = np.stack([np.cos(t), np.sin(t), 0.1 * t * t], axis=1)
    truth_r = np.repeat(np.eye(3)[None], len(t), axis=0)
    est_r = np.repeat(exp_so3([0.0, 0.0, 0.01])[None], len(t), axis=0)
    _, ate_deg = checks.independent_ate(t, est_r, truth_p, t, truth_r, truth_p)
    assert ate_deg == pytest.approx(np.degrees(0.01), rel=1e-9)


def test_self_times_add_up_to_the_pass(circle):
    tracer = Tracer()
    cfg = frontend.RunConfig(mode=frontend.EstimatorMode.FULL)
    timing.timed_pass(frontend.run_estimator, circle, cfg, tracer)
    root = tracer.names.index("estimator.pass")
    assert tracer.parents[root] == -1
    assert int(tracer.self_times().sum()) == int(tracer.durations()[root])
    for idx, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[idx]
            assert tracer.ends[idx] <= tracer.ends[parent]
    names = set(tracer.names)
    assert {"frontend.coarse", "frontend.refine", "frontend.joint",
            "backend.window_ba", "backend.solve", "imu.integrate",
            "visual.field_sample"} <= names


def test_instrumentation_is_removed(circle):
    before = frontend.track_coarse
    timing.timed_pass(frontend.run_estimator, circle,
                      frontend.RunConfig(mode=frontend.EstimatorMode
                                         .DVL_DEADRECKON), Tracer())
    assert frontend.track_coarse is before


def test_status_rule():
    times = [k / 10 for k in range(12)]
    got = checks.expected_statuses(times, "full", ((0.3, 0.5),), 3)
    assert got == ["VisualOk"] * 3 + ["Degraded"] * 5 + ["VisualOk"] * 4
