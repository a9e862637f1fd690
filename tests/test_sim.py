import dataclasses
import filecmp
import hashlib
import json
import math
import os

import numpy as np
import pytest

from aquafuse import sim
from aquafuse.backend import MIN_HOST_DISPARITY_PX

SHORT = dict(kind="lawnmower", duration_s=2.0, seed=4,
             degradation_windows_s=((0.5, 1.0),))


def assert_same(a, b, where="dataset"):
    """Exact equality, recursing through dataclasses, lists and arrays."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name),
                        f"{where}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{k}]")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(a, b), where
    else:
        assert a == b, where


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    ds = sim.simulate(sim.ScenarioConfig(**SHORT))
    path = tmp_path_factory.mktemp("sim") / "dataset"
    sim.write_dataset(ds, str(path))
    return ds, path


def test_written_dataset_reads_back_equal(written):
    ds, path = written
    back = sim.read_dataset(str(path))
    assert len(back.imu) > 0 and len(back.frames) > 0
    assert any(not f.observations for f in back.frames)  # the blackout
    assert_same(ds, back)
    # the benchmark compares the configs' reprs after the read-back
    assert repr(back.config) == repr(ds.config)


def test_same_seed_gives_identical_files(written, tmp_path):
    _, first = written
    again = tmp_path / "again"
    sim.write_dataset(sim.simulate(sim.ScenarioConfig(**SHORT)), str(again))
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(again))
    match, mismatch, errors = filecmp.cmpfiles(first, again, names,
                                               shallow=False)
    assert (mismatch, errors) == ([], [])
    other = tmp_path / "other"
    sim.write_dataset(sim.simulate(sim.ScenarioConfig(**{**SHORT, "seed": 5})),
                      str(other))
    assert not filecmp.cmp(first / "imu.jsonl", other / "imu.jsonl",
                           shallow=False)


def _broken_copy(path, broken, stream, lineno, edit):
    """A copy of the dataset at ``path`` with line ``lineno`` of ``stream``
    replaced by ``edit`` of it."""
    os.makedirs(broken)
    for name in os.listdir(path):
        text = (path / name).read_text()
        if name == stream:
            lines = text.splitlines()
            changed = edit(lines[lineno - 1])
            assert changed != lines[lineno - 1]
            lines[lineno - 1] = changed
            text = "\n".join(lines) + "\n"
        (broken / name).write_text(text)
    return broken


@pytest.mark.parametrize("stream, lineno, edit", [
    ("imu.jsonl", 3, lambda line: "{not json"),
    ("dvl.jsonl", 5, lambda line: line.replace('"vel"', '"velocity"')),
    ("pressure.jsonl", 2, lambda line: line.replace('"t":"0.1"', '"t":"x"')),
    ("frames.jsonl", 4, lambda line: line.replace('"t":"0.2"', '"t":"0.0"')),
    ("groundtruth.jsonl", 2, lambda line: "[1, 2]"),
    ("imu.jsonl", 7, lambda line: "5"),
])
def test_parse_error_names_file_and_line(written, tmp_path, stream, lineno,
                                         edit):
    _, path = written
    broken = _broken_copy(path, tmp_path / "broken", stream, lineno, edit)
    with pytest.raises(sim.ParseError) as err:
        sim.read_dataset(str(broken))
    assert f"{broken / stream}:{lineno}:" in str(err.value)


def _set(keys, value):
    """An edit of a JSON line that sets the entry at the path ``keys``."""
    def edit(line):
        rec = json.loads(line)
        inner = rec
        for k in keys[:-1]:
            inner = inner[k]
        inner[keys[-1]] = value
        return json.dumps(rec)
    return edit


@pytest.mark.parametrize("stream, lineno, keys, value", [
    ("imu.jsonl", 3, ("gyro",), [0.1, 0.2]),
    ("imu.jsonl", 4, ("accel",), [0.1, [0.2], 0.3]),
    ("dvl.jsonl", 5, ("vel",), "fast"),
    ("frames.jsonl", 2, ("obs", 0, "uv"), [1.0, 2.0, 3.0]),
    ("frames.jsonl", 3, ("field", "centers"), [[1.0, 2.0], [3.0]]),
    ("groundtruth.jsonl", 4, ("R",), [1, 0, 0, 1]),
    ("groundtruth.jsonl", 6, ("bv",), None),
], ids=["imu-gyro", "imu-accel", "dvl-vel", "obs-uv", "field-centers",
        "truth-R", "truth-bv"])
def test_malformed_vector_names_file_line_and_field(written, tmp_path, stream,
                                                    lineno, keys, value):
    _, path = written
    broken = _broken_copy(path, tmp_path / "broken", stream, lineno,
                          _set(keys, value))
    with pytest.raises(sim.ParseError) as err:
        sim.read_dataset(str(broken))
    assert f"{broken / stream}:{lineno}: field '{keys[-1]}'" in str(err.value)


# short datasets of each path kind, between them a blackout, a vertical
# oscillation and every injected bias, and the sha256 of each file written
# for them. They pin the draw order and the arithmetic bit for bit, at one
# platform's libm and BLAS rounding (x86-64, numpy 2.4): another platform
# may round differently
BIASES = dict(bg0_rad_s=(0.002, -0.001, 0.0005), ba0_m_s2=(0.03, -0.02, 0.01),
              bv_const_m_s=(0.01, -0.005, 0.002),
              bv_sin_amp_m_s=(0.004, 0.003, 0.002))
PINNED = {
    "line": (dict(kind="line", heading_rad=0.4, seed=21), {
        "dvl.jsonl": "28185e1fc3a0558028f2ff9d7080fa5b8997a0b40f3b6f2e36ec3e2cb95a8f65",
        "frames.jsonl": "df65086160d07332bfae7f48073763deec827df4b73c3fed2f408798b43a3486",
        "groundtruth.jsonl": "9c57772f2fe8609e056b3c6300c181f98c3861abbf5aa8ac192fe2c7cb3bc8fa",
        "imu.jsonl": "bf2d98efd898e167892bc301d008006d1ff592a01944328ef3db5c6c9cae7115",
        "meta.json": "1b1ea10c2105ca948fa1cfc5a69b366e24dd5d36327ba98c087c3c50e0029316",
        "pressure.jsonl": "cba680d682885789293708854d91d1ddc9428c29cbaf43b73cea6df0180dafc7"}),
    "circle": (dict(kind="circle", amp_z_m=0.5, seed=22,
                    degradation_windows_s=((0.6, 1.0),)), {
        "dvl.jsonl": "7ec948ea8d131b4aef474c2b649d6493e73dd9fdb340643d2a067ad51da20871",
        "frames.jsonl": "f3ba89e7054d3c0ca495659c2fc8979e61d1b8b0d67f8d11bdce44ef77bd72bd",
        "groundtruth.jsonl": "0921e49867280f334280e8bbd2521cad2a04133438f55bee2afe549889fe8ca3",
        "imu.jsonl": "a1736d15a6bc06f21156e94f857f01e5d76c6180e85e0f42b265f4def6aedc79",
        "meta.json": "78d5751751845ea31013f51ba38e1f5fd62413b21a1710e924345a755d74e948",
        "pressure.jsonl": "70166c6f2b05f20d1a6802f141280d93d55f80778212e12b58fcd0b75b15bbbb"}),
    "figure-eight": (dict(kind="figure-eight", amp_z_m=0.4, seed=23), {
        "dvl.jsonl": "a26b6933f12415b483fd11d14f385e79014263e7a48a2b62d8e189ee143bc031",
        "frames.jsonl": "084b059f864ef9ea761a7b4df95eabcfe0ea1aafca7f286ee2610fae8fc07df0",
        "groundtruth.jsonl": "43a955ae74513926f02d2e834b5eec293b37a2a70b3b663b7cb12a6f089acd39",
        "imu.jsonl": "baeae94f1980ef2397be69c2482f88036a8518d08bd540bb1cb7f35cd2ca52b5",
        "meta.json": "545b3110ddb1cf02d96405e84f474112f6ba194b2c1f6af61682ad878f5aedc6",
        "pressure.jsonl": "605cb953ad1dc7b3f949057ec5fb4abb35024052a9ce9429b80bed1ecec286da"}),
    "lawnmower": (dict(kind="lawnmower", seed=24), {
        "dvl.jsonl": "00c995b0021ef11c0c2ef644cbf8e9029788ca08c9295bcff1683d3ec848d00a",
        "frames.jsonl": "5e12de0257fe817bd9fd53891015ca7739afc5e41d3f6b1ae4a90b055e3000ca",
        "groundtruth.jsonl": "c9e5d2076616475cd5b7250d6b05982f60bba5da7627c95a13723aa1413f08bf",
        "imu.jsonl": "616b503ce30807ddb7db840cb984a091f1b00ee0b6e215dfb9125f5690c86965",
        "meta.json": "d47a18bb2029bc813a9b18381115290dd43c5c057ef4355837c931fa98e35a65",
        "pressure.jsonl": "acd04693de202d990f99ee141bc7f08aa2f0cb8bd860b264b14f0ca99f76b17e"}),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_written_files_match_pinned_digests(kind, tmp_path):
    kwargs, digests = PINNED[kind]
    cfg = sim.ScenarioConfig(duration_s=2.0, **kwargs, **BIASES)
    sim.write_dataset(sim.simulate(cfg), str(tmp_path))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in os.listdir(tmp_path)}
    assert got == digests


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_truth_derivatives_match_finite_differences(kind):
    cfg = sim.ScenarioConfig(**PINNED[kind][0])
    t = np.linspace(0.3, 50.0, 40)
    h = 1e-5
    now = sim.trajectory_truth(cfg, t)
    ahead, behind = (sim.trajectory_truth(cfg, t + d) for d in (h, -h))

    def ddt(x_ahead, x_behind):
        return (x_ahead - x_behind) / (2.0 * h)

    def yaw(truth):
        return np.arctan2(truth.R[:, 1, 0], truth.R[:, 0, 0])

    np.testing.assert_allclose(now.v, ddt(ahead.p, behind.p), atol=1e-8)
    np.testing.assert_allclose(now.a, ddt(ahead.v, behind.v), atol=1e-8)
    d_yaw = (yaw(ahead) - yaw(behind) + np.pi) % (2.0 * np.pi) - np.pi
    np.testing.assert_allclose(now.yaw_rate, d_yaw / (2.0 * h), atol=1e-8)
    # the attitude is a pure yaw along the planar velocity
    psi = np.arctan2(now.v[:, 1], now.v[:, 0])
    c, s = np.cos(psi), np.sin(psi)
    rz = np.zeros((len(t), 3, 3))
    rz[:, 0, 0], rz[:, 0, 1], rz[:, 1, 0], rz[:, 1, 1] = c, -s, s, c
    rz[:, 2, 2] = 1.0
    np.testing.assert_allclose(now.R, rz, atol=1e-12)


# a short circle with a blackout, an observation cap that binds and no
# disparity noise, so each observation's disparity orders it by depth
VIEW = dict(kind="circle", duration_s=3.0, seed=7, max_obs_per_frame=12,
            sigma_disparity_px=0.0, degradation_windows_s=((1.0, 1.5),))


@pytest.fixture(scope="module")
def viewed():
    cfg = sim.ScenarioConfig(**VIEW)
    return cfg, sim.simulate(cfg)


def _dark(cfg, frame) -> bool:
    return any(a <= frame.t <= b for a, b in cfg.degradation_windows_s)


def test_observations_lie_in_the_image(viewed):
    cfg, ds = viewed
    pix = np.array([o.pixel for f in ds.frames for o in f.observations])
    assert len(pix) > 0
    assert np.all((0.0 <= pix[:, 0]) & (pix[:, 0] < cfg.width_px)
                  & (0.0 <= pix[:, 1]) & (pix[:, 1] < cfg.height_px))


def test_observations_are_nearest_first_ties_by_id(viewed):
    _, ds = viewed
    for f in ds.frames:
        # disparity fx * baseline / depth falls with depth
        keys = [(-o.disparity, o.landmark_id) for o in f.observations]
        assert keys == sorted(keys), f.frame_id


def test_observation_cap_binds_and_holds(viewed):
    cfg, ds = viewed
    counts = [len(f.observations) for f in ds.frames]
    assert max(counts) == cfg.max_obs_per_frame


def test_disparities_are_clamped_at_006():
    # disparity noise large enough to push some below the clamp
    ds = sim.simulate(sim.ScenarioConfig(**{**VIEW, "sigma_disparity_px": 20.0}))
    disp = [o.disparity for f in ds.frames for o in f.observations]
    assert min(disp) == 0.06
    assert all(d >= 0.06 for d in disp)
    # so every simulated observation clears the estimator's host threshold
    assert min(disp) > MIN_HOST_DISPARITY_PX


@pytest.mark.parametrize("key, value", [
    ("duration_s", -1.0), ("landmark_count", -1), ("max_obs_per_frame", -5),
    ("fx_px", 0.0), ("fy_px", -300.0), ("min_obs_depth_m", 9.0),
    ("max_obs_depth_m", 0.5)])
def test_negative_sizes_are_rejected(key, value):
    # each failed late, or (a negative observation cap slices from the end)
    # silently kept almost every visible landmark; a zero focal length failed
    # in the camera model without naming its key, and an empty depth range
    # simulated a dataset without a single observation
    with pytest.raises(ValueError, match=key):
        sim.ScenarioConfig(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("cx_px", math.inf), ("p_IC_m", (math.nan, 0.0, 0.0)),
    ("gravity_m_s2", (math.nan, 0.0, 0.0)), ("bg0_rad_s", (0.0, -math.inf, 0.0))])
def test_non_finite_values_are_rejected(key, value):
    # a config built in Python skips the checks of its JSON loader: an
    # infinite cx_px simulated a dataset without an observation, and a NaN
    # extrinsic or gravity constructed
    with pytest.raises(ValueError, match=f"{key} holds a number that is not finite"):
        sim.ScenarioConfig(duration_s=2.0, seed=1, **{key: value})


def test_blackout_frames_are_empty(viewed):
    cfg, ds = viewed
    dark = [f for f in ds.frames if _dark(cfg, f)]
    assert len(dark) > 0
    assert all(f.observations for f in ds.frames if not _dark(cfg, f))
    for f in dark:
        assert f.observations == []
        assert len(f.field.amplitudes) == 0 and f.field.centers.shape == (0, 2)
