"""The config contract: every key's domain is checked when a config is made.

A config the CLI accepts either works or fails with its documented exit
code (0, 2, 3 or 4); a value outside its :data:`experiment.DOMAINS` entry exits 4
before any command runs.
"""

import contextlib
import io
import math
import os
import shutil
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsim import cli, experiment
from test_cli import fast_overrides
from test_data import _write_idx_images, _write_idx_labels

COMMANDS = [["train"], ["template"], ["search"], ["exploit"],
            ["random-baseline"], ["defense", "--mode", "width"],
            ["defense", "--mode", "topn"], ["defense", "--mode", "layer-lock"],
            ["sensitivity"]]
COMMAND_IDS = [" ".join(c[::2]) for c in COMMANDS]

# the keys with no domain: the output directory, the idx paths (checked when
# the data loads) and the geometry overrides DramConfig checks
FREE_FORM = {"out", "idx_train_images", "idx_train_labels", "idx_test_images",
             "idx_test_labels", "channels", "banks", "rows", "row_bytes",
             "hammer_mode"}


def write_config(path, out, **setting):
    path.write_text("\n".join(f"{k} = {v}" for k, v in
                              fast_overrides(str(out), **setting).items()) + "\n")
    return str(path)


def run(argv):
    """``cli.main(argv)``'s exit code and stderr; an exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


def test_every_config_key_has_a_domain_or_is_free_form():
    keys = {f.name for f in fields(experiment.ExperimentConfig)}
    assert FREE_FORM <= keys
    assert set(experiment.DOMAINS) == keys - FREE_FORM


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
@pytest.mark.parametrize("key,value", [
    ("seed", -1), ("attacker_budget", "nan"), ("attacker_budget", 0),
    ("attacker_budget", -0.5), ("lr", "nan"), ("lr", -1), ("lr", "inf"),
    ("blob_noise", "nan"), ("direction_split", 2), ("toggle_probability", 2),
    ("target_accuracy", "nan"), ("max_flips", -1), ("reboot_seed", -5),
    ("momentum", 5), ("blob_shape", "1 2 2"), ("blob_shape", "8 8"),
])
def test_value_outside_its_domain_exits_config_before_any_work(
        tmp_path, command, key, value):
    out = tmp_path / "o"
    rc, err = run(command + ["--config", write_config(tmp_path / "c.cfg", out,
                                                      **{key: value})])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: {key} must be in" in err
    assert not out.exists()


# a diverging run reports its failure once, in the exit-2 line, not also
# through numpy's warnings
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key,value,why", [
    # finite settings in their domain whose training step overflows
    ("weight_decay", "1e9", "weights must be finite"),
    ("blob_noise", "1e300", "weights must be finite"),
    # a one-weight layer whose initial weight is negative
    ("hidden", "1 1", "step size would be <= 0"),
])
def test_untrainable_setting_exits_infeasible(tmp_path, key, value, why):
    out = tmp_path / "o"
    rc, err = run(["train", "--config",
                   write_config(tmp_path / "c.cfg", out, **{key: value})])
    assert rc == cli.EXIT_INFEASIBLE
    assert "training failure: training stopped in epoch 1: " in err and why in err
    assert not (out / "checkpoint.qnn").exists()


def test_idx_images_outside_the_blob_shape_domain_exit_config(tmp_path):
    # lenet's two 2x2 pools cannot take 3x3 images, from a config or a file
    rng = np.random.default_rng(0)
    paths = {}
    for split, n in (("train", 12), ("test", 6)):
        images, labels = (str(tmp_path / f"{split}-{kind}.idx")
                          for kind in ("images", "labels"))
        _write_idx_images(images, rng.integers(0, 256, size=(n, 3, 3)))
        _write_idx_labels(labels, np.arange(n) % 2)
        paths.update({f"idx_{split}_images": images,
                      f"idx_{split}_labels": labels})
    out = tmp_path / "o"
    rc, err = run(["train", "--config", write_config(
        tmp_path / "c.cfg", out, dataset="idx", arch="lenet", **paths)])
    assert rc == cli.EXIT_CONFIG
    assert "the dataset's inputs are (1, 3, 3)" in err
    assert not out.exists()


def _write_idx(path, array):
    """``array`` as an IDX file: uint8 or int8 values, any rank."""
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, {np.uint8: 0x08, np.int8: 0x09}[array.dtype.type],
                        array.ndim]))
        fh.write(struct.pack(f">{array.ndim}I", *array.shape))
        fh.write(array.tobytes())


IDX_FAULTS = [("2-d images", "train-images", "images (40, 64)"),
              ("truncated body", "train-images", "do not fill dims (40, 8, 8)"),
              ("bad magic", "train-labels", "not an IDX file"),
              ("fewer labels", "train-labels", "labels (30,)"),
              ("negative label", "train-labels", "label -1 is negative"),
              ("test split lacks a class", "test-labels", "no sample of class 2")]


@pytest.mark.parametrize("fault,name,message", IDX_FAULTS,
                         ids=[f[0] for f in IDX_FAULTS])
def test_malformed_idx_dataset_exits_config(tmp_path, fault, name, message):
    # 40 training and 20 test images of 8x8 in 4 classes, one file broken
    rng = np.random.default_rng(0)
    arrays = {"train-images": rng.integers(0, 256, (40, 8, 8), dtype=np.uint8),
              "train-labels": np.arange(40, dtype=np.uint8) % 4,
              "test-images": rng.integers(0, 256, (20, 8, 8), dtype=np.uint8),
              "test-labels": np.arange(20, dtype=np.uint8) % 4}
    broken = {"2-d images": lambda a: a.reshape(40, 64),
              "fewer labels": lambda a: a[:30],
              "negative label": lambda a: np.where(a == 3, -1, a).astype(np.int8),
              "test split lacks a class": lambda a: np.where(a == 2, 3, a)}
    arrays[name] = broken.get(fault, lambda a: a)(arrays[name])
    paths = {}
    for key, array in arrays.items():
        paths["idx_" + key.replace("-", "_")] = path = str(tmp_path / f"{key}.idx")
        _write_idx(path, array)
    with open(paths["idx_" + name.replace("-", "_")], "r+b") as fh:
        if fault == "truncated body":
            fh.truncate(100)
        elif fault == "bad magic":
            fh.write(b"\x01")
    out = tmp_path / "o"
    rc, err = run(["train", "--config", write_config(
        tmp_path / "c.cfg", out, dataset="idx", **paths)])
    assert rc == cli.EXIT_CONFIG
    assert message in err
    if fault != "test split lacks a class":
        assert paths["idx_" + name.replace("-", "_")] in err
    assert not out.exists()


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    """A checkpoint, its profile and a chain on the fast settings."""
    out = str(tmp_path_factory.mktemp("contract"))
    cfg = cli.make_config(overrides=fast_overrides(out))
    cli.cmd_train(cfg)
    cli.cmd_template(cfg)
    cli.cmd_search(cfg)
    return out


def test_exploit_under_other_eval_settings_names_the_metric_keys(fast_run,
                                                                  tmp_path):
    # the chain recorded its metric on a 64-row batch; the exploit lands
    # every flip, then measures a 3-row batch
    out = tmp_path / "o"
    shutil.copytree(fast_run, out)
    rc, err = run(["exploit", "--config",
                   write_config(tmp_path / "c.cfg", out, eval_batch=3)])
    assert rc == cli.EXIT_INTEGRITY
    assert "the chain's recorded metric" in err and "extra flips" not in err
    for key in experiment.MetricMismatch.KEYS:
        assert key in err


def test_metric_keys_are_config_keys():
    # the mismatch message tells the user to compare these keys of the two
    # runs' configs
    names = {f.name for f in fields(experiment.ExperimentConfig)}
    assert set(experiment.MetricMismatch.KEYS) <= names


def _near(domain, default):
    """Values of ``default``'s type in ``domain`` or just outside it."""
    if isinstance(domain, list):
        return st.one_of(st.tuples(*(_near(d, 1) for d in domain)),
                         st.lists(_near(domain[-1], 1), min_size=2,
                                  max_size=4).map(tuple))
    if isinstance(default, tuple):
        return st.lists(_near(domain, 1), max_size=3).map(tuple)
    if not isinstance(domain, str):
        extra = ([min(domain) - 1, max(domain) + 1] if isinstance(default, int)
                 else ["nonsense"])
        return st.sampled_from(list(domain) + extra)
    low, high = map(float, domain[1:-1].split(","))
    if isinstance(default, int):
        # a few steps above the lower end: the cost of a run grows with most
        # integer keys, and none has an upper end
        return st.integers(int(low) - 1, int(low) + 8)
    edges = [math.nextafter(low, -math.inf), low, math.nan, math.inf]
    if high < math.inf:
        edges += [high, math.nextafter(high, math.inf)]
    return st.one_of(st.sampled_from(edges),
                     st.floats(low, min(high, 1e300), allow_nan=False))


def _setting(key):
    default = getattr(experiment.ExperimentConfig(), key)
    value = _near(experiment.DOMAINS[key], default)
    if isinstance(default, tuple):
        return value.map(lambda t: " ".join(map(str, t)))
    return value.map(lambda v: repr(v) if isinstance(v, float) else v)


SETTINGS = st.sampled_from(sorted(experiment.DOMAINS)).flatmap(
    lambda key: st.tuples(st.just(key), _setting(key)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
# derandomized: the same draws each run keep Tier-1's time fixed, since an
# in-domain draw such as arch = blob_resnet under defense --mode width costs
# seconds where most cost milliseconds
@settings(max_examples=75, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), setting=SETTINGS)
def test_any_drawn_setting_exits_with_a_documented_code(
        fast_run, tmp_path_factory, command, setting):
    key, value = setting
    out = tmp_path_factory.mktemp("drawn")
    for name in os.listdir(fast_run):
        shutil.copy(os.path.join(fast_run, name), out)
    rc, err = run(command + ["--config",
                             write_config(out / "c.cfg", out, **{key: value})])
    assert rc in (cli.EXIT_OK, cli.EXIT_INFEASIBLE, cli.EXIT_INTEGRITY,
                  cli.EXIT_CONFIG), err
