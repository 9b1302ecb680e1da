"""Command surface: config parsing, outputs, exit codes."""

import importlib
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import oracles
from conftest import tiny_dram
from flipsim import cli, experiment, qnn
from flipsim.dram import OWNER_ATTACKER, FlipProfile
from flipsim.image import TargetBit, WeightImage, read_chain
from flipsim.massage import MappingPlan, PlanEntry, plan_aggressors, plan_mapping


def fast_overrides(out, **extra):
    base = {"out": out, "seed": 4, "hidden": "64 32", "epochs": 1,
            "accuracy_floor": "0", "geometry": "desk", "density": "dense",
            "density_count": 0, "eval_batch": 64, "p": 8, "max_flips": 4}
    base.update(extra)
    return base


def test_empty_hidden_trains_a_linear_model(tmp_path):
    # an empty ``hidden =`` line names no hidden layer, not some default MLP
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in
                               fast_overrides(str(tmp_path), hidden="").items()))
    assert cli.main(["train", "--config", str(cfgfile)]) == cli.EXIT_OK
    model = qnn.load_checkpoint(str(tmp_path / "checkpoint.qnn"))
    assert [type(layer) for layer in model.layers] == [qnn.Flatten, qnn.Dense]
    assert (model.layers[1].in_features, model.layers[1].out_features) == (64, 10)


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nseed = 9\nhidden = 128,64\nlr = 0.05\n")
    cfg = cli.make_config(str(path), {"out": "somewhere"})
    assert cfg.seed == 9
    assert cfg.hidden == (128, 64)
    assert cfg.lr == 0.05
    assert cfg.out == "somewhere"


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("no_such_key = 1\n")
    with pytest.raises(cli.ConfigError):
        cli.make_config(str(path))


def test_derived_seeds_fan_out():
    cfg = cli.make_config(overrides={"seed": 3})
    seeds = {cfg.data_seed, cfg.train_seed, cfg.cell_seed, cfg.hammer_seed,
             cfg.batch_seed, cfg.sample_seed}
    assert len(seeds) == 6


def test_train_then_template_outputs(tmp_path):
    out = str(tmp_path / "run")
    cfg = cli.make_config(overrides=fast_overrides(out))
    path, info = cli.cmd_train(cfg)
    assert os.path.exists(path)
    assert info["weight_pages"] >= 1
    ppath, tinfo = cli.cmd_template(cfg)
    profile = FlipProfile.load_csv(ppath)
    assert len(profile) == tinfo["entries"]
    assert tinfo["templating_seconds_estimate"] == pytest.approx(len(profile) / 2.2)
    assert os.path.exists(os.path.join(out, "geometry.txt"))


def test_cli_train_via_main(tmp_path, capsys):
    out = str(tmp_path / "m")
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}"
                                 for k, v in fast_overrides(out).items()) + "\n")
    rc = cli.main(["train", "--config", str(cfgfile)])
    assert rc == cli.EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert "clean_accuracy" in info


def test_missing_dataset_path_config_error(tmp_path):
    cfg = cli.make_config(overrides={"dataset": "idx", "out": str(tmp_path)})
    with pytest.raises(cli.ConfigError):
        cli.build_dataset(cfg)


def test_search_infeasible_exit_code(tmp_path, capsys):
    out = str(tmp_path / "r")
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}"
                                 for k, v in fast_overrides(out).items()) + "\n")
    assert cli.main(["train", "--config", str(cfgfile)]) == cli.EXIT_OK
    assert cli.main(["template", "--config", str(cfgfile)]) == cli.EXIT_OK
    capsys.readouterr()
    rc = cli.main(["search", "--config", str(cfgfile)])
    # tiny profile on a tiny model: infeasibility is the expected outcome
    assert rc == cli.EXIT_INFEASIBLE
    assert os.path.exists(os.path.join(out, "chain_1.jsonl"))
    assert os.path.exists(os.path.join(out, "trace_1.csv"))


def test_exhausted_protection_rounds_exit_infeasible(tmp_path, capsys):
    # with no flip allowed, round 1 commits nothing and the rounds give up
    out = str(tmp_path / "x")
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in
                                 fast_overrides(out, max_flips=0).items()) + "\n")
    assert cli.main(["train", "--config", str(cfgfile)]) == cli.EXIT_OK
    rc = cli.main(["defense", "--mode", "topn", "--config", str(cfgfile)])
    assert rc == cli.EXIT_INFEASIBLE
    assert "bit space exhausted" in capsys.readouterr().err


def test_train_and_width_defense_share_training_config(tmp_path, monkeypatch):
    seen = []

    def fake_train(spec, dataset, config, seed):
        seen.append(config)
        raise qnn.TrainingFailure(0.0, config.accuracy_floor, [])

    monkeypatch.setattr(qnn, "train_small", fake_train)
    cfg = cli.make_config(overrides=fast_overrides(str(tmp_path / "wd"),
                                                   weight_decay="0.003"))
    with pytest.raises(qnn.TrainingFailure):
        cli.cmd_train(cfg)
    info = cli.cmd_defense(cfg, "width")
    assert len(seen) == 11
    assert all(c == seen[0] for c in seen)
    assert seen[0].weight_decay == 0.003
    assert all(r["base"] is None and r["wide"] is None for r in info["per_seed"])


def test_bad_config_exit_code(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["train", "--config", missing]) == cli.EXIT_CONFIG


def test_unknown_arch_exits_config(tmp_path, capsys):
    out = tmp_path / "a"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in
                                 fast_overrides(str(out), arch="lenet_like").items())
                       + "\n")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert "arch" in capsys.readouterr().err
    assert not os.path.exists(out / "checkpoint.qnn")


@pytest.mark.parametrize("command", [["train"], ["defense", "--mode", "width"]],
                         ids=["train", "defense-width"])
@pytest.mark.parametrize("key,value", [
    ("bit_width", 9), ("bit_width", 1), ("train_batch", 0), ("classes", 1),
    ("hidden", 0), ("width_multiplier", 0), ("epochs", -1),
])
def test_invalid_training_setting_exits_config(tmp_path, capsys, command, key,
                                               value):
    out = tmp_path / "t"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in
                                 fast_overrides(str(out), **{key: value}).items())
                       + "\n")
    capsys.readouterr()
    assert cli.main(command + ["--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not os.path.exists(out / "checkpoint.qnn")


@pytest.fixture(scope="module")
def fast_trained(tmp_path_factory):
    """A trained checkpoint and its profile on the fast settings."""
    out = str(tmp_path_factory.mktemp("trained"))
    cfg = cli.make_config(overrides=fast_overrides(out))
    cli.cmd_train(cfg)
    cli.cmd_template(cfg)
    return out


@pytest.mark.parametrize("key,setting,flags", [
    ("p", {"p": 0}, []),
    ("eval_batch", {"eval_batch": 0}, []),
    ("rate", {}, ["--rate", "0"]),
    ("target_class", {}, ["--target-class", "99"]),
    ("chains", {}, ["--chains", "-3"]),
])
def test_invalid_search_setting_exits_config(fast_trained, tmp_path, capsys,
                                             key, setting, flags):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in
                                 fast_overrides(fast_trained, **setting).items())
                       + "\n")
    capsys.readouterr()
    rc = cli.main(["search", "--config", str(cfgfile)] + flags)
    assert rc == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command,key,setting", [
    ("sensitivity", "chains", {"chains": 0}),
    ("exploit", "verify_sample", {"verify_sample": 7}),
    ("exploit", "noise_allocations", {"noise_allocations": -1}),
])
def test_invalid_stage_setting_exits_config(fast_trained, tmp_path, capsys,
                                            command, key, setting):
    # neither a crash deep in the command nor a silent override
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in
                                 fast_overrides(fast_trained, **setting).items())
                       + "\n")
    capsys.readouterr()
    assert cli.main([command, "--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key,setting", [
    ("channels", {"channels": 3}),
    ("hammer_mode", {"hammer_mode": "triple"}),
    ("density", {"density": "foo"}),
    ("row_bytes", {"row_bytes": 1000}),
    ("banks_per_dimm", {"banks": -1}),
    ("density_count", {"density_count": 1000000000}),
    # below a full bank's 2**31 cells, above what its synthesis key packs
    ("density_count", {"geometry": "full-single", "density_count": 2 ** 28}),
])
def test_invalid_dram_setting_exits_config(fast_trained, tmp_path, capsys,
                                           key, setting):
    import shutil

    out = tmp_path / "bad"
    out.mkdir()
    shutil.copy(os.path.join(fast_trained, "checkpoint.qnn"), out)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in
                                 fast_overrides(str(out), **setting).items())
                       + "\n")
    capsys.readouterr()
    rc = cli.main(["template", "--config", str(cfgfile)])
    assert rc == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not os.path.exists(out / "profile.csv")


def fast_config_file(tmp_path):
    """A fast-settings config writing to ``tmp_path``."""
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in
                                 fast_overrides(str(tmp_path)).items()) + "\n")
    return str(cfgfile)


@pytest.mark.parametrize("line", [
    None, "1,x,0,1.0", "", "# templated", "1,2,0,1.0\r", "1, 2,0,1.0",
    "1,+2,0,1.0", "1,2,0,1", "1,2,0", "1-2,0,1.0", "1,2,0,1.0,1",
    "1234567890123456789,2,0,1.0",
], ids=["header", "non-integer-field", "blank-line", "comment", "crlf",
        "space", "sign", "probability-1", "three-fields", "dash-for-comma",
        "five-fields", "19-digit-field"])
def test_malformed_profile_exits_config(fast_trained, tmp_path, capsys, line):
    # the writer's grammar alone is read: each other form names its entry
    profile = tmp_path / "bad_profile.csv"
    if line is None:
        profile.write_text("pfn,bop,dir,probability\n1,2,0,1.0\n")
    else:
        profile.write_text(f"pfn,bop,direction,probability\n0,1,0,1.0\n{line}\n"
                           "5,6,1,1.0\n")
    capsys.readouterr()
    rc = cli.main(["search", "--config", fast_config_file(tmp_path),
                   "--checkpoint", os.path.join(fast_trained, "checkpoint.qnn"),
                   "--profile", str(profile)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(profile) in err
    assert ("header" if line is None else "entry 2 ") in err
    assert not os.path.exists(tmp_path / "search.json")


@pytest.mark.parametrize("command,flag", [("search", "--checkpoint"),
                                          ("search", "--profile"),
                                          ("exploit", "--chain")])
def test_directory_input_path_exits_config(fast_trained, tmp_path, capsys,
                                           command, flag):
    # a directory where a file is read is a config error naming the path
    paths = {"--checkpoint": os.path.join(fast_trained, "checkpoint.qnn"),
             "--profile": os.path.join(fast_trained, "profile.csv"),
             flag: str(tmp_path)}
    capsys.readouterr()
    rc = cli.main([command, "--config", fast_config_file(tmp_path),
                   *(a for item in paths.items() for a in item)])
    assert rc == cli.EXIT_CONFIG
    assert str(tmp_path) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "search.json")
    assert not os.path.exists(tmp_path / "report.json")


@pytest.mark.parametrize("command", ["search", "exploit"])
@pytest.mark.parametrize("field", ["pfn", "bop", "direction", "probability"])
def test_out_of_range_profile_entry_exits_config(fast_trained, tmp_path, capsys,
                                                 command, field):
    import shutil

    total = cli.dram_config(cli.make_config(
        overrides=fast_overrides(str(tmp_path)))).total_pages
    entry = {"pfn": 7, "bop": 5, "direction": 1, "probability": 1.0}
    # cells flip deterministically: a probability other than 1.0 is refused
    entry[field] = {"pfn": total, "bop": 32768, "direction": 7,
                    "probability": 7.0}[field]
    shutil.copy(os.path.join(fast_trained, "geometry.txt"), tmp_path)
    profile = tmp_path / "profile.csv"
    with open(os.path.join(fast_trained, "profile.csv")) as fh:
        text = fh.read()
    profile.write_text(text + f"{entry['pfn']},{entry['bop']},"
                              f"{entry['direction']},{entry['probability']}\n")
    capsys.readouterr()
    rc = cli.main([command, "--config", fast_config_file(tmp_path),
                   "--checkpoint", os.path.join(fast_trained, "checkpoint.qnn"),
                   "--profile", str(profile)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(profile) in err and f"{field} {entry[field]}" in err
    assert not os.path.exists(tmp_path / "search.json")
    assert not os.path.exists(tmp_path / "report.json")


@pytest.mark.parametrize("probability",
                         ["-0.5", "7.0", "nan", "-inf", "0.0", "0.5"])
def test_profile_probability_outside_unit_interval_is_refused(tmp_path,
                                                             probability):
    # cells flip deterministically: 1.0 is the one probability a file holds
    path = tmp_path / "profile.csv"
    path.write_text("pfn,bop,direction,probability\n3,5,0,1.0\n4,6,1,1.0\n"
                    f"9,2,1,{probability}\n")
    with pytest.raises(ValueError,
                       match=rf"entry 3 \(.*probability {probability}\)"):
        FlipProfile.load_csv(str(path))


@pytest.mark.parametrize("command", ["search", "exploit"])
@pytest.mark.parametrize("direction", ["same", "other"])
def test_repeated_profile_location_exits_config(fast_trained, tmp_path, capsys,
                                                command, direction):
    import shutil

    shutil.copy(os.path.join(fast_trained, "geometry.txt"), tmp_path)
    profile = tmp_path / "profile.csv"
    with open(os.path.join(fast_trained, "profile.csv")) as fh:
        lines = fh.read().splitlines()
    pfn, bop, d, prob = lines[1].split(",")
    d = d if direction == "same" else str(1 - int(d))
    lines.append(",".join([pfn, bop, d, prob]))
    profile.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main([command, "--config", fast_config_file(tmp_path),
                   "--checkpoint", os.path.join(fast_trained, "checkpoint.qnn"),
                   "--profile", str(profile)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"entry {len(lines) - 1} repeats the location pfn {pfn}, bop {bop}" in err
    assert not os.path.exists(tmp_path / "search.json")
    assert not os.path.exists(tmp_path / "report.json")


def _load_tracer():
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("key,value", [
    ("test_per_class", 0), ("train_per_class", 0), ("blob_noise", -1),
])
def test_invalid_dataset_setting_exits_config(tmp_path, capsys, key, value):
    out = tmp_path / "t"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in
                                 fast_overrides(str(out), **{key: value}).items())
                       + "\n")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not os.path.exists(out / "checkpoint.qnn")


@pytest.mark.parametrize("command", [["search"], ["exploit"], ["template"],
                                     ["random-baseline"],
                                     ["defense", "--mode", "topn"]])
@pytest.mark.parametrize("setting", [{"blob_shape": "1 4 4"}, {"classes": 3}],
                         ids=["input-shape", "class-count"])
def test_dataset_that_does_not_fit_the_checkpoint_exits_config(
        fast_trained, tmp_path, capsys, command, setting):
    out = tmp_path / "o"
    out.mkdir()
    for name in ("checkpoint.qnn", "profile.csv", "geometry.txt"):
        with open(os.path.join(fast_trained, name), "rb") as src:
            (out / name).write_bytes(src.read())
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in
                                 fast_overrides(str(out), **setting).items())
                       + "\n")
    capsys.readouterr()
    assert cli.main(command + ["--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert "the checkpoint takes inputs" in capsys.readouterr().err


def test_blob_resnet_quantizer_collapse_exits_infeasible(tmp_path, capsys):
    # a training step leaves a layer with no positive weight, which the
    # max-based quantizer step cannot encode
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"seed = 7\narch = blob_resnet\ngeometry = desk\n"
                       f"out = {tmp_path / 'r'}\n")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfgfile)]) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "training failure: training stopped in epoch" in err
    assert "step size would be <= 0" in err


@pytest.mark.parametrize("target_class", [-1, 0])
def test_chains_of_one_search_share_a_session(fast_trained, tmp_path,
                                              monkeypatch, target_class):
    from flipsim import search

    passes = []
    real_pass = search.search_pass

    def spy(*args):
        passes.append(args[0])
        return real_pass(*args)

    monkeypatch.setattr(search, "search_pass", spy)
    cfg = cli.make_config(overrides=fast_overrides(
        str(tmp_path), chains=3, target_class=target_class))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        chains, _ = cli.cmd_search(
            cfg, checkpoint=os.path.join(fast_trained, "checkpoint.qnn"),
            profile_path=os.path.join(fast_trained, "profile.csv"))
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    chain_span = ("search.search_chain" if target_class < 0
                  else "search.search_chain_targeted")
    assert names.count(chain_span) == len(chains) == 3
    assert names.count("search.ProfileView_init") == 1
    # one clean pass, then one pass per committed step
    assert len(passes) == 1 + sum(len(c) for c in chains)


_RECORD = {"page": 1, "bop": 5, "mode": 0, "expected_acc": 0.5}


@pytest.mark.parametrize("line", [
    "{not json",
    json.dumps({k: v for k, v in _RECORD.items() if k != "mode"}),
    json.dumps({**_RECORD, "page": 0}),
], ids=["not-json", "no-mode", "page-0"])
def test_malformed_chain_exits_config(fast_trained, tmp_path, capsys, line):
    chain = tmp_path / "bad_chain.jsonl"
    chain.write_text(json.dumps(_RECORD) + "\n" + line + "\n")
    capsys.readouterr()
    rc = cli.main(["exploit", "--config", fast_config_file(tmp_path),
                   "--checkpoint", os.path.join(fast_trained, "checkpoint.qnn"),
                   "--profile", os.path.join(fast_trained, "profile.csv"),
                   "--chain", str(chain)])
    assert rc == cli.EXIT_CONFIG
    assert str(chain) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "report.json")


@pytest.mark.parametrize("key, value", [
    ("page", 1.9), ("bop", True), ("mode", "0"),
    ("expected_acc", float("nan")), ("expected_acc", "0.5"),
], ids=["fractional-page", "bool-bop", "string-mode", "nan-metric",
        "string-metric"])
def test_chain_record_of_the_wrong_json_type_exits_config(
        fast_trained, tmp_path, capsys, key, value):
    # one record, so no other refusal (a page targeted twice) can answer
    chain = tmp_path / "bad_chain.jsonl"
    chain.write_text(json.dumps({**_RECORD, key: value}) + "\n")
    with pytest.raises(ValueError, match=f"^{key} "):
        read_chain(str(chain))
    capsys.readouterr()
    rc = cli.main(["exploit", "--config", fast_config_file(tmp_path),
                   "--checkpoint", os.path.join(fast_trained, "checkpoint.qnn"),
                   "--profile", os.path.join(fast_trained, "profile.csv"),
                   "--chain", str(chain)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(chain) in err and key in err
    assert not os.path.exists(tmp_path / "report.json")


@pytest.mark.parametrize("flags, key", [
    (["--flips", "-1"], "flips"),
    (["--trials", "-2"], "trials"),
    (["--trials", "0"], "trials"),
], ids=["flips-negative", "trials-negative", "trials-zero"])
def test_invalid_random_baseline_counts_exit_config(fast_trained, tmp_path,
                                                    capsys, flags, key):
    capsys.readouterr()
    rc = cli.main(["random-baseline", "--config", fast_config_file(tmp_path),
                   "--checkpoint", os.path.join(fast_trained, "checkpoint.qnn")]
                  + flags)
    assert rc == cli.EXIT_CONFIG
    assert f"{key} must be" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "random_baseline.json")


def test_console_script_resolves_and_prints_help(capsys):
    # Python 3.10 has no tomllib, so the one table is read with a regex
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path) as fh:
        table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", fh.read(),
                          re.M | re.S).group(1)
    scripts = dict(re.findall(r'^\s*([\w-]+)\s*=\s*"([^"]+)"', table, re.M))
    module, name = scripts["flipsim"].split(":")
    main = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: flipsim")


@pytest.mark.parametrize("argv", [
    ["search", "--seed", "x"],
    ["search", "--bogus"],
    [],
    # sensitivity ignores the rate, so it takes no --rate flag
    ["sensitivity", "--rate", "0.5"],
])
def test_malformed_command_line_exits_config(argv, capsys):
    # argparse's own code is 2, which means an infeasible chain here
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_runs_without_warning():
    # the package must not import cli itself, or ``-m flipsim.cli`` runs a
    # second copy of the module and warns about it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                    if p]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "flipsim.cli",
         "--help"], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_search_and_exploit_on_another_geometry_exit_config(pipeline_out,
                                                           tmp_path, capsys):
    import shutil

    out = tmp_path / "geo"
    out.mkdir()
    shutil.copy(os.path.join(pipeline_out, "checkpoint.qnn"), out)

    def config_file(banks):
        path = tmp_path / f"banks{banks}.cfg"
        path.write_text(f"out = {out}\nseed = 4\ngeometry = desk\nbanks = {banks}\n")
        return str(path)

    assert cli.main(["template", "--config", config_file(4)]) == cli.EXIT_OK
    # the profile's frames and rows belong to 4 banks, not 2
    capsys.readouterr()
    assert cli.main(["search", "--config", config_file(2)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "banks_per_dimm=4" in err and "banks_per_dimm=2" in err
    for name in ("search.json", "chain_1.jsonl", "trace_1.csv"):
        assert not os.path.exists(out / name), name
    assert cli.main(["search", "--config", config_file(4)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["exploit", "--config", config_file(2)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "banks_per_dimm=4" in err and "banks_per_dimm=2" in err
    assert not os.path.exists(out / "report.json")


@pytest.mark.parametrize("command", ["search", "exploit"])
def test_a_seed_other_than_the_templated_one_exits_config(
        pipeline_out, tmp_path, capsys, monkeypatch, command):
    # geometry.txt records the cell and hammer seeds of the DRAM the profile
    # was templated on; a run with another master seed has other cells
    out = tmp_path / "o"

    def no_provision(*args):
        raise AssertionError("the seed must be refused before any DRAM is built")

    monkeypatch.setattr(cli, "provision", no_provision)
    flags = ["--checkpoint", os.path.join(pipeline_out, "checkpoint.qnn"),
             "--profile", os.path.join(pipeline_out, "profile.csv")]
    if command == "exploit":
        flags += ["--chain", os.path.join(pipeline_out, "chain_1.jsonl")]
    capsys.readouterr()
    rc = cli.main([command, "--seed", "5", "--out", str(out)] + flags)
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cell_seed = 4003" in err and "5003" in err and "geometry.txt" in err
    assert not out.exists()


def test_stages_write_nothing_and_return_what_the_commands_write(
        pipeline_out, desk_cfg, tmp_path):
    # pipeline_out holds what cmd_search and cmd_exploit wrote on desk_cfg,
    # whose rate of 1 samples the whole profile
    from dataclasses import replace

    model, dataset, profile = cli._load_stage_inputs(replace(desk_cfg,
                                                             out=pipeline_out))
    nowhere = replace(desk_cfg, out=str(tmp_path / "nowhere"))
    chains, info = experiment.search_stage(nowhere, model, dataset, profile)
    report, plan_rows = experiment.exploit_stage(
        nowhere, model, dataset, profile, chains[0].records(),
        experiment.provision(nowhere, model))
    assert not os.path.exists(nowhere.out)
    written = tmp_path / "written"
    cli._write_search(str(written), chains, info)
    cli._write_exploit(str(written), report, plan_rows)
    assert sorted(os.listdir(written)) == ["chain_1.jsonl", "plan.json",
                                           "report.json", "search.json",
                                           "trace_1.csv"]
    for name in os.listdir(written):
        with open(os.path.join(pipeline_out, name), "rb") as fh:
            assert (written / name).read_bytes() == fh.read(), name


def test_pipeline_outputs_exist(pipeline_out):
    for name in ("checkpoint.qnn", "train.json", "profile.csv",
                 "template.json", "geometry.txt", "chain_1.jsonl",
                 "trace_1.csv", "search.json", "report.json", "plan.json"):
        assert os.path.exists(os.path.join(pipeline_out, name)), name


def test_pipeline_report_consistency(pipeline_out):
    with open(os.path.join(pipeline_out, "report.json")) as fh:
        report = json.load(fh)
    assert report["final_metric"] == report["expected_metric"]
    assert report["flips_achieved"] == report["flips_attempted"]
    assert report["template_status"] == "valid"
    # the report owns the hammer-time estimate: one per merged action
    with open(os.path.join(pipeline_out, "plan.json")) as fh:
        actions = {row["action"] for row in json.load(fh)}
    assert report["hammer"]["actions"] == len(actions)
    assert report["hammer"]["seconds_estimate"] == \
        pytest.approx(0.19 * len(actions))
    with open(os.path.join(pipeline_out, "search.json")) as fh:
        search_info = json.load(fh)
    assert search_info["chains"][0]["feasible"]
    assert search_info["chains"][0]["terminal_metric"] <= 0.11


def test_trace_csv_columns(pipeline_out):
    with open(os.path.join(pipeline_out, "trace_1.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[:3] == ["iteration", "candidates", "layer"]
    assert "loss" in header and "accuracy" in header


def test_dual_channel_reboot_exploit_is_exact(pipeline_out, tmp_path, desk_cfg):
    # the two-segment page layout through template, search, a reboot that
    # obsoletes the profile, retemplating and the exploit
    from dataclasses import replace

    cfg = replace(desk_cfg, out=str(tmp_path / "dual"), channels=2,
                  reboot_seed=777)
    checkpoint = os.path.join(pipeline_out, "checkpoint.qnn")
    cli.cmd_template(cfg, checkpoint)
    chains, _ = cli.cmd_search(cfg, checkpoint)
    assert chains[0].feasible and len(chains[0])
    report = cli.cmd_exploit(cfg, checkpoint)
    assert report["final_metric"] == report["expected_metric"]
    assert report["template_status"] == "obsolete"
    assert report["retemplate"]["cells_retested"] > 0


def test_noise_mode_surfaces_integrity_error(pipeline_out, tmp_path, desk_cfg):
    from dataclasses import replace

    cfg = replace(desk_cfg, out=str(tmp_path / "noisy"),
                  noise_allocations=1)
    os.makedirs(cfg.out, exist_ok=True)
    with pytest.raises(cli.MappingMismatch):
        cli.cmd_exploit(cfg,
                        checkpoint=os.path.join(pipeline_out, "checkpoint.qnn"),
                        profile_path=os.path.join(pipeline_out, "profile.csv"),
                        chain_path=os.path.join(pipeline_out, "chain_1.jsonl"))


def test_noise_beyond_freed_frames_exits_integrity(pipeline_out, tmp_path,
                                                   capsys):
    # foreign allocations take every freed frame, so the first victim page
    # finds the page cache empty
    chain = os.path.join(pipeline_out, "chain_1.jsonl")
    with open(chain) as fh:
        flips = sum(1 for line in fh if line.strip())
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"seed = 4\nout = {tmp_path / 'drained'}\n"
                       f"noise_allocations = {flips + 1}\n")
    os.makedirs(tmp_path / "drained")
    capsys.readouterr()
    rc = cli.main(["exploit", "--config", str(cfgfile),
                   "--checkpoint", os.path.join(pipeline_out, "checkpoint.qnn"),
                   "--profile", os.path.join(pipeline_out, "profile.csv"),
                   "--chain", chain])
    assert rc == cli.EXIT_INTEGRITY
    assert "found no free frame" in capsys.readouterr().err


def test_exploit_plans_against_configured_recycling_threshold(pipeline_out, tmp_path,
                                                              desk_cfg):
    from dataclasses import replace

    cfg = replace(desk_cfg, out=str(tmp_path / "tight"), recycling_threshold=2)
    os.makedirs(cfg.out, exist_ok=True)
    # release_and_remap's message: the chain is refused before any frame is freed
    with pytest.raises(cli.ThresholdViolation, match="would cross the recycling"):
        cli.cmd_exploit(cfg,
                        checkpoint=os.path.join(pipeline_out, "checkpoint.qnn"),
                        profile_path=os.path.join(pipeline_out, "profile.csv"),
                        chain_path=os.path.join(pipeline_out, "chain_1.jsonl"))


def pipeline_chain(pipeline_out):
    with open(os.path.join(pipeline_out, "chain_1.jsonl")) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def exploit_refused_before_provision(pipeline_out, tmp_path, capsys,
                                     monkeypatch, records):
    """Run ``exploit`` on ``records``; it must exit 4 before provisioning.
    Returns its stderr."""
    chain = tmp_path / "edited.jsonl"
    chain.write_text("".join(json.dumps(r) + "\n" for r in records))
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"seed = 4\nout = {tmp_path}\n")

    def no_provision(*args):
        raise AssertionError("the chain must be refused before provisioning")

    monkeypatch.setattr(cli, "provision", no_provision)
    capsys.readouterr()
    rc = cli.main(["exploit", "--config", str(cfgfile),
                   "--checkpoint", os.path.join(pipeline_out, "checkpoint.qnn"),
                   "--profile", os.path.join(pipeline_out, "profile.csv"),
                   "--chain", str(chain)])
    assert rc == cli.EXIT_CONFIG
    assert not os.path.exists(tmp_path / "report.json")
    return capsys.readouterr().err


@pytest.mark.parametrize("edit", ["move-second-onto-first", "repeat-first"])
def test_exploit_refuses_a_victim_page_twice(pipeline_out, tmp_path, capsys,
                                             monkeypatch, edit):
    records = pipeline_chain(pipeline_out)
    if edit == "repeat-first":
        records.insert(1, records[0])
    else:
        records[1]["page"] = records[0]["page"]
    err = exploit_refused_before_provision(pipeline_out, tmp_path, capsys,
                                           monkeypatch, records)
    assert f"victim page {records[0]['page']}" in err


@pytest.mark.parametrize("edit", ["page-past-image", "bop-in-padding"])
def test_exploit_refuses_a_target_outside_the_image(pipeline_out, tmp_path,
                                                    capsys, monkeypatch, edit):
    image = WeightImage(qnn.load_checkpoint(
        os.path.join(pipeline_out, "checkpoint.qnn")))
    records = pipeline_chain(pipeline_out)
    if edit == "page-past-image":
        i, page, bop = 1, 999, records[1]["bop"]
    else:
        # the first bit after the weight block, on its last page (moved
        # onto the record already there, if any)
        assert image.weight_bytes % 4096
        page, bop = image.page_count, image.weight_bytes % 4096 * 8
        i = next((j for j, r in enumerate(records) if r["page"] == page), 1)
    records[i].update(page=page, bop=bop)
    err = exploit_refused_before_provision(pipeline_out, tmp_path, capsys,
                                           monkeypatch, records)
    assert f"chain record {i + 1}: " in err


@pytest.mark.parametrize("mode, aggressor_rows, channels", [
    ("double", 2, 1), ("single", 1, 1), ("double", 2, 2), ("single", 1, 2),
], ids=["double-2", "single-1", "double-2-dual", "single-1-dual"])
def test_pages_retained_counts_each_aggressor_row(mode, aggressor_rows, channels):
    state = tiny_dram(hammer_mode=mode, channels=channels)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    ppn = state.config.row_pfns(0, 7)[0]
    s, row, stripe, _, _ = oracles.bit_addr(state.config, ppn, 5)
    tb = TargetBit(1, 5, 0)
    plan = MappingPlan([PlanEntry(tb, ppn, s, row, stripe)])
    actions = plan_aggressors(plan, state)
    retained = experiment._pages_retained(state, {1: ppn}, actions)
    assert retained == 1 + aggressor_rows * state.config.in_row_pages


def test_random_baseline_reports_flips_made(fast_trained, tmp_path):
    cfg = cli.make_config(overrides=fast_overrides(str(tmp_path)))
    checkpoint = os.path.join(fast_trained, "checkpoint.qnn")
    total_bits = WeightImage(qnn.load_checkpoint(checkpoint)).weight_bytes * 8
    drops, info = cli.cmd_random_flip_baseline(cfg, checkpoint,
                                               n_flips=total_bits + 5, trials=1)
    assert info["flips"] == total_bits
    with open(tmp_path / "random_baseline.json") as fh:
        assert json.load(fh)["flips"] == total_bits


def test_random_baseline_flips_only_the_low_bits_below_8_bits(tmp_path,
                                                              monkeypatch):
    cfg = cli.make_config(overrides=fast_overrides(str(tmp_path), bit_width=4))
    checkpoint, _ = cli.cmd_train(cfg)
    bits = []
    flip_bit = qnn.QuantizedModel.flip_bit

    def logged(self, ref):
        bits.append(ref.bit)
        return flip_bit(self, ref)

    monkeypatch.setattr(qnn.QuantizedModel, "flip_bit", logged)
    total_bits = WeightImage(qnn.load_checkpoint(checkpoint)).weight_bytes * 4
    drops, info = cli.cmd_random_flip_baseline(cfg, checkpoint, n_flips=200,
                                               trials=2)
    assert len(drops) == 2 and info["flips"] == 200
    assert len(bits) == 400 and max(bits) < 4
    _, info = cli.cmd_random_flip_baseline(cfg, checkpoint,
                                           n_flips=total_bits + 1, trials=1)
    assert info["flips"] == total_bits


@pytest.mark.parametrize("cut", ["weight-block", "header", "magic", "bit-width",
                                 "bias", "tag", "kernel"])
def test_malformed_checkpoint_exits_config(fast_trained, tmp_path, capsys, cut):
    with open(os.path.join(fast_trained, "checkpoint.qnn"), "rb") as fh:
        blob = fh.read()
    model = qnn.model_from_bytes(blob)
    model.layers[-1].bias = model.layers[-1].bias[:1]  # one bias, ten outputs
    tag_at = 20 + 4 * len(model.input_shape)  # the first layer record's tag
    spec = qnn.lenet_like(model.input_shape, model.class_count)
    lenet = qnn.checkpoint_bytes(spec.assemble(spec.init_params(0)))
    kh_at = tag_at + 9  # the first conv record's kh, after its two channel counts
    blob = {"weight-block": blob[:len(blob) - 1000], "header": blob[:30],
            "magic": b"QNN0" + blob[4:],
            "bit-width": blob[:4] + struct.pack("<I", 9) + blob[8:],
            "bias": qnn.checkpoint_bytes(model),
            "tag": blob[:tag_at] + bytes([6]) + blob[tag_at + 1:],
            "kernel": lenet[:kh_at] + struct.pack("<I", 40) + lenet[kh_at + 4:]}[cut]
    bad = tmp_path / "bad.qnn"
    bad.write_bytes(blob)
    capsys.readouterr()
    rc = cli.main(["search", "--config", fast_config_file(tmp_path),
                   "--checkpoint", str(bad),
                   "--profile", os.path.join(fast_trained, "profile.csv")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{bad}: malformed checkpoint" in err
    assert {"bit-width": "bit width 9", "bias": "bias", "tag": "layer tag 6",
            "kernel": "kernel 40 is wider than the padded input 10"}.get(cut, "") in err
    assert not os.path.exists(tmp_path / "search.json")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", ["step", "bias"])
def test_non_finite_checkpoint_step_or_bias_exits_config(fast_trained, tmp_path,
                                                         capsys, field, value):
    # a NaN step passed the old `delta_w <= 0` check, and the search then
    # reported a 0-flip chain as infeasible
    with open(os.path.join(fast_trained, "checkpoint.qnn"), "rb") as fh:
        blob = fh.read()
    dense = next(layer for layer in qnn.model_from_bytes(blob).layers
                 if isinstance(layer, qnn.Dense))
    old = struct.pack("<d", dense.delta_w if field == "step"
                      else dense.bias[np.argmax(np.abs(dense.bias))])
    assert blob.count(old) == 1
    bad = tmp_path / "bad.qnn"
    bad.write_bytes(blob.replace(old, struct.pack("<d", float(value))))
    capsys.readouterr()
    rc = cli.main(["search", "--config", fast_config_file(tmp_path),
                   "--checkpoint", str(bad),
                   "--profile", os.path.join(fast_trained, "profile.csv")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{bad}: malformed checkpoint" in err and "not finite" in err
    assert not os.path.exists(tmp_path / "search.json")


def test_exploit_refuses_a_chain_bit_above_the_bit_width(fast_trained, tmp_path,
                                                         capsys):
    narrow = tmp_path / "narrow"
    checkpoint, _ = cli.cmd_train(cli.make_config(
        overrides=fast_overrides(str(narrow), bit_width=4)))
    chain = tmp_path / "chain.jsonl"
    # bop 7340 is bit 4 of weight byte 917: outside a 4-bit code
    chain.write_text(json.dumps({**_RECORD, "bop": 7340}) + "\n")
    capsys.readouterr()
    rc = cli.main(["exploit", "--config", fast_config_file(tmp_path),
                   "--checkpoint", checkpoint,
                   "--profile", os.path.join(fast_trained, "profile.csv"),
                   "--chain", str(chain)])
    assert rc == cli.EXIT_CONFIG
    assert "chain record 1: (1, 7340) is bit 4" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "plan.json")
    assert not os.path.exists(tmp_path / "report.json")


@pytest.mark.parametrize("name", ["config", "geometry"])
def test_line_without_equals_sign_exits_config(fast_trained, tmp_path, capsys,
                                               name):
    import shutil
    from pathlib import Path

    for kept in ("profile.csv", "geometry.txt"):
        shutil.copy(os.path.join(fast_trained, kept), tmp_path)
    config = fast_config_file(tmp_path)
    path = Path(config) if name == "config" else tmp_path / "geometry.txt"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(" =", "", 1)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["search", "--config", config,
                   "--checkpoint", os.path.join(fast_trained, "checkpoint.qnn")])
    assert rc == cli.EXIT_CONFIG
    assert f"line 3, {lines[2]!r}, is not 'key = value'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "search.json")


def test_random_baseline_csv(tmp_path, pipeline_out, desk_cfg):
    from dataclasses import replace

    cfg = replace(desk_cfg, out=str(tmp_path / "rb"))
    drops, info = cli.cmd_random_flip_baseline(
        cfg, checkpoint=os.path.join(pipeline_out, "checkpoint.qnn"),
        n_flips=0, trials=3)
    assert drops == [0.0, 0.0, 0.0]
    assert info["median_drop"] == 0.0


@pytest.fixture(scope="module")
def three_chains(tmp_path_factory, pipeline_out, desk_cfg):
    """``(cfg, chains)``: a three-chain desk search on the pipeline's inputs."""
    from dataclasses import replace

    cfg = replace(desk_cfg, out=str(tmp_path_factory.mktemp("multi")), chains=3)
    chains, _ = cli.cmd_search(
        cfg, checkpoint=os.path.join(pipeline_out, "checkpoint.qnn"),
        profile_path=os.path.join(pipeline_out, "profile.csv"))
    return cfg, chains


def test_three_alternative_chains_are_disjoint(three_chains, pipeline_out):
    cfg, chains = three_chains
    assert len(chains) == 3
    assert all(c.feasible for c in chains)
    # no bit twice; profile locations may repeat, since each chain is
    # planned on its own and replays onto the frames its search placed
    model, _ = cli._load_checkpoint(cfg, os.path.join(pipeline_out,
                                                      "checkpoint.qnn"))
    state = cli.provision(cfg, model)[0]
    profile = FlipProfile.load_csv(os.path.join(pipeline_out, "profile.csv"))
    refs = set()
    for chain in chains:
        these = {s.ref for s in chain.steps}
        assert not (these & refs)
        refs |= these
        plan = plan_mapping(chain.targets(), profile, state)
        assert [e.ppn for e in plan.entries] == [s.pfn for s in chain.steps]
    for i in (1, 2, 3):
        assert os.path.exists(os.path.join(cfg.out, f"chain_{i}.jsonl"))


def test_trace_rows_are_the_chain_steps(three_chains):
    import csv

    cfg, chains = three_chains
    for i, chain in enumerate(chains, 1):
        with open(os.path.join(cfg.out, f"trace_{i}.csv")) as fh:
            rows = list(csv.DictReader(fh))
        records = read_chain(os.path.join(cfg.out, f"chain_{i}.jsonl"))
        assert len(rows) == len(records) == len(chain) > 0
        for j, (row, rec, step) in enumerate(zip(rows, records, chain.steps), 1):
            assert {k: int(row[k]) for k in ("page", "bop", "mode")} == \
                {k: rec[k] for k in ("page", "bop", "mode")}
            assert float(row["metric"]) == rec["expected_acc"] == step.metric
            assert [int(row[k]) for k in ("iteration", "candidates", "layer",
                                          "index", "bit", "page", "bop", "mode")] \
                == [j, step.candidates, step.ref.layer, step.ref.index,
                    step.ref.bit, step.page, step.bop, step.mode]
            assert (float(row["loss"]), float(row["accuracy"])) == (step.loss,
                                                                   step.accuracy)


def test_sensitivity_command_reports_all_rates(tmp_path, pipeline_out, desk_cfg,
                                              monkeypatch, capsys):
    from collections import Counter
    from dataclasses import replace

    from flipsim import dram

    calls = Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    spy(FlipProfile, "load_csv")
    spy(qnn, "load_checkpoint")
    spy(dram, "load_geometry")
    spy(cli, "sample_profile")
    spy(cli, "provision")
    checkpoint = os.path.join(pipeline_out, "checkpoint.qnn")
    profile = os.path.join(pipeline_out, "profile.csv")
    cfg = replace(desk_cfg, out=str(tmp_path / "sens"))
    os.makedirs(cfg.out, exist_ok=True)
    info = cli.cmd_sensitivity(cfg, checkpoint=checkpoint, profile_path=profile)
    # the sweep reads each input once and provisions its DRAM once,
    # whatever the number of rates, and draws one profile sample per rate
    # for both stages
    assert calls == {"load_csv": 1, "load_checkpoint": 1, "load_geometry": 1,
                     "sample_profile": 4, "provision": 1}
    rates = [row["rate"] for row in info["rates"]]
    assert rates == [1.0, 0.1, 0.01, 0.001]
    assert info["rates"][0]["feasible"]
    for row in info["rates"]:
        assert "feasible" in row and "flips" in row
        if row["feasible"] and row["flips"]:
            assert row["final_metric"] == row["terminal_metric"]
    assert os.path.exists(os.path.join(cfg.out, "sensitivity.json"))

    # chains handed over in memory give the files the two commands write
    assert info["rates"][1]["feasible"]
    solo = replace(desk_cfg, out=str(tmp_path / "solo"), rate=0.1)
    cli.cmd_search(solo, checkpoint, profile)
    cli.cmd_exploit(solo, checkpoint, profile)
    for name in ("chain_1.jsonl", "trace_1.csv", "search.json", "plan.json",
                 "report.json"):
        with open(os.path.join(cfg.out, "rate_1", name), "rb") as fh:
            swept = fh.read()
        with open(os.path.join(solo.out, name), "rb") as fh:
            assert fh.read() == swept, name

    # a profile of another geometry stops the sweep before its first search
    out = tmp_path / "geo"
    cfgfile = tmp_path / "banks4.cfg"
    cfgfile.write_text(f"out = {out}\nseed = 4\nbanks = 4\n")
    capsys.readouterr()
    rc = cli.main(["sensitivity", "--config", str(cfgfile), "--checkpoint",
                   checkpoint, "--profile", profile])
    assert rc == cli.EXIT_CONFIG
    assert "banks_per_dimm=4" in capsys.readouterr().err
    assert not os.path.exists(out / "rate_0")


def test_sensitivity_keeps_the_study_when_a_rate_cannot_be_planned(
        tmp_path, pipeline_out, desk_cfg, capsys):
    # on two channels with a reboot before the exploit, the rate-0.1 chain's
    # first target has no attacker frame left after the retemplate
    from dataclasses import replace

    checkpoint = os.path.join(pipeline_out, "checkpoint.qnn")
    cfg = replace(desk_cfg, banks=4, channels=2, reboot_seed=777,
                  out=str(tmp_path / "sens"))
    cli.cmd_template(cfg, checkpoint)
    info = cli.cmd_sensitivity(cfg, checkpoint=checkpoint)
    rows = info["rates"]
    assert [row["rate"] for row in rows] == [1.0, 0.1, 0.01, 0.001]
    assert rows[0]["final_metric"] == rows[0]["terminal_metric"]
    refused = rows[1]
    assert refused["feasible"] and "final_metric" not in refused
    assert refused["plan_error"] == ("target (page 50, bop 1271, mode 0) "
                                     "unsatisfiable: no attacker frame "
                                     "matches bop and direction")
    # the refused rate keeps its search files and writes no exploit file
    assert sorted(os.listdir(tmp_path / "sens" / "rate_1")) == [
        "chain_1.jsonl", "search.json", "trace_1.csv"]
    with open(tmp_path / "sens" / "sensitivity.json") as fh:
        assert json.load(fh) == info

    # the command exits 0 and prints the study
    cfgfile = tmp_path / "dual.cfg"
    cfgfile.write_text(f"out = {tmp_path / 'sens'}\nseed = 4\nbanks = 4\n"
                       "channels = 2\nreboot_seed = 777\n")
    capsys.readouterr()
    assert cli.main(["sensitivity", "--config", str(cfgfile), "--checkpoint",
                     checkpoint]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == info


def _assert_same_provision(got, want):
    state, image, placement, attacker = got
    w_state, w_image, w_placement, w_attacker = want
    assert (placement, attacker, state.config) == (w_placement, w_attacker,
                                                   w_state.config)
    for name in ("cset", "crow", "cbitcol", "cbase_dir", "ccur_dir", "csscap",
                 "_row_start", "owner"):
        a, b = getattr(state, name), getattr(w_state, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert a.flags.writeable == b.flags.writeable, name
    assert state._rows.keys() == w_state._rows.keys()
    for key, buf in state._rows.items():
        assert np.array_equal(buf, w_state._rows[key]), key
    pages = range(1, image.page_count + 1)
    assert [image.page_bytes(p) for p in pages] == [w_image.page_bytes(p)
                                                     for p in pages]
    assert (image.weight_bytes, image.layer_offsets) == (w_image.weight_bytes,
                                                         w_image.layer_offsets)


def test_deep_copied_provision_equals_a_fresh_one(desk_cfg, desk_model):
    import copy

    clean = cli.provision(desk_cfg, desk_model)
    copied = copy.deepcopy(clean)
    _assert_same_provision(copied, cli.provision(desk_cfg, desk_model))
    # the copy shares only the read-only cell arrays with the clean state
    state = copied[0]
    for name, value in vars(state).items():
        if isinstance(value, np.ndarray):
            shared = np.shares_memory(value, getattr(clean[0], name))
            assert shared == (not value.flags.writeable), name
    # an exploit's changes to the copy leave the clean result as provisioned
    state.reboot(777)
    state.write_page(0, bytes(range(256)) * 16)
    state.set_owner([1, 2], 0)
    copied[1].apply_flips([TargetBit(1, 0, 1 - copied[1].get_bit(1, 0))])
    assert copied[1].page_bytes(1) != clean[1].page_bytes(1)
    copied[2][1] = 0
    _assert_same_provision(clean, cli.provision(desk_cfg, desk_model))


def test_defense_layer_lock_reports_both_sides(tmp_path, pipeline_out, desk_cfg):
    import shutil
    from dataclasses import replace

    out = str(tmp_path / "ll")
    os.makedirs(out, exist_ok=True)
    shutil.copy(os.path.join(pipeline_out, "checkpoint.qnn"),
                os.path.join(out, "checkpoint.qnn"))
    cfg = replace(desk_cfg, out=out)
    info = cli.cmd_defense(cfg, "layer-lock")
    assert "unlocked" in info and "locked_first_last" in info
    assert info["unlocked"]["flips"] >= 1
    assert os.path.exists(os.path.join(out, "defense_layer-lock.json"))


def test_defense_topn_writes_curves(tmp_path, pipeline_out, desk_cfg):
    import shutil
    from dataclasses import replace

    out = str(tmp_path / "topn")
    os.makedirs(out, exist_ok=True)
    shutil.copy(os.path.join(pipeline_out, "checkpoint.qnn"),
                os.path.join(out, "checkpoint.qnn"))
    cfg = replace(desk_cfg, out=out)
    info = cli.cmd_defense(cfg, "topn")
    assert len(info["rounds"]) == 10
    assert info["all_rounds_succeed"]
    curves = os.path.join(out, "defense_topn_curves.csv")
    with open(curves) as fh:
        assert fh.readline().strip() == "round,flip,metric"
        assert len(fh.readlines()) >= 10


def test_defense_width_smoke(tmp_path):
    cfg = cli.make_config(overrides={
        "out": str(tmp_path / "w"), "seed": 11, "hidden": "64 32",
        "epochs": 1, "accuracy_floor": 0, "p": 8, "max_flips": 3,
        "eval_batch": 64})
    os.makedirs(cfg.out, exist_ok=True)
    info = cli.cmd_defense(cfg, "width")
    assert len(info["per_seed"]) == 5
    assert os.path.exists(os.path.join(cfg.out, "defense_width.json"))
