"""Command surface: config parsing, outputs, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from conftest import tiny_dram
from flipsim import cli, qnn
from flipsim.dram import OWNER_ATTACKER, FlipProfile
from flipsim.image import TargetBit, WeightImage
from flipsim.massage import MappingPlan, PlanEntry, plan_aggressors


def fast_overrides(out, **extra):
    base = {"out": out, "seed": 4, "hidden": "64 32", "epochs": 1,
            "accuracy_floor": "0", "geometry": "desk", "density": "dense",
            "density_count": 0, "eval_batch": 64, "p": 8, "max_flips": 4}
    base.update(extra)
    return base


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


@pytest.mark.parametrize("text", [
    "pfn,bop,dir,probability\n1,2,0,1.0\n",
    "pfn,bop,direction,probability\n1,x,0,1.0\n",
], ids=["header", "non-integer-field"])
def test_malformed_profile_exits_config(fast_trained, tmp_path, capsys, text):
    profile = tmp_path / "bad_profile.csv"
    profile.write_text(text)
    capsys.readouterr()
    rc = cli.main(["search", "--config", fast_config_file(tmp_path),
                   "--checkpoint", os.path.join(fast_trained, "checkpoint.qnn"),
                   "--profile", str(profile)])
    assert rc == cli.EXIT_CONFIG
    assert str(profile) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "search.json")


@pytest.mark.parametrize("command", ["search", "exploit"])
@pytest.mark.parametrize("field", ["pfn", "bop", "direction"])
def test_out_of_range_profile_entry_exits_config(fast_trained, tmp_path, capsys,
                                                 command, field):
    import shutil

    total = cli.dram_config(cli.make_config(
        overrides=fast_overrides(str(tmp_path)))).total_pages
    entry = {"pfn": 7, "bop": 5, "direction": 1}
    entry[field] = {"pfn": total, "bop": 32768, "direction": 7}[field]
    shutil.copy(os.path.join(fast_trained, "geometry.txt"), tmp_path)
    profile = tmp_path / "profile.csv"
    with open(os.path.join(fast_trained, "profile.csv")) as fh:
        text = fh.read()
    profile.write_text(text + f"{entry['pfn']},{entry['bop']},"
                              f"{entry['direction']},1.0\n")
    capsys.readouterr()
    rc = cli.main([command, "--config", fast_config_file(tmp_path),
                   "--checkpoint", os.path.join(fast_trained, "checkpoint.qnn"),
                   "--profile", str(profile)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(profile) in err and f"{field} {entry[field]}" in err
    assert not os.path.exists(tmp_path / "search.json")
    assert not os.path.exists(tmp_path / "report.json")


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


def test_exploit_on_another_geometry_exits_config(pipeline_out, tmp_path, capsys):
    import shutil

    out = tmp_path / "geo"
    out.mkdir()
    shutil.copy(os.path.join(pipeline_out, "checkpoint.qnn"), out)

    def config_file(banks):
        path = tmp_path / f"banks{banks}.cfg"
        path.write_text(f"out = {out}\nseed = 4\ngeometry = desk\nbanks = {banks}\n")
        return str(path)

    assert cli.main(["template", "--config", config_file(4)]) == cli.EXIT_OK
    assert cli.main(["search", "--config", config_file(4)]) == cli.EXIT_OK
    capsys.readouterr()
    # the profile's frames and rows belong to 4 banks, not 2
    assert cli.main(["exploit", "--config", config_file(2)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "banks_per_dimm=4" in err and "banks_per_dimm=2" in err
    assert not os.path.exists(out / "report.json")


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
    # plan_mapping's message: the chain is refused before any frame is freed
    with pytest.raises(cli.ThresholdViolation, match="targets would reach"):
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
    ppn = state.addr.row_pfns(0, 7)[0]
    s, row, stripe, base, span = oracles.bit_addr(state.config, ppn, 5)
    tb = TargetBit(1, 5, 0)
    plan = MappingPlan([PlanEntry(tb, 1, ppn, s, row, base, span, stripe)])
    actions = plan_aggressors(plan, state)
    retained = cli._pages_retained(state, {1: ppn}, actions)
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


@pytest.mark.parametrize("cut", ["weight-block", "header", "magic"])
def test_malformed_checkpoint_exits_config(fast_trained, tmp_path, capsys, cut):
    with open(os.path.join(fast_trained, "checkpoint.qnn"), "rb") as fh:
        blob = fh.read()
    blob = {"weight-block": blob[:len(blob) - 1000], "header": blob[:30],
            "magic": b"QNN0" + blob[4:]}[cut]
    bad = tmp_path / "bad.qnn"
    bad.write_bytes(blob)
    capsys.readouterr()
    rc = cli.main(["search", "--config", fast_config_file(tmp_path),
                   "--checkpoint", str(bad),
                   "--profile", os.path.join(fast_trained, "profile.csv")])
    assert rc == cli.EXIT_CONFIG
    assert f"{bad}: malformed checkpoint" in capsys.readouterr().err


def test_random_baseline_csv(tmp_path, pipeline_out, desk_cfg):
    from dataclasses import replace

    cfg = replace(desk_cfg, out=str(tmp_path / "rb"))
    drops, info = cli.cmd_random_flip_baseline(
        cfg, checkpoint=os.path.join(pipeline_out, "checkpoint.qnn"),
        n_flips=0, trials=3)
    assert drops == [0.0, 0.0, 0.0]
    assert info["median_drop"] == 0.0


def test_three_alternative_chains_are_disjoint(tmp_path, pipeline_out, desk_cfg):
    from dataclasses import replace

    cfg = replace(desk_cfg, out=str(tmp_path / "multi"), chains=3)
    chains, info = cli.cmd_search(
        cfg, checkpoint=os.path.join(pipeline_out, "checkpoint.qnn"),
        profile_path=os.path.join(pipeline_out, "profile.csv"))
    assert len(chains) == 3
    assert all(c.feasible for c in chains)
    refs, locations = set(), set()
    for chain in chains:
        these = {s.ref for s in chain.steps}
        locs = {(s.pfn, s.bop) for s in chain.steps}
        assert not (these & refs)
        assert not (locs & locations)
        refs |= these
        locations |= locs
    for i in (1, 2, 3):
        assert os.path.exists(os.path.join(cfg.out, f"chain_{i}.jsonl"))


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
    checkpoint = os.path.join(pipeline_out, "checkpoint.qnn")
    profile = os.path.join(pipeline_out, "profile.csv")
    cfg = replace(desk_cfg, out=str(tmp_path / "sens"))
    os.makedirs(cfg.out, exist_ok=True)
    info = cli.cmd_sensitivity(cfg, checkpoint=checkpoint, profile_path=profile)
    # the sweep reads each input once, whatever the number of rates, and
    # draws one profile sample per rate for both stages
    assert calls == {"load_csv": 1, "load_checkpoint": 1, "load_geometry": 1,
                     "sample_profile": 4}
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
