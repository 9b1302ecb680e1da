"""Command surface: config parsing, outputs, exit codes."""

import json
import os

import numpy as np
import pytest

from conftest import tiny_dram
from flipsim import cli, qnn
from flipsim.dram import OWNER_ATTACKER, FlipProfile
from flipsim.image import TargetBit
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


@pytest.mark.parametrize("mode, aggressor_rows, channels", [
    ("double", 2, 1), ("single", 1, 1), ("double", 2, 2), ("single", 1, 2),
], ids=["double-2", "single-1", "double-2-dual", "single-1-dual"])
def test_pages_retained_counts_each_aggressor_row(mode, aggressor_rows, channels):
    state = tiny_dram(hammer_mode=mode, channels=channels)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    ppn = state.addr.row_pfns(0, 7)[0]
    s, row, base, span = state.addr.in_row_page_of(ppn, 5)
    _, _, stripe = state.addr.bit_addr(ppn, 5)
    tb = TargetBit(1, 5, 0)
    plan = MappingPlan([PlanEntry(tb, 1, ppn, s, row, base, span, stripe)])
    actions = plan_aggressors(plan, state)
    retained = cli._pages_retained(state, {1: ppn}, actions)
    assert retained == 1 + aggressor_rows * state.config.in_row_pages


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


def test_sensitivity_command_reports_all_rates(tmp_path, pipeline_out, desk_cfg):
    from dataclasses import replace

    cfg = replace(desk_cfg, out=str(tmp_path / "sens"))
    os.makedirs(cfg.out, exist_ok=True)
    info = cli.cmd_sensitivity(
        cfg, checkpoint=os.path.join(pipeline_out, "checkpoint.qnn"),
        profile_path=os.path.join(pipeline_out, "profile.csv"))
    rates = [row["rate"] for row in info["rates"]]
    assert rates == [1.0, 0.1, 0.01, 0.001]
    assert info["rates"][0]["feasible"]
    for row in info["rates"]:
        assert "feasible" in row and "flips" in row
        if row["feasible"] and row["flips"]:
            assert row["final_metric"] == row["terminal_metric"]
    assert os.path.exists(os.path.join(cfg.out, "sensitivity.json"))


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
