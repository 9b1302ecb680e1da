import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from flipsim import cli, experiment, qnn
from flipsim.dram import OWNER_ATTACKER, OWNER_VICTIM, bench, new_dram, template
from flipsim.image import WeightImage

DESK_SEED = 4
DESK_CFG = dict(seed=DESK_SEED)


@pytest.fixture(scope="session")
def desk_cfg():
    return cli.make_config(overrides=dict(DESK_CFG))


@pytest.fixture(scope="session")
def desk_dataset(desk_cfg):
    return experiment.build_dataset(desk_cfg)


@pytest.fixture(scope="session")
def desk_model(desk_cfg, desk_dataset):
    """The frozen desk-scale checkpoint every attack test runs against."""
    spec = experiment.build_model_spec(desk_cfg, desk_dataset)
    train_cfg = qnn.TrainConfig(epochs=desk_cfg.epochs, lr=desk_cfg.lr,
                                momentum=desk_cfg.momentum,
                                accuracy_floor=desk_cfg.accuracy_floor)
    return qnn.train_small(spec, desk_dataset, train_cfg, desk_cfg.train_seed)


@pytest.fixture(scope="session")
def bench_state(desk_cfg, desk_model):
    """Provisioned DRAM: attacker low frames, victim image at the top."""
    state, _, _, _ = experiment.provision(desk_cfg, desk_model)
    return state


@pytest.fixture(scope="session")
def bench_profile(bench_state):
    return template(bench_state)


@pytest.fixture(scope="session")
def pipeline_out(tmp_path_factory, desk_cfg):
    """One full train/template/search/exploit run shared across tests."""
    from dataclasses import replace

    out = str(tmp_path_factory.mktemp("pipeline"))
    cfg = replace(desk_cfg, out=out)
    cli.cmd_train(cfg)
    cli.cmd_template(cfg)
    cli.cmd_search(cfg)
    cli.cmd_exploit(cfg)
    return out


def tiny_dram(cells=None, banks=2, rows=32, hammer_mode="double", channels=1):
    """Small blank DRAM for targeted machinery tests."""
    from flipsim.dram import DramConfig, DramState, _empty_cells

    config = DramConfig(banks_per_dimm=banks, rows_per_bank=rows,
                        hammer_mode=hammer_mode, channels=channels)
    return DramState(config, cells if cells is not None else _empty_cells())


def make_cells(entries):
    """Cell arrays from (set, row, bitcol, direction, sscap) tuples."""
    if not entries:
        from flipsim.dram import _empty_cells
        return _empty_cells()
    s, r, c, d, cap = zip(*entries)
    return (np.array(s, dtype=np.int32), np.array(r, dtype=np.int32),
            np.array(c, dtype=np.int32), np.array(d, dtype=np.int8),
            np.array(cap, dtype=bool))
