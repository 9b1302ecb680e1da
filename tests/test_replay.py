"""A chain the search commits plans on the frames the search placed it on.

The search and the planner share one frame placer, :class:`ProfileView`:
:func:`plan_mapping` replays a chain through a fresh placer over the frames
:func:`experiment.provision` gives the attacker, the range the search placed on.
"""

from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipsim import cli, experiment, qnn
from flipsim.dram import sample_profile, template
from flipsim.massage import plan_aggressors, plan_mapping
from flipsim.search import disjoint_chains
from oracles import collides_reference


@pytest.fixture(scope="module")
def small_model():
    """The default 50-page MLP after one epoch: room for long chains."""
    cfg = cli.make_config(overrides={"seed": 4})
    dataset = experiment.build_dataset(cfg)
    spec = experiment.build_model_spec(cfg, dataset)
    model = qnn.train_small(spec, dataset,
                            qnn.TrainConfig(epochs=1, accuracy_floor=0.0),
                            cfg.train_seed)
    return model, dataset


def _replays(cfg, model, chain, profile):
    """Each prefix's planned frames against the search's own, and the plan's
    victims against the aggressor rows of the victims before them."""
    state = experiment.provision(cfg, model)[0]
    frames = [s.pfn for s in chain.steps]
    targets = chain.targets()
    for k in range(1, len(targets) + 1):
        plan = plan_mapping(targets[:k], profile, state)
        assert [e.ppn for e in plan.entries] == frames[:k]
    if targets:
        plan_aggressors(plan, state)
        victims = [(e.set, e.victim_row, e.stripe_bitcol) for e in plan.entries]
        for k, victim in enumerate(victims):
            assert not collides_reference(state.config, victim, victims[:k])


@settings(max_examples=25, deadline=None)
# two channels: a victim bit in one channel whose page's other half lies in
# a later victim's aggressor row
@example(seed=1, rate=1.0, hammer_mode="double", channels=2, density=2_000, p=1,
         chains=3)
@given(st.integers(1, 10_000), st.sampled_from([1.0, 0.5, 0.1]),
       st.sampled_from(["double", "single"]), st.sampled_from([1, 2]),
       st.sampled_from([2_000, 20_000]), st.integers(1, 8), st.integers(1, 3))
def test_committed_prefixes_replay_onto_the_search_frames(
        small_model, seed, rate, hammer_mode, channels, density, p, chains):
    # every chain of a session, each planned on its own
    model, dataset = small_model
    cfg = cli.make_config(overrides={
        "seed": seed, "geometry": "desk", "hammer_mode": hammer_mode,
        "channels": channels, "density_count": density, "rate": rate,
        "p": p, "max_flips": 16, "target_accuracy": 0.0, "eval_batch": 64})
    profile = sample_profile(template(experiment.provision(cfg, model)[0]), rate,
                             cfg.sample_seed)
    for chain in islice(disjoint_chains(model, dataset, profile,
                                        experiment.search_config(cfg)), chains):
        _replays(cfg, model, chain, profile)


# master seeds whose desk chains the search once committed onto frames an
# earlier step held, or into an earlier step's aggressor rows
@pytest.mark.parametrize("seed", [2, 3, 5, 6, 8])
def test_desk_chain_plans_and_hammers_exactly(tmp_path, seed):
    cfg = cli.make_config(overrides={"seed": seed, "geometry": "desk",
                                     "out": str(tmp_path)})
    cli.cmd_train(cfg)
    cli.cmd_template(cfg)
    [chain], _ = cli.cmd_search(cfg)
    model, dataset, profile = cli._load_stage_inputs(cfg)
    _replays(cfg, model, chain, profile)
    report, _ = experiment.exploit_stage(cfg, model, dataset, profile,
                                         chain.records(),
                                         experiment.provision(cfg, model))
    assert report["final_metric"] == chain.terminal_metric()


# master seeds whose 4-bit desk chains flip a sign bit, which the exploit
# once loaded as the raw int8 byte rather than the 4-bit code the search
# flipped to
@pytest.mark.parametrize("seed", [4, 5])
def test_narrow_desk_chain_loads_the_searched_codes(tmp_path, seed):
    cfg = cli.make_config(overrides={"seed": seed, "geometry": "desk",
                                     "bit_width": 4, "out": str(tmp_path)})
    cli.cmd_train(cfg)
    cli.cmd_template(cfg)
    [chain], _ = cli.cmd_search(cfg)
    model, dataset, profile = cli._load_stage_inputs(cfg)
    assert any(s.bop % 8 == 3 for s in chain.steps)  # a sign bit is flipped
    _replays(cfg, model, chain, profile)
    report, _ = experiment.exploit_stage(cfg, model, dataset, profile,
                                         chain.records(),
                                         experiment.provision(cfg, model))
    assert report["final_metric"] == chain.terminal_metric()
