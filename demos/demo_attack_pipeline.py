"""End-to-end walk through the attack pipeline, step by step.

Trains the desk-scale victim, provisions simulated DRAM, templates the
attacker's memory, searches for a minimal chain of weight-bit flips, then runs
the online phase: template validity check, victim page positioning through
the LIFO page cache, and precise stripe hammering. Prints what happens at
every stage.
"""

import numpy as np

from flipsim import cli, experiment
from flipsim.dram import HAMMER_SECONDS_PER_ACTION, template
from flipsim.image import WeightImage
from flipsim.massage import (PageFrameCache, plan_aggressors, plan_mapping,
                             precise_hammer, release_and_remap,
                             verify_template)
from flipsim.qnn.model import loss_and_accuracy
from flipsim.search import search_chain

cfg = cli.make_config(overrides={"seed": 4})

print("== victim model ==")
dataset = experiment.build_dataset(cfg)
model = experiment.train_model(cfg, dataset)
_, clean = loss_and_accuracy(model, dataset.x_test, dataset.y_test)
image = WeightImage(model)
print(f"clean accuracy {clean:.3f}, {image.weight_bytes} weight bytes over "
      f"{image.page_count} pages")

print("\n== offline: memory templating ==")
state, image, placement, attacker_pages = experiment.provision(cfg, model)
profile = template(state)
print(f"attacker holds {attacker_pages} of {state.config.total_pages} frames "
      f"({attacker_pages / state.config.total_pages:.0%} of memory)")
print(f"profile: {len(profile)} flippable cells, "
      f"{float((profile.direction == 0).mean()):.0%} are 1->0; a real module "
      f"at 2.2 flips/s would take ~{len(profile) / 2.2 / 3600:.1f} h to scan")

print("\n== offline: flip-aware bit search ==")
# the search places every step on one of the attacker's frames, as the
# planner will, so each committed step is one the exploit can position
chain = search_chain(model, dataset, profile, experiment.search_config(cfg))
print(f"chain of {len(chain)} flips, accuracy "
      f"{chain.clean_metric:.3f} -> {chain.terminal_metric():.3f}:")
for step in chain.steps:
    print(f"  (page {step.page}, bop {step.bop}, mode {step.mode}) on frame "
          f"{step.pfn} -> accuracy {step.accuracy:.4f}")

print("\n== online: verify template, position pages, hammer ==")
status = verify_template(state, profile, cfg.verify_sample)
print(f"template spot-check: {status}")
plan = plan_mapping(chain.targets(), profile, state)
for e in plan.entries:
    print(f"  victim page {e.target.page} -> frame {e.ppn} "
          f"(bank {e.set}, row {e.victim_row})")
actions = plan_aggressors(plan, state)
print(f"{len(plan.entries)} victims merged into {len(actions)} hammering "
      f"actions (~{HAMMER_SECONDS_PER_ACTION * len(actions):.2f} s of real "
      f"hammering)")
mapping = release_and_remap(PageFrameCache(cfg.recycling_threshold), plan,
                            image, state)
flips = precise_hammer(state, plan, actions)
print(f"flipped exactly {len(flips)} targeted bits")

print("\n== damage assessment ==")
attacked = model.copy()
attacked.load_weight_block(experiment.read_victim_block(state, image,
                                                        placement, mapping))
_, final = loss_and_accuracy(attacked, dataset.x_test, dataset.y_test)
preds = attacked.forward(dataset.x_test).argmax(axis=1)
winner = int(np.bincount(preds).argmax())
print(f"test accuracy {clean:.3f} -> {final:.3f}; "
      f"{float((preds == winner).mean()):.0%} of all inputs now land in "
      f"class {winner}")
