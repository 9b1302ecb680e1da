"""End-to-end walk through the attack pipeline, stage by stage.

Trains the desk-scale victim, provisions simulated DRAM and templates the
attacker's memory, then runs the two stages the ``flipsim search`` and
``flipsim exploit`` commands run: the flip-aware chain search, and the online
phase (template validity check, victim page positioning through the LIFO page
cache, precise stripe hammering).  Prints what each stage returns.
"""

from flipsim import cli, experiment
from flipsim.dram import FLIPS_PER_SECOND, template

cfg = cli.make_config(overrides={"seed": 4})

print("== victim model ==")
dataset = experiment.build_dataset(cfg)
model = experiment.train_model(cfg, dataset)
provisioned = experiment.provision(cfg, model)
state, image, _, attacker_pages = provisioned
print(f"{image.weight_bytes} weight bytes over {image.page_count} pages")

print("\n== offline: memory templating ==")
# templating writes no row, so the exploit below runs on DRAM as a fresh
# provision leaves it
profile = template(state)
print(f"attacker holds {attacker_pages} of {state.config.total_pages} frames "
      f"({attacker_pages / state.config.total_pages:.0%} of memory)")
print(f"profile: {len(profile)} flippable cells, "
      f"{float((profile.direction == 0).mean()):.0%} are 1->0; a real module "
      f"at {FLIPS_PER_SECOND} flips/s would take "
      f"~{len(profile) / FLIPS_PER_SECOND / 3600:.1f} h to scan")

print("\n== offline: flip-aware bit search ==")
chains, _ = experiment.search_stage(cfg, model, dataset, profile)
chain = chains[0]
print(f"chain of {len(chain)} flips, accuracy "
      f"{chain.clean_metric:.3f} -> {chain.terminal_metric():.3f}:")
for step in chain.steps:
    print(f"  (page {step.page}, bop {step.bop}, mode {step.mode}) on frame "
          f"{step.pfn} -> accuracy {step.accuracy:.4f}")

print("\n== online: verify template, position pages, hammer ==")
report, rows = experiment.exploit_stage(cfg, model, dataset, profile,
                                        chain.records(), provisioned)
print(f"template spot-check: {report['template_status']}")
for row in rows:
    print(f"  victim page {row['pgid']} -> frame {row['ppn']} "
          f"(bank {row['set']}, row {row['victim_row']})")
hammer = report["hammer"]
print(f"{len(rows)} victims merged into {hammer['actions']} hammering "
      f"actions (~{hammer['seconds_estimate']:.2f} s of real hammering)")
print(f"flipped exactly {report['flips_achieved']} targeted bits")

print("\n== damage assessment ==")
print(f"test accuracy {report['clean_test_accuracy']:.3f} -> "
      f"{report['final_test_accuracy']:.3f}")
