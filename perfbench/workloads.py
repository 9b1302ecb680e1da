"""The benchmark's workloads: which flipsim commands run, with which config.

Every workload runs on a quarter of the ``bench`` geometry: 4 of its 16
banks, so about 1 M vulnerable cells and 197 k profile entries instead of
4 M and 790 k.  Per-cell work shrinks fourfold, so one pass of the pipeline
takes seconds and a run holds several passes; the code paths are the same.

A step with ``metric=None`` is set-up: it produces an input the workload does
not time.  Every workload also trains its checkpoint during set-up, in fresh
interpreters (see ``run.py``), so ``train`` never appears here.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Step:
    name: str            # unique in the workload; also its output directory
    command: str         # template | search | exploit | defense
    metric: str = None   # end-to-end metric it is timed into; None = set-up
    overrides: dict = field(default_factory=dict)   # ExperimentConfig fields
    mode: str = None     # cmd_defense mode


@dataclass(frozen=True)
class Workload:
    name: str            # why each workload exists is in BENCHMARK.json
    config: dict         # ExperimentConfig fields shared by every step
    steps: tuple


PIPELINE = (
    Step("template", "template", "template_s"),
    Step("search", "search", "search_s"),
)

WORKLOADS = {w.name: w for w in (
    Workload(
        "pipeline-bench",
        {"banks": 4},
        PIPELINE + (Step("exploit", "exploit", "exploit_s"),),
    ),
    Workload(
        "dual-reboot",
        {"banks": 4, "channels": 2},
        PIPELINE + (Step("exploit", "exploit", "exploit_s",
                         {"reboot_seed": 777, "toggle_probability": 0.5}),),
    ),
    Workload(
        "search-study",
        {"banks": 4},
        (
            Step("template", "template"),
            Step("search", "search", "search_s", {"chains": 3}),
            Step("targeted", "search", "targeted_search_s", {"target_class": 0}),
            Step("defense-topn", "defense", "defense_topn_s", mode="topn"),
        ),
    ),
)}
