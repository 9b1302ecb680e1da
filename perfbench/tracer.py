"""Spans around calls into flipsim's public functions, recorded from outside.

The tracer patches a function in every flipsim module that binds it, because
``cli``, ``search`` and ``massage`` import functions by name: patching only
``flipsim.dram.template`` would miss ``flipsim.cli.template``.  Methods are
patched on their class.  Spans stay in memory until the run ends.
"""

import sys
import time
from collections import Counter

# (span name, module, attribute): attribute is "Class.method" for methods
TRACED = (
    ("dram.synthesize_cells", "flipsim.dram", "synthesize_cells"),
    ("dram.DramState_init", "flipsim.dram", "DramState.__init__"),
    ("dram.template", "flipsim.dram", "template"),
    ("dram.hammer", "flipsim.dram", "DramState.hammer"),
    ("dram.reboot", "flipsim.dram", "DramState.reboot"),
    ("dram.save_csv", "flipsim.dram", "FlipProfile.save_csv"),
    ("dram.load_csv", "flipsim.dram", "FlipProfile.load_csv"),
    ("massage.verify_template", "flipsim.massage", "verify_template"),
    ("massage.retemplate", "flipsim.massage", "retemplate"),
    ("massage.plan_mapping", "flipsim.massage", "plan_mapping"),
    ("massage.plan_aggressors", "flipsim.massage", "plan_aggressors"),
    ("massage.release_and_remap", "flipsim.massage", "release_and_remap"),
    ("massage.precise_hammer", "flipsim.massage", "precise_hammer"),
    ("search.search_chain", "flipsim.search", "search_chain"),
    ("search.search_chain_targeted", "flipsim.search", "search_chain_targeted"),
    ("search.protection_rounds", "flipsim.search", "protection_rounds"),
    ("search.rank_candidates", "flipsim.search", "rank_candidates"),
    ("search.ProfileView_init", "flipsim.search", "ProfileView.__init__"),
    ("qnn.train_small", "flipsim.qnn.train", "train_small"),
    ("qnn.weight_gradients", "flipsim.qnn.model", "QuantizedModel.weight_gradients"),
    ("qnn.weight_bias_gradients", "flipsim.qnn.model",
     "QuantizedModel.weight_bias_gradients"),
    ("qnn.forward_acts", "flipsim.qnn.model", "QuantizedModel.forward_acts"),
    ("qnn.loss_and_accuracy", "flipsim.qnn.model", "loss_and_accuracy"),
    ("qnn.load_checkpoint", "flipsim.qnn.checkpoint", "load_checkpoint"),
    ("qnn.save_checkpoint", "flipsim.qnn.checkpoint", "save_checkpoint"),
    ("image.WeightImage_init", "flipsim.image", "WeightImage.__init__"),
    ("image.layer_bit_pages", "flipsim.image", "WeightImage.layer_bit_pages"),
    ("image.apply_flips", "flipsim.image", "WeightImage.apply_flips"),
    ("cli.provision", "flipsim.cli", "provision"),
    ("cli.cmd_train", "flipsim.cli", "cmd_train"),
    ("cli.cmd_template", "flipsim.cli", "cmd_template"),
    ("cli.cmd_search", "flipsim.cli", "cmd_search"),
    ("cli.cmd_exploit", "flipsim.cli", "cmd_exploit"),
    ("cli.cmd_defense", "flipsim.cli", "cmd_defense"),
)

COMMANDS = ("cli.cmd_train", "cli.cmd_template", "cli.cmd_search",
            "cli.cmd_exploit", "cli.cmd_defense")


def _count_results(counts, name, result):
    """Work counters read off a traced call's return value."""
    if name == "dram.template":
        counts["dram.profile_entries"] += len(result)
    elif name == "massage.retemplate":
        counts["massage.cells_retested"] += result[1]["cells_retested"]
    elif name == "search.rank_candidates":
        counts["search.candidates_evaluated"] += len(result)
    elif name in ("search.search_chain", "search.search_chain_targeted"):
        counts["search.flips_committed"] += len(result)


class Tracer:
    """In-memory span log: ``(id, name, start, end, parent_id)`` tuples."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 1
        self._undo = []

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, start, end, parent))
            _count_results(tracer.counts, name, result)
            return result

        return traced

    def install(self):
        """Patch every listed function at every place flipsim binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "flipsim" or n.startswith("flipsim."))]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__))
                else:
                    patched = self.wrap(name, raw)
                setattr(cls, meth, patched)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()


def self_times(spans):
    """Per span id: its duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping children
    are counted once, so self time is never negative.
    """
    children = {}
    for span_id, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def _ancestors(spans):
    parent_of = {s[0]: s[4] for s in spans}
    name_of = {s[0]: s[1] for s in spans}

    def chain(span_id):
        names = []
        parent = parent_of.get(span_id)
        while parent is not None:
            names.append(name_of[parent])
            parent = parent_of.get(parent)
        return names
    return chain


def layer_metrics(spans, counts):
    """Per-layer metrics: ``<name>_s`` self time and ``<name>_calls``.

    Command spans report their self time as ``<command>.self_s``.  Derived
    counts: hammer calls made inside ``verify_template`` and the share of
    evaluated candidates that a search committed.
    """
    selfs = self_times(spans)
    metrics = {}
    for name, _, _ in TRACED:
        if name in COMMANDS:
            metrics[f"{name}.self_s"] = 0.0
        else:
            metrics[f"{name}_s"] = 0.0
            metrics[f"{name}_calls"] = 0
    for span_id, name, _, _, _ in spans:
        if name in COMMANDS:
            metrics[f"{name}.self_s"] += selfs[span_id]
        elif f"{name}_s" in metrics:
            metrics[f"{name}_s"] += selfs[span_id]
            metrics[f"{name}_calls"] += 1
    chain = _ancestors(spans)
    metrics["massage.verify_probes"] = sum(
        1 for s in spans
        if s[1] == "dram.hammer" and "massage.verify_template" in chain(s[0]))
    for key in ("dram.profile_entries", "massage.cells_retested",
                "search.candidates_evaluated"):
        metrics[key] = counts.get(key, 0)
    evaluated = counts.get("search.candidates_evaluated", 0)
    metrics["search.commit_ratio"] = (counts.get("search.flips_committed", 0)
                                      / evaluated if evaluated else 0.0)
    return metrics


def command_breakdown(spans):
    """``{(command root span id, command name): {layer: [self_s, calls]}}``."""
    selfs = self_times(spans)
    parent_of = {s[0]: s[4] for s in spans}
    name_of = {s[0]: s[1] for s in spans}
    out = {}
    for span_id, name, _, _, _ in spans:
        root = span_id
        while parent_of.get(root) is not None:
            root = parent_of[root]
        row = out.setdefault((root, name_of[root]), {}).setdefault(name, [0.0, 0])
        row[0] += selfs[span_id]
        row[1] += 1
    return out


def write_spans(spans, path):
    """Spans as CSV, times in seconds relative to the first span's start."""
    origin = min((s[2] for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent\n")
        for span_id, name, start, end, parent in sorted(spans):
            fh.write(f"{span_id},{name},{start - origin:.9f},{end - origin:.9f},"
                     f"{'' if parent is None else parent}\n")
    return path
