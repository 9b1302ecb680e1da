"""Fast self-check of the benchmark harness; needs neither numpy nor flipsim.

    python3 perfbench/selfcheck.py

Checks self-time arithmetic on a synthetic span tree, the spans a wrapped
call records, and how the golden gate counts failures.  Exits 1 if any
check fails.
"""

import sys

import run
import tracer

FAILURES = []


def check(condition, what):
    if not condition:
        FAILURES.append(what)
        print(f"FAIL {what}")


def close(a, b):
    return abs(a - b) < 1e-9


def check_self_times():
    spans = [  # (id, name, start, end, parent)
        (1, "cli.cmd_exploit", 0.0, 10.0, None),
        (2, "massage.verify_template", 1.0, 4.0, 1),
        (3, "dram.hammer", 2.0, 2.5, 2),
        (4, "dram.hammer", 3.0, 3.5, 2),
        (5, "dram.hammer", 5.0, 6.0, 1),
        # overlapping children and one running past its parent
        (6, "cli.cmd_search", 20.0, 30.0, None),
        (7, "search.rank_candidates", 21.0, 25.0, 6),
        (8, "search.rank_candidates", 24.0, 27.0, 6),
        (9, "qnn.forward_acts", 29.0, 31.0, 6),
    ]
    selfs = tracer.self_times(spans)
    want = {1: 10 - 3 - 1, 2: 3 - 1, 3: 0.5, 4: 0.5, 5: 1.0,
            6: 10 - 6 - 1, 7: 4.0, 8: 3.0, 9: 2.0}
    for span_id, value in want.items():
        check(close(selfs[span_id], value),
              f"self time of span {span_id}: {selfs[span_id]} != {value}")

    metrics = tracer.layer_metrics(spans, {"search.candidates_evaluated": 8,
                                           "search.flips_committed": 2})
    check(close(metrics["cli.cmd_exploit.self_s"], 6.0), "command self time")
    check(metrics["dram.hammer_calls"] == 3, "hammer calls")
    check(close(metrics["dram.hammer_s"], 2.0), "hammer self time")
    check(metrics["massage.verify_probes"] == 2,
          "only hammer calls inside verify_template are probes")
    check(close(metrics["search.commit_ratio"], 0.25), "commit ratio")
    check(metrics["dram.reboot_calls"] == 0 and metrics["dram.reboot_s"] == 0.0,
          "a layer never called reports zero")

    breakdown = tracer.command_breakdown(spans)
    exploit = breakdown[(1, "cli.cmd_exploit")]
    check(exploit["dram.hammer"][1] == 3 and close(exploit["dram.hammer"][0], 2.0),
          "breakdown groups spans under their command")


def check_wrap():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("dram.hammer", lambda: None)
    outer = tr.wrap("massage.verify_template", lambda: (inner(), inner()))
    outer()
    check([s[1] for s in tr.spans] == ["dram.hammer", "dram.hammer",
                                        "massage.verify_template"],
          "spans close innermost first")
    check(all(s[4] == tr.spans[-1][0] for s in tr.spans[:2]),
          "nested calls record their caller as parent")
    check(tr.spans[-1][2:4] == (0.0, 5.0), "outer span covers its children")

    def boom():
        raise ValueError("x")
    failing = tr.wrap("dram.reboot", boom)
    try:
        failing()
    except ValueError:
        pass
    check(tr.spans[-1][1] == "dram.reboot" and not tr._stack,
          "a call that raises still closes its span")


def check_gate():
    golden = {"search": {"artifacts": {"chain_1.jsonl": "aa", "trace_1.csv": "bb"},
                         "stats": {"exit_code": 0, "chains": [{"flips": 4}]}}}
    good = {"step": "search", "error": None,
            "artifacts": {"chain_1.jsonl": "aa", "trace_1.csv": "bb"},
            "stats": {"exit_code": 0, "chains": [{"flips": 4}]}}
    check(run.compare(good, golden)[:2] == (5, 0), "matching outputs fail nothing")

    bad = {"step": "search", "error": None,
           "artifacts": {"chain_1.jsonl": "aa", "trace_1.csv": "XX", "extra.csv": "cc"},
           "stats": {"exit_code": 0, "chains": [{"flips": 5}]}}
    attempted, failed, problems = run.compare(bad, golden)
    check((attempted, failed) == (6, 3),
          f"changed hash, extra artifact and changed statistic: {attempted}, {failed}")
    check(len(problems) == 3, "one problem line per failure")

    raised = {"step": "search", "error": "UnsatisfiablePlan: x",
              "artifacts": {}, "stats": {"exit_code": 3}}
    check(run.compare(raised, golden)[:2] == (5, 5),
          "a raised command fails itself, its missing artifacts and its exit code")
    check(run.compare(dict(good, step="exploit"), golden)[:2] == (1, 1),
          "a step with no golden entry fails")

    infeasible = {"step": "search", "error": None, "artifacts": {},
                  "stats": {"exit_code": 2}}
    expected = {"search": {"artifacts": {}, "stats": {"exit_code": 2}}}
    check(run.compare(infeasible, expected)[:2] == (2, 0),
          "an expected exit code 2 is a result, not a failure")
    check(run.gate([good, bad], golden)[:2] == (11, 3), "gate sums its records")


def main():
    check_self_times()
    check_wrap()
    check_gate()
    if FAILURES:
        print(f"selfcheck: {len(FAILURES)} check(s) failed")
        return 1
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
