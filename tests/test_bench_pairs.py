"""``tools/bench_pairs.py``'s summary arithmetic, on synthetic runs."""

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                                "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_sides_alternate_starting_with_the_parent():
    assert [bench_pairs.sides(i) for i in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_quartiles_and_wins():
    parent = [{"workload_s": v, "peak_rss_mb": 100.0}
              for v in (4.0, 4.2, 4.4, 4.6, 4.8)]
    change = [{"workload_s": v, "peak_rss_mb": 101.0}
              for v in (3.5, 3.6, 4.5, 3.8, 3.9)]
    table = bench_pairs.summarize(parent, change)
    row = table["workload_s"]
    assert row["parent"] == pytest.approx([4.2, 4.4, 4.6])
    assert row["change"] == pytest.approx([3.6, 3.8, 3.9])
    # the third pair is the parent's: 4.4 against 4.5
    assert (row["wins"], row["pairs"]) == (4, 5)
    assert table["peak_rss_mb"]["wins"] == 0
    # linear interpolation between order statistics: q1 of 1..4 is 1.75
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == pytest.approx(
        [1.75, 2.5, 3.25])
    assert bench_pairs.quartiles([2.0]) == [2.0, 2.0, 2.0]


def test_pairs_missing_a_metric_do_not_count_for_it():
    parent = [{"workload_s": 2.0}, {"workload_s": 3.0}, {}]
    change = [{"workload_s": 1.0}, {}, {"workload_s": 1.0}]
    row = bench_pairs.summarize(parent, change)["workload_s"]
    assert (row["wins"], row["pairs"]) == (1, 1)
    assert bench_pairs.summarize([{}], [{}]) == {}


def test_report_prints_gain_against_the_parent_spread():
    table = bench_pairs.summarize([{"x_s": v} for v in (1.0, 2.0, 3.0)],
                                  [{"x_s": v} for v in (0.5, 1.0, 1.5)])
    header, line = bench_pairs.report(table)
    assert line.split() == ["x_s", "1.5000", "2.0000", "2.5000", "0.7500",
                            "1.0000", "1.2500", "1.0000", "1.0000", "3/3"]


def test_parse_run_reads_the_last_line_and_command_times():
    stdout = "\n".join([
        'env {"python": "3.11"}',
        "workload search-study: 4 timed pass(es), 3 set-ups",
        "  search_s                     0.7000 s fastest at reference speed, "
        "wall 0.7100 s fastest, 0.7200 s median of 4",
        "  workload_s                   3.9000 s",
        '{"correct": true, "attempted": 45, "failed": 0, "metrics": '
        '{"workload_s": {"value": 3.9, "unit": "s"}}}'])
    assert bench_pairs.parse_run(stdout) == (
        True, 0, {"workload_s": 3.9, "search_s": 0.7})
    assert bench_pairs.parse_run("Traceback ...\n") == (False, None, {})
    assert bench_pairs.parse_run("") == (False, None, {})


@pytest.mark.parametrize("last, status", [
    ('{"correct": true, "failed": 0, "metrics": {}}', 0),
    ('{"correct": true, "failed": 2, "metrics": {}}', 1),
    ('{"correct": true, "metrics": {}}', 1),
    ('{"correct": false, "failed": 0, "metrics": {}}', 1)])
def test_main_fails_on_failed_operations_and_removes_its_exports(
        tmp_path, monkeypatch, last, status):
    made = []

    def export(rev, where):
        os.makedirs(where)
        made.append(where)

    def run(argv, cwd, **kwargs):
        return bench_pairs.subprocess.CompletedProcess(argv, 0, last + "\n", "")

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp",
                        lambda prefix: str(tmp_path / "work"))
    assert bench_pairs.main(["a", "b", "--workload", "w", "--pairs", "2"]) == status
    assert len(made) == 2 and not (tmp_path / "work").exists()
    # a directory given with --work stays
    kept = tmp_path / "kept"
    bench_pairs.main(["a", "b", "--workload", "w", "--pairs", "1",
                      "--work", str(kept)])
    assert sorted(os.listdir(kept)) == ["change", "parent"]


def test_parse_host_keeps_the_host_and_drops_the_run_seeds():
    stdout = ('env {"bench_seed": 3, "master_seed": 5, "nproc": 2, '
              '"numpy": "2.4.6", "python": "3.11.7"}\n{"correct": true}\n')
    assert bench_pairs.parse_host(stdout) == {
        "nproc": 2, "numpy": "2.4.6", "python": "3.11.7"}
    assert bench_pairs.parse_host("Traceback ...\n") is None


def test_recorded_entries_append_in_order(tmp_path):
    parent = [{"workload_s": v, "setup_s": 1.0} for v in (0.90, 0.92, 0.91)]
    change = [{"workload_s": v, "setup_s": 1.1} for v in (0.84, 0.93, 0.83)]
    table = bench_pairs.summarize(parent, change)
    args = bench_pairs.argparse.Namespace(workload="pipeline-bench", pairs=3,
                                          seconds=20)
    host = {"nproc": 2, "python": "3.11.7"}
    item = bench_pairs.entry(args, ["p" * 40, "c" * 40], host, table)
    assert item == {"change": "c" * 40, "parent": "p" * 40,
                    "workload": "pipeline-bench", "pairs": 3, "seconds": 20,
                    "host": host, "metrics": table}
    row = item["metrics"]["workload_s"]
    assert row["parent"] == pytest.approx([0.905, 0.91, 0.915])
    assert row["change"] == pytest.approx([0.835, 0.84, 0.885])
    assert (row["wins"], row["pairs"]) == (2, 3)
    assert item["metrics"]["setup_s"]["wins"] == 0
    path = str(tmp_path / "BENCH_pipeline.json")
    bench_pairs.append_entry(path, item)
    bench_pairs.append_entry(path, dict(item, workload="dual-reboot"))
    with open(path) as fh:
        kept = bench_pairs.json.load(fh)
    assert [e["workload"] for e in kept] == ["pipeline-bench", "dual-reboot"]
    assert kept[0] == bench_pairs.json.loads(bench_pairs.json.dumps(item))
    assert os.listdir(tmp_path) == ["BENCH_pipeline.json"]


@pytest.mark.parametrize("failed, written", [(0, True), (1, False)])
def test_main_records_only_pairs_without_a_bad_run(tmp_path, monkeypatch,
                                                    failed, written):
    out = ('env {"bench_seed": 1, "master_seed": 4, "nproc": 2}\n'
           '  exploit_s                    0.2500 s fastest at reference speed\n'
           '{"correct": true, "failed": %d, "metrics": '
           '{"workload_s": {"value": 0.9, "unit": "s"}}}\n' % failed)
    monkeypatch.setattr(bench_pairs, "export",
                        lambda rev, where: os.makedirs(where))
    monkeypatch.setattr(bench_pairs, "rev_parse", lambda rev: rev * 40)
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda argv, cwd, **kw: bench_pairs.subprocess
                        .CompletedProcess(argv, 0, out, ""))
    path = tmp_path / "bench.json"
    status = bench_pairs.main(["a", "b", "--workload", "w", "--pairs", "2",
                               "--seconds", "5", "--work", str(tmp_path / "x"),
                               "--record", str(path)])
    assert status == (0 if written else 1)
    assert path.exists() == written
    if written:
        [item] = bench_pairs.json.loads(path.read_text())
        assert (item["parent"], item["change"]) == ("a" * 40, "b" * 40)
        assert (item["pairs"], item["seconds"]) == (2, 5)
        assert item["host"] == {"nproc": 2}
        assert sorted(item["metrics"]) == ["exploit_s", "workload_s"]
        assert item["metrics"]["exploit_s"]["parent"] == [0.25] * 3
