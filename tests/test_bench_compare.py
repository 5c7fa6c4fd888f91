"""``scripts/bench_compare.py``: two perfbench results/ directories in, one
row per workload and end-to-end metric out.

The fixtures under ``tests/data/bench_compare`` hold a zipf_http p50 that
rose 50%, a cold_sharded throughput that fell 40%, a train_ddp run that
left no result line, and a traced file the comparison must ignore.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "data" / "bench_compare"

spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "scripts" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def _rows(capsys, old=FIXTURES / "old", new=FIXTURES / "new"):
    status = bench_compare.main([str(old), str(new)])
    out = capsys.readouterr().out.splitlines()
    rows = {}
    for line in out[1:-1]:
        workload, metric, _unit, a, b, ratio, verdict = line.split()
        rows[workload, metric] = (a, b, ratio, verdict)
    return status, rows, out


class TestReport:
    def test_one_row_per_workload_and_end_to_end_metric(self, capsys):
        status, rows, out = _rows(capsys)
        bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        assert status == 0
        assert set(rows) == {(w["name"], m["name"])
                             for w in bench["workloads"]
                             for m in bench["end_to_end"]}
        assert out[-1] == "bench_compare: 2 metric(s) worse than their bound"

    def test_flags_only_changes_past_the_bound_in_the_worse_direction(
            self, capsys):
        _, rows, _ = _rows(capsys)
        assert rows["zipf_http", "latency_p50_ms"] == ("1", "1.5", "1.5",
                                                       "WORSE")
        assert rows["cold_sharded", "throughput_per_s"][2:] == ("0.6",
                                                                "WORSE")
        # better by more than the bound, and worse within it, are both ok
        assert rows["cold_sharded", "setup_s"][3] == "ok"
        assert rows["zipf_http", "latency_tail_ms"][3] == "ok"

    def test_missing_result_reads_na_and_is_not_an_error(self, capsys):
        status, rows, _ = _rows(capsys)
        assert status == 0
        assert rows["train_ddp", "throughput_per_s"] == ("3900", "n/a",
                                                         "n/a", "n/a")

    def test_directory_compared_with_itself_is_all_ok(self, capsys):
        _, rows, _ = _rows(capsys, new=FIXTURES / "old")
        assert {row[3] for row in rows.values()} == {"ok"}


class TestCompare:
    @pytest.mark.parametrize("old, new, better, worse", [
        (10.0, 12.6, "lower", True),
        (10.0, 12.4, "lower", False),
        (10.0, 7.4, "higher", True),
        (10.0, 7.6, "higher", False),
        (10.0, 20.0, "higher", False),
        (10.0, 1.0, "lower", False),
    ])
    def test_bound_is_relative_to_the_old_value(self, old, new, better,
                                                worse):
        ratio, got = bench_compare.compare(old, new, better, 0.25)
        assert ratio == pytest.approx(new / old)
        assert got is worse

    def test_zero_old_value(self):
        assert bench_compare.compare(0.0, 0.0, "lower", 0.25) == (1.0, False)
        ratio, worse = bench_compare.compare(0.0, 1.0, "lower", 0.25)
        assert math.isinf(ratio) and worse
        assert bench_compare.compare(0.0, 1.0, "higher", 0.25)[1] is False


class TestMalformedInput:
    def _dirs(self, tmp_path, text):
        old = tmp_path / "old"
        new = tmp_path / "new"
        for d in (old, new):
            d.mkdir()
        (new / "cold_sharded-trace0.jsonl").write_text(text)
        return old, new

    @pytest.mark.parametrize("text", [
        "not json\n",
        '{"metrics": {"setup_s": {"value": "fast"}}}\n',
        '{"metrics": {"setup_s": 0.1}}\n',
        '{"metrics": {}}\n',
    ])
    def test_malformed_file_exits_2(self, tmp_path, capsys, text):
        old, new = self._dirs(tmp_path, text)
        assert bench_compare.main([str(old), str(new)]) == 2
        assert "malformed input" in capsys.readouterr().err

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert bench_compare.main([str(tmp_path / "nope"),
                                   str(FIXTURES / "new")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_never_writes_benchmark_json(self, capsys):
        path = REPO_ROOT / "BENCHMARK.json"
        before = path.read_bytes()
        _rows(capsys)
        assert path.read_bytes() == before
