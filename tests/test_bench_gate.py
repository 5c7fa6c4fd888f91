"""The bench-regression gate: committed reports pass, regressions fail.

``scripts/bench_gate.py`` is CI's guard that the committed ``BENCH_*``
reports never regress on ratio/counter metrics.  Three properties matter:
the committed reports are green (otherwise CI is red at head), a doctored
regression *fails* (otherwise the gate is decorative), and a silently
missing metric fails too (otherwise deleting a bench section greens the
pipeline).  Wall-times must stay ungated — the bench host is a single
noisy core.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_gate", REPO_ROOT / "scripts" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(spec)
# registered before exec: @dataclass resolves its module via sys.modules
sys.modules["bench_gate"] = bench_gate
spec.loader.exec_module(bench_gate)


@pytest.fixture(scope="module")
def committed():
    """The committed reports, loaded once."""
    return {
        key: json.loads(path.read_text())
        for key, path in bench_gate.DEFAULT_REPORTS.items()
    }


class TestCommittedReportsPass:
    def test_all_gates_green(self, committed):
        failures = bench_gate.check_gates(committed)
        assert not failures, failures

    def test_cli_exit_zero_on_committed(self, capsys):
        assert bench_gate.main([]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "gates green" in out

    def test_every_gate_metric_is_ratio_or_counter(self):
        """No gate may reference a wall-time: the bench host is a single
        noisy core, so only dimensionless ratios and invariant counters
        are stable enough to gate (everything *_s / *_per_s / *_ms is
        report-only by policy)."""
        for gate in bench_gate.GATES:
            leaf = gate.path.rsplit(".", 1)[-1]
            if "speedup" in leaf:  # a speedup is a ratio, whatever its unit
                continue
            assert not leaf.endswith(("_s", "_ms", "_per_s")), (
                f"gate on wall-clock metric: {gate.describe()}")


class TestDoctoredRegressionsFail:
    @pytest.mark.parametrize("path, bad_value", [
        ("engine_trace.speedup_vs_sequential", 0.5),
        ("clause_gating.verdict_mismatches", 3),
        ("reload_under_load.failed_requests", 2),
        ("reload_under_load.stale_predictions_after_swap", 1),
        ("canary_rollout.failed_requests", 7),
        ("canary_rollout.canary_arm_errors", 1),
        ("canary_rollout.stale_after_promote", 4),
        ("fault_injection.lost_requests", 64),
        ("fault_injection.answered_fraction", 0.9),
        ("fault_injection.restarts", 0),
        ("fault_injection.p99_vs_deadline", 20.0),
        ("fault_injection.admission.unanswered", 3),
        ("fault_injection.admission.shed_429", 0),
        ("shard_sweep.parity_mismatches", 12),
        ("shard_sweep.scaling_2shard", 0.1),
        ("weight_sharing.sublinearity_ratio_8", 1.0),   # one copy per shard
        ("weight_sharing.sharing_factor_8", 1.0),       # pages not shared
        ("weight_sharing.reload_parity_mismatches", 5),
        ("weight_sharing.stale_hits_after_swap", 2),
        ("weight_sharing.canary_flip.stale_after_promote", 3),
        ("weight_sharing.leaked_segments_after_faults", 1),
    ])
    def test_doctored_serving_metric_fails(self, committed, path, bad_value):
        doctored = copy.deepcopy(committed)
        node = doctored["serving"]
        *parents, leaf = path.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = bad_value
        failures = bench_gate.check_gates(doctored)
        assert any(path in failure for failure in failures), (
            f"doctoring {path}={bad_value} must fail the gate")

    @pytest.mark.parametrize("path, bad_value", [
        ("ddp.parity_mismatches", 1),       # bit-identity broken
        ("ddp.reduce_ops_per_step", 8),     # per-shard reduces crept back
        ("ddp.workers_2.counter_speedup", 1.0),  # work split collapsed
    ])
    def test_doctored_ddp_metric_fails(self, committed, path, bad_value):
        doctored = copy.deepcopy(committed)
        node = doctored["training"]
        *parents, leaf = path.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = bad_value
        failures = bench_gate.check_gates(doctored)
        assert any(path in failure for failure in failures), (
            f"doctoring {path}={bad_value} must fail the gate")

    def test_doctored_training_speedup_fails(self, committed):
        doctored = copy.deepcopy(committed)
        doctored["training"]["pretrain"]["speedup_steps_per_s"] = 1.1
        failures = bench_gate.check_gates(doctored)
        assert any("pretrain.speedup_steps_per_s" in f for f in failures)

    def test_missing_section_fails(self, committed):
        """Deleting a bench section must not green the gate."""
        doctored = copy.deepcopy(committed)
        del doctored["serving"]["canary_rollout"]
        failures = bench_gate.check_gates(doctored)
        assert any("canary_rollout" in f and "missing" in f
                   for f in failures)

    def test_missing_report_fails(self, committed):
        failures = bench_gate.check_gates({"serving": committed["serving"]})
        assert any("training" in f and "not loaded" in f for f in failures)

    def test_cli_exit_nonzero_on_doctored_file(self, committed, tmp_path,
                                               capsys):
        doctored = copy.deepcopy(committed["serving"])
        doctored["reload_under_load"]["failed_requests"] = 9
        bad = tmp_path / "BENCH_serving.json"
        bad.write_text(json.dumps(doctored))
        assert bench_gate.main(["--serving", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "failed_requests" in out


class TestLookup:
    def test_dotted_paths(self):
        report = {"a": {"b": {"c": 3}}, "x": 1}
        assert bench_gate.lookup(report, "a.b.c") == 3
        assert bench_gate.lookup(report, "x") == 1
        assert bench_gate.lookup(report, "a.nope") is None
        assert bench_gate.lookup(report, "a.b.c.d") is None
