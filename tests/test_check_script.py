"""``scripts/check.sh`` behaves as documented, and CI mirrors it.

The CI workflow runs ``check.sh`` modes as its jobs, so this suite is the
drift guard between the three places a check can be defined: the script,
the workflow, and the docs.  The script is exercised for real — a stub
``python`` is injected via PATH that records its arguments and exits with
a scripted status — so the assertions cover the *actual* invocations each
mode selects, the explicit per-stage pass/fail banners, and the non-zero
exit on a failing stage (the old ``set -e`` subshell ambiguity this
replaced).
"""

import json
import os
import stat
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECK_SH = REPO_ROOT / "scripts" / "check.sh"


@pytest.fixture()
def shim(tmp_path):
    """A PATH shim for ``python`` (and ``ruff``-free PATH) that logs every
    invocation to ``calls.log`` and exits with ``EXIT_STATUS`` (default
    0).  Returns (env, log_path)."""
    log = tmp_path / "calls.log"
    shim_dir = tmp_path / "bin"
    shim_dir.mkdir()
    stub = shim_dir / "python"
    stub.write_text(
        "#!/bin/sh\n"
        f'echo "python $@" >> "{log}"\n'
        'exit "${EXIT_STATUS:-0}"\n')
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    env = dict(os.environ)
    # shim first so check.sh's `python` resolves to the stub; drop any
    # real ruff from PATH so the lint stage deterministically takes the
    # fallback (python) branch
    env["PATH"] = f"{shim_dir}:{env['PATH']}"
    env.pop("EXIT_STATUS", None)
    return env, log


def _run(env, *args):
    return subprocess.run(["bash", str(CHECK_SH), *args],
                          env=env, capture_output=True, text=True,
                          timeout=60)


def _calls(log):
    return log.read_text().splitlines() if log.exists() else []


class TestModeInvocations:
    def test_fast_runs_tier1_only(self, shim):
        env, log = shim
        result = _run(env, "--fast")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q"]
        assert "check.sh: stage 'tier-1' passed" in result.stdout
        assert "all green" in result.stdout

    def test_docs_runs_docs_suite_only(self, shim):
        env, log = shim
        result = _run(env, "--docs")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q tests/test_docs_links.py",
                         "python examples/serving_client.py"]
        assert "check.sh: stage 'docs' passed" in result.stdout

    def test_default_runs_lint_tier1_then_perf_smoke(self, shim):
        env, log = shim
        result = _run(env)
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        # ruff is absent in the shimmed PATH, so lint falls back to the
        # stdlib linter; then tier-1; then the named perf-smoke benches
        assert calls[0] == "python scripts/lint_fallback.py"
        assert calls[1] == "python -m pytest -x -q"
        assert calls[2].startswith("python -m pytest -q -m perf and smoke")
        assert "-p no:cacheprovider" in calls[2]
        assert "bench_" in calls[2]
        for stage in ("lint", "tier-1", "perf-smoke"):
            assert f"check.sh: stage '{stage}' passed" in result.stdout
        assert "all green (lint tier-1 perf-smoke)" in result.stdout

    def test_perf_mode_runs_smoke_subset_only(self, shim):
        env, log = shim
        result = _run(env, "--perf")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert len(calls) == 1 and "perf and smoke" in calls[0]

    def test_chaos_runs_fault_suite_only(self, shim):
        env, log = shim
        result = _run(env, "--chaos")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q tests/test_serve_faults.py"]
        assert "check.sh: stage 'chaos-smoke' passed" in result.stdout

    def test_removed_ipc_mode_rejected(self, shim):
        """The fleet has one data plane, so there is no ``--ipc`` stage
        left to run: the mode is refused like any unknown one."""
        env, log = shim
        result = _run(env, "--ipc")
        assert result.returncode == 2
        assert "unknown mode" in result.stderr
        assert _calls(log) == []

    def test_fuzz_runs_recovery_suite_scaled_up(self, shim):
        env, log = shim
        result = _run(env, "--fuzz")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == [
            "python -m pytest -x -q tests/test_clang_recovery.py "
            "tests/test_clang_lexer_oracle.py "
            "tests/test_clang_parser_oracle.py tests/test_serve_http_fuzz.py "
            "tests/test_serve_stdin_fuzz.py"]
        assert "check.sh: stage 'fuzz-smoke' passed" in result.stdout

    def test_ddp_runs_determinism_suite_only(self, shim):
        env, log = shim
        result = _run(env, "--ddp")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q tests/test_train_ddp.py"]
        assert "check.sh: stage 'ddp-determinism' passed" in result.stdout

    def test_shm_weights_runs_one_copy_suite_only(self, shim):
        env, log = shim
        result = _run(env, "--shm-weights")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q "
                         "tests/test_persistence_blob.py "
                         "tests/test_weight_sharing.py"]
        assert "check.sh: stage 'shm-weights' passed" in result.stdout

    def test_unknown_mode_rejected(self, shim):
        env, _ = shim
        result = _run(env, "--bogus")
        assert result.returncode == 2
        assert "unknown mode" in result.stderr


class TestFailurePropagation:
    def test_failing_stage_exits_nonzero_with_named_banner(self, shim):
        """The regression this replaced: a failing stage must surface as a
        non-zero exit *and* name the stage, not vanish into `set -e`
        subshell semantics."""
        env, log = shim
        env["EXIT_STATUS"] = "3"
        result = _run(env, "--fast")
        assert result.returncode == 3
        assert "stage 'tier-1' FAILED (exit 3)" in result.stderr
        assert "all green" not in result.stdout

    def test_default_mode_stops_at_first_failing_stage(self, shim):
        env, log = shim
        env["EXIT_STATUS"] = "1"
        result = _run(env)
        assert result.returncode == 1
        # lint (the first stage) failed; tier-1 must not have run
        assert _calls(log) == ["python scripts/lint_fallback.py"]
        assert "stage 'lint' FAILED" in result.stderr

    def test_perf_smoke_subshell_failure_propagates(self, shim):
        """The perf-smoke stage runs in a `(cd benchmarks && ...)`
        subshell; its exit code must still fail the script."""
        env, log = shim
        env["EXIT_STATUS"] = "2"
        result = _run(env, "--perf")
        assert result.returncode == 2
        assert "stage 'perf-smoke' FAILED (exit 2)" in result.stderr


class TestCiWorkflowMirrorsCheckScript:
    """The workflow must delegate to check.sh modes (single source of
    truth) and cover every stage plus the bench gate."""

    @pytest.fixture(scope="class")
    def workflow(self):
        return (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()

    def test_workflow_exists_and_names_all_jobs(self, workflow):
        for job in ("tier1:", "perf-smoke:", "docs:", "lint:",
                    "chaos-smoke:", "fuzz-smoke:",
                    "ddp-smoke:", "shm-weights:", "bench-gate:"):
            assert job in workflow, f"ci.yml missing job {job}"

    def test_workflow_invokes_check_sh_modes(self, workflow):
        for mode in ("scripts/check.sh --fast", "scripts/check.sh --perf",
                     "scripts/check.sh --docs", "scripts/check.sh --lint",
                     "scripts/check.sh --chaos",
                     "scripts/check.sh --fuzz", "scripts/check.sh --ddp",
                     "scripts/check.sh --shm-weights"):
            assert mode in workflow, f"ci.yml does not run {mode}"

    def test_chaos_stage_names_respawn_replay(self, workflow):
        """The chaos stage is where respawn replay is tested; both its
        check.sh comment and its CI step say so."""
        stage = CHECK_SH.read_text().split("stage_chaos_smoke() {")[1]
        assert "respawn replay" in stage.split("}")[0]
        step = next(line for line in workflow.splitlines()
                    if "name: chaos smoke" in line)
        assert "respawn replay" in step

    def test_workflow_runs_bench_gate(self, workflow):
        assert "python scripts/bench_gate.py" in workflow

    def test_workflow_sets_pythonpath_once(self, workflow):
        assert "PYTHONPATH: src" in workflow

    def test_workflow_caches_pip(self, workflow):
        assert "cache: pip" in workflow
        assert "requirements-ci.txt" in workflow

    def test_check_sh_documents_every_mode(self):
        """check.sh's own usage header must list the modes CI invokes."""
        script = CHECK_SH.read_text()
        for mode in ("--fast", "--docs", "--lint", "--perf", "--chaos",
                     "--fuzz", "--ddp", "--shm-weights"):
            assert mode in script
        assert "ruff check" in script
        assert "lint_fallback.py" in script


class TestBenchWorkflow:
    """The scheduled bench refresh runs every benchmark workload untraced
    and traced, gates the fresh reports and uploads what it measured."""

    @pytest.fixture(scope="class")
    def workflow(self):
        return (REPO_ROOT / ".github" / "workflows" / "bench.yml").read_text()

    def test_triggers_weekly_and_by_hand_only(self, workflow):
        assert "schedule:" in workflow and "cron:" in workflow
        assert "workflow_dispatch:" in workflow
        assert "push:" not in workflow and "pull_request:" not in workflow

    def test_runs_every_benchmark_workload_untraced_and_traced(self,
                                                               workflow):
        bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                cmd = (f"python3 perfbench/run.py --workload {workload} "
                       f"--seed 1 --trace {trace}")
                assert cmd in workflow, f"bench.yml does not run {cmd}"

    def test_refreshes_reports_then_gates_them(self, workflow):
        refresh = workflow.index("python -m pytest -q -m perf")
        gate = workflow.index("python scripts/bench_gate.py")
        assert refresh < gate

    def test_uploads_perfbench_output_and_reports(self, workflow):
        upload = workflow[workflow.index("actions/upload-artifact@v4"):]
        assert "if: always()" in workflow
        assert ".perfbench/" in upload
        assert "benchmarks/BENCH_*.json" in upload

    @staticmethod
    def _step_script(workflow, command):
        """The ``run: |`` script of the one step that runs ``command``."""
        steps = [s for s in workflow.split("\n      - name: ")
                 if command in s]
        assert len(steps) == 1, f"expected one step running {command}"
        lines = steps[0].split("        run: |\n", 1)[1].splitlines()
        return "\n".join(line[10:] for line in lines
                         if line.startswith(" " * 10)) + "\n"

    @pytest.mark.parametrize("trace", [0, 1])
    def test_perfbench_steps_keep_their_result_lines(self, workflow, tmp_path,
                                                     trace):
        """Each perfbench step tees its stdout into the uploaded
        ``.perfbench/results/`` under pipefail: the lines land in the
        artifact, and a failing run still fails its step.  The step
        scripts run here for real against a stub ``python3`` that prints
        a result line and exits 3."""
        bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        shim_dir = tmp_path / "bin"
        shim_dir.mkdir()
        stub = shim_dir / "python3"
        stub.write_text('#!/bin/sh\necho \'{"metrics": {}}\'\nexit 3\n')
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        env = dict(os.environ, PATH=f"{shim_dir}:{os.environ['PATH']}")
        for workload in (w["name"] for w in bench["workloads"]):
            script = self._step_script(
                workflow, f"python3 perfbench/run.py --workload {workload} "
                          f"--seed 1 --trace {trace}")
            assert script.index("set -o pipefail") < script.index("| tee")
            # GitHub runs an unqualified `run:` as `bash -e {0}`
            result = subprocess.run(["bash", "-e", "-c", script], env=env,
                                    cwd=tmp_path, capture_output=True,
                                    text=True, timeout=30)
            assert result.returncode == 3, result.stderr
            out = tmp_path / ".perfbench" / "results" / \
                f"{workload}-trace{trace}.jsonl"
            assert out.read_text() == '{"metrics": {}}\n'
