"""Shared fixtures and reporting helpers for the benchmark harness.

Each bench regenerates one of the paper's tables/figures.  Expensive
artifacts (corpus, trained models) are shared through the process-wide
experiment context, so the first bench that needs a model pays its training
cost and later benches reuse it; ``pedantic(rounds=1)`` keeps
pytest-benchmark from re-running the full experiment.

Perf benches additionally emit machine-readable ``BENCH_<name>.json``
reports via :func:`write_bench_report` (timed with
:class:`repro.utils.timing.Timer`), forming the repo's performance
trajectory.  They carry the ``perf`` marker; tier-1 (``pytest -x -q`` from
the repo root) never collects ``bench_*.py`` files, and marked benches can
also be deselected explicitly with ``-m 'not perf'``.  ``smoke``-marked
benches are the fast subset ``scripts/check.sh`` runs after tier-1.

Every bench test — including the table/figure regenerators that have no
dedicated perf report — gets its wall-time recorded by an autouse fixture;
the session writes the collected times to ``BENCH_walltimes.json``, so the
whole harness's cost is part of the perf trajectory without each file
repeating the plumbing.

Scale is controlled by ``REPRO_SCALE`` (default 'small').
"""

import json
import platform
import time
from pathlib import Path

import pytest

from repro.pipeline import get_context, get_scale
from repro.utils.timing import Timer

REPORT_DIR = Path(__file__).resolve().parent

#: test nodeid -> wall seconds, collected by ``_record_walltime``.
_WALLTIMES = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "perf: heavy throughput/latency bench, not part of tier-1")
    config.addinivalue_line(
        "markers", "smoke: fast perf subset run by scripts/check.sh")


@pytest.fixture(autouse=True)
def _record_walltime(request):
    """Record every bench test's wall-time for ``BENCH_walltimes.json``.

    Nodeids are normalized to be relative to this directory — pytest
    prefixes them with ``benchmarks/`` when invoked from the repo root but
    not when invoked from here, and the merge in ``pytest_sessionfinish``
    must key both styles identically."""
    start = time.perf_counter()
    yield
    nodeid = request.node.nodeid.removeprefix("benchmarks/")
    _WALLTIMES[nodeid] = round(time.perf_counter() - start, 3)


def pytest_sessionfinish(session, exitstatus):
    """Write the per-test wall-times collected this session.

    Merged over the existing report rather than overwritten: a filtered
    run (e.g. ``scripts/check.sh``'s smoke subset) refreshes only the
    entries it actually ran, keeping the full-sweep record intact."""
    if not _WALLTIMES:
        return
    tests = dict(_WALLTIMES)
    previous = REPORT_DIR / "BENCH_walltimes.json"
    if previous.is_file():
        try:
            old = json.loads(previous.read_text()).get("tests", {})
        except (json.JSONDecodeError, OSError):
            old = {}
        # normalize legacy prefixed keys, and drop entries whose bench file
        # is gone so renamed/deleted benches don't pollute total_s forever
        old = {nodeid.removeprefix("benchmarks/"): secs
               for nodeid, secs in old.items()}
        old = {nodeid: secs for nodeid, secs in old.items()
               if (REPORT_DIR / nodeid.split("::", 1)[0]).is_file()}
        tests = {**old, **tests}
    write_bench_report("walltimes", {
        "tests": dict(sorted(tests.items())),
        "total_s": round(sum(tests.values()), 3),
    })


@pytest.fixture(scope="session")
def ctx():
    return get_context(get_scale())


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def timed(fn, *args, **kwargs):
    """``(result, elapsed_seconds)`` of one ``fn(*args, **kwargs)`` call."""
    with Timer() as timer:
        result = fn(*args, **kwargs)
    return result, timer.elapsed


def write_bench_report(name: str, payload: dict, merge: bool = False) -> Path:
    """Write ``BENCH_<name>.json`` next to the benches and return its path.

    The payload is wrapped with enough machine context (python version,
    scale) for cross-run comparisons of the perf trajectory.  With
    ``merge=True`` the payload is layered over the existing report's
    top-level sections instead of replacing the file — for reports that
    several bench files contribute to (e.g. ``BENCH_serving.json``: the
    throughput bench owns most sections, the weight-sharing bench owns
    ``weight_sharing``), so a run of one file cannot silently drop the
    other's sections and trip the gate's missing-metric check."""
    report = {
        "bench": name,
        "scale": get_scale().name,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    path = REPORT_DIR / f"BENCH_{name}.json"
    if merge and path.is_file():
        try:
            previous = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            previous = {}
        report.update({key: value for key, value in previous.items()
                       if key not in report})
    report.update(payload)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
