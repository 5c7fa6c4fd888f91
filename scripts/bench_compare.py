#!/usr/bin/env python
"""Compare two perfbench result directories, end-to-end metric by metric.

The weekly bench workflow (``.github/workflows/bench.yml``) tees each
``perfbench/run.py`` run to ``.perfbench/results/<workload>-trace<0|1>.jsonl``
and uploads it.  Given the ``results/`` directories of two such artifacts,
this prints one row per workload and end-to-end metric of
``BENCHMARK.json``: the old and new value, their ratio, and ``WORSE`` when
the change exceeds that metric's bound in its worse direction (relative to
the old value), so the trajectory is read rather than only stored.

Usage::

    python scripts/bench_compare.py OLD_RESULTS_DIR NEW_RESULTS_DIR

Only the untraced (``-trace0``) files carry end-to-end metrics.  A run that
left no result line (it failed, or its step did not run) reads ``n/a``.
The exit status is 0 whether or not a metric got worse — this is a report,
not a gate — and 2 for malformed input: a missing directory, a line that is
not JSON, or a result whose metric values are not numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = REPO_ROOT / "BENCHMARK.json"


class Malformed(ValueError):
    """An input file or directory that is not a perfbench result."""


def load_result(path: Path) -> Optional[Dict[str, float]]:
    """End-to-end metric values of the last result line in ``path``, or
    None when the file is absent or holds no result line."""
    if not path.is_file():
        return None
    result = None
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise Malformed(f"{path}:{n}: not JSON ({exc.msg})") from None
        if isinstance(record, dict) and "metrics" in record:
            result = record
    if result is None:
        return None
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise Malformed(f"{path}: result line carries no metrics")
    values = {}
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise Malformed(f"{path}: metric {name!r} has no numeric value")
        values[name] = float(value)
    return values


def compare(old: float, new: float, better: str,
            bound: float) -> Tuple[float, bool]:
    """``(ratio, worse)``: ``new / old`` and whether the change exceeds
    ``bound``, as a fraction of ``old``, in the metric's worse direction."""
    if old == 0:
        ratio = 1.0 if new == 0 else math.inf
        worse = better == "lower" and new > 0
        return ratio, worse
    ratio = new / old
    change = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return ratio, change > bound


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        description="compare two perfbench results/ directories")
    parser.add_argument("old", type=Path, help="older results/ directory")
    parser.add_argument("new", type=Path, help="newer results/ directory")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    try:
        for directory in (args.old, args.new):
            if not directory.is_dir():
                raise Malformed(f"{directory}: not a directory")
        rows = []
        for workload in (w["name"] for w in spec["workloads"]):
            name = f"{workload}-trace0.jsonl"
            old = load_result(args.old / name)
            new = load_result(args.new / name)
            for metric in spec["end_to_end"]:
                key = metric["name"]
                a = old.get(key) if old else None
                b = new.get(key) if new else None
                if a is None or b is None:
                    rows.append((workload, key, metric["unit"], a, b,
                                 None, "n/a"))
                    continue
                ratio, worse = compare(a, b, metric["better"],
                                       metric["bound"])
                rows.append((workload, key, metric["unit"], a, b, ratio,
                             "WORSE" if worse else "ok"))
    except Malformed as exc:
        print(f"bench_compare: malformed input: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<18} {'unit':<9} {'old':>10} "
          f"{'new':>10} {'ratio':>8}  verdict")
    for workload, key, unit, a, b, ratio, verdict in rows:
        print(f"{workload:<14} {key:<18} {unit:<9} {_fmt(a):>10} "
              f"{_fmt(b):>10} {_fmt(ratio):>8}  {verdict}")
    worse = sum(1 for row in rows if row[-1] == "WORSE")
    print(f"bench_compare: {worse} metric(s) worse than their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
