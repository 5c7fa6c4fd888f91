"""The repo benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload zipf_http --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``zipf_http``    — open-loop HTTP advice (``zipf_http.py``)
* ``cold_sharded`` — closed-loop bulk advice on a pinned 2-shard fleet,
  every snippet new (``cold_sharded.py``)
* ``train_ddp``    — ``PragFormer.fit`` with two DDP workers
  (``train_ddp.py``)

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run measures untraced, then again with spans
around each layer's public entry points, and reports the per-layer
metrics (metrics a workload does not exercise read 0).  Earlier stdout
lines carry the environment record and per-run details.  The run fails
(non-zero exit, no result line) when the program is missing, a
self-test of the benchmark's own arithmetic fails, or it overruns.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (OUT_DIR, ROOT, SRC, environment, finite,  # noqa: E402
                    reap_children, stop_resource_tracker)

#: the driver's per-run limit is 180 s; stop cleanly before it
DEADLINE_S = 170

#: processes of the program that run forward/backward passes at once
COMPUTE_PROCESSES = {"zipf_http": 1, "cold_sharded": 2, "train_ddp": 2}


def _pin_blas_threads(workload: str) -> None:
    """Give each compute process ``nproc / processes`` BLAS threads, as a
    deployment would.  BLAS otherwise starts one spinning thread per core
    in every process: two shard or DDP processes then oversubscribe the
    cores and one run serves at half the rate of the next, which measures
    the scheduler rather than the program.  Must run before numpy loads;
    the program's child processes inherit it."""
    threads = str(max(1, (os.cpu_count() or 1)
                      // COMPUTE_PROCESSES[workload]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = threads


class Overrun(Exception):
    pass


def _on_alarm(signum, frame):
    raise Overrun(f"run exceeded {DEADLINE_S} s")


def _selftest() -> bool:
    suite = unittest.defaultTestLoader.loadTestsFromName("selftest")
    result = unittest.TextTestRunner(stream=io.StringIO(),
                                     verbosity=0).run(suite)
    return result.wasSuccessful()


def _workloads():
    import cold_sharded
    import train_ddp
    import zipf_http

    return {"zipf_http": zipf_http, "cold_sharded": cold_sharded,
            "train_ddp": train_ddp}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_blas_threads(args.workload)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not _selftest():
        print("perfbench: self-tests of the benchmark arithmetic failed "
              "(run python3 perfbench/selftest.py)", file=sys.stderr)
        return 3

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(args.workload, args.seed)
        print(json.dumps({"environment": env}), flush=True)
        module = _workloads()[args.workload]
        result = module.run(args.seed, args.seconds, bool(args.trace),
                            workdir)
    except Overrun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    finally:
        signal.alarm(0)
        stop_resource_tracker()
        reap_children(grace_s=1.0)
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = result["layers"] if args.trace else result["metrics"]
    unknown = set(produced) - {m["name"] for m in wanted}
    if unknown:
        print(f"perfbench: metrics missing from BENCHMARK.json: "
              f"{sorted(unknown)}", file=sys.stderr)
        return 5
    metrics = {}
    for m in wanted:
        value = produced.get(m["name"], 0.0) if args.trace \
            else produced[m["name"]]
        metrics[m["name"]] = {"value": finite(value), "unit": m["unit"]}
    print(json.dumps({"details": result["info"]}), flush=True)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
