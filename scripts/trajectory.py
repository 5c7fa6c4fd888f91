#!/usr/bin/env python
"""Trajectory harness: does a change move SMALL directive training more
than a reseed does?

A change that alters training arithmetic (a new dropout draw, a new
reduction order) moves every fit's trajectory, so its test accuracy moves
too.  Whether that move means anything is judged against a *placebo*: the
parent tree with nothing changed but the dropout streams.  Three arms run
three-epoch SMALL directive fits (no validation, no MLM transfer, one DDP
worker, one BLAS thread, ``PragFormer(len(vocab), replace(SMALL.pragformer,
seed=s))``) on the same ten seeds:

* ``parent`` — the tree at ``--parent`` (default ``HEAD``), exported with
  ``git archive`` into a temporary directory;
* ``change`` — the working tree this script lives in;
* ``placebo`` — the parent again, with every micro-shard's reseeder key
  salted by this harness: ``stochastic_reseeder`` in
  ``repro.models.pragformer`` is wrapped to reseed ``(*key, 3)``.

Each arm runs in its own process with ``PYTHONPATH`` at its tree's
``src``.  The JSON report holds each arm's per-seed test accuracy and
final train loss, each arm's per-seed moves against the parent (mean,
sd, SE) and the setup.  The change passes when

    |mean move of change| <= max(|mean move of placebo|,
                                 2 * SE of the placebo's per-seed moves)

The rule compares means alone.  Beside ``pass`` the report gives
``sd_ratio``, the sd of the change's per-seed moves over the placebo's:
a ratio well above 1 says the change scatters single fits more than a
reseed does, which a passing mean does not rule out.

Usage (about a minute on a 2-core host)::

    python scripts/trajectory.py [--parent REV] [--out PATH]

The report goes to ``benchmarks/TRAJECTORY.json`` unless ``--out`` says
otherwise.  Before a change is committed, the default parent ``HEAD`` is
its parent; afterwards, pass ``--parent HEAD~1``.

Exits 0 when the change passes, 1 when it does not.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict

REPO = Path(__file__).resolve().parent.parent
SEEDS = (3, 5, 7, 11, 13, 23, 29, 31, 37, 41)
EPOCHS = 3
PLACEBO_SALT = 3
ARMS = ("parent", "change", "placebo")
REPORT = REPO / "benchmarks" / "TRAJECTORY.json"


def _fit_seeds(placebo: bool) -> Dict:
    """Worker side: fit every seed in the tree on ``sys.path``."""
    from dataclasses import replace

    import repro.models.pragformer as pragformer
    from repro.pipeline.config import SMALL
    from repro.pipeline.context import ExperimentContext
    from repro.train.ddp import DDPConfig

    if placebo:
        reseeder = pragformer.stochastic_reseeder

        def salted(roots):
            reseed = reseeder(roots)
            return lambda key: reseed((*key, PLACEBO_SALT))

        pragformer.stochastic_reseeder = salted
    enc = ExperimentContext(SMALL).encoded()
    per_seed = {}
    for seed in SEEDS:
        model = pragformer.PragFormer(len(enc.vocab),
                                      replace(SMALL.pragformer, seed=seed))
        history = model.fit(enc.train, epochs=EPOCHS)
        _, accuracy = model.evaluate(enc.test)
        per_seed[str(seed)] = {"test_accuracy": float(accuracy),
                               "final_loss": float(history.train_loss[-1])}
    return {"per_seed": per_seed, "grad_shards": DDPConfig().grad_shards,
            "test_examples": len(enc.test)}


def _run_arm(arm: str, src: Path) -> Dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, __file__, "--worker", arm],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _export(rev: str, dest: Path) -> str:
    """Write ``rev``'s tree into ``dest``; returns its commit id."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", rev],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(REPO), "archive", sha],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def _moves(arm: Dict, parent: Dict) -> Dict:
    moves = [arm["per_seed"][str(s)]["test_accuracy"]
             - parent["per_seed"][str(s)]["test_accuracy"] for s in SEEDS]
    spread = statistics.stdev(moves)
    return {"per_seed": moves, "mean": statistics.fmean(moves),
            "sd": spread, "se": spread / len(moves) ** 0.5}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision of the parent arm (default HEAD)")
    parser.add_argument("--out", type=Path, default=REPORT,
                        help="report path (default benchmarks/TRAJECTORY.json)")
    parser.add_argument("--worker", choices=ARMS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(_fit_seeds(placebo=args.worker == "placebo"),
                  sys.stdout)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        sha = _export(args.parent, Path(tmp))
        srcs = {"parent": Path(tmp) / "src", "change": REPO / "src",
                "placebo": Path(tmp) / "src"}
        arms = {}
        for arm in ARMS:
            result = arms[arm] = _run_arm(arm, srcs[arm])
            result["mean_accuracy"] = statistics.fmean(
                r["test_accuracy"] for r in result["per_seed"].values())
            print(f"{arm}: mean test accuracy "
                  f"{result['mean_accuracy']:.4f}", file=sys.stderr)
    moves = {arm: _moves(arms[arm], arms["parent"])
             for arm in ("change", "placebo")}
    bound = max(abs(moves["placebo"]["mean"]), 2 * moves["placebo"]["se"])
    passed = abs(moves["change"]["mean"]) <= bound
    sd_ratio = moves["change"]["sd"] / moves["placebo"]["sd"]
    report = {
        "setup": {"scale": "small", "task": "directive", "epochs": EPOCHS,
                  "validation": False, "mlm_transfer": False,
                  "n_workers": 1, "blas_threads": 1, "seeds": SEEDS,
                  "grad_shards": {arm: arms[arm]["grad_shards"]
                                  for arm in ARMS},
                  "test_examples": arms["parent"]["test_examples"],
                  "parent": sha, "placebo_salt": PLACEBO_SALT},
        "arms": {arm: {"mean_accuracy": arms[arm]["mean_accuracy"],
                       "per_seed": arms[arm]["per_seed"]} for arm in ARMS},
        "moves": moves,
        "bound": bound,
        "pass": passed,
        "sd_ratio": sd_ratio,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"change mean move {moves['change']['mean']:+.4f}, placebo "
          f"{moves['placebo']['mean']:+.4f} (SE {moves['placebo']['se']:.4f}),"
          f" bound {bound:.4f}: {'pass' if passed else 'FAIL'}; per-seed sd"
          f" {sd_ratio:.2f}x the placebo's; report: {args.out}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
