"""Workload ``train_ddp``: ``PragFormer.fit`` with two shared-memory DDP
workers, with validation, one epoch per fit, on a SMALL-scale directive
split generated from the workload seed.

Fits of a fresh model repeat until the measured time is spent.  Each
training step is one operation; its latency is read by a step clock
(spans around only rank 0's DDP epochs and optimizer steps), and
its loss must be bit-identical to an untimed ``n_workers=1`` fit.
Examples/s (of the epoch, validation excluded), step p50 and step tail
are each taken per fit, and the run reports their medians over fits,
so a statistic does not mostly measure which slow fits a run caught.
``run.py`` gives each DDP process ``nproc / N_WORKERS`` BLAS threads.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List

from common import (HostWindow, LeakCheck, ProcSampler, median, setup_time,
                    tail)

N_WORKERS = 2
EPOCHS = 1
SETUPS = 5


class StepClock:
    """Per-step latencies of rank 0: the time from the previous optimizer
    step (or the start of the epoch) to the end of this one, read from a
    tracer that wraps only the DDP epoch and the optimizer step."""

    def __init__(self) -> None:
        from repro.nn.optim import FusedAdamW
        from repro.train.ddp import DataParallelTrainer
        from spans import Tracer

        self.epochs: List[List[float]] = []
        self.tracer = Tracer()
        self.tracer.patch(DataParallelTrainer, "run_epoch", "train.epoch")
        self.tracer.patch(FusedAdamW, "step", "optim")

    def epoch_steps(self) -> List[List[float]]:
        """Each epoch's step latencies."""
        return [[b - a for a, b in zip(marks, marks[1:])]
                for marks in self.epochs]

    def uninstall(self) -> None:
        """Restore the wrapped methods and read each epoch's step ends."""
        from spans import SpanSet

        self.tracer.uninstall()
        spans = SpanSet(self.tracer.drain())
        for epoch in sorted(spans.layer("train.epoch"), key=lambda s: s.start):
            ends = sorted(c.end for c in spans.children[(epoch.pid, epoch.sid)]
                          if c.layer == "optim")
            self.epochs.append([epoch.start] + ends)


def _setup(seed: int):
    """Corpus -> encoded SMALL-scale directive splits -> fresh model."""
    from repro.corpus import CorpusConfig, build_corpus
    from repro.data import encode_dataset, make_directive_dataset
    from repro.models import PragFormer
    from repro.pipeline.config import SMALL
    from repro.tokenize import Representation

    corpus = build_corpus(CorpusConfig(n_records=SMALL.corpus_records,
                                       seed=seed))
    splits = make_directive_dataset(corpus, rng=seed)
    enc = encode_dataset(splits, Representation.TEXT,
                         max_len=SMALL.pragformer.max_len,
                         min_freq=SMALL.min_freq)
    model = PragFormer(len(enc.vocab), SMALL.pragformer, rng=seed)
    return enc, model


def _fit(enc, seed: int, n_workers: int):
    from repro.models import PragFormer
    from repro.pipeline.config import SMALL

    model = PragFormer(len(enc.vocab), SMALL.pragformer, rng=seed)
    start = time.monotonic()
    model.fit(enc.train, enc.validation, epochs=EPOCHS, n_workers=n_workers)
    return start, time.monotonic(), list(model.ddp_stats["step_losses"])


class Phase:
    """Timed fits until ``seconds`` are spent, under a step clock."""

    def __init__(self, enc, seed: int, seconds: float) -> None:
        clock = StepClock()
        self.fits = []
        try:
            with ProcSampler([os.getpid()]) as sampler:
                window = HostWindow(sampler)
                self.start = time.monotonic()
                while (not self.fits
                       or time.monotonic() - self.start < seconds):
                    self.fits.append(_fit(enc, seed, N_WORKERS))
                self.end = time.monotonic()
                self.host = window.close()
        finally:
            clock.uninstall()
        self.peak_rss_mb = sampler.peak_rss / 2**20
        self.epochs = [e for e in clock.epoch_steps() if e]
        self.steps = [x for e in self.epochs for x in e]


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Dict:
    leaks = LeakCheck()
    setups = []
    for _ in range(SETUPS):
        start = time.monotonic()
        enc, _ = _setup(seed)
        setups.append(time.monotonic() - start)
    phase = Phase(enc, seed, seconds)
    layers = None
    if trace:
        layers = _traced(seed, seconds, phase)
    _, _, expected = _fit(enc, seed, 1)
    leak = leaks.finish()

    failed = 0
    attempted = 0
    for _, _, losses in phase.fits:
        attempted += max(len(losses), len(expected))
        failed += sum(a != b for a, b in zip(losses, expected))
        failed += abs(len(losses) - len(expected))
    failed += leak["leaks"]
    attempted += leak["leaks"]

    rates = [len(enc.train) / sum(e) for e in phase.epochs]
    tails = [tail(e) for e in phase.epochs]
    info = {"fits_s": [b - a for a, b, _ in phase.fits],
            "epoch_examples_per_s": rates, "steps": len(phase.steps),
            "tail_percentile": tails[0][1], "train_examples": len(enc.train),
            "leaks": leak, "setups_s": setups}
    metrics = {
        "setup_s": setup_time(setups),
        "peak_rss_mb": phase.peak_rss_mb,
        "latency_p50_ms": 1e3 * median([median(e) for e in phase.epochs]),
        "latency_tail_ms": 1e3 * median([v for v, _ in tails]),
        "throughput_per_s": median(rates),
        "goodput_frac": (attempted - failed) / attempted,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "layers": layers, "info": info}


def _traced(seed: int, seconds: float, phase: Phase) -> Dict[str, float]:
    from spans import SpanSet, Tracer, install, model_metrics

    tracer = install(Tracer())
    try:
        start = time.monotonic()
        enc, _ = _setup(seed)
        setup = SpanSet(tracer.drain()).within([(start, time.monotonic())])
        traced = Phase(enc, seed, seconds)
        window = [(traced.start, traced.end)]
        spans = SpanSet(tracer.drain()).within(window)
    finally:
        tracer.uninstall()

    epochs = [s for s in spans.layer("train.epoch") if s.attrs]
    steps = sum(s.attrs["steps"] for s in epochs)
    forward = [s for s in spans.layer("model.forward")
               if "train.epoch" in spans.ancestor_layers(s)]
    last = max(epochs, key=lambda s: s.end)
    out = model_metrics(spans)
    lexing = model_metrics(setup)
    for name in ("lex.ms_total", "lex.us_per_token", "lex.recovered",
                 "encode.ms_total"):
        out[name] = lexing[name]
    out["engine.pad_ratio"] = 0.0   # training trims batches, no engine
    out.update({
        "train.forward_ms": 1e3 * sum(s.duration for s in forward) / steps,
        "train.backward_ms": 1e3 * spans.total("model.backward") / steps,
        "train.optimizer_ms": 1e3 * spans.total("optim") / steps,
        "train.reduce_wait_ms": 1e3 * sum(spans.self_time(s)
                                          for s in epochs) / steps,
        "train.validation_ms": 1e3 * spans.total("train.validation")
        / len(epochs),
        "train.grad_bytes_per_step": last.attrs["grad_bytes_total"]
        / last.attrs["steps_total"],
        "trace.coverage": spans.coverage(window, exclude=("train.epoch",)),
        "trace.overhead_frac": median(traced.steps) / median(phase.steps)
        - 1.0,
    })
    out.update(phase.host)
    return out
