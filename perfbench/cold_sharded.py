"""Workload ``cold_sharded``: closed-loop ``advise_v1`` batches against a
``ShardedEngine`` pinned at two shards, every snippet new.

One client thread sends the next batch as soon as the previous one is
answered.  No snippet repeats within a run, so nothing is served from a
cache: every snippet is lexed (about one in ten is a seeded
``repro.clang.fuzz`` mutant that needs error recovery), encoded, sent
over the shard IPC and run through all three heads.  The fleet is built
like ``repro serve --shards 2 --watch DIR``: heads loaded from a
checkpoint into one shared weights segment, default engine settings, no
autoscaler.  A batch is 128 snippets, the ``--batch-size`` default with
which that command's request loop flushes to the fleet.

``setup_s`` is the mean of ``SETUPS`` fleets timed from checkpoint
load to their first answer.  The measured time is split over ``TRIALS``
further fleets; each is warmed, then runs batches, and the statistics
pool the batches of all trials: one fleet can serve faster than the
next for its whole life, so many short-lived fleets measure the program
more steadily than a few long-lived ones.  ``run.py`` gives each shard
worker ``nproc / SHARDS`` BLAS threads.
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

from common import (HostWindow, LeakCheck, ProcSampler, median, mix_positions,
                    setup_time, tail, union_length)
from serving import (answer, distinct_snippets, fuzz_mutants, make_checkpoint,
                     reference, same_answer)

from repro.serve import (EngineConfig, ModelRegistry, MultiModelEngine,
                         ShardedEngine)

SHARDS = 2
#: ``repro serve --shards N`` sends its requests to the fleet in batches
#: of ``--batch-size`` (default 128)
BATCH = 128
FUZZ_FRAC = 0.10
SETUPS = 15
TRIALS = 8
WARM_BATCHES = 1
#: snippets generated per measured second; a trial ends early (and the
#: run says so) if the program ever serves faster than this
POOL_PER_S = 1200


class _TracedEngine(MultiModelEngine):
    """A worker engine whose ``stats()`` also hands over (and clears) the
    spans recorded in its process — the only channel back to the parent
    that the fleet already has."""

    tracer = None

    def stats(self):
        out = super().stats()
        out["perfbench_spans"] = self.tracer.drain()
        return out


def _engine(registry, config, tracer=None):
    """Worker-side engine factory (module level: the fleet forks it)."""
    if tracer is None:
        return MultiModelEngine(registry, config=config)
    engine = _TracedEngine(registry, config=config)
    engine.tracer = tracer
    return engine


def _fleet(checkpoint: Path, tracer=None) -> ShardedEngine:
    registry, shared = ModelRegistry.from_checkpoint(checkpoint, share=True)
    factory = functools.partial(_engine, registry, EngineConfig(), tracer)
    try:
        return ShardedEngine(factory, n_shards=SHARDS, shared_weights=shared)
    except BaseException:
        if shared is not None:
            shared.close()
            shared.unlink()
        raise


def _snippets(seed: int, n: int) -> Tuple[List[str], Set[str]]:
    """``n`` distinct snippets, ``FUZZ_FRAC`` of them fuzz mutants at
    seeded positions, and the set of those mutants."""
    n_mut = round(n * FUZZ_FRAC)
    clean = distinct_snippets(n - n_mut, seed)
    mutants = fuzz_mutants(clean[:500], n_mut, seed, exclude=clean)
    mutant_it, clean_it = iter(mutants), iter(clean)
    codes = [next(mutant_it) if m else next(clean_it)
             for m in mix_positions(n, n_mut, seed)]
    return codes, set(mutants)


def time_setup(checkpoint: Path, code: str) -> float:
    """Seconds from loading the checkpoint to the fleet's first answer."""
    start = time.monotonic()
    fleet = _fleet(checkpoint)
    try:
        fleet.advise_v1([code])
        return time.monotonic() - start
    finally:
        fleet.close()


class Trial:
    """One fleet: a warm-up, then closed-loop batches for ``seconds``."""

    def __init__(self, checkpoint: Path, codes: List[str], seconds: float,
                 tracer=None) -> None:
        fleet = _fleet(checkpoint, tracer)
        try:
            cursor = 0
            for _ in range(WARM_BATCHES):
                fleet.advise_v1(codes[cursor:cursor + BATCH])
                cursor += BATCH
            self.stats0 = fleet.stats()
            self.codes = codes
            self.batches: List[tuple] = []
            self.start = time.monotonic()
            while (cursor < len(codes)
                   and time.monotonic() - self.start < seconds):
                b0 = time.monotonic()
                results = fleet.advise_v1(codes[cursor:cursor + BATCH])
                self.batches.append((cursor, b0, time.monotonic(), results))
                cursor += len(results)
            self.end = time.monotonic()
            self.exhausted = cursor >= len(codes)
            self.stats1 = fleet.stats()
        finally:
            fleet.close()

    def latencies(self) -> List[float]:
        return [b1 - b0 for _, b0, b1, _ in self.batches]

    def snippets(self) -> int:
        return sum(len(r) for *_, r in self.batches)

    def answers(self):
        """``(code, result)`` for every snippet answered in the loop."""
        for i, _, _, results in self.batches:
            for k, result in enumerate(results):
                yield self.codes[i + k], result


class Phase:
    """``TRIALS`` trials over consecutive slices of ``codes``, with the
    program's processes sampled throughout."""

    def __init__(self, checkpoint: Path, codes: List[str], seconds: float,
                 tracer=None) -> None:
        per = len(codes) // TRIALS
        with ProcSampler([os.getpid()]) as sampler:
            window = HostWindow(sampler)
            self.trials = [Trial(checkpoint, codes[k * per:(k + 1) * per],
                                 seconds / TRIALS, tracer)
                           for k in range(TRIALS)]
            self.host = window.close()
        self.peak_rss_mb = sampler.peak_rss / 2**20

    def latencies(self) -> List[float]:
        return [x for t in self.trials for x in t.latencies()]

    def throughput(self) -> float:
        """Snippets per second over all trials' loops."""
        return (sum(t.snippets() for t in self.trials)
                / sum(t.end - t.start for t in self.trials))


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Dict:
    checkpoint = make_checkpoint(workdir / "ckpt")
    per_phase = TRIALS * WARM_BATCHES * BATCH + int(POOL_PER_S * seconds)
    codes, mutants = _snippets(seed, SETUPS + per_phase * (2 if trace else 1))
    setup_codes, codes = codes[:SETUPS], codes[SETUPS:]
    leaks = LeakCheck()
    setups = [time_setup(checkpoint, code) for code in setup_codes]
    phase = Phase(checkpoint, codes[:per_phase], seconds)
    traced = None
    if trace:
        from spans import Tracer, install

        tracer = install(Tracer())
        try:
            traced = Phase(checkpoint, codes[per_phase:], seconds, tracer)
        finally:
            tracer.uninstall()
        traced.spans = tracer.drain() + [
            span for t in traced.trials for shard in t.stats1["shards"]
            for span in shard.get("perfbench_spans", [])]
    leak = leaks.finish()

    answered = [pair for t in phase.trials for pair in t.answers()]
    expected = reference(checkpoint, [code for code, _ in answered])
    failed = sum(not same_answer(answer(result.as_dict()), expected[code])
                 or (result.degraded and code not in mutants)
                 for code, result in answered)
    failed += leak["leaks"]
    attempted = len(answered) + leak["leaks"]

    lat = phase.latencies()
    p_tail, q_tail = tail(lat)
    info = {"batches": len(lat), "batch_size": BATCH,
            "tail_percentile": q_tail, "snippets": len(answered),
            "trial_throughput": [t.snippets() / (t.end - t.start)
                                 for t in phase.trials],
            "pool_exhausted": any(t.exhausted for t in phase.trials),
            "leaks": leak, "setups_s": setups}
    metrics = {
        "setup_s": setup_time(setups),
        "peak_rss_mb": phase.peak_rss_mb,
        "latency_p50_ms": 1e3 * median(lat),
        "latency_tail_ms": 1e3 * p_tail,
        "throughput_per_s": phase.throughput(),
        "goodput_frac": (attempted - failed) / attempted,
    }
    layers = _layer_metrics(phase, traced) if traced is not None else None
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "layers": layers, "info": info}


def _delta(phase: Phase, *path: str) -> float:
    """A fleet counter's increase over the measured loops, summed over
    trials."""
    def get(stats):
        for key in path:
            stats = stats.get(key, {}) if isinstance(stats, dict) else {}
        return stats if isinstance(stats, (int, float)) else 0
    return sum(get(t.stats1) - get(t.stats0) for t in phase.trials)


def _layer_metrics(phase: Phase, traced: Phase) -> Dict[str, float]:
    from spans import SpanSet, model_metrics

    windows = [(t.start, t.end) for t in traced.trials]
    spans = SpanSet(traced.spans).within(windows)
    me = os.getpid()
    worker_roots = [s for s in spans.spans if s.pid != me and s.parent == 0]
    router: List[float] = []
    ipc_wait: List[float] = []
    for call in spans.layer("sharding"):
        inside = [w for w in worker_roots
                  if w.start >= call.start and w.end <= call.end]
        router.append(spans.self_time(call, extra=inside))
        local = union_length((c.start, c.end)
                             for c in spans.children[(call.pid, call.sid)])
        slowest = max((w.duration for w in inside), default=0.0)
        ipc_wait.append(call.duration - local - slowest)
    routed = [sum(t.stats1["routed"][k] - t.stats0["routed"][k]
                  for t in traced.trials) for k in range(SHARDS)]
    hits = _delta(traced, "combined", "cache_hits")
    lookups = hits + _delta(traced, "combined", "cache_misses")
    batches = _delta(traced, "combined", "batches")
    snippets = sum(t.snippets() for t in traced.trials)
    out = model_metrics(spans)
    out.update({
        "registry.self_ms_p50": 1e3 * median(
            [spans.self_time(s) for s in worker_roots
             if s.layer == "registry"]),
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.coalesced": _delta(traced, "combined", "coalesced"),
        "engine.rows_per_batch": _delta(traced, "combined", "model_rows")
        / batches if batches else 0.0,
        "lex.calls_per_request": len(spans.layer("lex")) / snippets,
        "sharding.router_ms_p50": 1e3 * median(router),
        "sharding.ipc_wait_ms_p50": 1e3 * median(ipc_wait),
        "sharding.routed_imbalance": max(routed) / (sum(routed) / SHARDS)
        if sum(routed) else 0.0,
        "sharding.ring_overflows": _delta(traced, "ipc", "ring_overflows"),
        "sharding.retries": _delta(traced, "supervisor", "retries"),
        "trace.coverage": spans.coverage(windows, exclude=("sharding",)),
        "trace.overhead_frac": median(traced.latencies())
        / median(phase.latencies()) - 1.0,
    })
    out.update(phase.host)
    return out
