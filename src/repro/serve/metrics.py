"""First-class serving metrics: engine counters, batch histograms, merging.

Every layer of the serving stack reports through the types here:

* :class:`EngineStats` — monotonic counters kept by one
  :class:`~repro.serve.engine.InferenceEngine` (requests, cache hits and
  misses, LRU evictions, coalesced duplicates, model rows, and a
  power-of-two batch-size histogram).
* :func:`merge_stat_dicts` — fold the per-head or per-shard ``as_dict()``
  snapshots of many engines into one aggregate, used by
  :class:`~repro.serve.registry.MultiModelEngine` (one engine per model
  head) and :class:`~repro.serve.sharding.ShardedEngine` (one engine per
  worker process).
* :func:`batch_hist_bucket` — the shared histogram bucketing rule, exposed
  so the bench reporter and tests label buckets identically.
* :class:`ArmStats` / :func:`merge_arm_stats` — per-arm counters for a
  canary deployment (requests, errors, verdict agreement against the
  primary arm, latency), kept once for the primary arm and once for the
  canary arm by :class:`~repro.serve.registry.MultiModelEngine` and
  summed across worker processes by
  :class:`~repro.serve.sharding.ShardedEngine`.

Snapshots are plain ``dict``s with string keys throughout so they can go
straight into ``json.dumps`` for the ``/v1/stats`` HTTP endpoint and the
``BENCH_serving.json`` perf reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

__all__ = ["ArmStats", "EngineStats", "batch_hist_bucket", "merge_arm_stats",
           "merge_engine_stats", "merge_stat_dicts"]


def batch_hist_bucket(rows: int) -> str:
    """Histogram label for a batch of ``rows`` forward rows.

    Buckets are powers of two — ``"1"``, ``"2"``, ``"3-4"``, ``"5-8"``,
    ``"9-16"``, … — so the histogram stays a handful of keys no matter how
    ``max_batch_size`` is tuned.
    """
    if rows <= 1:
        return "1"
    if rows == 2:
        return "2"
    hi = 4
    while rows > hi:
        hi *= 2
    return f"{hi // 2 + 1}-{hi}"


@dataclass
class EngineStats:
    """Monotonic counters for observability of one engine instance.

    ``cache_hits``/``cache_misses``/``evictions`` describe the prediction
    LRU; ``tokenized``/``encode_evictions`` the tokenize-once memo;
    ``coalesced`` counts duplicate rows inside one bulk call that were
    folded into a single forward row; ``batch_size_hist`` counts executed
    model batches by :func:`batch_hist_bucket` label.

    The dirty-input counters: ``recovered`` counts snippets whose lex
    needed error recovery but that were still answered by the model;
    ``rejected`` counts snippets answered with a neutral degraded verdict
    instead of model output, broken down by cause — ``rejected_oversize``
    (over the per-snippet byte cap), ``rejected_budget`` (lex/encode blew
    the time budget) and ``rejected_error`` (tokenizer raised).
    """

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    coalesced: int = 0
    batches: int = 0
    model_rows: int = 0
    tokenized: int = 0
    evictions: int = 0
    encode_evictions: int = 0
    recovered: int = 0
    rejected: int = 0
    rejected_oversize: int = 0
    rejected_budget: int = 0
    rejected_error: int = 0
    batch_size_hist: Dict[str, int] = field(default_factory=dict)

    def record_batch(self, rows: int) -> None:
        """Account one executed model batch of ``rows`` forward rows."""
        self.batches += 1
        self.model_rows += rows
        label = batch_hist_bucket(rows)
        self.batch_size_hist[label] = self.batch_size_hist.get(label, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (the histogram is copied, not aliased)."""
        out: Dict[str, object] = dict(self.__dict__)
        out["batch_size_hist"] = dict(self.batch_size_hist)
        return out


@dataclass
class ArmStats:
    """Monotonic counters for one arm of a canary deployment.

    ``requests`` counts snippets the arm *served*; ``errors`` counts
    snippets whose inference on this arm raised (a canary-arm error falls
    back to the primary arm, so the request itself still succeeds).
    ``agreements``/``disagreements`` compare the canary arm's directive
    verdict against a shadow primary verdict for the same snippet — only
    the canary arm accumulates them.  ``latency_total_s`` over
    ``latency_samples`` is the arm's serving time per snippet (the sync
    bulk path records a batch's elapsed time against every row in it).

    Not internally locked — the owner (``MultiModelEngine``'s canary
    state) serializes updates.
    """

    requests: int = 0
    errors: int = 0
    agreements: int = 0
    disagreements: int = 0
    latency_total_s: float = 0.0
    latency_samples: int = 0

    def record_served(self, n: int, elapsed_s: float) -> None:
        """Account ``n`` snippets served in ``elapsed_s`` seconds."""
        self.requests += n
        self.latency_total_s += float(elapsed_s)
        self.latency_samples += n

    def record_agreements(self, agreed: Iterable[bool]) -> None:
        """Fold a batch of directive-verdict comparisons into the counters."""
        for ok in agreed:
            if ok:
                self.agreements += 1
            else:
                self.disagreements += 1

    @property
    def samples(self) -> int:
        """Outcomes a promotion policy can judge: served + errored."""
        return self.requests + self.errors

    def disagreement_rate(self) -> float:
        """Disagreements over compared verdicts (0.0 before any compare)."""
        compared = self.agreements + self.disagreements
        return self.disagreements / compared if compared else 0.0

    def error_rate(self) -> float:
        """Errors over policy samples (0.0 before any traffic)."""
        return self.errors / self.samples if self.samples else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot with the derived rates precomputed."""
        mean_ms = (1e3 * self.latency_total_s / self.latency_samples
                   if self.latency_samples else 0.0)
        return {
            "requests": self.requests,
            "errors": self.errors,
            "agreements": self.agreements,
            "disagreements": self.disagreements,
            "latency_total_s": round(self.latency_total_s, 6),
            "latency_samples": self.latency_samples,
            "latency_mean_ms": round(mean_ms, 3),
            "disagreement_rate": round(self.disagreement_rate(), 6),
            "error_rate": round(self.error_rate(), 6),
        }


def merge_arm_stats(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Sum many :meth:`ArmStats.as_dict` snapshots into one aggregate.

    Base counters add; the derived rates (``latency_mean_ms``,
    ``disagreement_rate``, ``error_rate``) are recomputed from the summed
    counters rather than averaged, so shards with unequal traffic weigh in
    proportionally.  Used by ``ShardedEngine.stats`` to fold per-worker
    canary arms into one fleet-wide view.
    """
    merged = ArmStats()
    for snap in snapshots:
        merged.requests += int(snap.get("requests", 0))
        merged.errors += int(snap.get("errors", 0))
        merged.agreements += int(snap.get("agreements", 0))
        merged.disagreements += int(snap.get("disagreements", 0))
        merged.latency_total_s += float(snap.get("latency_total_s", 0.0))
        merged.latency_samples += int(snap.get("latency_samples", 0))
    return merged.as_dict()


def merge_stat_dicts(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Sum many ``EngineStats.as_dict()`` snapshots into one aggregate.

    Integer counters add; ``batch_size_hist`` sub-dicts add per bucket.
    Unknown non-numeric keys are dropped rather than guessed at, so the
    merge stays safe across engine versions.
    """
    totals: Dict[str, object] = {}
    hist: Dict[str, int] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key == "batch_size_hist" and isinstance(value, dict):
                for bucket, count in value.items():
                    hist[bucket] = hist.get(bucket, 0) + int(count)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    totals["batch_size_hist"] = hist
    return totals


def merge_engine_stats(stats: Iterable["EngineStats"]) -> Dict[str, object]:
    """Convenience: :func:`merge_stat_dicts` over live stats objects."""
    return merge_stat_dicts(s.as_dict() for s in stats)
