"""One-copy weights: fleet memory sublinearity, swap parity, shm hygiene.

A sharded rollout publishes each checkpoint's weight blob into **one**
parent-owned ``multiprocessing.shared_memory`` segment; the N shard
workers attach it read-only and bind their models as zero-copy views.
This bench measures what that buys and holds the invariants that make it
safe to ship:

- **Memory sublinearity** — the probe trace runs through fleets of
  {1, 2, 4, 8} shards (every fleet, n=1 included, runs worker processes)
  after a reload published a shared segment.  Each worker's
  ``/proc/<pid>/smaps`` entry for the ``repro-weights`` mapping is
  summed: Rss counts the full segment once per worker (every attacher
  digest-validates the blob, touching every page), while Pss divides each
  shared page among its mappers.  ``sublinearity_ratio_8`` (8-shard
  fleet-wide Pss over 8x the 1-shard Pss) and ``sharing_factor_8``
  (Rss/Pss at 8 shards — "how many processes share each resident page")
  are page-accounting ratios, machine-stable, and gated by
  ``scripts/bench_gate.py``; wall-clock cold-start and reload times ride
  along report-only.

- **Reload parity** — a fleet hot-swapped onto a checkpoint's shared
  segment must agree bit for bit with a fleet of the same shard count
  and batching cold-started on that checkpoint, whose workers each load
  a private blob copy (``reload_parity_mismatches``), and with a fresh
  in-process engine on it (``stale_hits_after_swap``) — sharing is a
  memory optimization, never a numerics change, and the swap leaves
  nothing stale.

- **Canary flip** — a canary at fraction 1.0 is started from a second
  segment and promoted; promotion is a pointer flip (the canary segment
  becomes primary) and post-promote verdicts must match the promoted
  checkpoint exactly (``canary_flip.stale_after_promote``).

- **/dev/shm hygiene under faults** — workers are killed while holding
  primary *and* canary mappings, then the engine is closed; the parent
  owns every segment it created, so ``leaked_segments_after_faults``
  must be 0.

Results merge into the ``weight_sharing`` section of
``BENCH_serving.json`` (the throughput bench owns the other sections).
"""

import functools
import glob
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import timed, write_bench_report

from repro.models import PragFormer
from repro.models.persistence import WEIGHTS_NAME_PREFIX
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    EngineConfig,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
    SupervisorConfig,
)
from repro.tokenize import Vocab, text_tokens

pytestmark = pytest.mark.perf

SHARD_COUNTS = (1, 2, 4, 8)
HEAD_NAMES = ("directive", "private", "reduction")

# big enough that the segment spans hundreds of pages (so the smaps
# Rss/Pss ratios are well-resolved), small enough to stay a fast bench
CFG = PragFormerConfig(d_model=48, n_heads=4, n_layers=2, d_ff=96,
                       d_head_hidden=32, max_len=32, batch_size=8, seed=0)

#: 64 distinct snippets: digest routing spreads them across 8 shards
PROBE = [f"for (i = 0; i < {n}; i++) a[i] = b[i] + {n};" for n in range(64)]

FAST = SupervisorConfig(request_timeout_s=2.0, heartbeat_interval_s=0.05,
                        heartbeat_timeout_s=0.4, restart_backoff_s=0.01,
                        restart_backoff_max_s=0.05)


def _registry(vocab, seed0):
    registry = ModelRegistry()
    for k, name in enumerate(HEAD_NAMES):
        registry.register(name,
                          PragFormer(len(vocab), replace(CFG, seed=seed0 + k),
                                     rng=seed0 + k),
                          vocab, max_len=CFG.max_len)
    return registry


def _build_multi(path, config):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path),
                            config=config)


def _fleet(path, n_shards, supervisor=None):
    return ShardedEngine(
        functools.partial(_build_multi, str(path),
                          EngineConfig(max_batch_size=64)),
        n_shards=n_shards, supervisor=supervisor)


def _verdicts(advisor):
    """(directive prob, sorted clause probs) per probe snippet."""
    return [(result.probability,
             tuple(sorted((name, clause.probability)
                          for name, clause in result.clauses.items())))
            for result in advisor.advise_v1(PROBE)]


def _mismatches(got, expected, atol=1e-6):
    count = 0
    for (gp, gc), (ep, ec) in zip(got, expected):
        if abs(gp - ep) > atol:
            count += 1
        elif any(abs(g[1] - e[1]) > atol for g, e in zip(gc, ec)):
            count += 1
    return count


def _segments():
    return set(glob.glob(f"/dev/shm/{WEIGHTS_NAME_PREFIX}-*"))


def _weight_mapping_kb(pid, segment_name):
    """(rss_kb, pss_kb) of one process's mapping of the weight segment."""
    try:
        smaps = Path(f"/proc/{pid}/smaps").read_text()
    except OSError:
        return 0, 0
    rss = pss = 0
    in_mapping = False
    for line in smaps.splitlines():
        first = line.split(None, 1)[0] if line else ""
        if "-" in first:  # a map header: "addr-addr perms offset dev inode path"
            in_mapping = segment_name in line
        elif in_mapping and first == "Rss:":
            rss += int(line.split()[1])
        elif in_mapping and first == "Pss:":
            pss += int(line.split()[1])
    return rss, pss


def test_weight_sharing(tmp_path):
    vocab = Vocab.build([text_tokens(code) for code in PROBE], min_freq=1)
    ckpt_a, ckpt_b = tmp_path / "advisor_a", tmp_path / "advisor_b"
    _registry(vocab, 0).save(ckpt_a)
    _registry(vocab, 100).save(ckpt_b)
    with MultiModelEngine(ModelRegistry.from_checkpoint(ckpt_b)) as fresh:
        expected_b = _verdicts(fresh)

    # -- memory sweep: fleets at {1,2,4,8} shards -------------------------
    fleet_section = {}
    pss_total = {}
    rss_total = {}
    segment_kb = None
    for n_shards in SHARD_COUNTS:
        fleet, cold_start_s = timed(_fleet, ckpt_a, n_shards)
        try:
            fleet.advise_v1(PROBE)  # workers up and serving
            _, reload_s = timed(fleet.reload, ckpt_b)
            fleet.advise_v1(PROBE)  # serve from the mapped segment
            weights = fleet.stats()["weights"]
            assert weights["mode"] == "shared"
            segment = weights["primary_segment"]
            assert segment is not None
            segment_kb = Path(f"/dev/shm/{segment}").stat().st_size // 1024
            # settle: respawns from the reload barrier (there are none in
            # a healthy fleet, but don't race the accounting) and page
            # tables are stable by the time serving returned
            time.sleep(0.05)
            rss = pss = 0
            for worker in fleet._workers[:n_shards]:
                worker_rss, worker_pss = _weight_mapping_kb(worker.pid,
                                                            segment)
                rss += worker_rss
                pss += worker_pss
            rss_total[n_shards] = rss
            pss_total[n_shards] = pss
            fleet_section[str(n_shards)] = {
                "rss_kb_total": rss,
                "pss_kb_total": pss,
                "cold_start_s": round(cold_start_s, 3),
                "reload_s": round(reload_s, 3),
            }
        finally:
            fleet.close()

    # fleet-wide Pss at 8 shards vs 8x the 1-shard cost: the one-copy
    # claim as a page-accounting ratio (a private-copy fleet sits at 1.0)
    sublinearity_ratio_8 = pss_total[8] / (8 * pss_total[1])
    # how many processes share each resident page of the segment
    sharing_factor_8 = rss_total[8] / max(1, pss_total[8])

    # -- reload parity: hot-swapped vs cold-started fleet, vs an engine ---
    with _fleet(ckpt_a, 2) as shared_fleet, _fleet(ckpt_b, 2) as cold_fleet:
        shared_fleet.reload(ckpt_b)
        assert shared_fleet.stats()["weights"]["mode"] == "shared"
        assert cold_fleet.stats()["weights"]["mode"] == "private"
        shared_verdicts = _verdicts(shared_fleet)
        cold_verdicts = _verdicts(cold_fleet)
    reload_parity_mismatches = _mismatches(shared_verdicts, cold_verdicts,
                                           atol=0)
    stale_hits_after_swap = _mismatches(shared_verdicts, expected_b)

    # -- canary flip: promote is a pointer flip, nothing stale ------------
    with _fleet(ckpt_a, 2) as fleet:
        _, start_s = timed(fleet.start_canary, ckpt_b, 1.0)
        canary_segment = fleet.stats()["weights"]["canary_segment"]
        _, promote_s = timed(fleet.promote)
        weights = fleet.stats()["weights"]
        assert weights["primary_segment"] == canary_segment
        stale_after_promote = _mismatches(_verdicts(fleet), expected_b)
    canary_flip = {
        "fraction": 1.0,
        "start_s": round(start_s, 4),
        "promote_s": round(promote_s, 4),
        "stale_after_promote": stale_after_promote,
    }

    # -- /dev/shm hygiene: kill workers holding mappings, then close ------
    before = _segments()
    fleet = _fleet(ckpt_a, 2, supervisor=FAST)
    try:
        fleet.reload(ckpt_b)          # primary segment mapped everywhere
        fleet.start_canary(ckpt_a, 0.5)  # canary segment mapped too
        for worker in fleet._workers[:2]:
            worker.kill()
    finally:
        fleet.close()
    leaked_segments_after_faults = len(_segments() - before)

    section = {
        "probe_requests": len(PROBE),
        "segment_kb": segment_kb,
        "fleet": fleet_section,
        "sublinearity_ratio_8": round(sublinearity_ratio_8, 3),
        "sharing_factor_8": round(sharing_factor_8, 2),
        "reload_parity_mismatches": reload_parity_mismatches,
        "stale_hits_after_swap": stale_hits_after_swap,
        "reload_s": fleet_section["8"]["reload_s"],
        "canary_flip": canary_flip,
        "leaked_segments_after_faults": leaked_segments_after_faults,
    }
    path = write_bench_report("serving", {"weight_sharing": section},
                              merge=True)
    print(f"\nweight sharing: segment {segment_kb} kB; 8-shard fleet Pss "
          f"{pss_total[8]} kB vs {8 * pss_total[1]} kB for 8 private "
          f"1-shard copies (sublinearity {sublinearity_ratio_8:.2f}, "
          f"sharing factor {sharing_factor_8:.1f}); reload parity "
          f"{reload_parity_mismatches} mismatches, {stale_hits_after_swap} "
          f"stale after swap; canary promote "
          f"{canary_flip['promote_s'] * 1e3:.1f}ms with "
          f"{stale_after_promote} stale; "
          f"{leaked_segments_after_faults} leaked segments after faults; "
          f"report: {path}")

    # the gates scripts/bench_gate.py holds the committed report to
    assert reload_parity_mismatches == 0
    assert stale_hits_after_swap == 0
    assert stale_after_promote == 0
    assert leaked_segments_after_faults == 0
    assert sublinearity_ratio_8 <= 0.5, (
        f"8-shard fleet Pss not sublinear: {sublinearity_ratio_8:.2f}")
    assert sharing_factor_8 >= 4.0, (
        f"segment pages barely shared: {sharing_factor_8:.1f}")
