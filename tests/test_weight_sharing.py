"""One-copy weights for the shard fleet: segment swap, drain, cleanup.

The contract under test (see ``docs/architecture.md``, memory topology):
a sharded rollout publishes the checkpoint blob into **one** parent-owned
shared segment and workers map it read-only — reload and canary
promotion become "map the new segment, flip the slot pointer", the
retired segment is unlinked immediately (POSIX drain semantics free it
when the last mapping closes), and ``close()`` unlinks every segment the
engine ever created even when workers died holding a mapping.  A
checkpoint whose blob fails its digest is refused before any worker
hears of it.  Verdicts must be bit-identical to a fleet cold-started on
the same checkpoint (private blob copies) — sharing is a memory
optimization, never a numerics change.
"""

import functools
import glob
import time
from dataclasses import replace

import numpy as np
import pytest

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

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 1; i < n; i++) a[i] = a[i-1];",
    "for (i = 0; i < n; i++) for (j = 0; j < m; j++) x[i][j] = i * j;",
    "while (k < n) { total += buf[k]; k++; }",
]

HEAD_NAMES = ("directive", "private", "reduction")

FAST = dict(request_timeout_s=2.0, heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.4, restart_backoff_s=0.01,
            restart_backoff_max_s=0.05)


def _segments():
    return set(glob.glob(f"/dev/shm/{WEIGHTS_NAME_PREFIX}-*"))


def wait_until(predicate, timeout=15.0, interval=0.05):
    """Poll ``predicate`` until truthy; fail loudly on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)


def _registry(vocab, seed0):
    registry = ModelRegistry()
    for k, name in enumerate(HEAD_NAMES):
        registry.register(name,
                          PragFormer(len(vocab), replace(TINY, seed=seed0 + k),
                                     rng=seed0 + k),
                          vocab, max_len=TINY.max_len)
    return registry


@pytest.fixture()
def checkpoints(vocab, tmp_path):
    a, b = tmp_path / "ckpt_a", tmp_path / "ckpt_b"
    _registry(vocab, 0).save(a)
    _registry(vocab, 100).save(b)
    return a, b


def _build_multi(path, config):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path),
                            config=config)


def _fleet(path, n_shards=2, supervisor=None):
    return ShardedEngine(
        functools.partial(_build_multi, str(path),
                          EngineConfig(max_batch_size=8)),
        n_shards=n_shards, supervisor=supervisor)


def _probs(advisor, codes=SNIPPETS):
    return [result.probability for result in advisor.advise_v1(codes)]


class TestReloadSegmentSwap:
    def test_reload_publishes_one_segment_fleet_wide(self, checkpoints):
        a, b = checkpoints
        before = _segments()
        with _fleet(a) as sharded, \
                MultiModelEngine(ModelRegistry.from_checkpoint(b)) as fresh:
            expected = _probs(fresh)
            sharded.reload(b)
            weights = sharded.stats()["weights"]
            assert weights["mode"] == "shared"
            assert weights["canary_segment"] is None
            name = weights["primary_segment"]
            assert name is not None and name.startswith(WEIGHTS_NAME_PREFIX)
            assert f"/dev/shm/{name}" in _segments() - before
            # one segment for the whole fleet, not one per shard
            assert len(_segments() - before) == 1
            np.testing.assert_allclose(_probs(sharded), expected, atol=1e-6)
        assert _segments() <= before

    def test_second_reload_retires_first_segment(self, checkpoints):
        a, b = checkpoints
        before = _segments()
        with _fleet(a) as sharded:
            sharded.reload(b)
            first = sharded.stats()["weights"]["primary_segment"]
            sharded.reload(a)
            weights = sharded.stats()["weights"]
            assert weights["primary_segment"] != first
            assert weights["segments_created"] == 2
            # the retired segment is unlinked as soon as it is superseded
            assert len(_segments() - before) == 1
        assert _segments() <= before

    def test_failed_reload_retires_its_segment(self, checkpoints, tmp_path):
        a, _ = checkpoints
        before = _segments()
        with _fleet(a) as sharded:
            with pytest.raises(RuntimeError):
                sharded.reload(tmp_path / "nonexistent_ckpt")
            assert _segments() <= before
            # the fleet still serves the original weights
            assert len(_probs(sharded)) == len(SNIPPETS)

    def test_no_sharing_mode_is_bit_identical(self, checkpoints):
        """A fleet hot-swapped onto B's shared segment answers exactly
        like a fleet cold-started on B, whose workers each load a private
        blob copy (``mode == "private"``) — sharing is invisible to
        callers."""
        a, b = checkpoints
        before = _segments()
        with _fleet(a) as swapped, _fleet(b) as cold:
            swapped.reload(b)
            assert swapped.stats()["weights"]["mode"] == "shared"
            assert cold.stats()["weights"]["mode"] == "private"
            np.testing.assert_allclose(_probs(swapped), _probs(cold),
                                       atol=0)
        assert _segments() <= before

    @pytest.mark.parametrize("rollout", ["reload", "start_canary"])
    def test_corrupt_blob_is_refused_before_any_worker(self, checkpoints,
                                                       rollout):
        """A blob failing its digest must fail the rollout in the parent:
        no version change, no private-copy fallback, the old weights keep
        serving, and no segment is left behind."""
        a, b = checkpoints
        blob = b / "weights.bin"
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        blob.write_bytes(bytes(raw))
        before = _segments()
        with _fleet(a) as sharded, \
                MultiModelEngine(ModelRegistry.from_checkpoint(a)) as fresh:
            expected = _probs(fresh)
            version = sharded.stats()["model_version"]
            with pytest.raises(ValueError, match="digest"):
                if rollout == "reload":
                    sharded.reload(b)
                else:
                    sharded.start_canary(b, 0.5)
            stats = sharded.stats()
            assert stats["model_version"] == version
            assert stats["weights"]["segments_created"] == 0
            assert stats.get("canary") is None
            assert _segments() <= before
            np.testing.assert_allclose(_probs(sharded), expected, atol=1e-6)
        assert _segments() <= before


class TestCanarySegmentFlip:
    def test_promote_flips_canary_segment_to_primary(self, checkpoints):
        a, b = checkpoints
        before = _segments()
        with _fleet(a) as sharded, \
                MultiModelEngine(ModelRegistry.from_checkpoint(b)) as fresh:
            expected = _probs(fresh)
            sharded.start_canary(b, 0.5)
            weights = sharded.stats()["weights"]
            canary_seg = weights["canary_segment"]
            assert canary_seg is not None
            sharded.promote()
            weights = sharded.stats()["weights"]
            # promotion is a pointer flip: the canary segment *is* the
            # new primary, no new segment was created
            assert weights["primary_segment"] == canary_seg
            assert weights["canary_segment"] is None
            assert len(_segments() - before) == 1
            np.testing.assert_allclose(_probs(sharded), expected, atol=1e-6)
        assert _segments() <= before

    def test_rollback_unlinks_canary_segment(self, checkpoints):
        a, b = checkpoints
        before = _segments()
        with _fleet(a) as sharded:
            sharded.start_canary(b, 0.5)
            assert len(_segments() - before) == 1
            sharded.rollback()
            assert _segments() <= before
            assert sharded.stats()["weights"]["canary_segment"] is None
        assert _segments() <= before


class TestCleanupAndReplay:
    def test_close_unlinks_segments_with_dead_worker(self, checkpoints):
        """Satellite contract: a worker killed while holding a weight
        mapping must not leak the segment past close() — the parent owns
        every segment it created."""
        a, b = checkpoints
        before = _segments()
        sharded = _fleet(a, supervisor=SupervisorConfig(**FAST))
        try:
            sharded.reload(b)
            assert len(_segments() - before) == 1
            sharded._workers[0].kill()
        finally:
            sharded.close()
        assert _segments() <= before

    def test_respawned_worker_replays_reload_from_segment(self, checkpoints):
        """A supervisor respawn after a reload must serve the *reloaded*
        weights: the replay spec carries the segment name and the new
        worker maps it at spawn (the segment stays linked while
        current)."""
        a, b = checkpoints
        with _fleet(a, supervisor=SupervisorConfig(**FAST)) as sharded, \
                MultiModelEngine(ModelRegistry.from_checkpoint(b)) as fresh:
            expected = _probs(fresh)
            version = sharded.reload(b)
            sharded._workers[0].kill()
            wait_until(
                lambda: sharded.stats()["supervisor"]["restarts"] >= 1)
            wait_until(lambda: all(w.is_alive()
                                   for w in sharded._workers[:2]))
            np.testing.assert_allclose(_probs(sharded), expected, atol=1e-6)
            stats = sharded.stats()
            assert stats["model_version"] == version
