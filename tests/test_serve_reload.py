"""Hot model reload: engine slot swaps, checkpoint reloads, the watcher.

The operability contract under test (see ``docs/operations.md``): a
reload swaps every head atomically behind the front door, in-flight
requests finish on the weights they started with, and a prediction cached
under the old model version is never served for the new one — the
version tag is part of every cache key, so stale entries *miss* instead
of needing an explicit flush.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    CheckpointWatcher,
    EngineConfig,
    InferenceEngine,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
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


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)


def _registry(vocab, seed0):
    """Three tiny heads; different ``seed0`` gives different weights."""
    registry = ModelRegistry()
    for k, name in enumerate(HEAD_NAMES):
        registry.register(name, PragFormer(len(vocab), replace(TINY, seed=seed0 + k),
                                           rng=seed0 + k),
                          vocab, max_len=TINY.max_len)
    return registry


@pytest.fixture()
def checkpoints(vocab, tmp_path):
    """Two advisor checkpoints with distinct weights, on disk."""
    a, b = tmp_path / "ckpt_a", tmp_path / "ckpt_b"
    _registry(vocab, 0).save(a)
    _registry(vocab, 100).save(b)
    return a, b


class TestEngineSwapModel:
    def test_swap_changes_predictions_and_version(self, vocab):
        old = PragFormer(len(vocab), TINY, rng=1)
        new = PragFormer(len(vocab), TINY, rng=2)
        engine = InferenceEngine(old, vocab, max_len=TINY.max_len)
        assert engine.model_version == "0"
        before = engine.predict_proba(SNIPPETS)
        tag = engine.swap_model(new, vocab, TINY.max_len, version="canary")
        assert tag == "canary" and engine.model_version == "canary"
        after = engine.predict_proba(SNIPPETS)
        expected = InferenceEngine(new, vocab,
                                   max_len=TINY.max_len).predict_proba(SNIPPETS)
        np.testing.assert_allclose(after, expected, atol=1e-6)
        assert not np.allclose(before, after)

    def test_swap_version_defaults_to_counter(self, vocab):
        model = PragFormer(len(vocab), TINY, rng=1)
        engine = InferenceEngine(model, vocab, max_len=TINY.max_len)
        assert engine.swap_model(model, vocab) == "swap-1"
        assert engine.swap_model(model, vocab) == "swap-2"

    def test_cached_prediction_misses_after_swap(self, vocab):
        """The eviction-correctness regression: a digest cached under the
        old version must MISS after the swap — no stale predictions."""
        model = PragFormer(len(vocab), TINY, rng=1)
        engine = InferenceEngine(model, vocab, max_len=TINY.max_len)
        engine.predict_proba(SNIPPETS)      # populate the LRU
        engine.predict_proba(SNIPPETS)      # provably cached
        assert engine.stats.cache_hits == len(SNIPPETS)
        engine.swap_model(PragFormer(len(vocab), TINY, rng=2), vocab,
                          TINY.max_len)
        engine.predict_proba(SNIPPETS)      # same snippets, new version
        assert engine.stats.cache_hits == len(SNIPPETS)  # zero new hits
        assert engine.stats.cache_misses == 2 * len(SNIPPETS)

    def test_encode_memo_is_version_keyed(self, vocab):
        """A vocabulary change on swap must re-encode — the memo key
        carries the version tag, so old rows cannot leak through."""
        small = Vocab.build([text_tokens(SNIPPETS[0])], min_freq=1)
        model = PragFormer(len(vocab), TINY, rng=1)
        engine = InferenceEngine(model, vocab, max_len=TINY.max_len)
        before = engine.encode(SNIPPETS[0])
        engine.swap_model(PragFormer(len(small), TINY, rng=2), small,
                          TINY.max_len)
        after = engine.encode(SNIPPETS[0])
        assert engine.stats.tokenized == 2  # re-encoded, not memoized
        assert before.shape != after.shape or not np.array_equal(before, after)

    def test_swap_mid_call_keeps_snapshotted_slot(self, vocab):
        """A swap landing inside a bulk call (here: from the first
        sub-batch's forward) leaves the rest of that call on the slot it
        snapshotted; the next call runs wholly on the new weights."""
        old = _SwapOnFirstForward(len(vocab), TINY, rng=1)
        new = PragFormer(len(vocab), TINY, rng=2)
        codes = SNIPPETS[:4]
        config = EngineConfig(max_batch_size=1)  # one forward per snippet
        expected_old = InferenceEngine(old, vocab, max_len=TINY.max_len,
                                       config=config).predict_proba(codes)
        expected_new = InferenceEngine(new, vocab, max_len=TINY.max_len,
                                       config=config).predict_proba(codes)
        engine = InferenceEngine(old, vocab, max_len=TINY.max_len,
                                 config=config)
        old.hook = lambda: engine.swap_model(new, vocab, TINY.max_len)
        during = engine.predict_proba(codes)
        assert old.hook is None and engine.model_version == "swap-1"
        assert engine.stats.batches == len(codes)
        np.testing.assert_array_equal(during, expected_old)
        np.testing.assert_array_equal(engine.predict_proba(codes),
                                      expected_new)


class _SwapOnFirstForward(PragFormer):
    """A model that runs ``hook`` (once) at the start of its next forward."""

    hook = None

    def predict_rows(self, *args, **kwargs):
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()
        return super().predict_rows(*args, **kwargs)


class TestMultiModelReload:
    def test_reload_swaps_all_heads(self, vocab, checkpoints):
        a, b = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine, \
                MultiModelEngine(ModelRegistry.from_checkpoint(b)) as fresh_b:
            expected = fresh_b.advise_v1(SNIPPETS)
            version = engine.reload(b)
            assert version == f"v1:{b.name}"
            assert engine.model_version == version
            got = engine.advise_v1(SNIPPETS)
            for e, g in zip(expected, got):
                np.testing.assert_allclose(g.probability,
                                           e.probability, atol=1e-6)
                for name in e.clauses:
                    np.testing.assert_allclose(g.clauses[name].probability,
                                               e.clauses[name].probability,
                                               atol=1e-6)

    def test_no_stale_cache_across_reload(self, vocab, checkpoints):
        a, b = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            engine.advise_v1(SNIPPETS)
            engine.advise_v1(SNIPPETS)  # cached under version "0"
            hits_before = engine.stats()["combined"]["cache_hits"]
            assert hits_before == 3 * len(SNIPPETS)
            engine.reload(b)
            engine.advise_v1(SNIPPETS)  # must all miss
            assert engine.stats()["combined"]["cache_hits"] == hits_before

    def test_reload_updates_registry_and_stats(self, vocab, checkpoints):
        a, b = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            old_models = {n: engine.registry.get(n).model for n in HEAD_NAMES}
            engine.reload(b)
            stats = engine.stats()
            assert stats["model_version"] == f"v1:{b.name}"
            assert stats["reloads"] == 1
            assert engine.registry.names() == list(HEAD_NAMES)
            for name in HEAD_NAMES:
                assert engine.registry.get(name).model is not old_models[name]
                assert engine.registry.get(name).model is engine.engines[name].model

    def test_missing_checkpoint_leaves_old_weights(self, vocab, checkpoints,
                                                   tmp_path):
        a, _ = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            before = engine.advise_v1([SNIPPETS[0]])[0]
            with pytest.raises(FileNotFoundError):
                engine.reload(tmp_path / "nope")
            assert engine.model_version == "0"
            assert engine.advise_v1([SNIPPETS[0]])[0] == before

    def test_incomplete_checkpoint_rejected(self, vocab, tmp_path,
                                            checkpoints):
        """A checkpoint missing a served head must fail whole — no head
        swapped, old weights keep serving."""
        a, _ = checkpoints
        partial = ModelRegistry()
        partial.register("directive", PragFormer(len(vocab), TINY, rng=7),
                         vocab, max_len=TINY.max_len)
        partial.save(tmp_path / "partial")
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            with pytest.raises(ValueError, match="lacks served heads"):
                engine.reload(tmp_path / "partial")
            assert engine.model_version == "0"

    def test_reload_under_concurrent_load(self, vocab, checkpoints):
        """The acceptance gate: swap a checkpoint while requests hammer
        the engine — zero failed requests, and every post-reload verdict
        comes from the new weights."""
        a, b = checkpoints
        engine = MultiModelEngine(ModelRegistry.from_checkpoint(a))
        errors: list = []
        served = [0]
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    full = engine.advise_v1(SNIPPETS)
                    assert len(full) == len(SNIPPETS)
                    served[0] += len(full)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            engine.reload(b)
            stop.set()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            assert served[0] > 0
            with MultiModelEngine(ModelRegistry.from_checkpoint(b)) as fresh:
                expected = fresh.advise_v1([SNIPPETS[0]])[0]
            got = engine.advise_v1([SNIPPETS[0]])[0]
            np.testing.assert_allclose(got.probability,
                                       expected.probability,
                                       atol=1e-6)
        finally:
            stop.set()
            engine.close()


class TestCheckpointWatcher:
    def test_poll_reloads_on_manifest_change(self, vocab, checkpoints):
        a, _ = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            watcher = CheckpointWatcher(engine, a, interval=0.05)
            assert watcher.poll_once() is False  # nothing changed yet
            _registry(vocab, 50).save(a)         # new checkpoint lands
            assert watcher.poll_once() is True
            assert watcher.reloads == 1 and watcher.last_error is None
            assert engine.model_version == f"v1:{a.name}"

    def test_broken_checkpoint_recorded_not_fatal(self, vocab, checkpoints):
        a, _ = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            watcher = CheckpointWatcher(engine, a, interval=0.05)
            before = engine.advise_v1([SNIPPETS[0]])[0]
            (a / "advisor.json").write_text("{not json")
            assert watcher.poll_once() is True
            assert watcher.reloads == 0
            assert watcher.last_error is not None
            # old weights keep serving, and the broken file is not retried
            assert engine.advise_v1([SNIPPETS[0]])[0] == before
            assert watcher.poll_once() is False

    def test_watch_thread_end_to_end(self, vocab, checkpoints):
        a, _ = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            with CheckpointWatcher(engine, a, interval=0.05) as watcher:
                _registry(vocab, 60).save(a)
                for _ in range(200):  # up to ~10s for the poll to fire
                    if watcher.reloads:
                        break
                    threading.Event().wait(0.05)
                assert watcher.reloads >= 1
                assert engine.model_version.startswith("v1:")
            watcher.stop()  # idempotent

    def test_rejects_bad_interval(self, vocab, checkpoints):
        a, _ = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            with pytest.raises(ValueError):
                CheckpointWatcher(engine, a, interval=0.0)

    def test_baseline_mtime_catches_rollout_during_load(self, vocab,
                                                        checkpoints):
        """The CLI captures the manifest mtime BEFORE the (slow) advisor
        load; a checkpoint written in that window must be reloaded by the
        first poll, not absorbed into the watcher's baseline."""
        from repro.serve import checkpoint_mtime

        a, _ = checkpoints
        baseline = checkpoint_mtime(a)
        assert baseline is not None
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            _registry(vocab, 70).save(a)  # rollout lands "during load"
            watcher = CheckpointWatcher(engine, a, interval=0.05,
                                        baseline_mtime=baseline)
            assert watcher.poll_once() is True
            assert watcher.reloads == 1
            assert engine.model_version == f"v1:{a.name}"

    def test_baseline_none_reloads_checkpoint_created_during_load(
            self, vocab, checkpoints, tmp_path):
        """Empty watch dir at probe time (baseline None): a checkpoint
        appearing before the first poll must be picked up."""
        a, _ = checkpoints
        late = tmp_path / "late_ckpt"
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            watcher = CheckpointWatcher(engine, late, interval=0.05,
                                        baseline_mtime=None)
            assert watcher.poll_once() is False  # still nothing there
            _registry(vocab, 80).save(late)
            assert watcher.poll_once() is True
            assert engine.model_version == f"v1:{late.name}"


class TestShardedReload:
    def _factory(self, path):
        import functools

        return functools.partial(_sharded_worker, str(path))

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_broadcast_reload(self, checkpoints, n_shards):
        a, b = checkpoints
        with ShardedEngine(self._factory(a), n_shards=n_shards) as sharded, \
                MultiModelEngine(ModelRegistry.from_checkpoint(b)) as fresh:
            expected = fresh.advise_v1(SNIPPETS)
            version = sharded.reload(b)
            assert version == f"v1:{b.name}"
            got = sharded.advise_v1(SNIPPETS)
            for e, g in zip(expected, got):
                np.testing.assert_allclose(g.probability,
                                           e.probability, atol=1e-6)
            stats = sharded.stats()
            assert stats["model_version"] == version

    def test_reload_unsupported_engine_raises(self, vocab):
        model = PragFormer(len(vocab), TINY, rng=1)

        def factory():
            return InferenceEngine(model, vocab, max_len=TINY.max_len)

        with ShardedEngine(factory, n_shards=1) as sharded:
            with pytest.raises(RuntimeError, match="reload"):
                sharded.reload("anywhere")


def _sharded_worker(path):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path))
