"""Canary checkpoint rollouts: digest-sliced serving, promote/rollback.

The operability contract under test (see ``docs/operations.md``): a canary
serves a *deterministic* digest slice of traffic from a second checkpoint
while the primary keeps the rest; per-arm latency / error /
verdict-agreement counters accumulate in ``/v1/stats``; ``promote`` atomically
makes the canary the primary through the PR-4 versioned-slot machinery (so
a prediction cached under the old primary can never be served afterwards);
``rollback`` drops it without touching the primary; and a
:class:`~repro.serve.CanaryPolicy` finishes the rollout automatically.
The acceptance gate drives concurrent ``advise_v1`` load across a
``start_canary`` → ``promote`` sequence and requires zero dropped
requests, zero stale cache hits, and deterministic arm assignment.
"""

import functools
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    CanaryPolicy,
    EngineConfig,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
    canary_routes,
)
from repro.tokenize import Vocab, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

# enough snippets that a 50% digest slice reliably contains both arms
SNIPPETS = [
    f"for (i = 0; i < n; i++) a[i] = b[i] * {k} + c[i];" for k in range(16)
]

HEAD_NAMES = ("directive", "private", "reduction")
FRACTION = 0.5


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)


def _registry(vocab, seed0):
    """Three tiny heads; different ``seed0`` gives different weights."""
    registry = ModelRegistry()
    for k, name in enumerate(HEAD_NAMES):
        registry.register(name, PragFormer(len(vocab),
                                           replace(TINY, seed=seed0 + k),
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


@pytest.fixture()
def verdicts(vocab, checkpoints):
    """Reference AdviceResult per snippet from fresh engines on A and B."""
    a, b = checkpoints
    with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as ea, \
            MultiModelEngine(ModelRegistry.from_checkpoint(b)) as eb:
        return ea.advise_v1(SNIPPETS), eb.advise_v1(SNIPPETS)


def _assert_arm_split(got, exp_a, exp_b, fraction=FRACTION):
    """Every snippet's verdict must come from its digest-assigned arm."""
    canary_rows = 0
    for code, g, a, b in zip(SNIPPETS, got, exp_a, exp_b):
        ref = b if canary_routes(code, fraction) else a
        canary_rows += canary_routes(code, fraction)
        np.testing.assert_allclose(g.probability,
                                   ref.probability, atol=1e-6)
        for name in ref.clauses:
            np.testing.assert_allclose(g.clauses[name].probability,
                                       ref.clauses[name].probability,
                                       atol=1e-6)
    return canary_rows


class TestRouting:
    def test_deterministic_and_fraction_scaled(self):
        for fraction in (0.1, 0.5, 1.0):
            first = [canary_routes(code, fraction) for code in SNIPPETS]
            second = [canary_routes(code, fraction) for code in SNIPPETS]
            assert first == second
        # fraction 1.0 routes everything, and slices nest monotonically:
        # a snippet in the 10% slice is also in the 50% slice
        assert all(canary_routes(code, 1.0) for code in SNIPPETS)
        for code in SNIPPETS:
            if canary_routes(code, 0.1):
                assert canary_routes(code, 0.5)

    def test_split_has_both_arms(self):
        routed = [canary_routes(code, FRACTION) for code in SNIPPETS]
        assert any(routed) and not all(routed), (
            "test corpus must exercise both arms — regenerate SNIPPETS")


class TestStartCanary:
    def test_sync_and_async_serve_the_digest_slice(self, checkpoints,
                                                   verdicts):
        """Bulk and one-snippet advise_v1 calls both serve each snippet
        from its digest-assigned arm, labelled with that arm."""
        a, b = checkpoints
        exp_a, exp_b = verdicts
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            version = engine.start_canary(b, FRACTION)
            assert version == f"v1:{b.name}"
            got_bulk = engine.advise_v1(SNIPPETS)
            n_canary = _assert_arm_split(got_bulk, exp_a, exp_b)
            assert n_canary >= 1
            assert [r.arm == "canary" for r in got_bulk] == [
                canary_routes(code, FRACTION) for code in SNIPPETS]
            got_single = [engine.advise_v1([code])[0] for code in SNIPPETS]
            _assert_arm_split(got_single, exp_a, exp_b)
            # primary model_version is untouched while the canary runs
            assert engine.model_version == "0"

    def test_arm_counters_accumulate(self, checkpoints):
        a, b = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            engine.start_canary(b, FRACTION)
            engine.advise_v1(SNIPPETS)
            for code in SNIPPETS:
                engine.advise_v1([code])
            arms = engine.stats()["canary"]["arms"]
            expected_canary = 2 * sum(
                canary_routes(code, FRACTION) for code in SNIPPETS)
            assert arms["canary"]["requests"] == expected_canary
            assert arms["primary"]["requests"] == (
                2 * len(SNIPPETS) - expected_canary)
            assert arms["canary"]["errors"] == 0
            # every canary request was agreement-compared against a shadow
            # primary directive verdict
            assert (arms["canary"]["agreements"]
                    + arms["canary"]["disagreements"]) == expected_canary
            assert arms["canary"]["latency_samples"] == expected_canary
            assert arms["canary"]["latency_total_s"] > 0

    def test_second_canary_rejected(self, checkpoints):
        a, b = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            engine.start_canary(b, FRACTION)
            with pytest.raises(RuntimeError, match="already active"):
                engine.start_canary(b, FRACTION)

    def test_bad_checkpoint_leaves_primary_untouched(self, checkpoints,
                                                     tmp_path):
        a, _ = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            before = engine.advise_v1([SNIPPETS[0]])[0]
            with pytest.raises(FileNotFoundError):
                engine.start_canary(tmp_path / "nope", FRACTION)
            assert engine.stats()["canary"] is None
            assert engine.advise_v1([SNIPPETS[0]])[0] == before

    def test_invalid_fraction_rejected(self, checkpoints):
        a, b = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            for fraction in (0.0, -0.1, 1.5):
                with pytest.raises(ValueError):
                    engine.start_canary(b, fraction)

    def test_reload_blocked_while_canary_active(self, checkpoints):
        a, b = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            engine.start_canary(b, FRACTION)
            with pytest.raises(RuntimeError, match="canary"):
                engine.reload(b)


class TestPromoteRollback:
    def test_promote_swaps_primary_and_no_stale_cache(self, checkpoints,
                                                      verdicts):
        a, b = checkpoints
        _, exp_b = verdicts
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            engine.advise_v1(SNIPPETS)   # cached under version "0"
            engine.advise_v1(SNIPPETS)   # provably cached
            hits_before = engine.stats()["combined"]["cache_hits"]
            assert hits_before > 0
            version = engine.start_canary(b, FRACTION)
            engine.promote()
            assert engine.model_version == version
            assert engine.stats()["canary"] is None
            got = engine.advise_v1(SNIPPETS)  # all arms now B
            for g, ref in zip(got, exp_b):
                np.testing.assert_allclose(g.probability,
                                           ref.probability,
                                           atol=1e-6)
            # version-prefixed keys: the old primary's cached predictions
            # MISS after the promote — zero new hits
            assert engine.stats()["combined"]["cache_hits"] == hits_before
            summary = engine.stats()["last_canary"]
            assert summary["outcome"] == "promoted"
            assert summary["version"] == version

    def test_rollback_drops_canary_keeps_primary(self, checkpoints,
                                                 verdicts):
        a, b = checkpoints
        exp_a, _ = verdicts
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            engine.start_canary(b, FRACTION)
            engine.rollback()
            assert engine.model_version == "0"
            got = engine.advise_v1(SNIPPETS)  # all arms back to A
            for g, ref in zip(got, exp_a):
                np.testing.assert_allclose(g.probability,
                                           ref.probability,
                                           atol=1e-6)
            assert engine.stats()["last_canary"]["outcome"] == "rolled_back"

    def test_finish_without_canary_raises(self, checkpoints):
        a, _ = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            with pytest.raises(RuntimeError, match="no canary"):
                engine.promote()
            with pytest.raises(RuntimeError, match="no canary"):
                engine.rollback()


class TestCanaryPolicy:
    def test_auto_promote_on_agreement(self, vocab, checkpoints, tmp_path):
        """A canary identical to the primary agrees on every verdict, so a
        permissive policy promotes it once the sample floor is met."""
        a, _ = checkpoints
        same = tmp_path / "ckpt_same"
        _registry(vocab, 0).save(same)   # same seeds as A -> same verdicts
        policy = CanaryPolicy(min_samples=4, max_disagreement=0.0,
                              max_error_rate=0.0, auto_promote=True)
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            version = engine.start_canary(same, 1.0, policy=policy)
            for code in SNIPPETS:
                engine.advise_v1([code])
            summary = engine.stats()["last_canary"]
            assert summary is not None and summary["outcome"] == "promoted"
            assert "policy" in summary["reason"]
            assert engine.model_version == version

    def test_auto_rollback_on_disagreement(self, checkpoints):
        """Different weights disagree; a zero-tolerance policy rolls back
        and the primary keeps serving version 0."""
        a, b = checkpoints
        policy = CanaryPolicy(min_samples=4, max_disagreement=0.0,
                              max_error_rate=1.0, auto_promote=True)
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            engine.start_canary(b, 1.0, policy=policy)
            engine.advise_v1(SNIPPETS)
            summary = engine.stats()["last_canary"]
            # B's untrained weights all but surely disagree somewhere on 16
            # snippets; if they happened to agree the policy promoted — both
            # are legitimate policy outcomes, only *no decision* is a bug
            assert summary is not None
            if summary["outcome"] == "rolled_back":
                assert engine.model_version == "0"
                assert "disagreement" in summary["reason"]

    def test_no_decision_below_sample_floor(self, checkpoints):
        a, b = checkpoints
        policy = CanaryPolicy(min_samples=10_000)
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            engine.start_canary(b, 1.0, policy=policy)
            engine.advise_v1(SNIPPETS)
            assert engine.stats()["canary"] is not None  # still rolling out

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CanaryPolicy(min_samples=0)
        with pytest.raises(ValueError):
            CanaryPolicy(max_disagreement=1.5)
        with pytest.raises(ValueError):
            CanaryPolicy(max_error_rate=-0.1)


class TestCanaryUnderLiveTraffic:
    def test_promote_under_concurrent_async_load(self, checkpoints,
                                                 verdicts):
        """The acceptance gate: concurrent ``advise_v1`` clients
        hammer the engine while ``start_canary`` → ``promote`` runs — zero
        dropped requests, deterministic arm assignment before, all-B after,
        zero stale cache hits (checked via the B reference verdicts)."""
        a, b = checkpoints
        _, exp_b = verdicts
        engine = MultiModelEngine(ModelRegistry.from_checkpoint(a))
        errors: list = []
        served = [0]
        stop = threading.Event()

        def hammer(worker):
            try:
                k = worker
                while not stop.is_set():
                    engine.advise_v1([SNIPPETS[k % len(SNIPPETS)]])
                    served[0] += 1
                    k += 1
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(4)]
        try:
            for t in threads:
                t.start()
            version = engine.start_canary(b, FRACTION)
            # let both arms serve real traffic mid-rollout
            for code in SNIPPETS:
                engine.advise_v1([code])
            arms = engine.stats()["canary"]["arms"]
            assert arms["canary"]["requests"] >= 1
            assert arms["primary"]["requests"] >= 1
            assert arms["canary"]["errors"] == 0
            engine.promote()
            stop.set()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            assert served[0] > 0
            assert engine.model_version == version
            # post-promote verdicts are B's — on every snippet, both arms
            got = engine.advise_v1(SNIPPETS)
            for g, ref in zip(got, exp_b):
                np.testing.assert_allclose(g.probability,
                                           ref.probability,
                                           atol=1e-6)
        finally:
            stop.set()
            engine.close()


def _build_multi(path, config):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path),
                            config=config)


class TestShardedCanary:
    def test_broadcast_split_and_promote(self, checkpoints, verdicts):
        a, b = checkpoints
        exp_a, exp_b = verdicts
        factory = functools.partial(_build_multi, a,
                                    EngineConfig(max_batch_size=8))
        with ShardedEngine(factory, n_shards=2) as sharded:
            version = sharded.start_canary(b, FRACTION)
            got = sharded.advise_v1(SNIPPETS)
            _assert_arm_split(got, exp_a, exp_b)
            stats = sharded.stats()
            assert stats["canary"]["version"] == version
            assert stats["canary"]["shards_live"] == 2
            assert stats["canary"]["arms"]["canary"]["requests"] >= 1
            assert sharded.promote() == version
            got = sharded.advise_v1(SNIPPETS)
            for g, ref in zip(got, exp_b):
                np.testing.assert_allclose(g.probability,
                                           ref.probability,
                                           atol=1e-5)
            stats = sharded.stats()
            assert stats["model_version"] == version
            assert stats["canary"] is None
            assert stats["last_canary"]["outcome"] == "promoted"

    def test_rollback_broadcast(self, checkpoints, verdicts):
        a, b = checkpoints
        exp_a, _ = verdicts
        factory = functools.partial(_build_multi, a,
                                    EngineConfig(max_batch_size=8))
        with ShardedEngine(factory, n_shards=2) as sharded:
            sharded.start_canary(b, FRACTION)
            sharded.rollback()
            got = sharded.advise_v1(SNIPPETS)
            for g, ref in zip(got, exp_a):
                np.testing.assert_allclose(g.probability,
                                           ref.probability,
                                           atol=1e-5)
            assert sharded.stats()["canary"] is None

    def test_reload_blocked_while_canary_active(self, checkpoints):
        a, b = checkpoints
        factory = functools.partial(_build_multi, a,
                                    EngineConfig(max_batch_size=8))
        with ShardedEngine(factory, n_shards=2) as sharded:
            sharded.start_canary(b, FRACTION)
            with pytest.raises(RuntimeError, match="canary"):
                sharded.reload(b)


class TestReviewRegressions:
    """Pinned fixes from the canary code review."""

    def test_canary_slice_independent_of_shard_routing(self):
        """The canary digest must not be the shard-routing integer: with
        ``gcd(n_shards, 100) > 1`` a shared hash would pin every canary
        residue to a fixed shard subset and starve the rest.  With the
        independent digest, every shard of common fleet sizes sees canary
        traffic at a small fraction."""
        from repro.serve import shard_of

        codes = [f"for (i = 0; i < {k}; i++) x[i] = {k};"
                 for k in range(2000)]
        for n_shards in (2, 4, 5, 10):
            canary_per_shard = [0] * n_shards
            for code in codes:
                if canary_routes(code, 0.05):
                    canary_per_shard[shard_of(code, n_shards)] += 1
            assert all(count > 0 for count in canary_per_shard), (
                f"n_shards={n_shards}: canary slice starves shards "
                f"{[s for s, c in enumerate(canary_per_shard) if not c]}")

    def test_fraction_quantizing_to_zero_rejected(self, checkpoints):
        """fraction < 0.005 rounds to a 0% slice — the rollout would idle
        forever (and block reload) while serving nothing; reject it."""
        a, b = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            with pytest.raises(ValueError, match="quantizes to zero"):
                engine.start_canary(b, 0.004)
            assert engine.stats()["canary"] is None

    def test_watcher_retries_canary_blocked_reload(self, vocab,
                                                   checkpoints):
        """A checkpoint landing in the watch dir *during* a canary must
        not be dropped forever: the canary-blocked reload is retryable,
        and the watcher lands it as soon as the rollout finishes."""
        from repro.serve import CheckpointWatcher

        a, b = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as engine:
            watcher = CheckpointWatcher(engine, a, interval=0.05)
            engine.start_canary(b, FRACTION)
            _registry(vocab, 77).save(a)   # rollout lands mid-canary
            assert watcher.poll_once() is True
            assert "canary" in (watcher.last_error or "")
            assert watcher.reloads == 0
            engine.promote()
            # the same mtime change is retried now that the canary ended
            assert watcher.poll_once() is True
            assert watcher.reloads == 1 and watcher.last_error is None
            assert engine.model_version == f"v2:{a.name}"

    def test_sharded_promote_converges_after_partial_state(self,
                                                           checkpoints):
        """A shard that already dropped/promoted its canary answers "no
        canary active"; promote() must tolerate that and converge instead
        of wedging the rollout."""
        a, b = checkpoints
        factory = functools.partial(_build_multi, a,
                                    EngineConfig(max_batch_size=8))
        with ShardedEngine(factory, n_shards=2) as sharded:
            version = sharded.start_canary(b, FRACTION)
            # knock shard 1's canary out from under the parent, as a
            # partially failed earlier promote would leave it
            status, _ = sharded._collect(
                sharded._send(1, "canary_promote", None))
            assert status == "ok"
            assert sharded.promote() == version   # converges, no wedge
            stats = sharded.stats()
            assert stats["model_version"] == version
            assert stats["canary"] is None
