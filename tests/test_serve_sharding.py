"""Tests for the multi-process sharded serving engine."""

import functools
import glob
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.models import PragFormer
from repro.models.persistence import WEIGHTS_NAME_PREFIX
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    AdviceResult,
    EngineConfig,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
    SupervisorConfig,
    shard_of,
)
from repro.serve.sharding import _dispatch
from repro.tokenize import Vocab, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 1; i < n; i++) a[i] = a[i-1];",
    'for (i = 0; i < n; i++) printf("%d", a[i]);',
    "for (i = 0; i < n; i++) for (j = 0; j < m; j++) x[i][j] = i * j;",
    "while (k < n) { total += buf[k]; k++; }",
    "for (p = head; p; p = p->next) count++;",
    "for (i = 0; i < rows; i++) out[i] = dot(m[i], v, cols);",
]


@pytest.fixture(scope="module")
def model_and_vocab():
    vocab = Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)
    return PragFormer(len(vocab), TINY), vocab


def _directive_only(model, vocab):
    """A directive-only worker engine: a registry with no clause heads."""
    registry = ModelRegistry()
    registry.register("directive", model, vocab, max_len=TINY.max_len)
    return MultiModelEngine(registry, config=EngineConfig(max_batch_size=8))


@pytest.fixture(scope="module")
def factory(model_and_vocab):
    return functools.partial(_directive_only, *model_and_vocab)


def _probs(results):
    return np.array([r.probability for r in results])


class TestRouting:
    def test_deterministic_across_calls_and_instances(self):
        for n in (1, 2, 4, 7):
            first = [shard_of(code, n) for code in SNIPPETS]
            second = [shard_of(code, n) for code in SNIPPETS]
            assert first == second
            assert all(0 <= s < n for s in first)

    def test_single_shard_routes_everything_to_zero(self):
        assert {shard_of(code, 1) for code in SNIPPETS} == {0}

    def test_engine_shard_of_matches_module_fn(self, factory):
        with ShardedEngine(factory, n_shards=4) as sharded:
            for code in SNIPPETS:
                assert sharded.shard_of(code) == shard_of(code, 4)

    def test_duplicates_land_on_one_shard(self, factory):
        code = SNIPPETS[0]
        with ShardedEngine(factory, n_shards=4) as sharded:
            sharded.advise_v1([code] * 6)
            routed = sharded.routed
        target = shard_of(code, 4)
        assert routed[target] == 6
        assert sum(routed) == 6


class TestSingleShard:
    def test_starts_one_worker(self, factory):
        """``n_shards=1`` is a one-worker fleet; there is no in-process
        mode."""
        with ShardedEngine(factory, n_shards=1) as sharded:
            assert len(sharded._workers) == 1
            assert sharded._workers[0].is_alive()

    def test_matches_unsharded_engine(self, factory):
        expected = _probs(factory().advise_v1(SNIPPETS))
        with ShardedEngine(factory, n_shards=1) as sharded:
            np.testing.assert_allclose(_probs(sharded.advise_v1(SNIPPETS)),
                                       expected, atol=1e-5)
            assert sharded.routed == [len(SNIPPETS)]

    def test_rejects_nonpositive_shards(self, factory):
        with pytest.raises(ValueError):
            ShardedEngine(factory, n_shards=0)


class TestMultiProcess:
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_predictions_match_unsharded(self, factory, n_shards):
        expected = _probs(factory().advise_v1(SNIPPETS))
        with ShardedEngine(factory, n_shards=n_shards) as sharded:
            got = _probs(sharded.advise_v1(SNIPPETS))
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_advise_v1_order_preserved(self, factory):
        expected = factory().advise_v1(SNIPPETS)
        with ShardedEngine(factory, n_shards=2) as sharded:
            got = sharded.advise_v1(SNIPPETS)
        assert all(isinstance(a, AdviceResult) for a in got)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a.probability, b.probability, atol=1e-5)
            assert a.verdict == b.verdict
            assert a.clauses == b.clauses == {}

    def test_empty_batch(self, factory):
        with ShardedEngine(factory, n_shards=2) as sharded:
            assert sharded.advise_v1([]) == []
            assert sum(sharded.routed) == 0

    def test_stats_aggregation(self, factory):
        with ShardedEngine(factory, n_shards=2) as sharded:
            sharded.advise_v1(SNIPPETS)
            sharded.advise_v1(SNIPPETS)  # warm pass: all LRU hits
            stats = sharded.stats()
        assert stats["n_shards"] == 2
        assert sum(stats["routed"]) == 2 * len(SNIPPETS)
        assert stats["queue_depth"] == [0, 0]
        combined = stats["combined"]
        assert combined["requests"] == 2 * len(SNIPPETS)
        assert combined["cache_hits"] == len(SNIPPETS)
        assert len(stats["shards"]) == 2

    def test_worker_error_is_surfaced(self, model_and_vocab):
        def broken_factory():
            engine = _directive_only(*model_and_vocab)
            engine.advise_full_many = None  # not callable: worker-side error
            return engine

        with ShardedEngine(broken_factory, n_shards=2) as sharded:
            with pytest.raises(RuntimeError, match="shard"):
                sharded.advise_v1(SNIPPETS)

    def test_no_stale_responses_after_one_shard_fails(self, model_and_vocab,
                                                      factory):
        """A failed shard must not leave other shards' replies queued —
        the next call would silently collect the previous call's results."""
        # healthy snippets live on one shard; pick a BOOM marker that
        # provably hashes to the other one
        other = [c for c in SNIPPETS if shard_of(c, 2) == shard_of(SNIPPETS[0], 2)]
        assert len(other) >= 2, "need snippets on the non-failing shard"
        boom = next(f"BOOM {i}" for i in range(64)
                    if shard_of(f"BOOM {i}", 2) != shard_of(other[0], 2))

        def selective_factory():
            engine = _directive_only(*model_and_vocab)
            real = engine.advise_full_many

            def advise_full_many(codes):
                if any("BOOM" in c for c in codes):
                    raise ValueError("boom")
                return real(codes)

            engine.advise_full_many = advise_full_many
            return engine

        expected = factory().advise_v1(other)
        lookup = dict(zip(other, expected))
        with ShardedEngine(selective_factory, n_shards=2) as sharded:
            with pytest.raises(RuntimeError, match="shard"):
                sharded.advise_v1([boom, other[0]])
            # the healthy shard's reply for other[0] must have been drained:
            # a fresh call must return advice for its own snippet
            got = sharded.advise_v1([other[1]])[0]
            np.testing.assert_allclose(got.probability,
                                       lookup[other[1]].probability, atol=1e-5)

    def test_concurrent_bulk_calls_do_not_cross_talk(self, factory):
        import threading

        expected = _probs(factory().advise_v1(SNIPPETS))
        errors = []
        with ShardedEngine(factory, n_shards=2) as sharded:
            def hammer():
                try:
                    for _ in range(5):
                        got = _probs(sharded.advise_v1(SNIPPETS))
                        np.testing.assert_allclose(got, expected, atol=1e-5)
                except Exception as exc:  # noqa: BLE001 — collected for assert
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors, errors

    def test_dead_worker_degrades_instead_of_hanging(self):
        """A factory that crashes at worker startup must not wedge or
        fail the caller: with no live shard to retry on and a fallback
        that cannot build either, every snippet gets the explicit
        degraded neutral verdict (p = 0.5) instead of an exception."""

        def crashing_factory():
            raise RuntimeError("no model for you")

        cfg = SupervisorConfig(request_timeout_s=10.0,
                               heartbeat_interval_s=0)
        with ShardedEngine(crashing_factory, n_shards=2,
                           supervisor=cfg) as sharded:
            np.testing.assert_allclose(_probs(sharded.advise_v1(SNIPPETS)),
                                       0.5)
            advice = sharded.advise_v1(SNIPPETS[:2])
            assert all(a.degraded for a in advice)
            assert all(not a.verdict for a in advice)
            sup = sharded.stats()["supervisor"]
            assert sup["degraded_answers"] == len(SNIPPETS) + 2
            assert sup["faults"] >= 2

    def test_construction_notices_crashed_workers_quickly(self):
        """A worker whose factory crashes is noticed within a fraction of
        a second of its exit, so construction does not wait out a poll
        slice per dead worker."""

        def crashing_factory():
            raise RuntimeError("no model for you")

        cfg = SupervisorConfig(heartbeat_interval_s=0)
        start = time.monotonic()
        with ShardedEngine(crashing_factory, n_shards=2,
                           supervisor=cfg) as sharded:
            elapsed = time.monotonic() - start
            assert not any(w.is_alive() for w in sharded._workers)
        assert elapsed < 1.5

    def test_construction_waits_for_every_worker_engine(self, factory):
        """Construction pings every new worker, and a worker answers only
        after its factory built the engine, so the first call does not
        pay a slow start-up."""

        def slow_factory():
            time.sleep(0.5)
            return factory()

        with ShardedEngine(slow_factory, n_shards=2) as sharded:
            start = time.monotonic()
            sharded.advise_v1(SNIPPETS)
            assert time.monotonic() - start < 0.25

    def test_construction_outwaits_no_hung_factory(self, factory):
        """The readiness wait is bounded by ``heartbeat_timeout_s`` and
        never raises; the wedged slot stays the supervisor's."""

        def hung_factory():
            time.sleep(30)

        cfg = SupervisorConfig(heartbeat_timeout_s=0.5,
                               heartbeat_interval_s=0)
        start = time.monotonic()
        sharded = ShardedEngine(hung_factory, n_shards=2, supervisor=cfg)
        try:
            assert time.monotonic() - start < 3.0
            assert all(w.is_alive() for w in sharded._workers)
        finally:
            for worker in sharded._workers:
                worker.terminate()
            sharded.close()

    def test_revived_worker_has_answered_a_ping_before_install(self,
                                                                factory):
        """A respawn waits, like construction, for the new worker to build
        its engine before publishing it, so the first request routed to
        the revived slot does not pay worker start-up."""

        def slow_factory():
            time.sleep(0.5)
            return factory()

        cfg = SupervisorConfig(heartbeat_interval_s=0)
        with ShardedEngine(slow_factory, n_shards=2,
                           supervisor=cfg) as sharded:
            dead = sharded._workers[0]
            dead.terminate()
            dead.join(timeout=5.0)
            start = time.monotonic()
            sharded._revive(0)
            assert time.monotonic() - start >= 0.5
            assert sharded._workers[0] is not dead
            assert sharded.stats()["supervisor"]["restarts"] == 1
            token = sharded._send(0, "ping", None,
                                  deadline=time.monotonic() + 0.2,
                                  tracked=False)
            assert sharded._collect(token) == ("ok", "pong")

    def test_head_names_through_workers(self, model_and_vocab, factory):
        model, vocab = model_and_vocab

        def multi_factory():
            registry = ModelRegistry()
            for name in ("directive", "private"):
                registry.register(name, model, vocab, max_len=TINY.max_len)
            return MultiModelEngine(registry)

        with ShardedEngine(multi_factory, n_shards=2) as sharded:
            assert sharded.head_names() == ["directive", "private"]
        with ShardedEngine(multi_factory, n_shards=1) as local:
            assert local.head_names() == ["directive", "private"]
        with ShardedEngine(factory, n_shards=1) as directive_only:
            assert directive_only.head_names() == ["directive"]

    def test_close_idempotent_and_rejects_use(self, factory):
        sharded = ShardedEngine(factory, n_shards=2)
        sharded.advise_v1(SNIPPETS[:2])
        sharded.close()
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.advise_v1(SNIPPETS[:2])
        with pytest.raises(RuntimeError, match="closed"):
            sharded.stats()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.head_names()


class TestFixedSize:
    def test_concurrent_load_keeps_size_and_stats_shape(self, factory):
        """A fleet serves concurrent callers on the workers it was built
        with, and ``stats()`` keeps the keys operators and benches read."""
        expected = _probs(factory().advise_v1(SNIPPETS))
        errors = []

        def client():
            try:
                for _ in range(5):
                    np.testing.assert_allclose(
                        _probs(sharded.advise_v1(SNIPPETS)), expected,
                        atol=1e-5)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        with ShardedEngine(factory, n_shards=2) as sharded:
            workers = list(sharded._workers)
            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            assert sharded.n_shards == 2 and sharded._workers == workers
            stats = sharded.stats()
            assert set(stats) == {"n_shards", "routed", "queue_depth",
                                  "shards", "combined", "supervisor",
                                  "weights", "model_version", "canary",
                                  "last_canary"}
            assert stats["model_version"] == "0"
            assert stats["canary"] is None
            assert sum(stats["routed"]) == 20 * len(SNIPPETS)
            assert len(stats["shards"]) == 2
            assert stats["queue_depth"] == [0, 0]
            assert stats["supervisor"]["retries"] == 0
            assert stats["combined"]["requests"] == 20 * len(SNIPPETS)


# -- fleet invariants over the worker queues ---------------------------------

TRACE = [
    f"for (i = 0; i < n; i++) a[i] = b[i] * {k} + c[i % {k + 2}];"
    for k in range(100)
]
HEAD_NAMES = ("directive", "private", "reduction")


def _build_multi(path, config):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path),
                            config=config)


def _save_heads(vocab, path, seed):
    registry = ModelRegistry()
    for k, name in enumerate(HEAD_NAMES):
        registry.register(name, PragFormer(len(vocab),
                                           replace(TINY, seed=seed + k),
                                           rng=seed + k),
                          vocab, max_len=TINY.max_len)
    registry.save(path)
    return path


@pytest.fixture(scope="module")
def trace_vocab():
    return Vocab.build([text_tokens(code) for code in TRACE], min_freq=1)


@pytest.fixture(scope="module")
def checkpoints(trace_vocab, tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    return (_save_heads(trace_vocab, root / "a", 0),
            _save_heads(trace_vocab, root / "b", 80))


def _multi_factory(path):
    return functools.partial(_build_multi, str(path),
                             EngineConfig(max_batch_size=32))


def _program_segments():
    return set(glob.glob(f"/dev/shm/{WEIGHTS_NAME_PREFIX}-*"))


class TestFleetInvariants:
    def test_multi_producer_stress_no_lost_dup_or_corrupt(self, factory):
        """4 producer threads x 4 shards x 2000 snippets in total: every
        reply present, in order, and matching the reference engine."""
        trace = (SNIPPETS * 13)[:100]
        expected = _probs(factory().advise_v1(trace))
        errors = []
        with ShardedEngine(factory, n_shards=4) as sharded:
            def producer():
                try:
                    for _ in range(5):  # 5 x 100 snippets per producer
                        got = _probs(sharded.advise_v1(trace))
                        assert got.shape == expected.shape
                        np.testing.assert_allclose(got, expected, atol=1e-5)
                except Exception as exc:  # noqa: BLE001 — assert below
                    errors.append(exc)

            threads = [threading.Thread(target=producer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stats = sharded.stats()
        assert not errors, errors
        assert stats["supervisor"]["degraded_answers"] == 0
        assert sum(stats["routed"]) == 4 * 5 * len(trace)

    def test_reload_under_traffic(self, checkpoints):
        """Client threads keep calling while the fleet reloads: every
        answer comes from the old or the new weights, none is lost or
        degraded, and every call after ``reload`` returns sees only the
        new weights."""
        a, b = checkpoints
        trace = TRACE[:32]

        def verdicts(results):
            return [(r.probability, r.verdict, r.clauses, r.degraded)
                    for r in results]

        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as ref:
            old = verdicts(ref.advise_v1(trace))
        with MultiModelEngine(ModelRegistry.from_checkpoint(b)) as ref:
            new = verdicts(ref.advise_v1(trace))
        assert old != new
        errors, stop = [], threading.Event()
        with ShardedEngine(_multi_factory(a), n_shards=2) as sharded:
            def client():
                try:
                    while not stop.is_set():
                        got = verdicts(sharded.advise_v1(trace))
                        for g, o, n in zip(got, old, new):
                            assert g in (o, n), g
                except Exception as exc:  # noqa: BLE001 — assert below
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(3)]
            for t in threads:
                t.start()
            try:
                time.sleep(0.2)
                version = sharded.reload(b)
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=60)
            after = sharded.advise_v1(trace)
            sup = sharded.stats()["supervisor"]
        assert not errors, errors
        assert all(r.model_version == version for r in after)
        assert verdicts(after) == new
        assert sup["degraded_answers"] == 0

    def test_canary_split_identical_in_process_and_sharded(self,
                                                           checkpoints):
        """Arm assignment is a pure digest hash: a 2-shard fleet and an
        in-process engine split a canary at 0.5 identically and answer
        identically on both arms."""
        a, b = checkpoints
        trace = TRACE[:64]
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as local:
            local.start_canary(b, 0.5, version="cnry")
            expected = local.advise_v1(trace)
        with ShardedEngine(_multi_factory(a), n_shards=2) as sharded:
            sharded.start_canary(b, 0.5, version="cnry")
            got = sharded.advise_v1(trace)
        assert {r.arm for r in expected} == {"primary", "canary"}
        assert got == expected

    def test_close_is_idempotent_and_leaves_no_segments(self, checkpoints):
        a, b = checkpoints
        before = _program_segments()
        sharded = ShardedEngine(_multi_factory(a), n_shards=2)
        sharded.advise_v1(TRACE[:8])
        sharded.reload(b)  # publishes a shared weights segment
        assert _program_segments() - before
        sharded.close()
        sharded.close()
        assert _program_segments() <= before


class _SegmentTypeError:
    """An engine whose segment-mapped rollouts raise ``TypeError``."""

    def __init__(self):
        self.eager = []

    def reload(self, path, version=None, segment=None):
        if segment is not None:
            raise TypeError("bad segment layout")
        self.eager.append(path)
        return version

    def start_canary(self, path, fraction, version=None, segment=None):
        if segment is not None:
            raise TypeError("bad segment layout")
        self.eager.append(path)
        return version


class TestDispatch:
    def test_unknown_method_raises(self, factory):
        """The worker answers the one serving method and the control
        messages; any other name is an error, never an engine attribute
        lookup."""
        engine = factory()
        assert len(_dispatch(engine, "advise_full_many", SNIPPETS[:2])) == 2
        for method in ("advise_many", "predict_proba", "close"):
            with pytest.raises(ValueError, match="unknown worker method"):
                _dispatch(engine, method, SNIPPETS[:2])

    def test_segment_rollout_type_error_propagates(self):
        """A ``TypeError`` inside a segment-mapped rollout is the
        caller's error; it must not be retried as a private eager load,
        which would quietly break the one-copy invariant."""
        engine = _SegmentTypeError()
        with pytest.raises(TypeError, match="bad segment layout"):
            _dispatch(engine, "reload", ("ckpt", "v1", "repro-weights-x"))
        with pytest.raises(TypeError, match="bad segment layout"):
            _dispatch(engine, "start_canary",
                      ("ckpt", 0.5, "v2", "repro-weights-y"))
        assert engine.eager == []
        assert _dispatch(engine, "reload", ("ckpt", "v3", None)) == "v3"
        assert engine.eager == ["ckpt"]
