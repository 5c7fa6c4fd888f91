"""Property and stress tests for the zero-copy shared-memory IPC layer.

Three layers of proof that the shm data plane (``repro.serve.shm_ring``
+ ``ShardedEngine(ipc="shm")``) can replace the pickled queues:

* **Ring invariants** — wrap-around, full/empty discrimination, slot
  reuse after consume, commit-before-publish, CRC detection — checked
  both on hand-picked edges and with a randomized model-based
  interleaving (seeded: failures reproduce).
* **Frame codecs** — request/reply encodings round-trip exactly,
  including float64 probabilities (the transport must be lossless so
  verdicts are byte-identical across transports) and structural
  validation of corrupted frames.
* **End-to-end** — a multi-producer multi-shard stress run with zero
  lost, duplicated, or corrupted replies; a 1k-snippet queue-vs-shm
  parity trace with *identical* verdicts; rollouts (reload, canary)
  riding the new transport; and teardown proofs that ``/dev/shm`` is
  clean even when every worker died first (the ``no_ring_leaks``
  fixture in ``conftest.py`` re-checks after every test here).
"""

import collections
import functools
import os
import pickle
import random
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    Advice,
    EngineConfig,
    FullAdvice,
    InferenceEngine,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
)
from repro.serve.registry import ClauseAdvice
from repro.serve.shm_ring import (
    STATUS_FAULT,
    STATUS_OK,
    FrameTooBig,
    ShmRing,
    decode_request,
    decode_result,
    decode_text,
    encode_request,
    encode_result,
    encode_text,
    reply_meta,
    split_reply_meta,
)
from repro.tokenize import Vocab, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

TRACE = [
    f"for (i = 0; i < n; i++) a[i] = b[i] * {k} + c[i % {k + 2}];"
    for k in range(1000)
]
HEAD_NAMES = ("directive", "private", "reduction")


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build([text_tokens(code) for code in TRACE[:64]],
                       min_freq=1)


@pytest.fixture(scope="module")
def model(vocab):
    return PragFormer(len(vocab), TINY)


@pytest.fixture(scope="module")
def factory(model, vocab):
    def build():
        return InferenceEngine(model, vocab, max_len=TINY.max_len,
                               config=EngineConfig(max_batch_size=32))

    return build


def _build_multi(path, config):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path),
                            config=config)


@pytest.fixture(scope="module")
def checkpoint(vocab, tmp_path_factory):
    registry = ModelRegistry()
    for k, name in enumerate(HEAD_NAMES):
        registry.register(name, PragFormer(len(vocab),
                                           replace(TINY, seed=k), rng=k),
                          vocab, max_len=TINY.max_len)
    path = tmp_path_factory.mktemp("ipc") / "ckpt"
    registry.save(path)
    return path


# -- ring invariants ---------------------------------------------------------

def _payload(rng, rid):
    return np.arange(rid, rid + rng.randint(0, 12), dtype=np.int32)


class TestRingInvariants:
    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            ShmRing(slots=0)
        with pytest.raises(ValueError):
            ShmRing(slot_words=8)

    def test_empty_ring_pops_nothing(self):
        ring = ShmRing(slots=2, slot_words=16)
        try:
            assert len(ring) == 0
            assert ring.try_pop() is None
            assert ring.pop(timeout=0.01) is None
        finally:
            ring.close()
            ring.unlink()

    def test_full_ring_refuses_push_until_consume(self):
        ring = ShmRing(slots=2, slot_words=16)
        try:
            assert ring.try_push(1, 0, np.arange(3, dtype=np.int32))
            assert ring.try_push(2, 0, np.arange(4, dtype=np.int32))
            assert len(ring) == 2
            # full != empty: occupancy is exact, never ambiguous
            assert not ring.try_push(3, 0, np.arange(5, dtype=np.int32))
            assert ring.push(3, 0, np.arange(5, dtype=np.int32),
                             timeout=0.01) is False
            rid, _, payload, ok = ring.try_pop()
            assert (rid, ok) == (1, True)
            np.testing.assert_array_equal(payload,
                                          np.arange(3, dtype=np.int32))
            # the consumed slot is immediately reusable
            assert ring.try_push(3, 0, np.arange(5, dtype=np.int32))
        finally:
            ring.close()
            ring.unlink()

    def test_wrap_around_preserves_frames(self):
        ring = ShmRing(slots=3, slot_words=32)
        try:
            for rid in range(100):  # many times around the 3-slot ring
                payload = np.arange(rid, rid + 1 + rid % 7, dtype=np.int32)
                assert ring.try_push(rid, rid % 5, payload)
                got_rid, meta, got, ok = ring.try_pop()
                assert (got_rid, meta, ok) == (rid, rid % 5, True)
                np.testing.assert_array_equal(got, payload)
            assert len(ring) == 0
        finally:
            ring.close()
            ring.unlink()

    def test_randomized_interleaving_matches_fifo_model(self):
        """Model-based property test: a random push/pop interleaving on
        the ring behaves exactly like a bounded deque (seeded — a failure
        reproduces)."""
        rng = random.Random(7)
        ring = ShmRing(slots=4, slot_words=16)
        model = collections.deque()
        try:
            rid = 0
            for _ in range(2000):
                if rng.random() < 0.55:
                    payload = _payload(rng, rid)
                    pushed = ring.try_push(rid, rid % 9, payload)
                    assert pushed == (len(model) < 4)  # full iff model full
                    if pushed:
                        model.append((rid, rid % 9, payload))
                        rid += 1
                else:
                    frame = ring.try_pop()
                    if not model:
                        assert frame is None
                    else:
                        exp_rid, exp_meta, exp_payload = model.popleft()
                        got_rid, got_meta, got_payload, ok = frame
                        assert (got_rid, got_meta, ok) == (
                            exp_rid, exp_meta, True)
                        np.testing.assert_array_equal(got_payload,
                                                      exp_payload)
                assert len(ring) == len(model)
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_frame_raises(self):
        ring = ShmRing(slots=1, slot_words=16)
        try:
            assert not ring.fits(17)
            with pytest.raises(FrameTooBig):
                ring.try_push(0, 0, np.zeros(17, dtype=np.int32))
        finally:
            ring.close()
            ring.unlink()

    def test_corrupt_push_is_detected_not_trusted(self):
        ring = ShmRing(slots=2, slot_words=16)
        try:
            payload = np.arange(6, dtype=np.int32)
            assert ring.try_push(9, 3, payload, corrupt=True)
            rid, meta, got, ok = ring.try_pop()
            assert (rid, meta) == (9, 3)
            assert ok is False  # torn write: delivered, flagged, consumed
            assert ring.try_pop() is None  # the slot was still released
            assert ring.try_push(10, 0, payload)  # and is reusable
        finally:
            ring.close()
            ring.unlink()

    def test_pickle_attaches_to_same_segment(self):
        """The spawn path: an unpickled ring is a live view of the same
        memory, and attaching must not steal segment ownership."""
        ring = ShmRing(slots=2, slot_words=16)
        try:
            twin = pickle.loads(pickle.dumps(ring))
            try:
                assert twin.name == ring.name
                assert ring.try_push(5, 1, np.arange(4, dtype=np.int32))
                rid, meta, payload, ok = twin.try_pop()
                assert (rid, meta, ok) == (5, 1, True)
                np.testing.assert_array_equal(payload,
                                              np.arange(4, dtype=np.int32))
            finally:
                twin.close()  # attacher closes, never unlinks
            assert os.path.exists(f"/dev/shm/{ring.name}")
        finally:
            ring.close()
            ring.unlink()
        assert not os.path.exists(f"/dev/shm/{ring.name}")


# -- frame codecs ------------------------------------------------------------

class TestFrameCodecs:
    def test_request_round_trip(self):
        rows = [np.array([4, 5, 6], dtype=np.int32),
                np.array([], dtype=np.int32),
                np.arange(10, dtype=np.int32)]
        digests = [bytes([i] * 16) for i in range(3)]
        tag, out_rows, out_digests = decode_request(
            encode_request(-12345, rows, digests))
        assert tag == -12345
        assert out_digests == digests
        assert len(out_rows) == 3
        for got, exp in zip(out_rows, rows):
            np.testing.assert_array_equal(got, exp)

    def test_empty_request_round_trip(self):
        tag, rows, digests = decode_request(encode_request(7, [], []))
        assert (tag, rows, digests) == (7, [], [])

    @pytest.mark.parametrize("frame", [
        np.array([], dtype=np.int32),                      # too short
        np.array([1, -1], dtype=np.int32),                 # negative count
        np.array([1, 2, 3], dtype=np.int32),               # truncated header
        np.array([1, 1, 2] + [0] * 4 + [9], dtype=np.int32),  # ids mismatch
    ])
    def test_malformed_request_raises(self, frame):
        with pytest.raises(ValueError):
            decode_request(frame)

    def test_predict_proba_frames_are_lossless(self):
        probs = np.array([[0.1234567891234567, 0.8765432108765433],
                          [1.0, 0.0]], dtype=np.float64)
        out = decode_result("predict_proba",
                            encode_result("predict_proba", probs))
        assert len(out) == 2
        # float64 on the wire: bit-exact after the dtype round trip
        np.testing.assert_array_equal(
            np.stack(out).astype(np.float64),
            probs.astype(np.stack(out).dtype).astype(np.float64))

    def test_advise_frames_carry_flags(self):
        advice = [Advice(0.75, True), Advice(0.25, False, degraded=True)]
        out = decode_result("advise_many",
                            encode_result("advise_many", advice))
        assert [(a.probability, a.needs_directive, a.degraded)
                for a in out] == [(0.75, True, False), (0.25, False, True)]

    def test_full_advice_round_trip(self):
        full = [
            FullAdvice(Advice(0.9, True),
                       {"private": ClauseAdvice(0.7, True),
                        "reduction": ClauseAdvice(0.2, False)}),
            FullAdvice(Advice(0.1, False, degraded=True), {},
                       degraded=True),
        ]
        head_index = {name: i for i, name in enumerate(HEAD_NAMES)}
        out = decode_result(
            "advise_full_many",
            encode_result("advise_full_many", full, head_index),
            head_names=HEAD_NAMES)
        assert len(out) == 2
        assert out[0].directive.probability == 0.9
        assert out[0].clauses["private"] == ClauseAdvice(0.7, True)
        assert out[0].clauses["reduction"] == ClauseAdvice(0.2, False)
        assert not out[0].degraded
        assert out[1].directive.degraded and out[1].degraded
        assert out[1].clauses == {}

    def test_unknown_head_id_is_structural_fault(self):
        full = [FullAdvice(Advice(0.9, True),
                           {"mystery": ClauseAdvice(0.5, False)})]
        frame = encode_result("advise_full_many", full, {"mystery": 5})
        with pytest.raises(ValueError):
            decode_result("advise_full_many", frame, head_names=HEAD_NAMES)

    def test_truncated_reply_raises(self):
        frame = encode_result("advise_many", [Advice(0.5, False)])
        with pytest.raises(ValueError):
            decode_result("advise_many", frame[:-1])

    def test_text_frames(self):
        assert decode_text(encode_text("boom: 段错误")) == "boom: 段错误"
        assert decode_text(encode_text("")) == ""
        long = "x" * 10000  # capped, not wedged
        assert decode_text(encode_text(long)) == "x" * 4096

    def test_reply_meta_round_trip(self):
        for status in (STATUS_OK, STATUS_FAULT):
            for method_id in (0, 1, 2):
                assert split_reply_meta(reply_meta(status, method_id)) == (
                    status, method_id)


# -- end-to-end: parity, stress, rollouts ------------------------------------

class TestTransportParity:
    def test_queue_and_shm_verdicts_identical_on_1k_trace(self, factory):
        """The acceptance trace: same fleet shape, same snippets, the
        two transports must agree verdict-for-verdict, bit for bit."""
        with ShardedEngine(factory, n_shards=2, ipc="queue") as via_queue:
            q_probs = via_queue.predict_proba(TRACE)
            q_advice = via_queue.advise_many(TRACE)
        with ShardedEngine(factory, n_shards=2, ipc="shm") as via_shm:
            s_probs = via_shm.predict_proba(TRACE)
            s_advice = via_shm.advise_many(TRACE)
            stats = via_shm.stats()
        np.testing.assert_array_equal(q_probs, s_probs)
        mismatches = sum(
            1 for a, b in zip(q_advice, s_advice)
            if (a.probability, a.needs_directive, a.degraded)
            != (b.probability, b.needs_directive, b.degraded))
        assert mismatches == 0
        assert stats["ipc"]["active"] == "shm"
        assert stats["ipc"]["ring_sends"] > 0

    def test_full_advice_parity_with_multi_model_workers(self, checkpoint):
        fact = functools.partial(_build_multi, checkpoint,
                                 EngineConfig(max_batch_size=32))
        trace = TRACE[:200]
        with ShardedEngine(fact, n_shards=2, ipc="queue") as via_queue:
            expected = via_queue.advise_v1(trace)
        with ShardedEngine(fact, n_shards=2, ipc="shm") as via_shm:
            got = via_shm.advise_v1(trace)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.probability == e.probability
            assert g.verdict == e.verdict
            assert g.clauses == e.clauses
            assert g.degraded == e.degraded

    def test_canary_split_identical_across_transports(self, checkpoint,
                                                      vocab, tmp_path):
        registry = ModelRegistry()
        for k, name in enumerate(HEAD_NAMES):
            registry.register(name, PragFormer(len(vocab),
                                               replace(TINY, seed=50 + k),
                                               rng=50 + k),
                              vocab, max_len=TINY.max_len)
        canary_path = tmp_path / "canary"
        registry.save(canary_path)
        fact = functools.partial(_build_multi, checkpoint,
                                 EngineConfig(max_batch_size=32))
        trace = TRACE[:64]
        results = {}
        for ipc in ("queue", "shm"):
            with ShardedEngine(fact, n_shards=2, ipc=ipc) as sharded:
                sharded.start_canary(canary_path, 0.5, version="cnry")
                results[ipc] = sharded.advise_v1(trace)
        for q, s in zip(results["queue"], results["shm"]):
            assert q.probability == s.probability
            assert q.clauses == s.clauses


class TestStress:
    def test_multi_producer_stress_no_lost_dup_or_corrupt(self, factory):
        """4 producer threads x 4 shards x 2000 total requests: every
        reply present, in order, and matching the reference engine."""
        trace = TRACE[:100]
        reference = factory()
        expected = reference.predict_proba(trace)
        errors = []
        with ShardedEngine(factory, n_shards=4, ipc="shm") as sharded:
            def producer():
                try:
                    for _ in range(5):  # 5 x 100 snippets per producer
                        got = sharded.predict_proba(trace)
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
        assert stats["ipc"]["ring_sends"] > 0
        assert stats["supervisor"]["degraded_answers"] == 0
        assert sum(stats["routed"]) == 4 * 5 * len(trace)

    def test_tiny_rings_overflow_to_queue_correctly(self, factory):
        """A frame that cannot fit a slot must transparently take the
        pickled path — throughput degrades, verdicts do not."""
        expected = factory().predict_proba(TRACE[:64])
        with ShardedEngine(factory, n_shards=2, ipc="shm",
                           ring_slots=1, ring_slot_words=16) as sharded:
            got = sharded.predict_proba(TRACE[:64])
            stats = sharded.stats()
        np.testing.assert_allclose(got, expected, atol=1e-5)
        assert stats["ipc"]["ring_overflows"] > 0
        assert stats["ipc"]["queue_serving_sends"] > 0


class TestRollouts:
    def test_reload_rides_the_ring_transport(self, checkpoint, vocab,
                                             tmp_path):
        registry = ModelRegistry()
        for k, name in enumerate(HEAD_NAMES):
            registry.register(name, PragFormer(len(vocab),
                                               replace(TINY, seed=80 + k),
                                               rng=80 + k),
                              vocab, max_len=TINY.max_len)
        next_path = tmp_path / "next"
        registry.save(next_path)
        fact = functools.partial(_build_multi, checkpoint,
                                 EngineConfig(max_batch_size=32))
        trace = TRACE[:32]
        with MultiModelEngine(ModelRegistry.from_checkpoint(next_path)) as ref:
            expected = ref.advise_v1(trace)
        with ShardedEngine(fact, n_shards=2, ipc="shm") as sharded:
            sharded.advise_v1(trace)  # prime rings + codec
            sharded.reload(next_path)
            got = sharded.advise_v1(trace)  # re-encoded, fresh tag
            for g, e in zip(got, expected):
                assert g.probability == e.probability
                assert g.clauses == e.clauses


class TestLifecycle:
    def test_close_unlinks_rings_even_with_dead_workers(self, factory):
        sharded = ShardedEngine(factory, n_shards=2, ipc="shm")
        try:
            sharded.predict_proba(TRACE[:8])
            names = [ring.name for ring in sharded._all_rings]
            assert names and all(
                os.path.exists(f"/dev/shm/{n}") for n in names)
            for proc in sharded._workers:  # everyone dies holding state
                proc.terminate()
                proc.join(timeout=5)
        finally:
            sharded.close()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)

    def test_close_is_idempotent(self, factory):
        sharded = ShardedEngine(factory, n_shards=2, ipc="shm")
        sharded.close()
        sharded.close()

    def test_queue_mode_creates_no_segments(self, factory):
        with ShardedEngine(factory, n_shards=2, ipc="queue") as sharded:
            sharded.predict_proba(TRACE[:8])
            assert sharded._all_rings == []
            stats = sharded.stats()
        assert stats["ipc"]["requested"] == "queue"
        assert stats["ipc"]["active"] == "queue"
        assert stats["ipc"]["ring_sends"] == 0

    def test_codec_free_engine_falls_back_to_queues(self, model, vocab):
        """An engine that cannot describe its encoding (custom tokenizer)
        must pin the fleet to the queue transport, transparently."""

        def custom_factory():
            return InferenceEngine(model, vocab, max_len=TINY.max_len,
                                   tokenizer=lambda code: code.split())

        with ShardedEngine(custom_factory, n_shards=2, ipc="shm") as sharded:
            first = sharded.predict_proba(TRACE[:16])
            second = sharded.predict_proba(TRACE[:16])
            stats = sharded.stats()
        np.testing.assert_allclose(first, second, atol=1e-6)
        assert stats["ipc"]["active"] == "queue"
        assert stats["ipc"]["ring_sends"] == 0

    def test_rejects_unknown_ipc(self, factory):
        with pytest.raises(ValueError):
            ShardedEngine(factory, n_shards=2, ipc="carrier-pigeon")
