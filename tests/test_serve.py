"""Tests for the batched inference engine (repro.serve)."""

import numpy as np
import pytest

from repro.data.encoding import encode_batch
from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import Advice, EngineConfig, InferenceEngine, LRUCache
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


@pytest.fixture()
def engine(model_and_vocab):
    model, vocab = model_and_vocab
    return InferenceEngine(model, vocab, max_len=TINY.max_len)


class TestLRUCache:
    def test_get_put_and_eviction_order(self):
        cache = LRUCache(2)
        cache.put(b"a", 1)
        cache.put(b"b", 2)
        assert cache.get(b"a") == 1  # refresh 'a'
        cache.put(b"c", 3)           # evicts 'b', the least recently used
        assert b"b" not in cache
        assert cache.get(b"a") == 1
        assert cache.get(b"c") == 3
        assert len(cache) == 2

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put(b"a", 1)
        assert cache.get(b"a") is None
        assert len(cache) == 0


class TestBatchedEqualsSequential:
    def test_matches_per_snippet_predict(self, engine, model_and_vocab):
        model, vocab = model_and_vocab
        batched = engine.predict_proba(SNIPPETS)
        for i, code in enumerate(SNIPPETS):
            split = encode_batch([text_tokens(code)], vocab, TINY.max_len,
                                 width=TINY.max_len)
            single = model.predict_proba(split)[0]
            np.testing.assert_allclose(batched[i], single, atol=1e-5)

    def test_small_buckets_same_answers(self, model_and_vocab):
        model, vocab = model_and_vocab
        big = InferenceEngine(model, vocab, max_len=TINY.max_len)
        tiny = InferenceEngine(model, vocab, max_len=TINY.max_len,
                               config=EngineConfig(max_batch_size=2))
        np.testing.assert_allclose(tiny.predict_proba(SNIPPETS),
                                   big.predict_proba(SNIPPETS), atol=1e-5)
        assert tiny.stats.batches >= 4

    def test_advise_many(self, engine):
        advice = engine.advise_many(SNIPPETS[:3])
        assert all(isinstance(a, Advice) for a in advice)
        for a in advice:
            assert a.needs_directive == (a.probability > 0.5)

    def test_empty_batch(self, engine):
        assert engine.predict_proba([]).shape == (0, 2)


class TestPredictionCache:
    def test_cache_hit_returns_identical_predictions(self, engine):
        first = engine.predict_proba(SNIPPETS)
        assert engine.stats.cache_hits == 0
        second = engine.predict_proba(SNIPPETS)
        np.testing.assert_array_equal(first, second)
        assert engine.stats.cache_hits == len(SNIPPETS)
        # the warm pass ran no model batches
        assert engine.stats.model_rows == len(SNIPPETS)

    def test_capacity_bound_respected(self, model_and_vocab):
        model, vocab = model_and_vocab
        engine = InferenceEngine(model, vocab, max_len=TINY.max_len,
                                 config=EngineConfig(cache_capacity=3))
        engine.predict_proba(SNIPPETS)
        assert len(engine.cache) == 3

    def test_eviction_counters(self, model_and_vocab):
        model, vocab = model_and_vocab
        engine = InferenceEngine(model, vocab, max_len=TINY.max_len,
                                 config=EngineConfig(cache_capacity=3))
        engine.predict_proba(SNIPPETS)
        # 8 distinct predictions into a 3-slot LRU: 5 must have been evicted
        assert engine.stats.evictions == len(SNIPPETS) - 3
        assert engine.cache.evictions == engine.stats.evictions
        # the tokenize/encode memo shares the capacity and evicts likewise
        assert engine.stats.encode_evictions == len(SNIPPETS) - 3
        assert engine.stats.as_dict()["evictions"] == engine.stats.evictions

    def test_lru_put_reports_evictions(self):
        cache = LRUCache(2)
        assert cache.put(b"a", 1) == 0
        assert cache.put(b"b", 2) == 0
        assert cache.put(b"c", 3) == 1
        assert cache.evictions == 1

    def test_unbounded_run_never_evicts(self, engine):
        engine.predict_proba(SNIPPETS)
        assert engine.stats.evictions == 0
        assert engine.stats.encode_evictions == 0

    def test_duplicates_coalesced_within_batch(self, engine):
        codes = [SNIPPETS[0]] * 5 + [SNIPPETS[1]]
        probs = engine.predict_proba(codes)
        np.testing.assert_array_equal(probs[0], probs[4])
        assert engine.stats.coalesced == 4
        assert engine.stats.model_rows == 2

    def test_tokenize_once_per_distinct_snippet(self, model_and_vocab):
        model, vocab = model_and_vocab
        calls = []

        def counting_tokenizer(code):
            calls.append(code)
            return text_tokens(code)

        engine = InferenceEngine(model, vocab, max_len=TINY.max_len,
                                 tokenizer=counting_tokenizer)
        engine.predict_proba(SNIPPETS * 3)
        engine.predict_proba(SNIPPETS)
        assert len(calls) == len(SNIPPETS)
        assert engine.stats.tokenized == len(SNIPPETS)


class TestBatchHistogram:
    def test_histogram_counts_every_batch(self, model_and_vocab):
        model, vocab = model_and_vocab
        engine = InferenceEngine(model, vocab, max_len=TINY.max_len,
                                 config=EngineConfig(max_batch_size=2))
        engine.predict_proba(SNIPPETS)
        hist = engine.stats.batch_size_hist
        assert sum(hist.values()) == engine.stats.batches
        # max_batch_size=2 means every bucket label is "1" or "2"
        assert set(hist) <= {"1", "2"}

    def test_bucket_labels_are_power_of_two_ranges(self):
        from repro.serve import batch_hist_bucket

        assert batch_hist_bucket(1) == "1"
        assert batch_hist_bucket(2) == "2"
        assert batch_hist_bucket(3) == "3-4"
        assert batch_hist_bucket(4) == "3-4"
        assert batch_hist_bucket(5) == "5-8"
        assert batch_hist_bucket(128) == "65-128"

    def test_merge_stat_dicts_sums_counters_and_hist(self, model_and_vocab):
        from repro.serve import merge_stat_dicts

        model, vocab = model_and_vocab
        a = InferenceEngine(model, vocab, max_len=TINY.max_len)
        b = InferenceEngine(model, vocab, max_len=TINY.max_len)
        a.predict_proba(SNIPPETS[:4])
        b.predict_proba(SNIPPETS)
        merged = merge_stat_dicts([a.stats.as_dict(), b.stats.as_dict()])
        assert merged["requests"] == a.stats.requests + b.stats.requests
        assert merged["batches"] == a.stats.batches + b.stats.batches
        assert sum(merged["batch_size_hist"].values()) == merged["batches"]


class TestRecoveredFlag:
    # three snippets the recovering lexer has to patch, one clean one
    DIRTY = ["for (i = 0; i < n; i++) a[i] = `b[i];",
             "int x = 1 @ 2;",
             "for (i = 0; i < n; i++) s += $a[i];"]

    @pytest.mark.parametrize("capacity", [4096, 1, 0])
    def test_flag_survives_any_memo_size(self, model_and_vocab, capacity):
        """``Advice.recovered`` rides with the encoding, so it is right
        however small the memo is (``--cache-size 0`` included)."""
        model, vocab = model_and_vocab
        engine = InferenceEngine(model, vocab, max_len=TINY.max_len,
                                 config=EngineConfig(cache_capacity=capacity))
        advice = engine.advise_many(self.DIRTY + [SNIPPETS[0]])
        assert [a.recovered for a in advice] == [True, True, True, False]
        assert engine.stats.recovered == len(self.DIRTY)


class TestEngineConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EngineConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            EngineConfig(cache_capacity=-1)
        with pytest.raises(ValueError):
            EngineConfig(bucket_waste=0.99)
        with pytest.raises(ValueError):
            EngineConfig(max_snippet_bytes=-1)
        with pytest.raises(ValueError):
            EngineConfig(lex_budget_s=0)
