"""Tests for whole-model persistence, the schedule-clause dataset (future
work §6), and LR warmup wiring."""

import numpy as np
import pytest

from repro.corpus import CorpusConfig, build_corpus
from repro.data import encode_dataset, make_clause_dataset, make_directive_dataset
from repro.data.encoding import EncodedSplit
from repro.models import (
    PragFormer,
    PragFormerConfig,
    load_pragformer,
    save_pragformer,
)
from repro.tokenize import Representation

TINY_CFG = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                            d_head_hidden=16, max_len=48, batch_size=16, seed=0)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(n_records=220, seed=31))


@pytest.fixture(scope="module")
def trained(corpus):
    splits = make_directive_dataset(corpus, rng=0)
    enc = encode_dataset(splits, Representation.TEXT, max_len=48, min_freq=2)
    model = PragFormer(len(enc.vocab), TINY_CFG)
    model.fit(enc.train, enc.validation, epochs=2)
    return model, enc


class TestPersistence:
    def test_roundtrip_predictions_identical(self, trained, tmp_path):
        model, enc = trained
        path = str(tmp_path / "model.npz")
        save_pragformer(model, enc.vocab, path)
        loaded, vocab = load_pragformer(path)
        assert len(vocab) == len(enc.vocab)
        p_orig = model.predict_proba(enc.test)
        p_loaded = loaded.predict_proba(enc.test)
        np.testing.assert_allclose(p_orig, p_loaded, atol=1e-6)

    def test_vocab_mapping_preserved(self, trained, tmp_path):
        model, enc = trained
        path = str(tmp_path / "model.npz")
        save_pragformer(model, enc.vocab, path)
        _, vocab = load_pragformer(path)
        for token in ("for", "(", ";"):
            assert vocab.token_to_id(token) == enc.vocab.token_to_id(token)

    def test_config_preserved(self, trained, tmp_path):
        model, enc = trained
        path = str(tmp_path / "model.npz")
        save_pragformer(model, enc.vocab, path)
        loaded, _ = load_pragformer(path)
        assert loaded.config == model.config

    def test_version_check(self, trained, tmp_path):
        import json

        model, enc = trained
        path = str(tmp_path / "model.npz")
        save_pragformer(model, enc.vocab, path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["__meta__"]).decode())
        meta["format_version"] = 999
        data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8).copy()
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_pragformer(path)

    def test_loads_checkpoint_with_retired_optimizer_option(self, trained,
                                                            tmp_path):
        """Checkpoints saved while ``PragFormerConfig`` still had the
        ``fused_optimizer`` switch carry it in their config; they load
        with the same config and weights."""
        import json

        model, enc = trained
        path = str(tmp_path / "model.npz")
        save_pragformer(model, enc.vocab, path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["__meta__"]).decode())
        meta["config"]["fused_optimizer"] = True
        data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8).copy()
        np.savez(path, **data)
        loaded, _ = load_pragformer(path)
        assert loaded.config == model.config
        np.testing.assert_array_equal(loaded.predict_proba(enc.test),
                                      model.predict_proba(enc.test))


class TestScheduleClause:
    def test_schedule_dynamic_dataset(self, corpus):
        splits = make_clause_dataset(corpus, "schedule_dynamic", balance=False, rng=0)
        all_ex = splits.train + splits.validation + splits.test
        assert len(all_ex) == len(corpus.positives)
        # labels match the directives
        for ex in all_ex[:80]:
            sched = ex.record.omp.schedule
            expected = int(sched is not None and sched[0] == "dynamic")
            assert ex.label == expected

    def test_dynamic_positives_exist_and_are_minority(self, corpus):
        splits = make_clause_dataset(corpus, "schedule_dynamic", balance=False, rng=0)
        all_ex = splits.train + splits.validation + splits.test
        n_pos = sum(e.label for e in all_ex)
        assert 0 < n_pos < len(all_ex) / 2

    def test_balanced_variant(self, corpus):
        splits = make_clause_dataset(corpus, "schedule_dynamic", balance=True, rng=0)
        all_ex = splits.train + splits.validation + splits.test
        frac = sum(e.label for e in all_ex) / max(1, len(all_ex))
        assert abs(frac - 0.5) < 0.1


class TestWarmup:
    def test_warmup_config_trains(self):
        cfg = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=16,
                               d_head_hidden=8, max_len=16, batch_size=8,
                               warmup_frac=0.2, seed=0)
        model = PragFormer(12, cfg)
        gen = np.random.default_rng(0)
        ids = gen.integers(4, 12, size=(32, 16)).astype(np.int64)
        ids[:, 0] = 2
        labels = (ids[:, 1] > 7).astype(np.int64)
        split = EncodedSplit(ids, np.ones((32, 16)), labels)
        history = model.fit(split, epochs=3)
        assert len(history.train_loss) == 3
        # the optimizer's lr was driven by the schedule (ends at peak)
        assert model._optimizer.lr == pytest.approx(cfg.lr)
