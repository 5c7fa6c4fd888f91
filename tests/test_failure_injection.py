"""Failure-injection tests: corrupted inputs, truncated records, malformed
data at every layer's boundary."""

import pickle

import numpy as np
import pytest

from repro.clang import LexError, ParseError, parse
from repro.clang.pragma import PragmaError, parse_pragma
from repro.corpus import CorpusConfig, build_corpus, load_records, save_records
from repro.corpus.records import Record
from repro.data.encoding import EncodedSplit
from repro.models import PragFormer, PragFormerConfig
from repro.s2s import ComPar
from repro.tokenize import Vocab


class TestParserRobustness:
    @pytest.mark.parametrize("bad", [
        "for (i = 0; i < n; i++ {",       # missing paren
        "for (i = 0; i < n; i++) a[i = ;",  # broken expression
        "if (x > ) y = 1;",
        "int = 5;",
        "}{",
    ])
    def test_malformed_raises_parse_error(self, bad):
        with pytest.raises((ParseError, LexError)):
            parse(bad)

    def test_deeply_nested_parens_parse(self):
        # each paren level costs 9 interpreter frames, from the
        # expression rule down to the primary; 30 levels is far beyond
        # real code
        code = "x = " + "(" * 30 + "1" + ")" * 30 + ";"
        parse(code)

    def test_pathological_nesting_fails_loudly_not_silently(self):
        code = "x = " + "(" * 5000 + "1" + ")" * 5000 + ";"
        # the parser's explicit depth limit makes this a deterministic
        # ParseError on every platform, never a RecursionError
        with pytest.raises(ParseError, match="nesting depth"):
            parse(code)
        # the S2S driver treats it as a compile failure, not a crash
        assert ComPar().run(code).parse_failed

    def test_compar_survives_malformed_input(self):
        result = ComPar().run("for (i = 0; i < n; i++ {")
        assert result.parse_failed


class TestPragmaRobustness:
    @pytest.mark.parametrize("bad", [
        "#pragma omp parallel for reduction()",
        "#pragma omp parallel for schedule()",
        "#pragma omp",
    ])
    def test_malformed_pragmas_raise(self, bad):
        with pytest.raises(PragmaError):
            parse_pragma(bad)


class TestRecordStorage:
    def test_missing_ast_pickle_tolerated(self, tmp_path):
        corpus = build_corpus(CorpusConfig(n_records=5, seed=1))
        save_records(corpus.records, tmp_path)
        # delete a pickle: loading must still work (AST re-parsed lazily)
        (tmp_path / "record_000000" / "ast.pkl").unlink()
        loaded = load_records(tmp_path)
        assert len(loaded) == 5
        assert loaded[0].ast is not None  # re-parsed from code.c

    def test_empty_pragma_file_means_negative(self, tmp_path):
        rec = Record(0, "for (i = 0; i < n; i++) a[i] = i;", None, "generic", "x")
        save_records([rec], tmp_path)
        loaded = load_records(tmp_path)
        assert loaded[0].directive is None
        assert not loaded[0].has_omp

    def test_corrupted_pickle_raises_clearly(self, tmp_path):
        corpus = build_corpus(CorpusConfig(n_records=2, seed=1))
        save_records(corpus.records, tmp_path)
        (tmp_path / "record_000000" / "ast.pkl").write_bytes(b"not a pickle")
        with pytest.raises(pickle.UnpicklingError):
            load_records(tmp_path)


class TestModelBoundaries:
    def test_sequence_longer_than_max_len_rejected_by_encoder(self):
        from repro.nn import EncoderConfig, TransformerEncoder

        enc = TransformerEncoder(EncoderConfig(vocab_size=10, d_model=8,
                                               n_heads=2, n_layers=1,
                                               d_ff=8, max_len=4))
        with pytest.raises(ValueError):
            enc.forward(np.zeros((1, 5), dtype=np.int64))

    def test_prediction_on_empty_like_rows(self):
        cfg = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=16,
                               d_head_hidden=8, max_len=8)
        model = PragFormer(12, cfg)
        ids = np.full((2, 8), 0, dtype=np.int64)
        ids[:, 0] = 2  # CLS only
        mask = np.zeros((2, 8))
        mask[:, 0] = 1.0
        proba = model.predict_proba(EncodedSplit(ids, mask, np.zeros(2, dtype=np.int64)))
        assert proba.shape == (2, 2)
        assert np.isfinite(proba).all()

    def test_vocab_encode_empty(self):
        v = Vocab.build([["a"]])
        ids = v.encode([])
        assert len(ids) == 1  # just CLS

    def test_state_dict_wrong_shape_raises(self):
        from repro.nn import Linear

        l1 = Linear(3, 3, rng=0)
        state = l1.state_dict()
        state["W"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            Linear(3, 3, rng=1).load_state_dict(state)


class TestCorpusEdgeConfigs:
    def test_zero_records(self):
        corpus = build_corpus(CorpusConfig(n_records=0, seed=0))
        assert len(corpus) == 0

    def test_all_positive_fraction(self):
        corpus = build_corpus(CorpusConfig(n_records=40, seed=0,
                                           positive_fraction=1.0,
                                           include_excluded=False,
                                           label_noise=0.0))
        assert all(r.has_omp for r in corpus)

    def test_all_negative_fraction(self):
        corpus = build_corpus(CorpusConfig(n_records=40, seed=0,
                                           positive_fraction=0.0,
                                           include_excluded=False))
        assert all(not r.has_omp for r in corpus)

    def test_dedup_none_mode(self):
        corpus = build_corpus(CorpusConfig(n_records=50, seed=0, dedup="none"))
        assert len(corpus) == 50
        assert corpus.n_rejected_duplicates == 0
