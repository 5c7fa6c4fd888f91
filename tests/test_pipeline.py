"""Integration tests for the experiment pipeline at a tiny scale."""

import pytest

from repro.models.pragformer import PragFormerConfig, TrainHistory
from repro.pipeline import ScaleConfig, get_scale
from repro.pipeline import experiments as E
from repro.pipeline.context import get_context
from repro.tokenize import Representation

TINY = ScaleConfig(
    name="tiny-test",
    corpus_records=260,
    epochs=2,
    mlm_epochs=1,
    pragformer=PragFormerConfig(d_model=32, n_heads=2, n_layers=1, d_ff=64,
                                d_head_hidden=32, batch_size=32, seed=0),
)


@pytest.fixture(scope="module")
def ctx():
    return get_context(TINY)


class TestContext:
    def test_memoized_per_scale(self, ctx):
        assert get_context(TINY) is ctx

    def test_corpus_size(self, ctx):
        assert len(ctx.corpus) == TINY.corpus_records

    def test_encoded_cached(self, ctx):
        assert ctx.encoded() is ctx.encoded()

    def test_pragformer_trained_once(self, ctx):
        m1 = ctx.pragformer
        m2 = ctx.pragformer
        assert m1 is m2

    def test_clause_model_honours_train_workers(self):
        """``train_workers`` sets every fit's worker count, the clause
        models' included."""
        from dataclasses import replace

        from repro.pipeline.context import ExperimentContext

        context = ExperimentContext(replace(TINY, name="tiny-workers",
                                            corpus_records=80, epochs=1))
        assert context.train_workers == 1
        context.train_workers = 2
        model = context.clause_model("private")
        assert model.ddp_stats["counters"]["steps"] > 0
        assert len(model.ddp_stats["counters"]["per_rank_examples"]) == 2

    def test_ablation_fits_honour_train_workers(self, monkeypatch):
        """The ablations' own fits take the context's worker count, like
        the context's fits."""
        from dataclasses import replace

        from repro.models import PragFormer
        from repro.models.pretrain import MLMPretrainer
        from repro.pipeline import context as context_module
        from repro.pipeline.context import ExperimentContext

        scale = replace(TINY, name="tiny-ablation-workers",
                        corpus_records=80, epochs=1)
        context = ExperimentContext(scale)
        context.train_workers = 3
        monkeypatch.setitem(context_module._CONTEXTS, scale.name, context)
        workers = []

        def fit(self, *args, n_workers=1, **kwargs):
            workers.append(n_workers)
            return [] if isinstance(self, MLMPretrainer) else TrainHistory()

        monkeypatch.setattr(PragFormer, "fit", fit)
        monkeypatch.setattr(MLMPretrainer, "fit", fit)
        E.ablation_pretraining(scale)
        E.ablation_capacity(scale)
        E.ablation_seq_length(scale)
        # MLM + the context's model, scratch, tiny, three sequence lengths
        assert workers == [3] * 7

    def test_default_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert get_scale().name == "small"
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert get_scale().name == "full"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            get_scale()


class TestStatExperiments:
    def test_table3(self):
        stats = E.exp_table3(TINY)
        assert stats["total_code_snippets"] == TINY.corpus_records
        assert stats["for_loops_with_omp"] > 0

    def test_table4(self):
        hist = E.exp_table4(TINY)
        assert sum(hist.values()) == TINY.corpus_records

    def test_fig3(self):
        dist = E.exp_fig3(TINY)
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_table5(self):
        sizes = E.exp_table5(TINY)
        assert set(sizes) == {"directive", "clause"}
        assert sizes["directive"]["train"] > sizes["directive"]["test"]

    def test_table7(self):
        stats = E.exp_table7(TINY)
        assert set(stats) == {r.value for r in Representation}
        assert stats["replaced-text"]["train_vocab_size"] < stats["text"]["train_vocab_size"]


class TestModelExperiments:
    def test_table8_structure(self):
        rows = E.exp_table8(TINY)
        assert set(rows) == {"PragFormer", "BoW", "ComPar"}
        for name, m in rows.items():
            for key in ("precision", "recall", "f1", "accuracy"):
                assert 0.0 <= m[key] <= 1.0, (name, key)

    def test_fig7_structure(self):
        bins = E.exp_fig7(TINY)
        assert abs(sum(b["share_of_errors"] for b in bins.values()) - 1.0) < 1e-9 \
            or all(b["errors"] == 0 for b in bins.values())

    def test_table9_and_10(self):
        for fn in (E.exp_table9, E.exp_table10):
            rows = fn(TINY)
            assert set(rows) == {"PragFormer", "BoW", "ComPar"}

    def test_table11_structure(self):
        rows = E.exp_table11(TINY)
        assert "PragFormer PolyBench" in rows
        assert rows["ComPar PolyBench"]["parse_failures"] > 0

    def test_table12(self):
        results = E.exp_table12_fig8(TINY, n_lime_samples=40)
        assert len(results) == 4
        names = {r["name"] for r in results}
        assert "io_loop" in names and "polybench_mvt" in names
        for r in results:
            assert r["prediction"] in (0, 1)
            assert len(r["top_tokens"]) > 0

    def test_fig456_all_representations(self):
        curves = E.exp_fig456(TINY)
        assert set(curves) == {r.value for r in Representation}
        for series in curves.values():
            assert len(series["valid_accuracy"]) == TINY.epochs
            assert len(series["train_loss"]) == TINY.epochs


class TestAblations:
    def test_pretraining_ablation_structure(self):
        result = E.ablation_pretraining(TINY)
        assert set(result) == {"pretrained", "scratch"}
        assert all(0 <= v <= 1 for v in result.values())

    def test_seq_length_ablation_structure(self):
        result = E.ablation_seq_length(TINY)
        assert set(result) == {"max_len_32", "max_len_64", "max_len_110"}
