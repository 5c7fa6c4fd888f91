"""Tests for the future-work extensions: the hybrid model+S2S advisor,
attention introspection, and clause suggestions in ``repro advise``."""

import pytest

from repro.explain import attention_by_token_class, cls_attention
from repro.models import HybridAdvisor, PragFormerConfig
from repro.pipeline import ScaleConfig
from repro.pipeline.context import get_context

TINY = ScaleConfig(
    name="tiny-ext",
    corpus_records=260,
    epochs=3,
    mlm_epochs=1,
    pragformer=PragFormerConfig(d_model=32, n_heads=2, n_layers=1, d_ff=64,
                                d_head_hidden=32, batch_size=32, seed=0),
)


@pytest.fixture(scope="module")
def ctx():
    return get_context(TINY)


class TestHybridAdvisor:
    def test_agreement_never_exceeds_either_positive_set(self, ctx):
        enc = ctx.encoded()
        codes = [e.record.code for e in ctx.directive_splits.test]
        hybrid = HybridAdvisor(ctx.pragformer, ctx.compar)
        agree = hybrid.predict(enc.test, codes, policy="agreement")
        model_pos = ctx.pragformer.predict(enc.test)
        s2s_pos, _ = ctx.compar.predict_directive(codes)
        assert (agree <= model_pos).all()
        assert (agree <= s2s_pos).all()

    def test_agreement_tradeoff_structure(self, ctx):
        enc = ctx.encoded()
        codes = [e.record.code for e in ctx.directive_splits.test]
        hybrid = HybridAdvisor(ctx.pragformer, ctx.compar)
        table = hybrid.precision_recall_tradeoff(enc.test, codes)
        assert set(table) == {"pragformer", "compar", "agreement", "model_veto"}
        # agreement costs recall relative to both components (subset of each)
        assert table["agreement"]["recall"] <= table["pragformer"]["recall"] + 1e-9
        assert table["agreement"]["recall"] <= table["compar"]["recall"] + 1e-9
        # when agreement produces any positives, its precision is competitive
        # with the weaker component (§2.1's verification argument); at tiny
        # scale the intersection may be empty, which is fine
        if table["agreement"]["precision"] > 0:
            assert table["agreement"]["precision"] >= min(
                table["pragformer"]["precision"], table["compar"]["precision"]) - 0.05

    def test_unknown_policy_raises(self, ctx):
        enc = ctx.encoded()
        codes = [e.record.code for e in ctx.directive_splits.test]
        hybrid = HybridAdvisor(ctx.pragformer, ctx.compar)
        with pytest.raises(ValueError):
            hybrid.predict(enc.test, codes, policy="bogus")

    def test_misaligned_inputs_raise(self, ctx):
        enc = ctx.encoded()
        hybrid = HybridAdvisor(ctx.pragformer, ctx.compar)
        with pytest.raises(ValueError):
            hybrid.predict(enc.test, ["one code"], policy="agreement")


class TestAttention:
    def test_cls_attention_covers_tokens(self, ctx):
        enc = ctx.encoded()
        pairs = cls_attention(ctx.pragformer, enc.vocab,
                              "for (i = 0; i < n; i++) a[i] = i;",
                              max_len=TINY.pragformer.max_len)
        tokens = [t for t, _ in pairs]
        assert tokens[0] == "for"
        assert all(att >= 0 for _, att in pairs)
        assert sum(att for _, att in pairs) <= 1.0 + 1e-6

    def test_attention_by_class_keys(self, ctx):
        enc = ctx.encoded()
        codes = [e.record.code for e in ctx.directive_splits.test[:8]]
        by_class = attention_by_token_class(ctx.pragformer, enc.vocab, codes,
                                            max_len=TINY.pragformer.max_len)
        assert "identifier" in by_class
        assert all(v >= 0 for v in by_class.values())


class TestAdviseCommand:
    """``repro advise`` on the tiny context: directive verdicts first,
    then clause suggestions from ``advise_v1`` for positive files."""

    def test_positive_file_prints_suggested_clauses(self, ctx, tmp_path,
                                                    monkeypatch, capsys):
        import repro.pipeline
        from repro.cli import main
        from repro.serve import InferenceEngine, ModelRegistry, MultiModelEngine

        codes = [e.record.code for e in ctx.directive_splits.test]
        directive = InferenceEngine(ctx.pragformer, ctx.encoded().vocab,
                                    max_len=TINY.pragformer.max_len)
        positive = [code for code, advice in
                    zip(codes, directive.advise_many(codes))
                    if advice.needs_directive]
        with MultiModelEngine(ModelRegistry.from_context(ctx)) as advisor:
            results = advisor.advise_v1(positive)
        code, result = next((c, r) for c, r in zip(positive, results)
                            if r.recommended_clauses())
        path = tmp_path / "loop.c"
        path.write_text(code)
        monkeypatch.setattr(repro.pipeline, "get_context", lambda: ctx)
        assert main(["advise", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("PragFormer: needs an OpenMP directive")
        assert lines[1:] == [
            f"  suggest a {name} clause "
            f"(p = {result.clauses[name].probability:.3f})"
            for name in result.recommended_clauses()]
