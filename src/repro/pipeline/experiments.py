"""One function per table and figure in the paper's evaluation.

Each returns a structured result dict (consumed by the benchmark harness's
assertions) and prints nothing; the benches render the same rows the paper
reports via :func:`repro.utils.format_table`.
"""

from __future__ import annotations

from typing import Dict, List, Optional


from repro.benchsuites import polybench_suite, specomp_suite
from repro.corpus import directive_stats, domain_distribution, length_histogram
from repro.corpus.records import Record
from repro.data.encoding import EncodedSplit, encode_batch
from repro.eval import binary_metrics, error_rate_by_length
from repro.explain import LimeExplainer
from repro.models import PragFormer
from repro.pipeline.config import ScaleConfig
from repro.pipeline.context import ExperimentContext, get_context
from repro.tokenize import Representation, text_tokens
from repro.tokenize.stats import representation_stats

__all__ = [
    "exp_table3", "exp_table4", "exp_fig3", "exp_table5", "exp_table7",
    "exp_fig456", "exp_table8", "exp_fig7", "exp_table9", "exp_table10",
    "exp_table11", "exp_table12_fig8",
    "ablation_pretraining", "ablation_capacity", "ablation_seq_length",
    "PAPER_EXAMPLES",
]


# ---------------------------------------------------------------------------
# Corpus statistics: Tables 3-5, Figure 3, Table 7
# ---------------------------------------------------------------------------


def exp_table3(scale: Optional[ScaleConfig] = None) -> Dict[str, int]:
    """Table 3: OpenMP directive statistics of the raw database."""
    return directive_stats(get_context(scale).corpus)


def exp_table4(scale: Optional[ScaleConfig] = None) -> Dict[str, int]:
    """Table 4: code snippet lengths."""
    return length_histogram(get_context(scale).corpus)


def exp_fig3(scale: Optional[ScaleConfig] = None) -> Dict[str, float]:
    """Figure 3: domain distribution of snippet sources."""
    return domain_distribution(get_context(scale).corpus)


def exp_table5(scale: Optional[ScaleConfig] = None) -> Dict[str, Dict[str, int]]:
    """Table 5: dataset sizes for the directive and clause tasks."""
    ctx = get_context(scale)
    return {
        "directive": ctx.directive_splits.sizes(),
        "clause": ctx.clause_splits("private").sizes(),
    }


def exp_table7(scale: Optional[ScaleConfig] = None) -> Dict[str, Dict[str, float]]:
    """Table 7: type-level stats for the four code representations."""
    ctx = get_context(scale)
    return {
        rep.value: representation_stats(ctx.directive_splits, rep, ctx.cache)
        for rep in Representation
    }


# ---------------------------------------------------------------------------
# Representation comparison: Figures 4-6
# ---------------------------------------------------------------------------


def exp_fig456(scale: Optional[ScaleConfig] = None) -> Dict[str, Dict[str, List[float]]]:
    """Figures 4-6: per-epoch validation accuracy, train loss, valid loss
    for all four representations."""
    ctx = get_context(scale)
    out: Dict[str, Dict[str, List[float]]] = {}
    for rep in Representation:
        _, history = ctx.train_pragformer(rep)
        out[rep.value] = {
            "valid_accuracy": history.valid_accuracy,
            "train_loss": history.train_loss,
            "valid_loss": history.valid_loss,
        }
    return out


# ---------------------------------------------------------------------------
# Table 8: directive classification, three systems
# ---------------------------------------------------------------------------


def exp_table8(scale: Optional[ScaleConfig] = None) -> Dict[str, Dict[str, float]]:
    ctx = get_context(scale)
    enc = ctx.encoded()
    labels = enc.test.labels
    rows: Dict[str, Dict[str, float]] = {}

    rows["PragFormer"] = binary_metrics(ctx.pragformer.predict(enc.test), labels).as_dict()
    rows["BoW"] = binary_metrics(ctx.bow.predict(enc.test), labels).as_dict()

    codes = [e.record.code for e in ctx.directive_splits.test]
    compar_preds, failures = ctx.compar.predict_directive(codes)
    rows["ComPar"] = binary_metrics(compar_preds, labels).as_dict()
    rows["ComPar"]["parse_failures"] = failures
    return rows


# ---------------------------------------------------------------------------
# Figure 7: error rate by snippet length
# ---------------------------------------------------------------------------


def exp_fig7(scale: Optional[ScaleConfig] = None) -> Dict[str, Dict[str, float]]:
    ctx = get_context(scale)
    enc = ctx.encoded()
    preds = ctx.pragformer.predict(enc.test)
    line_counts = [e.record.line_count for e in ctx.directive_splits.test]
    return error_rate_by_length(line_counts, preds, enc.test.labels)


# ---------------------------------------------------------------------------
# Tables 9-10: clause classification
# ---------------------------------------------------------------------------


def _clause_experiment(ctx: ExperimentContext, clause: str) -> Dict[str, Dict[str, float]]:
    enc = ctx.clause_encoded(clause)
    labels = enc.test.labels
    rows: Dict[str, Dict[str, float]] = {}
    rows["PragFormer"] = binary_metrics(
        ctx.clause_model(clause).predict(enc.test), labels).as_dict()
    rows["BoW"] = binary_metrics(ctx.clause_bow(clause).predict(enc.test), labels).as_dict()
    codes = [e.record.code for e in ctx.clause_splits(clause).test]
    predict = (ctx.compar.predict_private if clause == "private"
               else ctx.compar.predict_reduction)
    preds, failures = predict(codes)
    rows["ComPar"] = binary_metrics(preds, labels).as_dict()
    rows["ComPar"]["parse_failures"] = failures
    return rows


def exp_table9(scale: Optional[ScaleConfig] = None) -> Dict[str, Dict[str, float]]:
    """Table 9: private-clause identification."""
    return _clause_experiment(get_context(scale), "private")


def exp_table10(scale: Optional[ScaleConfig] = None) -> Dict[str, Dict[str, float]]:
    """Table 10: reduction-clause identification."""
    return _clause_experiment(get_context(scale), "reduction")


# ---------------------------------------------------------------------------
# Table 11: generalization to PolyBench / SPEC-OMP
# ---------------------------------------------------------------------------


def _suite_split(records: List[Record], ctx: ExperimentContext) -> EncodedSplit:
    enc = ctx.encoded()
    return encode_batch(
        [text_tokens(rec.code) for rec in records], enc.vocab,
        ctx.scale.pragformer.max_len,
        labels=[int(rec.has_omp) for rec in records],
    )


def exp_table11(scale: Optional[ScaleConfig] = None) -> Dict[str, Dict[str, float]]:
    ctx = get_context(scale)
    out: Dict[str, Dict[str, float]] = {}
    for suite_name, records in (("PolyBench", polybench_suite()),
                                ("SPEC-OMP", specomp_suite())):
        split = _suite_split(records, ctx)
        out[f"PragFormer {suite_name}"] = binary_metrics(
            ctx.pragformer.predict(split), split.labels).as_dict()
        codes = [r.code for r in records]
        preds, failures = ctx.compar.predict_directive(codes)
        row = binary_metrics(preds, split.labels).as_dict()
        row["parse_failures"] = failures
        out[f"ComPar {suite_name}"] = row
    return out


# ---------------------------------------------------------------------------
# Table 12 + Figure 8: examples and LIME explanations
# ---------------------------------------------------------------------------

#: The paper's four representative examples, verbatim.
PAPER_EXAMPLES = [
    {
        "name": "polybench_mvt",
        "code": ("for (i = 0; i < POLYBENCH_LOOP_BOUND(4000, n); i++)\n"
                 "  for (j = 0; j < POLYBENCH_LOOP_BOUND(4000, n); j++)\n"
                 "    x1[i] = x1[i] + (A[i][j] * y_1[j]);"),
        "label": 1,
    },
    {
        "name": "io_loop",
        "code": ('for (i = 0; i < n; i++) {\n'
                 '  fprintf(stderr, "%0.2lf ", x[i]);\n'
                 '  if ((i % 20) == 0)\n'
                 '    fprintf(stderr, " \\n");\n}'),
        "label": 0,
    },
    {
        "name": "magick_colormap",
        "code": ("for (i = 0; i < (( ssize_t) image->colors); i++)\n"
                 "  image->colormap[i].opacity = (IndexPacket) i;"),
        "label": 1,
    },
    {
        "name": "maxgrid_unannotated",
        "code": ("for (i = 0; i < maxgrid; i++)\n"
                 "  for (j = 0; j < maxgrid; j++){\n"
                 "    sum_tang[i][j] = ( int) ((i + 1) * (j + 1));\n"
                 "    mean[i][j] = ((( int) i) - j) / maxgrid;\n"
                 "    path[i][j] = ((( int) i) * (j - 1)) / maxgrid; }"),
        "label": 0,
    },
]


def exp_table12_fig8(scale: Optional[ScaleConfig] = None,
                     n_lime_samples: int = 200) -> List[Dict]:
    """Run the paper's four examples through PragFormer and explain each
    prediction with LIME token importances."""
    ctx = get_context(scale)
    enc = ctx.encoded()
    vocab = enc.vocab
    model = ctx.pragformer
    max_len = ctx.scale.pragformer.max_len

    def predict_fn(token_lists):
        split = encode_batch(token_lists, vocab, max_len)
        return model.predict_proba(split)[:, 1]

    explainer = LimeExplainer(predict_fn, n_samples=n_lime_samples, rng=7)
    results = []
    for example in PAPER_EXAMPLES:
        tokens = text_tokens(example["code"])
        explanation = explainer.explain(tokens)
        results.append({
            "name": example["name"],
            "label": example["label"],
            "prediction": int(explanation.base_probability > 0.5),
            "probability": explanation.base_probability,
            "top_tokens": explanation.top(8),
            "supporting": explanation.supporting(5),
            "opposing": explanation.opposing(5),
        })
    return results


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------


def ablation_pretraining(scale: Optional[ScaleConfig] = None) -> Dict[str, float]:
    """A-1: MLM-pretrained initialization vs training from scratch (§4.1's
    transfer-learning argument)."""
    ctx = get_context(scale)
    enc = ctx.encoded()
    labels = enc.test.labels

    pretrained_acc = binary_metrics(ctx.pragformer.predict(enc.test), labels).accuracy

    scratch = PragFormer(len(enc.vocab), ctx.scale.pragformer, rng=ctx.scale.seed)
    scratch.fit(enc.train, enc.validation, epochs=ctx.scale.epochs,
                n_workers=ctx.train_workers)
    scratch_acc = binary_metrics(scratch.predict(enc.test), labels).accuracy
    return {"pretrained": pretrained_acc, "scratch": scratch_acc}


def ablation_capacity(scale: Optional[ScaleConfig] = None) -> Dict[str, float]:
    """A-2: the PragFormer-vs-BoW gap is architectural, not parametric —
    even a down-scaled transformer beats the (converged) linear BoW."""
    from repro.models.pragformer import PragFormerConfig

    ctx = get_context(scale)
    enc = ctx.encoded()
    labels = enc.test.labels
    out = {"bow": binary_metrics(ctx.bow.predict(enc.test), labels).accuracy}
    tiny_cfg = PragFormerConfig(d_model=32, n_heads=2, n_layers=1, d_ff=64,
                                d_head_hidden=32, batch_size=32, seed=0)
    tiny = PragFormer(len(enc.vocab), tiny_cfg, rng=ctx.scale.seed)
    tiny.fit(enc.train, enc.validation, epochs=ctx.scale.epochs,
             n_workers=ctx.train_workers)
    out["transformer_tiny"] = binary_metrics(tiny.predict(enc.test), labels).accuracy
    out["transformer_default"] = binary_metrics(
        ctx.pragformer.predict(enc.test), labels).accuracy
    return out


def ablation_seq_length(scale: Optional[ScaleConfig] = None) -> Dict[str, float]:
    """A-3: §4.3 caps sequences at 110 tokens; measure shorter truncations."""
    from repro.data import encode_dataset
    from repro.models.pragformer import PragFormerConfig

    ctx = get_context(scale)
    out: Dict[str, float] = {}
    for max_len in (32, 64, 110):
        enc = encode_dataset(ctx.directive_splits, Representation.TEXT,
                             max_len=max_len, min_freq=ctx.scale.min_freq,
                             cache=ctx.cache)
        cfg_dict = ctx.scale.pragformer.__dict__ | {"max_len": max_len}
        cfg = PragFormerConfig(**cfg_dict)
        model = PragFormer(len(enc.vocab), cfg, rng=ctx.scale.seed)
        model.fit(enc.train, enc.validation,
                  epochs=max(3, ctx.scale.epochs - 2),
                  n_workers=ctx.train_workers)
        out[f"max_len_{max_len}"] = binary_metrics(
            model.predict(enc.test), enc.test.labels).accuracy
    return out
