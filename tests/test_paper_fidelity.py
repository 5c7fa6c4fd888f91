"""Integration tests pinning behaviours the paper states explicitly —
table-level ground truths that must hold regardless of scale or seed."""

import numpy as np

from repro.clang import parse
from repro.clang.pragma import parse_pragma
from repro.corpus import CorpusConfig, build_corpus
from repro.s2s import AnalysisPolicy, CetusLike, ComPar
from repro.tokenize import Representation, replace_identifiers_in_code, represent, text_tokens


class TestTable6Representations:
    """Table 6's example row-by-row."""

    CODE = "for (i = 0; i < len; i++) a[i] = i;"

    def test_text_row(self):
        assert represent(self.CODE, Representation.TEXT) == self.CODE

    def test_replaced_text_row(self):
        toks = text_tokens(represent(self.CODE, Representation.R_TEXT))
        # paper: for (var0 = 0; var0 < var1; var0++) arr0[var0] = var0;
        assert toks == ["for", "(", "var0", "=", "0", ";", "var0", "<", "var1",
                        ";", "var0", "++", ")", "arr0", "[", "var0", "]", "=",
                        "var0", ";"]

    def test_ast_row(self):
        ast_text = represent(self.CODE, Representation.AST)
        assert ast_text == ("For: Assignment: = ID: i Constant: int, 0 "
                            "BinaryOp: < ID: i ID: len UnaryOp: p++ ID: i "
                            "Assignment: = ArrayRef: ID: a ID: i ID: i")

    def test_replaced_ast_row(self):
        r_ast = represent(self.CODE, Representation.R_AST)
        assert r_ast == ("For: Assignment: = ID: var0 Constant: int, 0 "
                         "BinaryOp: < ID: var0 ID: var1 UnaryOp: p++ ID: var0 "
                         "Assignment: = ArrayRef: ID: arr0 ID: var0 ID: var0")


class TestSection2Claims:
    def test_s2s_no_schedule_dynamic_ever(self):
        """§1: 'S2S compilers will not make use of the schedule(dynamic)
        directive' — no emitted directive may carry one."""
        corpus = build_corpus(CorpusConfig(n_records=120, seed=2))
        compar = ComPar()
        for rec in corpus:
            result = compar.run(rec.code)
            if result.inserted:
                omp = parse_pragma(result.directive)
                assert omp.schedule is None or omp.schedule[0] != "dynamic"

    def test_first_touch_profitability_pitfall(self):
        """§5.2: 'in loops with a low iteration count, Cetus didn't insert an
        OpenMP directive, although the example did contain one' — enable the
        profitability heuristic and observe the false negative."""

        class ProfitabilityCetus(CetusLike):
            policy = AnalysisPolicy(min_literal_trip=1000)

        code = "for (i = 0; i < 256; i++)\n  buf[i] = 0;"
        res = ProfitabilityCetus().compile(code)
        assert res.ok
        assert res.directive is None
        assert res.analysis.skipped_unprofitable

    def test_table1_example1_consecutive_loops(self):
        """Table 1 #1: each loop gets its own directive, never a fused
        parallel region with nowait."""
        compar = ComPar()
        res = compar.run("for (i = 0; i <= N; i++)\n  A[i] = i;")
        assert res.inserted
        omp = parse_pragma(res.directive)
        assert omp.construct == "parallel for"  # not a bare 'parallel' region
        assert not omp.has_nowait


class TestSection31Criteria:
    def test_negative_records_only_from_omp_projects(self):
        """§3.1.1's framing holds trivially for the generator (all snippets
        come from 'OpenMP projects'), but the negative-labelling mechanism
        must produce parallelizable unannotated code."""
        corpus = build_corpus(CorpusConfig(n_records=300, seed=6))
        unannotated = [r for r in corpus.negatives if r.family.startswith("unannotated")]
        assert unannotated, "corpus must contain unannotated-parallel negatives"

    def test_replacement_is_reversible_structurally(self):
        """Replaced code has the same AST shape as the original."""
        from repro.clang.serialize import ast_to_dfs_text

        code = "for (i = 0; i < n; i++) total += weights[i] * samples[i];"
        replaced = replace_identifiers_in_code(code)
        orig_shape = [t.split(":")[0] for t in ast_to_dfs_text(parse(code)).split()
                      if t.endswith(":")]
        new_shape = [t.split(":")[0] for t in ast_to_dfs_text(parse(replaced)).split()
                     if t.endswith(":")]
        assert orig_shape == new_shape


class TestSection43Setup:
    def test_max_len_default_matches_paper(self):
        from repro.data.encoding import DEFAULT_MAX_LEN

        assert DEFAULT_MAX_LEN == 110

    def test_head_is_two_dense_layers_with_relu(self):
        """§4.3: 'The FC layer contains two dense layers with a ReLU
        activation function between them.'"""
        from repro.nn import ClassificationHead, Linear, ReLU

        head = ClassificationHead(16, 8, rng=0)
        assert isinstance(head.fc1, Linear)
        assert isinstance(head.act, ReLU)
        assert isinstance(head.fc2, Linear)

    def test_optimizer_is_adamw(self):
        """§4.3: parameters updated 'via the AdamW gradient descent
        optimizer' — the flat-arena FusedAdamW, with decoupled weight
        decay."""
        from repro.models.pragformer import PragFormer, PragFormerConfig
        from repro.nn import FusedAdamW

        model = PragFormer(32, PragFormerConfig(d_model=16, n_heads=2, n_layers=1,
                                                d_ff=16, d_head_hidden=8))
        ids = np.full((4, 8), 2, dtype=np.int64)
        split_ids = ids
        from repro.data.encoding import EncodedSplit

        split = EncodedSplit(split_ids, np.ones((4, 8)), np.zeros(4, dtype=np.int64))
        model.fit(split, epochs=1)
        assert isinstance(model._optimizer, FusedAdamW)
        assert model._optimizer.weight_decay == model.config.weight_decay > 0
