"""Tests for identifier replacement, representations, and vocabulary."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clang import parse
from repro.tokenize import (
    CLS,
    MASK,
    PAD,
    Representation,
    UNK,
    Vocab,
    build_replacement_map,
    rename_directive,
    replace_identifiers_in_code,
    represent,
    text_tokens,
    tokenize_representation,
)


class TestReplacement:
    def test_table6_example(self):
        """The exact example from Table 6."""
        code = "for (i = 0; i < len; i++) a[i] = i;"
        replaced = replace_identifiers_in_code(code)
        toks = text_tokens(replaced)
        assert "var0" in toks
        assert "var1" in toks
        assert "arr0" in toks
        assert "i" not in toks and "len" not in toks and "a" not in toks

    def test_numbering_follows_first_appearance(self):
        mapping = build_replacement_map(parse("for (i = 0; i < n; i++) a[i] = b[i];"))
        assert mapping["i"] == "var0"
        assert mapping["n"] == "var1"
        assert mapping["a"] == "arr0"
        assert mapping["b"] == "arr1"

    def test_functions_get_func_names(self):
        mapping = build_replacement_map(parse("for (i = 0; i < n; i++) y[i] = calc(x[i]);"))
        assert mapping["calc"] == "func0"

    def test_stdlib_names_kept(self):
        code = 'for (i = 0; i < n; i++) fprintf(stderr, "%d", x[i]);'
        replaced = replace_identifiers_in_code(code)
        assert "fprintf" in replaced
        assert "stderr" in replaced
        assert "x" not in text_tokens(replaced)

    def test_math_functions_kept(self):
        replaced = replace_identifiers_in_code("for (i = 0; i < n; i++) y[i] = sqrt(x[i]);")
        assert "sqrt" in replaced

    def test_replacement_is_consistent(self):
        """Same identifier maps to the same canonical name everywhere."""
        code = "for (i = 0; i < n; i++) { a[i] = i; a[i] = a[i] * i; }"
        replaced = replace_identifiers_in_code(code)
        toks = text_tokens(replaced)
        assert toks.count("arr0") == 3
        # i appears: init, cond, incr, subscript x3, rhs x2
        assert toks.count("var0") >= 6

    def test_replaced_code_reparses(self):
        code = "double f(double v) { return v * v; }\nfor (i = 0; i < n; i++) b[i] = f(a[i]);"
        replaced = replace_identifiers_in_code(code)
        parse(replaced)  # must not raise

    def test_array_classification_beats_var(self):
        # name used both as scalar read and subscripted -> arr
        mapping = build_replacement_map(parse("x = a; y = a[3];"))
        assert mapping["a"].startswith("arr")

    def test_rename_directive_private(self):
        mapping = {"j": "var1", "s": "var2"}
        out = rename_directive("#pragma omp parallel for private(j) reduction(+:s)", mapping)
        assert "private(var1)" in out
        assert "reduction(+:var2)" in out

    def test_rename_directive_keeps_schedule(self):
        out = rename_directive("#pragma omp parallel for schedule(dynamic,4)", {})
        assert "schedule(dynamic, 4)" in out


class TestRepresentations:
    CODE = "for (i = 0; i < len; i++) a[i] = i;"

    def test_text_is_identity(self):
        assert represent(self.CODE, Representation.TEXT) == self.CODE

    def test_ast_matches_paper_format(self):
        ast_text = represent(self.CODE, Representation.AST)
        assert ast_text.startswith("For:")
        assert "Assignment: =" in ast_text
        assert "ID: i" in ast_text
        assert "Constant: int, 0" in ast_text
        assert "BinaryOp: <" in ast_text
        assert "UnaryOp: p++" in ast_text
        assert "ArrayRef:" in ast_text

    def test_replaced_ast(self):
        r_ast = represent(self.CODE, Representation.R_AST)
        assert "ID: var0" in r_ast
        assert "ID: arr0" in r_ast
        assert "ID: i" not in r_ast

    def test_replaced_text(self):
        r_text = represent(self.CODE, Representation.R_TEXT)
        toks = text_tokens(r_text)
        assert "var0" in toks and "arr0" in toks

    def test_tokenize_text_uses_lexer(self):
        toks = tokenize_representation(self.CODE, Representation.TEXT)
        assert toks[:2] == ["for", "("]
        assert "a" in toks and "[" in toks

    def test_tokenize_ast_splits_whitespace(self):
        toks = tokenize_representation(self.CODE, Representation.AST)
        assert "For:" in toks
        assert "ID:" in toks

    def test_pragma_never_leaks_into_representation(self):
        code = "#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = i;"
        for rep in Representation:
            toks = tokenize_representation(code, rep)
            assert "pragma" not in toks and "omp" not in toks

    def test_ast_longer_than_text(self):
        """Table 7: AST representations average more tokens than text."""
        text_len = len(tokenize_representation(self.CODE, Representation.TEXT))
        ast_len = len(tokenize_representation(self.CODE, Representation.AST))
        assert ast_len >= text_len - 5  # AST adds structural labels


class TestVocab:
    def test_specials_present(self):
        v = Vocab.build([["a", "b"]])
        for tok in (PAD, UNK, CLS, MASK):
            assert tok in v

    def test_ids_stable_and_distinct(self):
        v = Vocab.build([["x", "y", "x"]])
        assert v.pad_id != v.unk_id != v.cls_id != v.mask_id
        assert v.token_to_id("x") != v.token_to_id("y")

    def test_oov_maps_to_unk(self):
        v = Vocab.build([["known"]])
        assert v.token_to_id("unknown_token") == v.unk_id

    def test_encode_prepends_cls_and_truncates(self):
        v = Vocab.build([["a", "b", "c"]])
        ids = v.encode(["a", "b", "c", "a"], max_len=3)
        assert len(ids) == 3
        assert ids[0] == v.cls_id

    def test_decode_inverts_encode_for_known(self):
        v = Vocab.build([["for", "(", "i", ")"]])
        toks = ["for", "(", "i", ")"]
        ids = v.encode(toks, add_cls=False)
        assert v.decode(ids) == toks

    def test_min_freq_filters(self):
        v = Vocab.build([["common"] * 5 + ["rare"]], min_freq=2)
        assert "common" in v
        assert "rare" not in v

    def test_max_size_keeps_most_frequent(self):
        v = Vocab.build([["a"] * 3 + ["b"] * 2 + ["c"]], max_size=2)
        assert "a" in v and "b" in v and "c" not in v

    def test_oov_types_count(self):
        v = Vocab.build([["a", "b"]])
        assert v.oov_types([["a", "z", "w"], ["z"]]) == 2

    def test_deterministic_construction(self):
        streams = [["b", "a", "b"], ["c", "a"]]
        v1, v2 = Vocab.build(streams), Vocab.build(streams)
        assert v1._itos == v2._itos

    @given(st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_encode_never_exceeds_vocab(self, tokens):
        v = Vocab.build([["x", "y"]])
        ids = v.encode(tokens)
        assert (np.asarray(ids) < len(v)).all()
        assert (np.asarray(ids) >= 0).all()

    def test_encode_exact_ids_and_dtype(self):
        v = Vocab.build([["a", "b", "c"]])
        a, b = v.token_to_id("a"), v.token_to_id("b")
        rows = {
            (("a", "zz", "b"), 0, True): [v.cls_id, a, v.unk_id, b],
            (("a", "zz", "b"), 0, False): [a, v.unk_id, b],
            (("a", "zz", "b"), 2, True): [v.cls_id, a],
            (("a", "zz", "b"), 2, False): [a, v.unk_id],
            ((), 0, True): [v.cls_id],
            ((), 0, False): [],
            ((), 3, False): [],
        }
        for (tokens, max_len, add_cls), expected in rows.items():
            ids = v.encode(list(tokens), max_len=max_len, add_cls=add_cls)
            assert ids.dtype == np.int32
            assert ids.tolist() == expected, (tokens, max_len, add_cls)

    @given(st.lists(st.sampled_from(["x", "y", "<cls>", "<pad>", "oov", ""]),
                    max_size=30),
           st.integers(0, 12), st.booleans())
    @settings(max_examples=60)
    def test_encode_matches_per_token_lookup(self, tokens, max_len, add_cls):
        v = Vocab.build([["x", "y"]])
        expected = ([v.cls_id] if add_cls else []) + \
            [v.token_to_id(t) for t in tokens]
        if max_len:
            expected = expected[:max_len]
        ids = v.encode(tokens, max_len=max_len, add_cls=add_cls)
        assert ids.dtype == np.int32
        assert ids.tolist() == expected
