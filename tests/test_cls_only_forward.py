"""The CLS-only last block: the pad-free packed forward that
PragFormer's inference runs, and the padded training forward.

``predict_proba``, ``evaluate`` and the serving engine run
``TransformerEncoder.forward_packed``: position-wise work on the real
token rows alone, attention per group of similar lengths, and the last
block for the CLS rows alone, the only rows ``ClassificationHead`` reads.
Both paths are checked:

* **oracle** — against the padded full-sequence forward (every block
  on every position, under ``eval()``), on random padded batches and
  named edge batches (one row, equal lengths, a CLS-only row, 110-token
  rows, mixed groups) and, through ``MultiModelEngine.advise_v1``, on a
  clean sample, every dirty fixture and seeded fuzz mutants.  The
  declared tolerance: probabilities within 1e-6 in float32 and 1e-12 in
  float64; argmax, verdicts, clauses and flags exact.  Bits may move
  because the GEMMs, LayerNorms and FFN run on Σlen (last block: N) rows
  instead of B·L.  The models keep their initial weights, whose
  probabilities already span about 0.2-0.99.  Batching a row with others
  moves the full path's own answer by more than packing does
  (``test_pruning_moves_less_than_batching``);
* **training** — ``fit`` runs the padded forward with the last block
  on the CLS rows alone (``TransformerEncoder.forward(cls_only=True)``):
  float64 gradients match the full last block within 1e-12 at dropout
  0, the last block's dropouts draw masks for the CLS rows alone, and at
  dropout 0.3 the step matches the full block replaying those masks;
* **in effect / full path intact** — the position-wise GEMMs see Σlen
  rows, the last block allocates no (B, H, L, L) scores and projects
  queries for the CLS rows alone, the engine makes one forward per head
  per sub-batch, ``fit`` trains the last block's FFN on B rows and never
  runs the packed forward, ``retain_attention`` runs the full padded
  forward, and the explain tooling reads the same maps as a full forward.
"""

from dataclasses import replace
from math import ceil
from pathlib import Path

import numpy as np
import pytest

from repro.clang.fuzz import fuzz_corpus
from repro.corpus import CorpusConfig, build_corpus
from repro.data.encoding import EncodedSplit, pad_encoded
from repro.explain.attention import cls_attention
from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.models.pragformer import _Joint
from repro.nn import cross_entropy, softmax
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.dtype import use_dtype
from repro.nn.layers import Dropout, Linear, ResidualLayerNorm
from repro.nn.module import ParameterArena
from repro.nn.packing import PackedBatch
from repro.nn.transformer import TransformerEncoder
from repro.serve import EngineConfig, ModelRegistry, MultiModelEngine
from repro.tokenize import Vocab, robust_text_tokens
from repro.train.ddp import DDPConfig, reseed_stochastic

DIRTY_DIR = Path(__file__).parent / "data" / "dirty"
VOCAB = 300


def _batch(rng, b, length, all_real=False, lengths=None):
    ids = rng.integers(4, VOCAB, size=(b, length)).astype(np.int32)
    if lengths is None:
        lengths = (np.full(b, length) if all_real
                   else rng.integers(1, length + 1, b))
        lengths[0] = length  # trim_batch would cut an all-padding tail
    mask = (np.arange(length)[None, :] < np.asarray(lengths)[:, None])
    ids[~mask] = 0
    return ids, mask.astype(np.float32)


#: named edge batches: lengths per row (the first row is the longest)
EDGE_BATCHES = {
    "one_row": [37],
    "equal_lengths": [50] * 9,
    "cls_only_row": [64, 30, 1],
    "rows_of_110": [110, 110, 110, 96],
    "mixed_groups": [110, 104, 88, 61, 60, 33, 17, 16, 9, 5, 2, 1],
}


def _shapes(seed, n=24):
    """(B, L, all_real) draws over B 1-40, L 1-110, plus the edges."""
    rng = np.random.default_rng(seed)
    draws = [(int(rng.integers(1, 41)), int(rng.integers(1, 111)), False)
             for _ in range(n)]
    return draws + [(1, 1, True), (40, 1, True), (7, 110, True),
                    (40, 110, False), (1, 110, False), (13, 2, False)]


def _full_logits(model, ids, mask):
    """Logits of the padded forward with every block on every position."""
    return model.head.forward(model.encoder.forward(ids, mask))


def _full_and_pruned(model, ids, mask):
    """The padded ``eval`` forward's probabilities, and the packed
    forward's for the same rows."""
    model.encoder.eval()
    model.head.eval()
    full = softmax(_full_logits(model, ids, mask))
    rows = [row[:int(n)] for row, n in zip(ids, mask.sum(axis=1))]
    pruned = model.predict_rows(rows)
    return full, pruned


class TestOracle:
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6),
                                           (np.float64, 1e-12)],
                             ids=["float32", "float64"])
    def test_pruned_matches_full_sequence_forward(self, dtype, tol):
        with use_dtype(dtype):
            model = PragFormer(VOCAB, rng=3)
            rng = np.random.default_rng(17)
            spread = []
            for b, length, all_real in _shapes(seed=5):
                ids, mask = _batch(rng, b, length, all_real)
                full, pruned = _full_and_pruned(model, ids, mask)
                assert pruned.dtype == np.dtype(dtype)
                assert pruned.shape == (b, 2)
                np.testing.assert_allclose(pruned, full, rtol=0, atol=tol,
                                           err_msg=f"B={b} L={length}")
                assert (pruned.argmax(1) == full.argmax(1)).all()
                spread.append(full[:, 1])
        spread = np.concatenate(spread)
        assert spread.min() < 0.3 and spread.max() > 0.95

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6),
                                           (np.float64, 1e-12)],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("name", sorted(EDGE_BATCHES))
    def test_edge_batches_match_full_forward(self, name, dtype, tol):
        lengths = EDGE_BATCHES[name]
        with use_dtype(dtype):
            model = PragFormer(VOCAB, rng=3)
            ids, mask = _batch(np.random.default_rng(41), len(lengths),
                               lengths[0], lengths=lengths)
            full, pruned = _full_and_pruned(model, ids, mask)
        np.testing.assert_allclose(pruned, full, rtol=0, atol=tol)
        assert (pruned.argmax(1) == full.argmax(1)).all()
        groups = PackedBatch([row[:n] for row, n in zip(ids, lengths)]).groups
        if name == "mixed_groups":
            assert len(groups) > 2
        if name in ("one_row", "equal_lengths"):
            assert [g.key_mask for g in groups] == [None]

    def test_pruning_moves_less_than_batching(self):
        """Scoring a row inside a padded batch instead of alone already
        moves the full path's probabilities; the CLS-only block moves them
        by less."""
        model = PragFormer(VOCAB, rng=3)
        rng = np.random.default_rng(17)
        pruning = batching = 0.0
        for b, length, all_real in _shapes(seed=5):
            ids, mask = _batch(rng, b, length, all_real)
            full, pruned = _full_and_pruned(model, ids, mask)
            model.encoder.eval()
            model.head.eval()
            for i in range(b):
                n = int(mask[i].sum())
                alone = softmax(_full_logits(model, ids[i:i + 1, :n],
                                             mask[i:i + 1, :n]))
                batching = max(batching, float(np.abs(alone - full[i]).max()))
            pruning = max(pruning, float(np.abs(pruned - full).max()))
        assert 0 < pruning < batching

    def test_predict_proba_and_evaluate_match_full_forward(self):
        model = PragFormer(VOCAB, rng=4)
        rng = np.random.default_rng(23)
        ids, mask = _batch(rng, 90, 110)
        labels = rng.integers(0, 2, 90)
        split = EncodedSplit(ids=ids, mask=mask, labels=labels)
        got = model.predict_proba(split, batch_size=16)
        loss, acc = model.evaluate(split, batch_size=16)
        model.encoder.eval()
        model.head.eval()
        ref = np.empty_like(got)
        for i in range(90):
            n = int(mask[i].sum())
            ref[i] = softmax(_full_logits(model, ids[i:i + 1, :n],
                                          mask[i:i + 1, :n]))[0]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6)
        assert acc == float((ref.argmax(1) == labels).mean())
        ref_loss = -np.log(ref[np.arange(90), labels]).mean()
        assert loss == pytest.approx(ref_loss, abs=1e-5)


@pytest.fixture(scope="module")
def traffic():
    clean = [rec.code for rec in
             build_corpus(CorpusConfig(n_records=40, seed=11)).records]
    dirty = [path.read_bytes().decode("utf-8", errors="replace")
             for path in sorted(DIRTY_DIR.glob("*.c"))]
    assert len(dirty) == 52
    return clean + dirty + fuzz_corpus(clean, n=60, seed=9)


@pytest.fixture(scope="module")
def registry(traffic):
    """Three two-layer heads over one vocabulary.  Seeds 2-4 give a
    directive head that says yes to about 70% of the traffic and clause
    heads that recommend on most of those, so every verdict and clause
    branch is compared."""
    cfg = PragFormerConfig(d_model=32, n_heads=4, n_layers=2, d_ff=64,
                           d_head_hidden=32, max_len=110)
    vocab = Vocab.build([robust_text_tokens(code) for code in traffic])
    out = ModelRegistry()
    for k, name in enumerate(("directive", "private", "reduction"), start=2):
        model = PragFormer(len(vocab), replace(cfg, seed=k), rng=k)
        out.register(name, model, vocab, max_len=cfg.max_len)
    return out


class TestEngineOracle:
    def test_advise_v1_matches_full_sequence_forward(self, registry,
                                                     traffic, monkeypatch):
        with MultiModelEngine(registry) as engine:
            pruned = engine.advise_v1(traffic)
        # retain_attention runs the padded forward: the reference
        full_proba = PragFormer.predict_proba
        monkeypatch.setattr(
            PragFormer, "predict_rows",
            lambda self, rows, group_waste=None: full_proba(
                self, pad_encoded(rows, 0), len(rows), retain_attention=True))
        with MultiModelEngine(registry) as engine:
            full = engine.advise_v1(traffic)
        assert {r.verdict for r in full} == {True, False}
        assert any(r.recovered for r in full)
        assert any(r.recommended_clauses() for r in full)
        for code, p, f in zip(traffic, pruned, full):
            assert (p.verdict, p.degraded, p.recovered) == \
                (f.verdict, f.degraded, f.recovered), code[:60]
            assert abs(p.probability - f.probability) <= 1e-6, code[:60]
            assert p.clauses.keys() == f.clauses.keys(), code[:60]
            for name, clause in f.clauses.items():
                got = p.clauses[name]
                assert got.suggested == clause.suggested, code[:60]
                assert abs(got.probability - clause.probability) <= 1e-6, \
                    code[:60]
            assert p.recommended_clauses() == f.recommended_clauses()


def _training_grads(model, ids, mask, labels, cls_only, key=(7, 1)):
    """(loss, per-parameter gradients, per-dropout applied masks) of one
    training step with dropout streams seeded from ``key``; ``cls_only``
    False runs the full last block, the reference."""
    model.encoder.train()
    model.head.train()
    reseed_stochastic((model.encoder, model.head), key)
    params = dict(_Joint(model.encoder, model.head).named_parameters())
    for p in params.values():
        p.zero_grad()
    hidden = model.encoder.forward(ids, mask, cls_only=cls_only)
    loss, dlogits = cross_entropy(model.head.forward(hidden), labels)
    model._backward(dlogits)
    masks = [None if m._mask is None else m._mask.copy()
             for m in _dropouts(model)]
    return loss, {n: p.grad.copy() for n, p in params.items()}, masks


def _dropouts(model):
    return [m for root in (model.encoder, model.head)
            for m in root.modules() if isinstance(m, Dropout)]


class TestCLSOnlyTraining:
    """The training forward (``_forward_logits``) computes the last block
    for the CLS rows alone; its dropouts draw for the CLS rows alone, and
    its loss and gradients are the full block's, without dropout or with
    the full block applying the same masks to its CLS rows."""

    def _step_inputs(self, seed=3, b=9, length=40):
        rng = np.random.default_rng(seed)
        ids, mask = _batch(rng, b, length)
        return ids, mask, rng.integers(0, 2, b)

    def test_gradients_match_the_full_last_block(self):
        with use_dtype(np.float64):
            model = PragFormer(VOCAB, PragFormerConfig(dropout=0.0), rng=5)
            ids, mask, labels = self._step_inputs()
            ref_loss, ref, _ = _training_grads(model, ids, mask, labels,
                                               cls_only=False)
            loss, got, _ = _training_grads(model, ids, mask, labels,
                                           cls_only=True)
        assert loss == pytest.approx(ref_loss, rel=1e-14)
        assert got.keys() == ref.keys()
        for name in ref:
            assert np.abs(ref[name]).max() > 0, name
            np.testing.assert_allclose(got[name], ref[name], rtol=0,
                                       atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_dropout_masks_cover_the_applied_rows_alone(self, dtype):
        """The last block's four dropouts draw masks of the shapes they
        apply, (B, H, 1, L), (B, 1, D), (B, 1, d_ff) and (B, 1, D), and the
        shared generator advances by ``Σ ceil(size / 4)`` words over every
        dropout of the step.  Every dropout before the last block draws
        the full forward's mask."""
        cfg = PragFormerConfig(dropout=0.3)
        key = (7, 1)
        with use_dtype(dtype):
            model = PragFormer(VOCAB, cfg, rng=5)
            ids, mask, labels = self._step_inputs()
            _, _, full = _training_grads(model, ids, mask, labels,
                                         cls_only=False, key=key)
            _, _, pruned = _training_grads(model, ids, mask, labels,
                                           cls_only=True, key=key)
        b, l = ids.shape
        last = model.encoder.layers[-1]
        applied = {id(last.attn.attn_dropout): (b, cfg.n_heads, 1, l),
                   id(last.drop1): (b, 1, cfg.d_model),
                   id(last.ffn.drop): (b, 1, cfg.d_ff),
                   id(last.drop2): (b, 1, cfg.d_model)}
        dropouts = _dropouts(model)
        for module, f, p in zip(dropouts, full, pruned):
            assert p.dtype == dtype
            assert (p == 0).any() and (p != 0).any()
            if id(module) in applied:
                assert p.shape == applied[id(module)]
            elif module is not model.head.drop:  # drawn after the last block
                np.testing.assert_array_equal(p, f)
        rng = dropouts[0].rng
        assert all(m.rng is rng for m in dropouts)
        expected = np.random.default_rng([*key, 1])
        expected.bit_generator.advance(
            sum(ceil(p.size / 4) for p in pruned))
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_dropout_step_matches_the_full_block_replaying_its_masks(
            self, dtype, monkeypatch):
        """At dropout 0.3 the CLS-only step's loss and gradients are those
        of the full last block whose dropouts apply the CLS-only step's
        masks: each recorded mask is written over the CLS query row
        (attention) or the CLS position (``drop1``, the FFN's, ``drop2``)
        of the full block's own draw, and every other dropout replays its
        recorded mask whole.  A mask the CLS path draws but does not apply
        (or applies to the wrong rows) breaks the agreement."""
        with use_dtype(dtype):
            model = PragFormer(VOCAB, PragFormerConfig(dropout=0.3), rng=5)
            ids, mask, labels = self._step_inputs()
            loss, got, pruned = _training_grads(model, ids, mask, labels,
                                                cls_only=True)
            last = model.encoder.layers[-1]
            cls_axis = {id(last.attn.attn_dropout): 2, id(last.drop1): 1,
                        id(last.ffn.drop): 1, id(last.drop2): 1}
            for module, recorded in zip(_dropouts(model), pruned):
                axis = cls_axis.get(id(module))
                index = (Ellipsis if axis is None
                         else (slice(None),) * axis + (slice(0, 1),))

                def replay(x, module=module, recorded=recorded, index=index,
                           draw=module.forward):
                    out = draw(x)
                    module._mask[index] = recorded
                    return np.multiply(x, module._mask, out=out)

                monkeypatch.setattr(module, "forward", replay)
            ref_loss, ref, _ = _training_grads(model, ids, mask, labels,
                                               cls_only=False)
        tol = 2e-6 if dtype == np.float32 else 1e-13
        assert loss == pytest.approx(ref_loss, rel=tol)
        assert got.keys() == ref.keys()
        for name in ref:
            scale = np.abs(ref[name]).max()
            assert scale > 0, name
            np.testing.assert_allclose(got[name], ref[name], rtol=0,
                                       atol=50 * tol * scale, err_msg=name)


class TestPruningInEffect:
    B, L = 12, 96

    def _split(self):
        ids, mask = _batch(np.random.default_rng(2), self.B, self.L,
                           all_real=True)
        return EncodedSplit(ids=ids, mask=mask,
                            labels=np.zeros(self.B, np.int64))

    def test_last_block_allocates_no_square_scores(self):
        model = PragFormer(VOCAB, rng=0)
        model.predict_proba(self._split())
        cfg = model.config
        itemsize = model.encoder.tok_emb.W.data.itemsize
        square = self.B * cfg.n_heads * self.L * self.L * itemsize
        full_rows = self.B * self.L * cfg.d_model * itemsize
        *body, last = model.encoder.layers
        assert all(layer.attn._pool.nbytes() >= square for layer in body)
        assert last.attn._pool.nbytes() < square
        assert last.ln2._pool.nbytes() < full_rows

    def test_last_block_projects_queries_for_kept_rows_only(self,
                                                              monkeypatch):
        """Every matmul against the query third of the last block's
        ``qkv_proj.W`` has B rows (one CLS row per snippet), never B*L;
        keys and values still cover all B*L positions."""
        model = PragFormer(VOCAB, rng=0)
        d = model.config.d_model
        W = model.encoder.layers[-1].attn.qkv_proj.W
        base = W.data.__array_interface__["data"][0]
        calls = []  # (rows of x, first and last W column + 1)

        class MatmulSpy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                w = inputs[-1]
                if ufunc is np.matmul and isinstance(w, MatmulSpy):
                    first = (w.__array_interface__["data"][0] - base) \
                        // w.itemsize
                    calls.append((inputs[0].shape[0], first,
                                  first + w.shape[1]))
                inputs = [a.view(np.ndarray) if isinstance(a, MatmulSpy)
                          else a for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        monkeypatch.setattr(W, "data", W.data.view(MatmulSpy))
        model.predict_proba(self._split())
        query_rows = [rows for rows, first, _ in calls if first < d]
        kv_rows = [rows for rows, first, last in calls
                   if first >= d and last == 3 * d]
        assert sum(query_rows) == self.B
        assert all(rows < self.B * self.L for rows in query_rows)
        assert sum(kv_rows) == self.B * self.L

    def test_retain_attention_keeps_full_maps_in_every_layer(self):
        model = PragFormer(VOCAB, rng=0)
        split = self._split()
        retained = model.predict_proba(split, retain_attention=True)
        maps = model.encoder.attention_maps()
        assert len(maps) == model.config.n_layers
        for attn in maps:
            assert attn.shape == (self.B, model.config.n_heads, self.L,
                                  self.L)
        np.testing.assert_allclose(model.predict_proba(split), retained,
                                   rtol=0, atol=1e-6)

    def test_cls_attention_reads_a_full_forward(self):
        model = PragFormer(VOCAB, rng=0)
        vocab = Vocab.build([robust_text_tokens(
            "for (i = 0; i < n; i++) s += a[i] * b[i];")])
        code = "for (i = 0; i < n; i++) { s += a[i] * b[i]; }"
        got = cls_attention(model, vocab, code)
        ids = vocab.encode(robust_text_tokens(code), max_len=110)[None, :]
        model.encoder.eval()
        model.encoder.forward(ids, np.ones(ids.shape, np.float32))
        cls_row = model.encoder.attention_maps()[-1][0, :, 0, :].mean(axis=0)
        assert [w for _, w in got] == [float(w) for w in cls_row[1:]]

    def test_fit_trains_the_last_block_on_cls_rows(self, monkeypatch):
        """``fit`` never runs the packed forward; every micro-shard
        forward runs the earlier blocks on all B·L positions and the last
        block's FFN on the B CLS rows, while its K/V projection still
        covers B·L."""
        cfg = PragFormerConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32,
                               d_head_hidden=16, batch_size=8)
        model = PragFormer(VOCAB, cfg, rng=0)
        first, last = model.encoder.layers[0], model.encoder.layers[-1]
        d = cfg.d_model
        names = {id(first.attn.out_proj): "first.out_proj",
                 id(first.ffn.fc1): "first.fc1",
                 id(last.attn.out_proj): "last.out_proj",
                 id(last.ffn.fc1): "last.fc1"}
        steps = []  # per shard forward: {"batch": (B, L), name: rows}
        state = {"training": False}
        packed_training = []

        encoder_forward = TransformerEncoder.forward

        def encoder_spy(self, ids, mask=None, cls_only=False):
            state["training"] = not self.inference
            if state["training"]:
                steps.append({"batch": ids.shape})
            return encoder_forward(self, ids, mask, cls_only)

        for owner in (TransformerEncoder, MultiHeadSelfAttention):
            def packed_spy(self, *args, _forward=owner.forward_packed):
                state["training"] = False
                packed_training.append(not self.inference)
                return _forward(self, *args)
            monkeypatch.setattr(owner, "forward_packed", packed_spy)
        monkeypatch.setattr(TransformerEncoder, "forward", encoder_spy)

        linear_forward = Linear.forward

        def linear_spy(self, x):
            if state["training"] and id(self) in names:
                steps[-1][names[id(self)]] = x.size // x.shape[-1]
            return linear_forward(self, x)

        monkeypatch.setattr(Linear, "forward", linear_spy)
        W = last.attn.qkv_proj.W
        rng = np.random.default_rng(0)
        ids, mask = _batch(rng, 24, 20)
        spied = {}  # "base": address of the spied W's first element

        class MatmulSpy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                w = inputs[-1]
                # forward projections only: the backward multiplies by W.T
                if (state["training"] and ufunc is np.matmul
                        and isinstance(w, MatmulSpy)
                        and w.strides[-1] == w.itemsize):
                    first_col = (w.__array_interface__["data"][0]
                                 - spied["base"]) // w.itemsize
                    key = "last.q" if first_col < d else "last.kv"
                    steps[-1][key] = steps[-1].get(key, 0) \
                        + inputs[0].shape[0]
                inputs = [a.view(np.ndarray) if isinstance(a, MatmulSpy)
                          else a for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        arena_rebind = ParameterArena.rebind

        def rebind_spy(self, *args, **kwargs):
            # fit's trainer moves the arena onto its shared segment: spy
            # on the W view the shard forwards read
            arena_rebind(self, *args, **kwargs)
            W.data = W.data.view(MatmulSpy)
            spied["base"] = W.data.__array_interface__["data"][0]

        monkeypatch.setattr(ParameterArena, "rebind", rebind_spy)
        split = EncodedSplit(ids=ids, mask=mask,
                             labels=rng.integers(0, 2, 24))
        model.fit(split, split, epochs=2)
        # 2 epochs of 3 batches, each 8 rows over the micro-shard grid
        assert len(steps) == 2 * 3 * DDPConfig().grad_shards
        for step in steps:
            b, length = step.pop("batch")
            assert b == cfg.batch_size // DDPConfig().grad_shards
            assert step == {"first.out_proj": b * length,
                            "first.fc1": b * length,
                            "last.kv": b * length, "last.q": b,
                            "last.out_proj": b, "last.fc1": b}
        assert packed_training and not any(packed_training)

    def test_packed_forward_outside_inference_mode_raises(self):
        encoder = TransformerEncoder(PragFormer(VOCAB).encoder.cfg, rng=0)
        batch = PackedBatch([np.arange(2, 7, dtype=np.int32),
                             np.arange(2, 5, dtype=np.int32)])
        with pytest.raises(ValueError, match="inference_mode"):
            encoder.forward_packed(batch)
        encoder.inference_mode()
        assert encoder.forward_packed(batch).shape == (2, encoder.cfg.d_model)

    def test_position_wise_work_sees_only_real_rows(self, monkeypatch):
        """Every GEMM, LayerNorm and FFN outside attention runs on the
        Σlen real token rows (the last block: on the B CLS rows), never
        on B·L padded cells."""
        model = PragFormer(VOCAB, rng=0)
        lengths = EDGE_BATCHES["mixed_groups"]
        ids, mask = _batch(np.random.default_rng(5), len(lengths),
                           lengths[0], lengths=lengths)
        real, b = sum(lengths), len(lengths)
        names = {id(m): name for name, m in (
            [(f"{i}.out_proj", layer.attn.out_proj)
             for i, layer in enumerate(model.encoder.layers)]
            + [(f"{i}.fc{k}", getattr(layer.ffn, f"fc{k}"))
               for i, layer in enumerate(model.encoder.layers)
               for k in (1, 2)]
            + [(f"{i}.ln{k}", getattr(layer, f"ln{k}"))
               for i, layer in enumerate(model.encoder.layers)
               for k in (1, 2)])}
        rows = {}
        for cls in (Linear, ResidualLayerNorm):
            def spy(self, x, *args, _forward=cls.forward):
                if id(self) in names:
                    rows[names[id(self)]] = x.shape[0]
                return _forward(self, x, *args)
            monkeypatch.setattr(cls, "forward", spy)
        qkv_rows = []
        matmul = np.matmul
        W0 = model.encoder.layers[0].attn.qkv_proj.W.data

        def matmul_spy(a, w, *args, **kwargs):
            if w is W0:
                qkv_rows.append(a.shape[0])
            return matmul(a, w, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", matmul_spy)
        model.predict_proba(EncodedSplit(ids, mask, np.zeros(b, np.int64)))
        *body, _ = range(model.config.n_layers)
        want = {f"{i}.{name}": real for i in body
                for name in ("out_proj", "fc1", "fc2", "ln1", "ln2")}
        last = model.config.n_layers - 1
        want.update({f"{last}.{name}": b for name in
                     ("out_proj", "fc1", "fc2", "ln1", "ln2")})
        assert rows == want
        assert qkv_rows == [real]
        assert real < 0.6 * b * lengths[0]

    def test_engine_runs_one_forward_per_head_per_sub_batch(
            self, registry, traffic, monkeypatch):
        calls = []
        forward_packed = TransformerEncoder.forward_packed

        def spy(self, batch):
            calls.append((id(self), len(batch)))
            return forward_packed(self, batch)

        monkeypatch.setattr(TransformerEncoder, "forward_packed", spy)
        codes = traffic[:100]
        config = EngineConfig(max_batch_size=32, cache_capacity=0)
        with MultiModelEngine(registry, config=config) as engine:
            engine.advise_v1(codes)
        heads = {id(registry.get(name).model.encoder)
                 for name in registry.names()}
        assert {enc for enc, _ in calls} == heads
        for head in heads:
            sizes = [n for enc, n in calls if enc == head]
            assert sizes[:-1] == [32] * (len(sizes) - 1)
            assert 0 < sizes[-1] <= 32 and sum(sizes) > 90
