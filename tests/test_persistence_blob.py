"""The one-copy weight blob: save_advisor's contiguous arena + manifest.

``save_advisor`` writes, next to the per-head ``.npz`` checkpoints, one
``weights.bin`` blob holding every head's parameter arena back-to-back
plus a manifest entry (dtype, per-head offsets, blake2b digest).  The
contract under test:

* round trip — ``load_advisor(share=True)`` maps the blob into a named
  shared segment and the bound heads are bit-identical to the default
  (private blob) load;
* validation — every load mode refuses a missing, truncated or corrupt
  blob with a clean ``ValueError``, never silently-wrong weights;
* pre-blob checkpoints — refused with a message naming
  ``repro checkpoint upgrade``, which rebuilds them bit-identically.
"""

import glob
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro import cli
from repro.models import PragFormer
from repro.models.persistence import (
    WEIGHTS_NAME_PREFIX,
    _named_head_params,
    load_advisor,
    save_advisor,
    share_weights,
)
from repro.models.pragformer import PragFormerConfig
from repro.tokenize import Vocab, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
]

HEAD_NAMES = ("directive", "private", "reduction")


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)


def _heads(vocab, seed0=0):
    return {name: (PragFormer(len(vocab), replace(TINY, seed=seed0 + k),
                              rng=seed0 + k), vocab, TINY.max_len)
            for k, name in enumerate(HEAD_NAMES)}


@pytest.fixture()
def checkpoint(vocab, tmp_path):
    path = tmp_path / "ckpt"
    save_advisor(_heads(vocab), path)
    return path


def _flat_params(model):
    return np.concatenate([np.asarray(p.data).ravel()
                           for _name, p in _named_head_params(model)])


class TestBlobRoundTrip:
    def test_manifest_carries_weights_section(self, checkpoint):
        manifest = json.loads((checkpoint / "advisor.json").read_text())
        weights = manifest["weights"]
        assert weights["file"] == "weights.bin"
        assert set(weights["heads"]) == set(HEAD_NAMES)
        blob = checkpoint / "weights.bin"
        assert blob.exists()
        total = sum(h["words"] for h in weights["heads"].values())
        assert total == weights["total_words"]
        assert blob.stat().st_size == total * np.dtype(weights["dtype"]).itemsize

    def test_share_true_is_bit_identical_to_eager(self, checkpoint):
        eager = load_advisor(checkpoint)
        loaded, shared = load_advisor(checkpoint, share=True)
        assert shared is not None
        try:
            assert set(loaded) == set(eager)
            for name in eager:
                a = _flat_params(eager[name][0])
                b = _flat_params(loaded[name][0])
                assert np.array_equal(a, b), name
        finally:
            shared.close()
            shared.unlink()

    def test_shared_params_are_views_on_one_segment(self, checkpoint):
        loaded, shared = load_advisor(checkpoint, share=True)
        try:
            base = shared.head_view(HEAD_NAMES[0])
            model = loaded[HEAD_NAMES[0]][0]
            first = next(_named_head_params(model))[1]
            # binding re-points .data at the segment: mutating the view
            # must show through the parameter (proof there is no copy)
            probe = np.asarray(first.data).ravel()[0]
            base[0] = probe + 1.0
            assert np.asarray(first.data).ravel()[0] == probe + 1.0
        finally:
            shared.close()
            shared.unlink()

    def test_segment_attach_by_name(self, checkpoint):
        _, shared = load_advisor(checkpoint, share=True)
        try:
            assert shared.name.startswith(WEIGHTS_NAME_PREFIX)
            attached, handle = load_advisor(checkpoint, segment=shared.name)
            try:
                eager = load_advisor(checkpoint)
                for name in eager:
                    assert np.array_equal(_flat_params(eager[name][0]),
                                          _flat_params(attached[name][0]))
            finally:
                handle.close()
        finally:
            shared.close()
            shared.unlink()

    def test_share_weights_maps_without_models(self, checkpoint):
        shared = share_weights(checkpoint)
        assert shared is not None
        try:
            shared.validate()
            assert shared.nbytes > 0
        finally:
            shared.close()
            shared.unlink()


def _truncate(blob):
    blob.write_bytes(blob.read_bytes()[:blob.stat().st_size // 2])


def _flip_byte(blob):
    raw = bytearray(blob.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    blob.write_bytes(bytes(raw))


def _load(checkpoint, mode, segment=None):
    """``load_advisor`` in ``mode`` (``segment`` attaches ``segment``)."""
    if mode == "default":
        return load_advisor(checkpoint)
    if mode == "share":
        return load_advisor(checkpoint, share=True)
    return load_advisor(checkpoint, segment=segment)


MODES = ("default", "share", "segment")


def _segments():
    return set(glob.glob(f"/dev/shm/{WEIGHTS_NAME_PREFIX}-*"))


class TestBlobValidation:
    def test_corrupt_blob_raises(self, checkpoint):
        _flip_byte(checkpoint / "weights.bin")
        with pytest.raises(ValueError, match="digest"):
            load_advisor(checkpoint, share=True)

    def test_truncated_blob_raises(self, checkpoint):
        _truncate(checkpoint / "weights.bin")
        with pytest.raises(ValueError):
            load_advisor(checkpoint, share=True)

    def test_missing_blob_raises(self, checkpoint):
        (checkpoint / "weights.bin").unlink()
        with pytest.raises(ValueError):
            load_advisor(checkpoint, share=True)

    @pytest.mark.parametrize("damage", [_truncate, _flip_byte],
                             ids=["truncated", "flipped-byte"])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_refuses_damaged_blob(self, checkpoint, mode, damage):
        """No load mode may bind weights the manifest digest does not
        vouch for.  The segment mode sees the damage in the segment, so
        the test damages the published bytes there too."""
        publisher = share_weights(checkpoint) if mode == "segment" else None
        try:
            damage(checkpoint / "weights.bin")
            if publisher is not None:
                damaged = (checkpoint / "weights.bin").read_bytes()
                publisher._shm.buf[:publisher.nbytes] = damaged.ljust(
                    publisher.nbytes, b"\0")
            before = _segments()
            with pytest.raises(ValueError):
                _load(checkpoint, mode, publisher and publisher.name)
            assert _segments() <= before  # a refused load leaks nothing
        finally:
            if publisher is not None:
                publisher.close()
                publisher.unlink()


def _make_pre_blob(checkpoint):
    """Turn ``checkpoint`` into one written before the blob existed: no
    weights.bin, no manifest section."""
    (checkpoint / "weights.bin").unlink()
    manifest_path = checkpoint / "advisor.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.pop("weights")
    manifest_path.write_text(json.dumps(manifest))
    return checkpoint


class TestPreBlobUpgrade:
    @pytest.mark.parametrize("mode", MODES)
    def test_pre_blob_checkpoint_is_refused(self, checkpoint, mode):
        _make_pre_blob(checkpoint)
        with pytest.raises(ValueError, match="repro checkpoint upgrade"):
            _load(checkpoint, mode, segment="repro-weights-nope")
        with pytest.raises(ValueError, match="repro checkpoint upgrade"):
            share_weights(checkpoint)

    def test_cli_upgrade_restores_identical_weights(self, checkpoint,
                                                    capsys):
        original = load_advisor(checkpoint)
        _make_pre_blob(checkpoint)
        assert cli.main(["checkpoint", "upgrade", str(checkpoint)]) == 0
        assert "upgraded" in capsys.readouterr().out
        upgraded = load_advisor(checkpoint)
        assert list(upgraded) == list(original)
        for name, (model, vocab, max_len) in original.items():
            got_model, got_vocab, got_max_len = upgraded[name]
            assert _flat_params(got_model).tobytes() == \
                _flat_params(model).tobytes(), name
            assert got_vocab._itos == vocab._itos
            assert got_max_len == max_len

    def test_upgrade_leaves_current_checkpoint_untouched(self, checkpoint,
                                                         tmp_path, capsys):
        pristine = tmp_path / "pristine"
        shutil.copytree(checkpoint, pristine)
        assert cli.main(["checkpoint", "upgrade", str(checkpoint)]) == 0
        assert "already" in capsys.readouterr().out
        files = sorted(p.name for p in pristine.iterdir())
        assert sorted(p.name for p in checkpoint.iterdir()) == files
        for name in files:
            assert (checkpoint / name).read_bytes() == \
                (pristine / name).read_bytes(), name
