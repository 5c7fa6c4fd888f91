"""Whole-model persistence: PragFormer weights + vocabulary in one bundle.

``PragFormer.encoder.save`` alone is not enough to redeploy a classifier —
predictions depend on the exact token->id mapping.  ``save_pragformer``
writes a single ``.npz`` containing encoder weights, head weights, the
vocabulary, and the config, and ``load_pragformer`` reconstructs a
ready-to-predict model.

Checkpoints written before the fused-QKV attention refactor store separate
``q_proj``/``k_proj``/``v_proj`` projection matrices; ``load_state_dict``
fuses them on load (see ``MultiHeadSelfAttention._upgrade_state``), so both
layouts remain loadable under format version 1.

The serving stack deploys *several* models at once (the directive head plus
the ``private``/``reduction`` clause heads — see
:mod:`repro.serve.registry`); :func:`save_advisor` / :func:`load_advisor`
bundle any named set of (model, vocab) pairs into one checkpoint directory
with an ``advisor.json`` manifest, one ``.npz`` per head.

Advisor checkpoints additionally carry every head's parameters as one
contiguous ``weights.bin`` blob (dtype/offset/digest recorded in the
manifest) so a shard fleet can map **one read-only copy** of the weights:
:func:`share_weights` publishes the blob into a named
``multiprocessing.shared_memory`` segment and
``load_advisor(..., segment=...)`` rebinds freshly constructed models onto
that segment's views instead of re-deserializing the ``.npz`` arrays —
see ``docs/architecture.md`` (memory topology) for who maps what.
Checkpoint directories written before the blob existed stay loadable;
they simply fall back to eager per-process loading.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import asdict
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.models.pragformer import PragFormer, PragFormerConfig
from repro.nn.module import Parameter
from repro.tokenize.vocab import Vocab

__all__ = ["save_pragformer", "load_pragformer", "save_advisor",
           "load_advisor", "validate_head_name", "SharedWeights",
           "share_weights", "WEIGHTS_NAME_PREFIX"]

_FORMAT_VERSION = 1
_ADVISOR_MANIFEST = "advisor.json"
_ADVISOR_FORMAT_VERSION = 1
_WEIGHTS_BLOB = "weights.bin"

#: ``/dev/shm`` name prefix for shared weight segments — audited for leaks
#: by ``tests/conftest.py`` alongside the DDP prefix.
WEIGHTS_NAME_PREFIX = "repro-weights"

_segment_ids = itertools.count()


def _segment_name() -> str:
    """A per-process-unique ``/dev/shm`` name under the weights prefix."""
    return f"{WEIGHTS_NAME_PREFIX}-{os.getpid()}-{next(_segment_ids)}"


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without re-registering it.

    ``SharedMemory.__init__`` registers every attach with the resource
    tracker (until 3.13's ``track=False``), which makes the *attaching*
    process unlink the segment at exit and spam leak warnings.  The
    process that created the segment owns its lifetime; attachers must
    unregister.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # noqa: BLE001 — tracker absent on some platforms
        pass
    return shm


def validate_head_name(name: str) -> str:
    """Reject advisor head names that are not filesystem-safe.

    The single rule shared by :func:`save_advisor` (which turns names into
    ``<name>.npz`` files) and ``ModelRegistry.register`` (so any serving
    registry can always be checkpointed).  Returns ``name`` unchanged.
    """
    if (not name or name != name.strip()
            or any(seq in name for seq in ("/", "\\", ".."))):
        raise ValueError(f"head name {name!r} is not filesystem-safe")
    return name


def save_pragformer(model: PragFormer, vocab: Vocab, path: str) -> None:
    """Bundle model weights, vocabulary, and config into ``path`` (.npz)."""
    arrays = {}
    for name, param in model.encoder.named_parameters():
        arrays[f"encoder/{name}"] = param.data
    for name, param in model.head.named_parameters():
        arrays[f"head/{name}"] = param.data
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "vocab": vocab._itos,
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    np.savez(path, **arrays)


def load_pragformer(path: str) -> Tuple[PragFormer, Vocab]:
    """Reconstruct a (model, vocab) pair saved by :func:`save_pragformer`."""
    path = str(path)
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version in {path}")
        config = PragFormerConfig(**meta["config"])
        itos = meta["vocab"]
        vocab = Vocab(itos[4:])  # specials are re-prepended by Vocab
        model = PragFormer(len(vocab), config)
        encoder_state = {}
        head_state = {}
        for key in archive.files:
            if key.startswith("encoder/"):
                encoder_state[key[len("encoder/"):]] = archive[key]
            elif key.startswith("head/"):
                head_state[key[len("head/"):]] = archive[key]
        model.encoder.load_state_dict(encoder_state)
        model.head.load_state_dict(head_state)
    if vocab._itos != itos:
        raise ValueError("vocabulary reconstruction mismatch")
    return model, vocab


def _named_head_params(model: PragFormer) -> Iterator[Tuple[str, Parameter]]:
    """A head's parameters in checkpoint key order (encoder, then head).

    The single ordering contract shared by :func:`save_pragformer` (npz
    key names), the ``weights.bin`` blob layout, and :func:`_bind_head` —
    all three walk parameters in exactly this sequence, so blob offsets
    need no per-parameter bookkeeping.
    """
    for name, param in model.encoder.named_parameters():
        yield f"encoder/{name}", param
    for name, param in model.head.named_parameters():
        yield f"head/{name}", param


def _load_pragformer_shell(path: str) -> Tuple[PragFormer, Vocab]:
    """Construct a (model, vocab) pair from a checkpoint's metadata only.

    Reads just the ``__meta__`` array (config + vocabulary) and leaves the
    model's parameters at their random initial values — the caller is
    about to :func:`_bind_head` them onto a shared segment, so touching
    the heavyweight weight arrays in the ``.npz`` would be pure waste.
    """
    with np.load(str(path)) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version in {path}")
    config = PragFormerConfig(**meta["config"])
    itos = meta["vocab"]
    vocab = Vocab(itos[4:])  # specials are re-prepended by Vocab
    model = PragFormer(len(vocab), config)
    if vocab._itos != itos:
        raise ValueError("vocabulary reconstruction mismatch")
    return model, vocab


def _bind_head(model: PragFormer, view: np.ndarray) -> None:
    """Adopt ``view``'s contents as ``model``'s parameters, zero-copy.

    ``view`` is the head's flat slice of a weights blob (typically a
    window onto a shared segment).  Each parameter's ``data`` becomes a
    reshaped sub-view, in :func:`_named_head_params` order — the lean
    serving-side sibling of ``ParameterArena.rebind(copy=False)``, which
    skips allocating the arena's private grad/decay buffers a read-only
    worker would never touch.
    """
    offset = 0
    for name, param in _named_head_params(model):
        words = param.data.size
        if offset + words > view.size:
            raise ValueError(
                f"weights blob too small binding {name}: need "
                f"{offset + words} words, have {view.size}")
        param.data = view[offset:offset + words].reshape(param.data.shape)
        offset += words
    if offset != view.size:
        raise ValueError(
            f"weights blob size mismatch: model has {offset} words, "
            f"blob slice has {view.size}")


def save_advisor(heads: Mapping[str, tuple], dirpath) -> Path:
    """Bundle named heads into an advisor checkpoint directory.

    ``heads`` maps head name to ``(model, vocab)`` or
    ``(model, vocab, max_len)`` — the serving ``max_len`` may differ from
    the model's own ``config.max_len`` and must survive the round trip.
    Writes one ``<name>.npz`` per head (via :func:`save_pragformer`), a
    contiguous ``weights.bin`` blob holding every head's parameters back
    to back (in :func:`_named_head_params` order, offsets/digest recorded
    in the manifest — what :func:`share_weights` maps into shared
    memory), and finally the ``advisor.json`` manifest recording the
    head -> (file, max_len) mapping; the manifest is written last so a
    crash mid-save never leaves a directory that parses as complete.
    Returns the directory path.  Head names must be filesystem-safe (no
    separators).
    """
    directory = Path(dirpath)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, object] = {
        "format_version": _ADVISOR_FORMAT_VERSION, "heads": {}}
    blob_parts = []
    blob_heads: Dict[str, Dict[str, int]] = {}
    dtype: Optional[np.dtype] = None
    offset = 0
    for name, head in heads.items():
        validate_head_name(name)
        model, vocab = head[0], head[1]
        max_len = head[2] if len(head) > 2 else model.config.max_len
        filename = f"{name}.npz"
        save_pragformer(model, vocab, str(directory / filename))
        manifest["heads"][name] = {"file": filename, "max_len": int(max_len)}
        flats = [np.ascontiguousarray(p.data).ravel()
                 for _pname, p in _named_head_params(model)]
        for flat in flats:
            if dtype is None:
                dtype = flat.dtype
            elif flat.dtype != dtype:
                raise TypeError(
                    f"head {name!r} mixes dtypes {flat.dtype} and {dtype}; "
                    "the weights blob requires one uniform dtype")
        words = int(sum(flat.size for flat in flats))
        blob_parts.extend(flats)
        blob_heads[name] = {"offset": offset, "words": words}
        offset += words
    blob = (np.concatenate(blob_parts) if blob_parts
            else np.empty(0, dtype=dtype or np.dtype("float32")))
    blob_bytes = blob.tobytes()
    (directory / _WEIGHTS_BLOB).write_bytes(blob_bytes)
    manifest["weights"] = {
        "file": _WEIGHTS_BLOB,
        "dtype": str(blob.dtype),
        "total_words": offset,
        "digest": hashlib.blake2b(blob_bytes).hexdigest(),
        "heads": blob_heads,
    }
    (directory / _ADVISOR_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return directory


def _read_manifest(directory: Path) -> Dict:
    """Load + version-check ``advisor.json`` for ``directory``."""
    manifest_path = directory / _ADVISOR_MANIFEST
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {_ADVISOR_MANIFEST} in {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != _ADVISOR_FORMAT_VERSION:
        raise ValueError(
            f"unsupported advisor checkpoint version in {directory}")
    return manifest


def _read_blob(directory: Path, weights_meta: Dict) -> bytes:
    """Read + integrity-check a checkpoint's ``weights.bin`` blob.

    Raises ``ValueError`` (never a crash further in) when the blob is
    missing, truncated, padded, or fails its manifest digest — a corrupt
    rollout must surface as a clean refusal the caller can fall back
    from.
    """
    blob_path = directory / weights_meta["file"]
    if not blob_path.is_file():
        raise ValueError(f"advisor weights blob missing: {blob_path}")
    raw = blob_path.read_bytes()
    itemsize = np.dtype(weights_meta["dtype"]).itemsize
    expected = int(weights_meta["total_words"]) * itemsize
    if len(raw) != expected:
        raise ValueError(
            f"advisor weights blob {blob_path} is {len(raw)} bytes, "
            f"manifest says {expected} (truncated or corrupt)")
    digest = hashlib.blake2b(raw).hexdigest()
    if digest != weights_meta["digest"]:
        raise ValueError(
            f"advisor weights blob {blob_path} failed digest validation")
    return raw


def load_advisor(dirpath, share: bool = False, segment: Optional[str] = None):
    """Reload every head of an advisor checkpoint written by
    :func:`save_advisor`.

    Three modes:

    - **default** (``share=False``) — eager per-process load, returns
      ``{name: (model, vocab, max_len)}`` exactly as before.
    - ``share=True`` — eager load, then publish the checkpoint's
      ``weights.bin`` blob into a fresh named shared segment and rebind
      every model onto it; returns ``(heads, SharedWeights)``.  The
      caller owns the segment (must eventually ``unlink``).  A legacy
      checkpoint without a blob returns ``(heads, None)`` — served
      exactly as before, just not shared.
    - ``segment="repro-weights-..."`` — attach an *existing* segment
      (published by :func:`share_weights` in the router) and bind models
      constructed from checkpoint metadata only onto its views; no
      weight array is ever deserialized in this process.  Returns
      ``(heads, SharedWeights)``; the handle is attach-only (``unlink``
      stays with the segment's creator).

    Blob integrity (size + blake2b digest) is validated in the sharing
    modes; corruption raises ``ValueError`` rather than crashing.
    """
    if share and segment is not None:
        raise ValueError("load_advisor: share=True and segment= are "
                         "mutually exclusive")
    directory = Path(dirpath)
    manifest = _read_manifest(directory)
    weights_meta = manifest.get("weights")

    if segment is not None:
        if weights_meta is None:
            raise ValueError(
                f"checkpoint {directory} has no weights blob manifest; "
                "cannot bind onto a shared segment")
        shared = SharedWeights.attach(segment, weights_meta)
        try:
            shared.validate()
            heads: Dict[str, Tuple[PragFormer, Vocab, int]] = {}
            for name, entry in manifest["heads"].items():
                model, vocab = _load_pragformer_shell(
                    str(directory / entry["file"]))
                _bind_head(model, shared.head_view(name))
                heads[name] = (model, vocab, int(entry["max_len"]))
        except Exception:
            shared.close()
            raise
        return heads, shared

    heads = {}
    for name, entry in manifest["heads"].items():
        model, vocab = load_pragformer(str(directory / entry["file"]))
        heads[name] = (model, vocab, int(entry["max_len"]))
    if not share:
        return heads
    if weights_meta is None:
        return heads, None  # legacy checkpoint: eager copies, unshared
    raw = _read_blob(directory, weights_meta)
    shared = SharedWeights.create(weights_meta, raw)
    try:
        for name, (model, _vocab, _max_len) in heads.items():
            _bind_head(model, shared.head_view(name))
    except Exception:
        shared.close()
        shared.unlink()
        raise
    return heads, shared


def share_weights(dirpath) -> Optional["SharedWeights"]:
    """Publish a checkpoint's weights blob into a named shared segment.

    The router-side half of one-copy serving: reads ``weights.bin``
    (digest-validated), copies it into a fresh
    ``multiprocessing.shared_memory`` segment under
    :data:`WEIGHTS_NAME_PREFIX`, and returns the owning handle — without
    constructing any model.  Workers then attach by name via
    ``load_advisor(dirpath, segment=handle.name)``.  Returns ``None``
    for legacy checkpoints that predate the blob (callers fall back to
    broadcast eager loading).  The caller owns the segment and must
    ``unlink`` it once the last attachment has drained.
    """
    directory = Path(dirpath)
    manifest = _read_manifest(directory)
    weights_meta = manifest.get("weights")
    if weights_meta is None:
        return None
    raw = _read_blob(directory, weights_meta)
    return SharedWeights.create(weights_meta, raw)


class SharedWeights:
    """Handle on a named shared-memory segment holding a weights blob.

    One process *creates* the segment (:meth:`create` — typically the
    router via :func:`share_weights`, or ``load_advisor(share=True)``)
    and is responsible for the final :meth:`unlink`; any number of
    workers *attach* by name (:meth:`attach`) and merely :meth:`close`
    their own mapping.  POSIX semantics do the draining: an unlinked
    segment's memory survives until the last mapping closes, so the
    router can retire an old rollout immediately after the flip while
    in-flight snapshots in the workers keep reading it safely.
    """

    def __init__(self, shm: shared_memory.SharedMemory, weights_meta: Dict,
                 owner: bool) -> None:
        self._shm = shm
        self._meta = weights_meta
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, weights_meta: Dict, raw: bytes) -> "SharedWeights":
        """Create a fresh owning segment initialised with blob ``raw``."""
        nbytes = max(1, len(raw))  # SharedMemory rejects size=0
        shm = shared_memory.SharedMemory(
            create=True, size=nbytes, name=_segment_name())
        shm.buf[:len(raw)] = raw
        return cls(shm, weights_meta, owner=True)

    @classmethod
    def attach(cls, name: str, weights_meta: Dict) -> "SharedWeights":
        """Attach to an existing segment by name (non-owning)."""
        return cls(_attach_segment(name), weights_meta, owner=False)

    @property
    def name(self) -> str:
        """The segment's ``/dev/shm`` name (attach key for workers)."""
        return self._shm.name

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the blob (uniform across heads)."""
        return np.dtype(self._meta["dtype"])

    @property
    def total_words(self) -> int:
        """Total blob length in elements, across all heads."""
        return int(self._meta["total_words"])

    @property
    def nbytes(self) -> int:
        """Blob payload size in bytes (the ``/dev/shm`` sizing number)."""
        return self.total_words * self.dtype.itemsize

    def validate(self) -> None:
        """Check segment size and blob digest against the manifest.

        Attachers call this before binding models: a name collision,
        stale segment, or torn publish must fail loudly, not serve
        garbage weights.
        """
        if self._shm.size < self.nbytes:
            raise ValueError(
                f"shared weights segment {self.name} is {self._shm.size} "
                f"bytes, manifest needs {self.nbytes}")
        digest = hashlib.blake2b(bytes(self._shm.buf[:self.nbytes])).hexdigest()
        if digest != self._meta["digest"]:
            raise ValueError(
                f"shared weights segment {self.name} failed digest "
                "validation against the checkpoint manifest")

    def head_view(self, head: str) -> np.ndarray:
        """Flat zero-copy view over one head's slice of the blob."""
        entry = self._meta["heads"].get(head)
        if entry is None:
            raise KeyError(f"head {head!r} not in weights manifest "
                           f"(has {sorted(self._meta['heads'])})")
        offset_bytes = int(entry["offset"]) * self.dtype.itemsize
        return np.ndarray((int(entry["words"]),), dtype=self.dtype,
                          buffer=self._shm.buf, offset=offset_bytes)

    def close(self) -> None:
        """Drop this process's mapping (idempotent, best-effort).

        Model parameters bound via :meth:`head_view` keep the buffer
        exported; CPython then refuses the munmap with ``BufferError``,
        which is tolerated — the mapping is reclaimed when the process
        (or the last view) goes away, and ``unlink`` does not need the
        mapping gone.
        """
        if self._closed:
            return
        try:
            self._shm.close()
        except BufferError:
            return  # views still alive; freed with the process
        self._closed = True

    def unlink(self) -> None:
        """Remove the segment's name from ``/dev/shm`` (owner, idempotent).

        Safe to call while workers still hold mappings: POSIX keeps the
        memory alive until their mappings close, only the *name* goes
        away — exactly the drain semantics rollout retirement needs.
        """
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
