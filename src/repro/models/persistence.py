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
with an ``advisor.json`` manifest, one full ``.npz`` per head, and every
head's parameters once more as one contiguous ``weights.bin`` blob
(dtype/offset/digest recorded in the manifest).

The blob is the only source of weights :func:`load_advisor` reads: every
load builds models from ``.npz`` metadata and binds them onto the
digest-checked blob, whether the blob lives in a private buffer, in a
shared segment :func:`share_weights` publishes for a shard fleet (one
read-only copy fleet-wide), or in a segment another process published
(``load_advisor(..., segment=...)``) — see ``docs/architecture.md``
(memory topology) for who maps what.  Checkpoints written before the
blob existed are refused until :func:`upgrade_advisor` (``repro
checkpoint upgrade DIR``) rebuilds them from their ``.npz`` weights.
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
           "share_weights", "upgrade_advisor", "WEIGHTS_NAME_PREFIX"]

_FORMAT_VERSION = 1
_ADVISOR_MANIFEST = "advisor.json"
_ADVISOR_FORMAT_VERSION = 1
_WEIGHTS_BLOB = "weights.bin"
#: ``PragFormerConfig`` fields that no longer exist but that checkpoints
#: saved by earlier versions still carry; loading drops them.
_RETIRED_CONFIG_KEYS = frozenset({"fused_optimizer"})

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
    model, vocab = _load_pragformer_shell(path)
    with np.load(str(path)) as archive:
        for prefix, module in (("encoder/", model.encoder),
                               ("head/", model.head)):
            module.load_state_dict({key[len(prefix):]: archive[key]
                                    for key in archive.files
                                    if key.startswith(prefix)})
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
    about to :func:`_bind_head` them onto the weights blob (or, in
    :func:`load_pragformer`, load them from the same archive).
    """
    with np.load(str(path)) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version in {path}")
    config = PragFormerConfig(**{
        key: value for key, value in meta["config"].items()
        if key not in _RETIRED_CONFIG_KEYS})
    itos = meta["vocab"]
    vocab = Vocab(itos[4:])  # specials are re-prepended by Vocab
    model = PragFormer(len(vocab), config)
    if vocab._itos != itos:
        raise ValueError("vocabulary reconstruction mismatch")
    return model, vocab


def _bind_head(model: PragFormer, view: np.ndarray) -> None:
    """Adopt ``view``'s contents as ``model``'s parameters, zero-copy.

    ``view`` is the head's flat slice of a weights blob (a private buffer
    or a window onto a shared segment, see :func:`_head_view`).  Each
    parameter's ``data`` becomes a reshaped sub-view, in
    :func:`_named_head_params` order — the lean serving-side sibling of
    ``ParameterArena.rebind(copy=False)``, which skips allocating the
    arena's private grad/decay buffers a read-only worker would never
    touch.
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


def _weights_meta(directory: Path, manifest: Dict) -> Dict:
    """The manifest's ``weights`` section; a checkpoint written before
    the blob existed is refused with the command that upgrades it."""
    weights_meta = manifest.get("weights")
    if weights_meta is None:
        raise ValueError(
            f"advisor checkpoint {directory} predates the weights blob; "
            f"run `repro checkpoint upgrade {directory}` to add it")
    return weights_meta


def _blob_nbytes(weights_meta: Dict) -> int:
    """Size of the weights blob in bytes, per the manifest."""
    return (int(weights_meta["total_words"])
            * np.dtype(weights_meta["dtype"]).itemsize)


def _read_blob_into(directory: Path, weights_meta: Dict, buf) -> None:
    """Read + integrity-check ``weights.bin`` straight into ``buf``.

    ``buf`` is a writable buffer of at least :func:`_blob_nbytes` bytes —
    a private ``bytearray`` or a fresh shared segment — so the blob is
    read once, with no intermediate copy.  Raises ``ValueError`` (never a
    crash further in) when the blob is missing, truncated, padded, or
    fails its manifest digest — a corrupt rollout must surface as a
    clean refusal.
    """
    blob_path = directory / weights_meta["file"]
    if not blob_path.is_file():
        raise ValueError(f"advisor weights blob missing: {blob_path}")
    expected = _blob_nbytes(weights_meta)
    size = blob_path.stat().st_size
    if size != expected:
        raise ValueError(
            f"advisor weights blob {blob_path} is {size} bytes, "
            f"manifest says {expected} (truncated or corrupt)")
    with memoryview(buf)[:expected] as view, blob_path.open("rb") as handle:
        handle.readinto(view)  # a short read leaves zeros: digest fails
        digest = hashlib.blake2b(view).hexdigest()
    if digest != weights_meta["digest"]:
        raise ValueError(
            f"advisor weights blob {blob_path} failed digest validation")


def _head_view(buf, weights_meta: Dict, head: str) -> np.ndarray:
    """Flat zero-copy view over one head's slice of a blob buffer — the
    one slicer for private and shared blobs alike."""
    entry = weights_meta["heads"].get(head)
    if entry is None:
        raise KeyError(f"head {head!r} not in weights manifest "
                       f"(has {sorted(weights_meta['heads'])})")
    dtype = np.dtype(weights_meta["dtype"])
    return np.ndarray((int(entry["words"]),), dtype=dtype, buffer=buf,
                      offset=int(entry["offset"]) * dtype.itemsize)


def load_advisor(dirpath, share: bool = False, segment: Optional[str] = None):
    """Reload every head of an advisor checkpoint written by
    :func:`save_advisor`.

    Every mode builds the models from ``.npz`` metadata and binds their
    parameters onto the digest-checked ``weights.bin`` blob; the modes
    differ only in where the blob bytes live:

    - **default** — one private writable buffer, read once and digested
      in place; returns ``{name: (model, vocab, max_len)}``.
    - ``share=True`` — a fresh named shared segment (via
      :func:`share_weights`); returns ``(heads, SharedWeights)``.  The
      caller owns the segment (must eventually ``unlink``).
    - ``segment="repro-weights-..."`` — attach an *existing* segment
      (published by :func:`share_weights` in the router) and validate its
      digest.  Returns ``(heads, SharedWeights)``; the handle is
      attach-only (``unlink`` stays with the segment's creator).

    A missing, truncated or corrupt blob raises ``ValueError``, as does a
    checkpoint written before the blob existed (the message names
    ``repro checkpoint upgrade DIR``).
    """
    if share and segment is not None:
        raise ValueError("load_advisor: share=True and segment= are "
                         "mutually exclusive")
    directory = Path(dirpath)
    manifest = _read_manifest(directory)
    weights_meta = _weights_meta(directory, manifest)
    shared: Optional[SharedWeights] = None
    if segment is not None:
        shared = SharedWeights.attach(segment, weights_meta)
    elif share:
        shared = share_weights(directory)
    else:
        buf = bytearray(_blob_nbytes(weights_meta))
        _read_blob_into(directory, weights_meta, buf)
    try:
        if segment is not None:
            shared.validate()
        if shared is not None:
            buf = shared._shm.buf
        heads: Dict[str, Tuple[PragFormer, Vocab, int]] = {}
        for name, entry in manifest["heads"].items():
            model, vocab = _load_pragformer_shell(
                str(directory / entry["file"]))
            _bind_head(model, _head_view(buf, weights_meta, name))
            heads[name] = (model, vocab, int(entry["max_len"]))
    except Exception:
        if shared is not None:
            shared.close()
            if share:
                shared.unlink()
        raise
    return heads if shared is None else (heads, shared)


def share_weights(dirpath) -> "SharedWeights":
    """Publish a checkpoint's weights blob into a named shared segment.

    The router-side half of one-copy serving: reads ``weights.bin``
    straight into a fresh ``multiprocessing.shared_memory`` segment under
    :data:`WEIGHTS_NAME_PREFIX`, digest-validates it there, and returns
    the owning handle — without constructing any model.  Workers then
    attach by name via ``load_advisor(dirpath, segment=handle.name)``.
    Raises ``ValueError`` for a corrupt or pre-blob checkpoint (leaving
    no segment behind) and ``OSError`` when the segment cannot be
    created.  The caller owns the segment and must ``unlink`` it once
    the last attachment has drained.
    """
    directory = Path(dirpath)
    weights_meta = _weights_meta(directory, _read_manifest(directory))
    shared = SharedWeights.create(weights_meta)
    try:
        _read_blob_into(directory, weights_meta, shared._shm.buf)
    except BaseException:
        shared.close()
        shared.unlink()
        raise
    return shared


def upgrade_advisor(dirpath) -> bool:
    """Add the ``weights.bin`` blob to a checkpoint written before it
    existed, in place; ``repro checkpoint upgrade DIR`` runs this.

    Rebuilds the directory from its per-head ``.npz`` files
    (:func:`load_pragformer` + :func:`save_advisor`), keeping each head's
    serving ``max_len``.  Does nothing — and returns ``False`` — when the
    manifest already records a blob; returns ``True`` after an upgrade.
    """
    directory = Path(dirpath)
    manifest = _read_manifest(directory)
    if "weights" in manifest:
        return False
    heads = {}
    for name, entry in manifest["heads"].items():
        model, vocab = load_pragformer(str(directory / entry["file"]))
        heads[name] = (model, vocab, int(entry["max_len"]))
    save_advisor(heads, directory)
    return True


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

    def __init__(self, shm: shared_memory.SharedMemory,
                 weights_meta: Dict) -> None:
        self._shm = shm
        self._meta = weights_meta
        self._closed = False

    @classmethod
    def create(cls, weights_meta: Dict) -> "SharedWeights":
        """Create a fresh owning segment sized for the blob (contents are
        filled by the caller — :func:`share_weights` reads into it)."""
        nbytes = max(1, _blob_nbytes(weights_meta))  # size=0 is rejected
        shm = shared_memory.SharedMemory(
            create=True, size=nbytes, name=_segment_name())
        return cls(shm, weights_meta)

    @classmethod
    def attach(cls, name: str, weights_meta: Dict) -> "SharedWeights":
        """Attach to an existing segment by name (non-owning)."""
        return cls(_attach_segment(name), weights_meta)

    @property
    def name(self) -> str:
        """The segment's ``/dev/shm`` name (attach key for workers)."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Blob payload size in bytes (the ``/dev/shm`` sizing number)."""
        return _blob_nbytes(self._meta)

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
        digest = hashlib.blake2b(self._shm.buf[:self.nbytes]).hexdigest()
        if digest != self._meta["digest"]:
            raise ValueError(
                f"shared weights segment {self.name} failed digest "
                "validation against the checkpoint manifest")

    def head_view(self, head: str) -> np.ndarray:
        """Flat zero-copy view over one head's slice of the blob."""
        return _head_view(self._shm.buf, self._meta, head)

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
