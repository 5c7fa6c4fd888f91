"""Parameter and Module base classes for the pure-NumPy NN substrate.

The substrate uses explicit, layer-local backpropagation rather than a tape:
every module's ``forward`` caches exactly the activations its ``backward``
needs, and ``backward`` accumulates parameter gradients in place and returns
the gradient with respect to its input.  This keeps the hot path free of
graph bookkeeping and lets every step be expressed as a handful of large
BLAS calls, per the NumPy performance guidance (vectorize; avoid copies).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.dtype import get_dtype

__all__ = ["Parameter", "Module", "ParameterArena"]


class Parameter:
    """A trainable tensor with an in-place-accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.ascontiguousarray(data, dtype=get_dtype())
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class Module:
    """Base class: parameter discovery, train/eval/inference mode, state dicts.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; discovery walks ``__dict__`` (and lists of modules)
    recursively in deterministic attribute order.

    Three compute modes:

    * ``train()`` — stochastic layers active, forwards cache for backward;
    * ``eval()`` — deterministic forwards that still cache, so gradients can
      be checked against a dropout-free pass;
    * ``inference_mode()`` — deterministic forwards that cache *nothing*
      (no activations, no attention maps, no dropout masks).  ``backward``
      after an inference forward is an error; this is the serving fast path.
    """

    def __init__(self) -> None:
        self.training = True
        self.inference = False

    # -- mode ---------------------------------------------------------------

    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
            m.inference = False
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
            m.inference = False
        return self

    def inference_mode(self, enabled: bool = True) -> "Module":
        """Eval mode plus cache-free forwards (see class docstring)."""
        for m in self.modules():
            m.training = False
            m.inference = enabled
        return self

    # -- discovery ------------------------------------------------------------

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in self.__dict__.items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- (de)serialization ------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def _upgrade_state(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        """Rewrite legacy checkpoint keys in ``state`` in place.

        The base implementation only recurses into submodules with the same
        prefixing scheme as :meth:`named_parameters`; modules whose parameter
        layout changed (e.g. the fused QKV projection) override this to
        translate their old keys, then call ``super()``.
        """
        for name, value in self.__dict__.items():
            if isinstance(value, Module):
                value._upgrade_state(state, f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._upgrade_state(state, f"{prefix}{name}.{i}.")

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        state = dict(state)
        self._upgrade_state(state)
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}")
            p.data[...] = state[name]

    def save(self, path: str) -> None:
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        with np.load(path) as archive:
            self.load_state_dict({k: archive[k] for k in archive.files})

    def parameter_arena(self) -> "ParameterArena":
        """Flatten this module's parameters into one contiguous arena."""
        return ParameterArena(self)


class ParameterArena:
    """All of a model's parameters (and gradients) as one flat buffer.

    Each :class:`Parameter`'s ``data``/``grad`` is rebound to a reshaped
    slice of two contiguous arrays, so layer-local in-place updates
    (``p.grad += ...``, ``p.data[...] = ...``) keep working unchanged while
    whole-model operations — an AdamW step, gradient clipping, ``zero_grad``
    — become a handful of vectorized calls over one array instead of a
    Python loop over ~30 (see :class:`repro.nn.optim.FusedAdamW`).

    Accepts a :class:`Module` or anything exposing ``named_parameters()``
    (e.g. the encoder+head adapters the training loops use).  Construction
    preserves parameter values exactly, so ``state_dict`` round-trips are
    unchanged; ``decay_mask`` is 1.0 on multi-dimensional parameters and
    0.0 on biases/LayerNorm vectors, encoding the §4.3 decoupled
    weight-decay rule as a single elementwise multiply.
    """

    def __init__(self, model) -> None:
        pairs = list(model.named_parameters())
        if not pairs:
            raise ValueError("model has no parameters to flatten")
        dtype = pairs[0][1].data.dtype
        total = sum(p.data.size for _, p in pairs)
        self.data = np.empty(total, dtype=dtype)
        self.grad = np.zeros(total, dtype=dtype)
        self.decay_mask = np.empty(total, dtype=dtype)
        self.slices: List[Tuple[str, slice, Tuple[int, ...]]] = []
        self._params: List[Parameter] = [p for _, p in pairs]
        offset = 0
        for name, p in pairs:
            if p.data.dtype != dtype:
                raise TypeError(
                    f"parameter {name} has dtype {p.data.dtype}, arena is {dtype}")
            region = slice(offset, offset + p.data.size)
            data_view = self.data[region].reshape(p.data.shape)
            grad_view = self.grad[region].reshape(p.data.shape)
            data_view[...] = p.data
            grad_view[...] = p.grad
            p.data = data_view
            p.grad = grad_view
            self.decay_mask[region] = 1.0 if p.data.ndim > 1 else 0.0
            self.slices.append((name, region, p.data.shape))
            offset += p.data.size

    @property
    def size(self) -> int:
        return int(self.data.size)

    def rebind(self, data: np.ndarray = None, grad: np.ndarray = None,
               copy: bool = True) -> None:
        """Move the arena onto new backing buffers.

        ``data``/``grad`` must be flat arrays of the arena's size and
        dtype — e.g. views over a ``multiprocessing.shared_memory``
        segment (to share parameters across forked workers) or fresh
        private arrays (to detach before the segment is unlinked).  With
        ``copy=True`` (the default) the current bytes are copied into the
        target first; with ``copy=False`` the target's existing contents
        are *adopted* — the mode serving workers use to map a checkpoint
        blob that is already resident in a shared segment without ever
        materialising a private copy.  Either way every
        :class:`Parameter`'s views are re-pointed, so layer-local
        in-place updates keep hitting the new storage.
        """
        for attr, target in (("data", data), ("grad", grad)):
            if target is None:
                continue
            current = getattr(self, attr)
            if target.shape != current.shape or target.dtype != current.dtype:
                raise ValueError(
                    f"rebind {attr}: need shape {current.shape} dtype "
                    f"{current.dtype}, got {target.shape} {target.dtype}")
            if copy:
                target[...] = current
            setattr(self, attr, target)
        for p, (_name, region, shape) in zip(self._params, self.slices):
            if data is not None:
                p.data = self.data[region].reshape(shape)
            if grad is not None:
                p.grad = self.grad[region].reshape(shape)

    def zero_grad(self) -> None:
        """One flat fill instead of one per parameter."""
        self.grad.fill(0.0)

    def grad_norm(self) -> float:
        """Global L2 gradient norm as a single dot product."""
        return float(np.sqrt(np.dot(self.grad, self.grad)))

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most
        ``max_norm`` (one dot product, at most one scale); returns the
        pre-clip norm."""
        norm = self.grad_norm()
        if norm > max_norm > 0:
            self.grad *= max_norm / (norm + 1e-12)
        return norm
