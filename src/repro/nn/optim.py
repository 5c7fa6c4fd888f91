"""Optimizer: AdamW (§4.3) with decoupled weight decay, plus a
linear-warmup schedule.

:class:`FusedAdamW` steps a :class:`~repro.nn.module.ParameterArena` with
~10 whole-arena vectorized calls and a single scratch buffer, regardless
of parameter count.  All state updates are in place on preallocated
moment buffers — no per-step allocation in the training hot loop.
Gradient clipping is the arena's one-dot-product
:meth:`~repro.nn.module.ParameterArena.clip_grad_norm`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.nn.module import Module, ParameterArena

__all__ = ["FusedAdamW", "WarmupSchedule"]


class FusedAdamW:
    """AdamW (Loshchilov & Hutter) over a flat
    :class:`~repro.nn.module.ParameterArena`: Adam step + decoupled
    weight decay.

    A per-parameter stepper issues ~10 NumPy calls (plus several
    temporaries) *per parameter* per step; at small model scales that
    dispatch overhead rivals the actual arithmetic.  Here the whole model
    is one contiguous buffer, so a step is ~10 calls total, reusing one
    preallocated scratch array: no per-step allocation at all.

    Decoupled weight decay is applied through the arena's ``decay_mask``
    (1.0 on matrices, 0.0 on 1-D parameters): the bias/LayerNorm
    exemption the paper's setup inherits from RoBERTa, as a single
    multiply.  The elementwise operation order is the textbook
    per-parameter loop's, so the two step bit-identically (see the
    reference stepper in ``tests/test_nn_arena.py``).
    """

    def __init__(self, model: Union[Module, ParameterArena], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01) -> None:
        self.arena = model if isinstance(model, ParameterArena) else ParameterArena(model)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = np.zeros_like(self.arena.data)
        self._v = np.zeros_like(self.arena.data)
        self._tmp = np.empty_like(self.arena.data)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        step_size = self.lr / bias1
        data, grad = self.arena.data, self.arena.grad
        m, v, tmp = self._m, self._v, self._tmp
        # m = b1*m + (1-b1)*g
        m *= b1
        np.multiply(grad, 1.0 - b1, out=tmp)
        m += tmp
        # v = b2*v + (1-b2)*g*g   (evaluated as ((1-b2)*g)*g)
        v *= b2
        np.multiply(grad, 1.0 - b2, out=tmp)
        tmp *= grad
        v += tmp
        # p -= step_size * m / (sqrt(v/bias2) + eps)
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, tmp, out=tmp)
        tmp *= step_size
        data -= tmp
        if self.weight_decay:
            # p -= (lr*wd) * p, matrices only (mask zeroes the rest)
            np.multiply(data, self.lr * self.weight_decay, out=tmp)
            tmp *= self.arena.decay_mask
            data -= tmp

    def zero_grad(self) -> None:
        self.arena.zero_grad()

    def clip_grad_norm(self, max_norm: float) -> float:
        """Whole-arena clip: one dot product and (at most) one scale."""
        return self.arena.clip_grad_norm(max_norm)

    def state_dict(self) -> dict:
        """Snapshot the *full* optimization state: parameters AND moments.

        Checkpointing the arena bytes alone is not enough to resume a run
        bit-identically — the step count drives bias correction and the
        moment buffers carry momentum, so a resume without them diverges
        from an uninterrupted run on the first step.  This snapshot (plus
        the data-order rng) makes resume exact; see the DDP resume
        regression in ``tests/test_train_ddp.py``.
        """
        return {
            "t": np.asarray(self.t, dtype=np.int64),
            "m": self._m.copy(),
            "v": self._v.copy(),
            "data": self.arena.data.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Writes into the existing buffers (``[...] =``) rather than
        rebinding, so parameter views — and any shared-memory segment the
        arena currently lives in — stay valid."""
        missing = {"t", "m", "v", "data"} - set(state)
        if missing:
            raise KeyError(f"optimizer state missing keys: {sorted(missing)}")
        for key in ("m", "v", "data"):
            if state[key].shape != self.arena.data.shape:
                raise ValueError(
                    f"optimizer state {key!r} has shape {state[key].shape}, "
                    f"arena is {self.arena.data.shape}")
        self.t = int(state["t"])
        self._m[...] = state["m"]
        self._v[...] = state["v"]
        self.arena.data[...] = state["data"]


class WarmupSchedule:
    """Linear warmup to ``peak_lr`` over ``warmup_steps``, then constant or
    linear decay to zero at ``total_steps`` (if given)."""

    def __init__(self, optimizer: FusedAdamW, peak_lr: float,
                 warmup_steps: int, total_steps: int = 0) -> None:
        self.opt = optimizer
        self.peak = peak_lr
        self.warmup = max(1, warmup_steps)
        self.total = total_steps
        self.step_num = 0

    def step(self) -> float:
        self.step_num += 1
        if self.step_num <= self.warmup:
            lr = self.peak * self.step_num / self.warmup
        elif self.total > self.warmup:
            frac = (self.total - self.step_num) / max(1, self.total - self.warmup)
            lr = self.peak * max(0.0, frac)
        else:
            lr = self.peak
        self.opt.lr = lr
        return lr
