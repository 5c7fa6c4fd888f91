"""Shared-memory data-parallel training on the flat parameter arena.

The training hot path (``ParameterArena`` + ``FusedAdamW``) keeps every
parameter and every gradient in *one* contiguous buffer each, which makes
multi-process data parallelism almost embarrassingly cheap: map the
parameter buffer into one ``multiprocessing.shared_memory`` segment that
every worker reads, give the gradients one shared block of per-shard rows,
and the all-reduce is a single vectorized ``np.sum`` over that block
followed by one fused optimizer step.  No pickling, no tensors in flight —
the only per-step IPC is a 40-byte control record and two semaphore
operations per worker (workers block on a wake semaphore, never
poll).

**The determinism contract.**  N-worker training is *bit-identical* to
one-worker training on the same seed — same loss trajectory, same
final arena bytes, same optimizer moments.  Floating-point addition is not
associative, so that guarantee cannot come from sharding by worker count
(``(g0+g2)+(g1+g3)`` ≠ ``((g0+g1)+g2)+g3`` bitwise).  Instead the
gradient arithmetic is defined over a **fixed micro-shard grid** that
never depends on how many workers exist:

* every batch is split into ``grad_shards`` contiguous index shards
  (:func:`shard_bounds` — deterministic, remainder-tolerant, possibly
  empty); the default grid of 4 trains a 32-row batch as four 8-row
  shards, and it caps a fit at 4 workers;
* shard ``s`` is computed by rank ``s % n_workers`` as a *pure function*
  of (parameters, shard rows, step, ``s``): all stochastic state is
  re-seeded per ``(seed, step, shard)`` key before the shard's
  forward/backward — every dropout of the model shares one generator per
  key, drawn from in forward order (:func:`stochastic_reseeder`, built
  once per fit), and MLM masking draws from :func:`shard_rng` — and the
  shard's gradients use *sum* reduction over examples so no shard needs
  to know any other shard's size;
* shard ``s``'s gradient lands in row ``s`` of the shared ``(S, |arena|)``
  grad block — the same row no matter which rank computed it — and rank 0
  reduces with one ``np.sum(block, axis=0)``, whose operation order is a
  function of the (fixed) block shape only;
* rank 0 then normalizes by the summed shard weights, clips, and applies
  one :class:`~repro.nn.optim.FusedAdamW` step.  Parameters are only ever
  written by rank 0, between barriers, so a worker death can never leave
  the arena torn — the params are always exactly those of the last
  completed step;
* every rank runs on one OpenBLAS thread (:mod:`repro.utils.blas`), set
  in rank 0 before the fork, since a long-K weight-gradient GEMM sums in
  another order on two; this also keeps N ranks from oversubscribing the
  cores.  Close restores rank 0's count.

**Process topology.**  Rank 0 *is* the calling process: it computes its
own shards, reduces, and steps; ranks 1..N-1 are forked children created
at trainer construction (the dataset arrays are inherited copy-on-write —
read-shared for free under ``fork``).  ``n_workers=1`` is therefore
single-process training through the identical arithmetic: the default of
``PragFormer.fit`` and ``MLMPretrainer.fit``, whose one training loop is
this trainer, and what the parity tests compare against.

**Barrier protocol.**  One step is::

    rank 0: write ctrl record -> release every wake semaphore
    rank k: (blocked on wake) compute owned shards -> release done
    rank 0: compute its shards -> acquire done x (N-1)
            -> reduce -> normalize -> clip -> FusedAdamW.step()

The ``done`` acquisition loop doubles as the failure detector: a worker
that died (or hung past ``barrier_timeout_s``) raises :class:`WorkerDied`
after the trainer has terminated the survivors and unlinked every
segment — a clean error, an untorn arena, and nothing left in
``/dev/shm`` (audited suite-wide by ``tests/conftest.py``).

Segments are named ``repro-ddp-<pid>-<n>-{params,grads,ctrl}`` so the
leak check can glob them; sizing is ``|arena|`` bytes for the param
block and ``grad_shards x |arena|`` for the grad block.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.optim import FusedAdamW, WarmupSchedule
from repro.utils.blas import set_blas_threads

__all__ = [
    "DDP_NAME_PREFIX",
    "DDPConfig",
    "DataParallelTrainer",
    "WorkerDied",
    "reseed_stochastic",
    "shard_bounds",
    "shard_rng",
    "stochastic_reseeder",
]

#: Every DDP segment name starts with this, so ``tests/conftest.py`` can
#: assert no leaked ``/dev/shm`` entries after every test.
DDP_NAME_PREFIX = "repro-ddp"

_CMD_IDLE, _CMD_STEP, _CMD_STOP = 0, 1, 2
_CTRL_WORDS = 5  # command, epoch, step, start, length (int64 each)

_trainer_ids = itertools.count()


class WorkerDied(RuntimeError):
    """A forked worker exited (or hung) mid-step.

    Raised by rank 0 after cleanup: surviving workers are terminated and
    every shared segment is unlinked.  The arena holds the parameters of
    the last *completed* step — never a torn partial update, because only
    rank 0 writes parameters and only between step barriers."""


def shard_bounds(n: int, shards: int, shard: int) -> Tuple[int, int]:
    """Half-open index range of micro-shard ``shard`` in a batch of ``n``.

    Contiguous, exhaustive, remainder-tolerant: shard sizes differ by at
    most one, and shards past ``n`` are empty.  This is the fixed grid the
    determinism contract is built on — it depends on the shard count, not
    the worker count."""
    return (shard * n) // shards, ((shard + 1) * n) // shards


def _u63(value: int) -> int:
    """Clamp any int into SeedSequence's non-negative entropy domain."""
    return int(value) & (2**63 - 1)


def shard_rng(key: Sequence[int], salt: int = 0) -> np.random.Generator:
    """Deterministic generator for one ``(seed, step, shard)`` key.

    Distinct ``salt`` values give independent streams for the same key
    (data-level draws vs module re-seeding)."""
    return np.random.default_rng([_u63(k) for k in key] + [0, _u63(salt)])


def stochastic_reseeder(roots) -> Callable[[Sequence[int]], None]:
    """Walk ``roots`` once; return ``reseed(key)`` for their dropouts.

    The walk (``Module.modules()``, deterministic order) collects every
    module holding an ``np.random.Generator`` as ``rng``.  ``reseed(key)``
    then hands all of them *one* fresh generator keyed by ``(key..., 1)``;
    they draw from it in forward order, which is deterministic.  After a
    reseed, a train forward is a pure function of (parameters, inputs,
    key) — the property that lets any rank compute any shard with
    bit-identical results.  A fit builds one reseeder and calls it per
    micro-shard: one generator per shard, and no module walk."""
    modules = [module for root in roots for module in root.modules()
               if isinstance(getattr(module, "rng", None), np.random.Generator)]

    def reseed(key: Sequence[int]) -> None:
        rng = np.random.default_rng([_u63(k) for k in key] + [1])
        for module in modules:
            module.rng = rng

    return reseed


def reseed_stochastic(roots, key: Sequence[int]) -> None:
    """Re-seed every rng-carrying module under ``roots`` from ``key``: the
    one-shot form of :func:`stochastic_reseeder` (one walk per call)."""
    stochastic_reseeder(roots)(key)


@dataclass(frozen=True)
class DDPConfig:
    """Data-parallel trainer knobs.

    ``grad_shards`` is part of the *arithmetic*, not the deployment: runs
    with different shard counts produce (slightly) different float
    trajectories, runs with different worker counts do not.  It also
    caps ``n_workers``, since every rank needs a shard.  The default 4
    gives a 32-row batch 8-row shards: a shard's forward/backward is
    mostly fixed numpy dispatch at 4 rows, and 4 shards trained a step
    faster than 8 while keeping the {1, 2, 4}-worker sweep
    (``docs/performance.md``, "Training: the micro-shard grid").  Keep it
    at the default unless you know why you are changing it.

    ``die_at_step``/``die_rank`` are chaos-testing hooks (the same idiom
    as the serving fleet's :class:`~repro.serve.chaos.ChaosConfig`): the
    given rank calls ``os._exit`` at the start of the given step so the
    death path stays deterministic under test."""

    n_workers: int = 1
    grad_shards: int = 4
    seed: int = 0
    barrier_timeout_s: float = 60.0
    #: chaos testing only — deterministic worker death
    die_at_step: Optional[int] = None
    die_rank: int = 1


#: shard_backward(sel, key) -> (loss_sum, weight): computes *sum-reduced*
#: gradients for the shard into the arena's grad buffer.
ShardBackward = Callable[[np.ndarray, Tuple[int, int, int]], Tuple[float, float]]


class DataParallelTrainer:
    """Fork-N data-parallel driver for one ``FusedAdamW`` + arena pair.

    The caller supplies ``shard_backward(sel, key)``: given the example
    indices of one micro-shard and its ``(seed, step, shard)`` key, run
    forward/backward with **sum** reduction over examples (the trainer has
    already zeroed the arena grads) and return ``(loss_sum, weight)`` —
    typically (per-example-loss total, example count), or for MLM
    (per-position total, masked-position count).  Rank 0 divides the
    reduced gradient and loss by the summed weights, so the trained
    objective is exactly the batch mean regardless of shard sizes.

    Use as a context manager; :meth:`close` unlinks every segment and
    moves the arena back onto private memory, so the model (and its
    optimizer) keep working after the trainer is gone.
    """

    def __init__(self, optimizer: FusedAdamW, shard_backward: ShardBackward,
                 n_examples: int, config: Optional[DDPConfig] = None,
                 grad_clip: float = 0.0,
                 lr_schedule: Optional[WarmupSchedule] = None) -> None:
        cfg = config or DDPConfig()
        if cfg.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if cfg.grad_shards < cfg.n_workers:
            raise ValueError(
                f"grad_shards ({cfg.grad_shards}) must be >= n_workers "
                f"({cfg.n_workers}): every rank needs at least one shard")
        if cfg.n_workers > 1 and mp.get_start_method() != "fork":
            raise RuntimeError(
                "DataParallelTrainer needs the fork start method (workers "
                "inherit the dataset and the shard_backward closure)")
        self.cfg = cfg
        self.opt = optimizer
        self.arena = optimizer.arena
        self.grad_clip = grad_clip
        self.lr_schedule = lr_schedule
        self._shard_backward = shard_backward
        self._closed = False
        self.step_losses: List[float] = []
        self.counters = {
            "steps": 0,
            "examples": 0,
            "reduce_ops": 0,
            "grad_bytes_reduced": 0,
            "per_rank_examples": [0] * cfg.n_workers,
        }

        uid = f"{DDP_NAME_PREFIX}-{os.getpid()}-{next(_trainer_ids)}"
        arena_words = self.arena.size
        dtype = self.arena.data.dtype
        shards = cfg.grad_shards
        self._seg_params = shared_memory.SharedMemory(
            name=f"{uid}-params", create=True,
            size=max(1, arena_words * dtype.itemsize))
        self._seg_grads = shared_memory.SharedMemory(
            name=f"{uid}-grads", create=True,
            size=max(1, shards * arena_words * dtype.itemsize))
        ctrl_bytes = 8 * _CTRL_WORDS + 16 * shards + 8 * max(1, n_examples)
        self._seg_ctrl = shared_memory.SharedMemory(
            name=f"{uid}-ctrl", create=True, size=ctrl_bytes)

        self._grad_block = np.ndarray((shards, arena_words), dtype,
                                      self._seg_grads.buf)
        self._grad_block.fill(0.0)
        self._ctrl = np.ndarray((_CTRL_WORDS,), np.int64, self._seg_ctrl.buf)
        self._ctrl.fill(_CMD_IDLE)
        self._losses = np.ndarray((shards, 2), np.float64,
                                  self._seg_ctrl.buf, 8 * _CTRL_WORDS)
        self._losses.fill(0.0)
        self._order = np.ndarray((n_examples,), np.int64, self._seg_ctrl.buf,
                                 8 * _CTRL_WORDS + 16 * shards)

        # the param block is the one truly *shared* mapping: rebind the
        # arena onto it before forking so every worker reads rank 0's
        # post-step weights directly
        param_view = np.ndarray((arena_words,), dtype, self._seg_params.buf)
        self.arena.rebind(data=param_view)

        # rank 0's own BLAS pool size, restored on close (None: no OpenBLAS).
        # Forked ranks inherit the one thread; setting it again after the
        # fork would start an OpenBLAS pool thread there that spin-waits
        self._blas_threads = set_blas_threads(1)
        self._wakeups = [mp.Semaphore(0) for _ in range(cfg.n_workers - 1)]
        self._done = mp.Semaphore(0)
        self._procs: List[mp.Process] = []
        for rank in range(1, cfg.n_workers):
            proc = mp.Process(target=self._worker_main, args=(rank,),
                              daemon=True, name=f"ddp-rank{rank}")
            proc.start()
            self._procs.append(proc)

    # -- rank 0 (the calling process) ----------------------------------------

    def run_epoch(self, batches: Sequence[np.ndarray], epoch: int = 0) -> float:
        """Train one pass over ``batches`` (arrays of example indices).

        Returns the mean per-batch loss (each batch loss is the
        weight-normalized mean its shards report); per-step losses append
        to :attr:`step_losses`.  Batch boundaries are shipped to workers
        as (start, length) into one shared index buffer, so uneven and
        remainder batches need no special casing anywhere."""
        if self._closed:
            raise RuntimeError("trainer is closed")
        if not batches:
            return 0.0
        order = np.concatenate(
            [np.ascontiguousarray(batch, dtype=np.int64) for batch in batches])
        if order.size > self._order.size:
            raise ValueError(
                f"epoch indexes {order.size} examples, trainer was sized "
                f"for {self._order.size}")
        self._order[:order.size] = order
        start = 0
        total = 0.0
        for batch in batches:
            length = len(batch)
            total += self._step(epoch, start, length)
            start += length
        return total / len(batches)

    def _step(self, epoch: int, start: int, length: int) -> float:
        cfg = self.cfg
        step = self.opt.t  # completed steps == this step's rng key
        self._ctrl[:] = (_CMD_STEP, epoch, step, start, length)
        for bell in self._wakeups:
            bell.release()
        self._compute_rank(0, step, start, length)
        self._await_workers()
        # all-reduce: one vectorized sum over the fixed (S, |arena|) block.
        # The operation order depends only on the block shape, so the
        # result is bit-identical at every worker count.
        np.sum(self._grad_block, axis=0, out=self.arena.grad)
        counters = self.counters
        counters["reduce_ops"] += 1
        counters["grad_bytes_reduced"] += int(self._grad_block.nbytes)
        denom = float(self._losses[:, 1].sum())
        loss = float(self._losses[:, 0].sum() / denom) if denom > 0 else 0.0
        if denom > 0:
            # shards report sum-reduced grads; one scale recovers the mean
            self.arena.grad *= 1.0 / denom
        if self.grad_clip > 0:
            self.opt.clip_grad_norm(self.grad_clip)
        if self.lr_schedule is not None:
            self.lr_schedule.step()
        self.opt.step()
        counters["steps"] += 1
        counters["examples"] += length
        for shard in range(cfg.grad_shards):
            lo, hi = shard_bounds(length, cfg.grad_shards, shard)
            counters["per_rank_examples"][shard % cfg.n_workers] += hi - lo
        self.step_losses.append(loss)
        return loss

    def _await_workers(self) -> None:
        pending = len(self._procs)
        deadline = time.monotonic() + self.cfg.barrier_timeout_s
        while pending:
            if self._done.acquire(timeout=0.1):
                pending -= 1
                continue
            dead = [p.name for p in self._procs if not p.is_alive()]
            if dead:
                self._abort()
                raise WorkerDied(
                    f"worker(s) {dead} died mid-step; segments unlinked, "
                    f"arena left at the last completed step")
            if time.monotonic() >= deadline:
                self._abort()
                raise WorkerDied(
                    f"worker barrier timed out after "
                    f"{self.cfg.barrier_timeout_s}s; segments unlinked")

    # -- shard computation (all ranks) ---------------------------------------

    def _compute_rank(self, rank: int, step: int, start: int,
                      length: int) -> None:
        cfg = self.cfg
        if (cfg.die_at_step is not None and rank == cfg.die_rank
                and step >= cfg.die_at_step):
            os._exit(23)  # chaos hook: deterministic mid-step death
        batch = self._order[start:start + length]
        for shard in range(cfg.grad_shards):
            if shard % cfg.n_workers != rank:
                continue
            lo, hi = shard_bounds(length, cfg.grad_shards, shard)
            row = self._grad_block[shard]
            if hi == lo:  # empty shard (batch smaller than the grid)
                row.fill(0.0)
                self._losses[shard] = 0.0
                continue
            sel = np.ascontiguousarray(batch[lo:hi])
            self.arena.zero_grad()
            loss_sum, weight = self._shard_backward(
                sel, (cfg.seed, step, shard))
            row[:] = self.arena.grad
            self._losses[shard, 0] = loss_sum
            self._losses[shard, 1] = weight

    def _worker_main(self, rank: int) -> None:
        bell = self._wakeups[rank - 1]
        while True:
            bell.acquire()
            command, _epoch, step, start, length = (int(w) for w in self._ctrl)
            if command != _CMD_STEP:
                return
            # no try/finally: if a shard raises, this process dies without
            # releasing `done`, and rank 0's failure detector reports it —
            # never a silent half-written step
            self._compute_rank(rank, step, start, length)
            self._done.release()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop workers, unmap + unlink every segment, and move the arena
        back onto private memory (idempotent).  The model and optimizer
        remain fully usable afterwards."""
        if self._closed:
            return
        self._closed = True
        self._ctrl[:1] = _CMD_STOP
        for bell in self._wakeups:
            bell.release()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5.0)
        self._release_segments()

    def _abort(self) -> None:
        """Failure-path close: terminate survivors, reclaim everything."""
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._release_segments()

    def _release_segments(self) -> None:
        if self._blas_threads is not None:
            set_blas_threads(self._blas_threads)
        # parameters live in the segment about to vanish: copy them onto
        # private memory first so every Parameter view stays valid
        self.arena.rebind(data=np.empty_like(self.arena.data))
        # numpy views hold buffer exports; they must go before close()
        self._grad_block = self._ctrl = self._losses = self._order = None
        for seg in (self._seg_params, self._seg_grads, self._seg_ctrl):
            try:
                seg.close()
            except Exception:  # noqa: BLE001 - already closed
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass

    def __enter__(self) -> "DataParallelTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
