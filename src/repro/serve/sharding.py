"""Multi-worker sharding: partition bulk advisor traffic across processes.

The NumPy engine is single-process compute-bound, so past one core the only
way to scale throughput is more processes.  :class:`ShardedEngine` runs N
worker processes (stdlib :mod:`multiprocessing`, no extra deps), each
hosting its own :class:`~repro.serve.registry.MultiModelEngine` built by a
caller-supplied zero-argument factory.  The fleet has one serving
contract: :meth:`ShardedEngine.advise_v1` in, one ``advise_full_many``
sub-batch per worker on the wire.  A directive-only fleet is simply one
whose workers host a registry with no clause heads
(``ModelRegistry.from_context(ctx, clauses=())``).

* **Digest-hash routing** — a snippet is routed by
  ``blake2b(code) % n_shards``, so the *same* snippet always lands on the
  *same* worker and that worker's prediction LRU and tokenize memo stay hot
  (random routing would cut every cache's effective hit rate by 1/N).
* **Bulk fan-out** — one :meth:`~ShardedEngine.advise_v1`
  call splits its codes by shard, sends each worker one sub-batch, and the
  workers run concurrently; results are scattered back into request order.
* **One data plane** — serving sub-batches and control messages alike
  travel as pickled tuples over each worker's request/reply
  :mod:`multiprocessing` queues.  Each worker lexes and encodes its own
  sub-batch, so tokenization runs on every shard's core in parallel, and
  the only shared-memory segments the fleet creates are the one-copy
  weight segments (created and unlinked by the parent; workers only
  attach).  Every fleet runs worker processes, ``n_shards=1`` included;
  in-process serving is the wrapped engine itself.
* **Concurrent callers** — replies are tagged with request ids, so multiple
  threads (e.g. HTTP handler threads) can have calls in flight at once;
  calls touching disjoint shards proceed fully in parallel.
* **One-copy weights** — every rollout (reload, canary) publishes the
  checkpoint's digest-checked weights blob into one parent-owned shared
  segment and workers bind onto it by name; a fleet falls back to private
  per-worker blob copies only when the segment cannot be created.
* **Fixed size** — a fleet keeps the ``n_shards`` workers it was built
  with; a slot is only ever respawned in place after its worker died.
* **Hot reload** — :meth:`reload` broadcasts an advisor-checkpoint swap to
  every worker.
* **Canary rollout** — :meth:`start_canary` / :meth:`promote` /
  :meth:`rollback` broadcast the registry-level canary deployment to
  every worker under one parent-issued version tag; because arm
  assignment is a pure digest hash, every worker splits traffic
  identically, and a worker respawned mid-rollout replays the canary at
  spawn.
* **Fault tolerance** — a worker supervisor (see
  :class:`SupervisorConfig`) heartbeats every worker over the
  reply-token plumbing, detects crashed or wedged processes, and
  respawns the slot, replaying the last reload and any live canary at
  spawn, under an exponential-backoff restart budget; every serving
  request carries a deadline, and a request that times out or lands on a
  dead worker is retried once on a healthy shard (then the in-process
  fallback engine) before being answered with an explicit *degraded*
  neutral verdict instead of an exception.  Deterministic fault
  injection for all of this lives in :mod:`repro.serve.chaos`.
* **Observability** — :meth:`stats` aggregates every worker's
  ``MultiModelEngine.stats()`` counters and reports per-shard
  routed-request counts, live queue depths (requests sent but not yet
  answered), the deployed model version, and the supervisor's fault
  counters (``restarts``, ``faults``, ``deadline_exceeded``,
  ``degraded_answers``).

Workers are started with the ``fork`` start method when the platform
offers it (the factory may close over live models — fork shares their
memory copy-on-write); otherwise ``spawn`` is used and the factory must be
picklable (a module-level function or :func:`functools.partial` of one).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.serve.chaos import ChaosConfig, inject_fault
from repro.serve.api import AdviceRequest, AdviceResult
from repro.serve.engine import source_digest
from repro.serve.metrics import merge_arm_stats, merge_stat_dicts

__all__ = ["DeadlineExceeded", "ShardedEngine", "SupervisorConfig",
           "shard_of"]

_STOP = "stop"

#: The one serving wire method: the only call that carries a request
#: deadline, may be answered with degraded verdicts, and advances the
#: chaos call counter.
_SERVE = "advise_full_many"

#: How long :meth:`ShardedEngine._reply` waits on a reply queue between
#: liveness checks, and how long it drains a dead worker's queue for a
#: reply sent just before the exit.  Healthy replies arrive in
#: milliseconds, so this bounds how late a dead worker is noticed.
_POLL_S = 0.1


class DeadlineExceeded(RuntimeError):
    """A worker request missed its deadline (see
    ``SupervisorConfig.request_timeout_s``).  Internal to the serving
    path — callers of ``advise_v1`` see a degraded verdict, never this."""


def _route_key(code: str) -> int:
    """Shard-count-independent routing hash for a snippet (blake2b-based,
    stable across processes and runs, unlike the per-process-salted
    ``hash()``).  ``_route_key(code) % n_shards`` is the shard index —
    split out so bulk callers can hash outside the routing lock.  Derived
    from the snippet's 16-byte :func:`source_digest`."""
    return int.from_bytes(source_digest(code)[:8], "big")


def shard_of(code: str, n_shards: int) -> int:
    """Deterministic shard index for a snippet.

    Keyed on a blake2b digest of the source text, so a given snippet
    always hits the same shard's warm caches.
    """
    return _route_key(code) % n_shards


@dataclass(frozen=True)
class SupervisorConfig:
    """Fault-tolerance knobs for :class:`ShardedEngine`.

    **Deadlines** — every bulk serving request is sent with a deadline of
    ``request_timeout_s`` seconds (``None`` disables).  A request that
    misses it is retried once on a healthy shard, then on the in-process
    fallback engine, and finally answered with a *degraded* neutral
    verdict (``p = 0.5``, ``verdict = False``, ``degraded=True``)
    — callers always get an answer, never a hang or an exception.

    **Supervision** — a daemon thread wakes every
    ``heartbeat_interval_s`` seconds (``0`` disables supervision), reaps
    workers whose process died, and pings live workers over the normal
    reply plumbing; a worker that cannot answer a ping within
    ``heartbeat_timeout_s`` is wedged (stuck in a forward pass or a
    deadlock) and is terminated so its slot can be respawned.

    **Restart budget** — respawns of one slot back off exponentially
    (``restart_backoff_s`` doubling per consecutive failure, capped at
    ``restart_backoff_max_s``).  After ``restart_budget`` consecutive
    failures the slot is *degraded*: the supervisor stops fast-respawning
    (retrying only at the capped backoff) and traffic that cannot be
    served by the remaining shards falls through to an in-process engine
    built from the factory — a crash-looping checkpoint serves degraded
    instead of flapping the fleet.  A worker that answers a heartbeat
    resets its slot's budget.
    """

    request_timeout_s: Optional[float] = 30.0
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 10.0
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 30.0
    restart_budget: int = 3

    def __post_init__(self) -> None:
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0 (or None)")
        if self.heartbeat_interval_s < 0:
            raise ValueError("heartbeat_interval_s must be >= 0 (0 disables)")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.restart_backoff_s <= 0:
            raise ValueError("restart_backoff_s must be > 0")
        if self.restart_backoff_max_s < self.restart_backoff_s:
            raise ValueError(
                "restart_backoff_max_s must be >= restart_backoff_s")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")

    def backoff(self, consecutive_failures: int) -> float:
        """Restart delay after ``consecutive_failures`` failed respawns."""
        return min(self.restart_backoff_max_s,
                   self.restart_backoff_s * (2.0 ** consecutive_failures))


def _well_formed(result, expected: int) -> bool:
    """Whether a worker's ``ok`` reply can answer an ``expected``-snippet
    sub-batch: a non-string sequence of exactly that length.  A garbled
    IPC payload (chaos ``malformed``, a corrupted pipe) must be treated
    as a fault and retried, never scattered back to callers — a str is
    rejected explicitly because ``zip`` would happily pair its characters
    with request rows."""
    if isinstance(result, (str, bytes)):
        return False
    try:
        return len(result) == expected
    except TypeError:
        return False


def _dispatch(engine, method: str, payload):
    """Run one serving/control method against the worker's
    :class:`~repro.serve.registry.MultiModelEngine`.

    The serving payload is a list of snippets.  ``reload`` payloads are
    ``(path, version, segment)`` and ``start_canary`` payloads ``(path,
    fraction, version, segment)``; ``segment`` (``None`` when the rollout
    published no shared weights) goes to the engine as is, so an error
    inside a segment-mapped reload reaches the caller instead of being
    retried as a private load.  Any other method name raises."""
    if method == _SERVE:
        return engine.advise_full_many(payload)
    if method == "ping":
        return "pong"
    if method == "stats":
        return engine.stats()
    if method == "heads":
        return engine.head_names()
    if method == "reload":
        path, version, segment = payload
        return engine.reload(path, version=version, segment=segment)
    if method == "start_canary":
        path, fraction, version, segment = payload
        return engine.start_canary(path, fraction, version=version,
                                   segment=segment)
    if method == "canary_promote":
        return engine.promote()
    if method == "canary_rollback":
        return engine.rollback()
    raise ValueError(f"unknown worker method {method!r}")


def _worker_main(factory, requests, responses, reload_spec=None,
                 canary_spec=None, chaos=None, slot=0) -> None:
    """Worker loop: build the engine once, then serve method calls.

    ``reload_spec`` — a ``(checkpoint_path, version_tag, segment)``
    triple — replays the parent's last *successful* hot reload on a
    worker spawned after it (the supervisor respawning a dead slot): the
    factory closes over the registry the parent started with, so without
    the replay a respawned worker would serve pre-reload weights.  The
    parent-issued tag keeps every worker's ``model_version`` identical;
    ``segment``, when set, names the parent-owned shared weights segment
    the rollout published, so the replayed reload maps the fleet's one
    weight copy instead of re-deserializing the checkpoint.
    ``canary_spec`` — ``(path, fraction, version_tag, segment)`` —
    likewise replays a canary rollout that was live when the respawn
    began, so a respawned worker splits traffic exactly like its
    siblings.  A failed replay (the checkpoint vanished since) falls
    back to the weights already loaded and keeps serving — a live worker
    with a divergent ``model_version`` in ``/v1/stats`` beats a dead slot.

    Messages are ``(rid, method, payload)`` tuples on the ``requests``
    queue; replies are ``(rid, "ok", result)`` or ``(rid, "error",
    repr)`` — the echoed request id lets concurrent parent threads pair
    replies with their own requests, and a worker-side exception
    surfaces in the caller instead of hanging the shard.  The queue is
    FIFO, so requests sent before a rollout message are served on the
    weights they were sent for.  ``ping`` answers ``"pong"`` without
    touching the engine — the supervisor's heartbeat; because the loop
    is single-threaded, a worker wedged inside a serving call cannot
    answer and the missed heartbeat is what exposes it.  ``chaos`` (a
    :class:`~repro.serve.chaos.ChaosConfig`, tests/benches only) injects
    scheduled faults for worker ``slot`` before dispatching each serving
    call.
    """
    engine = factory()
    if reload_spec is not None:
        try:
            _dispatch(engine, "reload", reload_spec)
        except Exception:  # noqa: BLE001 — factory weights keep serving
            pass
    if canary_spec is not None:
        try:
            _dispatch(engine, "start_canary", canary_spec)
        except Exception:  # noqa: BLE001 — primary-only worker keeps serving
            pass
    serving_calls = 0
    try:
        while True:
            msg = requests.get()
            if msg == _STOP:
                return
            rid, method, payload = msg
            if method == _SERVE:
                call_index, serving_calls = serving_calls, serving_calls + 1
                if chaos is not None and inject_fault(
                        chaos, slot, call_index, responses, rid):
                    continue
            try:
                responses.put((rid, "ok", _dispatch(engine, method, payload)))
            except Exception as exc:  # noqa: BLE001 — relayed to the caller
                responses.put((rid, "error", f"{type(exc).__name__}: {exc}"))
    finally:
        engine.close()


class _Token(NamedTuple):
    """Handle for one in-flight worker request.

    Captures the response queue and process object *at send time*: if the
    supervisor respawns this slot with fresh queues, the caller still
    waits on the dead worker it sent to and sees that death as an error,
    never a reply meant for someone else.  ``deadline`` (monotonic
    seconds, ``None`` = wait forever) bounds the collect; ``tracked`` is
    whether the request counts toward the shard's queue depth (supervisor
    heartbeats do not — they would read as backlog in
    :meth:`ShardedEngine.queue_depth`).
    """

    rid: int
    shard: int
    responses: object
    worker: object
    deadline: Optional[float] = None
    tracked: bool = True


class ShardedEngine:
    """Advisor traffic partitioned across N worker processes.

    ``factory`` builds one :class:`~repro.serve.registry.MultiModelEngine`
    per worker.  :meth:`advise_v1`, the one serving call, routes per
    snippet by :func:`shard_of` over ``n_shards``, which never changes
    after construction, and preserves request order in the returned
    results.

    Thread-safe: replies carry request ids, so concurrent bulk calls (e.g.
    HTTP handler threads) run in parallel — per shard, whichever caller is
    reading parks any reply that is not its own for the thread it belongs
    to; calls on disjoint shards never contend.

    Every request — serving sub-batch or control message — travels over
    the worker's pickled request/reply queues; each worker lexes and
    encodes its own sub-batch (see the module docstring).
    """

    def __init__(
        self,
        factory: Callable[[], object],
        n_shards: int = 1,
        mp_context: Optional[str] = None,
        supervisor: Optional[SupervisorConfig] = None,
        chaos: Optional[ChaosConfig] = None,
        shared_weights: Optional[object] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        #: fault-tolerance knobs; defaults apply when not given
        self.supervisor = (supervisor if supervisor is not None
                           else SupervisorConfig())
        self._chaos = chaos
        self.routed: List[int] = []       # requests routed per slot, ever
        self._depth: List[int] = []       # sub-batches in flight per slot
        self._meta_lock = threading.Lock()   # routed/_depth/request ids
        self._route_lock = threading.RLock()  # slot contents + rollout specs
        self._rids = itertools.count()
        self._factory = factory
        self._reload_spec: Optional[Tuple[str, str, Optional[str]]] = None
        self._canary_spec: Optional[
            Tuple[str, float, str, Optional[str]]] = None
        self._reload_count = 0
        # one-copy weights: rollouts publish the checkpoint blob into a
        # parent-owned shared segment and broadcast its name instead of
        # having every worker read its own copy.  The parent keeps every
        # handle it ever created so close() unlinks them all even when
        # workers died mid-mapping; the *current* primary/canary segments
        # stay linked while live — respawned workers attach them by name
        # at replay.  ``shared_weights`` is the segment the factory's
        # registry is already bound to (``from_checkpoint(share=True)``).
        self._all_weights: List[object] = []
        self._weights_primary = shared_weights
        self._weights_canary = None
        if shared_weights is not None:
            self._all_weights.append(shared_weights)
        self._model_version = "0"
        self._workers: List[mp.Process] = []
        self._requests: List[mp.queues.Queue] = []
        self._responses: List[mp.queues.Queue] = []
        self._closed = False
        self._respawning = False  # a respawn is preparing outside _route_lock
        # fault-tolerance state (counters under _meta_lock)
        self._restarts = 0            # successful worker respawns
        self._faults = 0              # fault observations (dead/hung/garbled)
        self._deadline_exceeded = 0   # requests that missed their deadline
        self._retries = 0             # sub-batches retried after a fault
        self._degraded_answers = 0    # snippets answered with the neutral verdict
        self._fallback_answers = 0    # snippets served by the in-process fallback
        self._slot_restarts: List[int] = []   # consecutive failed respawns
        self._slot_next_retry: List[float] = []
        self._slot_degraded: List[bool] = []
        self._slot_spawns: List[int] = []     # spawn generation per slot
        self._abandoned: List[set] = []       # rids whose caller gave up
        self._fallback_lock = threading.Lock()
        self._fallback_engine = None
        self._fallback_failed = False
        self._stop_supervisor = threading.Event()
        self._supervisor_thread: Optional[threading.Thread] = None
        # reply plumbing: one reader at a time per shard; replies that
        # belong to another thread's request are parked in _pending
        self._recv_locks: List[threading.Lock] = []
        self._pending_locks: List[threading.Lock] = []
        self._pending: List[Dict[int, Tuple[str, object]]] = []
        if mp_context is None:
            mp_context = ("fork" if "fork" in mp.get_all_start_methods()
                          else "spawn")
        self._mp_ctx = mp.get_context(mp_context)
        for shard in range(n_shards):
            self._install_worker(shard, self._start_worker(shard, None, None))
        self._await_ready()
        if self.supervisor.heartbeat_interval_s > 0:
            self._supervisor_thread = threading.Thread(
                target=self._supervise_loop, name="advisor-supervisor",
                daemon=True)
            self._supervisor_thread.start()

    # -- worker lifecycle --------------------------------------------------

    def _start_worker(self, index: int,
                      reload_spec: Optional[Tuple[str, str]],
                      canary_spec: Optional[Tuple[str, float, str]]
                      ) -> Tuple:
        """Spawn a worker process for slot ``index`` (no routing changes).

        Deliberately runs *without* ``_route_lock``: process start can
        take a while and the slot is not routable until
        :meth:`_install_worker` publishes it.  ``reload_spec`` /
        ``canary_spec`` (the caller's snapshots of the last successful
        reload and any live canary) are replayed in the worker at startup
        so a respawned worker never serves pre-rollout weights and splits
        canary traffic like its siblings.  Every (re)spawn gets fresh
        queues; callers of the dead worker keep waiting on the old ones
        (see :class:`_Token`).
        """
        req: "mp.queues.Queue" = self._mp_ctx.Queue()
        resp: "mp.queues.Queue" = self._mp_ctx.Queue()
        # a respawned worker is only re-armed with the chaos schedule when
        # the schedule says so — by default the replacement is healthy
        spawned = (self._slot_spawns[index]
                   if index < len(self._slot_spawns) else 0)
        chaos = (self._chaos if self._chaos is not None
                 and (spawned == 0 or self._chaos.rearm) else None)
        proc = self._mp_ctx.Process(
            target=_worker_main,
            args=(self._factory, req, resp, reload_spec, canary_spec,
                  chaos, index),
            name=f"advisor-shard-{index}", daemon=True)
        proc.start()
        return proc, req, resp

    def _await_ready(self) -> None:
        """Ping every worker and wait for the replies, within one
        ``heartbeat_timeout_s`` in all.  A worker answers only once its
        factory has built the engine, so the first serving call does not
        pay worker start-up.  A worker that dies or misses the ping is
        left to the supervisor, as at any later heartbeat; construction
        never raises here."""
        deadline = time.monotonic() + self.supervisor.heartbeat_timeout_s
        tokens = [self._send(index, "ping", None, deadline=deadline,
                             tracked=False)
                  for index in range(self.n_shards)]
        for token in tokens:
            try:
                self._collect(token)
            except RuntimeError:  # died, or missed the deadline
                pass

    def _await_started(self, index: int, started: Tuple) -> None:
        """Ping a respawned worker on its own fresh queues and wait for
        the reply, within ``heartbeat_timeout_s``, before it is published:
        like :meth:`_await_ready` at construction, so the first request
        routed to a revived slot does not pay worker start-up.  A worker
        that dies or misses the ping is installed all the same and left
        to the supervisor's next pass."""
        proc, req, resp = started
        token = _Token(next(self._rids), index, resp, proc,
                       time.monotonic() + self.supervisor.heartbeat_timeout_s,
                       tracked=False)
        req.put((token.rid, "ping", None))
        try:
            self._reply(token)
        except RuntimeError:  # died, or missed the deadline
            pass

    def _install_worker(self, index: int, started: Tuple) -> None:
        """Publish a started worker into slot ``index``.

        Appends a new slot at construction or replaces a dead worker (the
        supervisor respawning it).  Per-slot locks and pending-reply
        parking are created once and never replaced — callers of the dead
        worker wait on the queue objects they captured in their
        :class:`_Token`.  Callers respawning into a live engine hold
        ``_route_lock``.
        """
        proc, req, resp = started
        if index == len(self._workers):
            self._workers.append(proc)
            self._requests.append(req)
            self._responses.append(resp)
            self._recv_locks.append(threading.Lock())
            self._pending_locks.append(threading.Lock())
            self._pending.append({})
            self._abandoned.append(set())
            self.routed.append(0)
            self._depth.append(0)
            self._slot_restarts.append(0)
            self._slot_next_retry.append(0.0)
            self._slot_degraded.append(False)
            self._slot_spawns.append(1)
        else:
            self._workers[index] = proc
            self._requests[index] = req
            self._responses[index] = resp
            self._slot_spawns[index] += 1

    # -- routing -----------------------------------------------------------

    def shard_of(self, code: str) -> int:
        """Shard index this engine routes ``code`` to."""
        return shard_of(code, self.n_shards)

    # -- worker IPC --------------------------------------------------------

    def _send(self, shard: int, method: str, payload,
              deadline: Optional[float] = None,
              tracked: bool = True) -> _Token:
        """Enqueue one request on ``shard``; returns its reply token.

        ``deadline`` (monotonic) bounds the later :meth:`_collect`;
        ``tracked=False`` (supervisor heartbeats) skips the queue-depth
        accounting so liveness probes never look like backlog."""
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        with self._route_lock:
            token = _Token(next(self._rids), shard,
                           self._responses[shard], self._workers[shard],
                           deadline, tracked)
            if tracked:
                with self._meta_lock:
                    self._depth[shard] += 1
            self._requests[shard].put((token.rid, method, payload))
        return token

    def _abandon(self, token: _Token) -> None:
        """Mark ``token``'s reply as unwanted (its caller timed out).

        A late reply that does arrive is dropped at parking time instead
        of sitting in ``_pending`` forever; a reply that was parked in
        the race window is dropped here."""
        shard = token.shard
        with self._pending_locks[shard]:
            if self._pending[shard].pop(token.rid, None) is None:
                self._abandoned[shard].add(token.rid)

    def _collect(self, token: _Token) -> Tuple[str, object]:
        """Wait for the reply to ``token``, parking other threads' replies.

        Raises ``RuntimeError`` if the worker dies before answering, and
        :class:`DeadlineExceeded` once ``token.deadline`` passes — the
        serving path turns both into a retry and, failing that, a
        degraded verdict."""
        shard = token.shard
        recv_lock = self._recv_locks[shard]
        try:
            while True:
                with self._pending_locks[shard]:
                    if token.rid in self._pending[shard]:
                        return self._pending[shard].pop(token.rid)
                if token.deadline is None:
                    recv_lock.acquire()
                else:
                    remaining = token.deadline - time.monotonic()
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            f"shard {shard} request missed its deadline")
                    # bounded acquire: the thread holding the lock may be
                    # waiting out its own (later) deadline
                    if not recv_lock.acquire(timeout=min(0.25, remaining)):
                        continue
                try:
                    # ours may have been parked while we waited for the lock
                    with self._pending_locks[shard]:
                        if token.rid in self._pending[shard]:
                            return self._pending[shard].pop(token.rid)
                    got_rid, status, result = self._reply(token)
                    if got_rid == token.rid:
                        return status, result
                    with self._pending_locks[shard]:
                        if got_rid in self._abandoned[shard]:
                            self._abandoned[shard].discard(got_rid)
                        else:
                            self._pending[shard][got_rid] = (status, result)
                finally:
                    recv_lock.release()
        except DeadlineExceeded:
            self._abandon(token)
            raise
        finally:
            if token.tracked:
                with self._meta_lock:
                    self._depth[shard] -= 1

    def _reply(self, token: _Token):
        """Next raw reply on ``token``'s queue, without hanging on a dead
        worker.

        Polls with a short timeout and, between polls, checks the worker is
        still alive — a factory that crashes at startup or a worker killed
        mid-request must surface as an error, not wedge callers forever —
        and whether ``token.deadline`` has passed (a *hung* worker is
        still alive; only the deadline unblocks its callers).  Queue and
        process come from the token, so a slot respawned by the
        supervisor cannot redirect a caller onto the wrong queue."""
        while True:
            timeout = _POLL_S
            if token.deadline is not None:
                timeout = min(_POLL_S, token.deadline - time.monotonic())
                if timeout <= 0:
                    raise DeadlineExceeded(
                        f"shard {token.shard} request missed its deadline")
            try:
                return token.responses.get(timeout=timeout)
            except queue_mod.Empty:
                if (token.deadline is not None
                        and time.monotonic() >= token.deadline):
                    raise DeadlineExceeded(
                        f"shard {token.shard} request missed its "
                        "deadline") from None
                if not token.worker.is_alive():
                    try:  # a final reply may still be in the queue's pipe
                        return token.responses.get(timeout=_POLL_S)
                    except queue_mod.Empty:
                        raise RuntimeError(
                            f"shard {token.shard} worker died (exitcode "
                            f"{token.worker.exitcode})") from None

    def _scatter_call(self, codes: Sequence[str]) -> List[AdviceResult]:
        """Fan ``codes`` out by shard, run each worker's sub-batch
        concurrently, and gather the results back in request order.

        Each sub-batch carries a deadline
        (``SupervisorConfig.request_timeout_s``).  A sub-batch whose
        worker died, whose reply was lost or garbled, or whose deadline
        passed is *not* an exception: it is retried once on a healthy
        shard, then on the in-process fallback engine, and finally
        answered with degraded neutral verdicts — every snippet always
        gets an answer.  Worker-side application errors (the engine
        itself raised) still raise, as before: they are deterministic
        and re-running them elsewhere would fail the same way."""
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        n = self.n_shards
        by_shard: Dict[int, List[int]] = {}
        for i, code in enumerate(codes):
            by_shard.setdefault(_route_key(code) % n, []).append(i)
        deadline = self._request_deadline()
        # send every sub-batch under one lock hold, so a rollout broadcast
        # lands either before or after all of them; workers overlap, and
        # collection happens outside the lock
        with self._route_lock:
            tokens: Dict[int, _Token] = {}
            for shard, rows in by_shard.items():
                with self._meta_lock:
                    self.routed[shard] += len(rows)
                tokens[shard] = self._send(
                    shard, _SERVE, [codes[i] for i in rows],
                    deadline=deadline)
        out: List = [None] * len(codes)
        failures: List[str] = []
        faulted: List[Tuple[int, List[int]]] = []
        for shard, rows in by_shard.items():
            try:
                status, result = self._collect(tokens[shard])
            except DeadlineExceeded:
                with self._meta_lock:
                    self._deadline_exceeded += 1
                faulted.append((shard, rows))
                continue
            except RuntimeError:
                with self._meta_lock:
                    self._faults += 1
                faulted.append((shard, rows))
                continue
            if status != "ok":
                failures.append(f"shard {shard} failed: {result}")
                continue
            if not _well_formed(result, len(rows)):
                with self._meta_lock:  # garbled IPC payload, not an answer
                    self._faults += 1
                faulted.append((shard, rows))
                continue
            for i, value in zip(rows, result):
                out[i] = value
        if failures:
            raise RuntimeError("; ".join(failures))
        for shard, rows in faulted:
            sub = [codes[i] for i in rows]
            result = self._retry_subbatch(sub, exclude=shard)
            if result is None:
                result = self._degraded_result(len(rows))
            for i, value in zip(rows, result):
                out[i] = value
        return out

    # -- fault handling ----------------------------------------------------

    def _request_deadline(self) -> Optional[float]:
        """Absolute (monotonic) deadline for a serving request sent now."""
        timeout = self.supervisor.request_timeout_s
        return None if timeout is None else time.monotonic() + timeout

    def _retry_subbatch(self, sub: List[str],
                        exclude: int) -> Optional[List[AdviceResult]]:
        """One retry of a faulted sub-batch: a live shard other than
        ``exclude`` first, the in-process fallback engine second.

        Returns the results, or ``None`` when nothing could answer (the
        caller falls back to degraded verdicts)."""
        with self._meta_lock:
            self._retries += 1
        token = None
        with self._route_lock:
            if not self._closed:
                n = self.n_shards
                target = next(
                    (s for s in ((exclude + k) % n for k in range(1, n))
                     if self._workers[s].is_alive()), None)
                if target is not None:
                    token = self._send(target, _SERVE, sub,
                                       deadline=self._request_deadline())
        if token is not None:
            try:
                status, result = self._collect(token)
                if status == "ok" and _well_formed(result, len(sub)):
                    return list(result)
            except DeadlineExceeded:
                with self._meta_lock:
                    self._deadline_exceeded += 1
            except RuntimeError:
                with self._meta_lock:
                    self._faults += 1
        fallback = self._fallback()
        if fallback is not None:
            try:
                result = fallback.advise_full_many(sub)
                with self._meta_lock:
                    self._fallback_answers += len(sub)
                return result
            except Exception:  # noqa: BLE001 — fall through to degraded
                pass
        return None

    def _fallback(self):
        """The lazily built in-process last-resort engine (or ``None``).

        Built from the same factory as the workers, in the parent, the
        first time a faulted sub-batch cannot be retried on any live
        shard.  A factory that itself raises (the crash-looping
        checkpoint being the reason the fleet is down) is remembered and
        not retried — callers then get degraded verdicts."""
        with self._fallback_lock:
            if self._fallback_engine is None and not self._fallback_failed:
                try:
                    self._fallback_engine = self._factory()
                except Exception:  # noqa: BLE001 — degraded verdicts instead
                    self._fallback_failed = True
            return self._fallback_engine

    def _degraded_result(self, count: int) -> List[AdviceResult]:
        """Explicit neutral verdicts for ``count`` unanswerable snippets.

        ``p = 0.5`` / ``verdict = False`` with ``degraded=True`` set —
        visibly *not* a model prediction, but a well-formed answer the
        HTTP layer can serialize, so a fleet-wide outage sheds accuracy
        instead of availability."""
        with self._meta_lock:
            self._degraded_answers += count
        return [AdviceResult(False, 0.5, degraded=True)
                for _ in range(count)]

    # -- supervision -------------------------------------------------------

    def _supervise_loop(self) -> None:
        """Daemon supervisor: one :meth:`_check_fleet` pass per
        ``heartbeat_interval_s`` tick until the engine closes.  The pass
        is exception-proofed — the supervisor surviving is the whole
        point of having one."""
        interval = self.supervisor.heartbeat_interval_s
        while not self._stop_supervisor.wait(interval):
            try:
                self._check_fleet()
            except Exception:  # noqa: BLE001 — supervision must survive
                pass

    def _check_fleet(self) -> None:
        """One supervision pass over every slot.

        A slot whose process died is revived (subject to its backoff
        schedule).  A live slot is pinged over the normal reply plumbing
        with a ``heartbeat_timeout_s`` deadline; because the worker loop
        is single-threaded, a worker wedged inside a serving call cannot
        answer — a missed ping means *hung*, and the only recovery is to
        terminate the process and revive the slot.  A slot that answers
        its ping is healthy: its restart budget and degraded flag reset.
        """
        cfg = self.supervisor
        for index in range(self.n_shards):
            with self._route_lock:
                if self._closed:
                    return
                proc = self._workers[index]
            if not proc.is_alive():
                self._revive(index)
                continue
            try:
                token = self._send(
                    index, "ping", None,
                    deadline=time.monotonic() + cfg.heartbeat_timeout_s,
                    tracked=False)
            except RuntimeError:  # closed mid-pass
                return
            try:
                status, _ = self._collect(token)
            except DeadlineExceeded:
                # alive but wedged — stuck forward pass, deadlock, chaos
                # hang; terminating it is the only way to free the slot
                proc.terminate()
                proc.join(timeout=1.0)
                self._revive(index)
            except RuntimeError:  # died while we waited
                self._revive(index)
            else:
                if status == "ok":
                    self._slot_restarts[index] = 0
                    self._slot_degraded[index] = False

    def _revive(self, index: int) -> None:
        """Respawn the dead worker in slot ``index``.

        Serialized against other revives via ``_respawning`` and paced by
        the slot's exponential-backoff schedule.  The respawn replays the
        remembered reload spec and any live canary (see
        :func:`_worker_main`), so a revived worker serves the fleet's
        current weights, not the factory's.  Once ``restart_budget``
        consecutive revives have failed the slot is marked *degraded*:
        retries slow to the capped backoff and the in-process fallback
        engine is warmed so traffic the dead slot owned still gets real
        answers.
        """
        cfg = self.supervisor
        now = time.monotonic()
        with self._route_lock:
            if (self._closed or self._respawning
                    or self._workers[index].is_alive()
                    or now < self._slot_next_retry[index]):
                return
            self._respawning = True
            reload_spec = self._reload_spec
            canary_spec = self._canary_spec
        try:
            with self._meta_lock:
                self._faults += 1
            attempt = self._slot_restarts[index]
            self._slot_restarts[index] = attempt + 1
            self._slot_next_retry[index] = now + cfg.backoff(attempt)
            if attempt >= cfg.restart_budget:
                # crash loop: degrade the slot instead of flapping, and
                # make sure the fallback engine is ready to answer for it
                self._slot_degraded[index] = True
                self._slot_next_retry[index] = (
                    now + cfg.restart_backoff_max_s)
                self._fallback()
            started = self._start_worker(index, reload_spec, canary_spec)
            self._await_started(index, started)
            with self._route_lock:
                if self._closed:  # closed while spawning: stop the orphan
                    started[1].put(_STOP)
                    return
                self._install_worker(index, started)
            with self._meta_lock:
                self._restarts += 1
        finally:
            self._respawning = False

    # -- serving -----------------------------------------------------------

    def advise_v1(self, requests: Sequence) -> List[AdviceResult]:
        """The advice entry point over the fleet: a batch of
        :class:`~repro.serve.api.AdviceRequest` (or bare snippet strings)
        in, :class:`~repro.serve.api.AdviceResult` out, with the
        operational context only the router knows stitched on — which
        arm a live canary routed each snippet to and the fleet-wide
        ``model_version``."""
        reqs = [AdviceRequest.of(r) for r in requests]
        if not reqs:
            return []
        if any(r.code is None for r in reqs):
            raise ValueError(
                "the fleet's workers own encoding; submit AdviceRequest "
                "with code=, not pre-encoded ids=")
        codes = [r.code for r in reqs]
        answers = self._scatter_call(codes)
        with self._route_lock:
            spec = self._canary_spec
            primary_version = self._model_version
        if spec is not None:
            from repro.serve.registry import canary_routes
        results: List[AdviceResult] = []
        for req, answer in zip(reqs, answers):
            canary = spec is not None and canary_routes(req.code, spec[1])
            results.append(replace(
                answer,
                model_version=spec[2] if canary else primary_version,
                arm="canary" if canary else "primary",
                id=req.id))
        return results

    # -- one-copy weight segments ------------------------------------------

    def _publish_weights(self, path: str):
        """Map ``path``'s weight blob into a fresh parent-owned shared
        segment for a rollout.

        A corrupt or pre-blob checkpoint raises ``ValueError`` here,
        before any worker is sent a message.  ``None`` only when the OS
        refuses the segment (or the checkpoint cannot be read, which the
        workers then report): workers fall back to private blob copies,
        trading memory for availability."""
        from repro.models.persistence import share_weights

        try:
            shared = share_weights(path)
        except OSError:
            return None
        with self._route_lock:
            self._all_weights.append(shared)
        return shared

    def _retire_segment(self, shared) -> None:
        """Unlink a segment that is no longer current.  POSIX drain
        semantics do the rest: workers still holding a mapping keep
        their pages until they close or die, but nothing can attach the
        retired name again — exactly what a superseded model version
        needs."""
        if shared is None:
            return
        try:
            shared.close()
        except Exception:  # noqa: BLE001 — exported views pin the buffer
            pass
        try:
            shared.unlink()
        except Exception:  # noqa: BLE001 — already unlinked
            pass

    def _unlink_weights(self) -> None:
        """Close-and-unlink every weight segment this engine ever
        created, current or retired — the parent owns them all precisely
        so /dev/shm ends clean even when workers died holding a
        mapping."""
        for shared in self._all_weights:
            self._retire_segment(shared)

    # -- hot reload --------------------------------------------------------

    def reload(self, path) -> Optional[str]:
        """Broadcast a checkpoint reload to every worker.

        Each worker's :class:`~repro.serve.registry.MultiModelEngine`
        swaps its heads atomically as described there, all under **one**
        parent-issued version tag so the whole fleet — including workers
        the supervisor respawns later, which replay the reload at startup
        — reports the same ``model_version``.  Raises if any worker fails —
        the error names the shards, shards that did reload keep the new
        weights (re-issue the reload after fixing the checkpoint), and
        the remembered replay spec reverts to the last *fully successful*
        reload so respawned workers never start from a known-bad
        checkpoint.  Returns the new version tag.
        """
        path = str(path)
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        if self._canary_spec is not None:
            raise RuntimeError(
                f"canary {self._canary_spec[2]} is active; promote() or "
                "rollback() it before reloading the primary")
        # publish the checkpoint blob into one shared segment *before*
        # broadcasting, so every worker maps the same copy instead of
        # reading the checkpoint N times
        shared = self._publish_weights(path)
        segment = None if shared is None else shared.name
        with self._route_lock:
            self._reload_count += 1
            version = f"v{self._reload_count}:{Path(path).name}"
            tokens = [self._send(shard, "reload", (path, version, segment))
                      for shard in range(self.n_shards)]
            # remembered under the lock: a respawn racing this reload
            # either sees the spec (and replays it) or its dead worker got
            # a broadcast token, which fails the reload
            previous_spec = self._reload_spec
            self._reload_spec = (path, version, segment)
        failures = self._failures(tokens)
        if failures:
            with self._route_lock:
                # don't poison respawned workers with a bad checkpoint
                if self._reload_spec == (path, version, segment):
                    self._reload_spec = previous_spec
            # shards that did reload keep their mapping (POSIX drain);
            # nobody new should attach a known-bad rollout's segment
            self._retire_segment(shared)
            raise RuntimeError("; ".join(failures))
        with self._route_lock:
            old, self._weights_primary = self._weights_primary, shared
            self._model_version = version
        if old is not shared:
            # the retired primary: unlinked now, freed when the last
            # worker snapshot holding it drains
            self._retire_segment(old)
        return version

    # -- canary rollout ----------------------------------------------------

    def _broadcast(self, method: str, payload) -> List[str]:
        """Send ``method`` to every shard and collect the failures
        (caller holds no locks; sends happen under ``_route_lock``)."""
        with self._route_lock:
            tokens = [self._send(shard, method, payload)
                      for shard in range(self.n_shards)]
        return self._failures(tokens)

    def _failures(self, tokens: Sequence[_Token]) -> List[str]:
        """Collect one broadcast's replies (token ``i`` went to shard
        ``i``) and return every failure, named by shard."""
        failures: List[str] = []
        for shard, token in enumerate(tokens):
            try:
                status, result = self._collect(token)
            except RuntimeError as exc:
                failures.append(str(exc))
                continue
            if status != "ok":
                failures.append(f"shard {shard} failed: {result}")
        return failures

    def start_canary(self, path, fraction: float,
                     version: Optional[str] = None) -> str:
        """Broadcast a canary rollout to every worker.

        The parent issues **one** version tag so the whole fleet —
        including workers the supervisor respawns mid-rollout, which
        replay the canary at spawn — agrees on the rollout's identity, and
        the digest-based arm split is identical on every worker by
        construction.  If any
        worker fails to start, the rollout is rolled back everywhere and
        the error raised — a traffic split only some shards honour is
        never left serving.  Returns the canary version tag.

        Promotion policies stay engine-level: in a fleet the operator (or
        an external controller watching ``/v1/stats``) decides, then calls
        :meth:`promote` / :meth:`rollback` to move every worker at once.
        """
        path = str(path)
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        shared = self._publish_weights(path)
        segment = None if shared is None else shared.name
        try:
            with self._route_lock:
                if self._canary_spec is not None:
                    raise RuntimeError(
                        f"canary {self._canary_spec[2]} already active; "
                        "promote() or rollback() it first")
                self._reload_count += 1
                if version is None:
                    version = f"v{self._reload_count}:{Path(path).name}"
                spec = (path, float(fraction), version, segment)
                tokens = [self._send(shard, "start_canary", spec)
                          for shard in range(self.n_shards)]
                self._canary_spec = spec
                self._weights_canary = shared
        except BaseException:
            # refused (canary already active) or the broadcast itself
            # blew up before the spec was remembered: drop the segment
            self._retire_segment(shared)
            raise
        failures = self._failures(tokens)
        if failures:
            try:  # drop the partial rollout everywhere, then report
                self.rollback()
            except RuntimeError:  # pragma: no cover — rollback best-effort
                pass
            raise RuntimeError("; ".join(failures))
        return version

    def promote(self) -> str:
        """Broadcast canary promotion: every worker atomically makes the
        canary its primary (see ``MultiModelEngine.promote``), and the
        remembered reload spec moves to the promoted checkpoint so
        workers respawned later replay it.  Raises with no canary active, or
        naming the shards that failed.  On a partial failure the canary
        spec is *kept*: shards that promoted hold the new weights, and
        re-issuing ``promote()`` converges the rest (already-promoted
        workers answer "no canary active", which is tolerated — the
        rollout is never left wedged with no API path to finish it).
        Returns the promoted version tag."""
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        with self._route_lock:
            if self._canary_spec is None:
                raise RuntimeError("no canary active")
            path, _, version, segment = self._canary_spec
        failures = [f for f in self._broadcast("canary_promote", None)
                    if "no canary active" not in f]
        if failures:
            raise RuntimeError("; ".join(failures))
        with self._route_lock:
            self._reload_spec = (path, version, segment)
            self._canary_spec = None
            # the canary segment *is* the new primary: promotion is just
            # a pointer flip, no new mapping anywhere in the fleet
            old = self._weights_primary
            self._weights_primary = self._weights_canary
            self._weights_canary = None
            self._model_version = version
        if old is not self._weights_primary:
            self._retire_segment(old)
        return version

    def rollback(self) -> None:
        """Broadcast canary rollback: every worker drops its canary arm
        and keeps serving the primary untouched.  Idempotent per shard —
        a worker that never started (or already dropped) its canary is
        not an error, so a partially started rollout can always be
        cleaned up.  Like :meth:`promote`, a partial failure keeps the
        canary spec so the rollback can simply be re-issued."""
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        with self._route_lock:
            if self._canary_spec is None:
                raise RuntimeError("no canary active")
        failures = [f for f in self._broadcast("canary_rollback", None)
                    if "no canary active" not in f]
        if failures:
            raise RuntimeError("; ".join(failures))
        with self._route_lock:
            self._canary_spec = None
            old, self._weights_canary = self._weights_canary, None
        self._retire_segment(old)

    # -- observability -----------------------------------------------------

    def head_names(self) -> List[str]:
        """Model heads hosted by the workers (asked of shard 0 — every
        worker is built by the same factory)."""
        status, result = self._collect(
            self._send(0, "heads", None, deadline=self._request_deadline()))
        if status != "ok":
            raise RuntimeError(f"shard 0 failed: {result}")
        return result

    def queue_depth(self) -> List[int]:
        """Per-shard count of requests sent but not yet answered."""
        with self._meta_lock:
            return list(self._depth)

    def stats(self) -> Dict[str, object]:
        """Aggregate + per-shard serving metrics.

        Shape: ``{"n_shards", "routed": [per-slot request counts],
        "queue_depth": [in-flight requests per shard], "shards":
        [per-worker ``MultiModelEngine.stats()`` snapshots], "combined":
        merged counters}`` — plus, when any worker answered,
        ``"model_version"``, ``"last_canary"`` and a ``"canary"`` block
        (``None``, or version, fraction, per-arm counters summed across
        workers, and ``shards_live`` — how many workers host the canary —
        while one is rolling out), and always a ``"supervisor"``
        block with the fault-tolerance counters (``restarts``, ``faults``,
        ``deadline_exceeded``, ``retries``, ``degraded_answers``,
        ``fallback_answers``, ``degraded_shards``), and a ``"weights"``
        block describing the one-copy weight segments.  A dead or wedged
        shard contributes an ``{"error": ...}`` placeholder instead of
        failing the whole snapshot — /v1/stats is the tool for diagnosing a
        broken fleet and must keep working while the fleet is broken.
        JSON-ready.
        """
        shards = self._scatter_stats()
        # error placeholders carry no counters: aggregate over healthy only
        healthy = [s for s in shards if "error" not in s]
        with self._meta_lock:
            routed = list(self.routed)
        out: Dict[str, object] = {
            "n_shards": self.n_shards,
            "routed": routed,
            "queue_depth": self.queue_depth(),
            "shards": shards,
            "combined": merge_stat_dicts(s["combined"] for s in healthy),
        }
        if healthy:
            out["model_version"] = healthy[0]["model_version"]
            live = [s["canary"] for s in healthy if s["canary"]]
            out["canary"] = None if not live else {
                "version": live[0]["version"],
                "fraction": live[0]["fraction"],
                "shards_live": len(live),
                "arms": {
                    arm: merge_arm_stats(c["arms"][arm] for c in live)
                    for arm in ("primary", "canary")
                },
            }
            out["last_canary"] = next(
                (s["last_canary"] for s in healthy if s["last_canary"]),
                None)
        with self._meta_lock:
            out["supervisor"] = {
                "request_timeout_s": self.supervisor.request_timeout_s,
                "restarts": self._restarts,
                "faults": self._faults,
                "deadline_exceeded": self._deadline_exceeded,
                "retries": self._retries,
                "degraded_answers": self._degraded_answers,
                "fallback_answers": self._fallback_answers,
                "degraded_shards": int(sum(self._slot_degraded)),
            }
        with self._route_lock:
            out["weights"] = {
                "mode": ("shared" if self._weights_primary is not None
                         else "private"),
                "primary_segment": (None if self._weights_primary is None
                                    else self._weights_primary.name),
                "canary_segment": (None if self._weights_canary is None
                                   else self._weights_canary.name),
                "segments_created": len(self._all_weights),
            }
        return out

    def _scatter_stats(self) -> List[Dict[str, object]]:
        """Per-worker stats snapshots, fault-tolerantly: a shard that is
        dead, wedged past the request deadline, or erroring contributes
        an ``{"error": ...}`` placeholder so the rest of the fleet still
        reports."""
        with self._route_lock:
            tokens = [self._send(shard, "stats", None,
                                 deadline=self._request_deadline())
                      for shard in range(self.n_shards)]
        snapshots: List[Dict[str, object]] = []
        for shard, token in enumerate(tokens):
            try:  # collect every live shard even if one died
                status, result = self._collect(token)
            except RuntimeError as exc:  # includes DeadlineExceeded
                snapshots.append({"error": str(exc)})
                continue
            if status != "ok" or not isinstance(result, dict):
                snapshots.append({"error": f"shard {shard}: {result}"})
            else:
                snapshots.append(result)
        return snapshots

    # -- lifecycle ---------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop all workers (idempotent); the engine is unusable after.

        Fault-tolerant by design: already-dead workers are reaped without
        raising, all joins share one ``timeout`` budget (a fleet of stuck
        workers cannot multiply it), workers that refuse to exit are
        terminated, and the queues are always released — close() must
        succeed on exactly the broken fleets the chaos tests create.
        """
        if self._closed:
            return
        self._closed = True
        self._stop_supervisor.set()
        if self._supervisor_thread is not None:
            self._supervisor_thread.join(timeout=1.0)
        with self._fallback_lock:
            fallback, self._fallback_engine = self._fallback_engine, None
        if fallback is not None:
            try:
                fallback.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        with self._route_lock:
            workers = list(self._workers)
            requests = list(self._requests)
            responses = list(self._responses)
        for req in requests:
            try:  # a dead worker's full pipe must not wedge close()
                req.put_nowait(_STOP)
            except Exception:  # noqa: BLE001 — queue broken or full
                pass
        deadline = time.monotonic() + timeout
        for proc in workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # stuck worker: the budget is spent
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (*requests, *responses):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # noqa: BLE001 — already closed
                pass
        # the parent owns every weight segment, so workers that died
        # holding a mapping cannot leak /dev/shm bytes past close()
        self._unlink_weights()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
