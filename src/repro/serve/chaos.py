"""Deterministic fault injection for the sharded advisor fleet.

The fault-tolerance layer in :mod:`repro.serve.sharding` — the worker
supervisor, per-request deadlines, and degraded verdicts — only earns
trust if its failure paths are *exercised*, and real worker crashes are
not reproducible.  :class:`ChaosConfig` makes them reproducible: it is a
frozen schedule of faults keyed on ``(worker slot, serving-call index)``
that every worker evaluates at exactly the same points on every run, so a
chaos test that passes once passes always and a failure bisects cleanly.

Five fault kinds, mirroring how production workers actually fail:

* ``kill`` — the worker process exits immediately (``os._exit``), the
  moral equivalent of an OOM kill or a segfault in a native extension.
* ``hang`` — the worker sleeps for ``hang_s`` before serving; with the
  default (an hour) the worker is wedged and only the supervisor's
  heartbeat can recover the slot.
* ``slow`` — the worker sleeps ``slow_s`` and then answers normally; the
  reply is late but correct (a GC pause, a cold cache).
* ``drop`` — the worker consumes the request and never replies, then
  keeps serving; the parent sees a *lost reply* from an otherwise-healthy
  process (a reply queue hiccup), which pre-deadline code hung on forever.
* ``malformed`` — the worker answers ``ok`` with a garbage payload
  (``malformed_payload``), standing in for a corrupted IPC message.

The worker loop hands ``inject_fault`` its reply queue: ``malformed``
puts a garbage pickled payload on it, ``drop`` consumes the request and
never replies, and ``kill`` exercises a worker dying between taking a
request off its queue and replying.

The schedule is injected at engine construction
(``ShardedEngine(..., chaos=ChaosConfig(...))``) and shipped to each
worker with its slot index; only worker processes consult it, the parent
(and its in-process fallback engine) never injects.  Used by
``tests/test_serve_faults.py`` and the fault-injection section of
``benchmarks/bench_serving_throughput.py``; wired into CI as the
``chaos-smoke`` stage (``scripts/check.sh --chaos``).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["ChaosConfig", "inject_fault"]

#: Fault kinds in precedence order: when one call index appears in several
#: schedules, the most disruptive fault wins.
FAULT_KINDS = ("kill", "hang", "drop", "malformed", "slow")


@dataclass(frozen=True)
class ChaosConfig:
    """A deterministic schedule of worker faults.

    Each ``*_at`` field lists the serving-call indices (0-based, counted
    per worker over the bulk serving methods only — pings, stats, and
    rollout broadcasts never advance the counter) at which that fault
    fires.  ``slots`` restricts the schedule to specific worker slots
    (``None`` = every slot).  A respawned worker starts a fresh call
    counter but is only re-armed when ``rearm`` is true — the default
    ``False`` models a transient fault (the replacement worker is
    healthy); ``rearm=True`` models a crash-looping checkpoint (every
    respawn dies again, exhausting the restart budget).
    """

    kill_at: Tuple[int, ...] = ()
    hang_at: Tuple[int, ...] = ()
    drop_at: Tuple[int, ...] = ()
    malformed_at: Tuple[int, ...] = ()
    slow_at: Tuple[int, ...] = ()
    slots: Optional[Tuple[int, ...]] = None
    rearm: bool = False
    hang_s: float = 3600.0
    slow_s: float = 0.25
    malformed_payload: object = field(default="\x00chaos-malformed-reply")
    exit_code: int = 17

    def applies_to(self, slot: int) -> bool:
        """Whether this schedule targets worker ``slot``."""
        return self.slots is None or slot in self.slots

    def fault_at(self, call_index: int) -> Optional[str]:
        """The fault kind scheduled for ``call_index``, or ``None``.

        Precedence follows ``FAULT_KINDS``: a call index listed under
        several fault kinds takes the most disruptive one.
        """
        for kind in FAULT_KINDS:
            if call_index in getattr(self, f"{kind}_at"):
                return kind
        return None

    @classmethod
    def seeded(cls, seed: int, n_calls: int, kills: int = 1, hangs: int = 0,
               drops: int = 0, malformed: int = 0, slows: int = 0,
               **overrides) -> "ChaosConfig":
        """Derive a schedule pseudo-randomly but reproducibly from ``seed``.

        Samples ``kills + hangs + drops + malformed + slows`` distinct
        call indices from ``range(n_calls)`` with a seeded generator and
        partitions them across the fault kinds, so benches can say "one
        kill and one hang somewhere in the trace" without hand-picking
        indices.  Extra keyword ``overrides`` pass through to the
        constructor (``slots``, ``hang_s``, ...).
        """
        counts = {"kill": kills, "hang": hangs, "drop": drops,
                  "malformed": malformed, "slow": slows}
        total = sum(counts.values())
        if total > n_calls:
            raise ValueError(f"cannot place {total} faults in {n_calls} calls")
        picks = random.Random(seed).sample(range(n_calls), total)
        schedule = {}
        cursor = 0
        for kind in FAULT_KINDS:
            take = counts[kind]
            schedule[f"{kind}_at"] = tuple(sorted(picks[cursor:cursor + take]))
            cursor += take
        return cls(**schedule, **overrides)


def inject_fault(chaos: ChaosConfig, slot: int, call_index: int,
                 responses, rid) -> bool:
    """Apply the fault scheduled at ``(slot, call_index)``, if any.

    Called by the worker loop before dispatching a serving request.
    ``responses`` is the worker's reply queue (anything exposing
    ``put((rid, "ok", payload))``).  Returns ``True``
    when the request was fully consumed by the fault (``drop``: no reply
    ever; ``malformed``: a garbage ``ok`` reply was already sent) — the
    worker must then skip normal dispatch.  ``kill`` never returns,
    ``hang``/``slow`` sleep and return ``False`` so the (late) request
    is still served.
    """
    if not chaos.applies_to(slot):
        return False
    fault = chaos.fault_at(call_index)
    if fault is None:
        return False
    if fault == "kill":
        os._exit(chaos.exit_code)
    if fault == "hang":
        time.sleep(chaos.hang_s)
        return False
    if fault == "slow":
        time.sleep(chaos.slow_s)
        return False
    if fault == "drop":
        return True
    # malformed: a well-formed envelope around a garbage result
    responses.put((rid, "ok", chaos.malformed_payload))
    return True
