"""Shared arithmetic and host plumbing for the repo benchmark.

Everything here is deliberately independent of ``repro``: percentile and
interval arithmetic, the seeded input schedules, the ``/proc`` sampler
that measures the program's processes, the leak check and the
environment record.  ``selftest.py`` pins the arithmetic.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (listed in .gitignore)
OUT_DIR = ROOT / ".perfbench"

#: ``/dev/shm`` name prefixes the program creates (rings, one-copy
#: weights, DDP arenas); any left behind after a workload is a leak
SHM_PREFIXES = ("repro-ring", "repro-weights", "repro-ddp")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- percentiles and intervals ------------------------------------------------

def tail_rank(n: int) -> Optional[int]:
    """Index (into the sorted samples) of the highest percentile that
    still has at least ten samples beyond it, or ``None`` when ``n < 11``."""
    return n - 11 if n >= 11 else None


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least ten
    samples beyond it.  With fewer than eleven samples no percentile
    qualifies and the maximum is reported (percentile 100)."""
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    k = tail_rank(len(ordered))
    if k is None:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def setup_time(samples: Sequence[float]) -> float:
    """``setup_s`` of a run: the mean of its timed set-ups.  Set-up
    times fall into modes tens of milliseconds or more apart (a fleet's
    first answer either waits out a worker wake-up or not), so a run's
    median flips between modes from run to run while the mean moves
    with the share of each; an outlier run is absorbed by the median
    over runs."""
    if not samples:
        raise ValueError("setup time of an empty sample")
    return float(statistics.fmean(samples))


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover
    (children may overlap each other and are clipped to the span)."""
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children]
    return (end - start) - union_length(clipped)


# -- seeded input schedules ---------------------------------------------------

def poisson_schedule(rate: float, seconds: float, seed: int) -> List[float]:
    """Arrival offsets (s) of a Poisson process of ``rate`` over
    ``seconds``, conditioned on exactly ``round(rate * seconds)`` arrivals:
    given the count, Poisson arrival times are independent uniforms, so
    the offered rate is exact while the gaps stay exponential."""
    rng = random.Random(f"poisson:{seed}")
    n = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(n))


def zipf_ranks(n_items: int, n_draws: int, exponent: float,
               seed: int) -> List[int]:
    """``n_draws`` item indices in ``[0, n_items)`` with P(rank r) ∝
    1/(r+1)^exponent — a finite Zipf law, no clipping at the tail."""
    weights = [1.0 / (r + 1) ** exponent for r in range(n_items)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    rng = random.Random(f"zipf:{seed}")
    return [min(bisect.bisect_left(cdf, rng.random()), n_items - 1)
            for _ in range(n_draws)]


def mix_positions(n_total: int, n_marked: int, seed: int) -> List[bool]:
    """A deterministic boolean mask of length ``n_total`` with exactly
    ``n_marked`` True entries at seeded positions (the fuzz-mutant mix)."""
    rng = random.Random(f"mix:{seed}")
    marked = set(rng.sample(range(n_total), n_marked))
    return [i in marked for i in range(n_total)]


# -- /proc sampling -------------------------------------------------------------

def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may hold spaces and parens: fields restart after the last ')'
    return raw[raw.rfind(")") + 2:].split()


def descendants(root: int) -> List[int]:
    """Live descendant pids of ``root`` (not including it)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def cpu_seconds(pids: Iterable[int]) -> float:
    """utime+stime plus reaped children's time, summed over ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += sum(int(f) for f in fields[11:15])
    return total / _CLK_TCK


def peak_rss_bytes(pid: int) -> int:
    """The process's RSS high-water mark (``VmHWM``): the kernel keeps
    it, so a short allocation peak between two samples still counts."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    return 0


def involuntary_switches(pid: int) -> Dict[int, int]:
    """``{tid: nonvoluntary_ctxt_switches}`` for every thread of ``pid``."""
    out: Dict[int, int] = {}
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("nonvoluntary_ctxt_switches:"):
                out[int(tid)] = int(line.split()[1])
    return out


class ProcSampler:
    """Samples the program's process tree on a background thread.

    ``roots`` are the processes that make up the program (with their
    descendants).  Tracks the peak over samples of the live processes'
    summed RSS high-water marks, CPU time between
    :meth:`mark` calls, and involuntary context switches per thread
    (kept at the last value seen, so threads and processes that exit
    mid-run still count up to their last sample)."""

    #: ticks between full refreshes (process tree and thread switches);
    #: a full refresh scans /proc and costs milliseconds of the measured
    #: process's time, a tick only reads the known processes' RSS peaks
    REFRESH_TICKS = 5

    def __init__(self, roots: Sequence[int], interval: float = 0.1) -> None:
        self.roots = list(roots)
        self.interval = interval
        self.peak_rss = 0
        self._switches: Dict[Tuple[int, int], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._tick = 0
        self._pids: List[int] = []

    def pids(self) -> List[int]:
        out = []
        for root in self.roots:
            out.append(root)
            out.extend(descendants(root))
        return out

    def sample(self, full: bool = True) -> None:
        if full:
            self._pids = self.pids()
            for pid in self._pids:
                for tid, n in involuntary_switches(pid).items():
                    with self._lock:
                        self._switches[(pid, tid)] = n
        rss = sum(peak_rss_bytes(pid) for pid in self._pids)
        with self._lock:
            self.peak_rss = max(self.peak_rss, rss)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._tick += 1
            self.sample(full=self._tick % self.REFRESH_TICKS == 0)

    def switches(self) -> int:
        with self._lock:
            return sum(self._switches.values())

    def __enter__(self) -> "ProcSampler":
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-sampler")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.sample()


class HostWindow:
    """CPU busy share and involuntary switches of the program over one
    measured window, from :class:`ProcSampler` readings."""

    def __init__(self, sampler: ProcSampler) -> None:
        self.sampler = sampler
        sampler.sample()
        self.t0 = time.monotonic()
        self.cpu0 = cpu_seconds(sampler.pids())
        self.sw0 = sampler.switches()

    def close(self) -> Dict[str, float]:
        self.sampler.sample()
        wall = time.monotonic() - self.t0
        cpu = cpu_seconds(self.sampler.pids()) - self.cpu0
        return {
            "host.cpu_busy_frac": cpu / (wall * (os.cpu_count() or 1)),
            "host.involuntary_switches": self.sampler.switches() - self.sw0,
        }


# -- leaks ------------------------------------------------------------------------

def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith(SHM_PREFIXES)}
    except OSError:
        return set()


def _is_resource_tracker(pid: int) -> bool:
    """The stdlib's shared-memory resource tracker: one helper per
    interpreter that lives as long as the interpreter, not a leak."""
    try:
        return b"resource_tracker" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def stop_resource_tracker() -> None:
    """End this interpreter's resource tracker and wait for it (it
    ignores SIGTERM; closing its pipe is how it is stopped)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def reap_children(grace_s: float = 3.0,
                  keep_tracker: bool = False) -> List[int]:
    """Descendants of this process still alive after ``grace_s``.  They
    are leaks: each is terminated (then killed) and waited for, so the
    benchmark never leaves a process behind.  ``keep_tracker`` spares
    the interpreter's resource tracker."""
    def alive():
        return [pid for pid in descendants(os.getpid()) if _alive(pid)
                and not (keep_tracker and _is_resource_tracker(pid))]

    deadline = time.monotonic() + grace_s
    left = alive()
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        _reap_zombies()
        left = alive()
    for sig in (15, 9):
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        end = time.monotonic() + 2.0
        while time.monotonic() < end and any(_alive(p) for p in left):
            _reap_zombies()
            time.sleep(0.05)
    _reap_zombies()
    return left


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class LeakCheck:
    """Leak check around one workload: new ``/dev/shm`` segments under
    the program's prefixes, and child processes still alive."""

    def __init__(self) -> None:
        self.before = shm_segments()

    def finish(self) -> Dict[str, object]:
        procs = reap_children(keep_tracker=True)
        segments = sorted(shm_segments() - self.before)
        return {"leaked_segments": segments, "leaked_processes": procs,
                "leaks": len(segments) + len(procs)}


# -- environment record -------------------------------------------------------

def _blas_info() -> Dict[str, object]:
    import ctypes

    import numpy as np

    info: Dict[str, object] = {"name": None, "version": None, "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    libs = set()
    try:
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "blas" in path.lower() and ".so" in path:
                libs.add(path)
    except OSError:
        pass
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def _machine_busy(window_s: float = 0.25) -> float:
    """Share of all CPUs busy over a short window (whole machine)."""
    def snap():
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
        values = [int(v) for v in fields]
        idle = values[3] + (values[4] if len(values) > 4 else 0)
        return sum(values), idle

    total0, idle0 = snap()
    time.sleep(window_s)
    total1, idle1 = snap()
    span = total1 - total0
    return 0.0 if span <= 0 else 1.0 - (idle1 - idle0) / span


def source_digest() -> str:
    """sha256 over the program's sources, so a run names the code it
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(workload: str, seed: int) -> Dict[str, object]:
    import numpy as np

    nproc = os.cpu_count() or 1
    load = os.getloadavg()
    busy = _machine_busy()
    env = {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "loadavg": [round(x, 2) for x in load],
        "machine_busy_frac": round(busy, 3),
        "blas": _blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    quiet = load[0] <= 0.5 * nproc and busy <= 0.2
    env["quiet"] = quiet
    if not quiet:
        print(f"perfbench: WARNING machine not quiet (loadavg {load[0]:.2f} "
              f"on {nproc} cpus, {busy:.0%} busy before start); timings "
              "may be inflated", file=sys.stderr)
    return env


def finite(value: float) -> float:
    """The value as measured, every digit kept; non-finite values become
    0 so the JSON stays valid."""
    return float(value) if math.isfinite(value) else 0.0
