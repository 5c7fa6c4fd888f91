"""Workload ``zipf_http``: open-loop Poisson arrivals of Zipf-repeated
snippets against ``repro serve --http`` in its own process.

The server runs with default settings and three untrained heads loaded
from a checkpoint (``--watch``).  One client process sends ``POST
/v1/advise`` over two keep-alive connections; each request is due at its
scheduled offset and is timed from then, so a stall also delays the
requests queued behind it.  A warm-up at the same rate runs first and is
not timed.

The measured time is split into ``TRIALS`` independent schedules.  At 30
requests/s two connections are two-thirds busy (every response waits
out a 40 ms delayed ACK), so one Poisson burst can back the queue up
for a second; the tail and the goodput are medians over trials so that
one burst does not decide the run.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (ROOT, SRC, HostWindow, LeakCheck, ProcSampler, median,
                    poisson_schedule, setup_time, tail, zipf_ranks)
from serving import (answer, distinct_snippets, make_checkpoint, reference,
                     same_answer)

RATE = 30.0          # offered requests per second
WARMUP_S = 5.0
POOL = 100           # distinct snippets behind the Zipf law
ZIPF_EXPONENT = 1.35
CONNECTIONS = 2
TRIALS = 4           # independent schedules per run; tails are medians
SLO_S = 0.100
SETUPS = 8
#: the generator counts as behind when its p99 slip exceeds this
LATE_LIMIT_S = 0.010

HERE = Path(__file__).resolve().parent


class Server:
    """One ``repro serve --http 0`` process; ``setup_s`` runs from launch
    to the first healthy ``/healthz``."""

    def __init__(self, checkpoint: Path, workdir: Path,
                 spans_path: Optional[Path] = None) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        if spans_path is None:
            env["PYTHONPATH"] = str(SRC)
            cmd = [sys.executable, "-m", "repro.cli"]
        else:
            env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
            cmd = [sys.executable, str(HERE / "launch_server.py"),
                   str(spans_path)]
        cmd += ["serve", "--http", "0", "--watch", str(checkpoint)]
        self._stderr = open(workdir / f"server-{time.monotonic_ns()}.err", "w")
        start = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=self._stderr)
        try:
            self.port = self._await_banner(timeout=60.0)
            self._await_healthy(timeout=30.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - start
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()

    def _await_banner(self, timeout: float) -> int:
        found: List[int] = []

        def read():
            for line in self.proc.stdout:
                if "listening on http://" in line:
                    found.append(int(line.split("http://", 1)[1]
                                     .split(" ", 1)[0].rsplit(":", 1)[1]))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if not found:
            raise RuntimeError("server did not announce its port "
                               f"(exit code {self.proc.poll()})")
        return found[0]

    def _await_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.get("/v1/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5)
        self._stderr.close()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def open_loop(port: int, offsets: List[float], codes: List[str],
              ids: List[str]) -> List[Dict]:
    """Send ``codes[i]`` at ``offsets[i]`` over ``CONNECTIONS`` keep-alive
    connections; each connection takes the next request in due order as
    soon as it is free.  Returns one record per request."""
    records: List[Optional[Dict]] = [None] * len(codes)
    bodies = [json.dumps({"id": rid, "code": code}).encode()
              for rid, code in zip(ids, codes)]
    headers = {"Content-Type": "application/json"}
    lock = threading.Lock()
    next_i = [0]
    t0 = time.monotonic() + 0.05

    def worker():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while True:
                with lock:
                    i = next_i[0]
                    if i >= len(codes):
                        return
                    next_i[0] += 1
                due = t0 + offsets[i]
                free = time.monotonic()
                if due > free:
                    time.sleep(due - free)
                sent = time.monotonic()
                status, body = 0, None
                try:
                    conn.request("POST", "/v1/advise", bodies[i], headers)
                    resp = conn.getresponse()
                    status, raw = resp.status, resp.read()
                    body = json.loads(raw)
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=30)
                done = time.monotonic()
                records[i] = {"due": due, "sent": sent, "done": done,
                              "late": sent - max(due, free),
                              "status": status, "body": body}
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


class Phase:
    """One server lifetime: a warm-up, then ``TRIALS`` open-loop trials
    of ``seconds / TRIALS`` each, every trial with its own seeded Poisson
    schedule and Zipf draws and drained before the next starts."""

    def __init__(self, server: Server, seed: int, seconds: float,
                 pool: List[str]) -> None:
        warm = zipf_ranks(POOL, round(RATE * WARMUP_S), ZIPF_EXPONENT,
                          seed * 100 + 99)
        open_loop(server.port,
                  poisson_schedule(RATE, WARMUP_S, seed * 100 + 99),
                  [pool[r] for r in warm], [f"w{i}" for i in range(len(warm))])
        self.trial_s = seconds / TRIALS
        self.codes: List[str] = []
        self.ids: List[str] = []
        self.records: List[Dict] = []
        self.windows = []
        self.stats0 = server.get("/v1/stats")[1]
        with ProcSampler([server.proc.pid]) as sampler:
            window = HostWindow(sampler)
            for k in range(TRIALS):
                offsets = poisson_schedule(RATE, self.trial_s, seed * 100 + k)
                ranks = zipf_ranks(POOL, len(offsets), ZIPF_EXPONENT,
                                   seed * 100 + k)
                codes = [pool[r] for r in ranks]
                ids = [f"r{k}-{i}" for i in range(len(offsets))]
                records = open_loop(server.port, offsets, codes, ids)
                for rec in records:
                    rec["trial"] = k
                self.windows.append((records[0]["due"],
                                     max(r["done"] for r in records)))
                self.codes += codes
                self.ids += ids
                self.records += records
            self.host = window.close()
        self.peak_rss_mb = sampler.peak_rss / 2**20
        self.stats1 = server.get("/v1/stats")[1]

    def latencies(self, trial: Optional[int] = None) -> List[float]:
        return [r["done"] - r["due"] for r in self.records
                if trial is None or r["trial"] == trial]

    def achieved_per_s(self) -> float:
        return len(self.records) / sum(hi - lo for lo, hi in self.windows)


def _engine_delta(phase: Phase) -> Dict[str, float]:
    a = phase.stats0["engine"]["combined"]
    b = phase.stats1["engine"]["combined"]
    return {k: b.get(k, 0) - a.get(k, 0) for k in
            ("cache_hits", "cache_misses", "coalesced", "batches",
             "model_rows")}


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Dict:
    checkpoint = make_checkpoint(workdir / "ckpt")
    pool = distinct_snippets(POOL, seed)
    leaks = LeakCheck()
    setups = []
    for _ in range(SETUPS - 1):
        server = Server(checkpoint, workdir)
        setups.append(server.setup_s)
        server.stop()
    server = Server(checkpoint, workdir)
    setups.append(server.setup_s)
    try:
        phase = Phase(server, seed, seconds, pool)
    finally:
        server.stop()
    traced = None
    if trace:
        spans_path = workdir / "server-spans.json"
        server = Server(checkpoint, workdir, spans_path=spans_path)
        try:
            traced = Phase(server, seed, seconds, pool)
        finally:
            server.stop()
        traced.spans = json.loads(spans_path.read_text())
    leak = leaks.finish()

    expected = reference(checkpoint, phase.codes)
    good = [0] * TRIALS
    failed = 0
    for code, rid, rec in zip(phase.codes, phase.ids, phase.records):
        body = rec["body"]
        # every pool snippet is clean: a degraded answer is a failure
        ok = (rec["status"] == 200 and isinstance(body, dict)
              and body.get("id") == rid and body.get("degraded") is False
              and same_answer(answer(body), expected[code]))
        failed += not ok
        good[rec["trial"]] += ok and rec["done"] - rec["due"] <= SLO_S
    failed += leak["leaks"]
    attempted = len(phase.records) + leak["leaks"]

    lates = sorted(r["late"] for r in phase.records)
    late_p99 = lates[min(len(lates) - 1, int(0.99 * len(lates)))]
    achieved = phase.achieved_per_s()
    offered = RATE
    behind = late_p99 > LATE_LIMIT_S or achieved < 0.95 * offered
    if behind:
        print(f"perfbench: WARNING zipf_http generator fell behind "
              f"(late p99 {1e3 * late_p99:.2f} ms, achieved {achieved:.2f} "
              f"of {offered:.2f} req/s)", file=sys.stderr)
    tails = [tail(phase.latencies(k)) for k in range(TRIALS)]
    goodput = [g / len(phase.latencies(k)) for k, g in enumerate(good)]
    info = {
        "requests": len(phase.records),
        "trial_tails_ms": [1e3 * v for v, _ in tails],
        "tail_percentile": tails[0][1],
        "trial_goodput": goodput,
        "offered_per_s": offered,
        "achieved_per_s": achieved,
        "gen_late_p99_ms": 1e3 * late_p99,
        "generator_behind": behind,
        "leaks": leak,
        "setups_s": setups,
    }
    metrics = {
        "setup_s": setup_time(setups),
        "peak_rss_mb": phase.peak_rss_mb,
        "latency_p50_ms": 1e3 * median(phase.latencies()),
        "latency_tail_ms": 1e3 * median([v for v, _ in tails]),
        "throughput_per_s": achieved,
        "goodput_frac": median(goodput) * (len(phase.records) / attempted),
    }
    layers = None
    if traced is not None:
        layers = _layer_metrics(phase, traced)
        layers.update({"gen.offered_per_s": offered,
                       "gen.achieved_per_s": achieved,
                       "gen.late_p99_ms": 1e3 * late_p99})
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "layers": layers, "info": info}


def _layer_metrics(phase: Phase, traced: Phase) -> Dict[str, float]:
    from spans import SpanSet, model_metrics

    spans = SpanSet(traced.spans).within(traced.windows)
    registry = {s.attrs["id"]: s for s in spans.layer("registry")
                if s.attrs and s.attrs.get("id")}
    http_self = [(r["done"] - r["sent"]) - registry[rid].duration
                 for rid, r in zip(traced.ids, traced.records)
                 if rid in registry]
    delta = _engine_delta(traced)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    out = model_metrics(spans)
    out.update({
        "http_api.self_ms_p50": 1e3 * median(http_self),
        "http_api.self_ms_tail": 1e3 * tail(http_self)[0],
        "registry.self_ms_p50": 1e3 * median(
            [spans.self_time(s) for s in registry.values()]),
        "engine.cache_hit_ratio": delta["cache_hits"] / lookups
        if lookups else 0.0,
        "engine.coalesced": delta["coalesced"],
        "engine.rows_per_batch": delta["model_rows"] / delta["batches"]
        if delta["batches"] else 0.0,
        "lex.calls_per_request": len(spans.layer("lex"))
        / len(traced.records),
        "trace.coverage": spans.coverage(traced.windows),
        "trace.overhead_frac": median(traced.latencies())
        / median(phase.latencies()) - 1.0,
    })
    out.update(phase.host)
    return out
