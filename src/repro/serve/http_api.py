"""Dependency-free HTTP front-end for the advisor service.

Built on stdlib :mod:`http.server` (``ThreadingHTTPServer``) so the repo
stays free of web-framework dependencies.  The server fronts any *advisor*
object exposing ``advise_v1(requests)`` and ``stats()`` — in practice a
:class:`~repro.serve.registry.MultiModelEngine` or a
:class:`~repro.serve.sharding.ShardedEngine` wrapping one per worker.

Endpoints (all JSON, all under ``/v1/``; the route table is
:data:`ROUTES`; schemas and ``curl`` examples in ``docs/serving.md``):

* ``POST /v1/advise`` — body ``{"code": "..."}``; replies with the
  combined directive + clause verdict in the v1 result schema
  (:meth:`repro.serve.api.AdviceResult.as_dict`).
* ``POST /v1/advise/batch`` — body ``{"codes": [...]}`` or
  ``{"requests": [{"id": ..., "code": "..."}]}``; replies
  ``{"results": [...]}`` in request order, one v1 result per snippet,
  echoing ids when given.
  Invalid *items* (missing/empty/non-string code) get a per-item
  ``{"id", "error"}`` entry in the 200 reply instead of failing the
  whole batch; only body-structure problems answer 400.
* ``GET /v1/healthz`` — liveness probe: ``{"status": "ok", "heads": [...]}``;
  answers ``503 {"status": "unhealthy"}`` when the advisor cannot list its
  heads (for a sharded advisor this round-trips a worker process).
* ``GET /v1/stats`` — the advisor's live metrics snapshot plus HTTP-level
  request counters and ``schema_version`` (see
  :data:`repro.serve.api.SCHEMA_VERSION`), so clients can detect the
  surface.
* ``POST /v1/reload`` — hot-swap the advisor to a new checkpoint
  directory: body ``{"path": "advisor_ckpt/"}``, or an empty body to
  reload the server's default checkpoint directory (set by ``repro serve
  --watch`` / :func:`make_server`'s ``reload_dir``).  Replies with the new
  ``model_version``; ``501`` when the advisor cannot hot-reload, ``500``
  (old weights keep serving) when the checkpoint is bad.
* ``POST /v1/canary`` — start a canary rollout: body
  ``{"path": "ckpt_v2/", "fraction": 0.1}`` routes the digest slice to
  the new checkpoint (``fraction`` defaults to 0.1).  Replies with the
  canary ``version``; ``409`` when a canary is already active, ``501``
  when the advisor cannot canary, ``500`` (primary untouched) when the
  checkpoint is bad.  Watch the per-arm counters under ``canary`` in
  ``GET /v1/stats``, then finish with ``POST /v1/canary/promote``
  (replies with the promoted ``model_version``) or
  ``POST /v1/canary/rollback`` — both take no body and answer ``409``
  with no canary active.

Malformed requests get ``400`` with ``{"error": ...}``; a known path
under another method gets ``405`` with an ``Allow`` header; every other
path (including the bare ones without ``/v1/``) gets ``404``; the serving
loop never dies on a bad request.  A request whose declared body the handler
never reads is answered with ``Connection: close``, so the unread bytes
are never parsed as the next request line.  Bodies that are
not valid UTF-8 are re-decoded with replacement characters when the bad
bytes sit inside JSON string values (the robust lexer downstream treats
U+FFFD like any other dirty byte) and answered with a structured ``400``
when they corrupt the JSON framing — either way the ``invalid_body``
counter in the ``/v1/stats`` admission block ticks.  JSON the parser
refuses for size (ints past the int-string digit limit, runaway
nesting) is a ``400`` too.  **Admission
control** (:class:`AdmissionConfig`) protects the advisor behind the
endpoints: oversized bodies are rejected with ``413`` before they are
read, batches above the snippet cap with ``400``, traffic beyond the
in-flight limit is shed with ``429`` + ``Retry-After``, and a circuit
breaker answers ``503`` while the fleet is rebuilding after consecutive
inference failures (half-open probes after the cooldown re-close it).
``/v1/healthz`` and ``/v1/stats`` bypass admission — observability must keep
working exactly when the service is shedding.  Start the server from the
CLI with ``repro serve --http PORT`` or programmatically via
:func:`make_server` / :func:`serve_forever`.  The operator's guide to the
lifecycle (probing, reload, canary rollouts, failure modes) is
``docs/operations.md``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.serve.api import SCHEMA_VERSION, AdviceRequest

__all__ = ["ROUTES", "AdmissionConfig", "AdvisorHTTPServer",
           "make_server", "serve_forever"]

#: Largest accepted request body (bytes) — snippets are loop nests, not
#: whole programs; an oversized body gets a 413 instead of an allocation.
MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control knobs for :class:`AdvisorHTTPServer`.

    Requests are refused *before* they cost inference capacity:

    * ``max_body_bytes`` — request bodies above this are answered ``413``
      without being read.
    * ``max_batch_snippets`` — ``/v1/advise/batch`` requests with more
      snippets are answered ``400``; one batch must not monopolize the
      fleet.
    * ``max_inflight`` — serving requests (``/v1/advise``,
      ``/v1/advise/batch``) already being processed; beyond it new ones are
      *shed* with ``429`` and a ``Retry-After: retry_after_s`` header
      instead of queueing into a latency collapse.
    * ``breaker_threshold`` — consecutive inference failures that open
      the circuit breaker; while open, serving requests are answered
      ``503`` immediately.  After ``breaker_cooldown_s`` the breaker
      goes *half-open*: requests flow again, the first success closes it
      and the next failure re-opens it — probing the fleet without
      stampeding it mid-rebuild.
    """

    max_body_bytes: int = MAX_BODY_BYTES
    max_batch_snippets: int = 400
    max_inflight: int = 64
    retry_after_s: float = 1.0
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.max_batch_snippets < 1:
            raise ValueError("max_batch_snippets must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be > 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be > 0")


class AdvisorHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning the advisor, request counters, and the
    admission-control state (in-flight gauge + circuit breaker)."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], advisor,
                 reload_dir: Optional[str] = None,
                 admission: Optional[AdmissionConfig] = None) -> None:
        super().__init__(address, _AdvisorHandler)
        self.advisor = advisor
        #: default checkpoint directory for body-less ``POST /v1/reload``
        self.reload_dir = str(reload_dir) if reload_dir is not None else None
        #: admission-control knobs; defaults apply when not given
        self.admission = (admission if admission is not None
                          else AdmissionConfig())
        self._counter_lock = threading.Lock()
        self._inflight = 0
        self._invalid_body = 0
        self._breaker_failures = 0
        self._breaker_open_until = 0.0
        self.http_requests: Dict[str, int] = {
            "advise": 0, "advise_batch": 0, "healthz": 0, "stats": 0,
            "reload": 0, "canary": 0, "canary_promote": 0,
            "canary_rollback": 0, "errors": 0, "shed": 0,
            "breaker_rejected": 0,
        }

    def bump(self, key: str) -> None:
        """Increment one request counter (handler threads run concurrently,
        and ``dict[k] += 1`` is a lost-update race without the lock)."""
        with self._counter_lock:
            self.http_requests[key] += 1

    def counters(self) -> Dict[str, int]:
        """Consistent snapshot of the request counters."""
        with self._counter_lock:
            return dict(self.http_requests)

    # -- admission control -------------------------------------------------

    def try_acquire(self) -> bool:
        """Claim one in-flight serving slot; ``False`` means shed (429).
        Every ``True`` must be paired with a :meth:`release`."""
        with self._counter_lock:
            if self._inflight >= self.admission.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        """Return an in-flight serving slot claimed by :meth:`try_acquire`."""
        with self._counter_lock:
            self._inflight -= 1

    def record_invalid_body(self) -> None:
        """Count one request body that failed strict UTF-8 decoding —
        whether it was salvaged with replacement characters or rejected."""
        with self._counter_lock:
            self._invalid_body += 1

    def breaker_allows(self) -> bool:
        """Whether the circuit breaker admits serving traffic right now
        (closed, or half-open after the cooldown)."""
        with self._counter_lock:
            return time.monotonic() >= self._breaker_open_until

    def record_outcome(self, ok: bool) -> None:
        """Feed one inference outcome to the circuit breaker: a success
        closes it, ``breaker_threshold`` consecutive failures open it for
        ``breaker_cooldown_s``."""
        with self._counter_lock:
            if ok:
                self._breaker_failures = 0
                self._breaker_open_until = 0.0
            else:
                self._breaker_failures += 1
                if self._breaker_failures >= self.admission.breaker_threshold:
                    self._breaker_open_until = (
                        time.monotonic() + self.admission.breaker_cooldown_s)

    def admission_stats(self) -> Dict[str, object]:
        """JSON-ready admission snapshot for ``/v1/stats``."""
        with self._counter_lock:
            return {
                "max_inflight": self.admission.max_inflight,
                "inflight": self._inflight,
                "max_batch_snippets": self.admission.max_batch_snippets,
                "max_body_bytes": self.admission.max_body_bytes,
                "invalid_body": self._invalid_body,
                "breaker_failures": self._breaker_failures,
                "breaker_open": time.monotonic() < self._breaker_open_until,
            }


class _AdvisorHandler(BaseHTTPRequestHandler):
    """Request handler: dispatches every request through :data:`ROUTES`,
    JSON in/out."""

    server_version = "repro-advisor/1.0"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: with Nagle on, a reply that
    #: leaves in more than one segment waits out the client's delayed ACK
    #: (~40 ms on Linux) before its tail is sent
    disable_nagle_algorithm = True
    #: whether the current request declared a body nobody has read yet
    _body_unread = False

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter; /v1/stats is the observability
        surface."""

    def _send_json(self, status: int, payload: Dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self._body_unread:
            # the unread body would be parsed as the next request line
            self.close_connection = True
        if self.close_connection:
            self.send_header("Connection", "close")
        # what end_headers() would do, with the body appended: status line,
        # headers and body leave in one sendall instead of two writes; a
        # HEAD reply declares the body's length but carries none
        self._headers_buffer.extend(
            (b"\r\n", b"" if self.command == "HEAD" else body))
        self.flush_headers()

    def _error(self, status: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> None:
        self.server.bump("errors")
        # error paths may leave an unread request body on the keep-alive
        # socket; closing the connection stops it being parsed as the next
        # request line
        self.close_connection = True
        self._send_json(status, {"error": message}, headers=headers)

    def _route(self) -> None:
        """Dispatch one request to its :data:`ROUTES` handler; a routed
        path under another method answers a JSON ``405`` naming its
        methods in ``Allow``, any other path — a bare one without
        ``/v1/`` included — a JSON ``404``."""
        try:
            declared = int(self.headers.get("Content-Length") or 0) != 0
        except ValueError:
            declared = True
        self._body_unread = declared or "Transfer-Encoding" in self.headers
        handler = ROUTES.get((self.command, self.path))
        if handler is not None:
            handler(self)
        elif allowed := ", ".join(m for m, path in ROUTES if path == self.path):
            self._error(405, f"{self.command} not allowed on {self.path!r}",
                        headers={"Allow": allowed})
        else:
            self._error(404, f"unknown path {self.path!r}")

    # http.server calls ``do_<METHOD>``: route them all, so none gets its
    # HTML ``501``
    do_GET = do_POST = do_PUT = do_DELETE = do_HEAD = do_PATCH = do_OPTIONS = _route

    def _admit(self) -> bool:
        """Admission gate for the serving endpoints (``/v1/advise``,
        ``/v1/advise/batch``): circuit breaker first (503 while the fleet is
        rebuilding), then the in-flight cap (429 + ``Retry-After``, the
        request is *shed*).  ``True`` claims an in-flight slot the caller
        must :meth:`AdvisorHTTPServer.release` when done."""
        server = self.server
        retry_after = {"Retry-After":
                       str(max(1, round(server.admission.retry_after_s)))}
        if not server.breaker_allows():
            server.bump("breaker_rejected")
            self._error(503, "circuit breaker open after consecutive "
                             "inference failures; retry shortly",
                        headers=retry_after)
            return False
        if not server.try_acquire():
            server.bump("shed")
            self._error(429, "server at capacity; request shed, retry "
                             "shortly", headers=retry_after)
            return False
        return True

    def _read_body(self) -> Optional[Dict]:
        """Parse the JSON request body; replies with the right 4xx and
        returns ``None`` on any malformation.

        Undecodable bytes are tolerated when they are confined to JSON
        string values: the body is re-decoded with ``errors="replace"``
        and the snippet reaches the (error-recovering) lexer with U+FFFD
        where the bad bytes were.  Bytes that corrupt the JSON framing
        itself get a structured ``400``, never a stack trace.  Either way
        the ``invalid_body`` admission counter ticks."""
        limit = self.server.admission.max_body_bytes
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "invalid Content-Length")
            return None
        if length <= 0:
            self._error(400, "request body required")
            return None
        if length > limit:
            self._error(413, f"body exceeds {limit} bytes")
            return None
        raw = self.rfile.read(length)
        self._body_unread = False
        try:
            text = raw.decode("utf-8")
            undecodable = False
        except UnicodeDecodeError:
            self.server.record_invalid_body()
            text = raw.decode("utf-8", errors="replace")
            undecodable = True
        try:
            payload = json.loads(text)
        # ValueError covers JSONDecodeError and ints past Python's
        # int-string digit limit; RecursionError covers runaway nesting
        except (ValueError, RecursionError) as exc:
            if undecodable:
                self._error(400, "request body is not valid UTF-8")
            else:
                self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "JSON body must be an object")
            return None
        return payload

    # -- handlers ----------------------------------------------------------

    def _handle_healthz(self) -> None:
        """``GET /v1/healthz``: the head names, ``503`` if unlistable."""
        self.server.bump("healthz")
        heads = []
        names = getattr(self.server.advisor, "head_names", None)
        if callable(names):
            try:  # works for MultiModelEngine and ShardedEngine alike;
                # for a sharded advisor this round-trips a worker, so a
                # dead fleet fails the probe instead of looking healthy
                heads = list(names())
            except Exception as exc:  # noqa: BLE001 — report unhealthy
                self._send_json(503, {"status": "unhealthy",
                                      "error": str(exc)})
                return
        self._send_json(200, {"status": "ok", "heads": heads})

    def _handle_stats(self) -> None:
        """``GET /v1/stats``: the advisor's metrics plus HTTP counters."""
        self.server.bump("stats")
        try:
            stats = self.server.advisor.stats()
        except Exception as exc:  # noqa: BLE001 — report, don't die
            self._error(500, f"stats failed: {exc}")
            return
        self._send_json(200, {"schema_version": SCHEMA_VERSION,
                              "http": self.server.counters(),
                              "admission": self.server.admission_stats(),
                              "engine": stats})

    def _handle_advise(self) -> None:
        """``POST /v1/advise``: one snippet, one v1 result."""
        if not self._admit():
            return
        try:
            payload = self._read_body()
            if payload is None:
                return
            code = payload.get("code")
            if not isinstance(code, str) or not code.strip():
                self._error(400,
                            "request needs a non-empty string 'code' field")
                return
            self.server.bump("advise")
            try:
                result = self.server.advisor.advise_v1(
                    [AdviceRequest(code=code, id=payload.get("id"))])[0]
            except Exception as exc:  # noqa: BLE001 — report, don't die
                self.server.record_outcome(False)
                self._error(500, f"inference failed: {exc}")
                return
            self.server.record_outcome(True)
            self._send_json(200, result.as_dict())
        finally:
            self.server.release()

    def _handle_reload(self) -> None:
        """Hot-swap the advisor's checkpoint (``POST /v1/reload``).

        ``{"path": ...}`` selects the checkpoint directory; an empty body
        falls back to the server's ``reload_dir``.  On success the reply
        carries the new ``model_version``; on failure the advisor keeps
        serving the old weights and the error says why.
        """
        path = self.server.reload_dir
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            self._error(400, "invalid Content-Length")
            return
        if length > 0:
            payload = self._read_body()
            if payload is None:
                return
            path = payload.get("path", path)
        if not isinstance(path, str) or not path:
            self._error(400, "no checkpoint: POST {\"path\": ...} or start "
                             "the server with a reload/watch directory")
            return
        reload_fn = getattr(self.server.advisor, "reload", None)
        if reload_fn is None:
            self._error(501, "advisor does not support hot reload")
            return
        self.server.bump("reload")
        try:
            version = reload_fn(path)
        except Exception as exc:  # noqa: BLE001 — old weights keep serving
            self._error(500, f"reload failed: {exc}")
            return
        self._send_json(200, {"status": "reloaded", "path": path,
                              "model_version": version})

    def _handle_canary_start(self) -> None:
        """Start a canary rollout (``POST /v1/canary``).

        Body: ``{"path": "ckpt/", "fraction": 0.1}`` — ``path`` is
        required, ``fraction`` defaults to 0.1 and must be in (0, 1].
        ``409`` when a canary is already active; on a bad checkpoint the
        primary keeps serving all traffic and the reply is ``500``.
        """
        payload = self._read_body()
        if payload is None:
            return
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            self._error(400, "request needs a non-empty string 'path' field")
            return
        fraction = payload.get("fraction", 0.1)
        # range-check before float(): an int too large for a float would
        # raise OverflowError there, while int/float comparison is exact
        if (isinstance(fraction, bool) or not isinstance(fraction, (int, float))
                or not 0 < fraction <= 1):
            self._error(400, "'fraction' must be a number in (0, 1]")
            return
        fraction = float(fraction)
        start = getattr(self.server.advisor, "start_canary", None)
        if start is None:
            self._error(501, "advisor does not support canary rollouts")
            return
        self.server.bump("canary")
        try:
            version = start(path, fraction)
        except RuntimeError as exc:  # a canary is already rolling out
            self._error(409, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — primary keeps serving
            self._error(500, f"canary failed to start: {exc}")
            return
        self._send_json(200, {"status": "canary-started", "path": path,
                              "fraction": fraction,
                              "version": version})

    def _handle_canary_finish(self, action: str) -> None:
        """Finish a canary rollout (``POST /v1/canary/promote|rollback``).

        No body read.  ``409`` with no canary active; ``501`` when
        the advisor has no canary surface.
        """
        fn = getattr(self.server.advisor, action, None)
        if fn is None:
            self._error(501, "advisor does not support canary rollouts")
            return
        self.server.bump(f"canary_{action}")
        try:
            result = fn()
        except RuntimeError as exc:  # no canary active / partial fleet
            self._error(409, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — report, don't die
            self._error(500, f"canary {action} failed: {exc}")
            return
        if action == "promote":
            self._send_json(200, {"status": "promoted",
                                  "model_version": result})
        else:
            self._send_json(200, {"status": "rolled-back"})

    def _handle_advise_batch(self) -> None:
        """``POST /v1/advise/batch``: a v1 result or error per snippet."""
        if not self._admit():
            return
        try:
            payload = self._read_body()
            if payload is None:
                return
            items = self._parse_batch(payload)
            if items is None:
                return
            cap = self.server.admission.max_batch_snippets
            if len(items) > cap:
                self._error(400, f"batch of {len(items)} snippets exceeds "
                                 f"the {cap}-snippet cap; split the request")
                return
            self.server.bump("advise_batch")
            good = [(i, code) for i, (_, code, err) in enumerate(items)
                    if err is None]
            advices: List = []
            if good:
                try:
                    advices = self.server.advisor.advise_v1(
                        [AdviceRequest(code=code, id=items[i][0])
                         for i, code in good])
                except Exception as exc:  # noqa: BLE001 — report, don't die
                    self.server.record_outcome(False)
                    self._error(500, f"inference failed: {exc}")
                    return
                self.server.record_outcome(True)
            advice_at = {i: adv for (i, _), adv in zip(good, advices)}
            results = []
            for i, (rid, _, err) in enumerate(items):
                if err is not None:
                    results.append({"id": rid, "error": err})
                else:
                    body = advice_at[i].as_dict()
                    body["id"] = rid
                    results.append(body)
            self._send_json(200, {"results": results})
        finally:
            self.server.release()

    def _parse_batch(self, payload: Dict):
        """``{"codes": [...]}`` or ``{"requests": [{"id","code"}]}`` ->
        list of ``(id, code, error)`` triples, one per requested snippet,
        with exactly one of ``code``/``error`` set.

        Body-*structure* problems (missing list, wrong container types)
        reply 400 and return ``None``; per-*item* problems (missing,
        empty, or non-string code) become error triples, so one dirty
        snippet costs itself an ``{"id", "error"}`` entry in the 200
        reply instead of rejecting its whole batch."""
        item_error = "needs a non-empty string 'code'"
        if "codes" in payload:
            codes = payload["codes"]
            if not isinstance(codes, list):
                self._error(400, "'codes' must be a list of strings")
                return None
            return [(i, code, None)
                    if isinstance(code, str) and code.strip()
                    else (i, None, item_error)
                    for i, code in enumerate(codes)]
        requests = payload.get("requests")
        if not isinstance(requests, list):
            self._error(400, "body needs a 'codes' or 'requests' list")
            return None
        items: List = []
        for i, req in enumerate(requests):
            if not isinstance(req, dict):
                self._error(400, f"requests[{i}] must be an object")
                return None
            code = req.get("code")
            if isinstance(code, str) and code.strip():
                items.append((req.get("id", i), code, None))
            else:
                items.append((req.get("id", i), None, item_error))
        return items


#: Every endpoint: ``(method, path) -> handler``.  The router matches
#: ``self.path`` exactly: a path missing here is a ``404``, one here under
#: another method a ``405``.
ROUTES = {
    ("POST", "/v1/advise"): _AdvisorHandler._handle_advise,
    ("POST", "/v1/advise/batch"): _AdvisorHandler._handle_advise_batch,
    ("POST", "/v1/reload"): _AdvisorHandler._handle_reload,
    ("POST", "/v1/canary"): _AdvisorHandler._handle_canary_start,
    ("POST", "/v1/canary/promote"): functools.partial(
        _AdvisorHandler._handle_canary_finish, action="promote"),
    ("POST", "/v1/canary/rollback"): functools.partial(
        _AdvisorHandler._handle_canary_finish, action="rollback"),
    ("GET", "/v1/healthz"): _AdvisorHandler._handle_healthz,
    ("GET", "/v1/stats"): _AdvisorHandler._handle_stats,
}


def make_server(advisor, host: str = "127.0.0.1", port: int = 0,
                reload_dir: Optional[str] = None,
                admission: Optional[AdmissionConfig] = None,
                ) -> AdvisorHTTPServer:
    """Bind an :class:`AdvisorHTTPServer` (``port=0`` = ephemeral) without
    starting it — callers drive ``serve_forever``/``shutdown`` themselves
    (tests run it on a thread).  ``reload_dir`` is the default checkpoint
    directory a body-less ``POST /v1/reload`` falls back to; ``admission``
    overrides the default :class:`AdmissionConfig`."""
    return AdvisorHTTPServer((host, port), advisor, reload_dir=reload_dir,
                             admission=admission)


#: Sentinel for ``serve_forever(watch_baseline=...)``: let the watcher
#: stat the manifest itself at construction time.
_BASELINE_UNSET = object()


def serve_forever(advisor, host: str, port: int, banner: bool = True,
                  watch_dir: Optional[str] = None,
                  watch_interval: float = 2.0,
                  watch_baseline=_BASELINE_UNSET,
                  admission: Optional[AdmissionConfig] = None) -> None:
    """Blocking convenience loop for the CLI: bind, announce, serve until
    interrupted, then close the advisor.

    With ``watch_dir`` set, a
    :class:`~repro.serve.registry.CheckpointWatcher` polls that advisor
    checkpoint directory every ``watch_interval`` seconds and hot-reloads
    the advisor when a new checkpoint lands; the directory also becomes
    the default for body-less ``POST /v1/reload``.  ``watch_baseline`` is
    the manifest mtime the advisor was loaded from (capture it *before*
    loading, see :func:`repro.serve.registry.checkpoint_mtime`) so a
    checkpoint landing during the load window is still reloaded; by
    default the watcher baselines at construction.  ``admission``
    overrides the default :class:`AdmissionConfig` (the CLI's
    ``--max-body-bytes`` plumbs through here).
    """
    from repro.serve.registry import CheckpointWatcher

    server = make_server(advisor, host, port, reload_dir=watch_dir,
                         admission=admission)
    watcher = None
    if watch_dir is not None:
        kwargs = ({} if watch_baseline is _BASELINE_UNSET
                  else {"baseline_mtime": watch_baseline})
        watcher = CheckpointWatcher(advisor, watch_dir,
                                    interval=watch_interval, **kwargs).start()
    bound_host, bound_port = server.server_address[:2]
    if banner:
        watching = f", watching {watch_dir}" if watch_dir is not None else ""
        endpoints = ", ".join(f"{method} {path}" for method, path in ROUTES)
        print(f"advisor listening on http://{bound_host}:{bound_port} "
              f"({endpoints}{watching})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover — interactive exit
        pass
    finally:
        if watcher is not None:
            watcher.stop()
        server.server_close()
        close = getattr(advisor, "close", None)
        if close is not None:
            close()
