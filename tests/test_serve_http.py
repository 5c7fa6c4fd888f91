"""Round-trip tests for the stdlib HTTP advisor front-end."""

import http.client
import json
import os
import queue
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import AdviceResult, ModelRegistry, MultiModelEngine, make_server
from repro.serve.http_api import MAX_BODY_BYTES, ROUTES, _AdvisorHandler
from repro.tokenize import Vocab, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 1; i < n; i++) a[i] = a[i-1];",
]


def _tiny_advisor():
    vocab = Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)
    registry = ModelRegistry()
    for name in ("directive", "private", "reduction"):
        registry.register(name, PragFormer(len(vocab), TINY), vocab,
                          max_len=TINY.max_len)
    return MultiModelEngine(registry)


@pytest.fixture(scope="module")
def server_url():
    advisor = _tiny_advisor()
    server = make_server(advisor, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    advisor.close()
    thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(url, payload):
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class TestEndpoints:
    def test_healthz_lists_heads(self, server_url):
        status, body = _get(server_url + "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["heads"] == ["directive", "private", "reduction"]

    def test_advise_single(self, server_url):
        status, body = _post(server_url + "/v1/advise", {"code": SNIPPETS[0]})
        assert status == 200
        assert isinstance(body["needs_directive"], bool)
        assert 0.0 <= body["p_directive"] <= 1.0
        assert set(body["clauses"]) == {"private", "reduction"}
        for clause in body["clauses"].values():
            assert 0.0 <= clause["probability"] <= 1.0
            assert isinstance(clause["suggested"], bool)

    def test_advise_batch_codes_form(self, server_url):
        status, body = _post(server_url + "/v1/advise/batch",
                             {"codes": SNIPPETS})
        assert status == 200
        assert [r["id"] for r in body["results"]] == [0, 1, 2]
        single = _post(server_url + "/v1/advise", {"code": SNIPPETS[1]})[1]
        assert body["results"][1]["p_directive"] == single["p_directive"]

    def test_advise_batch_requests_form(self, server_url):
        status, body = _post(server_url + "/v1/advise/batch", {"requests": [
            {"id": "loop-a", "code": SNIPPETS[0]},
            {"id": "loop-b", "code": SNIPPETS[2]},
        ]})
        assert status == 200
        assert [r["id"] for r in body["results"]] == ["loop-a", "loop-b"]

    def test_stats_reports_cache_and_batch_metrics(self, server_url):
        # repeat a snippet so the prediction LRU provably hits
        _post(server_url + "/v1/advise", {"code": SNIPPETS[0]})
        _post(server_url + "/v1/advise", {"code": SNIPPETS[0]})
        status, body = _get(server_url + "/v1/stats")
        assert status == 200
        assert body["http"]["advise"] >= 2
        combined = body["engine"]["combined"]
        assert combined["requests"] > 0
        assert combined["cache_hits"] > 0
        assert combined["batches"] > 0
        assert sum(combined["batch_size_hist"].values()) == combined["batches"]


class _CountingWriter:
    """``wfile`` wrapper recording every write (one write is one
    ``sendall`` on the unbuffered socket writer)."""

    def __init__(self, raw):
        self.raw = raw
        self.sends = []

    def write(self, data):
        self.sends.append(bytes(data))
        return self.raw.write(data)

    def __getattr__(self, name):
        return getattr(self.raw, name)


class TestWire:
    """Each response leaves as one send on a TCP_NODELAY socket — with
    Nagle on, a reply split across two sends waits out the client's
    delayed ACK.  Deterministic: reads socket options and counts writes,
    never times anything."""

    @pytest.fixture(scope="class")
    def wire_server(self):
        connections = queue.Queue()

        class Recording(_AdvisorHandler):
            def setup(self):
                super().setup()
                self.nodelay = self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY)
                self.wfile = _CountingWriter(self.wfile)

            def finish(self):
                super().finish()
                connections.put((self.nodelay, self.wfile.sends))

        advisor = _tiny_advisor()
        server = make_server(advisor, port=0)
        server.RequestHandlerClass = Recording
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server.server_address[:2], connections
        server.shutdown()
        server.server_close()
        advisor.close()
        thread.join(timeout=5)

    @pytest.mark.parametrize("method,path,body,length,status", [
        ("POST", "/v1/advise", {"code": SNIPPETS[0]}, None, 200),
        ("POST", "/v1/advise/batch", {"codes": SNIPPETS}, None, 200),
        ("GET", "/v1/nope", None, None, 404),
        ("POST", "/v1/advise", b"not json", None, 400),
        ("POST", "/v1/advise", None, MAX_BODY_BYTES + 1, 413),
    ], ids=["advise", "batch", "404", "400", "413"])
    def test_one_send_per_response_on_nodelay_socket(
            self, wire_server, method, path, body, length, status):
        address, connections = wire_server
        if isinstance(body, dict):
            body = json.dumps(body).encode("utf-8")
        conn = http.client.HTTPConnection(*address, timeout=10)
        try:
            conn.putrequest(method, path)
            if body is not None or length is not None:
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length",
                               str(length if length is not None
                                   else len(body)))
            conn.endheaders(body)
            resp = conn.getresponse()
            payload = resp.read()
            headers = resp.getheaders()
        finally:
            conn.close()
        nodelay, sends = connections.get(timeout=10)
        assert nodelay == 1
        assert len(sends) == 1
        # the one send is the whole response, in send_response/send_header
        # order: errors close the connection, keep-alive 200s do not
        expected = ["Server", "Date", "Content-Type", "Content-Length"]
        if status != 200:
            expected.append("Connection")
        assert [name for name, _ in headers] == expected
        assert sends[0].startswith(f"HTTP/1.1 {status} ".encode())
        assert sends[0].endswith(b"\r\n\r\n" + payload)
        assert isinstance(json.loads(payload), dict)


class TestReloadEndpoint:
    """POST /v1/reload: hot checkpoint swap through the HTTP front door."""

    @pytest.fixture()
    def reload_setup(self, tmp_path):
        vocab = Vocab.build([text_tokens(code) for code in SNIPPETS],
                            min_freq=1)

        def registry(seed0):
            reg = ModelRegistry()
            for k, name in enumerate(("directive", "private")):
                reg.register(name, PragFormer(len(vocab), TINY, rng=seed0 + k),
                             vocab, max_len=TINY.max_len)
            return reg

        ckpt_a, ckpt_b = tmp_path / "ckpt_a", tmp_path / "ckpt_b"
        registry(0).save(ckpt_a)
        registry(50).save(ckpt_b)
        advisor = MultiModelEngine(ModelRegistry.from_checkpoint(ckpt_a))
        server = make_server(advisor, port=0, reload_dir=str(ckpt_a))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", advisor, ckpt_b
        server.shutdown()
        server.server_close()
        advisor.close()
        thread.join(timeout=5)

    def test_reload_with_explicit_path(self, reload_setup):
        url, advisor, ckpt_b = reload_setup
        before = _post(url + "/v1/advise", {"code": SNIPPETS[0]})[1]
        status, body = _post(url + "/v1/reload", {"path": str(ckpt_b)})
        assert status == 200
        assert body["status"] == "reloaded"
        assert body["model_version"] == f"v1:{ckpt_b.name}"
        after = _post(url + "/v1/advise", {"code": SNIPPETS[0]})[1]
        assert after["p_directive"] != before["p_directive"]
        # /v1/stats must reflect the swap so operators can verify it happened
        stats = _get(url + "/v1/stats")[1]
        assert stats["engine"]["model_version"] == body["model_version"]
        assert stats["engine"]["reloads"] == 1
        assert stats["http"]["reload"] == 1

    def test_reload_empty_body_uses_server_default(self, reload_setup):
        url, advisor, _ = reload_setup
        req = urllib.request.Request(url + "/v1/reload", method="POST")
        with urllib.request.urlopen(req, timeout=10) as resp:
            body = json.loads(resp.read().decode("utf-8"))
        assert body["status"] == "reloaded"
        assert body["model_version"].endswith("ckpt_a")

    def test_reload_bad_checkpoint_500_keeps_serving(self, reload_setup):
        url, advisor, _ = reload_setup
        version = advisor.model_version
        req = urllib.request.Request(
            url + "/v1/reload",
            data=json.dumps({"path": "/nonexistent/ckpt"}).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 500
        assert advisor.model_version == version
        assert _post(url + "/v1/advise", {"code": SNIPPETS[0]})[0] == 200

    def test_reload_unsupported_advisor_501(self):
        class Plain:
            """Advisor without a reload surface."""

            def advise_v1(self, requests):
                raise NotImplementedError

            def stats(self):
                return {}

        server = make_server(Plain(), port=0, reload_dir="somewhere")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            req = urllib.request.Request(f"http://{host}:{port}/v1/reload",
                                         method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 501
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_reload_no_path_no_default_400(self, tmp_path):
        vocab = Vocab.build([text_tokens(SNIPPETS[0])], min_freq=1)
        registry = ModelRegistry()
        registry.register("directive", PragFormer(len(vocab), TINY), vocab,
                          max_len=TINY.max_len)
        advisor = MultiModelEngine(registry)
        server = make_server(advisor, port=0)  # no reload_dir
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            req = urllib.request.Request(f"http://{host}:{port}/v1/reload",
                                         method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400
        finally:
            server.shutdown()
            server.server_close()
            advisor.close()
            thread.join(timeout=5)


class TestErrorHandling:
    def _post_error(self, url, data):
        req = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        return err.value.code, json.loads(err.value.read().decode("utf-8"))

    def test_unknown_path_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server_url + "/nope", timeout=10)
        assert err.value.code == 404

    def test_invalid_json_400(self, server_url):
        code, body = self._post_error(server_url + "/v1/advise", b"not json")
        assert code == 400
        assert "invalid JSON" in body["error"]

    def test_missing_code_field_400(self, server_url):
        code, body = self._post_error(server_url + "/v1/advise",
                                      json.dumps({"snippet": "x"}).encode())
        assert code == 400
        assert "code" in body["error"]

    def test_bad_batch_structure_400(self, server_url):
        """Body-structure problems still reject the whole batch."""
        code, _ = self._post_error(server_url + "/v1/advise/batch",
                                   json.dumps({"codes": "x"}).encode())
        assert code == 400
        code, _ = self._post_error(server_url + "/v1/advise/batch",
                                   json.dumps({"requests": ["x"]}).encode())
        assert code == 400

    def test_empty_code_rejected_on_advise(self, server_url):
        code, _ = self._post_error(server_url + "/v1/advise",
                                   json.dumps({"code": "  "}).encode())
        assert code == 400

    def test_batch_reports_bad_items_per_item(self, server_url):
        """One dirty snippet gets an {"id","error"} entry; the rest of
        the batch is still answered — a 200, not a batch-wide 400."""
        status, body = _post(server_url + "/v1/advise/batch", {"requests": [
            {"id": "ok", "code": "for (i = 0; i < n; i++) a[i] = i;"},
            {"id": "empty", "code": " "},
            {"id": "notstr", "code": 7},
        ]})
        assert status == 200
        results = body["results"]
        assert [r["id"] for r in results] == ["ok", "empty", "notstr"]
        assert "p_directive" in results[0] and "error" not in results[0]
        assert "error" in results[1] and "error" in results[2]
        # codes form: non-strings and empties also answer per item
        status, body = _post(server_url + "/v1/advise/batch",
                             {"codes": [1, "int x = 1;"]})
        assert status == 200
        assert "error" in body["results"][0]
        assert "p_directive" in body["results"][1]

    def test_non_utf8_body_handled(self, server_url):
        """Bad bytes inside a JSON string are replaced and served; bad
        bytes that corrupt the framing answer a structured 400.  Both
        tick the invalid_body admission counter."""
        import urllib.request

        # \xff inside the string value: replace-decode keeps valid JSON
        dirty = b'{"code": "int x = 1; // \xff\xfe"}'
        req = urllib.request.Request(
            server_url + "/v1/advise", data=dirty,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200
        # \xff replacing the opening brace: not salvageable
        code, body = self._post_error(server_url + "/v1/advise",
                                      b'\xff"code": "int x = 1;"}')
        assert code == 400
        assert "UTF-8" in body["error"]
        with urllib.request.urlopen(server_url + "/v1/stats",
                                    timeout=10) as resp:
            stats = json.loads(resp.read().decode("utf-8"))
        assert stats["admission"]["invalid_body"] >= 2

    def test_oversized_body_413_closes_connection(self, server_url):
        """The 413 path answers from the Content-Length header alone and
        must tell the client the connection is done (the unread body would
        otherwise be parsed as the next request)."""
        host, port = server_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/advise")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            body = json.loads(resp.read().decode("utf-8"))
            assert "exceeds" in body["error"]
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_healthz_unhealthy_when_workers_dead(self):
        """A sharded advisor whose workers all crashed must fail the
        liveness probe, not answer 200 with an empty head list."""
        from repro.serve import ShardedEngine

        def crashing_factory():
            raise RuntimeError("no model for you")

        advisor = ShardedEngine(crashing_factory, n_shards=2)
        server = make_server(advisor, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://{host}:{port}/v1/healthz",
                                       timeout=30)
            assert err.value.code == 503
            body = json.loads(err.value.read().decode("utf-8"))
            assert body["status"] == "unhealthy"
        finally:
            server.shutdown()
            server.server_close()
            advisor.close()
            thread.join(timeout=5)

    def test_server_survives_errors(self, server_url):
        status, _ = _post(server_url + "/v1/advise", {"code": SNIPPETS[0]})
        assert status == 200


class TestCanaryEndpoints:
    """POST /v1/canary + /v1/canary/promote + /v1/canary/rollback lifecycle."""

    @pytest.fixture()
    def canary_setup(self, tmp_path):
        vocab = Vocab.build([text_tokens(code) for code in SNIPPETS],
                            min_freq=1)

        def registry(seed0):
            reg = ModelRegistry()
            for k, name in enumerate(("directive", "private")):
                reg.register(name, PragFormer(len(vocab), TINY, rng=seed0 + k),
                             vocab, max_len=TINY.max_len)
            return reg

        ckpt_a, ckpt_b = tmp_path / "ckpt_a", tmp_path / "ckpt_b"
        registry(0).save(ckpt_a)
        registry(50).save(ckpt_b)
        advisor = MultiModelEngine(ModelRegistry.from_checkpoint(ckpt_a))
        server = make_server(advisor, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", advisor, ckpt_b
        server.shutdown()
        server.server_close()
        advisor.close()
        thread.join(timeout=5)

    def _post_status(self, url, payload=None):
        """POST returning (status, body) without raising on 4xx/5xx."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        req = urllib.request.Request(url, data=body)
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode("utf-8"))

    def test_full_lifecycle_start_stats_promote(self, canary_setup):
        url, advisor, ckpt_b = canary_setup
        status, body = self._post_status(
            url + "/v1/canary", {"path": str(ckpt_b), "fraction": 0.5})
        assert status == 200
        assert body["status"] == "canary-started"
        assert body["fraction"] == 0.5
        version = body["version"]
        # per-arm counters are live in /v1/stats while the rollout runs
        self._post_status(url + "/v1/advise", {"code": SNIPPETS[0]})
        stats = _get(url + "/v1/stats")[1]
        assert stats["engine"]["canary"]["version"] == version
        assert set(stats["engine"]["canary"]["arms"]) == {"primary", "canary"}
        status, body = self._post_status(url + "/v1/canary/promote")
        assert status == 200
        assert body == {"status": "promoted", "model_version": version}
        stats = _get(url + "/v1/stats")[1]
        assert stats["engine"]["model_version"] == version
        assert stats["engine"]["canary"] is None
        assert stats["engine"]["last_canary"]["outcome"] == "promoted"
        assert stats["http"]["canary"] == 1
        assert stats["http"]["canary_promote"] == 1

    def test_rollback_and_conflict_statuses(self, canary_setup):
        url, advisor, ckpt_b = canary_setup
        # finishing with no canary active is a 409, not a 500
        assert self._post_status(url + "/v1/canary/promote")[0] == 409
        assert self._post_status(url + "/v1/canary/rollback")[0] == 409
        assert self._post_status(
            url + "/v1/canary", {"path": str(ckpt_b)})[0] == 200
        # a second rollout while one is active is a 409 too
        assert self._post_status(
            url + "/v1/canary", {"path": str(ckpt_b)})[0] == 409
        status, body = self._post_status(url + "/v1/canary/rollback")
        assert status == 200 and body == {"status": "rolled-back"}
        assert _get(url + "/v1/stats")[1]["engine"]["model_version"] == "0"

    def test_bad_requests(self, canary_setup):
        url, advisor, ckpt_b = canary_setup
        # missing path, bad fraction, bad checkpoint
        assert self._post_status(url + "/v1/canary", {})[0] == 400
        assert self._post_status(
            url + "/v1/canary", {"path": str(ckpt_b), "fraction": 0})[0] == 400
        assert self._post_status(
            url + "/v1/canary", {"path": str(ckpt_b), "fraction": "lots"})[0] == 400
        # an int too large for a float is out of range, not a dropped
        # connection
        status, body = self._post_status(
            url + "/v1/canary", {"path": str(ckpt_b), "fraction": 10 ** 400})
        assert status == 400 and "error" in body
        status, body = self._post_status(
            url + "/v1/canary", {"path": str(ckpt_b / "nope")})
        assert status == 500
        # primary untouched after the failed start
        assert _get(url + "/v1/healthz")[0] == 200
        assert _get(url + "/v1/stats")[1]["engine"]["canary"] is None

    def test_advisor_without_canary_surface_501(self):
        class Plain:
            def advise_v1(self, requests):
                raise NotImplementedError

            def stats(self):
                return {}

        server = make_server(Plain(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            assert self._post_status(
                url + "/v1/canary", {"path": "x"})[0] == 501
            assert self._post_status(url + "/v1/canary/promote")[0] == 501
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class _CanaryStub:
    """Instant advisor whose canary always promotes and rolls back."""

    def advise_v1(self, requests):
        return [AdviceResult(verdict=True, probability=0.75, id=req.id)
                for req in requests]

    def head_names(self):
        return ["directive"]

    def stats(self):
        return {}

    def promote(self):
        return "v2"

    def rollback(self):
        return None


@pytest.fixture()
def stub_server():
    server = make_server(_CanaryStub(), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _exchange(conn, method, path, body=None):
    """One request on ``conn``: ``(status, Content-Type, parsed body)``."""
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    return resp.status, resp.getheader("Content-Type"), json.loads(resp.read())


class TestOneConnection:
    """Several requests on one keep-alive ``HTTPConnection``."""

    @pytest.mark.parametrize("method,path", [
        ("GET", "/v1/healthz"), ("GET", "/v1/stats"),
        ("POST", "/v1/canary/promote"), ("POST", "/v1/canary/rollback"),
    ])
    def test_unread_body_does_not_desync_the_connection(
            self, stub_server, method, path):
        """A body the handler never reads must not be parsed as the next
        request line: the follow-up still gets its JSON answer."""
        conn = http.client.HTTPConnection(*stub_server.server_address[:2],
                                          timeout=10)
        try:
            assert _exchange(conn, method, path, b'{"why": "x"}')[0] == 200
            status, ctype, body = _exchange(conn, "GET", "/v1/healthz")
        finally:
            conn.close()
        assert (status, ctype) == (200, "application/json")
        assert body["status"] == "ok"

    def test_bare_paths_are_json_404s(self, stub_server):
        """Only the ``/v1/`` spellings are routed: each bare one answers a
        JSON 404, ticks ``errors``, and the connection keeps working."""
        bare = [(method, path.removeprefix("/v1")) for method, path in ROUTES]
        assert all(path.startswith("/v1/") for _, path in ROUTES)
        assert {path for _, path in bare} == {
            "/advise", "/advise/batch", "/healthz", "/stats", "/reload",
            "/canary", "/canary/promote", "/canary/rollback"}
        errors = stub_server.counters()["errors"]
        conn = http.client.HTTPConnection(*stub_server.server_address[:2],
                                          timeout=10)
        try:
            for method, path in bare:
                body = b'{"code": "int x;"}' if method == "POST" else None
                status, ctype, reply = _exchange(conn, method, path, body)
                assert (status, ctype) == (404, "application/json"), path
                assert "error" in reply
                assert _exchange(conn, "GET", "/v1/healthz")[0] == 200
        finally:
            conn.close()
        assert stub_server.counters()["errors"] == errors + len(bare)

    @pytest.mark.parametrize("method", [
        "PUT", "DELETE", "HEAD", "PATCH", "OPTIONS", "GET", "POST"])
    def test_other_methods_are_json_405s(self, stub_server, method):
        """A routed path asked for under a method it is not served under
        answers a JSON 405 (HEAD: headers only) whose ``Allow`` header
        names the methods it is served under, and ticks ``errors``; an
        unrouted path is a 404 under any method."""
        paths = [path for routed, path in ROUTES if routed != method]
        errors = stub_server.counters()["errors"]
        address = stub_server.server_address[:2]
        for path in paths + ["/nope"]:
            conn = http.client.HTTPConnection(*address, timeout=10)
            try:
                conn.request(method, path)
                resp = conn.getresponse()
                raw = resp.read()
            finally:
                conn.close()
            allowed = [routed for routed, p in ROUTES if p == path]
            assert resp.status == (405 if allowed else 404), (method, path)
            assert resp.getheader("Content-Type") == "application/json"
            assert resp.getheader("Allow") == (", ".join(allowed) or None)
            if method == "HEAD":
                assert raw == b""
            else:
                assert "error" in json.loads(raw)
        assert stub_server.counters()["errors"] == errors + len(paths) + 1


def test_cli_banner_announces_the_bound_port(tmp_path):
    """``repro serve --http 0`` announces its port on the first stdout
    line; load generators parse it exactly as below, so the line must
    keep starting ``advisor listening on http://HOST:PORT `` with a
    space after the port."""
    vocab = Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)
    registry = ModelRegistry()
    registry.register("directive", PragFormer(len(vocab), TINY), vocab,
                      max_len=TINY.max_len)
    registry.save(tmp_path / "ckpt")
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
         "--watch", str(tmp_path / "ckpt")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    try:
        lines = []
        reader = threading.Thread(
            target=lambda: lines.append(proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(timeout=60)
        assert lines and lines[0].startswith("advisor listening on http://")
        port = int(lines[0].split("http://", 1)[1].split(" ", 1)[0]
                   .rsplit(":", 1)[1])
        for method, path in ROUTES:
            assert f"{method} {path}" in lines[0]
        status, body = _get(f"http://127.0.0.1:{port}/v1/healthz")
        assert status == 200 and body["heads"] == ["directive"]
    finally:
        proc.terminate()
        proc.wait(timeout=30)
