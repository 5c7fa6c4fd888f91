"""Property test: every request body, under every method, gets an HTTP
answer.

Hypothesis draws JSON-object bodies whose fields hold arbitrary JSON
values — huge ints (past the float range and past Python's int-string
digit limit), NaN and +-inf floats, deep and shallow nesting, ``null``,
bools and non-ASCII strings — and sends them to ``/v1/advise``,
``/v1/advise/batch``, ``/v1/reload``, ``/v1/canary``, the body-less
``/v1/canary/promote`` and ``/v1/canary/rollback``, and ``/v1/healthz``
and ``/v1/stats``, under a drawn method: mostly the one the endpoint is
served under, otherwise any of ``GET``, ``POST``, ``PUT``, ``DELETE``,
``HEAD``, ``PATCH`` and ``OPTIONS``.  Whatever the body, a routed request
must be answered with a documented status and a JSON object, and any
other method with a ``405`` whose ``Allow`` header names the endpoint's
methods (a JSON object too, or no body for ``HEAD``).  The server must
never drop the connection, and — unless the reply says ``Connection:
close`` — must answer a follow-up ``GET /v1/healthz`` on the same
connection.  Stub advisors stand in for the model, so no weights load.

Scale the sweep with ``REPRO_FUZZ_N`` (examples per endpoint; the CI
``--fuzz`` stage raises it, the default keeps tier-1 fast).
"""

import http.client
import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import make_server
from repro.serve.api import AdviceResult
from repro.serve.http_api import ROUTES

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "150"))

ANSWER_STATUSES = {200, 400, 409, 413, 500, 501}

METHODS = ["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH", "OPTIONS"]


class _Raw(str):
    """A JSON literal spliced into the body verbatim — for values
    ``json.dumps`` cannot write itself (ints past the int-string digit
    limit, nesting past the recursion limit)."""


def _dumps(value) -> str:
    if isinstance(value, _Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dumps(item)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dumps(item) for item in value) + "]"
    return json.dumps(value)


_HUGE_INTS = st.builds(lambda sign, zeros: _Raw(sign + "1" + "0" * zeros),
                       st.sampled_from(["", "-"]), st.integers(300, 6000))
_DEEP = st.integers(1, 3000).map(lambda depth: _Raw("[" * depth + "]" * depth))
_NUMBERS = (st.integers() | _HUGE_INTS
            | st.floats(allow_nan=True, allow_infinity=True))
_SCALARS = st.none() | st.booleans() | _NUMBERS | st.text()
_VALUES = st.recursive(
    _SCALARS | _DEEP,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=8)
_STRINGS = st.text(min_size=1) | _VALUES

#: endpoint -> the body fields its handler reads, each biased toward the
#: type the handler expects so the draw gets past the first check
_FIELDS = {
    "/v1/advise": {"code": _STRINGS, "id": _VALUES},
    "/v1/advise/batch": {
        "codes": st.lists(_STRINGS, max_size=4) | _VALUES,
        "requests": (st.lists(st.fixed_dictionaries(
            {}, optional={"id": _VALUES, "code": _STRINGS}), max_size=4)
            | _VALUES),
    },
    "/v1/reload": {"path": _STRINGS},
    "/v1/canary": {"path": _STRINGS, "fraction": _NUMBERS | _VALUES},
    # read no body at all: every drawn body is left on the socket
    "/v1/canary/promote": {},
    "/v1/canary/rollback": {},
    "/v1/healthz": {},
    "/v1/stats": {},
}


def _bodies(endpoint):
    """JSON objects: the endpoint's own fields (each optional) over a
    few unrelated ones."""
    known = st.fixed_dictionaries({}, optional=_FIELDS[endpoint])
    extra = st.dictionaries(st.text(max_size=8), _VALUES, max_size=3)
    return st.builds(lambda k, e: {**e, **k}, known, extra)


class _BareAdvisor:
    """Answers advice instantly and has no reload or canary surface, so
    those endpoints answer 501."""

    def advise_v1(self, requests):
        return [AdviceResult(verdict=True, probability=0.75, id=req.id)
                for req in requests]

    def stats(self):
        return {}


class _StubAdvisor(_BareAdvisor):
    """Adds ``reload``/``start_canary``, failing by path length so the
    409 and 500 branches are drawn too, and a canary that always
    promotes and rolls back."""

    def reload(self, path):
        if len(path) % 3 == 0:
            raise ValueError(f"no checkpoint at {path!r}")
        return f"v1:{path}"

    def start_canary(self, path, fraction):
        if len(path) % 3 == 0:
            raise ValueError(f"no checkpoint at {path!r}")
        if len(path) % 3 == 1:
            raise RuntimeError("a canary rollout is already active")
        return f"canary:{path}"

    def promote(self):
        return "canary:promoted"

    def rollback(self):
        return None


@pytest.fixture(scope="module")
def servers():
    started = []
    for advisor in (_StubAdvisor(), _BareAdvisor()):
        server = make_server(advisor, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
    yield [server.server_address[:2] for server, _ in started]
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _request_raw(address, method, path, body: bytes):
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        status, raw = resp.status, resp.read()
        assert resp.getheader("Content-Type") == "application/json"
        allow = resp.getheader("Allow")
        if resp.getheader("Connection") != "close":
            # the connection must still frame the next request correctly
            conn.request("GET", "/v1/healthz")
            probe = conn.getresponse()
            assert probe.getheader("Content-Type") == "application/json"
            assert json.loads(probe.read())["status"] == "ok"
        return status, allow, raw
    finally:
        conn.close()


@pytest.mark.parametrize("endpoint", sorted(_FIELDS))
def test_every_body_gets_an_answer(servers, endpoint):
    allowed = [method for method, path in ROUTES if path == endpoint]
    assert len(allowed) == 1

    @settings(max_examples=FUZZ_N, deadline=None, derandomize=True)
    @given(body=_bodies(endpoint), bare=st.booleans(),
           method=st.just(allowed[0]) | st.sampled_from(METHODS))
    def check(body, bare, method):
        status, allow, raw = _request_raw(servers[bare], method, endpoint,
                                          _dumps(body).encode("utf-8"))
        if method in allowed:
            assert status in ANSWER_STATUSES, (status, raw[:200])
        else:
            assert (status, allow) == (405, ", ".join(allowed)), raw[:200]
        if method == "HEAD":
            assert raw == b""
        else:
            assert isinstance(json.loads(raw), dict)

    check()
