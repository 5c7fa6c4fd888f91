"""The unified v1 advice API: AdviceRequest/AdviceResult everywhere.

Three contracts:

* **parity** — the fleet wire method (``advise_full_many``), the
  directive head on its own and ``advise_v1`` answer identically, field
  by field: they share one pipeline and must never drift apart;
* **context** — ``model_version`` / ``arm`` / ``recovered`` /
  ``degraded`` ride first-class on every result (engine, fleet, HTTP),
  including the shared-memory transport where workers only ever see
  pre-encoded rows;
* **wire** — the ``/v1/*`` endpoints serve the v1 schema and
  ``schema_version`` appears in ``/v1/stats``.
"""

import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    SCHEMA_VERSION,
    AdviceRequest,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
    make_server,
)
from repro.serve.engine import source_digest
from repro.tokenize import Vocab, robust_text_tokens, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 1; i < n; i++) a[i] = a[i-1];",
    "while (k < n) { total += buf[k]; k++; }",
]

#: lexes only through error recovery (stray ``@#$`` emits ERROR_TOKEN)
DIRTY = "for (i = 0; i < n; i++) { a[i] = @#$ b[i]; }"

HEAD_NAMES = ("directive", "private", "reduction")


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build([text_tokens(code) for code in SNIPPETS]
                       + [robust_text_tokens(DIRTY)], min_freq=1)


def _registry(vocab, seed0=0):
    registry = ModelRegistry()
    for k, name in enumerate(HEAD_NAMES):
        registry.register(name,
                          PragFormer(len(vocab), replace(TINY, seed=seed0 + k),
                                     rng=seed0 + k),
                          vocab, max_len=TINY.max_len)
    return registry


@pytest.fixture()
def engine(vocab):
    with MultiModelEngine(_registry(vocab)) as engine:
        yield engine


class TestAdviceRequest:
    def test_needs_exactly_one_input_form(self):
        with pytest.raises(ValueError, match="exactly one"):
            AdviceRequest()
        with pytest.raises(ValueError, match="exactly one"):
            AdviceRequest(code="x", ids=np.zeros(4, dtype=np.int32),
                          digest=b"d")

    def test_ids_require_digest(self):
        with pytest.raises(ValueError, match="digest"):
            AdviceRequest(ids=np.zeros(4, dtype=np.int32))

    def test_of_coerces_bare_strings(self):
        req = AdviceRequest.of("int x;")
        assert req.code == "int x;" and req.id is None
        same = AdviceRequest(code="y", id="r1")
        assert AdviceRequest.of(same) is same
        with pytest.raises(TypeError):
            AdviceRequest.of(42)


class TestEngineParity:
    """The wire method and advise_v1 must answer identically."""

    def test_v1_dict_is_strict_superset_of_legacy(self, engine):
        for code in SNIPPETS:
            wire = engine.advise_full_many([code])[0].as_dict()
            v1 = engine.advise_v1([code])[0].as_dict()
            assert set(v1) == {"needs_directive", "p_directive", "clauses",
                               "recommended_clauses", "degraded",
                               "recovered", "model_version", "arm"}
            assert v1 == wire

    def test_single_and_bulk_shims_match_v1(self, engine):
        results = engine.advise_v1(SNIPPETS)
        advices = engine.directive_engine.advise_many(SNIPPETS)
        fulls = engine.advise_full_many(SNIPPETS)
        for res, adv, full in zip(results, advices, fulls):
            assert res.verdict == adv.needs_directive
            assert res.probability == pytest.approx(adv.probability)
            assert res.clauses == full.clauses

    def test_encoded_requests_match_code_requests(self, engine, vocab):
        rows = [vocab.encode(robust_text_tokens(code), max_len=TINY.max_len)
                for code in SNIPPETS]
        digests = [source_digest(code) for code in SNIPPETS]
        by_code = engine.advise_v1(SNIPPETS)
        by_ids = engine.advise_v1(
            [AdviceRequest(ids=row, digest=digest)
             for row, digest in zip(rows, digests)])
        for a, b in zip(by_code, by_ids):
            assert a.probability == pytest.approx(b.probability)
            assert a.verdict == b.verdict

    def test_mixed_input_forms_rejected(self, engine):
        row = np.zeros(TINY.max_len, dtype=np.int32)
        with pytest.raises(ValueError, match="mix"):
            engine.advise_v1([AdviceRequest(code=SNIPPETS[0]),
                              AdviceRequest(ids=row, digest=b"d")])


class TestOperationalContext:
    def test_id_is_echoed(self, engine):
        results = engine.advise_v1([AdviceRequest(code=SNIPPETS[0], id="r7")])
        assert results[0].id == "r7"
        assert results[0].as_dict()["id"] == "r7"
        anonymous = engine.advise_v1(SNIPPETS)[0]
        assert "id" not in anonymous.as_dict()

    def test_recovered_rides_on_the_result(self, engine):
        clean, dirty = engine.advise_v1([SNIPPETS[0], DIRTY])
        assert clean.recovered is False
        assert dirty.recovered is True

    def test_model_version_tracks_reload(self, engine, vocab, tmp_path):
        assert engine.advise_v1(SNIPPETS)[0].model_version == "0"
        ckpt = tmp_path / "ckpt"
        _registry(vocab, 50).save(ckpt)
        version = engine.reload(ckpt)
        assert engine.advise_v1(SNIPPETS)[0].model_version == version

    def test_canary_arm_is_stamped(self, engine, vocab, tmp_path):
        ckpt = tmp_path / "ckpt_canary"
        _registry(vocab, 70).save(ckpt)
        version = engine.start_canary(ckpt, 1.0)  # whole digest space
        for res in engine.advise_v1(SNIPPETS):
            assert res.arm == "canary"
            assert res.model_version == version
        engine.rollback()
        for res in engine.advise_v1(SNIPPETS):
            assert res.arm == "primary"


class TestShardedV1:
    @pytest.fixture()
    def checkpoints(self, vocab, tmp_path):
        a, b = tmp_path / "ckpt_a", tmp_path / "ckpt_b"
        _registry(vocab, 0).save(a)
        _registry(vocab, 100).save(b)
        return a, b

    def _fleet(self, path, n_shards=2):
        import functools

        return ShardedEngine(
            functools.partial(_build_multi, str(path)), n_shards=n_shards)

    def test_fleet_parity_with_legacy_bulk(self, checkpoints):
        a, _ = checkpoints
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as ref:
            fulls = ref.advise_full_many(SNIPPETS)
        with self._fleet(a) as sharded:
            results = sharded.advise_v1(SNIPPETS)
            for full, res in zip(fulls, results):
                assert res.probability == pytest.approx(full.probability)
                assert res.verdict == full.verdict
                assert res.arm == "primary"

    def test_fleet_recovered_over_shm_transport(self, checkpoints):
        """Workers on the shm transport only see pre-encoded rows; the
        router must still stamp ``recovered`` for dirty snippets."""
        a, _ = checkpoints
        with self._fleet(a) as sharded:
            clean, dirty = sharded.advise_v1([SNIPPETS[0], DIRTY])
            assert clean.recovered is False
            assert dirty.recovered is True

    def test_fleet_canary_arm_and_version(self, checkpoints):
        a, b = checkpoints
        with self._fleet(a) as sharded:
            version = sharded.start_canary(b, 1.0)
            for res in sharded.advise_v1(SNIPPETS):
                assert res.arm == "canary"
                assert res.model_version == version
            promoted = sharded.promote()
            for res in sharded.advise_v1(SNIPPETS):
                assert res.arm == "primary"
                assert res.model_version == promoted

    def test_fleet_rejects_encoded_requests(self, checkpoints):
        a, _ = checkpoints
        with self._fleet(a) as sharded:
            row = np.zeros(TINY.max_len, dtype=np.int32)
            with pytest.raises(ValueError, match="encoding"):
                sharded.advise_v1([AdviceRequest(ids=row, digest=b"d")])


def _build_multi(path):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path))


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(url, payload):
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


@pytest.fixture(scope="module")
def server_url(vocab):
    advisor = MultiModelEngine(_registry(vocab))
    server = make_server(advisor, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    advisor.close()
    thread.join(timeout=5)


class TestHTTPv1:
    def test_v1_advise_answers_v1_schema(self, server_url):
        status, body = _post(server_url + "/v1/advise",
                             {"code": SNIPPETS[0], "id": "req-1"})
        assert status == 200
        for key in ("needs_directive", "p_directive", "clauses",
                    "recommended_clauses", "degraded", "recovered",
                    "model_version", "arm"):
            assert key in body, key
        assert body["arm"] == "primary"
        assert body["id"] == "req-1"

    def test_batch_answers_v1_schema_on_both_spellings(self, server_url):
        status, body = _post(server_url + "/v1/advise/batch",
                             {"codes": SNIPPETS[:2]})
        assert status == 200
        for result in body["results"]:
            assert "model_version" in result
            assert "arm" in result
        assert [r["id"] for r in body["results"]] == [0, 1]

    def test_stats_reports_schema_version(self, server_url):
        status, body = _get(server_url + "/v1/stats")
        assert status == 200
        assert body["schema_version"] == SCHEMA_VERSION

    def test_v1_healthz_alias(self, server_url):
        status, body = _get(server_url + "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_v1_canary_lifecycle_routes(self, server_url):
        """/v1/canary/promote and /rollback reach their handlers — with
        no canary active they answer 409."""
        for endpoint in ("/v1/canary/promote", "/v1/canary/rollback"):
            req = urllib.request.Request(server_url + endpoint, data=b"",
                                         method="POST")
            try:
                urllib.request.urlopen(req, timeout=10)
                raise AssertionError("expected 409")
            except urllib.error.HTTPError as exc:
                assert exc.code == 409

    def test_unknown_v1_path_is_404(self, server_url):
        req = urllib.request.Request(server_url + "/v1/nope", data=b"{}",
                                     method="POST")
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
