"""One advice pipeline, every configuration: the same snippet gets the
same answer however it is asked.

The traffic is a seeded clean-corpus sample, every fixture under
``tests/data/dirty/`` and seeded :mod:`repro.clang.fuzz` mutants, served
from one advisor checkpoint.  Five parities hold on all of it:

* **input form** — source text and pre-encoded ``ids=``/``digest=``
  requests answer identically (except ``recovered``, which only lexing
  can observe).  The clause heads use their own vocabulary and a shorter
  ``max_len`` than the transport codec, so the per-head remapping is
  exercised too;
* **gating** — every snippet that fans out gets the same answer gated
  (``gate_margin=0.1``) and ungated; gated-out snippets differ only in
  carrying no clause verdicts;
* **canary arm** — a canary at fraction 1.0 on the primary's own
  checkpoint answers exactly as the primary (except ``arm`` and
  ``model_version``);
* **HTTP shape** — ``POST /v1/advise/batch`` answers each snippet
  exactly as ``POST /v1/advise`` does;
* **fleet** — a :class:`~repro.serve.ShardedEngine` of 1, 2 or 4 shards
  answers exactly as the in-process engine, gated and ungated, without a
  canary and with one at fraction 1.0.

Each configuration runs on a fresh engine, so no cache hides a
divergence.  Where two configurations send different batches to a head
(gating drops rows), both run with ``max_batch_size=1``: a batch of one
row is computed identically whatever else is in flight, so the
comparison can stay exact.
"""

import contextlib
import functools
import json
import threading
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest

from repro.clang.fuzz import fuzz_corpus
from repro.corpus import CorpusConfig, build_corpus
from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    AdviceRequest,
    EngineConfig,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
    make_server,
)
from repro.serve.engine import source_digest
from repro.tokenize import Vocab, robust_text_tokens

DIRTY_DIR = Path(__file__).parent / "data" / "dirty"

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=48, batch_size=8, seed=0)
CLAUSE_MAX_LEN = 32


@pytest.fixture(scope="module")
def clean():
    return [rec.code for rec in
            build_corpus(CorpusConfig(n_records=40, seed=11)).records]


@pytest.fixture(scope="module")
def traffic(clean):
    dirty = [path.read_bytes().decode("utf-8", errors="replace")
             for path in sorted(DIRTY_DIR.glob("*.c"))]
    assert len(dirty) == 52
    return clean + dirty + fuzz_corpus(clean, n=40, seed=5)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, clean, traffic):
    """Three tiny heads on disk.  The directive vocabulary covers all
    traffic; the clause heads share a smaller vocabulary built
    from the clean sample alone (a subset of the transport one) and a
    shorter ``max_len``."""
    vocab = Vocab.build([robust_text_tokens(code) for code in traffic])
    clause_vocab = Vocab.build([robust_text_tokens(code) for code in clean])
    registry = ModelRegistry()
    registry.register("directive", PragFormer(len(vocab), TINY, rng=0),
                      vocab, max_len=TINY.max_len)
    for k, name in enumerate(("private", "reduction"), start=1):
        registry.register(name, PragFormer(len(clause_vocab),
                                           replace(TINY, seed=k), rng=k),
                          clause_vocab, max_len=CLAUSE_MAX_LEN)
    path = tmp_path_factory.mktemp("parity") / "ckpt"
    registry.save(path)
    return path


def _engine(checkpoint, **config):
    return MultiModelEngine(ModelRegistry.from_checkpoint(checkpoint),
                            config=EngineConfig(**config))


def _encoded(engine, codes):
    head = engine.directive_engine
    return [AdviceRequest(ids=head.vocab.encode(robust_text_tokens(code),
                                                max_len=head.max_len),
                          digest=source_digest(code))
            for code in codes]


class TestConfigurationParity:
    def test_text_equals_encoded_requests(self, checkpoint, traffic):
        with _engine(checkpoint) as by_text, _engine(checkpoint) as by_ids:
            texts = by_text.advise_v1(traffic)
            ids = by_ids.advise_v1(_encoded(by_ids, traffic))
        assert any(r.recovered for r in texts), "traffic must be dirty"
        assert not any(r.degraded for r in texts)
        for code, a, b in zip(traffic, texts, ids):
            assert replace(a, recovered=False) == b, code[:60]

    def test_gated_equals_ungated_where_fanned_out(self, checkpoint,
                                                   traffic):
        with _engine(checkpoint, max_batch_size=1) as ungated, \
                _engine(checkpoint, max_batch_size=1,
                        gate_margin=0.1) as gated:
            full = ungated.advise_v1(traffic)
            cut = gated.advise_v1(traffic)
            gating = gated.stats()["clause_gating"]
        assert gating["gated_snippets"] > 0 and gating["fanned_out"] > 0
        for code, u, g in zip(traffic, full, cut):
            if g.clauses:
                assert g == u, code[:60]
            else:
                assert g.probability <= 0.4
                assert g == replace(u, clauses={}), code[:60]

    def test_canary_on_same_checkpoint_equals_primary(self, checkpoint,
                                                      traffic):
        with _engine(checkpoint) as primary, _engine(checkpoint) as split:
            version = split.start_canary(checkpoint, 1.0)
            expected = primary.advise_v1(traffic)
            got = split.advise_v1(traffic)
        assert all(r.arm == "canary" and r.model_version == version
                   for r in got)
        for code, e, g in zip(traffic, expected, got):
            assert replace(g, arm="primary", model_version="0") == e, code[:60]

    def test_batch_advise_equals_single_advise(self, checkpoint, traffic):
        """The batch sends every snippet to the heads in one call, so both
        servers run with ``max_batch_size=1`` to keep the comparison
        exact.  ``{"codes": [...]}`` batch answers carry the snippet's
        index as ``id``; single answers carry no ``id``."""
        with _serving(checkpoint, max_batch_size=1) as url:
            singles = [_post(url + "/v1/advise", {"code": code})
                       for code in traffic]
        with _serving(checkpoint, max_batch_size=1) as url:
            batch = _post(url + "/v1/advise/batch",
                          {"codes": traffic})["results"]
        assert [body.pop("id") for body in batch] == list(range(len(traffic)))
        for code, single, batched in zip(traffic, singles, batch):
            assert batched == single, code[:60]


_GATES = pytest.mark.parametrize("gate_margin", [0.0, 0.1],
                                 ids=["ungated", "gated"])
_ARMS = pytest.mark.parametrize("canary", [False, True],
                                ids=["primary", "canary"])


class TestFleetParity:
    """Each worker gets only its shard's sub-batch, so both sides run
    with ``max_batch_size=1`` to keep the comparison exact."""

    @_GATES
    @_ARMS
    def test_two_shard_fleet_equals_in_process(self, checkpoint, traffic,
                                               gate_margin, canary):
        self._assert_fleet_parity(checkpoint, traffic, 2, gate_margin,
                                  canary)

    @_GATES
    @_ARMS
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_fleet_equals_in_process(self, checkpoint, traffic, n_shards,
                                     gate_margin, canary):
        self._assert_fleet_parity(checkpoint, traffic, n_shards,
                                  gate_margin, canary)

    @staticmethod
    def _assert_fleet_parity(checkpoint, traffic, n_shards, gate_margin,
                             canary):
        config = dict(max_batch_size=1, gate_margin=gate_margin)
        with _engine(checkpoint, **config) as local, \
                ShardedEngine(functools.partial(_engine, checkpoint,
                                                **config),
                              n_shards=n_shards) as fleet:
            if canary:
                local.start_canary(checkpoint, 1.0, version="cnry")
                fleet.start_canary(checkpoint, 1.0, version="cnry")
            expected = local.advise_v1(traffic)
            got = fleet.advise_v1(traffic)
            routed = fleet.stats()["routed"]
        assert len(routed) == n_shards
        assert all(routed), "every shard must serve traffic"
        assert any(r.recovered for r in got), "traffic must be dirty"
        assert {r.arm for r in got} == {"canary" if canary else "primary"}
        for code, e, g in zip(traffic, expected, got):
            assert g == e, code[:60]


@contextlib.contextmanager
def _serving(checkpoint, **config):
    """An HTTP advisor on a fresh engine; yields its base URL."""
    with _engine(checkpoint, **config) as advisor:
        server = make_server(advisor, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        assert resp.status == 200
        return json.loads(resp.read().decode("utf-8"))
