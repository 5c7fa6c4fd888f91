"""Fault-tolerance tests: the chaos harness driving worker supervision,
request deadlines, degraded verdicts, respawn replay of the fleet's
reload and canary state, and HTTP admission control.

Every scenario here is deterministic — :class:`repro.serve.ChaosConfig`
schedules worker kill / hang / drop / malformed / slow faults at fixed
serving-call indices — and every assertion is about the same contract:
**every submitted request gets an answer** (real advice, a degraded
verdict, or an explicit 4xx/5xx), zero hangs, zero lost replies, and the
fleet heals itself within the restart budget.  This file is also the CI
``chaos-smoke`` stage (``scripts/check.sh --chaos``).
"""

import functools
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    AdmissionConfig,
    AdviceResult,
    ChaosConfig,
    CheckpointWatcher,
    EngineConfig,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
    SupervisorConfig,
    canary_routes,
    make_server,
    shard_of,
)
from repro.tokenize import Vocab, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 1; i < n; i++) a[i] = a[i-1];",
    'for (i = 0; i < n; i++) printf("%d", a[i]);',
    "for (i = 0; i < n; i++) for (j = 0; j < m; j++) x[i][j] = i * j;",
    "while (k < n) { total += buf[k]; k++; }",
    "for (p = head; p; p = p->next) count++;",
    "for (i = 0; i < rows; i++) out[i] = dot(m[i], v, cols);",
]

# fast supervision knobs shared by the recovery tests: tight heartbeats,
# near-instant backoff, short request deadlines — chaos in seconds, not
# the production half-minute
FAST = dict(request_timeout_s=2.0, heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.4, restart_backoff_s=0.01,
            restart_backoff_max_s=0.05)


def code_on_shard(shard, n_shards):
    """A snippet that provably routes to ``shard`` at ``n_shards``."""
    for i in range(10000):
        code = f"for (i = 0; i < n; i++) a[i] = b[i] * {i};"
        if shard_of(code, n_shards) == shard:
            return code
    raise AssertionError("no snippet found for shard")


@pytest.fixture(scope="module")
def model_and_vocab():
    vocab = Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)
    return PragFormer(len(vocab), TINY), vocab


def _directive_only(model, vocab):
    """A directive-only worker engine: a registry with no clause heads."""
    registry = ModelRegistry()
    registry.register("directive", model, vocab, max_len=TINY.max_len)
    return MultiModelEngine(registry, config=EngineConfig(max_batch_size=8))


@pytest.fixture(scope="module")
def factory(model_and_vocab):
    return functools.partial(_directive_only, *model_and_vocab)


def _probs(results):
    return np.array([r.probability for r in results])


# multi-head advisor checkpoints for the respawn-replay tests; the
# snippets cover both arms of a 50% canary slice and both shards
REPLAY_SNIPPETS = [
    f"for (i = 0; i < n; i++) a[i] = b[i] * {k} + c[i];" for k in range(16)
]
CANARY_FRACTION = 0.5


@pytest.fixture(scope="module")
def advisor_checkpoints(tmp_path_factory):
    """Two three-head advisor checkpoints with distinct weights."""
    vocab = Vocab.build([text_tokens(code) for code in REPLAY_SNIPPETS],
                        min_freq=1)
    root = tmp_path_factory.mktemp("advisors")
    paths = []
    for name, seed0 in (("ckpt_a", 0), ("ckpt_b", 100)):
        registry = ModelRegistry()
        for k, head in enumerate(("directive", "private", "reduction")):
            registry.register(
                head, PragFormer(len(vocab), replace(TINY, seed=seed0 + k),
                                 rng=seed0 + k),
                vocab, max_len=TINY.max_len)
        registry.save(root / name)
        paths.append(root / name)
    return tuple(paths)


@pytest.fixture(scope="module")
def advisor_verdicts(advisor_checkpoints):
    """Reference results per snippet from in-process engines on A and B."""
    a, b = advisor_checkpoints
    with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as ea, \
            MultiModelEngine(ModelRegistry.from_checkpoint(b)) as eb:
        return ea.advise_v1(REPLAY_SNIPPETS), eb.advise_v1(REPLAY_SNIPPETS)


def _multi_engine(path):
    """Module-level worker factory for a multi-head advisor."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path),
                            config=EngineConfig(max_batch_size=8))


def _assert_arm_split(got, exp_a, exp_b):
    """Every snippet's answer comes from its digest-assigned arm."""
    for code, g, a, b in zip(REPLAY_SNIPPETS, got, exp_a, exp_b):
        ref = b if canary_routes(code, CANARY_FRACTION) else a
        assert not g.degraded
        np.testing.assert_allclose(g.probability, ref.probability, atol=1e-6)
        for name in ref.clauses:
            np.testing.assert_allclose(g.clauses[name].probability,
                                       ref.clauses[name].probability,
                                       atol=1e-6)


def wait_until(predicate, timeout=15.0, interval=0.05):
    """Poll ``predicate`` until truthy; fail loudly on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


class TestChaosConfig:
    def test_seeded_is_deterministic_and_partitions(self):
        a = ChaosConfig.seeded(7, n_calls=20, kills=2, hangs=1, drops=1)
        b = ChaosConfig.seeded(7, n_calls=20, kills=2, hangs=1, drops=1)
        assert a == b
        picked = a.kill_at + a.hang_at + a.drop_at
        assert len(picked) == 4 and len(set(picked)) == 4
        assert all(0 <= i < 20 for i in picked)
        assert ChaosConfig.seeded(8, n_calls=20, kills=2) != ChaosConfig.seeded(
            7, n_calls=20, kills=2)

    def test_seeded_rejects_overfull_schedule(self):
        with pytest.raises(ValueError, match="cannot place"):
            ChaosConfig.seeded(0, n_calls=2, kills=2, hangs=1)

    def test_fault_precedence_kill_beats_slow(self):
        chaos = ChaosConfig(kill_at=(3,), slow_at=(3, 5))
        assert chaos.fault_at(3) == "kill"
        assert chaos.fault_at(5) == "slow"
        assert chaos.fault_at(4) is None

    def test_applies_to_slots(self):
        assert ChaosConfig(kill_at=(0,)).applies_to(2)
        scoped = ChaosConfig(kill_at=(0,), slots=(1,))
        assert scoped.applies_to(1) and not scoped.applies_to(0)


class TestWorkerFaults:
    def test_killed_worker_requests_are_retried_not_lost(self, factory):
        """A worker killed mid-trace: its sub-batch lands on a healthy
        shard and the answers are real — then the supervisor respawns the
        slot and the fleet returns to full strength."""
        expected = _probs(factory().advise_v1(SNIPPETS))
        chaos = ChaosConfig(kill_at=(0,), slots=(1,))
        with ShardedEngine(factory, n_shards=4, chaos=chaos,
                           supervisor=SupervisorConfig(**FAST)) as sharded:
            got = _probs(sharded.advise_v1(SNIPPETS))
            np.testing.assert_allclose(got, expected, atol=1e-5)
            sup = sharded.stats()["supervisor"]
            assert sup["faults"] >= 1 and sup["retries"] >= 1
            assert sup["degraded_answers"] == 0
            wait_until(lambda: sharded.stats()["supervisor"]["restarts"] >= 1)
            wait_until(lambda: all(w.is_alive()
                                   for w in sharded._workers[:4]))
            # the healed fleet serves without new faults
            faults_before = sharded.stats()["supervisor"]["faults"]
            np.testing.assert_allclose(_probs(sharded.advise_v1(SNIPPETS)),
                                       expected, atol=1e-5)
            assert sharded.stats()["supervisor"]["faults"] == faults_before

    def test_hung_worker_deadline_then_supervisor_recovers_it(self, factory):
        """A wedged worker (stuck forward pass): the caller's deadline
        fires, the retry answers for real, and the heartbeat terminates +
        respawns the hung process."""
        code = code_on_shard(0, 2)
        expected = factory().advise_v1([code])[0]
        chaos = ChaosConfig(hang_at=(0,), slots=(0,), hang_s=3600.0)
        # the heartbeat outwaits the request deadline: a supervisor that
        # terminated the hung worker first would turn the caller's wait
        # into a dead-worker retry, which the caller notices within 0.1 s
        cfg = SupervisorConfig(**{**FAST, "request_timeout_s": 1.0,
                                  "heartbeat_timeout_s": 2.0})
        with ShardedEngine(factory, n_shards=2, chaos=chaos,
                           supervisor=cfg) as sharded:
            got = sharded.advise_v1([code])[0]
            assert not got.degraded
            assert got.probability == pytest.approx(expected.probability,
                                                    abs=1e-5)
            sup = sharded.stats()["supervisor"]
            assert sup["deadline_exceeded"] >= 1
            wait_until(lambda: sharded.stats()["supervisor"]["restarts"] >= 1)
            wait_until(lambda: all(w.is_alive()
                                   for w in sharded._workers[:2]))

    def test_lost_reply_is_answered_not_hung(self, factory):
        """A worker that consumes a request and never replies — the bug
        class that used to hang ``_scatter_call`` forever — now costs one
        deadline and the retry answers for real."""
        code = code_on_shard(1, 2)
        expected = factory().advise_v1([code])[0]
        chaos = ChaosConfig(drop_at=(0,), slots=(1,))
        cfg = SupervisorConfig(**{**FAST, "request_timeout_s": 1.0})
        with ShardedEngine(factory, n_shards=2, chaos=chaos,
                           supervisor=cfg) as sharded:
            start = time.monotonic()
            got = sharded.advise_v1([code])[0]
            assert time.monotonic() - start < 10.0  # bounded, not forever
            assert not got.degraded
            assert got.probability == pytest.approx(expected.probability,
                                                    abs=1e-5)
            sup = sharded.stats()["supervisor"]
            assert sup["deadline_exceeded"] >= 1
            # the dropping worker stays alive and healthy afterwards
            assert sharded._workers[1].is_alive()

    def test_malformed_reply_is_a_fault_not_an_answer(self, factory):
        """A garbled IPC payload must never be scattered into results."""
        code = code_on_shard(0, 2)
        expected = factory().advise_v1([code])[0]
        chaos = ChaosConfig(malformed_at=(0,), slots=(0,))
        with ShardedEngine(factory, n_shards=2, chaos=chaos,
                           supervisor=SupervisorConfig(**FAST)) as sharded:
            got = sharded.advise_v1([code])[0]
            assert not isinstance(got, str) and not got.degraded
            assert got.probability == pytest.approx(expected.probability,
                                                    abs=1e-5)
            assert sharded.stats()["supervisor"]["faults"] >= 1
            assert sharded._workers[0].is_alive()  # garbled reply != dead

    def test_slow_reply_within_deadline_is_not_a_fault(self, factory):
        chaos = ChaosConfig(slow_at=(0,), slots=(0,), slow_s=0.2)
        with ShardedEngine(factory, n_shards=2, chaos=chaos,
                           supervisor=SupervisorConfig(**FAST)) as sharded:
            sharded.advise_v1(SNIPPETS)
            sup = sharded.stats()["supervisor"]
            assert sup["faults"] == 0 and sup["deadline_exceeded"] == 0
            assert sup["degraded_answers"] == 0

    def test_crash_loop_degrades_to_fallback_instead_of_flapping(
            self, factory):
        """``rearm=True`` models a crash-looping checkpoint: every respawn
        dies again on its first serving call.  The restart budget must
        exhaust, mark the slot degraded (fallback warmed), and traffic
        must keep getting real answers — never an exception, never an
        unbounded respawn storm."""
        code = code_on_shard(0, 2)
        expected = factory().advise_v1([code])[0]
        chaos = ChaosConfig(kill_at=(0,), slots=(0,), rearm=True)
        # budget 0: the first revive of a crashed slot already marks it
        # degraded, so the test observes the degrade path deterministically
        # (a successful heartbeat legitimately resets the budget, which
        # with a larger budget would race against the next crash)
        cfg = SupervisorConfig(request_timeout_s=1.0,
                               heartbeat_interval_s=0.2,
                               heartbeat_timeout_s=0.4,
                               restart_backoff_s=0.01,
                               restart_backoff_max_s=0.05,
                               restart_budget=0)
        stop = threading.Event()
        answers, errors = [], []
        with ShardedEngine(factory, n_shards=2, chaos=chaos,
                           supervisor=cfg) as sharded:
            def hammer():  # keeps re-crashing the re-armed slot
                while not stop.is_set():
                    try:
                        answers.append(sharded.advise_v1([code])[0])
                    except Exception as exc:  # noqa: BLE001 — assert below
                        errors.append(exc)
                        return

            t = threading.Thread(target=hammer)
            t.start()
            try:
                # poll the flag directly: a heartbeat that lands between
                # crashes may clear it again, but every revive re-sets it
                wait_until(lambda: sharded._slot_degraded[0],
                           timeout=20.0, interval=0.002)
            finally:
                stop.set()
                t.join(timeout=20.0)
            assert not errors, errors
            sup = sharded.stats()["supervisor"]
            assert sup["restarts"] >= 1
            assert sup["faults"] >= 1
            # traffic kept flowing with REAL answers throughout: the
            # healthy shard / fallback covered for the crash-looping slot
            assert answers
            assert all(not a.degraded for a in answers)
            assert all(a.probability == pytest.approx(expected.probability,
                                                      abs=1e-5)
                       for a in answers)

    def test_stats_survive_a_dead_shard(self, factory):
        """/v1/stats must diagnose a broken fleet, not die with it."""
        chaos = ChaosConfig(kill_at=(0,), slots=(0,))
        cfg = SupervisorConfig(**{**FAST, "heartbeat_interval_s": 0})
        with ShardedEngine(factory, n_shards=2, chaos=chaos,
                           supervisor=cfg) as sharded:
            sharded.advise_v1(SNIPPETS)  # kills slot 0, answers anyway
            stats = sharded.stats()
            assert len(stats["shards"]) == 2
            assert any("error" in s for s in stats["shards"])
            assert isinstance(stats["combined"], dict)
            assert stats["supervisor"]["faults"] >= 1


class TestLifecycleUnderFaults:
    def test_close_tolerates_dead_workers(self, factory):
        """close() on a half-dead fleet: reap without raising, bounded
        joins, queues released, idempotent."""
        expected = _probs(factory().advise_v1(SNIPPETS))
        chaos = ChaosConfig(kill_at=(0,), slots=(0, 1))
        cfg = SupervisorConfig(**{**FAST, "request_timeout_s": 2.0,
                                  "heartbeat_interval_s": 0})
        sharded = ShardedEngine(factory, n_shards=2, chaos=chaos,
                                supervisor=cfg)
        got = _probs(sharded.advise_v1(SNIPPETS))  # both workers die serving it
        np.testing.assert_allclose(got, expected, atol=1e-5)  # fallback
        assert sharded.stats()["supervisor"]["fallback_answers"] == len(
            SNIPPETS)
        start = time.monotonic()
        sharded.close(timeout=5.0)
        assert time.monotonic() - start < 10.0
        sharded.close()  # idempotent on an already-broken fleet


class TestRespawnReplay:
    """A respawned worker replays the fleet's rollout state at spawn: the
    last successful reload and any live canary.  Each test kills slot 1
    on its first serving call and waits for the supervisor to respawn
    it; the replacement is not re-armed, so it then serves normally."""

    def _fleet(self, path, **kwargs):
        chaos = ChaosConfig(kill_at=(0,), slots=(1,))
        factory = functools.partial(_multi_engine, str(path))
        return ShardedEngine(factory, n_shards=2, chaos=chaos,
                             supervisor=SupervisorConfig(**FAST), **kwargs)

    def _kill_and_respawn(self, sharded):
        """Serve until slot 1 is killed, then wait for its respawn.
        Returns the answers to the call that killed it."""
        got = sharded.advise_v1(REPLAY_SNIPPETS)
        wait_until(lambda: sharded.stats()["supervisor"]["restarts"] >= 1)
        wait_until(lambda: all(w.is_alive() for w in sharded._workers))
        return got

    def test_killed_worker_replays_canary(self, advisor_checkpoints,
                                          advisor_verdicts):
        """A worker killed mid-canary comes back hosting the canary: the
        same version on every shard and the same digest arm split."""
        a, b = advisor_checkpoints
        exp_a, exp_b = advisor_verdicts
        with self._fleet(a) as sharded:
            version = sharded.start_canary(b, CANARY_FRACTION)
            # the killed slot's rows were retried on slot 0, which hosts
            # the canary too
            _assert_arm_split(self._kill_and_respawn(sharded), exp_a, exp_b)
            stats = sharded.stats()
            assert stats["canary"]["shards_live"] == 2
            assert stats["canary"]["version"] == version
            retries = stats["supervisor"]["retries"]
            got = sharded.advise_v1(REPLAY_SNIPPETS)
            assert sharded.stats()["supervisor"]["retries"] == retries
            _assert_arm_split(got, exp_a, exp_b)
            assert [r.arm == "canary" for r in got] == [
                canary_routes(code, CANARY_FRACTION)
                for code in REPLAY_SNIPPETS]
            assert {r.model_version for r in got} == {"0", version}

    def test_failed_reload_is_not_replayed(self, advisor_checkpoints,
                                           advisor_verdicts, tmp_path):
        """A failed reload reverts the replay spec, so a worker respawned
        afterwards starts on the factory weights and serves real
        answers instead of replaying a known-bad checkpoint."""
        a, _ = advisor_checkpoints
        exp_a, _ = advisor_verdicts
        with self._fleet(a) as sharded:
            with pytest.raises(RuntimeError):
                sharded.reload(tmp_path / "never_written")
            assert sharded._reload_spec is None  # reverted, not remembered
            self._kill_and_respawn(sharded)
            retries = sharded.stats()["supervisor"]["retries"]
            got = sharded.advise_v1(REPLAY_SNIPPETS)
            assert sharded.stats()["supervisor"]["retries"] == retries
            assert not any(r.degraded for r in got)
            for g, e in zip(got, exp_a):
                np.testing.assert_allclose(g.probability, e.probability,
                                           atol=1e-6)

    def test_respawned_worker_reports_fleet_version(self,
                                                    advisor_checkpoints,
                                                    advisor_verdicts):
        """After two reloads, a respawned worker replays the last one:
        it reports the fleet's parent-issued ``model_version`` and serves
        the reloaded weights."""
        a, b = advisor_checkpoints
        _, exp_b = advisor_verdicts
        with self._fleet(a) as sharded:
            assert sharded.reload(a) == f"v1:{a.name}"
            version = sharded.reload(b)
            assert version == f"v2:{b.name}"
            self._kill_and_respawn(sharded)
            stats = sharded.stats()
            assert [s["model_version"] for s in stats["shards"]] == [
                version] * 2
            assert stats["model_version"] == version
            got = sharded.advise_v1(REPLAY_SNIPPETS)
            assert sharded.stats()["supervisor"]["retries"] == (
                stats["supervisor"]["retries"])
            for g, e in zip(got, exp_b):
                np.testing.assert_allclose(g.probability, e.probability,
                                           atol=1e-6)


class TestWatcherResilience:
    def test_watcher_survives_poll_exceptions(self, tmp_path):
        """A transient unreadable checkpoint dir must log-and-retry, not
        kill the watcher thread."""

        class Advisor:
            def reload(self, path):
                return "v1"

        watcher = CheckpointWatcher(Advisor(), tmp_path, interval=0.01)
        calls = {"n": 0}

        def flaky_poll():
            calls["n"] += 1
            raise OSError("transient: checkpoint dir mid-rewrite")

        watcher.poll_once = flaky_poll
        with watcher:
            wait_until(lambda: calls["n"] >= 3, timeout=5.0)
            assert watcher._thread.is_alive()
            assert watcher.poll_errors >= 3
            assert "transient" in watcher.last_error
        assert watcher.poll_errors == calls["n"]


# -- HTTP admission control -----------------------------------------------


def _stub_results(requests):
    return [AdviceResult(verdict=False, probability=0.5) for _ in requests]


class _GatedAdvisor:
    """Blocks advise calls until released — holds a request in flight."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def advise_v1(self, requests):
        self.entered.set()
        assert self.release.wait(10)
        return _stub_results(requests)

    def stats(self):
        return {}


class _FlakyAdvisor:
    def __init__(self):
        self.fail = True

    def advise_v1(self, requests):
        if self.fail:
            raise RuntimeError("fleet rebuilding")
        return _stub_results(requests)

    def stats(self):
        return {}


def _serve(advisor, admission):
    server = make_server(advisor, port=0, admission=admission)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}"


def _post(url, payload):
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class TestAdmissionControl:
    def test_overload_sheds_with_429_and_retry_after(self):
        advisor = _GatedAdvisor()
        server, thread, url = _serve(
            advisor, AdmissionConfig(max_inflight=1, retry_after_s=2.0))
        try:
            first = []
            t = threading.Thread(target=lambda: first.append(
                _post(url + "/v1/advise", {"code": "for(;;);"})))
            t.start()
            assert advisor.entered.wait(5)  # slot taken, inference blocked
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(url + "/v1/advise", {"code": "for(;;);"})
            assert err.value.code == 429
            assert err.value.headers.get("Retry-After") == "2"
            assert "shed" in json.loads(err.value.read())["error"]
            advisor.release.set()
            t.join(timeout=10)
            assert first and first[0][0] == 200  # admitted request finished
            assert server.counters()["shed"] == 1
        finally:
            advisor.release.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_circuit_breaker_opens_and_half_open_recovers(self):
        advisor = _FlakyAdvisor()
        server, thread, url = _serve(
            advisor, AdmissionConfig(breaker_threshold=2,
                                     breaker_cooldown_s=0.3))
        try:
            for _ in range(2):  # consecutive failures open the breaker
                with pytest.raises(urllib.error.HTTPError) as err:
                    _post(url + "/v1/advise", {"code": "for(;;);"})
                assert err.value.code == 500
            advisor.fail = False  # fleet is fixed, but the breaker is open
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(url + "/v1/advise", {"code": "for(;;);"})
            assert err.value.code == 503
            assert "breaker" in json.loads(err.value.read())["error"]
            time.sleep(0.35)  # cooldown: half-open probe closes the breaker
            assert _post(url + "/v1/advise", {"code": "for(;;);"})[0] == 200
            assert _post(url + "/v1/advise", {"code": "for(;;);"})[0] == 200
            assert server.counters()["breaker_rejected"] >= 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_batch_snippet_cap_rejected_400(self):
        advisor = _FlakyAdvisor()
        advisor.fail = False
        server, thread, url = _serve(
            advisor, AdmissionConfig(max_batch_snippets=2))
        try:
            ok = _post(url + "/v1/advise/batch", {"codes": ["a;", "b;"]})
            assert ok[0] == 200
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(url + "/v1/advise/batch", {"codes": ["a;", "b;", "c;"]})
            assert err.value.code == 400
            assert "cap" in json.loads(err.value.read())["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_stats_exposes_admission_state(self):
        advisor = _FlakyAdvisor()
        advisor.fail = False
        server, thread, url = _serve(advisor, AdmissionConfig(max_inflight=7))
        try:
            with urllib.request.urlopen(url + "/v1/stats", timeout=10) as resp:
                body = json.loads(resp.read().decode("utf-8"))
            admission = body["admission"]
            assert admission["max_inflight"] == 7
            assert admission["inflight"] == 0
            assert admission["breaker_open"] is False
            assert "shed" in body["http"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_admission_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionConfig(breaker_threshold=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_body_bytes=0)


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(request_timeout_s=0)
        with pytest.raises(ValueError):
            SupervisorConfig(heartbeat_timeout_s=0)
        with pytest.raises(ValueError):
            SupervisorConfig(restart_backoff_max_s=0.01,
                             restart_backoff_s=0.1)
        with pytest.raises(ValueError):
            SupervisorConfig(restart_budget=-1)

    def test_backoff_doubles_and_caps(self):
        cfg = SupervisorConfig(restart_backoff_s=0.1,
                               restart_backoff_max_s=1.0)
        assert cfg.backoff(0) == pytest.approx(0.1)
        assert cfg.backoff(1) == pytest.approx(0.2)
        assert cfg.backoff(2) == pytest.approx(0.4)
        assert cfg.backoff(10) == pytest.approx(1.0)  # capped


class TestChaosSmoke:
    def test_seeded_kill_and_hang_every_request_answered(self, factory):
        """The acceptance scenario: 4 shards, a seeded kill and hang in
        the trace — every request answered (answered fraction = 1.0),
        zero hangs, zero lost replies, fleet back to full strength."""
        expected = _probs(factory().advise_v1(SNIPPETS))
        chaos = ChaosConfig.seeded(42, n_calls=4, kills=1, hangs=1,
                                   slots=(1, 3), hang_s=3600.0)
        cfg = SupervisorConfig(**{**FAST, "request_timeout_s": 1.0})
        answered = 0
        rounds = 8
        with ShardedEngine(factory, n_shards=4, chaos=chaos,
                           supervisor=cfg) as sharded:
            for _ in range(rounds):
                got = _probs(sharded.advise_v1(SNIPPETS))  # never raises
                assert got.shape == (len(SNIPPETS),)
                assert np.isfinite(got).all()
                answered += len(SNIPPETS)
            assert answered == rounds * len(SNIPPETS)  # fraction = 1.0
            sup = sharded.stats()["supervisor"]
            assert sup["faults"] >= 1
            wait_until(lambda: sharded.stats()["supervisor"]["restarts"] >= 1)
            wait_until(lambda: all(w.is_alive()
                                   for w in sharded._workers[:4]))
            # healed: a full round serves clean
            np.testing.assert_allclose(_probs(sharded.advise_v1(SNIPPETS)),
                                       expected, atol=1e-5)
