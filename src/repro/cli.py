"""Command-line interface.

Subcommands::

    repro build-corpus --records 2000 --out corpus_dir
    repro train --epochs 8 --save model.npz
    repro advise file.c            # on-the-fly advisor (§2.1)
    repro advise --batch *.c       # batched advisor over many snippets
    repro serve < requests.jsonl   # JSON-lines serving loop on stdin
    repro serve --http 8080        # multi-model advisor over HTTP
    repro compar file.c            # run the S2S combiner on a snippet
    repro reproduce table8         # regenerate a paper table/figure
    repro checkpoint upgrade DIR   # add the weights blob to an old checkpoint

Serving (``serve`` and ``advise``) goes through the :mod:`repro.serve`
stack: snippets are tokenized once, packed into length-sorted micro-batches
(``--batch-size``, default 128) so padding work is bounded by each bucket's
longest row, and predictions are memoized in a bounded LRU keyed by the
token-id digest (``--cache-size``, default 4096; 0 disables).

Every front-end serves through one advisor: a
:class:`repro.serve.MultiModelEngine` in process, or with ``--shards N``
a :class:`repro.serve.ShardedEngine` fleet of them, asked through
``advise_v1``.  ``serve`` has two front-ends.  The default reads one JSON
object per stdin line — ``{"id": ..., "code": "..."}``, or a bare path to
a C file — and writes one JSON directive verdict per line from a
directive-only advisor (a registry with no clause heads); a bad line gets
an ``{"id", "error"}`` line and the loop goes on.  ``--stats`` dumps the
advisor's ``stats()`` to stderr at EOF.  ``--http PORT`` instead loads
the directive *and* ``private``/``reduction`` clause models and serves
the ``/v1/`` HTTP endpoints (``POST /v1/advise``, ``/v1/advise/batch``,
``/v1/reload``, ``/v1/canary*``; ``GET /v1/healthz``, ``/v1/stats``;
schemas in ``docs/serving.md``).  In either mode
``--shards N`` partitions traffic across N worker processes with
digest-hash routing (:class:`repro.serve.ShardedEngine`; a sharded
advisor loaded from ``--watch`` maps one shared read-only weight copy
fleet-wide; the fleet keeps N workers for its lifetime).  ``--http``
additionally supports ``--watch DIR`` (start from — and hot-reload on
changes to — an advisor checkpoint directory written by
``ModelRegistry.save``), ``--gate-margin M`` (clause heads
only see snippets whose directive probability clears ``0.5 - M``), and
``--canary DIR`` / ``--canary-fraction F`` (serve a second checkpoint to
a deterministic digest slice of traffic next to the primary; finish the
rollout over ``POST /v1/canary/promote`` / ``/v1/canary/rollback``).
Fault tolerance: sharded serving carries per-request deadlines
(``--request-timeout SECONDS``, default 30, ``0`` disables — timed-out
or fault-hit requests are retried then answered with degraded verdicts),
and the HTTP front-end enforces admission control
(``--max-body-bytes N`` for the 413 body cap; batch caps, load shedding,
and the circuit breaker use :class:`repro.serve.AdmissionConfig`
defaults).  The operator's guide is ``docs/operations.md``.

``advise`` asks a directive-only advisor first, then fans each positive
snippet out to the clause models through a full advisor and prints the
suggested clauses.

``checkpoint upgrade DIR`` rebuilds, in place, an advisor checkpoint
written before the ``weights.bin`` blob existed; every advisor load reads
its weights from that digest-checked blob, so such checkpoints are
refused until upgraded.  It does nothing to a current checkpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.utils.tables import format_table

__all__ = ["main"]


def _cmd_build_corpus(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusConfig, build_corpus, directive_stats, save_records

    corpus = build_corpus(CorpusConfig(n_records=args.records, seed=args.seed))
    stats = directive_stats(corpus)
    print(format_table(["statistic", "amount"], list(stats.items()),
                       title="Open-OMP corpus (Table 3 statistics)"))
    if args.out:
        save_records(corpus.records, Path(args.out))
        print(f"wrote {len(corpus)} records to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.pipeline import get_context
    from repro.eval import binary_metrics

    ctx = get_context()
    # shared-memory data-parallel fits (repro.train.ddp); training is
    # bit-identical at any worker count, so this is purely a perf knob
    ctx.train_workers = args.workers
    model = ctx.pragformer
    enc = ctx.encoded()
    metrics = binary_metrics(model.predict(enc.test), enc.test.labels)
    print(format_table(["metric", "value"], list(metrics.as_dict().items()),
                       title="PragFormer on the directive test split"))
    if args.save:
        from repro.models import save_pragformer

        save_pragformer(model, enc.vocab, args.save)
        print(f"saved model + vocabulary to {args.save}")
    return 0


def _engine_config(args: argparse.Namespace):
    from repro.serve import EngineConfig

    kwargs = {}
    max_snippet = getattr(args, "max_snippet_bytes", None)
    if max_snippet is not None:
        kwargs["max_snippet_bytes"] = int(max_snippet)
    return EngineConfig(max_batch_size=getattr(args, "batch_size", 128),
                        cache_capacity=getattr(args, "cache_size", 4096),
                        gate_margin=getattr(args, "gate_margin", None),
                        **kwargs)


def _supervisor_config(args: argparse.Namespace):
    """:class:`SupervisorConfig` from ``--request-timeout``, or ``None``
    (engine defaults) when the flag was not given.  ``0`` disables
    per-request deadlines entirely — calls wait as long as they must."""
    from repro.serve import SupervisorConfig

    timeout = getattr(args, "request_timeout", None)
    if timeout is None:
        return None
    return SupervisorConfig(
        request_timeout_s=None if timeout == 0 else float(timeout))


def _admission_config(args: argparse.Namespace):
    """:class:`AdmissionConfig` from ``--max-body-bytes``, or ``None``
    (server defaults) when the flag was not given."""
    from repro.serve import AdmissionConfig

    max_body = getattr(args, "max_body_bytes", None)
    if max_body is None:
        return None
    return AdmissionConfig(max_body_bytes=int(max_body))


def _build_multi_engine(registry, config):
    """Worker-side builder for sharded serving (module-level so it stays
    picklable under the ``spawn`` start method; under ``fork`` the trained
    weights are shared copy-on-write)."""
    from repro.serve import MultiModelEngine

    return MultiModelEngine(registry, config=config)


def _make_advisor(args: argparse.Namespace, clauses=None):
    """The advisor every front-end serves through: a
    :class:`MultiModelEngine`, or with ``--shards N > 1`` a
    :class:`ShardedEngine` whose worker processes each build their own.

    Trained via the experiment context with the directive head plus the
    ``clauses`` heads (default: the paper's ``private``/``reduction``;
    ``()`` makes the directive-only advisor of the stdin loop and of
    ``advise``'s first pass).  With ``--watch DIR`` pointing at an
    existing advisor checkpoint, the registry is loaded from it instead
    — the deployment path: train elsewhere, ``ModelRegistry.save``, serve
    from the checkpoint and hot-reload on updates.

    A sharded advisor loaded from a checkpoint maps the weights **once**
    into a shared segment: the parent binds the registry onto it before
    the workers spawn, so the whole fleet serves from one physical copy,
    and later ``/v1/reload`` / ``/v1/canary`` rollouts publish their
    checkpoints the same way."""
    import functools

    from repro.serve import ModelRegistry, ShardedEngine
    from repro.serve.registry import DEFAULT_CLAUSES

    config = _engine_config(args)
    watch = getattr(args, "watch", None)
    shards = getattr(args, "shards", 1)
    sharded = shards > 1
    registry = None
    shared = None
    if watch:
        try:
            if sharded:
                registry, shared = ModelRegistry.from_checkpoint(
                    watch, share=True)
            else:
                registry = ModelRegistry.from_checkpoint(watch)
        except FileNotFoundError:
            registry = None  # no checkpoint yet: train, serve, watch for one
    if registry is None:
        from repro.pipeline import get_context

        registry = ModelRegistry.from_context(
            get_context(), DEFAULT_CLAUSES if clauses is None else clauses)
    factory = functools.partial(_build_multi_engine, registry, config)
    if sharded:
        try:
            return ShardedEngine(factory, n_shards=shards,
                                 supervisor=_supervisor_config(args),
                                 shared_weights=shared)
        except BaseException:
            # a fleet that failed to come up must not leak its segment
            if shared is not None:
                import contextlib

                with contextlib.suppress(Exception):
                    shared.close()
                with contextlib.suppress(Exception):
                    shared.unlink()
            raise
    return factory()


def _cmd_advise(args: argparse.Namespace) -> int:
    paths = [Path(f) for f in args.files]
    sources = [p.read_text() for p in paths]
    # directive verdicts first: the clause models only need training when a
    # snippet is directive-positive, so the common all-negative invocation
    # never pays for them
    with _make_advisor(args, clauses=()) as advisor:
        advice = advisor.advise_v1(sources)
    positive = [i for i, a in enumerate(advice) if a.verdict]
    clauses = {}
    if positive:
        with _make_advisor(args) as advisor:
            results = advisor.advise_v1([sources[i] for i in positive])
        # these files are directive-positive by the verdict printed below,
        # so every clause its head suggests is recommended
        clauses = {i: [(name, c.probability)
                       for name, c in result.clauses.items() if c.suggested]
                   for i, result in zip(positive, results)}
    prefix_paths = args.batch or len(paths) > 1
    for i, (path, a) in enumerate(zip(paths, advice)):
        verdict = "needs an OpenMP directive" if a.verdict else "no directive needed"
        lead = f"{path}: " if prefix_paths else "PragFormer: "
        print(f"{lead}{verdict} (p = {a.probability:.3f})")
        for name, p in clauses.get(i, []):
            print(f"  suggest a {name} clause (p = {p:.3f})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.http is not None:
        from repro.serve import checkpoint_mtime, serve_forever

        # baseline captured BEFORE the (slow) advisor load: a checkpoint
        # written while models load still differs from it, so the watcher's
        # first poll picks the rollout up instead of absorbing it
        baseline = checkpoint_mtime(args.watch) if args.watch else None
        advisor = _make_advisor(args)
        if args.canary:
            version = advisor.start_canary(args.canary, args.canary_fraction)
            print(f"canary {version} serving "
                  f"{args.canary_fraction:.0%} of traffic "
                  f"(POST /v1/canary/promote or /v1/canary/rollback to "
                  f"finish)")
        serve_forever(advisor, args.host, args.http,
                      watch_dir=args.watch,
                      watch_interval=args.watch_interval,
                      watch_baseline=baseline,
                      admission=_admission_config(args))
        return 0
    if args.watch:
        print("--watch requires --http (the stdin loop ends at EOF, "
              "nothing long-lived to reload)", file=sys.stderr)
        return 2
    if args.canary:
        print("--canary requires --http (canary rollouts split the "
              "multi-model advisor's traffic; the stdin loop serves the "
              "directive head only)", file=sys.stderr)
        return 2
    if args.gate_margin is not None:
        print("--gate-margin requires --http (the stdin loop serves the "
              "directive head only; there are no clause heads to gate)",
              file=sys.stderr)
        return 2
    with _make_advisor(args, clauses=()) as advisor:
        _serve_lines(advisor, sys.stdin.buffer, args.batch_size)
        if args.stats:
            print(json.dumps(advisor.stats()), file=sys.stderr)
    return 0


def _serve_lines(advisor, lines, batch_size: int) -> None:
    """The stdin loop: one JSON verdict line per request line, asked of
    ``advisor.advise_v1`` in batches of ``batch_size``.

    ``lines`` yields raw ``bytes`` lines (``sys.stdin.buffer``), decoded
    one at a time.  A request line is UTF-8: a JSON object with a string
    ``code`` field (and an optional ``id``), or a bare path to a C file.
    A line that is neither — undecodable bytes, malformed or too deeply
    nested JSON, a non-string ``code``, an unreadable path — gets an
    ``{"id", "error"}`` line instead, and the loop goes on."""

    def requests():
        # one bad request must not kill the serving loop: parse errors are
        # reported as JSON error lines and the stream continues
        for raw in lines:
            # the replacement-decoded text names the line in an error
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            req = None
            try:
                raw.decode("utf-8")  # UnicodeDecodeError is a ValueError
                if line.startswith("{"):
                    req = json.loads(line)
                    if not isinstance(req.get("code"), str):
                        raise ValueError("request needs a string 'code' field")
                else:
                    req = {"id": line, "code": Path(line).read_text()}
            except (OSError, ValueError, RecursionError) as exc:
                rid = req.get("id") if isinstance(req, dict) else line[:80]
                print(json.dumps({"id": rid, "error": str(exc)}))
                continue
            yield req

    batch = []

    def flush():
        if not batch:
            return
        results = advisor.advise_v1([r["code"] for r in batch])
        for req, result in zip(batch, results):
            print(json.dumps({
                "id": req.get("id"),
                "needs_directive": result.verdict,
                "p_directive": round(result.probability, 6),
            }))
        sys.stdout.flush()
        batch.clear()

    for req in requests():
        batch.append(req)
        if len(batch) >= batch_size:
            flush()
    flush()


def _cmd_compar(args: argparse.Namespace) -> int:
    from repro.s2s import ComPar

    source = Path(args.file).read_text()
    result = ComPar().run(source)
    if result.parse_failed:
        print("ComPar: parse failure in every sub-compiler")
        for name, res in result.per_compiler.items():
            print(f"  {name}: {res.failure}")
        return 1
    if result.inserted:
        print(f"ComPar inserts: {result.directive}")
    else:
        print("ComPar: no directive (loop judged not parallelizable)")
        for name, res in result.per_compiler.items():
            if res.analysis is not None and res.analysis.reasons:
                print(f"  {name}: {'; '.join(res.analysis.reasons)}")
    return 0


_EXPERIMENTS = {
    "table3": "exp_table3", "table4": "exp_table4", "fig3": "exp_fig3",
    "table5": "exp_table5", "table7": "exp_table7", "fig456": "exp_fig456",
    "table8": "exp_table8", "fig7": "exp_fig7", "table9": "exp_table9",
    "table10": "exp_table10", "table11": "exp_table11",
    "table12": "exp_table12_fig8",
}


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.pipeline import experiments

    fn = getattr(experiments, _EXPERIMENTS[args.experiment])
    result = fn()
    print(json.dumps(result, indent=2, default=str))
    return 0


def _cmd_checkpoint_upgrade(args: argparse.Namespace) -> int:
    from repro.models import upgrade_advisor

    if upgrade_advisor(args.dir):
        print(f"upgraded {args.dir}: wrote weights.bin and its manifest entry")
    else:
        print(f"{args.dir} already has a weights blob; nothing to do")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (every subcommand and flag)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PragFormer reproduction: corpus, models, S2S compilers, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("build-corpus", help="generate the Open-OMP corpus")
    p_corpus.add_argument("--records", type=int, default=2000)
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--out", type=str, default="")
    p_corpus.set_defaults(fn=_cmd_build_corpus)

    from repro.train.ddp import DDPConfig

    max_workers = DDPConfig().grad_shards

    def train_workers(text: str) -> int:
        # every worker trains at least one micro-shard of each batch
        if not (text.isdigit() and 1 <= int(text) <= max_workers):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a worker count in 1..{max_workers} "
                f"(the DDP micro-shard grid has {max_workers} shards)")
        return int(text)

    p_train = sub.add_parser("train", help="train PragFormer on the directive task")
    p_train.add_argument("--save", type=str, default="")
    p_train.add_argument("--workers", type=train_workers, default=1,
                         help="data-parallel training workers (default 1, at "
                              f"most {max_workers}, the micro-shard grid; "
                              "N-worker runs are bit-identical to 1-worker)")
    p_train.set_defaults(fn=_cmd_train)

    p_advise = sub.add_parser("advise", help="advise OpenMP use for C snippet file(s)")
    p_advise.add_argument("files", nargs="+")
    p_advise.add_argument("--batch", action="store_true",
                          help="batched output (implied by multiple files)")
    p_advise.add_argument("--batch-size", type=int, default=128)
    p_advise.add_argument("--cache-size", type=int, default=4096)
    p_advise.set_defaults(fn=_cmd_advise)

    p_serve = sub.add_parser(
        "serve", help="advisor service: JSON-lines on stdin, or --http PORT")
    p_serve.add_argument("--batch-size", type=int, default=128,
                         help="micro-batch size for the inference engine")
    p_serve.add_argument("--cache-size", type=int, default=4096,
                         help="LRU prediction-cache capacity (0 disables)")
    p_serve.add_argument("--stats", action="store_true",
                         help="dump engine counters to stderr at EOF (stdin mode)")
    p_serve.add_argument("--http", type=int, default=None, metavar="PORT",
                         help="serve the multi-model advisor over HTTP on PORT "
                              "(directive + clause heads; endpoints under /v1/)")
    p_serve.add_argument("--host", type=str, default="127.0.0.1",
                         help="bind address for --http (default 127.0.0.1)")
    p_serve.add_argument("--shards", type=int, default=1, metavar="N",
                         help="partition traffic across N worker processes "
                              "(digest-hash routing; 1 = in-process)")
    p_serve.add_argument("--watch", type=str, default=None, metavar="DIR",
                         help="with --http: serve the advisor checkpoint in DIR "
                              "and hot-reload whenever a new checkpoint lands "
                              "(mtime polling; also the default for POST "
                              "/v1/reload)")
    p_serve.add_argument("--watch-interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="poll interval for --watch (default 2.0)")
    p_serve.add_argument("--gate-margin", type=float, default=None, metavar="M",
                         help="gate clause heads on the directive verdict: only "
                              "snippets with P(directive) > 0.5 - M fan out "
                              "(default: gating off)")
    p_serve.add_argument("--canary", type=str, default=None, metavar="DIR",
                         help="with --http: start serving the advisor "
                              "checkpoint in DIR as a canary next to the "
                              "primary (finish with POST /v1/canary/promote "
                              "or /v1/canary/rollback)")
    p_serve.add_argument("--canary-fraction", type=float, default=0.1,
                         metavar="F",
                         help="fraction of the digest space the canary "
                              "serves (default 0.1)")
    p_serve.add_argument("--request-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="deadline for each sharded serving request; "
                              "requests that miss it are retried on a "
                              "healthy shard then answered with a degraded "
                              "verdict (default 30, 0 disables)")
    p_serve.add_argument("--max-body-bytes", type=int, default=None,
                         metavar="N",
                         help="with --http: largest accepted request body; "
                              "bigger bodies get 413 (default 4 MiB)")
    p_serve.add_argument("--max-snippet-bytes", type=int, default=None,
                         metavar="N",
                         help="largest snippet the engine will lex; bigger "
                              "snippets get a neutral degraded verdict "
                              "(default 256 KiB, 0 disables)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_compar = sub.add_parser("compar", help="run the ComPar S2S combiner on a file")
    p_compar.add_argument("file")
    p_compar.set_defaults(fn=_cmd_compar)

    p_rep = sub.add_parser("reproduce", help="regenerate a paper table/figure")
    p_rep.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    p_rep.set_defaults(fn=_cmd_reproduce)

    p_ckpt = sub.add_parser("checkpoint", help="maintain advisor checkpoints")
    ckpt_sub = p_ckpt.add_subparsers(dest="action", required=True)
    p_upgrade = ckpt_sub.add_parser(
        "upgrade", help="add the weights blob to a checkpoint written "
                        "before it existed (in place; no-op if current)")
    p_upgrade.add_argument("dir", metavar="DIR")
    p_upgrade.set_defaults(fn=_cmd_checkpoint_upgrade)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
