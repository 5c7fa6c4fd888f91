"""Tour of the serving stack: one engine, three models, HTTP, live metrics.

Builds the multi-model advisor (directive + private/reduction clause heads)
from the small-scale experiment context, then exercises every front door:

1. single and bulk ``advise_v1`` calls straight into the engine,
2. the HTTP API on an ephemeral port (/v1/advise, /v1/advise/batch, /v1/healthz),
3. the ``/v1/stats`` metrics the traffic produced.

First run trains the three models (a few minutes at SMALL scale, memoized
for the process).  Run:  python examples/serving_client.py
"""

import json
import threading
import urllib.request

from repro.pipeline import SMALL, get_context
from repro.serve import (
    AdviceRequest,
    EngineConfig,
    ModelRegistry,
    MultiModelEngine,
    make_server,
)

LOOPS = [
    "for (i = 0; i < n; i++) y[i] = alpha * x[i] + y[i];",
    "for (i = 0; i < n; i++) total += values[i];",
    "for (i = 1; i < n; i++) acc[i] = acc[i-1] + raw[i];",
    "for (i = 0; i < n; i++) for (j = 0; j < m; j++) c[i][j] = a[i][j] + b[i][j];",
]
# a Zipf-ish trace: the first loop is hot, as production traffic is
TRACE = LOOPS * 2 + [LOOPS[0]] * 6


def http_json(url, payload=None):
    req = urllib.request.Request(url)
    if payload is not None:
        req.data = json.dumps(payload).encode("utf-8")
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read().decode("utf-8"))


print("building the advisor (trains directive + clause models on first run)...")
registry = ModelRegistry.from_context(get_context(SMALL))
advisor = MultiModelEngine(registry, config=EngineConfig(max_batch_size=32))

# -- 1. direct engine calls ------------------------------------------------
print("\n== direct advise_v1 ==")
[result] = advisor.advise_v1([AdviceRequest(code=LOOPS[1], id="sum")])
print(json.dumps(result.as_dict(), indent=2))

print("\n== bulk advise_v1 over a hot-set trace ==")
for loop, verdict in zip(LOOPS, advisor.advise_v1(TRACE)[: len(LOOPS)]):
    mark = "PARALLEL" if verdict.verdict else "serial  "
    clauses = ", ".join(verdict.recommended_clauses()) or "-"
    print(f"  [{mark}] p={verdict.probability:.3f} "
          f"clauses: {clauses}  | {loop[:48]}")

# -- 2. the HTTP front-end -------------------------------------------------
server = make_server(advisor, port=0)  # ephemeral port
threading.Thread(target=server.serve_forever, daemon=True).start()
host, port = server.server_address[:2]
base = f"http://{host}:{port}"
print(f"\n== HTTP API on {base} ==")
print("healthz:", http_json(base + "/v1/healthz"))
single = http_json(base + "/v1/advise", {"code": LOOPS[0]})
print("POST /v1/advise ->", json.dumps(single))
batch = http_json(base + "/v1/advise/batch", {"requests": [
    {"id": "axpy", "code": LOOPS[0]},
    {"id": "scan", "code": LOOPS[2]},
]})
for result in batch["results"]:
    print(f"POST /v1/advise/batch [{result['id']}] -> "
          f"needs_directive={result['needs_directive']}")

# -- 3. the metrics all that traffic produced ------------------------------
print("\n== GET /v1/stats ==")
stats = http_json(base + "/v1/stats")
print("http counters:", stats["http"])
combined = stats["engine"]["combined"]
print(f"engine combined: {combined['requests']} requests, "
      f"{combined['cache_hits']} cache hits, {combined['evictions']} evictions, "
      f"{combined['coalesced']} coalesced, {combined['batches']} batches")
print("batch-size histogram:", combined["batch_size_hist"])
print("distinct snippets lexed:", stats["engine"]["snippets_lexed"])

server.shutdown()
server.server_close()
advisor.close()
