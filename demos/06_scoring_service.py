"""Run the HTTP scoring service end to end: fit, save, serve, score, monitor.

Uses the base scheme so no encoder artifacts are needed; see
05_insurance_scoring.py for the replacement variant.
"""

import json
import threading
import urllib.request

import numpy as np

from ehrseq.corpus import filter_corpus
from ehrseq.scoring import assemble_features, ridge_fit, ridge_predict, save_scorer
from ehrseq.service import ScoringService, make_server, read_query_log
from ehrseq.synthetic import corpus_groups, generate_synthetic_corpus, generate_synthetic_insurance

# ----------------------
# 1. Fit a base-scheme scorer and save the artifact
# ----------------------

patients, _ = filter_corpus(generate_synthetic_corpus(seed=41, n_patients=1500, n_codes=150))
apps = generate_synthetic_insurance(seed=42, patients=patients, n_apps=5000, months=6,
                                    risk_groups=list(corpus_groups(150)[0].prefixes))
train_rec = [r for r in apps if r.month < 3]
y = np.array([r.claim for r in train_rec], dtype=np.float64)
X, schema = assemble_features(train_rec, "base")
model = ridge_fit(X, y, lam=10.0, schema_hash=schema.sha256(), training_period="months 0-2")
save_scorer("/tmp/demo_scorer.bin", model, schema,
            reference_scores=ridge_predict(model, X, schema))
print(f"saved scorer: {X.shape[1]} features, lambda {model.lam:g}")

# ----------------------
# 2. Serve it
# ----------------------

service = ScoringService.from_files("/tmp/demo_scorer.bin", log_path="/tmp/demo_queries.jsonl")
server = make_server(service, port=0)  # port 0 -> pick a free one
host, port = server.server_address
threading.Thread(target=server.serve_forever, daemon=True).start()
print(f"serving on http://{host}:{port}")


def get(path):
    with urllib.request.urlopen(f"http://{host}:{port}{path}") as resp:
        return json.loads(resp.read())


def post(path, body):
    req = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


print("health:", get("/health"))

# ----------------------
# 3. Score a few applications over the wire
# ----------------------

wire = []
for r in apps[:100]:
    body = {"app_id": r.app_id, "gender": r.gender, "age": r.age_years,
            "anamnesis": r.anamnesis, "policy": r.policy}
    wire.append(post("/score", body)["score"])
for r, s in zip(apps[:5], wire[:5]):
    print(f"  {r.app_id}: score={s:.5f}")

# offline scores for the same records match the wire exactly
X100, _ = assemble_features(apps[:100], "base", schema=schema)
offline = ridge_predict(model, X100, schema)
print("max wire/offline difference:", float(np.abs(offline - wire).max()))

# ----------------------
# 4. Monitoring: drift endpoint and the append-only query log
# ----------------------

print("psi:", get("/psi?window=100"))
for rec in read_query_log("/tmp/demo_queries.jsonl")[-2:]:
    print(f"  log entry: app_id={rec.app_id} score={rec.score:.5f} "
          f"latency_ms={rec.latency_ms}")

server.shutdown()
server.server_close()
service.close()
