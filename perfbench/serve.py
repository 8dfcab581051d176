"""The two scoring-service workloads: ``serve_base`` and ``serve_replacement``.

Artifacts (scorer, and for the replacement scheme an encoder and vocabulary)
are built once per invocation with the code under test, from the seed. The
service runs as ``python3 -m ehrseq.cli serve`` in its own process. An
open-loop stream of later-month applications goes in at 25, 50, 100, 200 and
400 req/s, with GET /psi?window=1000 and GET /health at 1 Hz each, until a
step misses the limit (p99 <= 100 ms, no failures, no growing backlog).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ehrseq import corpus, embedding, encoder, scoring, synthetic

import loadgen
import stats

RATES = (25, 50, 100, 200, 400)
P99_LIMIT_MS = 100.0
LADDER_STEP_S = 1.5  # steps after the first; the first lasts --seconds
SETUP_LAUNCHES = 3
POOL_PATIENTS = 1000
VOCAB_PATIENTS = 5000  # the pool is the first 1,000 of these
TRAIN_PATIENTS = 256  # the encoder is an input: a short fit keeps set-up of the run small
N_CODES = 600
N_APPS = 10000
N_MONTHS = 12
PSI_WINDOW = 1000
JITTER = 0.1  # share of the 1/rate slot over which a due time is spread
TRACE_REFERENCE_SHARE = 0.25  # untraced replay length, as a share of --seconds


@dataclass
class Artifacts:
    seed: int
    scheme: str
    serve_args: list[str]
    stream: list[corpus.ApplicationRecord]  # later-month applications, in order
    artifact: scoring.ScorerArtifact
    source: scoring.EmbeddingSource | None


def build_artifacts(seed: int, scheme: str, work: Path) -> Artifacts:
    # the generator draws patient by patient, so the pool is the same in both schemes
    n_patients = VOCAB_PATIENTS if scheme == "replacement" else POOL_PATIENTS
    patients = synthetic.generate_synthetic_corpus(seed, n_patients, N_CODES)
    pool = patients[:POOL_PATIENTS]
    risk_groups = list(synthetic.corpus_groups(N_CODES)[0].prefixes)
    records = synthetic.generate_synthetic_insurance(seed, pool, N_APPS, N_MONTHS, risk_groups)
    cut = N_MONTHS // 2
    train = [r for r in records if r.month < cut]
    stream = [r for r in records if r.month >= cut]
    scorer_path = work / "scorer.bin"
    serve_args = ["--scorer", str(scorer_path)]
    source = table = None
    if scheme == "replacement":
        kept, _ = corpus.filter_corpus(patients)
        vocab = corpus.build_vocabulary(kept)
        cfg = encoder.ModelConfig.desk_scale(len(vocab), d=128, n_heads=4, epochs=1, seed=seed)
        model = encoder.EncoderModel.build(cfg, vocab.sha256())
        in_pool = {p.patient_id for p in pool}
        fit = [p for p in kept if p.patient_id in in_pool][:TRAIN_PATIENTS]
        encoder.train(model, [corpus.encode_history(p, vocab, H=cfg.H) for p in fit])
        encoder.save_checkpoint(model, work / "encoder.ckpt")
        vocab.save(work / "vocab.json")
        table = embedding.average_group_embedding(model, pool, vocab, "mean")
        source = scoring.EmbeddingSource(model, vocab, table, "mean")
        serve_args += ["--model", str(work / "encoder.ckpt"), "--vocab", str(work / "vocab.json")]
    X, schema = scoring.assemble_features(train, scheme, embedding_source=source)
    y = np.array([r.claim for r in train], dtype=np.float64)
    ridge = scoring.ridge_fit(X, y, lam=10.0, schema_hash=schema.sha256())
    scoring.save_scorer(scorer_path, ridge, schema, scoring.ridge_predict(ridge, X),
                        group_table=table, extra_meta={"scheme": scheme})
    # the offline reference reads the same files the server loads
    artifact = scoring.load_scorer(scorer_path)
    offline_source = None
    if scheme == "replacement":
        vocab = corpus.Vocabulary.load(work / "vocab.json")
        model = encoder.load_checkpoint(work / "encoder.ckpt", expected_vocab_sha256=vocab.sha256())
        offline_source = scoring.EmbeddingSource(model, vocab, artifact.group_table, "mean")
    return Artifacts(seed, scheme, serve_args, stream, artifact, offline_source)


def payload(r: corpus.ApplicationRecord) -> dict:
    return {"app_id": r.app_id, "gender": r.gender, "age": r.age_years,
            "anamnesis": list(r.anamnesis), "policy": dict(r.policy)}


def make_schedule(records: list[corpus.ApplicationRecord], rate: float,
                  rng: np.random.Generator) -> list[loadgen.Request]:
    """Scores at a fixed rate, plus /health and /psi once a second each.

    Each /score falls due at a uniformly drawn moment in the first JITTER share
    of its own 1/rate slot: the rate is exact, and due times do not line up
    with the kernel's timer ticks, which would otherwise quantize every
    latency to the tick.
    """
    seconds = len(records) / rate
    due = (np.arange(len(records)) + JITTER * rng.random(len(records))) / rate
    out = [loadgen.post_json(float(t), "/score", payload(r), "score", r.app_id)
           for t, r in zip(due, records)]
    for j in range(int(seconds)):
        out.append(loadgen.Request(j + 0.25, "GET", "/health", "health"))
        out.append(loadgen.Request(j + 0.75, "GET", f"/psi?window={PSI_WINDOW}", "psi"))
    return out


# ---------------------------------------------------------------------------
# Server processes
# ---------------------------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    setup_s: float
    log_path: Path


def _health_ok(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/health")
        resp = conn.getresponse()
        body = json.loads(resp.read())
        return resp.status == 200 and body.get("status") == "ok"
    finally:
        conn.close()


def launch(argv: list[str], root: Path, log_path: Path, stderr_path: Path,
           timeout_s: float = 120.0) -> Server:
    """Start a server; set-up time runs from launch to the first 200 from /health."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen([sys.executable, *argv, "--port", "0", "--log", str(log_path)],
                                cwd=root, env=env, stdout=subprocess.PIPE, stderr=err)
    try:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {proc.wait(timeout_s)} before listening; "
                               f"see {stderr_path}")
        port = int(json.loads(line)["listening"].rsplit(":", 1)[1])
        while not _health_ok(port):
            if time.perf_counter() - t0 > timeout_s:
                raise RuntimeError("server never answered /health with 200")
            time.sleep(0.01)
        return Server(proc, port, time.perf_counter() - t0, log_path)
    except BaseException:
        stop(proc)
        raise


def stop(proc: subprocess.Popen) -> None:
    """SIGINT, as a terminal would send, then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout:
        proc.stdout.close()


def rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS missing")


def serve_argv(art: Artifacts) -> list[str]:
    return ["-m", "ehrseq.cli", "serve", *art.serve_args]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Step:
    rate: float
    results: list[loadgen.Result]
    connections: int
    scores: list[loadgen.Result] = field(init=False)

    def __post_init__(self):
        self.scores = [r for r in self.results if r.request.tag == "score"]

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)

    def score_latencies(self) -> list[float]:
        """Due-time latencies; a failed request counts as missing every limit."""
        return [r.latency_ms if r.ok else float("inf") for r in self.scores]

    def outcome(self) -> stats.StepOutcome:
        return stats.StepOutcome(self.rate, stats.percentile(self.score_latencies(), 99),
                                 self.failed, loadgen.backlog_at_last_due(self.results),
                                 self.connections)

    def goodput(self) -> float:
        """Completed /score responses per second over the step."""
        ok = [r for r in self.scores if r.ok]
        span = max(r.done for r in ok) - min(r.sent for r in ok) if ok else 0.0
        return len(ok) / span if span > 0 else 0.0


def run_step(client: loadgen.OpenLoopClient, art: Artifacts, records, rate: float,
             conns: int) -> Step:
    """One step; a replay of the same records at the same rate has the same schedule."""
    rng = np.random.default_rng([art.seed, int(rate)])
    return Step(rate, client.run(make_schedule(records, rate, rng)), conns)


def offline_mismatches(art: Artifacts, results: list[loadgen.Result]) -> tuple[int, int, float]:
    """Compare served scores with a batch ridge_predict(assemble_features(...)) over the
    same records; return (compared, differing by more than 1e-6, worst difference)."""
    by_id = {r.app_id: r for r in art.stream}
    served = [res for res in results if res.request.tag == "score" and res.ok]
    if not served:
        return 0, 0, 0.0
    X, _ = scoring.assemble_features([by_id[res.request.key] for res in served], art.scheme,
                                     schema=art.artifact.schema, embedding_source=art.source)
    expected = scoring.ridge_predict(art.artifact.model, X, art.artifact.schema)
    diff = np.abs(np.array([res.json()["score"] for res in served]) - expected)
    return len(served), int((diff > 1e-6).sum()), float(diff.max())


def log_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def output_checks(art: Artifacts, results: list[loadgen.Result], log_path: Path,
                  checks: dict) -> tuple[int, int]:
    """Run the output checks; return (checks attempted, checks failed)."""
    checked, bad, worst = offline_mismatches(art, results)
    checks["scores_equal_offline"] = {"ok": bad == 0 and checked > 0,
                                      "detail": f"{bad} of {checked} differ; max abs diff {worst:.3e}"}
    served = sum(1 for r in results if r.request.tag == "score" and r.ok)
    lines = log_lines(log_path)
    checks["query_log_lines_equal_200s"] = {"ok": lines == served,
                                            "detail": f"{lines} log lines, {served} /score 200s"}
    return checked + 1, bad + (lines != served)


def cold_warm(results: list[loadgen.Result]) -> tuple[list[float], list[float]]:
    """Split /score latencies by whether this client already sent the applicant key.

    Applications with an empty anamnesis never reach the embedding cache and
    fall in neither group.
    """
    seen: set = set()
    cold, warm = [], []
    for res in sorted((r for r in results if r.request.tag == "score"), key=lambda r: r.sent):
        body = json.loads(res.request.body)
        if not body["anamnesis"]:
            continue
        key = (body["gender"], body["age"], tuple(sorted(body["anamnesis"])))
        (warm if key in seen else cold).append(res.latency_ms if res.ok else float("inf"))
        seen.add(key)
    return cold, warm


def run_untraced(art: Artifacts, root: Path, work: Path, seconds: float, conns: int) -> dict:
    setups = []
    for i in range(SETUP_LAUNCHES - 1):
        server = launch(serve_argv(art), root, work / f"setup{i}.jsonl", work / "server.err")
        setups.append(server.setup_s)
        stop(server.proc)
    server = launch(serve_argv(art), root, work / "queries.jsonl", work / "server.err")
    setups.append(server.setup_s)
    sizes = [round(RATES[0] * seconds)] + [round(r * LADDER_STEP_S) for r in RATES[1:]]
    if sum(sizes) > len(art.stream):
        raise RuntimeError(f"request stream too short: {len(art.stream)} < {sum(sizes)}")
    starts = np.cumsum([0] + sizes)
    records = {rate: art.stream[a:b] for rate, a, b in zip(RATES, starts, starts[1:])}
    steps: list[Step] = []
    try:
        with loadgen.OpenLoopClient("127.0.0.1", server.port, conns) as client:
            def one(rate):
                steps.append(run_step(client, art, records[rate], rate, conns))
                return steps[-1].outcome()

            _, best = stats.run_ladder(RATES, one, P99_LIMIT_MS)
        server_rss = rss_mb(server.proc.pid)
    finally:
        stop(server.proc)
    checks: dict = {}
    all_results = [r for s in steps for r in s.results]
    n_checks, failed_checks = output_checks(art, all_results, server.log_path, checks)
    first_step = steps[0]
    lat = first_step.score_latencies()
    cold, warm = cold_warm(first_step.results)
    metrics = {
        "setup_s": statistics.median(setups),
        "p50_ms": stats.percentile(lat, 50),
        "p90_ms": stats.percentile(lat, 90),
        "cold_p90_ms": stats.percentile(cold, 90),
        "warm_p90_ms": stats.percentile(warm, 90),
        "throughput_per_s": steps[RATES.index(best)].goodput() if best else 0.0,
        "rss_mb": server_rss,
    }
    failed_requests = sum(s.failed for s in steps)
    attempted = len(all_results) + n_checks
    info = {
        "setup_s_each": setups,
        "ladder": [{"rate": s.rate, "sent": len(s.results), "scores": len(s.scores),
                    "failed": s.failed, "p99_ms": s.outcome().p99_ms,
                    "backlog": s.outcome().backlog, "goodput": s.goodput(),
                    "meets_limit": stats.step_meets_limit(s.outcome(), P99_LIMIT_MS)}
                   for s in steps],
        "max_rate_within_slo": best,
        "first_step_scores": len(lat),
        "p99_ms": stats.percentile(lat, 99),
        "p99_supported": stats.supported(len(lat), 99),
        "lag_p99_ms": stats.percentile([r.lag * 1000 for r in all_results], 99),
        "cold_n": len(cold),
        "warm_n": len(warm),
    }
    return {"metrics": metrics, "checks": checks, "attempted": attempted,
            "failed": failed_requests + failed_checks, "info": info}


def run_traced(art: Artifacts, root: Path, work: Path, seconds: float, conns: int) -> dict:
    """Replay the 25 req/s step against an untraced and then a traced server."""
    rate = RATES[0]
    records = art.stream[: int(round(rate * seconds))]
    reference = records[: max(1, int(len(records) * TRACE_REFERENCE_SHARE))]
    server = launch(serve_argv(art), root, work / "reference.jsonl", work / "server.err")
    try:
        with loadgen.OpenLoopClient("127.0.0.1", server.port, conns) as client:
            ref_step = run_step(client, art, reference, rate, conns)
    finally:
        stop(server.proc)

    spans, counters_path = work / "spans.jsonl", work / "counters.json"
    launcher = [str(Path(__file__).resolve().parent / "launcher.py"),
                "--spans", str(spans), "--counters", str(counters_path), "--", *art.serve_args]
    server = launch(launcher, root, work / "queries.jsonl", work / "server.err")
    try:
        with loadgen.OpenLoopClient("127.0.0.1", server.port, conns) as client:
            step = run_step(client, art, records, rate, conns)
    finally:
        stop(server.proc)
    layer = json.loads(counters_path.read_text(encoding="utf-8"))
    metrics = dict(layer.pop("metrics"))
    handler_ms = layer.pop("handler_ms_by_request")
    transport = [r.wire_ms - handler_ms[r.request.key] for r in step.scores
                 if r.ok and r.request.key in handler_ms]
    ref_p50 = stats.percentile(ref_step.score_latencies(), 50)
    traced_p50 = stats.percentile(step.score_latencies(), 50)
    metrics.update({
        "service.transport_ms.p50": stats.percentile_or_zero(transport, 50),
        "service.transport_ms.p99": stats.percentile_or_zero(transport, 99),
        "client.lag_p99_ms": stats.percentile([r.lag * 1000 for r in step.results], 99),
        "client.sent": float(sum(r.sent >= 0 for r in step.results)),
        "client.ok": float(sum(r.ok for r in step.results)),
        "client.failed": float(step.failed),
        "trace.overhead_ratio": traced_p50 / ref_p50 - 1.0,
    })
    checks: dict = {}
    n_checks, failed_checks = output_checks(art, step.results, server.log_path, checks)
    results = step.results + ref_step.results
    return {"metrics": metrics, "checks": checks, "attempted": len(results) + n_checks,
            "failed": sum(not r.ok for r in results) + failed_checks,
            "info": {"untraced_p50_ms": ref_p50, "traced_p50_ms": traced_p50,
                     "untraced_scores": len(ref_step.scores), "traced_scores": len(step.scores),
                     "transport_samples": len(transport)},
            "self_time_s": layer.pop("self_time_s")}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> dict:
    scheme = {"serve_base": "base", "serve_replacement": "replacement"}[workload]
    conns = len(os.sched_getaffinity(0))
    art = build_artifacts(seed, scheme, work)
    if trace:
        return run_traced(art, root, work, seconds, conns)
    return run_untraced(art, root, work, seconds, conns)
