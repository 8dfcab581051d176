"""Traced scoring server: ``ehrseq serve`` run in-process with spans recorded.

    python3 perfbench/launcher.py --spans SPANS.jsonl --counters COUNTERS.json -- <serve args>

Installs wrappers around the entry points of ``service``, ``scoring``,
``embedding`` and ``encoder`` (and the tensor primitives), then calls the
same ``ehrseq.cli.main(["serve", ...])`` the console script runs. On SIGINT
the server stops as ``ehrseq serve`` does, and the spans and counters are
written out.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ehrseq import cli, embedding, encoder, scoring, service  # noqa: E402
from ehrseq import tensor as T  # noqa: E402

import stats  # noqa: E402
import tracing as tr  # noqa: E402


class TimedLock:
    """Stands in for the service's log lock and times each wait to acquire it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.waits: list[float] = []

    def __enter__(self):
        t = time.perf_counter()
        self._lock.acquire()
        self.waits.append(time.perf_counter() - t)
        return self

    def __exit__(self, *exc):
        self._lock.release()


def install(tracer: tr.Tracer, state: dict) -> None:
    seq = itertools.count(1)

    def handler_wrapper(name):
        def make(fn):
            def handler(self):
                tracer.set_request(f"{name}-{next(seq)}")
                try:
                    return tracer.call(f"service.handler.{name}", fn, self)
                finally:
                    tracer.set_request(None)
            return handler
        return make

    tracer.patch(service._Handler, "do_POST", handler_wrapper("post"))
    tracer.patch(service._Handler, "do_GET", handler_wrapper("get"))

    def score_wrapper(fn):
        def score_payload(self, payload):
            if isinstance(payload, dict) and isinstance(payload.get("app_id"), str):
                tracer.set_request(payload["app_id"])
            return tracer.call("service.score_payload", fn, self, payload)
        return score_payload

    def from_files_wrapper(fn):
        def from_files(cls, *args, **kwargs):
            svc = fn(cls, *args, **kwargs)
            lock = TimedLock()
            svc._log_lock = lock
            state.update(service=svc, lock=lock)
            return svc
        return from_files

    def vectors_wrapper(fn):
        def vectors(self, records):
            for r in records:
                if r.anamnesis:
                    key = (r.gender, r.age_years, tuple(sorted(r.anamnesis)))
                    tracer.count("cache_hits" if key in self._cache else "cache_misses")
            return tracer.call("scoring.embed", fn, self, records)
        return vectors

    tracer.patch(service.ScoringService, "score_payload", score_wrapper)
    tracer.patch(service.ScoringService, "from_files", from_files_wrapper)
    tracer.wrap(service, "parse_score_request", "service.parse")
    tracer.wrap(service, "assemble_features", "scoring.features")
    tracer.wrap(service, "ridge_predict", "scoring.ridge")
    tracer.wrap(service.ScoringService, "_append_log", "service.log")
    tracer.wrap(service.ScoringService, "psi_over_window", "service.psi")
    tracer.wrap(service.ScoringService, "health", "service.health")
    tracer.patch(scoring.EmbeddingSource, "vectors", vectors_wrapper)
    tracer.wrap(scoring, "patient_embeddings", "embedding.patient_embeddings")
    tracer.wrap(embedding, "_pool_batch", "embedding.pool")
    tracer.wrap(encoder.EncoderModel, "forward", "encoder.forward")
    tracer.wrap(encoder.EncoderModel, "params_sha256", "encoder.params_sha256")
    tr.profile_tape(tracer, T, encoder)


def layer_metrics(tracer: tr.Tracer, state: dict) -> dict[str, float]:
    c = tracer.counters
    svc = state.get("service")
    source = svc.embedding_source if svc else None
    lock = state.get("lock")

    def p50_ms(name):
        return stats.percentile_or_zero([d * 1000.0 for d in tracer.durations(name)], 50)

    handler = [d * 1000.0 for d in tracer.durations("service.handler.post")]
    looked_up = c["cache_hits"] + c["cache_misses"]
    out = {
        "service.handler_ms.p50": stats.percentile_or_zero(handler, 50),
        "service.handler_ms.p99": stats.percentile_or_zero(handler, 99),
        "service.parse_ms": p50_ms("service.parse"),
        "scoring.features_ms": p50_ms("scoring.features"),
        "scoring.ridge_ms": p50_ms("scoring.ridge"),
        "scoring.embed_ms": p50_ms("scoring.embed"),
        "scoring.cache_hits": float(c["cache_hits"]),
        "scoring.cache_misses": float(c["cache_misses"]),
        "scoring.cache_hit_ratio": c["cache_hits"] / looked_up if looked_up else 0.0,
        "scoring.cache_entries": float(len(source._cache)) if source else 0.0,
        "service.logged_scores": float(len(svc._logged_scores)) if svc else 0.0,
        "service.log_ms": p50_ms("service.log"),
        "service.log_lock_wait_ms": stats.percentile_or_zero(
            [w * 1000.0 for w in lock.waits] if lock else [], 99),
        "service.psi_ms": p50_ms("service.psi"),
        "service.health_ms": p50_ms("service.health"),
    }
    out.update(tr.model_metrics(tracer))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans", type=Path, required=True)
    ap.add_argument("--counters", type=Path, required=True)
    ap.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    tracer = tr.Tracer()
    state: dict = {}
    install(tracer, state)
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        tracer.restore()
        handler_ms = {s[5]: (s[4] - s[3]) * 1000.0 for s in tracer.spans
                      if s[2] == "service.handler.post"}
        summary = {"metrics": layer_metrics(tracer, state), "handler_ms_by_request": handler_ms,
                   "self_time_s": tracer.self_times()}
        tracer.write(args.spans)
        args.counters.write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
