"""The desk pipeline workload, run in its own process so its peak RSS is its own.

    python3 perfbench/pipeline.py --seed N --dir RUN_DIR --trace 0|1 --out RESULT.json

Generates two 5,000-patient, 200-code corpora from the seed as JSONL files,
then times: set-up (ingest, filter, vocabulary, encoding, model build;
repeated, median), MLM training with ``encoder.train``, then in alternating
rounds batched ``patient_embeddings``, one-patient ``patient_embedding``
calls (some patients asked for again, for the cold/warm split) and
``next_code_accuracy`` at th=4,8 on the second corpus. With ``--trace 1`` it
trains one epoch untraced and one traced from the same initial state (both
over the first 2,500 patients), runs the rest traced, and reports per-layer
numbers instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from ehrseq import corpus, embedding, encoder, evaluation, optim, synthetic  # noqa: E402
from ehrseq import tensor as T  # noqa: E402

import stats  # noqa: E402
import tracing as tr  # noqa: E402

N_PATIENTS = 5000
N_CODES = 200
TRAIN_EPOCHS = 2
TRAIN_PATIENTS = 2500  # two epochs over half the corpus: enough to see the loss fall
SETUP_REPEATS = 5
ROUNDS = 10
NEW_PER_ROUND = 120  # one-patient calls of patients not yet embedded one at a time, each
# followed by one of a patient that was: per round 120 cold and 120 warm calls,
# so each round's p90 of either kind has ten samples beyond it
THRESHOLDS = (4, 8)
TRAIN_PHASES = ("encoder.mask", "encoder.loss_fwd", "tensor.backward", "optim.clip", "optim.adamw")


def setup(path: Path):
    """Ingest -> filter -> vocabulary -> encoded samples -> model built."""
    patients = corpus.ingest_corpus(path).patients
    kept, _ = corpus.filter_corpus(patients)
    vocab = corpus.build_vocabulary(kept)
    cfg = encoder.ModelConfig.desk_scale(len(vocab))
    samples = [corpus.encode_history(p, vocab, H=cfg.H) for p in kept]
    model = encoder.EncoderModel.build(cfg, vocab.sha256())
    return kept, vocab, samples, model


def timed_train(model, samples, epochs: int, step_clock: bool = False):
    """Train; return per-epoch losses, per-epoch seconds and per-step seconds.

    The step clock notes the time after each ``AdamW.step``, one per batch,
    so the median batch time is robust to a burst of interference.
    """
    marks = [time.perf_counter()]
    steps = [time.perf_counter()]
    adamw_step = optim.AdamW.step
    if step_clock:
        def clocked(self, grads):
            adamw_step(self, grads)
            steps.append(time.perf_counter())
        optim.AdamW.step = clocked
    try:
        losses = encoder.train(model, samples, epochs=epochs,
                               callbacks=[lambda *_: marks.append(time.perf_counter())])
    finally:
        optim.AdamW.step = adamw_step
    return (losses, [b - a for a, b in zip(marks, marks[1:])],
            [b - a for a, b in zip(steps, steps[1:])])


def install_tracing(tracer: tr.Tracer) -> None:
    for module in (corpus, embedding, encoder):
        tracer.wrap(module, "encode_history", "corpus.encode")
    tracer.wrap(corpus, "ingest_corpus", "corpus.ingest")
    tracer.wrap(corpus, "filter_corpus", "corpus.filter")
    tracer.wrap(encoder, "mlm_mask", "encoder.mask")
    tracer.wrap(encoder.EncoderModel, "forward", "encoder.forward")
    tracer.wrap(encoder.EncoderModel, "params_sha256", "encoder.params_sha256")
    tracer.wrap(optim.AdamW, "step", "optim.adamw")
    tracer.wrap(embedding, "patient_embeddings", "embedding.patient_embeddings")
    tracer.wrap(embedding, "_pool_batch", "embedding.pool")
    tracer.wrap(evaluation, "predict_next_distribution_batch", "evaluation.predict_next")

    def loss_wrapper(fn):
        def mlm_loss(self, batch, *args, **kwargs):
            tracer.count("dec_useful", int((batch.labels != encoder.IGNORE_INDEX).sum()))
            tracer.count("train_steps")
            return tracer.call("encoder.loss_fwd", fn, self, batch, *args, **kwargs)
        return mlm_loss

    def clip_wrapper(fn):
        def clip_global_norm(grads, max_norm):
            norm = tracer.call("optim.clip", fn, grads, max_norm)
            tracer.count("clipped_steps", int(norm > max_norm))
            return norm
        return clip_global_norm

    tracer.patch(encoder.EncoderModel, "mlm_loss", loss_wrapper)
    tracer.patch(encoder, "clip_global_norm", clip_wrapper)
    tr.profile_tape(tracer, T, encoder)


def layer_metrics(tracer: tr.Tracer, epoch_s: float) -> dict[str, float]:
    c = tracer.counters
    steps = c["train_steps"]
    out = {
        "corpus.ingest_s": tracer.total("corpus.ingest"),
        "corpus.filter_s": tracer.total("corpus.filter"),
        "corpus.encode_s": tracer.total("corpus.encode"),
        "encoder.mask_s": tracer.total("encoder.mask"),
        "encoder.loss_fwd_s": tracer.total("encoder.loss_fwd"),
        "tensor.backward_s": tracer.total("tensor.backward"),
        "optim.clip_s": tracer.total("optim.clip"),
        "optim.adamw_s": tracer.total("optim.adamw"),
        "encoder.train_steps": float(steps),
        "encoder.train_epoch_s": epoch_s,
        "optim.clipped_step_ratio": c["clipped_steps"] / steps if steps else 0.0,
        "evaluation.predict_next_s": tracer.total("evaluation.predict_next"),
    }
    out.update(tr.model_metrics(tracer))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    args.dir.mkdir(parents=True, exist_ok=True)
    path_a, path_b = args.dir / "corpus_a.jsonl", args.dir / "corpus_b.jsonl"
    corpus.write_patients_jsonl(synthetic.generate_synthetic_corpus(args.seed, N_PATIENTS, N_CODES), path_a)
    corpus.write_patients_jsonl(
        synthetic.generate_synthetic_corpus(args.seed + 1_000_003, N_PATIENTS, N_CODES), path_b)

    checks: dict[str, dict] = {}
    metrics: dict[str, float] = {}
    tracer = tr.Tracer()

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t = time.perf_counter()
        kept, vocab, samples, model = setup(path_a)
        setup_times.append(time.perf_counter() - t)

    if args.trace:
        ref_losses, ref_times, _ = timed_train(model, samples[:TRAIN_PATIENTS], 1)
        install_tracing(tracer)
        kept, vocab, samples, model = setup(path_a)
        losses, times, steps = timed_train(model, samples[:TRAIN_PATIENTS], 1)
        checks["traced_losses_bitwise_equal"] = {
            "ok": losses == ref_losses, "detail": f"traced {losses!r} untraced {ref_losses!r}"}
        phases = sum(tracer.total(name) for name in TRAIN_PHASES)
        checks["train_phases_cover_epoch"] = {
            "ok": abs(phases - times[0]) <= 0.1 * times[0],
            "detail": f"mask+forward+backward+clip+adamw {phases:.4f} s of epoch {times[0]:.4f} s"}
        metrics["trace.overhead_ratio"] = times[0] / ref_times[0] - 1.0
    else:
        losses, times, steps = timed_train(model, samples[:TRAIN_PATIENTS], TRAIN_EPOCHS,
                                           step_clock=True)
        falling = all(math.isfinite(x) for x in losses) and all(
            b < a for a, b in zip(losses, losses[1:]))
        checks["epoch_losses_finite_and_falling"] = {"ok": falling, "detail": repr(losses)}
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["throughput_per_s"] = model.config.batch_size / statistics.median(steps)

    # Embedding, one-patient embedding and next-code evaluation take turns in
    # rounds, so each median samples the whole phase rather than one window,
    # and a latency figure is the median over rounds of each round's figure:
    # a burst of interference from other tenants moves one round, not the run.
    second = corpus.ingest_corpus(path_b).patients
    predictor = evaluation.ModelNextCodePredictor(model, vocab)
    rng = np.random.default_rng(args.seed)
    new = rng.permutation(len(kept))[: ROUNDS * NEW_PER_ROUND].reshape(ROUNDS, NEW_PER_ROUND)
    batched, single, seen, embed_rates, nextcode_rates = [], {}, [], [], []
    cold_ms, warm_ms = [[] for _ in range(ROUNDS)], [[] for _ in range(ROUNDS)]
    hits = {th: [0, 0] for th in THRESHOLDS}  # th -> [correct, prefixes]
    for r, (part_a, part_b) in enumerate(zip(np.array_split(np.arange(len(kept)), ROUNDS),
                                             np.array_split(np.arange(len(second)), ROUNDS))):
        chunk = [kept[i] for i in part_a]
        t = time.perf_counter()
        batched += embedding.patient_embeddings(model, chunk, vocab, "mean")
        embed_rates.append(len(chunk) / (time.perf_counter() - t))
        for i in new[r]:
            seen.append(i)
            for kind, j in ((cold_ms, i), (warm_ms, seen[rng.integers(len(seen))])):
                t = time.perf_counter()
                single[j] = embedding.patient_embedding(model, kept[j], vocab, "mean")
                kind[r].append((time.perf_counter() - t) * 1000.0)
        t = time.perf_counter()
        report = evaluation.next_code_accuracy(predictor, [second[i] for i in part_b], THRESHOLDS)
        elapsed = time.perf_counter() - t
        nextcode_rates.append(sum(c.count for c in report.cells) / elapsed)
        for c in report.cells:
            hits[c.key["th"]][0] += round(c.value * c.count)
            hits[c.key["th"]][1] += c.count

    worst = max(float(np.max(np.abs(e.vector - batched[i].vector))) for i, e in single.items())
    checks["batched_equals_single_embedding"] = {"ok": worst <= 1e-5, "detail": f"max abs diff {worst:.3e}"}
    prefixes = sum(n for _, n in hits.values())
    checks["nextcode_report_complete"] = {
        "ok": all(n > 0 and 0 <= k <= n for k, n in hits.values()),
        "detail": ", ".join(f"th={th}: {k / max(n, 1):.4f} over {n}" for th, (k, n) in hits.items())}

    rates = {"embedding.patients_per_s": statistics.median(embed_rates),
             "evaluation.prefixes_per_s": statistics.median(nextcode_rates)}
    if args.trace:
        tracer.restore()
        metrics.update(layer_metrics(tracer, times[0]))
        metrics.update(rates)
        tracer.write(args.dir / "spans.jsonl")
    else:
        def over_rounds(p, *kinds):
            return statistics.median(stats.percentile(sum((k[r] for k in kinds), []), p)
                                     for r in range(ROUNDS))

        metrics["p50_ms"] = over_rounds(50, cold_ms, warm_ms)
        metrics["p90_ms"] = over_rounds(90, cold_ms, warm_ms)
        metrics["cold_p90_ms"] = over_rounds(90, cold_ms)
        metrics["warm_p90_ms"] = over_rounds(90, warm_ms)
        metrics["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    single_ms = sum(cold_ms + warm_ms, [])
    out = {"metrics": metrics, "checks": checks,
           "self_time_s": tracer.self_times() if args.trace else {},
           "info": {**rates, "single_calls": len(single_ms),
                    "p99_ms": stats.percentile(single_ms, 99)},
           "work": {"patients": len(kept), "vocab": len(vocab), "epoch_s": times,
                    "losses": losses, "prefixes": prefixes},
           "samples": {"step_s": steps, "embed_patients_per_s": embed_rates,
                       "cold_ms": cold_ms, "warm_ms": warm_ms,
                       "nextcode_prefixes_per_s": nextcode_rates}}
    args.out.write_text(json.dumps(out, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
