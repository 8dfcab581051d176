"""The benchmark's tracing targets exist and are reached through their names.

``perfbench/pipeline.py`` and ``perfbench/launcher.py`` replace functions of
this package by module or class attribute at run time, and find the layers
they report through the spans those wrappers record. A rename, or a call that
no longer goes through the patched name, fails here instead of crashing or
zeroing a traced benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import launcher  # noqa: E402
import pipeline  # noqa: E402
import tracing  # noqa: E402

from ehrseq import corpus, embedding, encoder, evaluation, scoring, service  # noqa: E402
from ehrseq.synthetic import generate_synthetic_corpus, generate_synthetic_insurance  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    patients = generate_synthetic_corpus(seed=21, n_patients=80, n_codes=40)
    patients, _ = corpus.filter_corpus(patients, min_code_freq=2)
    vocab = corpus.build_vocabulary(patients)
    config = encoder.ModelConfig(vocab_size=len(vocab), d=16, n_layers=1, n_heads=2,
                                 max_len=27, batch_size=32, epochs=1, seed=2)
    return patients, vocab, config


def _parents(tracer, name):
    names = {s[0]: s[2] for s in tracer.spans}
    return {names.get(s[1]) for s in tracer.spans if s[2] == name}


def test_pipeline_tracing_reaches_every_layer(tiny):
    patients, vocab, config = tiny
    model = encoder.EncoderModel.build(config, vocab.sha256())
    samples = [corpus.encode_history(p, vocab, H=config.H) for p in patients]
    tracer = tracing.Tracer()
    pipeline.install_tracing(tracer)
    try:
        encoder.train(model, samples)
        embedding.patient_embeddings(model, patients, vocab, "mean")
        evaluation.next_code_accuracy(evaluation.ModelNextCodePredictor(model, vocab),
                                      patients, (4,))
        metrics = pipeline.layer_metrics(tracer, 1.0)
    finally:
        tracer.restore()
    for name in ("encoder.mask", "encoder.loss_fwd", "tensor.backward", "optim.clip",
                 "optim.adamw"):
        assert tracer.durations(name), name
    assert metrics["encoder.train_steps"] > 0
    assert metrics["evaluation.predict_next_s"] > 0
    assert metrics["embedding.forward_s"] > 0
    assert {"embedding.patient_embeddings", "evaluation.predict_next"} <= _parents(
        tracer, "corpus.encode")
    assert "embedding.patient_embeddings" in _parents(tracer, "embedding.pool")


def test_launcher_tracing_reaches_every_layer(tiny, tmp_path):
    patients, vocab, config = tiny
    model = encoder.EncoderModel.build(config, vocab.sha256())
    table = embedding.average_group_embedding(model, patients, vocab, "mean")
    source = scoring.EmbeddingSource(model, vocab, table, "mean")
    records = generate_synthetic_insurance(seed=22, patients=patients, n_apps=400,
                                           months=3, risk_groups=["I25"])
    X, schema = scoring.assemble_features(records, "replacement", embedding_source=source)
    y = np.array([r.claim for r in records], dtype=np.float64)
    ridge = scoring.ridge_fit(X, y, lam=10.0, schema_hash=schema.sha256())
    scoring.save_scorer(tmp_path / "scorer.bin", ridge, schema, scoring.ridge_predict(ridge, X),
                        group_table=table)
    encoder.save_checkpoint(model, tmp_path / "encoder.ckpt")
    vocab.save(tmp_path / "vocab.tsv")
    rec = next(r for r in records if r.anamnesis)
    payload = {"app_id": rec.app_id, "gender": rec.gender, "age": rec.age_years,
               "anamnesis": rec.anamnesis, "policy": rec.policy}

    tracer = tracing.Tracer()
    state: dict = {}
    launcher.install(tracer, state)
    try:
        svc = service.ScoringService.from_files(tmp_path / "scorer.bin",
                                                tmp_path / "encoder.ckpt",
                                                tmp_path / "vocab.tsv")
        try:
            svc.score_payload(payload)
            svc.score_payload(payload)
            svc.health()
            svc.psi_over_window()
            metrics = launcher.layer_metrics(tracer, state)
        finally:
            svc.close()
    finally:
        tracer.restore()
    assert state["service"] is svc
    assert metrics["scoring.cache_misses"] == 1 and metrics["scoring.cache_hits"] == 1
    assert metrics["scoring.cache_entries"] == 1
    assert metrics["service.logged_scores"] == 2
    for name in ("service.parse", "scoring.features", "scoring.ridge", "service.log",
                 "service.psi", "service.health", "encoder.params_sha256"):
        assert tracer.durations(name), name
    assert "scoring.embed" in _parents(tracer, "embedding.patient_embeddings")
    assert "embedding.patient_embeddings" in _parents(tracer, "encoder.forward")
    assert "embedding.patient_embeddings" in _parents(tracer, "embedding.pool")
