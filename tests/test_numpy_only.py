"""The package runs on numpy alone: nothing under ``ehrseq`` imports scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Every ehrseq module is imported and each path that once used scipy (GELU in
# training, pooling, ridge fit and lambda selection, a replacement-scheme
# service) runs, with "import scipy" made to fail.
SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError

import importlib
import pkgutil

import numpy as np

import ehrseq
from ehrseq.corpus import build_vocabulary, encode_history
from ehrseq.embedding import average_group_embedding, patient_embeddings
from ehrseq.encoder import EncoderModel, ModelConfig, train
from ehrseq.scoring import (EmbeddingSource, ScorerArtifact, assemble_features, ridge_fit,
                            ridge_predict, select_lambda)
from ehrseq.service import ScoringService
from ehrseq.synthetic import generate_synthetic_corpus, generate_synthetic_insurance

for info in pkgutil.walk_packages(ehrseq.__path__, "ehrseq."):
    importlib.import_module(info.name)

patients = generate_synthetic_corpus(seed=3, n_patients=60, n_codes=20)
vocab = build_vocabulary(patients)
config = ModelConfig.desk_scale(len(vocab), d=16, batch_size=16, epochs=1, seed=3)
model = EncoderModel.build(config, vocab_sha256=vocab.sha256())
losses = train(model, [encode_history(p, vocab, H=config.H) for p in patients])
assert len(losses) == 1 and np.isfinite(losses[0])
assert len(patient_embeddings(model, patients, vocab)) == len(patients)

table = average_group_embedding(model, patients, vocab, "mean")
source = EmbeddingSource(model, vocab, table, strategy="mean")
records = generate_synthetic_insurance(seed=4, patients=patients, n_apps=400, months=4,
                                       risk_groups=[patients[0].events[0].code[:3]])
X, schema = assemble_features(records, "replacement", embedding_source=source)
y = np.array([r.claim for r in records], dtype=np.float64)
ridge_fit(X, y, lam=1.0)
ridge, _ = select_lambda(X[:300], y[:300], X[300:], y[300:], schema_hash=schema.sha256())
artifact = ScorerArtifact(model=ridge, schema=schema, reference_scores=ridge_predict(ridge, X),
                          group_table=table, meta={})
service = ScoringService(artifact, "0" * 64, source)
assert service.health()["status"] == "ok"
print("ok")
"""


def test_package_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
