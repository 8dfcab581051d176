"""Insurance risk scoring: f(application) = risk value.

Two feature schemes over :class:`ApplicationRecord`:

* base: policy fields one-hot (P-part) + applicant one-hots (gender, age
  decade, one indicator per known anamnesis code);
* replacement: the same P-part, with the applicant block replaced by an
  encoder embedding of a pseudo-history built from gender, age and the
  lexicographically ordered anamnesis codes. Applications with an empty
  anamnesis fall back to the averaged (gender, age) group embedding.

The classifier is ridge regression on 0/1 claims (normal equations via
Cholesky, internal standardization, unpenalized intercept), scored with
rank-based ROC AUC per month. PSI over reference-derived score deciles
monitors drift.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .container import check_pin, load_artifact, save_artifact
from .corpus import GENDERS, ApplicationRecord, Event, PatientHistory, Vocabulary
from .embedding import GroupTable, embedding_dim, patient_embeddings
from .encoder import EncoderModel, load_with_vocab

MISSING = "__missing__"
LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
_PSEUDO_DATE = dt.date(2000, 1, 1)
EMBEDDING_CACHE_SIZE = 50_000  # cached embedding keys; the least recently used go first


class SchemaError(ValueError):
    """Feature schema mismatch or unknown field."""


@dataclass
class FeatureBlock:
    name: str
    kind: str  # one_hot | multi_hot | embedding
    columns: list[str]
    offset: int

    @property
    def width(self) -> int:
        return len(self.columns)


@dataclass
class FeatureSchema:
    scheme: str  # base | replacement
    blocks: list[FeatureBlock]

    @property
    def width(self) -> int:
        return sum(b.width for b in self.blocks)

    def block(self, name: str) -> FeatureBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)

    def to_json(self) -> str:
        payload = {
            "scheme": self.scheme,
            "blocks": [
                {"name": b.name, "kind": b.kind, "columns": b.columns, "offset": b.offset}
                for b in self.blocks
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FeatureSchema":
        obj = json.loads(text)
        blocks = [FeatureBlock(b["name"], b["kind"], list(b["columns"]), int(b["offset"]))
                  for b in obj["blocks"]]
        return cls(obj["scheme"], blocks)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


class EmbeddingSource:
    """Encoder + vocabulary + the group-average table built from both.

    Embeddings of identical (gender, age, anamnesis) keys are cached; with
    tens of thousands of applications drawn from a few thousand patients the
    cache removes nearly all forward passes. The cache keeps the
    ``EMBEDDING_CACHE_SIZE`` most recently used keys, so memory stays bounded
    over a long run; it counts hits, misses and evictions.
    """

    def __init__(self, model: EncoderModel, vocab: Vocabulary, group_table: GroupTable,
                 strategy: str = "mean"):
        check_pin("pooling strategy", group_table.strategy, strategy)
        check_pin("vocabulary", group_table.vocab_sha256, vocab.sha256())
        self.encoder_sha256 = model.params_sha256()
        check_pin("encoder", group_table.encoder_sha256, self.encoder_sha256)
        self.model = model
        self.vocab = vocab
        self.group_table = group_table
        self.strategy = strategy
        self._cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._cache_lock = threading.Lock()
        self.cache_hits = self.cache_misses = self.cache_evictions = 0

    @property
    def dim(self) -> int:
        return embedding_dim(self.model.config.d, self.strategy)

    def cache_stats(self) -> dict:
        with self._cache_lock:
            return {"entries": len(self._cache), "capacity": EMBEDDING_CACHE_SIZE,
                    "hits": self.cache_hits, "misses": self.cache_misses,
                    "evictions": self.cache_evictions}

    def _pseudo_history(self, gender: str, age: int, codes: Sequence[str]) -> PatientHistory:
        events = [Event(_PSEUDO_DATE, c) for c in sorted(codes)]
        return PatientHistory("", gender, age, events)

    def vectors(self, records: Sequence[ApplicationRecord]) -> np.ndarray:
        out = np.empty((len(records), self.dim), dtype=np.float64)
        pending: dict[tuple, list[int]] = {}
        with self._cache_lock:
            for i, r in enumerate(records):
                if not r.anamnesis:
                    out[i] = self.group_table.lookup(r.gender, r.age_years)
                    continue
                key = (r.gender, r.age_years, tuple(sorted(r.anamnesis)))
                hit = self._cache.get(key)
                if hit is not None:
                    self._cache.move_to_end(key)
                    self.cache_hits += 1
                    out[i] = hit
                else:
                    self.cache_misses += 1
                    pending.setdefault(key, []).append(i)
        if pending:
            keys = list(pending)
            histories = [self._pseudo_history(g, a, codes) for g, a, codes in keys]
            embs = patient_embeddings(self.model, histories, self.vocab, self.strategy)
            with self._cache_lock:
                for key, emb in zip(keys, embs):
                    vec = emb.vector.astype(np.float64)
                    self._cache[key] = vec
                    self._cache.move_to_end(key)
                    for i in pending[key]:
                        out[i] = vec
                while len(self._cache) > EMBEDDING_CACHE_SIZE:
                    self._cache.popitem(last=False)
                    self.cache_evictions += 1
        return out


def _decade(age: int) -> str:
    a = min(max(age, 0), 99)
    return f"{(a // 10) * 10}s"


def derive_schema(records: Sequence[ApplicationRecord], scheme: str,
                  embedding_source: EmbeddingSource | None = None) -> FeatureSchema:
    """Build the feature layout from training records only."""
    if scheme not in ("base", "replacement"):
        raise ValueError(f"scheme must be 'base' or 'replacement', got {scheme!r}")
    if not records:
        raise ValueError("cannot derive a schema from zero records")
    blocks: list[FeatureBlock] = []
    offset = 0

    def push(name, kind, columns):
        nonlocal offset
        blocks.append(FeatureBlock(name, kind, columns, offset))
        offset += len(columns)

    fields = sorted({k for r in records for k in r.policy})
    for f_name in fields:
        values = sorted({r.policy[f_name] for r in records if f_name in r.policy})
        push(f"policy.{f_name}", "one_hot", values + [MISSING])
    if scheme == "base":
        push("gender", "one_hot", list(GENDERS) + [MISSING])
        push("age_decade", "one_hot", [f"{d * 10}s" for d in range(10)] + [MISSING])
        codes = sorted({c for r in records for c in r.anamnesis})
        push("anamnesis", "multi_hot", codes + [MISSING])
    else:
        if embedding_source is None:
            raise ValueError("replacement scheme needs an embedding source")
        push("applicant_embedding", "embedding", [f"e{i}" for i in range(embedding_source.dim)])
    return FeatureSchema(scheme, blocks)


def assemble_features(
    records: Sequence[ApplicationRecord],
    scheme: str,
    schema: FeatureSchema | None = None,
    embedding_source: EmbeddingSource | None = None,
) -> tuple[np.ndarray, FeatureSchema]:
    """Feature matrix for records; derives the schema when none is given.

    In apply mode unseen one-hot values land in the block's missing column;
    a policy field absent from the schema raises :class:`SchemaError`.
    """
    if schema is None:
        schema = derive_schema(records, scheme, embedding_source)
    elif schema.scheme != scheme:
        raise SchemaError(f"schema carries scheme {schema.scheme!r}, requested {scheme!r}")
    X = np.zeros((len(records), schema.width), dtype=np.float64)
    policy_blocks = {b.name[len("policy."):]: b for b in schema.blocks if b.name.startswith("policy.")}
    for i, r in enumerate(records):
        for f_name, value in r.policy.items():
            blk = policy_blocks.get(f_name)
            if blk is None:
                raise SchemaError(f"record {r.app_id}: unknown policy field {f_name!r}")
            try:
                j = blk.columns.index(value)
            except ValueError:
                j = blk.columns.index(MISSING)
            X[i, blk.offset + j] = 1.0
        for f_name, blk in policy_blocks.items():
            if f_name not in r.policy:
                X[i, blk.offset + blk.columns.index(MISSING)] = 1.0
    if scheme == "base":
        gb = schema.block("gender")
        ab = schema.block("age_decade")
        anam = schema.block("anamnesis")
        known = {c: j for j, c in enumerate(anam.columns[:-1])}
        for i, r in enumerate(records):
            j = gb.columns.index(r.gender) if r.gender in gb.columns else gb.columns.index(MISSING)
            X[i, gb.offset + j] = 1.0
            X[i, ab.offset + ab.columns.index(_decade(r.age_years))] = 1.0
            unseen = False
            for c in r.anamnesis:
                jj = known.get(c)
                if jj is None:
                    unseen = True
                else:
                    X[i, anam.offset + jj] = 1.0
            if unseen:
                X[i, anam.offset + anam.width - 1] = 1.0
    else:
        if embedding_source is None:
            raise ValueError("replacement scheme needs an embedding source")
        eb = schema.block("applicant_embedding")
        if eb.width != embedding_source.dim:
            raise SchemaError(
                f"schema embedding width {eb.width} does not match source dim {embedding_source.dim}"
            )
        X[:, eb.offset : eb.offset + eb.width] = embedding_source.vectors(records)
    return X, schema


# ---------------------------------------------------------------------------
# Ridge
# ---------------------------------------------------------------------------


@dataclass
class RidgeModel:
    weights: np.ndarray
    intercept: float | np.ndarray
    lam: float
    mean: np.ndarray
    scale: np.ndarray
    schema_hash: str = ""
    training_period: str = ""


def ridge_solve(X: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Solve (XᵀX + λI) W = XᵀY by Cholesky; Y may have multiple columns."""
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    p = X.shape[1]
    A = X.T @ X + lam * np.eye(p)
    return cho_solve(cho_factor(A), X.T @ Y)


def ridge_fit(X: np.ndarray, y: np.ndarray, lam: float,
              schema_hash: str = "", training_period: str = "") -> RidgeModel:
    """Standardize columns, solve the normal equations, keep the intercept
    unpenalized (it equals the label mean on centered features).

    ``y`` is a label vector or an (n, k) target matrix; a matrix gets one
    weight column and one intercept per target.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} rows vs {y.shape[0]} labels")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    if len(np.unique(y)) < 2:
        raise ValueError("labels contain a single class")
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    Xs = (X - mean) / scale
    ybar = y.mean(axis=0)
    w = ridge_solve(Xs, y - ybar, lam)
    return RidgeModel(weights=w, intercept=ybar, lam=lam, mean=mean, scale=scale,
                      schema_hash=schema_hash, training_period=training_period)


def check_schema(model: RidgeModel, schema: FeatureSchema) -> None:
    if model.schema_hash and schema.sha256() != model.schema_hash:
        raise SchemaError("feature schema does not match the fitted model")


def ridge_predict(model: RidgeModel, X: np.ndarray, schema: FeatureSchema | None = None) -> np.ndarray:
    if schema is not None:
        check_schema(model, schema)
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.weights.shape[0]:
        raise SchemaError(f"feature width {X.shape[1]} does not match model ({model.weights.shape[0]})")
    return ((X - model.mean) / model.scale) @ model.weights + model.intercept


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their positions."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], xs.size]  # one past each tie group
    ranks = np.empty(xs.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with midranks for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"scores shape {scores.shape} vs labels {labels.shape}")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    ranks = _midranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def select_lambda(
    X_train: np.ndarray, y_train: np.ndarray,
    X_val: np.ndarray, y_val: np.ndarray,
    grid: Sequence[float] = LAMBDA_GRID,
    metric: Callable[[np.ndarray, np.ndarray], float] = roc_auc,
    schema_hash: str = "", training_period: str = "",
) -> tuple[RidgeModel, dict[float, float]]:
    """Fit each λ on the grid and keep the best ``metric(val_scores, y_val)``;
    among equal scores the earliest λ in the grid wins."""
    scores: dict[float, float] = {}
    best: tuple[float, RidgeModel] | None = None
    for lam in grid:
        m = ridge_fit(X_train, y_train, lam, schema_hash, training_period)
        score = metric(ridge_predict(m, X_val), y_val)
        scores[lam] = score
        if best is None or score > best[0]:
            best = (score, m)
    if best is None:
        raise ValueError("empty lambda grid")
    return best[1], scores


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class MonthlyReport:
    cells: list[tuple[int, float, int]]  # (month, auc, n)
    average: float
    skipped_months: list[int] = field(default_factory=list)

    def aucs(self) -> list[float]:
        return [auc for _, auc, _ in self.cells]


def monthly_eval(scores: np.ndarray, labels: np.ndarray, months: np.ndarray) -> MonthlyReport:
    """Per-month ROC AUC plus the unweighted average; single-class months
    are reported as skipped rather than failing the whole evaluation."""
    months = np.asarray(months)
    cells: list[tuple[int, float, int]] = []
    skipped: list[int] = []
    for m in sorted(set(months.tolist())):
        sel = months == m
        try:
            auc = roc_auc(scores[sel], labels[sel])
        except ValueError:
            skipped.append(m)
            continue
        cells.append((m, auc, int(sel.sum())))
    if not cells:
        raise ValueError("no month had both classes present")
    avg = float(np.mean([a for _, a, _ in cells]))
    return MonthlyReport(cells, avg, skipped)


def psi(reference: np.ndarray, current: np.ndarray, bins: int = 10,
        edges: np.ndarray | None = None) -> float:
    """Population Stability Index over reference-quantile bins.

    Σ (cᵢ − rᵢ)·ln(cᵢ/rᵢ) with proportions floored at 1e-6. The inner bin
    edges come from reference quantiles unless fixed ``edges`` are supplied
    (fixed shared edges make the statistic symmetric in its two arguments).
    Bins are left-closed and the outer two open-ended, so a score equal to
    an edge falls in the bin to its right.
    """
    reference = np.asarray(reference, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    if reference.size == 0:
        raise ValueError("reference sample is empty")
    if current.size == 0:
        raise ValueError("current sample is empty")
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if edges is None:
        qs = np.arange(1, bins) / bins
        edges = np.quantile(reference, qs)
    r, c = (np.bincount(np.searchsorted(edges, x, side="right"), minlength=len(edges) + 1)
            / x.size for x in (reference, current))
    eps = 1e-6
    r = np.maximum(r, eps)
    c = np.maximum(c, eps)
    return float(np.sum((c - r) * np.log(c / r)))


# ---------------------------------------------------------------------------
# Scorer artifact
# ---------------------------------------------------------------------------


@dataclass
class ScorerArtifact:
    model: RidgeModel
    schema: FeatureSchema
    reference_scores: np.ndarray
    group_table: GroupTable | None
    meta: dict


def save_scorer(
    path: str | Path,
    model: RidgeModel,
    schema: FeatureSchema,
    reference_scores: np.ndarray,
    group_table: GroupTable | None = None,
    extra_meta: dict | None = None,
) -> None:
    """Write a scorer artifact; refuses a ``schema`` other than the one ``model`` was fit on."""
    check_pin("feature schema", model.schema_hash, schema.sha256())
    meta = {
        "schema": schema.to_json(),
        "schema_hash": model.schema_hash,
        "lam": model.lam,
        "intercept": model.intercept,
        "training_period": model.training_period,
        "embedding_strategy": group_table.strategy if group_table else None,
        "encoder_sha256": group_table.encoder_sha256 if group_table else None,
        "vocab_sha256": group_table.vocab_sha256 if group_table else None,
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = {
        "weights": model.weights.astype(np.float32),
        "mean": model.mean.astype(np.float32),
        "scale": model.scale.astype(np.float32),
        "reference_scores": np.asarray(reference_scores, dtype=np.float32),
    }
    if group_table is not None:
        arrays.update(group_table.to_arrays())
    save_artifact(path, kind="scorer", meta=meta, arrays=arrays)


def load_scorer(path: str | Path) -> ScorerArtifact:
    meta, arrays = load_artifact(path, kind="scorer")
    schema = FeatureSchema.from_json(meta["schema"])
    model = RidgeModel(
        weights=arrays["weights"].astype(np.float64),
        intercept=float(meta["intercept"]),
        lam=float(meta["lam"]),
        mean=arrays["mean"].astype(np.float64),
        scale=arrays["scale"].astype(np.float64),
        schema_hash=meta["schema_hash"],
        training_period=meta.get("training_period", ""),
    )
    group_table = None
    if "group_global_mean" in arrays:
        group_table = replace(GroupTable.from_arrays(meta.get("embedding_strategy") or "mean", arrays),
                              encoder_sha256=meta.get("encoder_sha256", ""),
                              vocab_sha256=meta.get("vocab_sha256", ""))
    return ScorerArtifact(model, schema, arrays["reference_scores"].astype(np.float64),
                          group_table, meta)


def load_embedding_source(artifact: ScorerArtifact, encoder_path: str | Path | None,
                          vocab_path: str | Path | None) -> EmbeddingSource:
    """Rebuild a replacement scorer's embedding source from the encoder
    checkpoint and vocabulary it was fit with, and the artifact's group table."""
    if encoder_path is None or vocab_path is None:
        raise ValueError("replacement-scheme scorer needs an encoder checkpoint (--model) "
                         "and a vocabulary (--vocab)")
    if artifact.group_table is None:
        raise ValueError("replacement-scheme scorer artifact lacks a group table")
    model, vocab = load_with_vocab(encoder_path, vocab_path)
    return EmbeddingSource(model, vocab, artifact.group_table, artifact.group_table.strategy)
