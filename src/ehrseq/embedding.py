"""Patient and concept embeddings on top of a trained encoder.

:func:`embed_batch` is the one embedding path: it encodes histories, runs
them through the encoder's inference batches (:func:`~ehrseq.encoder.infer_batches`,
the loop next-code prediction uses too) and pools the contextual vectors
into one fixed vector per patient under each requested strategy.
Mean and max run over all non-PAD positions, including the CLS and
demographic slots (an ``events_only`` flag restricts them to event slots).
On the static token table the module answers nearest-neighbor queries; on a
corpus it builds (gender, age) group averages with a coarsening fallback
chain, gender/age risk curves from the next-code head, and a TSV export for
external projection tools.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .container import atomic_write
from .corpus import GENDERS, GENDER_TOKENS, N_AGES, PatientHistory, Vocabulary, encode_history
from .encoder import EncoderModel, infer_batches, predict_next_distribution_batch

POOLING_STRATEGIES = ("cls", "mean", "max", "concat_mean_max")


@dataclass
class PatientEmbedding:
    patient_id: str
    vector: np.ndarray
    strategy: str


def pool(hidden: np.ndarray, attention_mask: np.ndarray, strategy: str,
         events_only: bool = False) -> np.ndarray:
    """Reduce (L, d) contextual vectors to one vector over non-PAD positions."""
    hidden = np.asarray(hidden)
    mask = np.asarray(attention_mask)
    if hidden.ndim != 2 or mask.shape != (hidden.shape[0],):
        raise ValueError(f"expected (L, d) vectors and (L,) mask, got {hidden.shape} / {mask.shape}")
    return _pool_batch(hidden[None], mask[None], strategy, events_only)[0]


def embedding_dim(d: int, strategy: str) -> int:
    if strategy not in POOLING_STRATEGIES:
        raise ValueError(f"pooling strategy must be one of {POOLING_STRATEGIES}, got {strategy!r}")
    return 2 * d if strategy == "concat_mean_max" else d


def _pool_batch(hidden: np.ndarray, mask: np.ndarray, strategy: str,
                events_only: bool = False) -> np.ndarray:
    """Pool a (B, L, d) batch of contextual vectors under a (B, L) mask."""
    if strategy not in POOLING_STRATEGIES:
        raise ValueError(f"pooling strategy must be one of {POOLING_STRATEGIES}, got {strategy!r}")
    m = mask.astype(bool)
    if events_only:
        m = m.copy()
        m[:, :3] = False
    if (~m.any(axis=1)).any():
        raise ValueError("no positions to pool over (all PAD)")
    if strategy == "cls":
        return hidden[:, 0].copy()
    w = m[..., None]
    mean = (hidden * w).sum(axis=1) / w.sum(axis=1)
    if strategy == "mean":
        return mean
    mx = np.where(w, hidden, -np.inf).max(axis=1)
    if strategy == "max":
        return mx
    return np.concatenate([mean, mx], axis=1)


def embed_batch(
    model: EncoderModel,
    histories: Sequence[PatientHistory],
    vocab: Vocabulary,
    poolings: Sequence[str],
    events_only: bool = False,
) -> dict[str, np.ndarray]:
    """Pooled vectors of many histories, one float64 (N, dim) array per strategy.

    Histories are encoded as the model was trained (``config.use_gender_age``),
    run through the model in the batches of
    :func:`~ehrseq.encoder.infer_batches` and pooled under every strategy;
    row i of every result is the vector of ``histories[i]``.
    """
    cfg = model.config
    out = {s: np.empty((len(histories), embedding_dim(cfg.d, s))) for s in poolings}
    samples = [encode_history(p, vocab, H=cfg.H, use_gender_age=cfg.use_gender_age)
               for p in histories]
    for rows, attn, hidden, _ in infer_batches(model, samples, decode=False):
        for s in poolings:
            out[s][rows] = _pool_batch(hidden, attn, s, events_only)
    return out


def patient_embeddings(
    model: EncoderModel,
    patients: Sequence[PatientHistory],
    vocab: Vocabulary,
    strategy: str = "mean",
    events_only: bool = False,
) -> list[PatientEmbedding]:
    """Embed many patients as float32 vectors under one pooling strategy."""
    vecs = embed_batch(model, patients, vocab, (strategy,), events_only)[strategy]
    return [PatientEmbedding(p.patient_id, v.astype(np.float32), strategy)
            for p, v in zip(patients, vecs)]


def patient_embedding(model: EncoderModel, p: PatientHistory, vocab: Vocabulary,
                      strategy: str = "mean") -> PatientEmbedding:
    return patient_embeddings(model, [p], vocab, strategy)[0]


# ---------------------------------------------------------------------------
# Token-table neighbors
# ---------------------------------------------------------------------------

RESTRICT_CLASSES = ("icd", "age", "gender", "any")


def nearest_tokens(
    model: EncoderModel,
    vocab: Vocabulary,
    query: str,
    top_n: int = 10,
    restrict: str = "any",
) -> list[tuple[str, float]]:
    """Most cosine-similar entries of the static token-embedding table.

    The query itself is excluded; zero-norm candidate rows are dropped with
    a warning since cosine similarity is undefined for them.
    """
    if restrict not in RESTRICT_CLASSES:
        raise ValueError(f"restrict must be one of {RESTRICT_CLASSES}, got {restrict!r}")
    if query not in vocab.index:
        raise ValueError(f"query token {query!r} not in vocabulary")
    table = model.params["tok_emb"].data
    qid = vocab.id_for(query)
    qv = table[qid]
    qnorm = float(np.linalg.norm(qv))
    if qnorm == 0.0:
        raise ValueError(f"query token {query!r} has a zero embedding")
    cand = np.asarray(vocab.ids(restrict))
    cand = cand[cand != qid]
    vecs = table[cand]
    norms = np.linalg.norm(vecs, axis=1)
    nonzero = norms > 0.0
    if not nonzero.all():
        warnings.warn(f"excluded {int((~nonzero).sum())} zero-norm token embeddings from neighbor search")
        cand, vecs, norms = cand[nonzero], vecs[nonzero], norms[nonzero]
    sims = (vecs @ qv) / (norms * qnorm)
    order = np.argsort(-sims, kind="stable")[:top_n]
    return [(vocab.token(int(cand[i])), float(sims[i])) for i in order]


# ---------------------------------------------------------------------------
# Group averages
# ---------------------------------------------------------------------------


@dataclass
class GroupTable:
    """Average patient embeddings by (gender, age), with coarser fallbacks.

    ``lookup`` resolves (gender, age) through the chain exact age -> decade
    -> gender -> global mean, so sparse demographic cells still produce a
    vector. Counts are kept per cell for inspection and serialization.
    """

    strategy: str
    dim: int
    by_age: np.ndarray  # (2, 100, dim)
    age_counts: np.ndarray  # (2, 100)
    by_decade: np.ndarray  # (2, 10, dim)
    decade_counts: np.ndarray  # (2, 10)
    by_gender: np.ndarray  # (2, dim)
    gender_counts: np.ndarray  # (2,)
    global_mean: np.ndarray  # (dim,)
    encoder_sha256: str = ""  # provenance: the encoder and vocabulary it was averaged with
    vocab_sha256: str = ""

    def lookup(self, gender: str, age_years: int) -> np.ndarray:
        g = GENDERS.index(gender)
        a = min(max(age_years, 0), N_AGES - 1)
        if self.age_counts[g, a] > 0:
            return self.by_age[g, a]
        dec = a // 10
        if self.decade_counts[g, dec] > 0:
            return self.by_decade[g, dec]
        if self.gender_counts[g] > 0:
            return self.by_gender[g]
        return self.global_mean

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            "group_by_age": self.by_age,
            "group_age_counts": self.age_counts.astype(np.float32),
            "group_by_decade": self.by_decade,
            "group_decade_counts": self.decade_counts.astype(np.float32),
            "group_by_gender": self.by_gender,
            "group_gender_counts": self.gender_counts.astype(np.float32),
            "group_global_mean": self.global_mean,
        }

    @classmethod
    def from_arrays(cls, strategy: str, arrays: dict[str, np.ndarray]) -> "GroupTable":
        return cls(
            strategy=strategy,
            dim=int(arrays["group_global_mean"].shape[0]),
            by_age=arrays["group_by_age"],
            age_counts=arrays["group_age_counts"].astype(np.int64),
            by_decade=arrays["group_by_decade"],
            decade_counts=arrays["group_decade_counts"].astype(np.int64),
            by_gender=arrays["group_by_gender"],
            gender_counts=arrays["group_gender_counts"].astype(np.int64),
            global_mean=arrays["group_global_mean"],
        )


def average_group_embedding(
    model: EncoderModel,
    patients: Sequence[PatientHistory],
    vocab: Vocabulary,
    strategy: str = "mean",
) -> GroupTable:
    """Mean embedding per (gender, age in years) and per (gender, decade)."""
    if not patients:
        raise ValueError("cannot average over an empty corpus")
    embs = patient_embeddings(model, patients, vocab, strategy)
    dim = embs[0].vector.shape[0]
    by_age = np.zeros((2, N_AGES, dim), dtype=np.float64)
    age_counts = np.zeros((2, N_AGES), dtype=np.int64)
    for p, e in zip(patients, embs):
        g = GENDERS.index(p.gender)
        a = min(max(p.age_years, 0), N_AGES - 1)
        by_age[g, a] += e.vector
        age_counts[g, a] += 1
    by_decade = by_age.reshape(2, 10, 10, dim).sum(axis=2)
    decade_counts = age_counts.reshape(2, 10, 10).sum(axis=2)
    by_gender = by_age.sum(axis=1)
    gender_counts = age_counts.sum(axis=1)
    total = by_age.sum(axis=(0, 1)) / max(len(patients), 1)

    def safe_div(num, cnt):
        out = np.zeros_like(num, dtype=np.float32)
        nz = cnt > 0
        out[nz] = (num[nz] / cnt[nz][..., None]).astype(np.float32)
        return out

    return GroupTable(
        strategy=strategy,
        dim=dim,
        by_age=safe_div(by_age, age_counts),
        age_counts=age_counts,
        by_decade=safe_div(by_decade, decade_counts),
        decade_counts=decade_counts,
        by_gender=safe_div(by_gender, gender_counts),
        gender_counts=gender_counts,
        global_mean=total.astype(np.float32),
        encoder_sha256=model.params_sha256(),
        vocab_sha256=vocab.sha256(),
    )


# ---------------------------------------------------------------------------
# Risk curves
# ---------------------------------------------------------------------------


def _resolve_group_ids(vocab: Vocabulary, group) -> np.ndarray:
    """Token ids of a code set or a chapter prefix; errors when none match."""
    if isinstance(group, str):
        ids = [i for i in vocab.icd_ids if vocab.token(i).startswith(group)]
    else:
        ids = []
        for code in group:
            tid = vocab.index.get(code)
            if tid is not None and vocab.is_icd_id(tid):
                ids.append(tid)
    if not ids:
        raise ValueError(f"code group {group!r} has no vocabulary entries")
    return np.asarray(sorted(ids))


def risk_curve(
    model: EncoderModel,
    vocab: Vocabulary,
    group,
    gender: str | None = None,
    ages: Iterable[int] = range(N_AGES),
) -> list[tuple[int, float]]:
    """Probability that the next code falls in ``group``, by age.

    Uses the empty-history prefix [CLS][GENDER][AGE][MASK]. ``group`` is a
    set of codes or a chapter prefix string. With ``gender=None`` the two
    per-gender curves are averaged, weighted by the corpus gender counts
    stored in the vocabulary (equal weights when counts are absent).
    """
    ids = _resolve_group_ids(vocab, group)
    ages = list(ages)

    def curve_for(g: str) -> np.ndarray:
        prefixes = [PatientHistory("", g, a, []) for a in ages]
        dists = predict_next_distribution_batch(model, prefixes, vocab)
        return dists[:, ids].sum(axis=1)

    if gender is not None:
        if gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}")
        values = curve_for(gender)
    else:
        counts = np.array([vocab.counts.get(t, 0) for t in GENDER_TOKENS], dtype=np.float64)
        weights = counts / counts.sum() if counts.sum() > 0 else np.array([0.5, 0.5])
        values = weights[0] * curve_for("M") + weights[1] * curve_for("F")
    return [(a, float(v)) for a, v in zip(ages, values)]


# ---------------------------------------------------------------------------
# Vector export
# ---------------------------------------------------------------------------


def export_vectors(rows: Sequence[tuple[str, str, np.ndarray]], path: str | Path) -> int:
    """Write (id, label, vector) rows as TSV: ``id<TAB>label<TAB>v0...``.

    Returns the number of data rows. Empty input produces a header-only file.
    """
    dims = {len(v) for _, _, v in rows}
    if len(dims) > 1:
        raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    with atomic_write(path) as fh:
        header = ["id", "label"] + [f"v{i}" for i in range(dim)]
        fh.write("\t".join(header) + "\n")
        for rid, label, vec in rows:
            cells = [str(rid), str(label)] + [f"{float(x):.8g}" for x in vec]
            fh.write("\t".join(cells) + "\n")
    return len(rows)


def read_vectors(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Read an exported TSV back into (ids, labels, matrix)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("id\tlabel"):
        raise ValueError(f"not a vector export file: {path}")
    dim = len(lines[0].split("\t")) - 2
    ids, labels, vecs = [], [], []
    for line in lines[1:]:
        parts = line.split("\t")
        ids.append(parts[0])
        labels.append(parts[1])
        vecs.append([float(x) for x in parts[2:]])
    matrix = np.asarray(vecs, dtype=np.float64).reshape(len(ids), dim)
    return ids, labels, matrix
