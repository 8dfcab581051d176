"""Next-code accuracy, category-level Precision@k with cross-validation,
and the reference baselines.

Two tasks share the corpus:

* next-code: trim each history at threshold th, predict the code at
  position th from the th-1 preceding events, report exact-match accuracy;
* next-visit categories: the final visit's category set is the target, all
  prior events are the input; predicted category scores are ranked and
  measured by Precision@k under a deterministic k-fold patient partition.

The ablation grid trains encoder variants (positional table on/off,
demographic tokens on/off) and compares pooling strategies through a ridge
probe fitted per fold on pooled prefix embeddings.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import ICD_OFFSET, UNK_ID, PatientHistory, Vocabulary, encode_history, group_visits
from .encoder import EncoderModel, ModelConfig, predict_next_distribution_batch
from .encoder import train as train_encoder
from .embedding import embed_batch, embedding_dim
from .scoring import ridge_fit, ridge_predict, select_lambda

OTHER_CATEGORY = "other"

# a next-code predictor maps history prefixes to one predicted code each
NextCodePredictor = Callable[[Sequence[PatientHistory]], list[str]]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class EvalCell:
    key: dict
    value: float
    std: float | None = None
    count: int = 0


@dataclass
class EvalReport:
    metric: str
    cells: list[EvalCell] = field(default_factory=list)
    skipped: int = 0
    errors: list[str] = field(default_factory=list)

    def cell(self, **key) -> EvalCell:
        for c in self.cells:
            if all(c.key.get(k) == v for k, v in key.items()):
                return c
        raise KeyError(f"no cell matching {key} in report {self.metric!r}")

    def value(self, **key) -> float:
        return self.cell(**key).value

    def to_json_records(self) -> list[dict]:
        out = []
        for c in self.cells:
            rec = {"metric": self.metric, **c.key, "value": c.value, "count": c.count}
            if c.std is not None:
                rec["std"] = c.std
            out.append(rec)
        return out


# ---------------------------------------------------------------------------
# Category map
# ---------------------------------------------------------------------------


@dataclass
class CategoryMap:
    """Total map from diagnosis codes to contiguous category ids.

    Unmapped codes (and the UNK token) go to the trailing "other" category.
    """

    categories: list[str]
    code_to_category: dict[str, int]
    source: str  # external_file | prefix3_fallback
    skipped_rows: int = 0
    unmapped_codes: int = 0

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    @property
    def other_id(self) -> int:
        return len(self.categories) - 1

    def category_of(self, code: str) -> int:
        return self.code_to_category.get(code, self.other_id)


def load_category_map(path: str | Path | None = None, vocab: Vocabulary | None = None) -> CategoryMap:
    """External two-column CSV ``code,category`` when given, otherwise group
    the vocabulary's codes by their 3-character prefix."""
    if path is not None:
        mapping: dict[str, str] = {}
        skipped = 0
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                if len(row) != 2 or not row[0].strip() or not row[1].strip():
                    skipped += 1
                    continue
                mapping[row[0].strip().upper()] = row[1].strip()
        if not mapping:
            raise ValueError(f"category map {path} has no usable rows")
        labels = sorted(set(mapping.values())) + [OTHER_CATEGORY]
        index = {lab: i for i, lab in enumerate(labels)}
        code_to_cat = {code: index[lab] for code, lab in mapping.items()}
        unmapped = 0
        if vocab is not None:
            for tid in vocab.icd_ids:
                if vocab.token(tid) not in code_to_cat:
                    unmapped += 1
        return CategoryMap(labels, code_to_cat, "external_file", skipped, unmapped)
    if vocab is None:
        raise ValueError("need a category file or a vocabulary for the prefix fallback")
    prefixes = sorted({vocab.token(tid)[:3] for tid in vocab.icd_ids})
    labels = prefixes + [OTHER_CATEGORY]
    index = {lab: i for i, lab in enumerate(labels)}
    code_to_cat = {vocab.token(tid): index[vocab.token(tid)[:3]] for tid in vocab.icd_ids}
    return CategoryMap(labels, code_to_cat, "prefix3_fallback")


# ---------------------------------------------------------------------------
# Next-code predictors
# ---------------------------------------------------------------------------


def baseline_most_common(train_patients: Sequence[PatientHistory]) -> NextCodePredictor:
    """Constant predictor of the modal training code (ties: lexicographic)."""
    counts = Counter(e.code for p in train_patients for e in p.events)
    if not counts:
        raise ValueError("empty training corpus")
    top = max(counts.values())
    code = min(c for c, n in counts.items() if n == top)

    def predict(prefixes: Sequence[PatientHistory]) -> list[str]:
        return [code] * len(prefixes)

    return predict


def baseline_previous() -> NextCodePredictor:
    """Predictor repeating the last code of each prefix."""

    def predict(prefixes: Sequence[PatientHistory]) -> list[str]:
        if any(not p.events for p in prefixes):
            raise ValueError("previous-code baseline needs a non-empty prefix")
        return [p.events[-1].code for p in prefixes]

    return predict


class ModelNextCodePredictor:
    """argmax of the encoder's next-code distribution (lowest id on ties)."""

    def __init__(self, model: EncoderModel, vocab: Vocabulary):
        self.model = model
        self.vocab = vocab

    def __call__(self, prefixes: Sequence[PatientHistory]) -> list[str]:
        ids = predict_next_distribution_batch(self.model, prefixes, self.vocab,
                                              lambda d: d.argmax(axis=1))
        return [self.vocab.token(int(i)) for i in ids]


class OracleNextCodePredictor:
    """Answers from the full histories; an upper bound used by tests/CLI."""

    def __init__(self, patients: Sequence[PatientHistory]):
        self._codes = {p.patient_id: p.codes() for p in patients}

    def __call__(self, prefixes: Sequence[PatientHistory]) -> list[str]:
        return [self._codes[p.patient_id][len(p.events)] for p in prefixes]


def next_code_accuracy(predict: NextCodePredictor, patients: Sequence[PatientHistory],
                       thresholds: Sequence[int]) -> EvalReport:
    """Exact-match accuracy of the code at position th (1-indexed), predicted
    from the th-1 preceding events by ``predict(prefixes)``, which returns one
    code per prefix; cells with no eligible patients are omitted from the report."""
    report = EvalReport("next_code_accuracy")
    for th in thresholds:
        if th < 2:
            raise ValueError(f"threshold must be >= 2, got {th}")
        eligible = [p for p in patients if len(p.events) >= th]
        if not eligible:
            continue
        prefixes = [replace(p, events=p.events[: th - 1]) for p in eligible]
        truths = [p.events[th - 1].code for p in eligible]
        preds = predict(prefixes)
        acc = float(np.mean([pred == truth for pred, truth in zip(preds, truths)]))
        report.cells.append(EvalCell({"th": int(th)}, acc, None, len(eligible)))
    return report


# ---------------------------------------------------------------------------
# Precision@k over next-visit categories
# ---------------------------------------------------------------------------


def precision_at_k(scores: np.ndarray, actual: set[int], k: int) -> float:
    """|top_k ∩ actual| / min(k, |actual|); score ties broken by ascending id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not actual:
        raise ValueError("actual category set is empty")
    scores = np.asarray(scores)
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    top = set(order[:k].tolist())
    return len(top & actual) / min(k, len(actual))


def fold_partition(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic partition of range(n) into folds of near-equal size."""
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be in [2, {n}], got {folds}")
    order = np.random.default_rng(seed).permutation(n)
    return np.array_split(order, folds)


def _visit_task(p: PatientHistory, cat_map: CategoryMap) -> tuple[PatientHistory, set[int]]:
    visits = group_visits(p)
    last = visits[-1]
    prior = [e for e in p.events if e.date < last.date]
    target = {cat_map.category_of(c) for c in last.codes}
    return replace(p, events=prior), target


def model_category_scorer(model: EncoderModel, vocab: Vocabulary, cat_map: CategoryMap):
    """Scorer assigning each category the summed next-code probability mass
    of its member codes."""
    indicator = np.zeros((vocab.n_icd, cat_map.n_categories), dtype=np.float64)
    for j, tid in enumerate(vocab.icd_ids):
        indicator[j, cat_map.category_of(vocab.token(tid))] = 1.0

    def scorer(prefixes: Sequence[PatientHistory]) -> np.ndarray:
        return predict_next_distribution_batch(model, prefixes, vocab,
                                               lambda d: d[:, ICD_OFFSET:] @ indicator)

    return scorer


def frequency_category_scorer(train_patients: Sequence[PatientHistory], cat_map: CategoryMap):
    """Constant scorer: global category frequency in the training events."""
    counts = np.zeros(cat_map.n_categories, dtype=np.float64)
    for p in train_patients:
        for e in p.events:
            counts[cat_map.category_of(e.code)] += 1
    total = counts.sum()
    freq = counts / total if total > 0 else counts

    def scorer(prefixes: Sequence[PatientHistory]) -> np.ndarray:
        return np.tile(freq, (len(prefixes), 1))

    return scorer


def evaluate_visit_prediction(
    scorer_factory: Callable[[list[PatientHistory]], Callable],
    patients: Sequence[PatientHistory],
    cat_map: CategoryMap,
    ks: Sequence[int] = (5, 10, 20, 30),
    folds: int = 10,
    seed: int = 0,
) -> EvalReport:
    """Cross-validated Precision@k on predicting the final visit's categories.

    ``scorer_factory(train_patients)`` returns a scorer mapping prefix
    histories to a (B, n_categories) score matrix; it is rebuilt per fold so
    data-dependent scorers (frequency baselines, probes) never see their
    test patients. Patients with fewer than 2 visits are skipped.
    """
    usable = [p for p in patients if len(group_visits(p)) >= 2]
    report = EvalReport("visit_precision_at_k")
    report.skipped = len(patients) - len(usable)
    if not usable:
        raise ValueError("no patient has at least 2 visits")
    parts = fold_partition(len(usable), folds, seed)
    per_k: dict[int, list[float]] = {k: [] for k in ks}
    total = 0
    for idx in parts:
        mask = np.zeros(len(usable), dtype=bool)
        mask[idx] = True
        test = [usable[i] for i in idx]
        train = [usable[i] for i in range(len(usable)) if not mask[i]]
        scorer = scorer_factory(train)
        prefixes, targets = [], []
        for p in test:
            prefix, target = _visit_task(p, cat_map)
            if not target:
                report.skipped += 1
                continue
            prefixes.append(prefix)
            targets.append(target)
        scores = scorer(prefixes)
        total += len(prefixes)
        for k in ks:
            vals = [precision_at_k(scores[i], targets[i], k) for i in range(len(prefixes))]
            per_k[k].append(float(np.mean(vals)))
    for k in ks:
        vals = np.asarray(per_k[k])
        report.cells.append(EvalCell({"k": int(k)}, float(vals.mean()),
                                     float(vals.std()), total))
    return report


# ---------------------------------------------------------------------------
# Ablation grid
# ---------------------------------------------------------------------------


def _probe_scorer_factory(X: np.ndarray, Y: np.ndarray, index_of: dict[str, int],
                          lam: float | Sequence[float], k: int = 5, seed: int = 0):
    """Per-fold ridge probe over precomputed pooled embeddings.

    The factory closes over the full X/Y plus a patient-id index; each fold
    passes its training patients and gets a scorer for its test patients.
    ``lam`` may be one penalty or a sequence of candidates; candidates are
    scored by Precision@k on a held-out fifth of the fold's training rows,
    ties going to the strongest penalty.
    """
    # strongest first: select_lambda keeps the first of equal scores
    grid = np.sort(np.atleast_1d(np.asarray(lam, dtype=np.float64)))[::-1]

    def mean_precision(S: np.ndarray, Yv: np.ndarray) -> float:
        return float(np.mean([precision_at_k(s, set(np.flatnonzero(t).tolist()), k)
                              for s, t in zip(S, Yv)]))

    def factory(train_patients: list[PatientHistory]):
        rows = np.asarray([index_of[p.patient_id] for p in train_patients])
        best = grid[0]
        if grid.shape[0] > 1:
            perm = np.random.default_rng(seed).permutation(rows.shape[0])
            n_val = max(1, rows.shape[0] // 5)
            val, inner = rows[perm[:n_val]], rows[perm[n_val:]]
            best = select_lambda(X[inner], Y[inner], X[val], Y[val], grid=grid,
                                 metric=mean_precision)[0].lam
        model = ridge_fit(X[rows], Y[rows], best)

        def scorer(prefixes: Sequence[PatientHistory]) -> np.ndarray:
            return ridge_predict(model, X[[index_of[p.patient_id] for p in prefixes]])

        return scorer

    return factory


def ablation_suite(
    patients: Sequence[PatientHistory],
    vocab: Vocabulary,
    base_config: ModelConfig,
    poolings: Sequence[str] = ("cls", "concat_mean_max"),
    positional: Sequence[bool] = (True, False),
    gender_age: Sequence[bool] = (True, False),
    ks: Sequence[int] = (5,),
    folds: int = 10,
    seed: int = 0,
    probe_lambda: float | Sequence[float] = 1.0,
    cat_map: CategoryMap | None = None,
    log: Callable[[str], None] | None = None,
) -> EvalReport:
    """Train and compare encoder/pooling variants on next-visit Precision@k.

    Encoders are trained once per (positional, gender_age) cell, on the
    pre-final-visit prefix of every patient, and shared by the pooling
    strategies. Each variant embeds the same prefixes and is scored through
    a per-fold ridge probe on the final visit's category indicators, which
    no encoder has seen. ``probe_lambda`` may be a single penalty or a
    candidate grid tuned per fold, so poolings of different dimension each
    get an appropriate amount of shrinkage. A variant that
    fails to train is reported under ``errors`` while the rest of the grid
    continues.
    """
    if cat_map is None:
        cat_map = load_category_map(vocab=vocab)
    for pooling in poolings:
        embedding_dim(base_config.d, pooling)  # validates the strategy name
    lam_grid = np.atleast_1d(np.asarray(probe_lambda, dtype=np.float64))
    if lam_grid.size == 0 or not (lam_grid > 0).all():
        raise ValueError(f"probe_lambda must be one or more penalties > 0, got {probe_lambda!r}")
    usable = [p for p in patients if len(group_visits(p)) >= 2]
    if not usable:
        raise ValueError("no patient has at least 2 visits")
    index_of = {p.patient_id: i for i, p in enumerate(usable)}
    if len(index_of) < len(usable):  # the probe finds each patient's row by id
        repeated = sorted(k for k, n in Counter(p.patient_id for p in usable).items() if n > 1)
        raise ValueError(f"patient ids must be unique, repeated: {repeated[:5]}")
    tasks = [_visit_task(p, cat_map) for p in usable]
    prefixes = [t[0] for t in tasks]
    targets = [t[1] for t in tasks]
    Y = np.zeros((len(usable), cat_map.n_categories), dtype=np.float64)
    for i, target in enumerate(targets):
        for c in target:
            Y[i, c] = 1.0

    report = EvalReport("ablation_precision_at_k")
    for use_pos in positional:
        for use_ga in gender_age:
            cfg = replace(base_config, use_positional=use_pos, use_gender_age=use_ga, seed=seed)
            try:
                model = EncoderModel.build(cfg, vocab_sha256=vocab.sha256())
                # train on the prefixes only: the final visits are the probe's targets
                samples = [encode_history(p, vocab, H=cfg.H, use_gender_age=cfg.use_gender_age)
                           for p in prefixes]
                train_encoder(model, samples, log=log)
                pooled = embed_batch(model, prefixes, vocab, poolings)
            except Exception as exc:  # keep the remaining grid alive
                for pooling in poolings:
                    report.errors.append(f"{_variant_name(pooling, use_pos, use_ga)}: {exc}")
                continue
            for pooling in poolings:
                name = _variant_name(pooling, use_pos, use_ga)
                factory = _probe_scorer_factory(pooled[pooling], Y, index_of, probe_lambda,
                                                k=min(ks), seed=seed)
                sub = evaluate_visit_prediction(factory, usable, cat_map, ks=ks,
                                                folds=folds, seed=seed)
                for k in ks:
                    c = sub.cell(k=k)
                    report.cells.append(
                        EvalCell({"variant": name, "k": int(k)}, c.value, c.std, c.count)
                    )
                if log:
                    log(f"{name}: P@{ks[0]} = {report.cells[-len(ks)].value:.4f}")
    return report


def _variant_name(pooling: str, use_pos: bool, use_ga: bool) -> str:
    name = pooling
    if not use_pos:
        name += "_wo_positional"
    if not use_ga:
        name += "_wo_gender_age"
    return name
