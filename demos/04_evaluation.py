"""Evaluate an encoder: next-code accuracy vs baselines, visit precision, ablation."""

from ehrseq.corpus import build_vocabulary, encode_history, filter_corpus
from ehrseq.encoder import EncoderModel, ModelConfig, train
from ehrseq.evaluation import (
    ModelNextCodePredictor,
    ablation_suite,
    baseline_most_common,
    baseline_previous,
    evaluate_visit_prediction,
    frequency_category_scorer,
    load_category_map,
    model_category_scorer,
    next_code_accuracy,
)
from ehrseq.synthetic import generate_synthetic_corpus

train_patients = generate_synthetic_corpus(seed=19, n_patients=1500, n_codes=150)
kept, _ = filter_corpus(train_patients)
vocab = build_vocabulary(kept)
config = ModelConfig.desk_scale(len(vocab), epochs=4, seed=0)
model = EncoderModel.build(config, vocab.sha256())
train(model, [encode_history(p, vocab, H=config.H) for p in kept], log=print)

# held-out patients from the same process
eval_patients = generate_synthetic_corpus(seed=20, n_patients=1500, n_codes=150)

# ----------------------
# 1. Next-code accuracy against the two standard baselines
# ----------------------

print("\nnext-code accuracy (history length th):")
print(f"{'predictor':<14} {'th=4':>8} {'th=8':>8}")
for name, predictor in (
    ("model", ModelNextCodePredictor(model, vocab)),
    ("most_common", baseline_most_common(vocab)),
    ("previous", baseline_previous()),
):
    report = next_code_accuracy(predictor, eval_patients, thresholds=(4, 8))
    print(f"{name:<14} {report.value(th=4):>8.4f} {report.value(th=8):>8.4f}")

# ----------------------
# 2. Next-visit category Precision@5, 10-fold CV
# ----------------------

cat_map = load_category_map(vocab=vocab)
print(f"\n{cat_map.n_categories} prefix categories")
for name, factory in (
    ("model", lambda tr: model_category_scorer(model, vocab, cat_map)),
    ("frequency", lambda tr: frequency_category_scorer(tr, cat_map)),
):
    rep = evaluate_visit_prediction(factory, kept, cat_map, ks=(5,), folds=10)
    cell = rep.cell(k=5)
    print(f"  {name}: p@5 = {cell.value:.4f} +/- {cell.std:.4f}")

# ----------------------
# 3. Pooling / positional / demographics ablation
# ----------------------

report = ablation_suite(
    kept, vocab, config,
    poolings=("cls", "concat_mean_max"),
    positional=(True, False),
    gender_age=(True, False),
    ks=(5,), folds=5, seed=0,
    probe_lambda=(1.0, 10.0, 100.0),
)
print("\nablation grid (p@5):")
for cell in report.cells:
    print(f"  {cell.key['variant']:<42} {cell.value:.4f}")
