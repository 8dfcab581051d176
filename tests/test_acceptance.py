"""End-to-end acceptance checks, one test per numbered criterion.

Every test prints a single PASS/FAIL line through the ``criterion`` context
manager; run with ``pytest tests/test_acceptance.py -v -s`` to watch them
live. The fixtures train real models on synthetic corpora, so the whole
file takes a few minutes on one CPU core.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import requests

from ehrseq.corpus import Vocabulary, build_vocabulary, encode_history, filter_corpus
from ehrseq.encoder import (
    IGNORE_INDEX,
    EncoderModel,
    MaskedBatch,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from ehrseq.encoder import train as train_encoder
from ehrseq.embedding import pool, risk_curve
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
    precision_at_k,
)
from ehrseq.gradcheck import check_gradients
from ehrseq.scoring import (
    EmbeddingSource,
    assemble_features,
    derive_schema,
    monthly_eval,
    psi,
    ridge_fit,
    ridge_predict,
    roc_auc,
    save_scorer,
    select_lambda,
)
from ehrseq.embedding import average_group_embedding
from ehrseq.service import ScoringService, make_server, read_query_log
from ehrseq.synthetic import (
    InsuranceConfig,
    corpus_groups,
    generate_synthetic_corpus,
    generate_synthetic_insurance,
)


@contextmanager
def criterion(num: int, label: str):
    note = {"detail": ""}
    try:
        yield note
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL", flush=True)
        raise
    detail = f" {note['detail']}" if note["detail"] else ""
    print(f"[acceptance] criterion {num} ({label}): PASS{detail}", flush=True)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b)) / denom)


# ---------------------------------------------------------------------------
# Shared desk-scale fixtures
# ---------------------------------------------------------------------------

DESK_SEED = 42
DESK_PATIENTS = 5000
DESK_CODES = 200


@pytest.fixture(scope="module")
def desk():
    """5000-patient/200-code corpus and the trained desk-scale encoder."""
    t0 = time.perf_counter()
    patients = generate_synthetic_corpus(DESK_SEED, DESK_PATIENTS, DESK_CODES)
    kept, _ = filter_corpus(patients)
    vocab = build_vocabulary(kept)
    config = ModelConfig.desk_scale(len(vocab))
    samples = [encode_history(p, vocab, H=config.H) for p in kept]
    model = EncoderModel.build(config, vocab.sha256())
    losses = train_encoder(model, samples)
    return {
        "kept": kept,
        "vocab": vocab,
        "config": config,
        "model": model,
        "losses": losses,
        "seconds": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# 1. Gradient fidelity of the full mini-encoder
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    with criterion(1, "mini-encoder gradients match finite differences") as note:
        t0 = time.perf_counter()
        cfg = ModelConfig(vocab_size=50, d=16, n_layers=1, n_heads=2, max_len=12)
        model = EncoderModel.build(cfg).astype(np.float64)
        rng = np.random.default_rng(3)
        B, L = 2, 12
        ids = rng.integers(8, cfg.vocab_size, size=(B, L))
        attn = np.ones((B, L), dtype=np.int64)
        attn[1, 9:] = 0  # one row ends in padding
        labels = np.full((B, L), IGNORE_INDEX, dtype=np.int64)
        for b in range(B):
            for pos in (3, 5, 7):
                labels[b, pos] = int(rng.integers(0, cfg.vocab_size))
        batch = MaskedBatch(ids, labels, attn)
        # h near cbrt(eps) for unit-scale float64 weights; 1e-5 leaves the
        # difference quotient cancellation-bound on near-zero gradient coords.
        result = check_gradients(
            model.params,
            lambda: model.mlm_loss(batch),
            tolerance=1e-3,
            h=1e-4,
            max_coords_per_param=32,
            rng=np.random.default_rng(0),
        )
        elapsed = time.perf_counter() - t0
        assert result.passed, (
            f"max rel error {result.max_rel_error:.2e} in {result.worst_param}"
        )
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
        note["detail"] = (
            f"max_rel_err={result.max_rel_error:.2e} coords={result.checked_coords} "
            f"secs={elapsed:.1f}"
        )


# ---------------------------------------------------------------------------
# 2. Exact metric oracles
# ---------------------------------------------------------------------------


def brute_force_p_at_k(scores: np.ndarray, actual: set, k: int) -> float:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = sum(1 for i in order[:k] if i in actual)
    return hits / min(k, len(actual))


def test_criterion_2_metric_oracles():
    with criterion(2, "metric implementations match brute-force oracles") as note:
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            scores = rng.normal(size=n)
            if rng.random() < 0.3:  # force score ties to exercise the tie-break
                scores = np.round(scores, 1)
            actual = set(rng.choice(n, size=int(rng.integers(1, min(n, 9))), replace=False).tolist())
            k = int(rng.integers(1, n + 1))
            assert precision_at_k(scores, actual, k) == brute_force_p_at_k(scores, actual, k)
            checked += 1

        patients = generate_synthetic_corpus(9, 400, 60)
        for th in (4, 8):
            eligible = [p for p in patients if len(p.events) >= th]
            direct = float(np.mean(
                [p.events[th - 2].code == p.events[th - 1].code for p in eligible]
            ))
            report = next_code_accuracy(baseline_previous(), patients, thresholds=(th,))
            assert report.value(th=th) == direct

        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
        assert roc_auc(np.full(100, 0.5), rng.integers(0, 2, 100)) == 0.5
        x = rng.normal(size=5000)
        assert psi(x, x) <= 1e-12
        note["detail"] = f"p@k_instances={checked}"


# ---------------------------------------------------------------------------
# 3. Structural invariants of the encoder
# ---------------------------------------------------------------------------


def test_criterion_3_structural_invariants(desk, tmp_path):
    with criterion(3, "padding/permutation invariances and checkpoint round-trip") as note:
        model, vocab, config = desk["model"], desk["vocab"], desk["config"]
        chunk = desk["kept"][:16]
        samples = [encode_history(p, vocab, H=config.H) for p in chunk]
        ids_full = np.stack([s.token_ids for s in samples])
        attn_full = np.stack([s.attention_mask for s in samples])
        longest = int(max(s.length for s in samples))
        assert longest < config.max_len, "need at least one padded column"

        # padding invariance: extra PAD columns leave real logits unchanged
        _, logits_full = model.forward(ids_full, attn_full)
        _, logits_trim = model.forward(ids_full[:, :longest], attn_full[:, :longest])
        real = attn_full[:, :longest] == 1
        pad_err = rel_err(logits_full.data[:, :longest][real], logits_trim.data[real])
        assert pad_err <= 1e-5, f"padding changed logits by {pad_err:.2e}"

        # permutation equivariance without the positional table
        nopos = EncoderModel.build(replace(config, use_positional=False), vocab.sha256())
        rng = np.random.default_rng(11)
        ids_perm = ids_full.copy()
        perms = []
        for b, s in enumerate(samples):
            n_events = int(s.length) - 3
            perm = rng.permutation(n_events)
            ids_perm[b, 3 : 3 + n_events] = ids_full[b, 3 : 3 + n_events][perm]
            perms.append(perm)
        hid_o, log_o = nopos.forward(ids_full, attn_full)
        hid_p, log_p = nopos.forward(ids_perm, attn_full)
        worst = 0.0
        for b, perm in enumerate(perms):
            n_events = len(perm)
            expected = log_o.data[b, 3 : 3 + n_events][perm]
            got = log_p.data[b, 3 : 3 + n_events]
            worst = max(worst, rel_err(got, expected))
            worst = max(worst, rel_err(log_p.data[b, :3], log_o.data[b, :3]))
        assert worst <= 1e-5, f"permutation equivariance off by {worst:.2e}"

        mean_err = 0.0
        for b in range(len(samples)):
            mean_o = pool(hid_o.data[b], attn_full[b], "mean")
            mean_p = pool(hid_p.data[b], attn_full[b], "mean")
            mean_err = max(mean_err, rel_err(mean_p, mean_o))
        assert mean_err <= 1e-5, f"mean pooling moved by {mean_err:.2e} under permutation"

        # checkpoint round-trip reproduces forward outputs bit for bit
        path = tmp_path / "desk.npz"
        save_checkpoint(model, path)
        clone = load_checkpoint(path, expected_vocab_sha256=vocab.sha256())
        _, logits_clone = clone.forward(ids_full, attn_full)
        assert np.array_equal(logits_clone.data, logits_full.data)
        note["detail"] = (
            f"pad_err={pad_err:.2e} perm_err={worst:.2e} pool_err={mean_err:.2e}"
        )


# ---------------------------------------------------------------------------
# 4. Desk-scale learning
# ---------------------------------------------------------------------------


def test_criterion_4_desk_scale_learning(desk):
    with criterion(4, "desk-scale model learns and beats both baselines") as note:
        losses, model, vocab = desk["losses"], desk["model"], desk["vocab"]
        assert desk["seconds"] < 900, f"desk pipeline took {desk['seconds']:.0f}s"
        for i in range(4):
            assert losses[i + 1] < losses[i], f"loss rose at epoch {i + 2}: {losses}"
        assert losses[-1] < np.log(DESK_CODES), f"final loss {losses[-1]:.3f}"

        eval_patients = generate_synthetic_corpus(DESK_SEED + 1, DESK_PATIENTS, DESK_CODES)
        accuracy = {}
        for name, predictor in (
            ("model", ModelNextCodePredictor(model, vocab)),
            ("most_common", baseline_most_common(vocab)),
            ("previous", baseline_previous()),
        ):
            report = next_code_accuracy(predictor, eval_patients, thresholds=(4, 8))
            accuracy[name] = {c.key["th"]: c.value for c in report.cells}
        for th in (4, 8):
            assert accuracy["model"][th] > accuracy["most_common"][th], accuracy
            assert accuracy["model"][th] > accuracy["previous"][th], accuracy

        cat_map = load_category_map(vocab=vocab)
        scorer = model_category_scorer(model, vocab, cat_map)
        p_model = evaluate_visit_prediction(
            lambda _train: scorer, eval_patients, cat_map, ks=(5,), folds=10, seed=0
        ).value(k=5)
        p_freq = evaluate_visit_prediction(
            lambda train: frequency_category_scorer(train, cat_map),
            eval_patients, cat_map, ks=(5,), folds=10, seed=0,
        ).value(k=5)
        assert p_model >= p_freq + 0.05, f"model {p_model:.4f} vs frequency {p_freq:.4f}"
        note["detail"] = (
            f"loss={losses[0]:.2f}->{losses[-1]:.2f} "
            f"acc_th4={accuracy['model'][4]:.3f}/{accuracy['most_common'][4]:.3f}"
            f"/{accuracy['previous'][4]:.3f} "
            f"acc_th8={accuracy['model'][8]:.3f}/{accuracy['most_common'][8]:.3f}"
            f"/{accuracy['previous'][8]:.3f} "
            f"p@5={p_model:.3f} vs freq {p_freq:.3f} secs={desk['seconds']:.0f}"
        )


# ---------------------------------------------------------------------------
# 5. Pooling ablation ordering
# ---------------------------------------------------------------------------


def test_criterion_5_pooling_ordering():
    with criterion(5, "concat_mean_max >= cls pooling on mean p@5 over 3 seeds") as note:
        patients = generate_synthetic_corpus(45, 2000, DESK_CODES)
        kept, _ = filter_corpus(patients)
        vocab = build_vocabulary(kept)
        cmm, cls = [], []
        for seed in range(3):
            config = ModelConfig.desk_scale(len(vocab), epochs=5, seed=seed)
            report = ablation_suite(
                kept, vocab, config,
                poolings=("cls", "concat_mean_max"),
                positional=(True,), gender_age=(True,),
                ks=(5,), folds=10, seed=seed,
                probe_lambda=(1.0, 3.0, 10.0, 30.0, 100.0),
            )
            assert not report.errors, report.errors
            cls.append(report.value(variant="cls", k=5))
            cmm.append(report.value(variant="concat_mean_max", k=5))
        assert np.mean(cmm) >= np.mean(cls), f"cmm {cmm} vs cls {cls}"
        note["detail"] = (
            f"cmm_mean={np.mean(cmm):.4f} cls_mean={np.mean(cls):.4f} "
            f"cmm={[round(v, 3) for v in cmm]} cls={[round(v, 3) for v in cls]}"
        )


# ---------------------------------------------------------------------------
# 6. Base vs Replacement scoring schemes
# ---------------------------------------------------------------------------

INS_CODES = 600
INS_APPS = 50000
INS_MONTHS = 12
INS_TRAIN_MONTHS = 2
INS_CONFIG = dict(
    positive_rate=0.08,
    gamma=0.6,
    late_code_fraction=0.3,
    risk_age_gate=50,
    cutoff_month=INS_TRAIN_MONTHS,
)


@pytest.fixture(scope="module")
def insurance_stack():
    """600-code patient pool plus an encoder sized for the scoring analog."""
    pool_patients = generate_synthetic_corpus(60, 5000, INS_CODES)
    kept, _ = filter_corpus(pool_patients)
    vocab = build_vocabulary(kept)
    config = ModelConfig.desk_scale(len(vocab), d=128, n_heads=4, epochs=10)
    samples = [encode_history(p, vocab, H=config.H) for p in kept]
    model = EncoderModel.build(config, vocab.sha256())
    train_encoder(model, samples)
    table = average_group_embedding(model, pool_patients, vocab, strategy="mean")
    source = EmbeddingSource(model, vocab, table, strategy="mean")
    risk_groups = list(corpus_groups(INS_CODES)[0].prefixes)
    return {
        "pool": pool_patients,
        "vocab": vocab,
        "model": model,
        "table": table,
        "source": source,
        "risk_groups": risk_groups,
    }


def fit_and_score(train_records, val_records, scheme, source):
    """Tune lambda on the last training month, refit on all, score validation."""
    y_tr = np.array([r.claim for r in train_records], dtype=np.float64)
    y_va = np.array([r.claim for r in val_records], dtype=np.float64)
    months_tr = np.array([r.month for r in train_records])
    months_va = np.array([r.month for r in val_records])
    schema = derive_schema(train_records, scheme, embedding_source=source)
    X_tr, _ = assemble_features(train_records, scheme, schema, embedding_source=source)
    X_va, _ = assemble_features(val_records, scheme, schema, embedding_source=source)
    fit_idx = np.where(months_tr < INS_TRAIN_MONTHS - 1)[0]
    tune_idx = np.where(months_tr == INS_TRAIN_MONTHS - 1)[0]
    _, aucs = select_lambda(
        X_tr[fit_idx], y_tr[fit_idx], X_tr[tune_idx], y_tr[tune_idx],
        schema_hash=schema.sha256(),
    )
    best_lam = max(aucs, key=aucs.get)
    model = ridge_fit(X_tr, y_tr, best_lam, schema.sha256())
    report = monthly_eval(ridge_predict(model, X_va), y_va, months_va)
    per_month = report.aucs()
    return float(np.mean(per_month)), float(np.std(per_month))


def test_criterion_6_scoring_scheme_comparison(insurance_stack):
    with criterion(6, "replacement beats base by >= 0.01 avg AUC on each of 3 seeds") as note:
        stack = insurance_stack
        cfg = InsuranceConfig(**INS_CONFIG)
        deltas, stds = [], []
        for seed in range(3):
            records = generate_synthetic_insurance(
                1000 + seed, stack["pool"], INS_APPS, INS_MONTHS,
                stack["risk_groups"], cfg,
            )
            train_r = [r for r in records if r.month < INS_TRAIN_MONTHS]
            val_r = [r for r in records if r.month >= INS_TRAIN_MONTHS]
            base_auc, base_std = fit_and_score(train_r, val_r, "base", None)
            repl_auc, repl_std = fit_and_score(train_r, val_r, "replacement",
                                               stack["source"])
            deltas.append(repl_auc - base_auc)
            stds.extend([base_std, repl_std])
            assert base_std < 0.05 and repl_std < 0.05, (
                f"seed {seed}: monthly AUC stds {base_std:.3f}/{repl_std:.3f}"
            )
            assert repl_auc - base_auc >= 0.01, (
                f"seed {seed}: replacement {repl_auc:.4f} vs base {base_auc:.4f}"
            )
        note["detail"] = (
            f"deltas={[round(d, 4) for d in deltas]} mean={np.mean(deltas):.4f} "
            f"max_month_std={max(stds):.4f}"
        )


# ---------------------------------------------------------------------------
# 7. Age-gated risk curves
# ---------------------------------------------------------------------------


def test_criterion_7_risk_curve_sanity(desk):
    with criterion(7, "risk curve rises for an age-gated group; curves partition") as note:
        model, vocab = desk["model"], desk["vocab"]
        gated = [g for g in corpus_groups(DESK_CODES) if g.age_low >= 50]
        assert gated, "corpus layout should contain a 50+ group"
        group = gated[0]
        curve = dict(risk_curve(model, vocab, list(group.codes), ages=[20, 70]))
        assert curve[70] > curve[20], (
            f"group {group.prefixes}: risk(70)={curve[70]:.4f} <= risk(20)={curve[20]:.4f}"
        )

        prefixes = sorted({vocab.token(i)[:3] for i in vocab.icd_ids})
        sums = {20: 0.0, 70: 0.0}
        for prefix in prefixes:
            part = dict(risk_curve(model, vocab, prefix, ages=[20, 70]))
            sums[20] += part[20]
            sums[70] += part[70]
        for age, total in sums.items():
            assert abs(total - 1.0) <= 1e-6, f"age {age}: partition sums to {total}"
        note["detail"] = (
            f"risk70={curve[70]:.4f} risk20={curve[20]:.4f} "
            f"partition_err={max(abs(sums[20] - 1), abs(sums[70] - 1)):.2e}"
        )


# ---------------------------------------------------------------------------
# 8. Service consistency under concurrency
# ---------------------------------------------------------------------------


def test_criterion_8_service_consistency(insurance_stack, tmp_path):
    with criterion(8, "1000 concurrent scores match offline; log and psi agree") as note:
        stack = insurance_stack
        cfg = InsuranceConfig(**INS_CONFIG)
        records = generate_synthetic_insurance(
            1000, stack["pool"], INS_APPS, INS_MONTHS, stack["risk_groups"], cfg
        )
        train_r = [r for r in records if r.month < INS_TRAIN_MONTHS]
        X, schema = assemble_features(train_r, "base")
        y = np.array([r.claim for r in train_r], dtype=np.float64)
        model = ridge_fit(X, y, lam=10.0, schema_hash=schema.sha256(),
                          training_period=f"months 0-{INS_TRAIN_MONTHS - 1}")
        reference = ridge_predict(model, X)
        scorer_path = tmp_path / "scorer.bin"
        save_scorer(scorer_path, model, schema, reference)
        log_path = tmp_path / "queries.jsonl"
        service = ScoringService.from_files(scorer_path, log_path=log_path)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = "http://127.0.0.1:%d" % server.server_address[1]
        try:
            batch = train_r[:1000]
            offline = ridge_predict(model, X[:1000], schema)

            def post(record):
                payload = {
                    "app_id": record.app_id,
                    "gender": record.gender,
                    "age": record.age_years,
                    "anamnesis": list(record.anamnesis),
                    "policy": dict(record.policy),
                }
                resp = requests.post(url + "/score", json=payload, timeout=30)
                assert resp.status_code == 200, resp.text
                return resp.json()

            with ThreadPoolExecutor(max_workers=32) as pool_exec:
                bodies = list(pool_exec.map(post, batch))
            worst = max(
                abs(body["score"] - float(off))
                for body, off in zip(bodies, offline)
            )
            assert worst <= 1e-6, f"served scores differ from offline by {worst:.2e}"

            logged = read_query_log(log_path)
            assert len(logged) == len(bodies) == 1000

            resp = requests.get(url + "/psi", params={"window": 1000}, timeout=30)
            assert resp.status_code == 200, resp.text
            drift = resp.json()["psi"]
            assert drift < 0.1, f"psi {drift:.4f} over the served window"
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        note["detail"] = f"max_abs_diff={worst:.2e} logged={len(logged)} psi={drift:.4f}"
