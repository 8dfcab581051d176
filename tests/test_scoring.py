"""Feature assembly, ridge regression, AUC/PSI metrics, scorer artifact.

The ridge solver is checked against a dense linear-algebra oracle, AUC
against hand-counted pair statistics, and PSI against its defining
identities (zero on itself, symmetry under shared edges).
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ehrseq import scoring
from ehrseq.container import ContainerError
from ehrseq.corpus import ApplicationRecord, build_vocabulary, filter_corpus
from ehrseq.embedding import average_group_embedding, patient_embeddings
from ehrseq.encoder import EncoderModel, ModelConfig
from ehrseq.scoring import (
    MISSING,
    EmbeddingSource,
    FeatureSchema,
    LAMBDA_GRID,
    SchemaError,
    assemble_features,
    derive_schema,
    load_scorer,
    monthly_eval,
    psi,
    ridge_fit,
    ridge_predict,
    ridge_solve,
    roc_auc,
    save_scorer,
    select_lambda,
)
from ehrseq.synthetic import generate_synthetic_corpus


def mkrecord(app_id="a1", month=0, gender="M", age=42, anamnesis=(),
             policy=None, claim=0):
    if policy is None:
        policy = {"product": "life", "region": "north"}
    return ApplicationRecord(app_id, month, gender, age, list(anamnesis),
                             dict(policy), claim)


TRAIN_RECORDS = [
    mkrecord("a1", 0, "M", 42, ["I25.0", "J06.9"], {"product": "life", "region": "north"}, 1),
    mkrecord("a2", 0, "F", 67, [], {"product": "life", "region": "south"}, 0),
    mkrecord("a3", 1, "F", 35, ["J06.9"], {"product": "health", "region": "north"}, 0),
]


class TestFeatureSchema:
    def test_base_layout(self):
        schema = derive_schema(TRAIN_RECORDS, "base")
        names = [b.name for b in schema.blocks]
        assert names == ["policy.product", "policy.region", "gender", "age_decade", "anamnesis"]
        prod = schema.block("policy.product")
        assert prod.columns == ["health", "life", MISSING]
        assert schema.block("anamnesis").columns == ["I25.0", "J06.9", MISSING]
        assert schema.block("age_decade").columns[:3] == ["0s", "10s", "20s"]
        # offsets are contiguous
        offset = 0
        for b in schema.blocks:
            assert b.offset == offset
            offset += b.width
        assert schema.width == offset

    def test_json_round_trip_and_hash(self):
        schema = derive_schema(TRAIN_RECORDS, "base")
        back = FeatureSchema.from_json(schema.to_json())
        assert back.scheme == schema.scheme
        assert [b.columns for b in back.blocks] == [b.columns for b in schema.blocks]
        assert back.sha256() == schema.sha256()
        other = derive_schema(TRAIN_RECORDS[:2], "base")
        assert other.sha256() != schema.sha256()

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="scheme"):
            derive_schema(TRAIN_RECORDS, "hybrid")
        with pytest.raises(ValueError, match="zero records"):
            derive_schema([], "base")
        with pytest.raises(ValueError, match="embedding source"):
            derive_schema(TRAIN_RECORDS, "replacement")


class TestAssembleBase:
    def test_hand_positions(self):
        X, schema = assemble_features(TRAIN_RECORDS, "base")
        assert X.shape == (3, schema.width)
        prod = schema.block("policy.product")
        assert X[0, prod.offset + prod.columns.index("life")] == 1.0
        assert X[2, prod.offset + prod.columns.index("health")] == 1.0
        # exactly one hot per one_hot block
        for b in schema.blocks:
            if b.kind == "one_hot":
                npt.assert_array_equal(X[:, b.offset : b.offset + b.width].sum(axis=1), 1.0)
        gb = schema.block("gender")
        assert X[1, gb.offset + gb.columns.index("F")] == 1.0
        ab = schema.block("age_decade")
        assert X[0, ab.offset + ab.columns.index("40s")] == 1.0
        assert X[1, ab.offset + ab.columns.index("60s")] == 1.0
        anam = schema.block("anamnesis")
        assert X[0, anam.offset + anam.columns.index("I25.0")] == 1.0
        assert X[0, anam.offset + anam.columns.index("J06.9")] == 1.0
        npt.assert_array_equal(X[1, anam.offset : anam.offset + anam.width], 0.0)

    def test_extreme_age_clamps_to_last_decade(self):
        X, schema = assemble_features([mkrecord(age=130)], "base")
        ab = schema.block("age_decade")
        assert X[0, ab.offset + ab.columns.index("90s")] == 1.0

    def test_apply_mode_unseen_value_goes_to_missing(self):
        schema = derive_schema(TRAIN_RECORDS, "base")
        rec = mkrecord(policy={"product": "travel", "region": "north"})
        X, _ = assemble_features([rec], "base", schema=schema)
        prod = schema.block("policy.product")
        assert X[0, prod.offset + prod.columns.index(MISSING)] == 1.0
        assert X[0, prod.offset : prod.offset + prod.width].sum() == 1.0

    def test_apply_mode_absent_field_goes_to_missing(self):
        schema = derive_schema(TRAIN_RECORDS, "base")
        rec = mkrecord(policy={"product": "life"})
        X, _ = assemble_features([rec], "base", schema=schema)
        reg = schema.block("policy.region")
        assert X[0, reg.offset + reg.columns.index(MISSING)] == 1.0

    def test_unknown_policy_field_rejected(self):
        schema = derive_schema(TRAIN_RECORDS, "base")
        rec = mkrecord(policy={"product": "life", "channel": "web"})
        with pytest.raises(SchemaError, match="channel"):
            assemble_features([rec], "base", schema=schema)

    def test_unseen_anamnesis_code_sets_only_missing_flag(self):
        schema = derive_schema(TRAIN_RECORDS, "base")
        anam = schema.block("anamnesis")
        rec = mkrecord(anamnesis=["E10.1", "J06.9"])
        X, _ = assemble_features([rec], "base", schema=schema)
        block = X[0, anam.offset : anam.offset + anam.width]
        assert block[anam.columns.index("J06.9")] == 1.0
        assert block[anam.columns.index(MISSING)] == 1.0
        assert block.sum() == 2.0
        # known-only anamnesis leaves the flag unset
        X2, _ = assemble_features([mkrecord(anamnesis=["J06.9"])], "base", schema=schema)
        assert X2[0, anam.offset + anam.columns.index(MISSING)] == 0.0

    def test_scheme_mismatch_rejected(self):
        schema = derive_schema(TRAIN_RECORDS, "base")
        with pytest.raises(SchemaError, match="scheme"):
            assemble_features(TRAIN_RECORDS, "replacement", schema=schema)


@pytest.fixture(scope="module")
def embed_setup():
    patients = generate_synthetic_corpus(seed=29, n_patients=100, n_codes=40)
    patients, _ = filter_corpus(patients, min_code_freq=2)
    vocab = build_vocabulary(patients)
    config = ModelConfig(vocab_size=len(vocab), d=16, n_layers=1, n_heads=2,
                         max_len=27, seed=5)
    model = EncoderModel.build(config, vocab_sha256=vocab.sha256())
    table = average_group_embedding(model, patients, vocab, "mean")
    source = EmbeddingSource(model, vocab, table, strategy="mean")
    known_codes = [vocab.token(i) for i in vocab.icd_ids][:3]
    return patients, vocab, model, table, source, known_codes


class TestEmbeddingSource:
    def test_vector_matches_pseudo_history_embedding(self, embed_setup):
        patients, vocab, model, table, source, codes = embed_setup
        rec = mkrecord(gender="F", age=50, anamnesis=[codes[1], codes[0]])
        vec = source.vectors([rec])[0]
        history = source._pseudo_history("F", 50, [codes[0], codes[1]])
        direct = patient_embeddings(model, [history], vocab, "mean")[0].vector
        npt.assert_allclose(vec, direct, rtol=1e-6)

    def test_empty_anamnesis_falls_back_to_group_table(self, embed_setup):
        patients, vocab, model, table, source, codes = embed_setup
        rec = mkrecord(gender="M", age=33, anamnesis=[])
        vec = source.vectors([rec])[0]
        npt.assert_array_equal(vec, table.lookup("M", 33))

    def test_cache_and_duplicates(self, embed_setup):
        patients, vocab, model, table, source, codes = embed_setup
        recs = [mkrecord("x1", anamnesis=codes[:2]), mkrecord("x2", anamnesis=codes[:2])]
        out = source.vectors(recs)
        npt.assert_array_equal(out[0], out[1])
        key = ("M", 42, tuple(sorted(codes[:2])))
        assert key in source._cache
        again = source.vectors(recs[:1])
        npt.assert_array_equal(again[0], out[0])

    def test_cache_evicts_the_least_recently_used_key(self, embed_setup, monkeypatch):
        patients, vocab, model, table, _, codes = embed_setup
        monkeypatch.setattr(scoring, "EMBEDDING_CACHE_SIZE", 2)
        source = EmbeddingSource(model, vocab, table, strategy="mean")
        a, b, c = (mkrecord(f"r{i}", anamnesis=[code]) for i, code in enumerate(codes))
        key = lambda r: (r.gender, r.age_years, tuple(r.anamnesis))  # noqa: E731
        first_b = source.vectors([a, b])[1]
        source.vectors([a])  # a becomes the most recently used key
        source.vectors([c])  # the cap is 2, so b goes
        assert list(source._cache) == [key(a), key(c)]
        assert source.cache_stats() == {"entries": 2, "capacity": 2, "hits": 1,
                                        "misses": 3, "evictions": 1}
        npt.assert_array_equal(source.vectors([b])[0], first_b)  # recomputed, same vector
        assert list(source._cache) == [key(c), key(b)]
        assert source.cache_stats()["evictions"] == 2

    def test_anamnesis_order_does_not_matter(self, embed_setup):
        patients, vocab, model, table, source, codes = embed_setup
        a = source.vectors([mkrecord(anamnesis=[codes[0], codes[2]])])[0]
        b = source.vectors([mkrecord(anamnesis=[codes[2], codes[0]])])[0]
        npt.assert_array_equal(a, b)

    def test_strategy_mismatch_rejected(self, embed_setup):
        patients, vocab, model, table, source, codes = embed_setup
        with pytest.raises(ValueError, match="strategy"):
            EmbeddingSource(model, vocab, table, strategy="max")

    def test_table_of_another_encoder_or_vocabulary_rejected(self, embed_setup):
        patients, vocab, model, table, source, codes = embed_setup
        assert source.encoder_sha256 == table.encoder_sha256 == model.params_sha256()
        other = EncoderModel.build(replace(model.config, seed=model.config.seed + 1),
                                   vocab_sha256=vocab.sha256())
        with pytest.raises(ContainerError, match="encoder"):
            EmbeddingSource(other, vocab, table, strategy="mean")
        with pytest.raises(ContainerError, match="vocabulary"):
            EmbeddingSource(model, vocab, replace(table, vocab_sha256="0" * 64), strategy="mean")

    def test_replacement_features(self, embed_setup):
        patients, vocab, model, table, source, codes = embed_setup
        recs = [mkrecord("r1", anamnesis=codes[:1]), mkrecord("r2", anamnesis=[])]
        X, schema = assemble_features(recs, "replacement", embedding_source=source)
        eb = schema.block("applicant_embedding")
        assert eb.width == source.dim
        npt.assert_allclose(X[:, eb.offset : eb.offset + eb.width], source.vectors(recs))
        assert np.isfinite(X).all()
        with pytest.raises(ValueError, match="embedding source"):
            assemble_features(recs, "replacement", schema=schema)

    def test_unseen_code_still_embeds(self, embed_setup):
        patients, vocab, model, table, source, codes = embed_setup
        rec = mkrecord(anamnesis=["Q99.9"])  # out of vocabulary -> UNK event
        vec = source.vectors([rec])[0]
        assert np.isfinite(vec).all()
        assert not np.array_equal(vec, table.lookup("M", 42))


class TestRidge:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 8))
        y = rng.normal(size=50)
        y[:10] += 3  # two "classes" worth of spread, keeps labels non-constant
        y = (y > y.mean()).astype(float)
        lam = 2.5
        m = ridge_fit(X, y, lam)
        Z = (X - m.mean) / m.scale
        w_oracle = np.linalg.solve(Z.T @ Z + lam * np.eye(8), Z.T @ (y - y.mean()))
        npt.assert_allclose(m.weights, w_oracle, atol=1e-8)
        assert m.intercept == pytest.approx(y.mean())
        npt.assert_allclose(ridge_predict(m, X), Z @ w_oracle + y.mean(), atol=1e-8)

    def test_multi_rhs_solve_matches_columnwise(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 6))
        Y = rng.normal(size=(30, 4))
        W = ridge_solve(X, Y, 0.7)
        for j in range(4):
            npt.assert_allclose(W[:, j], ridge_solve(X, Y[:, j], 0.7), atol=1e-10)

    def test_small_lambda_recovers_noiseless_targets(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 5))
        w_true = rng.normal(size=5)
        y_cont = X @ w_true
        y = (y_cont > 0).astype(float)
        # fit on the continuous scores themselves via the binary interface is
        # not possible, so check the predictions of a tiny-lambda fit against
        # an unregularized least-squares fit on the same design
        m = ridge_fit(X, y, lam=1e-8)
        Z = np.column_stack([np.ones(60), (X - m.mean) / m.scale])
        coef, *_ = np.linalg.lstsq(Z, y, rcond=None)
        npt.assert_allclose(ridge_predict(m, X), Z @ coef, atol=1e-5)

    def test_huge_lambda_collapses_to_label_mean(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 6))
        y = (rng.random(40) < 0.4).astype(float)
        m = ridge_fit(X, y, lam=1e9)
        assert np.abs(ridge_predict(m, X) - y.mean()).max() < 1e-4

    def test_affine_feature_rescaling_is_invisible(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 4))
        y = (rng.random(50) < 0.5).astype(float)
        X2 = X.copy()
        X2[:, 1] = X2[:, 1] * 1000.0 + 5.0
        p1 = ridge_predict(ridge_fit(X, y, 1.0), X)
        p2 = ridge_predict(ridge_fit(X2, y, 1.0), X2)
        npt.assert_allclose(p1, p2, atol=1e-8)

    def test_constant_column_is_harmless(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        X[:, 0] = 7.0
        y = (rng.random(30) < 0.5).astype(float)
        m = ridge_fit(X, y, 1.0)
        assert np.isfinite(ridge_predict(m, X)).all()

    def test_duplicated_row_scores_identically(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 4))
        y = (rng.random(20) < 0.5).astype(float)
        m = ridge_fit(X, y, 1.0)
        preds = ridge_predict(m, np.vstack([X[3], X[3]]))
        assert preds[0] == preds[1]

    def test_validation_errors(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="labels"):
            ridge_fit(X, np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="single class"):
            ridge_fit(X, np.zeros(4), 1.0)
        with pytest.raises(ValueError, match="lam"):
            ridge_solve(X, np.zeros(4), 0.0)
        m = ridge_fit(np.eye(4), np.array([0, 1, 0, 1.0]), 1.0)
        with pytest.raises(SchemaError, match="width"):
            ridge_predict(m, np.zeros((2, 3)))

    def test_schema_hash_guard(self):
        schema = derive_schema(TRAIN_RECORDS, "base")
        X, _ = assemble_features(TRAIN_RECORDS, "base", schema=schema)
        m = ridge_fit(X, np.array([1.0, 0.0, 0.0]), 1.0, schema_hash=schema.sha256())
        ridge_predict(m, X, schema)  # matching hash passes
        other = derive_schema(TRAIN_RECORDS[:2], "base")
        Xo, _ = assemble_features(TRAIN_RECORDS[:2], "base", schema=other)
        with pytest.raises(SchemaError, match="schema"):
            ridge_predict(m, Xo, other)

    def test_select_lambda_picks_argmax(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 10))
        w = rng.normal(size=10)
        y = ((X @ w + rng.normal(size=200)) > 0).astype(float)
        best, aucs = select_lambda(X[:150], y[:150], X[150:], y[150:])
        assert set(aucs) == set(LAMBDA_GRID)
        assert best.lam == max(aucs, key=lambda lam: aucs[lam])

    def test_target_matrix_fits_like_its_columns(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 5))
        Y = (rng.random((40, 3)) < 0.4).astype(float)
        m = ridge_fit(X, Y, 0.7)
        assert m.weights.shape == (5, 3) and m.intercept.shape == (3,)
        pred = ridge_predict(m, X[:7])
        for j in range(3):
            mj = ridge_fit(X, Y[:, j], 0.7)
            assert mj.weights.shape == (5,) and np.ndim(mj.intercept) == 0
            npt.assert_allclose(m.weights[:, j], mj.weights, atol=1e-10)
            assert m.intercept[j] == mj.intercept
            npt.assert_allclose(pred[:, j], ridge_predict(mj, X[:7]), atol=1e-10)

    def test_select_lambda_uses_the_given_metric(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(120, 6))
        y = ((X @ rng.normal(size=6) + rng.normal(size=120)) > 0).astype(float)
        neg_mse = lambda s, t: -float(np.mean((s - t) ** 2))
        best, scores = select_lambda(X[:80], y[:80], X[80:], y[80:], metric=neg_mse)
        assert set(scores) == set(LAMBDA_GRID)
        assert best.lam == max(scores, key=scores.get)
        assert scores[best.lam] == neg_mse(ridge_predict(best, X[80:]), y[80:])

    def test_select_lambda_ties_go_to_the_earlier_lambda(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 3))
        y = (rng.random(30) < 0.5).astype(float)
        flat = lambda s, t: 0.5
        for grid in ((10.0, 0.1, 1.0), (0.1, 1.0, 10.0)):
            best, _ = select_lambda(X[:20], y[:20], X[20:], y[20:], grid=grid, metric=flat)
            assert best.lam == grid[0]

    def test_select_lambda_rejects_an_empty_grid(self):
        X = np.eye(4)
        y = np.array([0, 1, 0, 1.0])
        with pytest.raises(ValueError, match="grid"):
            select_lambda(X, y, X, y, grid=())


class TestRocAuc:
    def test_boundary_values(self):
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0
        assert roc_auc(np.full(4, 0.5), labels) == 0.5

    def test_hand_counted_pairs(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        # positive/negative pairs won: (0.35,0.1)+(0.8,0.1)+(0.8,0.4)=3 of 4
        assert roc_auc(scores, labels) == pytest.approx(0.75)

    def test_tie_counts_half(self):
        scores = np.array([0.5, 0.5, 0.2])
        labels = np.array([1, 0, 0])
        # vs the tied negative: 0.5; vs the lower negative: 1.0
        assert roc_auc(scores, labels) == pytest.approx(0.75)

    def test_heavy_ties_match_recorded_values(self):
        # recorded with the midranks of scipy's rankdata; 300 scores on 4 levels
        rng = np.random.default_rng(11)
        scores = rng.integers(0, 4, size=300).astype(float)
        labels = (rng.random(300) < 0.2 + 0.15 * scores).astype(int)
        assert roc_auc(scores, labels) == 0.7293647512746314
        assert roc_auc(np.array([1.0, 1, 2, 2, 3, 3]), np.array([0, 1, 0, 1, 1, 1])) == 0.75
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum()
        assert roc_auc(scores, labels) == pytest.approx(wins / (pos.size * neg.size), rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=300)
        labels = (rng.random(300) < 0.3).astype(int)
        assert roc_auc(scores, labels) == pytest.approx(roc_auc(np.exp(scores), labels))

    def test_negated_scores_mirror(self):
        rng = np.random.default_rng(10)
        scores = rng.normal(size=500)
        labels = (rng.random(500) < 0.4).astype(int)
        assert roc_auc(-scores, labels) == pytest.approx(1.0 - roc_auc(scores, labels))

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=10_000)
        labels = (rng.random(10_000) < 0.5).astype(int)
        assert abs(roc_auc(scores, labels) - 0.5) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc(np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="shape"):
            roc_auc(np.ones(3), np.ones(4))


class TestMonthlyEval:
    def test_hand_case(self):
        scores = np.array([0.1, 0.9, 0.9, 0.1])
        labels = np.array([0, 1, 0, 1])
        months = np.array([0, 0, 1, 1])
        rep = monthly_eval(scores, labels, months)
        assert rep.cells == [(0, 1.0, 2), (1, 0.0, 2)]
        assert rep.average == pytest.approx(0.5)
        assert rep.aucs() == [1.0, 0.0]

    def test_single_class_month_skipped(self):
        scores = np.array([0.1, 0.9, 0.8, 0.2])
        labels = np.array([0, 1, 1, 1])
        months = np.array([3, 3, 7, 7])
        rep = monthly_eval(scores, labels, months)
        assert rep.skipped_months == [7]
        assert [m for m, _, _ in rep.cells] == [3]

    def test_all_skipped_raises(self):
        with pytest.raises(ValueError, match="no month"):
            monthly_eval(np.ones(4), np.ones(4), np.array([0, 0, 1, 1]))


class TestPsi:
    def test_identical_samples_are_zero(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=5000)
        assert psi(x, x) <= 1e-12

    def test_large_shift_is_large(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=5000)
        assert psi(x, x + 5.0) > 1.0

    def test_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a = rng.normal(loc=rng.normal(), size=500)
            b = rng.normal(loc=rng.normal(), size=500)
            assert psi(a, b) >= -1e-12

    def test_shared_edges_make_it_symmetric(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=2000)
        b = rng.normal(loc=0.3, size=2000)
        edges = np.quantile(np.concatenate([a, b]), np.arange(1, 10) / 10)
        assert psi(a, b, edges=edges) == pytest.approx(psi(b, a, edges=edges))

    def test_fixed_edges_match_manual_binning(self):
        edges = np.array([0.1, 0.2, 0.9])
        # 1, 2, 3 and 4 of the 10 reference scores in the four bins
        reference = np.array([0.05, 0.15, 0.15, 0.5, 0.5, 0.5, 0.95, 0.95, 0.95, 0.95])
        r = np.array([0.1, 0.2, 0.3, 0.4])

        def manual(c):
            c = np.maximum(c, 1e-6)
            return float(np.sum((c - r) * np.log(c / r)))

        scores = np.array([0.05, 0.15, 0.15, 0.25, 0.95])
        assert psi(reference, scores, edges=edges) == pytest.approx(
            manual(np.array([1 / 5, 2 / 5, 1 / 5, 1 / 5])))
        # bins are left-closed, so a boundary value lands in the bin to its right
        assert psi(reference, np.array([0.1]), edges=edges) == pytest.approx(
            manual(np.array([0.0, 1.0, 0.0, 0.0])))

    def test_validation(self):
        x = np.ones(10)
        with pytest.raises(ValueError, match="empty"):
            psi(np.array([]), x)
        with pytest.raises(ValueError, match="empty"):
            psi(x, np.array([]))
        with pytest.raises(ValueError, match="bins"):
            psi(x, x, bins=1)


class TestScorerArtifact:
    def test_round_trip(self, tmp_path, embed_setup):
        patients, vocab, model, table, source, codes = embed_setup
        rng = np.random.default_rng(16)
        X = rng.normal(size=(40, 6))
        y = (rng.random(40) < 0.3).astype(float)
        schema = derive_schema(TRAIN_RECORDS, "base")
        m = ridge_fit(X[:, : schema.width] if schema.width <= 6 else X, y, 2.0,
                      schema_hash=schema.sha256(), training_period="months 0-5")
        ref = ridge_predict(m, X[:, : m.weights.shape[0]])
        path = tmp_path / "scorer.bin"
        save_scorer(path, m, schema, ref, group_table=table,
                    extra_meta={"scheme": "base"})
        art = load_scorer(path)
        npt.assert_allclose(art.model.weights, m.weights, atol=1e-6)
        npt.assert_allclose(art.model.mean, m.mean, atol=1e-6)
        assert art.model.lam == m.lam
        assert art.model.intercept == pytest.approx(m.intercept)
        assert art.model.training_period == "months 0-5"
        assert art.schema.sha256() == schema.sha256()
        npt.assert_allclose(art.reference_scores, ref, atol=1e-6)
        assert art.meta["scheme"] == "base"
        assert art.group_table is not None
        npt.assert_allclose(art.group_table.lookup("M", 40), table.lookup("M", 40),
                            atol=1e-6)

    def test_round_trip_without_group_table(self, tmp_path):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 4))
        y = (rng.random(30) < 0.5).astype(float)
        schema = derive_schema(TRAIN_RECORDS, "base")
        m = ridge_fit(X, y, 1.0, schema_hash=schema.sha256())
        path = tmp_path / "scorer.bin"
        save_scorer(path, m, schema, ridge_predict(m, X))
        art = load_scorer(path)
        assert art.group_table is None
        # loaded model scores close to the original (float32 storage)
        npt.assert_allclose(ridge_predict(art.model, X), ridge_predict(m, X), atol=1e-4)

    def test_save_refuses_a_schema_the_model_was_not_fit_on(self, tmp_path):
        fitted = derive_schema(TRAIN_RECORDS[:2], "base")
        other = derive_schema(TRAIN_RECORDS, "base")
        rng = np.random.default_rng(18)
        X = rng.normal(size=(20, fitted.width))
        m = ridge_fit(X, (rng.random(20) < 0.5).astype(float), 1.0,
                      schema_hash=fitted.sha256())
        path = tmp_path / "scorer.bin"
        with pytest.raises(ContainerError, match="feature schema mismatch"):
            save_scorer(path, m, other, ridge_predict(m, X))
        assert list(tmp_path.iterdir()) == []
