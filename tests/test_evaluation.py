"""Metric oracles and the evaluation harness.

precision_at_k and the Previous baseline are checked against brute-force
reimplementations; the cross-validated harness is cross-checked by running
the same fold partition and frequency scorer by hand.
"""

import datetime as dt
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ehrseq import evaluation
from ehrseq.corpus import Event, PatientHistory, build_vocabulary, filter_corpus, group_visits
from ehrseq.encoder import (
    INFER_CHUNK,
    EncoderModel,
    ModelConfig,
    predict_next_distribution_batch,
)
from ehrseq.evaluation import (
    CategoryMap,
    ModelNextCodePredictor,
    OracleNextCodePredictor,
    _probe_scorer_factory,
    ablation_suite,
    baseline_most_common,
    baseline_previous,
    evaluate_visit_prediction,
    fold_partition,
    frequency_category_scorer,
    load_category_map,
    model_category_scorer,
    next_code_accuracy,
    precision_at_k,
)
from ehrseq.scoring import ridge_fit, ridge_predict
from ehrseq.synthetic import generate_synthetic_corpus


def mkpatient(pid, codes, gender="M", age=40):
    day = dt.date(2019, 1, 1)
    events = [Event(day + dt.timedelta(days=i), c) for i, c in enumerate(codes)]
    return PatientHistory(pid, gender, age, events)


def brute_force_precision(scores, actual, k):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    top = set(order[:k])
    return len(top & actual) / min(k, len(actual))


class TestPrecisionAtK:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            # quantized scores so ties actually occur
            scores = np.round(rng.normal(size=n), 1)
            size = int(rng.integers(1, n + 1))
            actual = set(rng.choice(n, size=size, replace=False).tolist())
            k = int(rng.integers(1, 11))
            npt.assert_allclose(precision_at_k(scores, actual, k),
                                brute_force_precision(scores, actual, k), rtol=1e-12)

    def test_formula_examples(self):
        scores = np.array([9.0, 8.0, 7.0, 1.0, 1.0])
        assert precision_at_k(scores, {0, 1, 5}, 3) == pytest.approx(2 / 3)
        assert precision_at_k(scores, {0, 1, 2}, 3) == 1.0
        # |actual| < k: denominator is the set size
        assert precision_at_k(scores, {0}, 3) == 1.0
        assert precision_at_k(scores, {4}, 3) == 0.0

    def test_ties_break_toward_lower_ids(self):
        scores = np.zeros(6)
        assert precision_at_k(scores, {0, 1, 2}, 3) == 1.0
        assert precision_at_k(scores, {3, 4, 5}, 3) == 0.0

    def test_k_larger_than_candidates(self):
        scores = np.array([3.0, 2.0, 1.0])
        assert precision_at_k(scores, {2}, 10) == 1.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="empty"):
            precision_at_k(np.ones(4), set(), 2)
        with pytest.raises(ValueError, match="k"):
            precision_at_k(np.ones(4), {0}, 0)


@pytest.fixture(scope="module")
def corpus():
    patients = generate_synthetic_corpus(seed=13, n_patients=300, n_codes=40)
    patients, _ = filter_corpus(patients, min_code_freq=2)
    return patients


class TestNextCodeAccuracy:
    def test_oracle_predictor_scores_one(self, corpus):
        rep = next_code_accuracy(OracleNextCodePredictor(corpus), corpus, thresholds=(2, 4, 8))
        for cell in rep.cells:
            assert cell.value == 1.0
            assert cell.count > 0

    def test_previous_baseline_matches_positional_counting(self, corpus):
        rep = next_code_accuracy(baseline_previous(), corpus, thresholds=(3, 5, 9))
        for th in (3, 5, 9):
            eligible = [p for p in corpus if len(p.events) >= th]
            hits = sum(p.events[th - 2].code == p.events[th - 1].code for p in eligible)
            cell = rep.cell(th=th)
            assert cell.count == len(eligible)
            npt.assert_allclose(cell.value, hits / len(eligible), rtol=1e-12)

    def test_most_common_baseline_matches_counting(self, corpus):
        mc = baseline_most_common(corpus)
        rep = next_code_accuracy(mc, corpus, thresholds=(4,))
        eligible = [p for p in corpus if len(p.events) >= 4]
        code = mc(corpus[:1])[0]
        hits = sum(p.events[3].code == code for p in eligible)
        npt.assert_allclose(rep.cell(th=4).value, hits / len(eligible), rtol=1e-12)

    def test_eligibility_counting(self):
        patients = [mkpatient("a", ["A01"] * 5), mkpatient("b", ["A01"] * 12),
                    mkpatient("c", ["A01"] * 12)]
        rep = next_code_accuracy(baseline_previous(), patients, thresholds=(12,))
        assert rep.cell(th=12).count == 2

    def test_unreachable_threshold_omits_cell(self):
        patients = [mkpatient("a", ["A01"] * 5)]
        rep = next_code_accuracy(baseline_previous(), patients, thresholds=(4, 50))
        assert len(rep.cells) == 1
        with pytest.raises(KeyError):
            rep.cell(th=50)

    def test_most_common_breaks_ties_lexicographically(self):
        patients = [mkpatient("a", ["B01", "A01"]), mkpatient("b", ["A01", "B01"])]
        assert baseline_most_common(patients)(patients[:1]) == ["A01"]

    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            next_code_accuracy(baseline_previous(), [mkpatient("a", ["A01"] * 3)], (1,))

    def test_previous_requires_nonempty_prefix(self):
        with pytest.raises(ValueError, match="non-empty"):
            baseline_previous()([mkpatient("a", [])])

    def test_report_formatting(self, corpus):
        rep = next_code_accuracy(baseline_previous(), corpus, thresholds=(4,))
        recs = rep.to_json_records()
        assert recs[0]["metric"] == "next_code_accuracy"
        assert recs[0]["th"] == 4


class TestModelNextCodePredictor:
    def test_more_than_one_chunk_returns_input_order(self, corpus, monkeypatch):
        vocab = build_vocabulary(corpus)
        model = EncoderModel.build(ModelConfig(vocab_size=len(vocab), d=16, n_layers=1,
                                               n_heads=2, max_len=27, seed=6))
        prefixes = [PatientHistory(f"{p.patient_id}/{k}", p.gender, p.age_years, p.events[:k])
                    for p in corpus for k in (0, 1, 3, 7, 15, 30) if k <= len(p.events)]
        order = np.random.default_rng(2).permutation(len(prefixes))[: INFER_CHUNK + 40]
        prefixes = [prefixes[i] for i in order]
        assert len(prefixes) == INFER_CHUNK + 40
        predictor = ModelNextCodePredictor(model, vocab)
        widths = []
        forward = EncoderModel.forward

        def spy(self, ids, attn, *args, **kwargs):
            widths.append(ids.shape)
            return forward(self, ids, attn, *args, **kwargs)

        monkeypatch.setattr(EncoderModel, "forward", spy)
        batched = predictor(prefixes)
        monkeypatch.undo()
        # two forwards over length-sorted chunks: the short rows pad to their own width
        assert [b for b, _ in widths] == [INFER_CHUNK, 40]
        assert widths[0][1] < widths[1][1]
        assert batched == [predictor([p])[0] for p in prefixes]

    def test_no_prefixes(self, corpus):
        vocab = build_vocabulary(corpus)
        model = EncoderModel.build(ModelConfig(vocab_size=len(vocab), d=16, n_layers=1,
                                               n_heads=2, max_len=27, seed=6))
        assert ModelNextCodePredictor(model, vocab)([]) == []


class TestCategoryMap:
    def test_prefix_fallback_layout(self):
        patients = [mkpatient("a", ["J06.9", "J06.0", "I25.1"] * 2)]
        vocab = build_vocabulary(patients)
        cat_map = load_category_map(vocab=vocab)
        assert cat_map.source == "prefix3_fallback"
        assert cat_map.categories == ["I25", "J06", "other"]
        assert cat_map.category_of("J06.9") == cat_map.category_of("J06.0") == 1
        assert cat_map.category_of("I25.1") == 0
        assert cat_map.category_of("Z99.9") == cat_map.other_id

    def test_external_file(self, tmp_path):
        path = tmp_path / "cats.csv"
        path.write_text("J06.9,respiratory\nI25.1,cardiac\n\nbadrow\nJ04.0,respiratory\n")
        cat_map = load_category_map(path)
        assert cat_map.source == "external_file"
        assert cat_map.categories == ["cardiac", "respiratory", "other"]
        assert cat_map.skipped_rows == 1
        assert cat_map.category_of("J06.9") == cat_map.category_of("J04.0") == 1
        assert cat_map.category_of("I25.1") == 0
        assert cat_map.category_of("E10.1") == cat_map.other_id

    def test_external_file_counts_unmapped_vocab_codes(self, tmp_path):
        patients = [mkpatient("a", ["J06.9", "I25.1"] * 2)]
        vocab = build_vocabulary(patients)
        path = tmp_path / "cats.csv"
        path.write_text("J06.9,respiratory\n")
        cat_map = load_category_map(path, vocab=vocab)
        assert cat_map.unmapped_codes == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no usable rows"):
            load_category_map(path)

    def test_needs_file_or_vocab(self):
        with pytest.raises(ValueError, match="vocab"):
            load_category_map()


class TestFoldPartition:
    def test_partition_property(self):
        parts = fold_partition(103, 10, seed=1)
        assert len(parts) == 10
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        merged = np.concatenate(parts)
        assert sorted(merged.tolist()) == list(range(103))

    def test_deterministic(self):
        a = fold_partition(50, 5, seed=3)
        b = fold_partition(50, 5, seed=3)
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)

    def test_bounds(self):
        with pytest.raises(ValueError, match="folds"):
            fold_partition(10, 1, seed=0)
        with pytest.raises(ValueError, match="folds"):
            fold_partition(10, 11, seed=0)


@pytest.fixture(scope="module")
def visit_setup():
    patients = generate_synthetic_corpus(seed=17, n_patients=250, n_codes=60)
    patients, _ = filter_corpus(patients, min_code_freq=2)
    vocab = build_vocabulary(patients)
    cat_map = load_category_map(vocab=vocab)
    return patients, vocab, cat_map


class TestEvaluateVisitPrediction:
    def test_target_concentrated_scorer_scores_one(self, visit_setup):
        patients, vocab, cat_map = visit_setup
        truth = {}
        for p in patients:
            visits = group_visits(p)
            if len(visits) >= 2:
                truth[p.patient_id] = {cat_map.category_of(c) for c in visits[-1].codes}

        def factory(train):
            def scorer(prefixes):
                scores = np.zeros((len(prefixes), cat_map.n_categories))
                for i, pre in enumerate(prefixes):
                    for c in truth[pre.patient_id]:
                        scores[i, c] = 1.0
                return scores
            return scorer

        rep = evaluate_visit_prediction(factory, patients, cat_map, ks=(5,), folds=5)
        assert rep.cell(k=5).value == 1.0
        assert rep.cell(k=5).std == 0.0

    def test_matches_hand_rolled_cross_validation(self, visit_setup):
        patients, vocab, cat_map = visit_setup
        folds, seed, k = 4, 9, 5
        factory = lambda train: frequency_category_scorer(train, cat_map)
        rep = evaluate_visit_prediction(factory, patients, cat_map, ks=(k,), folds=folds, seed=seed)

        usable = [p for p in patients if len(group_visits(p)) >= 2]
        fold_means = []
        for idx in fold_partition(len(usable), folds, seed):
            test = [usable[i] for i in idx]
            train = [usable[i] for i in range(len(usable)) if i not in set(idx.tolist())]
            counts = np.zeros(cat_map.n_categories)
            for p in train:
                for e in p.events:
                    counts[cat_map.category_of(e.code)] += 1
            freq = counts / counts.sum()
            vals = []
            for p in test:
                last = group_visits(p)[-1]
                actual = {cat_map.category_of(c) for c in last.codes}
                vals.append(brute_force_precision(freq, actual, k))
            fold_means.append(np.mean(vals))
        npt.assert_allclose(rep.cell(k=5).value, np.mean(fold_means), rtol=1e-12)
        npt.assert_allclose(rep.cell(k=5).std, np.std(fold_means), rtol=1e-12)

    def test_short_histories_are_skipped(self, visit_setup):
        patients, vocab, cat_map = visit_setup
        one_day = mkpatient("single", ["J06.9"])  # one visit only
        factory = lambda train: frequency_category_scorer(train, cat_map)
        rep = evaluate_visit_prediction(factory, list(patients) + [one_day], cat_map,
                                        ks=(5,), folds=5)
        assert rep.skipped >= 1

    def test_all_short_rejected(self, visit_setup):
        patients, vocab, cat_map = visit_setup
        factory = lambda train: frequency_category_scorer(train, cat_map)
        with pytest.raises(ValueError, match="2 visits"):
            evaluate_visit_prediction(factory, [mkpatient("a", ["J06.9"])], cat_map)


@pytest.fixture(scope="module")
def scorer_setup():
    patients = generate_synthetic_corpus(seed=19, n_patients=120, n_codes=40)
    patients, _ = filter_corpus(patients, min_code_freq=2)
    vocab = build_vocabulary(patients)
    cat_map = load_category_map(vocab=vocab)
    config = ModelConfig(vocab_size=len(vocab), d=16, n_layers=1, n_heads=2,
                         max_len=27, seed=5)
    model = EncoderModel.build(config, vocab_sha256=vocab.sha256())
    return patients, vocab, cat_map, model


class TestModelCategoryScorer:
    def test_category_mass_partitions_distribution(self, scorer_setup):
        patients, vocab, cat_map, model = scorer_setup
        scorer = model_category_scorer(model, vocab, cat_map)
        prefix = PatientHistory("q", "F", 50, patients[0].events[:4])
        scores = scorer([prefix])
        npt.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-6)
        dist = predict_next_distribution_batch(model, [prefix], vocab)[0]
        expected = np.zeros(cat_map.n_categories)
        for tid in vocab.icd_ids:
            expected[cat_map.category_of(vocab.token(tid))] += dist[tid]
        npt.assert_allclose(scores[0], expected, atol=1e-9)

    def test_no_prefixes(self, scorer_setup):
        _, vocab, cat_map, model = scorer_setup
        assert model_category_scorer(model, vocab, cat_map)([]).shape == (0, cat_map.n_categories)

    def test_runs_through_harness(self, scorer_setup):
        patients, vocab, cat_map, model = scorer_setup
        factory = lambda train: model_category_scorer(model, vocab, cat_map)
        rep = evaluate_visit_prediction(factory, patients[:60], cat_map, ks=(5,), folds=3)
        assert 0.0 <= rep.cell(k=5).value <= 1.0


@pytest.fixture(scope="module")
def ablation_setup():
    patients = generate_synthetic_corpus(seed=23, n_patients=80, n_codes=40)
    patients, _ = filter_corpus(patients, min_code_freq=2)
    vocab = build_vocabulary(patients)
    config = ModelConfig(vocab_size=len(vocab), d=16, n_layers=1, n_heads=2,
                         max_len=27, epochs=1, batch_size=32, lr=1e-3, seed=7)
    return patients, vocab, config


class TestAblationSuite:
    def test_variant_names_and_determinism(self, ablation_setup):
        patients, vocab, config = ablation_setup
        kwargs = dict(poolings=("cls", "mean"), positional=(True,), gender_age=(True,),
                      ks=(5,), folds=4, seed=2)
        rep1 = ablation_suite(patients, vocab, config, **kwargs)
        rep2 = ablation_suite(patients, vocab, config, **kwargs)
        assert [c.key["variant"] for c in rep1.cells] == ["cls", "mean"]
        assert rep1.errors == []
        for a, b in zip(rep1.cells, rep2.cells):
            assert a.key == b.key
            assert a.value == b.value

    def test_grid_covers_flag_combinations_in_names(self, ablation_setup):
        patients, vocab, config = ablation_setup
        rep = ablation_suite(patients, vocab, config, poolings=("cls",),
                             positional=(True, False), gender_age=(True, False),
                             ks=(5,), folds=4, seed=2)
        names = {c.key["variant"] for c in rep.cells}
        assert names == {"cls", "cls_wo_positional", "cls_wo_gender_age",
                         "cls_wo_positional_wo_gender_age"}

    def test_training_failure_is_contained(self, ablation_setup):
        patients, vocab, config = ablation_setup
        bad = replace(config, lr=1e12, clip_norm=1e12)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = ablation_suite(patients, vocab, bad, poolings=("cls",),
                                 positional=(True,), gender_age=(True,),
                                 ks=(5,), folds=4, seed=2)
        assert rep.cells == []
        assert len(rep.errors) == 1
        assert "cls" in rep.errors[0]

    def test_unknown_pooling_rejected_up_front(self, ablation_setup):
        patients, vocab, config = ablation_setup
        with pytest.raises(ValueError, match="strategy"):
            ablation_suite(patients, vocab, config, poolings=("sum",))

    @pytest.mark.parametrize("probe_lambda", [(), (0.0, 1.0), -1.0, (1.0, float("nan"))],
                             ids=["empty", "zero", "negative", "nan"])
    def test_bad_probe_lambda_rejected_before_training(self, ablation_setup, monkeypatch,
                                                       probe_lambda):
        patients, vocab, config = ablation_setup
        trained = []
        monkeypatch.setattr(evaluation, "train_encoder", lambda *a, **kw: trained.append(1))
        with pytest.raises(ValueError, match="probe_lambda"):
            ablation_suite(patients, vocab, config, poolings=("cls",), probe_lambda=probe_lambda)
        assert trained == []

    def test_repeated_patient_id_rejected_before_training(self, ablation_setup, monkeypatch):
        # the probe finds each patient's embedding row by id; a repeated id
        # would hand one patient's row to both
        patients, vocab, config = ablation_setup
        usable = [p for p in patients if len(group_visits(p)) >= 2]
        patients = usable[:3] + [replace(usable[3], patient_id=usable[0].patient_id)] + usable[4:]
        trained = []
        monkeypatch.setattr(evaluation, "train_encoder", lambda *a, **kw: trained.append(1))
        with pytest.raises(ValueError, match="unique"):
            ablation_suite(patients, vocab, config, poolings=("cls",))
        assert trained == []

    def test_encoders_never_train_on_a_final_visit(self, ablation_setup, monkeypatch):
        # the probe's targets are the final visits, so the encoder must not see them
        patients, vocab, config = ablation_setup
        seen = []
        monkeypatch.setattr(evaluation, "train_encoder",
                            lambda model, samples, **kw: seen.append(samples))
        ablation_suite(patients, vocab, config, poolings=("cls",), positional=(True,),
                       gender_age=(True,), ks=(5,), folds=4, seed=2)
        usable = [p for p in patients if len(group_visits(p)) >= 2]
        [samples] = seen
        assert len(samples) == len(usable)
        leaked = checked = 0
        for p, s in zip(usable, samples):
            visits = group_visits(p)
            earlier = {c for v in visits[:-1] for c in v.codes}
            final_only = {vocab.code_id(c) for c in visits[-1].codes} - {
                vocab.code_id(c) for c in earlier}
            checked += len(final_only)
            leaked += len(final_only & set(s.token_ids[3 : s.length].tolist()))
        assert checked > 20 and leaked == 0

    def test_probe_lambda_grid_is_deterministic_and_in_range(self, ablation_setup):
        patients, vocab, config = ablation_setup
        kwargs = dict(poolings=("cls",), positional=(True,), gender_age=(True,),
                      ks=(5,), folds=4, seed=2, probe_lambda=(0.1, 1.0, 10.0))
        rep1 = ablation_suite(patients, vocab, config, **kwargs)
        rep2 = ablation_suite(patients, vocab, config, **kwargs)
        assert rep1.cell(variant="cls", k=5).value == rep2.cell(variant="cls", k=5).value
        assert 0.0 <= rep1.cell(variant="cls", k=5).value <= 1.0


class TestProbeScorer:
    def test_all_tied_grid_fits_the_strongest_penalty_on_all_rows(self):
        rng = np.random.default_rng(12)
        n, n_cat = 40, 4
        X = rng.normal(size=(n, 6))
        Y = (rng.random((n, n_cat)) < 0.4).astype(float)
        Y[:, 0] = 1.0  # every row has a target category
        patients = [mkpatient(f"p{i}", ["A01"]) for i in range(n)]
        index_of = {p.patient_id: i for i, p in enumerate(patients)}
        grid = (0.3, 30.0, 3.0)
        # with k >= n_categories every candidate scores Precision@k = 1
        factory = _probe_scorer_factory(X, Y, index_of, grid, k=n_cat, seed=1)
        train, test = patients[:30], patients[30:]
        scores = factory(train)(test)
        expected = ridge_predict(ridge_fit(X[:30], Y[:30], max(grid)), X[30:])
        assert np.array_equal(scores, expected)
