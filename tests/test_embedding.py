"""Pooling, neighbor search, group averages, risk curves and vector export.

Most tests run against an untrained (randomly initialized) encoder: the
properties under test are structural, so no fitting is needed.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ehrseq.corpus import GENDERS, N_AGES, PatientHistory, build_vocabulary, filter_corpus
from ehrseq import encoder as encoder_module
from ehrseq.embedding import (
    GroupTable,
    POOLING_STRATEGIES,
    _pool_batch,
    average_group_embedding,
    embed_batch,
    embedding_dim,
    export_vectors,
    nearest_tokens,
    patient_embedding,
    patient_embeddings,
    pool,
    read_vectors,
    risk_curve,
)
from ehrseq.encoder import INFER_CHUNK, EncoderModel, ModelConfig
from ehrseq.synthetic import generate_synthetic_corpus


@pytest.fixture(scope="module")
def setup():
    patients = generate_synthetic_corpus(seed=11, n_patients=120, n_codes=40)
    patients, _ = filter_corpus(patients, min_code_freq=2)
    vocab = build_vocabulary(patients)
    config = ModelConfig(vocab_size=len(vocab), d=16, n_layers=1, n_heads=2,
                         max_len=27, seed=3)
    model = EncoderModel.build(config, vocab_sha256=vocab.sha256())
    return patients, vocab, model


class TestPool:
    def test_hand_computed_reductions(self):
        hidden = np.array([[1.0, 0.0], [0.0, 1.0]])
        mask = np.array([1, 1])
        npt.assert_allclose(pool(hidden, mask, "mean"), [0.5, 0.5])
        npt.assert_allclose(pool(hidden, mask, "max"), [1.0, 1.0])
        npt.assert_allclose(pool(hidden, mask, "concat_mean_max"), [0.5, 0.5, 1.0, 1.0])
        npt.assert_allclose(pool(hidden, mask, "cls"), [1.0, 0.0])

    def test_padding_excluded(self):
        hidden = np.array([[2.0, 2.0], [4.0, 0.0], [99.0, 99.0]])
        mask = np.array([1, 1, 0])
        npt.assert_allclose(pool(hidden, mask, "mean"), [3.0, 1.0])
        npt.assert_allclose(pool(hidden, mask, "max"), [4.0, 2.0])

    def test_constant_rows_pool_to_themselves(self):
        hidden = np.tile([1.5, -2.0, 0.25], (6, 1))
        mask = np.ones(6)
        for strategy in ("cls", "mean", "max"):
            npt.assert_allclose(pool(hidden, mask, strategy), [1.5, -2.0, 0.25])

    def test_events_only_skips_cls_and_demographics(self):
        hidden = np.array([[10.0], [20.0], [30.0], [1.0], [3.0], [0.0]])
        mask = np.array([1, 1, 1, 1, 1, 0])
        npt.assert_allclose(pool(hidden, mask, "mean", events_only=True), [2.0])
        npt.assert_allclose(pool(hidden, mask, "max", events_only=True), [3.0])

    def test_single_position(self):
        hidden = np.array([[7.0, -1.0]])
        npt.assert_allclose(pool(hidden, np.array([1]), "mean"), [7.0, -1.0])

    def test_all_pad_raises(self):
        hidden = np.zeros((4, 3))
        with pytest.raises(ValueError, match="PAD"):
            pool(hidden, np.zeros(4), "mean")
        # events_only on a mask that covers only the special positions
        with pytest.raises(ValueError, match="PAD"):
            pool(hidden, np.array([1, 1, 1, 0]), "mean", events_only=True)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="strategy"):
            pool(np.zeros((2, 2)), np.ones(2), "sum")
        with pytest.raises(ValueError, match="mask"):
            pool(np.zeros((2, 2)), np.ones(3), "mean")

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        hidden = rng.normal(size=(5, 8, 4))
        mask = np.ones((5, 8), dtype=np.int64)
        for i, n in enumerate([8, 5, 4, 7, 6]):
            mask[i, n:] = 0
        for strategy in POOLING_STRATEGIES:
            for events_only in (False, True):
                batch = _pool_batch(hidden, mask, strategy, events_only=events_only)
                single = np.stack([
                    pool(hidden[i], mask[i], strategy, events_only=events_only)
                    for i in range(5)
                ])
                npt.assert_allclose(batch, single, rtol=1e-12)
                assert batch.shape[1] == embedding_dim(4, strategy)


class TestPatientEmbeddings:
    def test_single_matches_batched(self, setup):
        patients, vocab, model = setup
        embs = patient_embeddings(model, patients[:7], vocab, "concat_mean_max")
        one = patient_embedding(model, patients[3], vocab, "concat_mean_max")
        npt.assert_array_equal(embs[3].vector, one.vector)
        assert embs[3].patient_id == patients[3].patient_id

    def test_vector_metadata(self, setup):
        patients, vocab, model = setup
        emb = patient_embedding(model, patients[0], vocab, "mean")
        assert emb.vector.dtype == np.float32
        assert emb.vector.shape == (model.config.d,)
        assert emb.strategy == "mean"

    def test_more_than_one_chunk_runs_sorted_and_returns_input_order(self, setup, monkeypatch):
        patients, vocab, model = setup
        rng = np.random.default_rng(8)
        cuts = [replace(p, patient_id=f"{p.patient_id}/{k}", events=p.events[:k])
                for p in patients for k in (1, 2, 4, 8, 16, 24) if k <= len(p.events)]
        histories = [cuts[i] for i in rng.permutation(len(cuts))[: INFER_CHUNK + 44]]
        assert len(histories) == INFER_CHUNK + 44
        widths = []
        forward = EncoderModel.forward

        def spy(self, ids, attn, *args, **kwargs):
            widths.append(ids.shape)
            return forward(self, ids, attn, *args, **kwargs)

        monkeypatch.setattr(EncoderModel, "forward", spy)
        out = embed_batch(model, histories, vocab, ("mean", "cls"))
        monkeypatch.undo()
        # two forwards over length-sorted chunks: the short rows pad to their own width
        assert [b for b, _ in widths] == [INFER_CHUNK, 44]
        assert widths[0][1] < widths[1][1]
        for i, h in enumerate(histories):
            for s in ("mean", "cls"):
                one = patient_embedding(model, h, vocab, s).vector
                npt.assert_allclose(out[s][i], one, atol=1e-5, rtol=0)

    def test_one_chunk_runs_in_input_order(self, setup, monkeypatch):
        patients, vocab, model = setup
        monkeypatch.setattr(encoder_module, "length_batches", None)  # must not be reached
        assert len(patients) <= INFER_CHUNK
        out = embed_batch(model, patients, vocab, ("mean",))
        assert out["mean"].shape == (len(patients), model.config.d)
        assert embed_batch(model, [], vocab, ("mean",))["mean"].shape == (0, model.config.d)

    def test_mean_pooling_ignores_event_order_without_positions(self, setup):
        patients, vocab, _ = setup
        config = ModelConfig(vocab_size=len(vocab), d=16, n_layers=1, n_heads=2,
                             max_len=27, use_positional=False, seed=3)
        model = EncoderModel.build(config, vocab_sha256=vocab.sha256())
        p = next(p for p in patients if 3 <= len(p.events) <= 20)
        shuffled = replace(p, events=list(reversed(p.events)))
        a = patient_embedding(model, p, vocab, "mean").vector
        b = patient_embedding(model, shuffled, vocab, "mean").vector
        npt.assert_allclose(a, b, rtol=1e-5, atol=1e-6)


class TestNearestTokens:
    def test_basic_contract(self, setup):
        patients, vocab, model = setup
        query = vocab.token(vocab.icd_ids[0])
        out = nearest_tokens(model, vocab, query, top_n=5)
        assert len(out) == 5
        tokens = [t for t, _ in out]
        assert query not in tokens
        sims = [s for _, s in out]
        assert sims == sorted(sims, reverse=True)
        assert all(-1.0 - 1e-6 <= s <= 1.0 + 1e-6 for s in sims)

    def test_restrict_classes(self, setup):
        patients, vocab, model = setup
        out = nearest_tokens(model, vocab, "[AGE_40]", top_n=120, restrict="age")
        assert 0 < len(out) <= N_AGES - 1
        assert all(t.startswith("[AGE_") for t, _ in out)
        out = nearest_tokens(model, vocab, "[AGE_40]", top_n=10, restrict="icd")
        assert all(not t.startswith("[") for t, _ in out)
        out = nearest_tokens(model, vocab, "[MALE]", top_n=5, restrict="gender")
        assert [t for t, _ in out] == ["[FEMALE]"]

    def test_cosine_is_scale_invariant(self, setup):
        patients, vocab, model = setup
        query = vocab.token(vocab.icd_ids[1])
        before = nearest_tokens(model, vocab, query, top_n=8)
        table = model.params["tok_emb"].data
        saved = table.copy()
        try:
            table *= 3.0
            after = nearest_tokens(model, vocab, query, top_n=8)
        finally:
            table[...] = saved
        assert [t for t, _ in before] == [t for t, _ in after]
        npt.assert_allclose([s for _, s in before], [s for _, s in after], rtol=1e-5)

    def test_zero_norm_candidates_warned_and_dropped(self, setup):
        patients, vocab, model = setup
        table = model.params["tok_emb"].data
        victim = vocab.icd_ids[2]
        saved = table[victim].copy()
        try:
            table[victim] = 0.0
            with pytest.warns(UserWarning, match="zero-norm"):
                out = nearest_tokens(model, vocab, vocab.token(vocab.icd_ids[0]),
                                     top_n=len(vocab), restrict="icd")
            assert vocab.token(victim) not in [t for t, _ in out]
        finally:
            table[victim] = saved

    def test_bad_queries(self, setup):
        patients, vocab, model = setup
        with pytest.raises(ValueError, match="not in vocabulary"):
            nearest_tokens(model, vocab, "Z99.9Q")
        with pytest.raises(ValueError, match="restrict"):
            nearest_tokens(model, vocab, "[MALE]", restrict="visits")


class TestGroupTable:
    def test_exact_cell_matches_hand_average(self, setup):
        patients, vocab, model = setup
        table = average_group_embedding(model, patients, vocab, "mean")
        embs = {e.patient_id: e.vector for e in patient_embeddings(model, patients, vocab, "mean")}
        p = patients[0]
        g = GENDERS.index(p.gender)
        same_cell = [embs[q.patient_id] for q in patients
                     if q.gender == p.gender and q.age_years == p.age_years]
        assert table.age_counts[g, p.age_years] == len(same_cell)
        npt.assert_allclose(table.lookup(p.gender, p.age_years),
                            np.mean(same_cell, axis=0), rtol=1e-5, atol=1e-6)

    def test_global_mean_is_corpus_mean(self, setup):
        patients, vocab, model = setup
        table = average_group_embedding(model, patients, vocab, "mean")
        embs = patient_embeddings(model, patients, vocab, "mean")
        npt.assert_allclose(table.global_mean,
                            np.mean([e.vector for e in embs], axis=0),
                            rtol=1e-4, atol=1e-5)
        assert table.gender_counts.sum() == len(patients)

    def test_fallback_chain(self):
        dim = 3
        table = GroupTable(
            strategy="mean", dim=dim,
            by_age=np.zeros((2, N_AGES, dim)), age_counts=np.zeros((2, N_AGES), dtype=np.int64),
            by_decade=np.zeros((2, 10, dim)), decade_counts=np.zeros((2, 10), dtype=np.int64),
            by_gender=np.zeros((2, dim)), gender_counts=np.zeros(2, dtype=np.int64),
            global_mean=np.full(dim, 9.0),
        )
        table.by_age[0, 42] = [1.0, 0, 0]
        table.age_counts[0, 42] = 2
        table.by_decade[0, 4] = [2.0, 0, 0]
        table.decade_counts[0, 4] = 2
        table.by_gender[0] = [3.0, 0, 0]
        table.gender_counts[0] = 2
        npt.assert_array_equal(table.lookup("M", 42), [1.0, 0, 0])   # exact age
        npt.assert_array_equal(table.lookup("M", 45), [2.0, 0, 0])   # decade
        npt.assert_array_equal(table.lookup("M", 77), [3.0, 0, 0])   # gender
        npt.assert_array_equal(table.lookup("F", 42), [9.0, 9.0, 9.0])  # global
        # out-of-range ages clamp instead of failing
        npt.assert_array_equal(table.lookup("M", -5), table.lookup("M", 0))
        npt.assert_array_equal(table.lookup("M", 400), table.lookup("M", N_AGES - 1))

    def test_arrays_round_trip(self, setup):
        patients, vocab, model = setup
        table = average_group_embedding(model, patients, vocab, "max")
        back = GroupTable.from_arrays("max", table.to_arrays())
        npt.assert_array_equal(back.by_age, table.by_age)
        npt.assert_array_equal(back.age_counts, table.age_counts)
        npt.assert_array_equal(back.global_mean, table.global_mean)
        assert back.dim == table.dim
        npt.assert_array_equal(back.lookup("F", 30), table.lookup("F", 30))

    def test_empty_corpus_rejected(self, setup):
        patients, vocab, model = setup
        with pytest.raises(ValueError, match="empty"):
            average_group_embedding(model, [], vocab)


class TestRiskCurve:
    def test_partition_sums_to_one(self, setup):
        patients, vocab, model = setup
        prefixes = sorted({vocab.token(i)[:3] for i in vocab.icd_ids})
        ages = [5, 30, 70]
        total = np.zeros(len(ages))
        for pref in prefixes:
            curve = risk_curve(model, vocab, pref, gender="F", ages=ages)
            total += [v for _, v in curve]
        npt.assert_allclose(total, 1.0, atol=1e-6)

    def test_disjoint_additivity(self, setup):
        patients, vocab, model = setup
        codes = [vocab.token(i) for i in vocab.icd_ids]
        a, b = codes[:3], codes[3:5]
        ages = [20, 60]
        ca = risk_curve(model, vocab, a, gender="M", ages=ages)
        cb = risk_curve(model, vocab, b, gender="M", ages=ages)
        cab = risk_curve(model, vocab, a + b, gender="M", ages=ages)
        npt.assert_allclose([v for _, v in cab],
                            np.array([v for _, v in ca]) + [v for _, v in cb],
                            rtol=1e-6, atol=1e-9)

    def test_values_are_probabilities(self, setup):
        patients, vocab, model = setup
        curve = risk_curve(model, vocab, vocab.token(vocab.icd_ids[0])[:3])
        assert len(curve) == N_AGES
        assert curve[0][0] == 0 and curve[-1][0] == N_AGES - 1
        assert all(0.0 <= v <= 1.0 for _, v in curve)

    def test_gender_none_is_weighted_average(self, setup):
        patients, vocab, model = setup
        pref = vocab.token(vocab.icd_ids[0])[:3]
        ages = [40]
        m = risk_curve(model, vocab, pref, gender="M", ages=ages)[0][1]
        f = risk_curve(model, vocab, pref, gender="F", ages=ages)[0][1]
        both = risk_curve(model, vocab, pref, gender=None, ages=ages)[0][1]
        assert min(m, f) - 1e-9 <= both <= max(m, f) + 1e-9

    def test_no_ages(self, setup):
        _, vocab, model = setup
        pref = vocab.token(vocab.icd_ids[0])[:3]
        assert risk_curve(model, vocab, pref, gender="F", ages=[]) == []
        assert risk_curve(model, vocab, pref, ages=[]) == []

    def test_unknown_group_rejected(self, setup):
        patients, vocab, model = setup
        with pytest.raises(ValueError, match="no vocabulary entries"):
            risk_curve(model, vocab, "X99")
        with pytest.raises(ValueError, match="no vocabulary entries"):
            risk_curve(model, vocab, ["Q00.0"])


class TestVectorExport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        vecs = rng.normal(size=(6, 5))
        rows = [(f"p{i}", f"label{i}", vecs[i]) for i in range(6)]
        path = tmp_path / "vectors.tsv"
        assert export_vectors(rows, path) == 6
        ids, labels, matrix = read_vectors(path)
        assert ids == [f"p{i}" for i in range(6)]
        assert labels == [f"label{i}" for i in range(6)]
        npt.assert_allclose(matrix, vecs, rtol=1e-6)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "v.tsv"
        export_vectors([("a", "b", np.array([1.0, 2.0]))], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id\tlabel\tv0\tv1"
        assert lines[1].startswith("a\tb\t1\t2")

    def test_empty_export_is_header_only(self, tmp_path):
        path = tmp_path / "empty.tsv"
        assert export_vectors([], path) == 0
        ids, labels, matrix = read_vectors(path)
        assert ids == [] and labels == []
        assert matrix.shape == (0, 0)

    def test_failed_export_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "v.tsv"
        export_vectors([("a", "b", np.array([1.0, 2.0]))], path)
        before = path.read_bytes()
        rows = [("a", "x", np.zeros(2)), ("b", "y", ["0.5", object()])]  # fails on row two
        with pytest.raises(TypeError):
            export_vectors(rows, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["v.tsv"]

    def test_dimension_mismatch_rejected(self, tmp_path):
        rows = [("a", "x", np.zeros(3)), ("b", "y", np.zeros(4))]
        with pytest.raises(ValueError, match="dimensions"):
            export_vectors(rows, tmp_path / "bad.tsv")

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.tsv"
        path.write_text("name\tvalue\n1\t2\n")
        with pytest.raises(ValueError, match="not a vector export"):
            read_vectors(path)
