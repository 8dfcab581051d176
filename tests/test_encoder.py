import json
import math
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from ehrseq import encoder as encoder_module
from ehrseq.container import ContainerError, load_artifact, save_artifact
from ehrseq.corpus import (
    AGE_OFFSET,
    CLS_ID,
    GENDER_OFFSET,
    MASK_ID,
    ICD_OFFSET,
    EncodedSample,
    build_vocabulary,
    encode_history,
    filter_corpus,
)
from ehrseq.encoder import (
    IGNORE_INDEX,
    POOL_BATCHES,
    EncoderModel,
    ModelConfig,
    TrainingError,
    length_batches,
    load_checkpoint,
    mlm_mask,
    predict_next_distribution_batch,
    save_checkpoint,
    stack_samples,
    train,
)
from ehrseq.gradcheck import check_gradients
from ehrseq.synthetic import generate_synthetic_corpus
from ehrseq.tensor import Tape
from ehrseq import tensor as T


@pytest.fixture(scope="module")
def tiny_setup():
    pats = generate_synthetic_corpus(seed=9, n_patients=150, n_codes=40)
    pats, _ = filter_corpus(pats, min_code_freq=2)
    vocab = build_vocabulary(pats)
    cfg = ModelConfig.desk_scale(len(vocab), d=16, n_layers=1, n_heads=2, max_len=3 + 24, epochs=1)
    model = EncoderModel.build(cfg, vocab_sha256=vocab.sha256())
    samples = [encode_history(p, vocab, H=cfg.H) for p in pats]
    return pats, vocab, cfg, model, samples


class TestModelConfig:
    def test_defaults_and_derived(self):
        cfg = ModelConfig(vocab_size=500)
        assert cfg.d == 256 and cfg.n_layers == 4 and cfg.n_heads == 4
        assert cfg.ffn_dim == 1024
        assert cfg.max_len == 131 and cfg.H == 128
        assert cfg.mask_prob == 0.25
        assert cfg.lr == 5e-5 and cfg.batch_size == 256 and cfg.epochs == 30

    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(vocab_size=500, d=10, n_heads=4)
        with pytest.raises(ValueError, match="mask_prob"):
            ModelConfig(vocab_size=500, mask_prob=0.0)
        with pytest.raises(ValueError, match="max_len"):
            ModelConfig(vocab_size=500, max_len=3)
        with pytest.raises(ValueError, match="vocab_size"):
            ModelConfig(vocab_size=4)

    def test_bert_masking_needs_room_for_random_ids(self):
        cfg = ModelConfig(vocab_size=50, d=16, n_heads=2, max_len=12)
        sample = EncodedSample(
            token_ids=np.array([2, 8, 20, 30, 31, 0], dtype=np.int64),
            attention_mask=np.array([1, 1, 1, 1, 1, 0], dtype=np.int64),
            length=5,
        )
        with pytest.raises(ValueError, match="vocab_size"):
            mlm_mask([sample], 0.5, np.random.default_rng(0), cfg.vocab_size)
        batch = mlm_mask([sample], 0.5, np.random.default_rng(0), cfg.vocab_size, mode="plain")
        assert batch.input_ids.shape == (1, 5)

    def test_build_is_seeded(self):
        cfg = ModelConfig.desk_scale(200, d=16, n_layers=1)
        a = EncoderModel.build(cfg)
        b = EncoderModel.build(cfg)
        assert set(a.params) == set(b.params)
        for k in a.params:
            npt.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_positional_table_absent_when_disabled(self):
        cfg = ModelConfig.desk_scale(200, d=16, n_layers=1, use_positional=False)
        m = EncoderModel.build(cfg)
        assert "pos_emb" not in m.params


class TestMlmMask:
    def test_selection_rate(self, tiny_setup):
        _, _, cfg, _, samples = tiny_setup
        rng = np.random.default_rng(0)
        pool = samples * 80  # ~1e5 event positions
        batch = mlm_mask(pool, 0.25, rng, cfg.vocab_size)
        positions = np.arange(batch.input_ids.shape[1])
        eligible = (batch.attention_mask == 1) & (positions >= 3)
        assert eligible.sum() > 100_000
        frac = (batch.labels != IGNORE_INDEX).sum() / eligible.sum()
        assert abs(frac - 0.25) < 0.005

    def test_never_touches_specials_or_pad(self, tiny_setup):
        _, _, cfg, _, samples = tiny_setup
        rng = np.random.default_rng(1)
        batch = mlm_mask(samples, 0.9, rng, cfg.vocab_size)
        original = np.stack([s.token_ids[: batch.input_ids.shape[1]] for s in samples])
        npt.assert_array_equal(batch.input_ids[:, :3], original[:, :3])
        pad = batch.attention_mask == 0
        npt.assert_array_equal(batch.input_ids[pad], original[pad])
        assert np.all(batch.labels[:, :3] == IGNORE_INDEX)
        assert np.all(batch.labels[pad] == IGNORE_INDEX)

    def test_zero_prob_all_ignored(self, tiny_setup):
        _, _, cfg, _, samples = tiny_setup
        batch = mlm_mask(samples, 0.0, np.random.default_rng(0), cfg.vocab_size)
        assert np.all(batch.labels == IGNORE_INDEX)
        original = np.stack([s.token_ids[: batch.input_ids.shape[1]] for s in samples])
        npt.assert_array_equal(batch.input_ids, original)

    def test_plain_full_prob_masks_every_event(self, tiny_setup):
        _, _, cfg, _, samples = tiny_setup
        batch = mlm_mask(samples, 1.0, np.random.default_rng(0), cfg.vocab_size, mode="plain")
        positions = np.arange(batch.input_ids.shape[1])
        eligible = (batch.attention_mask == 1) & (positions >= 3)
        assert np.all(batch.input_ids[eligible] == MASK_ID)
        original = np.stack([s.token_ids[: batch.input_ids.shape[1]] for s in samples])
        npt.assert_array_equal(batch.labels[eligible], original[eligible])

    def test_bert_mode_replacement_mix(self, tiny_setup):
        _, _, cfg, _, samples = tiny_setup
        rng = np.random.default_rng(2)
        batch = mlm_mask(samples * 40, 0.5, rng, cfg.vocab_size)
        original = np.stack([s.token_ids[: batch.input_ids.shape[1]] for s in samples * 40])
        sel = batch.labels != IGNORE_INDEX
        n = sel.sum()
        masked = (batch.input_ids[sel] == MASK_ID).sum() / n
        kept = (batch.input_ids[sel] == original[sel]).sum() / n
        assert abs(masked - 0.8) < 0.02
        # ~10% kept plus random draws that happen to hit the original code
        assert 0.07 < kept < 0.15
        random_ids = batch.input_ids[sel & (batch.input_ids != MASK_ID) & (batch.input_ids != original)]
        assert np.all(random_ids >= ICD_OFFSET)

    def test_rejects_unknown_mode(self, tiny_setup):
        _, _, cfg, _, samples = tiny_setup
        with pytest.raises(ValueError, match="mask mode"):
            mlm_mask(samples, 0.25, np.random.default_rng(0), cfg.vocab_size, mode="span")


class TestForward:
    def test_padding_invariance(self, tiny_setup):
        _, _, _, model, samples = tiny_setup
        s = samples[0]
        L = s.length
        full_ids = s.token_ids[None, :]
        full_attn = s.attention_mask[None, :]
        _, lg_full = model.forward(full_ids, full_attn)
        _, lg_short = model.forward(full_ids[:, : L + 4], full_attn[:, : L + 4])
        npt.assert_allclose(lg_full.data[0, :L], lg_short.data[0, :L], rtol=1e-5, atol=1e-6)

    def test_identical_samples_identical_rows(self, tiny_setup):
        _, _, _, model, samples = tiny_setup
        s = samples[3]
        ids = np.stack([s.token_ids] * 4)
        attn = np.stack([s.attention_mask] * 4)
        _, logits = model.forward(ids, attn)
        for i in range(1, 4):
            npt.assert_array_equal(logits.data[0], logits.data[i])

    def test_permutation_equivariance_without_positional(self, tiny_setup):
        _, vocab, _, _, samples = tiny_setup
        cfg = ModelConfig.desk_scale(len(vocab), d=16, n_layers=1, n_heads=2,
                                     max_len=3 + 24, use_positional=False)
        model = EncoderModel.build(cfg)
        s = next(x for x in samples if x.length >= 8)
        ids = s.token_ids[None, : s.length].copy()
        attn = s.attention_mask[None, : s.length]
        k = s.length - 3
        perm = np.random.default_rng(0).permutation(k)
        ids_perm = ids.copy()
        ids_perm[0, 3:] = ids[0, 3 + perm]
        _, base = model.forward(ids, attn)
        _, permuted = model.forward(ids_perm, attn)
        npt.assert_allclose(permuted.data[0, 3:], base.data[0, 3 + perm], rtol=1e-5, atol=1e-6)
        # demographic positions unchanged by event permutation
        npt.assert_allclose(permuted.data[0, :3], base.data[0, :3], rtol=1e-5, atol=1e-6)

    def test_positional_model_is_order_sensitive(self, tiny_setup):
        # sanity check that the equivariance test above is not vacuous
        _, _, _, model, samples = tiny_setup
        s = next(x for x in samples if len(set(x.token_ids[3 : x.length].tolist())) >= 3)
        ids = s.token_ids[None, : s.length].copy()
        attn = s.attention_mask[None, : s.length]
        ids_rev = ids.copy()
        ids_rev[0, 3:] = ids[0, 3:][::-1]
        _, a = model.forward(ids, attn)
        _, b = model.forward(ids_rev, attn)
        assert np.abs(a.data - b.data).max() > 1e-4

    def test_decode_false_skips_only_the_logits(self, tiny_setup):
        _, _, _, model, samples = tiny_setup
        ids, attn = stack_samples(samples[:4])
        hidden, logits = model.forward(ids, attn)
        hidden_only, none = model.forward(ids, attn, decode=False)
        assert none is None and logits is not None
        npt.assert_array_equal(hidden_only.data, hidden.data)

    def test_too_long_sequence_rejected(self, tiny_setup):
        _, _, cfg, model, _ = tiny_setup
        L = cfg.max_len + 1
        with pytest.raises(ValueError, match="max_len"):
            model.forward(np.zeros((1, L), dtype=np.int64), np.ones((1, L), dtype=np.int64))

    def test_gradients_match_finite_differences(self, tiny_setup):
        _, _, _, model, samples = tiny_setup
        m64 = model.astype(np.float64)
        batch = mlm_mask(samples[:4], 0.25, np.random.default_rng(3), model.config.vocab_size)

        def loss_fn():
            return m64.mlm_loss(batch)

        res = check_gradients(m64.params, loss_fn, tolerance=1e-3,
                              max_coords_per_param=4, rng=np.random.default_rng(0))
        assert res.passed, f"worst {res.worst_param}: {res.max_rel_error:.2e}"


def unfused_forward(model, input_ids, attention_mask, train=False, rng=None):
    """EncoderModel.forward composed from the unfused primitives: a head split,
    scaled scores, PAD bias, softmax and merge per layer, and a separate bias
    add after every weight product. The reference the fused ops must match."""
    cfg, p = model.config, model.params
    B, L = input_ids.shape
    drop = cfg.dropout if train else 0.0
    h = T.embedding_lookup(p["tok_emb"], input_ids)
    h = T.add(h, T.embedding_lookup(p["pos_emb"], np.arange(L)))
    h = T.layer_norm(h, p["emb_ln_g"], p["emb_ln_b"])
    h = T.dropout(h, drop, train, rng)
    neg = ((1 - attention_mask) * -1e9).astype(np.float32).reshape(B, 1, 1, L)
    attn_bias = T.constant(neg)
    for i in range(cfg.n_layers):
        def heads(name):
            x = T.add(T.matmul(h, p[f"l{i}.attn_w{name}"]), p[f"l{i}.attn_b{name}"])
            x = T.reshape(x, (B, L, cfg.n_heads, cfg.d_head))
            return T.transpose(x, (0, 2, 1, 3))

        q, k, v = heads("q"), heads("k"), heads("v")
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(cfg.d_head))
        probs = T.dropout(T.softmax(T.add(scores, attn_bias), axis=-1), drop, train, rng)
        ctx = T.reshape(T.transpose(T.matmul(probs, v), (0, 2, 1, 3)), (B, L, cfg.d))
        attn_out = T.add(T.matmul(ctx, p[f"l{i}.attn_wo"]), p[f"l{i}.attn_bo"])
        attn_out = T.dropout(attn_out, drop, train, rng)
        h = T.layer_norm(T.add(h, attn_out), p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])
        inner = T.gelu(T.add(T.matmul(h, p[f"l{i}.ffn_w1"]), p[f"l{i}.ffn_b1"]))
        ffn_out = T.add(T.matmul(inner, p[f"l{i}.ffn_w2"]), p[f"l{i}.ffn_b2"])
        ffn_out = T.dropout(ffn_out, drop, train, rng)
        h = T.layer_norm(T.add(h, ffn_out), p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])
    return h, T.add(T.matmul(h, p["dec_w"]), p["dec_b"])


class TestFusedForward:
    @pytest.fixture(scope="class")
    def two_layer(self, tiny_setup):
        _, vocab, _, _, samples = tiny_setup
        cfg = ModelConfig.desk_scale(len(vocab), d=16, n_layers=2, n_heads=2, max_len=3 + 24)
        model = EncoderModel.build(cfg)
        rng = np.random.default_rng(4)
        for t in model.params.values():  # non-zero biases and gains, so every term counts
            t.data += (0.1 * rng.standard_normal(t.shape)).astype(np.float32)
        rows = sorted(samples[:12], key=lambda s: s.length)
        batch = mlm_mask(rows, 0.25, np.random.default_rng(5), cfg.vocab_size)
        assert (batch.attention_mask == 0).any(axis=1).sum() >= 6  # rows with a PAD tail
        return model, batch

    @pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "train"])
    def test_bitwise_equal_to_the_unfused_composition(self, two_layer, train_mode):
        model, batch = two_layer
        runs = []
        for forward in (model.forward, lambda *a, **kw: unfused_forward(model, *a, **kw)):
            with Tape() as tape:
                hidden, logits = forward(batch.input_ids, batch.attention_mask, train=train_mode,
                                         rng=np.random.default_rng(11))
                loss = T.cross_entropy(logits, batch.labels, ignore_index=IGNORE_INDEX)
            grads = T.backward(loss, tape, params=model.params.values())
            runs.append((hidden.data, logits.data, loss.data,
                         {k: grads[t] for k, t in model.params.items()}))
        (h1, lg1, l1, g1), (h2, lg2, l2, g2) = runs
        npt.assert_array_equal(h1, h2)
        npt.assert_array_equal(lg1, lg2)
        assert l1.tobytes() == l2.tobytes()
        for name in g1:
            assert g1[name].tobytes() == g2[name].tobytes(), name
        with Tape():
            loss = model.mlm_loss(batch, train=train_mode, rng=np.random.default_rng(11))
        assert loss.data.tobytes() == l1.tobytes()

    def test_op_counts(self, two_layer):
        model, batch = two_layer
        ids, attn = batch.input_ids, batch.attention_mask
        with Tape() as fused:
            model.forward(ids, attn, decode=False)
        with Tape() as unfused:
            unfused_forward(model, ids, attn)
        # the unfused reference always decodes: two more ops than decode=False
        assert (len(fused), len(unfused) - 2) == (28, 66)
        with Tape() as fused:
            model.mlm_loss(batch, train=True, rng=np.random.default_rng(0))
        with Tape() as unfused:
            _, logits = unfused_forward(model, ids, attn, train=True, rng=np.random.default_rng(0))
            T.cross_entropy(logits, batch.labels, ignore_index=IGNORE_INDEX)
        assert (len(fused), len(unfused)) == (36, 76)
        assert {n.op for n in fused.nodes} == {
            "embedding_lookup", "add", "layer_norm", "dropout", "linear", "attention", "gelu",
            "matmul", "cross_entropy"}

    def test_overflowing_scores_are_caught_by_attention(self, two_layer):
        model, batch = two_layer
        m = model.astype(np.float32)
        m.params["l0.attn_wq"].data *= 1e22
        m.params["l0.attn_wk"].data *= 1e22
        with np.errstate(over="ignore"), pytest.raises(
                T.TensorError, match="^attention: non-finite values in scores"):
            m.forward(batch.input_ids, batch.attention_mask)

    def test_nan_weight_is_caught_by_linear(self, two_layer):
        model, batch = two_layer
        m = model.astype(np.float32)
        m.params["l1.ffn_w1"].data[0, 0] = np.nan
        with pytest.raises(T.TensorError, match="^linear: non-finite values"):
            m.forward(batch.input_ids, batch.attention_mask)


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_dtype_holds_from_lookup_to_gradients(self, tiny_setup, dtype):
        _, _, _, model, samples = tiny_setup
        assert model.params["tok_emb"].dtype == np.float32
        m = model if dtype is np.float32 else model.astype(np.float64)
        batch = mlm_mask(samples[:8], 0.25, np.random.default_rng(3), m.config.vocab_size)
        with Tape() as tape:
            loss = m.mlm_loss(batch, train=True, rng=np.random.default_rng(0))
        grads = T.backward(loss, tape, params=m.params.values())
        wrong = sorted({f"{n.op}:{n.output.dtype}" for n in tape.nodes if n.output.dtype != dtype})
        assert not wrong, f"tape outputs not {np.dtype(dtype)}: {wrong}"
        assert {"dropout", "gelu", "cross_entropy"} <= {n.op for n in tape.nodes}
        assert loss.dtype == dtype
        wrong = sorted(name for name, p in m.params.items() if grads[p].dtype != dtype)
        assert not wrong, f"gradients not {np.dtype(dtype)}: {wrong}"
        hidden, _ = m.forward(*stack_samples(samples[:4]), decode=False)
        assert hidden.dtype == dtype


class TestTrain:
    def test_zero_lr_leaves_parameters(self, tiny_setup):
        _, vocab, _, _, samples = tiny_setup
        cfg = ModelConfig.desk_scale(len(vocab), d=16, n_layers=1, n_heads=2,
                                     max_len=3 + 24, lr=0.0, weight_decay=0.0, epochs=1)
        model = EncoderModel.build(cfg)
        before = {k: t.data.copy() for k, t in model.params.items()}
        train(model, samples[:32])
        for k, t in model.params.items():
            npt.assert_array_equal(t.data, before[k])

    def test_deterministic_history(self, tiny_setup):
        _, vocab, _, _, samples = tiny_setup
        cfg = ModelConfig.desk_scale(len(vocab), d=16, n_layers=1, n_heads=2,
                                     max_len=3 + 24, epochs=2, seed=5)
        m1 = EncoderModel.build(cfg)
        h1 = train(m1, samples[:64])
        m2 = EncoderModel.build(cfg)
        h2 = train(m2, samples[:64])
        assert h1 == h2
        for k in m1.params:
            npt.assert_array_equal(m1.params[k].data, m2.params[k].data)

    def test_loss_decreases(self, tiny_setup):
        _, _, _, _, samples = tiny_setup
        pats, _, cfg, model, _ = tiny_setup
        m = EncoderModel.build(cfg)
        hist = train(m, samples, epochs=3)
        assert hist[-1] < hist[0]
        assert len(m.loss_history) == 3
        assert m.loss_history == hist

    def test_diverging_run_aborts_with_location(self, tiny_setup):
        _, vocab, _, _, samples = tiny_setup
        cfg = ModelConfig.desk_scale(len(vocab), d=16, n_layers=1, n_heads=2,
                                     max_len=3 + 24, lr=1e12, clip_norm=1e12, epochs=3)
        model = EncoderModel.build(cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match=r"epoch \d+ batch \d+"):
                train(model, samples)

    def test_empty_corpus_rejected(self, tiny_setup):
        _, _, _, model, _ = tiny_setup
        with pytest.raises(ValueError, match="empty"):
            train(model, [])

    def test_callbacks_and_checkpoint_dir(self, tiny_setup, tmp_path):
        _, vocab, _, _, samples = tiny_setup
        cfg = ModelConfig.desk_scale(len(vocab), d=16, n_layers=1, n_heads=2,
                                     max_len=3 + 24, epochs=2)
        model = EncoderModel.build(cfg)
        seen = []

        def save_epoch(epoch, loss, m):
            save_checkpoint(m, tmp_path / f"epoch{epoch:03d}.ckpt")

        train(model, samples[:32], callbacks=[lambda e, l, m: seen.append((e, l)), save_epoch])
        assert [e for e, _ in seen] == [1, 2]
        assert (tmp_path / "epoch001.ckpt").exists()
        assert (tmp_path / "epoch002.ckpt").exists()


def mixed_length_samples(n, vocab_size, seed=0, H=24):
    """Encoded samples whose event counts run from 1 to H in random order."""
    rng = np.random.default_rng(seed)
    out = []
    for k in rng.integers(1, H + 1, size=n):
        ids = np.zeros(3 + H, dtype=np.int64)
        ids[:3] = (CLS_ID, GENDER_OFFSET, AGE_OFFSET + 40)
        ids[3 : 3 + k] = rng.integers(ICD_OFFSET, vocab_size, size=k)
        mask = np.zeros(3 + H, dtype=np.int64)
        mask[: 3 + k] = 1
        out.append(EncodedSample(ids, mask, 3 + int(k)))
    return out


class TestLengthBatches:
    def test_inference_order_is_a_stable_length_sort(self):
        lengths = [5, 3, 5, 1, 3, 9, 1]
        batches = length_batches(lengths, 3)
        assert [b.tolist() for b in batches] == [[3, 6, 1], [4, 0, 2], [5]]

    def test_training_batches_cover_every_row_once_and_sort_each_pool(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(4, 28, size=1000)
        batch_size = 8
        batches = length_batches(lengths, batch_size, np.random.default_rng(1))
        assert len(batches) == math.ceil(1000 / batch_size)
        npt.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(1000))
        # within a pool the rows were sorted before cutting, so a full batch
        # spans a narrow band of lengths
        spans = [np.ptp(lengths[b]) for b in batches if len(b) == batch_size]
        assert np.median(spans) <= 1


class TestGroupedTraining:
    """What one ``train`` epoch feeds to masking, recorded through ``mlm_mask``."""

    @staticmethod
    def record_epoch(monkeypatch, model, samples):
        seen = []
        original = encoder_module.mlm_mask

        def spy(chunk, *args, **kwargs):
            batch = original(chunk, *args, **kwargs)
            seen.append(([id(s) for s in chunk], batch.attention_mask))
            return batch

        monkeypatch.setattr(encoder_module, "mlm_mask", spy)
        train(model, samples, epochs=1)
        return seen

    @pytest.fixture(scope="class")
    def corpus(self, tiny_setup):
        _, vocab, _, _, _ = tiny_setup
        cfg = ModelConfig.desk_scale(len(vocab), d=16, n_layers=1, n_heads=2,
                                     max_len=3 + 24, batch_size=8, epochs=1, seed=2)
        return cfg, mixed_length_samples(8 * POOL_BATCHES + 37, len(vocab), seed=4)

    def test_epoch_visits_every_sample_once_in_ceil_n_over_b_steps(self, corpus, monkeypatch):
        cfg, samples = corpus
        seen = self.record_epoch(monkeypatch, EncoderModel.build(cfg), samples)
        assert len(seen) == math.ceil(len(samples) / cfg.batch_size)
        visited = sorted(i for ids, _ in seen for i in ids)
        assert visited == sorted(id(s) for s in samples)

    def test_pad_share_is_below_half_of_the_ungrouped_order(self, corpus, monkeypatch):
        cfg, samples = corpus
        seen = self.record_epoch(monkeypatch, EncoderModel.build(cfg), samples)
        grouped = sum(int((m == 0).sum()) for _, m in seen) / sum(m.size for _, m in seen)
        order = np.random.default_rng(cfg.seed).permutation(len(samples))
        pad = cells = 0
        for start in range(0, len(samples), cfg.batch_size):
            _, m = stack_samples([samples[j] for j in order[start : start + cfg.batch_size]])
            pad, cells = pad + int((m == 0).sum()), cells + m.size
        assert grouped < 0.5 * (pad / cells)

    def test_two_runs_from_one_seed_give_bitwise_equal_losses(self, corpus):
        cfg, samples = corpus
        h1 = train(EncoderModel.build(cfg), samples, epochs=2)
        h2 = train(EncoderModel.build(cfg), samples, epochs=2)
        assert h1 == h2

    def test_epoch_log_line_reports_clipping_norms_and_rate(self, tiny_setup):
        _, vocab, _, _, samples = tiny_setup
        for clip_norm, share in ((1e-9, "100.0%"), (1e9, "0.0%")):
            cfg = ModelConfig.desk_scale(len(vocab), d=16, n_layers=1, n_heads=2,
                                         max_len=3 + 24, batch_size=16, clip_norm=clip_norm)
            lines = []
            train(EncoderModel.build(cfg), samples[:64], epochs=2, log=lines.append)
            assert len(lines) == 2
            m = re.fullmatch(r"epoch 2/2: mlm loss (\S+), clipped (\S+) of 4 steps, "
                             r"grad norm median (\S+) max (\S+), (\d+) samples/s", lines[1])
            assert m is not None, lines[1]
            assert m.group(2) == share
            assert 0.0 < float(m.group(3)) <= float(m.group(4))
            assert int(m.group(5)) > 0


class TestPredictNextDistribution:
    def test_normalized_over_icd_only(self, tiny_setup):
        pats, vocab, _, model, _ = tiny_setup
        dist = predict_next_distribution_batch(model, [pats[0]], vocab)[0]
        assert dist.shape == (len(vocab),)
        npt.assert_allclose(dist.sum(), 1.0, atol=1e-6)
        assert dist[:ICD_OFFSET].sum() == 0.0

    def test_zero_decoder_gives_uniform(self, tiny_setup):
        pats, vocab, cfg, _, _ = tiny_setup
        model = EncoderModel.build(cfg)
        model.params["dec_w"].data[:] = 0.0
        model.params["dec_b"].data[:] = 0.0
        dist = predict_next_distribution_batch(model, [pats[1]], vocab)[0]
        icd = dist[ICD_OFFSET:]
        npt.assert_allclose(icd, 1.0 / vocab.n_icd, rtol=1e-5)

    def test_long_prefix_keeps_most_recent(self, tiny_setup):
        pats, vocab, cfg, model, _ = tiny_setup
        donor = max(pats, key=lambda p: len(p.events))
        long_events = (donor.events * 10)[: cfg.H + 20]
        from ehrseq.corpus import PatientHistory

        long = PatientHistory("x", donor.gender, donor.age_years, long_events)
        manual = PatientHistory("x", donor.gender, donor.age_years, long_events[-(cfg.H - 1):])
        npt.assert_array_equal(
            predict_next_distribution_batch(model, [long], vocab)[0],
            predict_next_distribution_batch(model, [manual], vocab)[0],
        )

    def test_batch_matches_single(self, tiny_setup):
        pats, vocab, _, model, _ = tiny_setup
        batch = predict_next_distribution_batch(model, pats[:5], vocab)
        for i, p in enumerate(pats[:5]):
            npt.assert_allclose(batch[i], predict_next_distribution_batch(model, [p], vocab)[0],
                                rtol=1e-6, atol=1e-9)

    def test_no_prefixes(self, tiny_setup):
        _, vocab, _, model, _ = tiny_setup
        assert predict_next_distribution_batch(model, [], vocab).shape == (0, len(vocab))

    def test_vocab_size_mismatch_rejected(self, tiny_setup):
        pats, vocab, cfg, model, _ = tiny_setup
        from ehrseq.corpus import Vocabulary

        other = Vocabulary(["A00", "B00"])
        with pytest.raises(ValueError, match="vocab"):
            predict_next_distribution_batch(model, [pats[0]], other)


class TestCheckpoint:
    def test_roundtrip_bitwise_logits(self, tiny_setup, tmp_path):
        _, vocab, _, model, samples = tiny_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, expected_vocab_sha256=vocab.sha256())
        ids = np.stack([s.token_ids for s in samples[:3]])
        attn = np.stack([s.attention_mask for s in samples[:3]])
        _, a = model.forward(ids, attn)
        _, b = loaded.forward(ids, attn)
        npt.assert_array_equal(a.data, b.data)  # bitwise
        assert loaded.config == model.config

    def test_wrong_vocab_hash_refused(self, tiny_setup, tmp_path):
        _, _, _, model, _ = tiny_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(ContainerError, match="vocabulary"):
            load_checkpoint(path, expected_vocab_sha256="0" * 64)

    def test_truncated_file_errors(self, tiny_setup, tmp_path):
        _, _, _, model, _ = tiny_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(raw[: len(raw) - 257])
        with pytest.raises(ContainerError, match="truncated"):
            load_checkpoint(clipped)

    def test_records_no_copied_or_retired_fields(self, tiny_setup, tmp_path):
        _, _, _, model, _ = tiny_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        meta, _ = load_artifact(path, kind="encoder")
        assert set(meta) == {"config", "vocab_sha256", "loss_history"}
        assert not {"mask_mode", "ffn_dim"} & set(meta["config"])

    @staticmethod
    def _save_older_layout(model, path, ffn_dim):
        """Save ``model`` with the meta fields earlier versions wrote: the masking
        mode and FFN width in the config, and the seed and epoch count beside it.
        The FFN parameters are stored at the recorded width."""
        save_checkpoint(model, path)
        meta, arrays = load_artifact(path, kind="encoder")
        meta["config"].update(mask_mode="bert", ffn_dim=ffn_dim)
        meta.update(seed=model.config.seed, epochs_completed=len(model.loss_history))
        d = model.config.d
        for i in range(model.config.n_layers):
            arrays[f"l{i}.ffn_w1"] = arrays[f"l{i}.ffn_w1"][:, :ffn_dim]
            arrays[f"l{i}.ffn_b1"] = arrays[f"l{i}.ffn_b1"][:ffn_dim]
            arrays[f"l{i}.ffn_w2"] = arrays[f"l{i}.ffn_w2"][:ffn_dim, :d]
        save_artifact(path, kind="encoder", meta=meta, arrays=arrays)

    def test_older_layout_loads_unchanged(self, tiny_setup, tmp_path):
        _, _, cfg, _, samples = tiny_setup
        model = EncoderModel.build(cfg)
        train(model, samples[:32], epochs=2)
        path = tmp_path / "old.ckpt"
        self._save_older_layout(model, path, ffn_dim=4 * cfg.d)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.loss_history == model.loss_history and len(loaded.loss_history) == 2
        assert loaded.params_sha256() == model.params_sha256()

    def test_older_layout_with_another_ffn_width_is_refused(self, tiny_setup, tmp_path):
        _, _, cfg, model, _ = tiny_setup
        path = tmp_path / "old.ckpt"
        self._save_older_layout(model, path, ffn_dim=2 * cfg.d)
        with pytest.raises(ContainerError, match="ffn_w1"):
            load_checkpoint(path)

    def test_garbage_file_errors(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"PNG\x00\x00 definitely not a checkpoint")
        with pytest.raises(ContainerError, match="magic"):
            load_checkpoint(path)


class TestContainer:
    def test_roundtrip(self, tmp_path):
        arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.float32([[1.5]])}
        meta = {"note": "x", "n": 3}
        path = tmp_path / "art.bin"
        save_artifact(path, "test", meta, arrays)
        meta2, arrays2 = load_artifact(path, kind="test")
        assert meta2 == meta
        assert set(arrays2) == {"a", "b"}
        npt.assert_array_equal(arrays2["a"], arrays["a"])
        assert arrays2["a"].flags.writeable

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "art.bin"
        save_artifact(path, "alpha", {}, {"a": np.zeros(2, dtype=np.float32)})
        with pytest.raises(ContainerError, match="kind"):
            load_artifact(path, kind="beta")

    def test_failed_write_leaves_old_file_untouched(self, tmp_path):
        path = tmp_path / "art.bin"
        save_artifact(path, "t", {"v": 1}, {"a": np.zeros(2, dtype=np.float32)})
        before = path.read_bytes()

        class Unconvertible:  # fails after the header and the first array are written
            shape = (3,)

            def __array__(self, *args, **kwargs):
                raise RuntimeError("write interrupted")

        with pytest.raises(RuntimeError, match="write interrupted"):
            save_artifact(path, "t", {"v": 2}, {"a": np.ones(2, dtype=np.float32),
                                                "b": Unconvertible()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["art.bin"]

    @pytest.mark.parametrize("header, reason", [
        ([1, 2], "not a JSON object"),
        ({"kind": 5}, "kind"),
        ({"meta": None}, "meta"),
        ({"meta": []}, "meta"),
        ({"arrays": {"name": "a", "shape": [1]}}, "arrays"),
        ({"arrays": [5]}, "array 0"),
        ({"arrays": [{"shape": [1]}]}, "array 0"),
        ({"arrays": [{"name": 3, "shape": [1]}]}, "array 0"),
        ({"arrays": [{"name": "a"}]}, "array 0"),
        ({"arrays": [{"name": "a", "shape": ["1"]}]}, "array 0"),
        ({"arrays": [{"name": "a", "shape": [-1]}]}, "array 0"),
        ({"arrays": [{"name": "a", "shape": [True]}]}, "array 0"),
        ({"arrays": [{"name": "a", "shape": [1.0]}]}, "array 0"),
        ({"arrays": [{"name": "a", "shape": [1]}, {"name": "a", "shape": [1]}]}, "declared twice"),
    ])
    def test_malformed_header_is_a_container_error(self, tmp_path, header, reason):
        if isinstance(header, dict):
            header = {"format_version": 1, "kind": "t", "meta": {}, "arrays": [], **header}
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "bad.bin"
        path.write_bytes(b"EHRSEQ1" + struct.pack("<I", len(blob)) + blob
                         + 2 * (struct.pack("<I", 4) + bytes(4)))
        with pytest.raises(ContainerError, match=reason) as exc:
            load_artifact(path, kind="t")
        assert str(path) in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "art.bin"
        save_artifact(path, "t", {}, {"a": np.zeros(2, dtype=np.float32)})
        with open(path, "ab") as fh:
            fh.write(b"extra")
        with pytest.raises(ContainerError, match="trailing"):
            load_artifact(path, kind="t")
