"""Autodiff core: per-op finite differences, composite losses, optimizer limits."""

import ast
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ehrseq.tensor
from ehrseq import tensor as T
from ehrseq.gradcheck import check_gradients, check_primitives
from ehrseq.optim import AdamW, clip_global_norm
from ehrseq.tensor import Tape, Tensor, TensorError, backward


def _emitted_ops() -> set[str]:
    """Op names passed as string literals to ``_emit`` anywhere in tensor.py."""
    tree = ast.parse(Path(ehrseq.tensor.__file__).read_text(encoding="utf-8"))
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_emit"
        and node.args and isinstance(node.args[0], ast.Constant)
    }


class TestPrimitiveGradients:
    def test_all_ops_match_finite_differences(self):
        results = check_primitives(tolerance=1e-6)
        for name, res in results.items():
            assert res.passed, f"{name}: max rel err {res.max_rel_error:.3e}"
        # every primitive, i.e. every op name tensor.py records with _emit, has a case
        ops = _emitted_ops()
        assert {"matmul", "cross_entropy", "weighted_sum"} <= ops  # the parse found them
        assert set(results) >= ops, f"no gradcheck case for {sorted(ops - set(results))}"

    def test_corrupted_backward_is_caught_and_named(self, monkeypatch):
        real_gelu = T.gelu

        def broken_gelu(x):
            out = real_gelu(x)
            # graft a wrong backward rule onto a correct forward
            from ehrseq.tensor import _active_tape

            tape = _active_tape()
            if tape is not None and tape.nodes and tape.nodes[-1].output is out:
                tape.nodes[-1].backward_fn = lambda g: (g * 0.5,)
            return out

        monkeypatch.setattr(ehrseq.tensor, "gelu", broken_gelu)
        results = check_primitives(names=["gelu", "add"], tolerance=1e-6)
        assert not results["gelu"].passed
        assert results["add"].passed

    def test_unknown_op_name_rejected(self):
        with pytest.raises(KeyError):
            check_primitives(names=["convolution"])


class TestCompositeGradients:
    def test_two_layer_mlp_with_cross_entropy(self):
        rng = np.random.default_rng(7)
        x = T.constant(rng.standard_normal((6, 5)), dtype=np.float64)
        targets = rng.integers(0, 4, size=(6,))
        params = {
            "w1": T.parameter(rng.standard_normal((5, 8)) * 0.5, dtype=np.float64),
            "b1": T.parameter(np.zeros(8), dtype=np.float64),
            "w2": T.parameter(rng.standard_normal((8, 4)) * 0.5, dtype=np.float64),
            "b2": T.parameter(np.zeros(4), dtype=np.float64),
            "g": T.parameter(np.ones(8), dtype=np.float64),
            "b": T.parameter(np.zeros(8), dtype=np.float64),
        }

        def loss_fn():
            h = T.add(T.matmul(x, params["w1"]), params["b1"])
            h = T.layer_norm(h, params["g"], params["b"])
            h = T.gelu(h)
            logits = T.add(T.matmul(h, params["w2"]), params["b2"])
            return T.cross_entropy(logits, targets)

        res = check_gradients(params, loss_fn, tolerance=1e-6)
        assert res.passed, f"worst {res.worst_param}: {res.max_rel_error:.3e}"

    def test_embedding_then_attention_shaped_graph(self):
        # lookup -> matmul QK^T -> scale -> softmax -> matmul V -> reduce
        rng = np.random.default_rng(13)
        ids = rng.integers(0, 10, size=(2, 6))
        w_out = rng.standard_normal((2, 6, 4))
        params = {
            "emb": T.parameter(rng.standard_normal((10, 4)), dtype=np.float64),
            "wq": T.parameter(rng.standard_normal((4, 4)), dtype=np.float64),
            "wk": T.parameter(rng.standard_normal((4, 4)), dtype=np.float64),
            "wv": T.parameter(rng.standard_normal((4, 4)), dtype=np.float64),
        }

        def loss_fn():
            h = T.embedding_lookup(params["emb"], ids)
            q = T.matmul(h, params["wq"])
            k = T.matmul(h, params["wk"])
            v = T.matmul(h, params["wv"])
            scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 0.5)
            attn = T.softmax(scores, axis=-1)
            out = T.matmul(attn, v)
            return T.weighted_sum(out, w_out)

        res = check_gradients(params, loss_fn, tolerance=1e-6)
        assert res.passed, f"worst {res.worst_param}: {res.max_rel_error:.3e}"

    def test_unused_parameter_gets_zero_gradient(self):
        used = T.parameter([[1.0, 2.0]], dtype=np.float64)
        unused = T.parameter([[3.0, 4.0]], dtype=np.float64)
        with Tape() as tape:
            loss = T.weighted_sum(used, np.ones((1, 2)))
        grads = backward(loss, tape, params=[used, unused])
        npt.assert_array_equal(grads[unused], np.zeros((1, 2)))
        npt.assert_array_equal(grads[used], np.ones((1, 2)))

    def test_shared_input_accumulates(self):
        # f(x) = sum(x @ x): both branches contribute to the gradient
        x = T.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]), dtype=np.float64)
        w = np.ones((2, 2))
        with Tape() as tape:
            loss = T.weighted_sum(T.matmul(x, x), w)
        g = backward(loss, tape, params=[x])[x]
        # d/dX sum(XX) = (1 X^T + X^T 1) with ones matrix 1
        expected = w @ x.data.T + x.data.T @ w
        npt.assert_allclose(g, expected, rtol=1e-12)


class TestForwardSemantics:
    def test_softmax_uniform_on_zeros(self):
        y = T.softmax(T.constant(np.zeros((2, 3))))
        npt.assert_allclose(y.data, np.full((2, 3), 1 / 3), atol=1e-7)

    def test_softmax_shift_invariant_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        a = T.softmax(T.constant(x)).data
        b = T.softmax(T.constant(x + 100.0)).data
        npt.assert_allclose(a, b, atol=1e-6)
        npt.assert_allclose(a.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_layer_norm_constant_row_gives_beta(self):
        x = T.constant(np.full((2, 5), 3.7))
        gamma = T.constant(np.full(5, 2.0))
        beta = T.constant(np.arange(5.0))
        out = T.layer_norm(x, gamma, beta)
        npt.assert_allclose(out.data, np.tile(np.arange(5.0), (2, 1)), atol=1e-5)

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(3)
        x = T.constant(rng.standard_normal((8, 16)) * 5 + 2, dtype=np.float64)
        out = T.layer_norm(x, T.constant(np.ones(16)), T.constant(np.zeros(16)))
        npt.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        npt.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-6)

    def test_cross_entropy_uniform_logits(self):
        logits = T.constant(np.zeros((4, 50)), dtype=np.float64)
        loss = T.cross_entropy(logits, np.zeros(4, dtype=np.int64))
        npt.assert_allclose(float(loss.data), np.log(50), rtol=1e-12)

    def test_cross_entropy_all_ignored(self):
        logits = T.parameter(np.random.default_rng(1).standard_normal((3, 5)), dtype=np.float64)
        targets = np.full(3, -100)
        with Tape() as tape:
            loss = T.cross_entropy(logits, targets)
        assert float(loss.data) == 0.0
        g = backward(loss, tape, params=[logits])[logits]
        npt.assert_array_equal(g, np.zeros((3, 5)))

    def test_cross_entropy_ignores_only_marked(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
        t_all = np.array([0, 1])
        t_half = np.array([0, -100])
        full = float(T.cross_entropy(T.constant(logits, dtype=np.float64), t_all).data)
        half = float(T.cross_entropy(T.constant(logits, dtype=np.float64), t_half).data)
        npt.assert_allclose(full, -(np.log(0.7) + np.log(0.8)) / 2, rtol=1e-10)
        npt.assert_allclose(half, -np.log(0.7), rtol=1e-10)

    def test_gelu_fixed_points(self):
        x = T.constant(np.array([0.0, 100.0, -100.0]), dtype=np.float64)
        out = T.gelu(x).data
        npt.assert_allclose(out, [0.0, 100.0, 0.0], atol=1e-12)

    def test_embedding_rows(self):
        table = T.constant(np.arange(12.0).reshape(4, 3))
        out = T.embedding_lookup(table, np.array([[1, 3], [0, 0]]))
        npt.assert_array_equal(out.data[0, 1], [9.0, 10.0, 11.0])
        npt.assert_array_equal(out.data[1, 0], out.data[1, 1])

    def test_embedding_rejects_out_of_range(self):
        table = T.constant(np.zeros((4, 3)))
        with pytest.raises(TensorError):
            T.embedding_lookup(table, np.array([4]))
        with pytest.raises(TensorError):
            T.embedding_lookup(table, np.array([-1]))

    def test_dropout_modes(self):
        x = T.constant(np.ones((100, 100)))
        rng = np.random.default_rng(0)
        assert T.dropout(x, 0.0, train=True, rng=rng) is x
        assert T.dropout(x, 0.5, train=False) is x
        out = T.dropout(x, 0.3, train=True, rng=rng).data
        zeros = (out == 0).mean()
        assert abs(zeros - 0.3) < 0.02
        kept = out[out != 0]
        npt.assert_allclose(kept, 1.0 / 0.7, rtol=1e-6)  # inverted scaling
        with pytest.raises(TensorError):
            T.dropout(x, 1.0, train=True, rng=rng)

    def test_bias_gradient_is_column_sum(self):
        rng = np.random.default_rng(5)
        x = T.constant(rng.standard_normal((7, 3)), dtype=np.float64)
        b = T.parameter(np.zeros(3), dtype=np.float64)
        w = rng.standard_normal((7, 3))
        with Tape() as tape:
            loss = T.weighted_sum(T.add(x, b), w)
        g = backward(loss, tape, params=[b])[b]
        npt.assert_allclose(g, w.sum(axis=0), rtol=1e-12)

    def test_shape_errors_name_the_op(self):
        a = T.constant(np.zeros((2, 3)))
        b = T.constant(np.zeros((4, 5)))
        with pytest.raises(TensorError, match="matmul"):
            T.matmul(a, b)
        with pytest.raises(TensorError, match="add"):
            T.add(a, b)
        with pytest.raises(TensorError, match="layer_norm"):
            T.layer_norm(a, T.constant(np.ones(7)), T.constant(np.zeros(7)))
        with pytest.raises(TensorError, match="cross_entropy"):
            T.cross_entropy(a, np.zeros((5,), dtype=np.int64))


class TestTapeMechanics:
    def test_no_tape_no_recording(self):
        p = T.parameter(np.ones((2, 2)))
        out = T.scale(p, 2.0)
        assert not out.requires_grad  # nothing listening

    def test_recording_only_inside_context(self):
        p = T.parameter(np.ones((2, 2)))
        with Tape() as tape:
            T.scale(p, 2.0)
        assert len(tape) == 1
        T.scale(p, 2.0)
        assert len(tape) == 1

    def test_constant_only_graph_records_nothing(self):
        c = T.constant(np.ones((2, 2)))
        with Tape() as tape:
            T.scale(c, 2.0)
        assert len(tape) == 0

    def test_nested_tapes_record_to_innermost(self):
        p = T.parameter(np.ones(3).reshape(1, 3))
        with Tape() as outer:
            T.scale(p, 1.5)
            with Tape() as inner:
                T.scale(p, 2.5)
            assert len(inner) == 1
        assert len(outer) == 1

    def test_backward_requires_scalar(self):
        p = T.parameter(np.ones((2, 2)))
        with Tape() as tape:
            out = T.scale(p, 2.0)
        with pytest.raises(TensorError, match="scalar"):
            backward(out, tape)

    def test_finite_check_raises(self):
        bad = T.constant(np.array([[1.0, np.inf]]))
        with pytest.raises(TensorError, match="non-finite"):
            T.scale(bad, 1.0)

    def test_float32_default_float64_preserved(self):
        assert Tensor(np.array([1, 2])).dtype == np.float32
        assert Tensor(np.array([1.0, 2.0])).dtype == np.float64
        assert Tensor([1.0], dtype=np.float32).dtype == np.float32


class TestAdamW:
    def test_zero_grad_no_decay_leaves_bits_untouched(self):
        p = T.parameter(np.array([1.0, -2.0, 3.5], dtype=np.float32))
        before = p.data.copy()
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        for _ in range(5):
            opt.step({"p": np.zeros(3, dtype=np.float32)})
        npt.assert_array_equal(p.data, before)

    def test_zero_grad_with_decay_shrinks_exactly(self):
        p = T.parameter(np.array([2.0, -4.0], dtype=np.float64))
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.05)
        opt.step({"p": np.zeros(2)})
        npt.assert_allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.05), rtol=1e-12)
        opt.step({"p": np.zeros(2)})
        npt.assert_allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.05) ** 2, rtol=1e-12)

    def test_first_step_magnitude_is_lr(self):
        # with constant gradient, bias-corrected Adam moves by ~lr * sign(g)
        p = T.parameter(np.array([0.0, 0.0], dtype=np.float64))
        opt = AdamW({"p": p}, lr=0.01)
        opt.step({"p": np.array([1.0, -3.0])})
        npt.assert_allclose(np.abs(p.data), 0.01, rtol=1e-2)
        assert p.data[0] < 0 < p.data[1]

    def test_descends_a_quadratic(self):
        p = T.parameter(np.array([5.0], dtype=np.float64))
        opt = AdamW({"p": p}, lr=0.1)
        losses = []
        for _ in range(200):
            losses.append(float(p.data[0] ** 2))
            opt.step({"p": 2 * p.data})
        assert losses[-1] < 1e-3 < losses[0]

    def test_rejects_missing_or_misshaped_grads(self):
        p = T.parameter(np.zeros(3))
        opt = AdamW({"p": p}, lr=0.1)
        with pytest.raises(KeyError):
            opt.step({})
        with pytest.raises(ValueError):
            opt.step({"p": np.zeros(4)})

    def test_rejects_bad_hyperparams(self):
        p = T.parameter(np.zeros(2))
        with pytest.raises(ValueError):
            AdamW({"p": p}, lr=-1.0)
        with pytest.raises(ValueError):
            AdamW({"p": p}, beta1=1.0)


class TestClipGlobalNorm:
    def test_scales_to_max_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        norm = clip_global_norm(grads, 1.0)
        npt.assert_allclose(norm, 5.0)
        total = np.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        npt.assert_allclose(total, 1.0, rtol=1e-12)

    def test_untouched_below_limit(self):
        grads = {"a": np.array([0.3, 0.4])}
        norm = clip_global_norm(grads, 1.0)
        npt.assert_allclose(norm, 0.5)
        npt.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_zero_gradients(self):
        grads = {"a": np.zeros(3)}
        assert clip_global_norm(grads, 1.0) == 0.0
        npt.assert_array_equal(grads["a"], np.zeros(3))
