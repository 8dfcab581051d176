"""Finite-difference validation of taped gradients.

Two entry points: :func:`check_gradients` compares analytic gradients of an
arbitrary scalar loss against central differences for every parameter, and
:func:`check_primitives` runs canned double-precision cases per op so a
corrupted backward rule is reported by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor, backward


@dataclass
class GradCheckResult:
    max_rel_error: float
    tolerance: float
    passed: bool
    per_param: dict[str, float] = field(default_factory=dict)
    worst_param: str = ""
    checked_coords: int = 0


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def check_gradients(
    params: dict[str, Tensor],
    loss_fn: Callable[[], Tensor],
    tolerance: float = 1e-4,
    h: float = 1e-5,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckResult:
    """Compare backward() output against central differences for each param.

    ``loss_fn`` must be a deterministic closure over ``params`` returning a
    scalar Tensor. Coordinates are checked exhaustively unless
    ``max_coords_per_param`` caps them (sampled with ``rng``). Parameters
    should hold float64 data; float32 round-off usually swamps an h of 1e-5.
    """
    with Tape() as tape:
        loss = loss_fn()
    analytic = backward(loss, tape, params=params.values())

    per_param: dict[str, float] = {}
    worst = ("", 0.0)
    checked = 0
    for name, p in params.items():
        grad = analytic[p]
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords_per_param, replace=False)
        worst_here = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = _rel_error(float(gflat[i]), fd)
            if err > worst_here:
                worst_here = err
            checked += 1
        per_param[name] = worst_here
        if worst_here > worst[1]:
            worst = (name, worst_here)
    return GradCheckResult(
        max_rel_error=worst[1],
        tolerance=tolerance,
        passed=worst[1] < tolerance,
        per_param=per_param,
        worst_param=worst[0],
        checked_coords=checked,
    )


# ---------------------------------------------------------------------------
# Per-primitive cases
# ---------------------------------------------------------------------------


def _case_inputs(rng, **shapes) -> dict[str, Tensor]:
    return {
        name: T.parameter(rng.standard_normal(shape), name=name, dtype=np.float64)
        for name, shape in shapes.items()
    }


def _build_cases(seed: int) -> dict[str, list[tuple[dict[str, Tensor], Callable[[dict[str, Tensor]], Tensor]]]]:
    rng = np.random.default_rng(seed)

    def w(shape):
        return rng.standard_normal(shape)

    cases: dict[str, list] = {}

    m1 = _case_inputs(rng, a=(3, 4), b=(4, 5))
    w_m1 = w((3, 5))
    m2 = _case_inputs(rng, a=(2, 3, 4), b=(4, 5))
    w_m2 = w((2, 3, 5))
    m3 = _case_inputs(rng, a=(2, 2, 3, 4), b=(4, 5))  # two leading axes folded into rows
    w_m3 = w((2, 2, 3, 5))
    m4 = _case_inputs(rng, a=(2, 3, 4), b=(2, 4, 5))  # batched right operand
    w_m4 = w((2, 3, 5))
    cases["matmul"] = [
        (m1, lambda p: T.weighted_sum(T.matmul(p["a"], p["b"]), w_m1)),
        (m2, lambda p: T.weighted_sum(T.matmul(p["a"], p["b"]), w_m2)),
        (m3, lambda p: T.weighted_sum(T.matmul(p["a"], p["b"]), w_m3)),
        (m4, lambda p: T.weighted_sum(T.matmul(p["a"], p["b"]), w_m4)),
    ]

    a1 = _case_inputs(rng, a=(3, 5), b=(3, 5))
    a2 = _case_inputs(rng, a=(2, 3, 5), b=(5,))
    w_a = w((3, 5))
    w_a2 = w((2, 3, 5))
    cases["add"] = [
        (a1, lambda p: T.weighted_sum(T.add(p["a"], p["b"]), w_a)),
        (a2, lambda p: T.weighted_sum(T.add(p["a"], p["b"]), w_a2)),
    ]

    s1 = _case_inputs(rng, a=(4, 6))
    w_s = w((4, 6))
    cases["scale"] = [(s1, lambda p: T.weighted_sum(T.scale(p["a"], -1.7), w_s))]

    r1 = _case_inputs(rng, a=(2, 3, 4))
    w_r = w((6, 4))
    cases["reshape"] = [(r1, lambda p: T.weighted_sum(T.reshape(p["a"], (6, 4)), w_r))]

    t1 = _case_inputs(rng, a=(2, 3, 4))
    w_t = w((3, 4, 2))
    cases["transpose"] = [(t1, lambda p: T.weighted_sum(T.transpose(p["a"], (1, 2, 0)), w_t))]

    e_ids = rng.integers(0, 7, size=(3, 5))
    e1 = _case_inputs(rng, table=(7, 4))
    w_e = w((3, 5, 4))
    cases["embedding_lookup"] = [
        (e1, lambda p: T.weighted_sum(T.embedding_lookup(p["table"], e_ids), w_e))
    ]

    ln1 = _case_inputs(rng, x=(3, 5, 8), gamma=(8,), beta=(8,))
    w_ln = w((3, 5, 8))
    cases["layer_norm"] = [
        (ln1, lambda p: T.weighted_sum(T.layer_norm(p["x"], p["gamma"], p["beta"]), w_ln))
    ]

    g1 = _case_inputs(rng, x=(4, 6))
    w_g = w((4, 6))
    cases["gelu"] = [(g1, lambda p: T.weighted_sum(T.gelu(p["x"]), w_g))]

    sm1 = _case_inputs(rng, x=(3, 7))
    w_sm = w((3, 7))
    sm2 = _case_inputs(rng, x=(2, 4, 6))
    w_sm2 = w((2, 4, 6))
    cases["softmax"] = [
        (sm1, lambda p: T.weighted_sum(T.softmax(p["x"], axis=-1), w_sm)),
        (sm2, lambda p: T.weighted_sum(T.softmax(p["x"], axis=1), w_sm2)),
    ]

    d1 = _case_inputs(rng, x=(5, 6))
    w_d = w((5, 6))

    def dropout_loss(p):
        # Fresh generator per call so finite differencing sees the same mask.
        mask_rng = np.random.default_rng(1234)
        return T.weighted_sum(T.dropout(p["x"], 0.4, train=True, rng=mask_rng), w_d)

    cases["dropout"] = [(d1, dropout_loss)]

    ce_targets = rng.integers(0, 9, size=(4, 6))
    ce_targets[0, 0] = -100
    ce_targets[2, 3] = -100
    ce1 = _case_inputs(rng, logits=(4, 6, 9))
    cases["cross_entropy"] = [
        (ce1, lambda p: T.cross_entropy(p["logits"], ce_targets, ignore_index=-100))
    ]

    ws1 = _case_inputs(rng, x=(3, 4))
    w_ws = w((3, 4))
    cases["weighted_sum"] = [(ws1, lambda p: T.weighted_sum(p["x"], w_ws))]

    li1 = _case_inputs(rng, x=(2, 3, 4), w=(4, 5), b=(5,))
    w_li = w((2, 3, 5))
    cases["linear"] = [
        (li1, lambda p: T.weighted_sum(T.linear(p["x"], p["w"], p["b"]), w_li))
    ]

    at1 = _case_inputs(rng, q=(2, 5, 4), k=(2, 5, 4), v=(2, 5, 4))
    w_at = w((2, 5, 4))
    at_bias = np.zeros((2, 1, 1, 5))
    at_bias[1, ..., 4] = -1e9  # a PAD key in the second row

    def attention_dropout_loss(p):
        # Fresh generator per call so finite differencing sees the same mask.
        mask_rng = np.random.default_rng(1234)
        out = T.attention(p["q"], p["k"], p["v"], at_bias, 2, 0.3, train=True, rng=mask_rng)
        return T.weighted_sum(out, w_at)

    cases["attention"] = [
        (at1, lambda p: T.weighted_sum(T.attention(p["q"], p["k"], p["v"], at_bias, 2), w_at)),
        (at1, attention_dropout_loss),
    ]

    return cases


def check_primitives(
    names: list[str] | None = None,
    tolerance: float = 1e-6,
    h: float = 1e-5,
    seed: int = 0,
) -> dict[str, GradCheckResult]:
    """Finite-difference every primitive's backward rule in float64.

    Returns per-op results; a failing entry names the op whose backward is
    wrong, which is the whole point of running ops in isolation.
    """
    cases = _build_cases(seed)
    if names is None:
        names = sorted(cases)
    results: dict[str, GradCheckResult] = {}
    for name in names:
        if name not in cases:
            raise KeyError(f"no gradient-check case for op {name!r}")
        worst = GradCheckResult(0.0, tolerance, True)
        for params, loss_fn in cases[name]:
            res = check_gradients(params, lambda: loss_fn(params), tolerance=tolerance, h=h)
            if res.max_rel_error > worst.max_rel_error:
                worst = res
        results[name] = worst
    return results
