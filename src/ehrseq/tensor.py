"""Dense float tensors with taped reverse-mode differentiation.

Small on purpose: row-major numpy storage, a handful of primitives (enough
for an attention encoder with a token-prediction head), and an explicit
:class:`Tape` that records executed ops so :func:`backward` can traverse them
in exact reverse order. Ops record onto the innermost active tape of the
current thread; with no active tape they are plain forward computations.

Broadcasting is limited to leading batch dimensions (bias vectors, per-batch
masks); anything fancier raises. Every op output is checked for NaN/Inf.

Every op keeps its inputs' dtype, so a float32 model runs float32 end to end:
embedding lookup, forward, loss and gradients. Constants inside ops are
Python floats for this reason. :func:`matmul` with a 2-D right operand (a
weight matrix) folds the left operand's leading axes into rows and runs one
2-D GEMM forward and one for each gradient; batched right operands use
numpy's batched matmul.

Two fused primitives cut the per-op cost (a Tensor, a closure and a finite
check each) of an encoder forward: :func:`linear` is the weight GEMM of
:func:`matmul` plus an in-place bias add, and :func:`attention` does the head
split, scaled scores, additive bias, softmax, dropout and head merge in one
node. Each runs the numpy calls of the composition it replaces, in the same
order, so outputs and gradients are bitwise those of the unfused ops. Both
check their output; :func:`attention` also checks its scores after the bias
add, because the softmax would turn a -inf score into a silent zero weight.
:func:`scale`, :func:`reshape`, :func:`transpose` and :func:`softmax` stay as
building blocks for other compositions and as the reference the fused ops are
tested against.

Typical use::

    with Tape() as tape:
        loss = cross_entropy(model_forward(x), targets)
    grads = backward(loss, tape, params=model_params.values())
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float32

# Python floats, not numpy scalars: under NumPy 2's promotion rules (NEP 50) a
# float64 numpy scalar turns a float32 array into float64.
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TensorError(RuntimeError):
    """Shape mismatch, non-finite values, or misuse of the tape."""


class Tensor:
    """A dense float array plus a flag marking it as differentiable."""

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag}, requires_grad={self.requires_grad})"


def parameter(data, name: str | None = None, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype, name=name)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


class _Node:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed ops; context manager scoping the recording."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack().pop()

    def __len__(self) -> int:
        return len(self.nodes)


def _emit(op: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if not np.isfinite(out_data).all():
        raise TensorError(f"{op}: non-finite values in output")
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape.nodes.append(_Node(op, inputs, out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape, params: Iterable[Tensor] | None = None) -> dict[Tensor, np.ndarray]:
    """Reverse-traverse the tape from a scalar loss; returns leaf gradients.

    When ``params`` is given the result has an entry for every parameter,
    zero-filled for parameters the loss does not depend on.
    """
    if loss.data.ndim != 0:
        raise TensorError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=loss.data.dtype)}
    for node in reversed(tape.nodes):
        g = grads.pop(node.output, None)
        if g is None:
            continue
        in_grads = node.backward_fn(g)
        for t, ig in zip(node.inputs, in_grads):
            if ig is None or not t.requires_grad:
                continue
            acc = grads.get(t)
            grads[t] = ig if acc is None else acc + ig
    if params is not None:
        return {p: grads.get(p, np.zeros_like(p.data)) for p in params}
    return grads


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _gemm(a: Tensor, w: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """``a @ w`` for a 2-D weight as one 2-D GEMM over a's leading axes folded
    into rows; returns the folded ``a`` (the weight gradient needs it) and the
    product. numpy's batched matmul would run one GEMM per leading index for
    the weight gradient and sum them in :func:`_unbroadcast`."""
    a2 = a.data.reshape(-1, a.shape[-1])
    return a2, (a2 @ w.data).reshape(a.shape[:-1] + w.shape[-1:])


def _gemm_grads(a: Tensor, a2: np.ndarray, w: Tensor, g: np.ndarray):
    g2 = g.reshape(-1, g.shape[-1])
    ga = (g2 @ w.data.T).reshape(a.shape) if a.requires_grad else None
    gw = a2.T @ g2 if w.requires_grad else None
    return ga, gw


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    y = x - x.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    gx = g - (g * y).sum(axis=axis, keepdims=True)
    gx *= y
    return gx


def _dropout_keep(op: str, shape, dtype, p: float, train: bool,
                  rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout multiplier (0 or 1/(1-p)), or None when inactive."""
    if not (0.0 <= p < 1.0):
        raise TensorError(f"{op}: p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return None
    if rng is None:
        raise TensorError(f"{op}: active dropout needs an rng")
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise TensorError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _emit("add", out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def bwd(g):
        return (g * c,)

    return _emit("scale", out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise TensorError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise TensorError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    if b.ndim == 2:
        a2, out = _gemm(a, b)
        return _emit("matmul", out, (a, b), lambda g: _gemm_grads(a, a2, b, g))
    out = np.matmul(a.data, b.data)

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
        return (ga, gb)

    return _emit("matmul", out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D weight and a bias vector: :func:`matmul`'s weight
    GEMM and :func:`add`'s sum as one op, the bias added in place."""
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1]:
        raise TensorError(f"linear: cannot multiply {x.shape} by weight {w.shape}")
    if b.shape != w.shape[1:]:
        raise TensorError(f"linear: bias {b.shape} does not match weight {w.shape}")
    x2, out = _gemm(x, w)
    out += b.data

    def bwd(g):
        gx, gw = _gemm_grads(x, x2, w, g)
        return (gx, gw, _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _emit("linear", out, (x, w, b), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray, n_heads: int,
              p: float = 0.0, train: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head scaled dot-product attention over (B, L, d) projections.

    Splits d into ``n_heads`` heads, scores ``q kᵀ / sqrt(d_head) + bias`` (a
    constant array broadcasting to (B, n_heads, L, L), such as a (B, 1, 1, L)
    PAD mask in the projections' dtype), takes the softmax over keys, applies
    inverted dropout with rate ``p`` to the probabilities when ``train``, and
    merges the heads' context vectors back to (B, L, d).
    """
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise TensorError(f"attention: q, k, v must share one (B, L, d) shape, got "
                          f"{q.shape}, {k.shape}, {v.shape}")
    B, L, d = q.shape
    if n_heads < 1 or d % n_heads:
        raise TensorError(f"attention: d={d} does not split into {n_heads} heads")
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)

    def split(t: Tensor) -> np.ndarray:  # (B, L, d) -> (B, heads, L, d_head) view
        return t.data.reshape(B, L, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(t: np.ndarray) -> np.ndarray:  # (B, heads, L, d_head) -> (B, L, d)
        return t.transpose(0, 2, 1, 3).reshape(B, L, d)

    qh, kh, vh = split(q), split(k), split(v)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    scores *= c
    try:
        scores += bias
    except ValueError as exc:
        raise TensorError(f"attention: bias {np.shape(bias)} does not broadcast to "
                          f"scores {scores.shape}") from exc
    if not np.isfinite(scores).all():
        raise TensorError("attention: non-finite values in scores")
    probs = _softmax(scores, -1)
    keep = _dropout_keep("attention", probs.shape, probs.dtype, p, train, rng)
    dropped = probs if keep is None else probs * keep
    out = merge(np.matmul(dropped, vh))

    def bwd(g):
        gq = gk = gv = None
        gc = g.reshape(B, L, n_heads, dh).transpose(0, 2, 1, 3)
        if v.requires_grad:
            gv = merge(np.matmul(dropped.swapaxes(-1, -2), gc))
        if q.requires_grad or k.requires_grad:
            gs = np.matmul(gc, vh.swapaxes(-1, -2))
            if keep is not None:
                gs *= keep
            gs = _softmax_grad(probs, gs, -1)
            gs *= c
            if q.requires_grad:
                gq = merge(np.matmul(gs, kh))
            if k.requires_grad:
                gk = merge(np.matmul(qh.swapaxes(-1, -2), gs).transpose(0, 1, 3, 2))
        return (gq, gk, gv)

    return _emit("attention", out, (q, k, v), bwd)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _emit("reshape", out, (a,), bwd)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = a.data.transpose(axes)

    def bwd(g):
        return (g.transpose(np.argsort(axes)),)

    return _emit("transpose", out, (a,), bwd)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise TensorError("embedding_lookup: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise TensorError(
            f"embedding_lookup: id out of range [0, {table.shape[0]}), got min={ids.min()} max={ids.max()}"
        )
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return _emit("embedding_lookup", out, (table,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise TensorError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match feature dim {d}")
    # sum / d is what ndarray.mean runs, without its Python wrapper
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xc * ivar
    out = xhat * gamma.data + beta.data

    def bwd(g):
        gx = ggamma = gbeta = None
        if gamma.requires_grad:
            ggamma = (g * xhat).reshape(-1, d).sum(axis=0)
        if beta.requires_grad:
            gbeta = g.reshape(-1, d).sum(axis=0)
        if x.requires_grad:
            dxhat = g * gamma.data
            gx = ivar * (
                dxhat
                - dxhat.sum(axis=-1, keepdims=True) / d
                - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
            )
        return (gx, ggamma, gbeta)

    return _emit("layer_norm", out, (x, gamma, beta), bwd)


def gelu(x: Tensor) -> Tensor:
    cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out = x.data * cdf

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        return (g * (cdf + x.data * pdf),)

    return _emit("gelu", out, (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    y = _softmax(x.data, axis)

    def bwd(g):
        return (_softmax_grad(y, g, axis),)

    return _emit("softmax", y, (x,), bwd)


def dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity (the same tensor) when inactive."""
    keep = _dropout_keep("dropout", x.shape, x.data.dtype, p, train, rng)
    if keep is None:
        return x
    out = x.data * keep

    def bwd(g):
        return (g * keep,)

    return _emit("dropout", out, (x,), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = -100) -> Tensor:
    """Mean negative log-likelihood over positions whose target is not ignored.

    Zero loss (and zero gradient) when every position is ignored.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise TensorError(
            f"cross_entropy: target shape {targets.shape} does not match logits {logits.shape}"
        )
    V = logits.shape[-1]
    flat = logits.data.reshape(-1, V)
    t = targets.reshape(-1)
    sel = t != ignore_index
    n = int(sel.sum())
    if n == 0:
        def bwd_zero(g):
            return (np.zeros_like(logits.data),)

        return _emit("cross_entropy", np.asarray(0.0, dtype=logits.data.dtype), (logits,), bwd_zero)
    idx = np.nonzero(sel)[0]
    tt = t[idx]
    if tt.min() < 0 or tt.max() >= V:
        raise TensorError(f"cross_entropy: target id out of range [0, {V})")
    rows = flat[idx]
    m = rows.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(rows - m).sum(axis=-1, keepdims=True))
    logp = rows - lse
    loss = -logp[np.arange(n), tt].mean()

    def bwd(g):
        soft = np.exp(logp)
        soft[np.arange(n), tt] -= 1.0
        d = np.zeros_like(flat)
        d[idx] = soft * (g / n)
        return (d.reshape(logits.shape),)

    return _emit("cross_entropy", np.asarray(loss, dtype=logits.data.dtype), (logits,), bwd)


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar projection sum(x * weights); handy for reducing to a test loss."""
    weights = np.asarray(weights, dtype=x.data.dtype)
    if weights.shape != x.shape:
        raise TensorError(f"weighted_sum: weight shape {weights.shape} does not match {x.shape}")
    out = np.asarray((x.data * weights).sum(), dtype=x.data.dtype)

    def bwd(g):
        return (g * weights,)

    return _emit("weighted_sum", out, (x,), bwd)
