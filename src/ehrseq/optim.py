"""AdamW with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to the root of the second moment


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is at most max_norm.

    Returns the norm measured before clipping.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


class AdamW:
    """Adam moments with bias correction; weight decay applied to the
    parameter directly rather than folded into the gradient.

    A parameter with zero gradient and zero decay is left bit-identical; with
    zero gradient and decay d it shrinks by exactly (1 - lr*d) per step.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3, weight_decay: float = 0.0):
        if lr < 0:
            raise ValueError(f"lr must be non-negative, got {lr}")
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(grads)
        if missing:
            raise KeyError(f"missing gradients for parameters: {sorted(missing)}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = grads[name]
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter {name!r} {p.data.shape}"
                )
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= self.lr * mhat / (np.sqrt(vhat) + EPS)
