"""Outside-in tracing: spans around calls into the program's public functions.

Nothing in the program changes. :class:`Tracer` replaces a module or class
attribute with a wrapper that records a span (id, parent, name, start, end,
request id) in memory; the program finds the wrapper because it looks the
name up at call time. Spans of one request share its id. :func:`profile_tape`
adds the per-op forward and backward timers of the autodiff tape, tagging the
decoder projection through ``dec_w`` and counting matmul FLOPs and bytes from
operand shapes.
"""

from __future__ import annotations

import collections
import itertools
import json
import statistics
import threading
import time
from typing import Callable

TENSOR_OPS = ("matmul", "add", "scale", "layer_norm", "gelu", "softmax", "dropout",
              "embedding_lookup", "cross_entropy", "reshape", "transpose")
# matmul_dec is matmul with the decoder weight as its right operand
OP_NAMES = ("matmul", "matmul_dec") + TENSOR_OPS[1:]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request)
        self.counters: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: float = 1) -> None:
        with self._count_lock:
            self.counters[key] += n

    def set_request(self, request_id: str | None) -> None:
        """Tag the spans this thread closes from now on with ``request_id``."""
        self._local.request = request_id

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, getattr(self._local, "request", None)))

    def timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; :meth:`restore` undoes it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def wrap(self, owner: object, attr: str, name: str) -> None:
        self.patch(owner, attr, lambda fn: self.timed(name, fn))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time covered by child spans."""
        child = collections.defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent:
                child[parent] += end - start
        out: dict[str, float] = collections.defaultdict(float)
        for sid, _, name, start, end, _ in self.spans:
            out[name] += (end - start) - child.get(sid, 0.0)
        return dict(sorted(out.items()))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                                     "end": s[4], "request": s[5]}) + "\n")


def _matmul_cost(a_shape, b_shape, itemsize: int) -> tuple[float, float]:
    """FLOPs and bytes touched by one (batched) matmul, from operand shapes."""
    batch = 1
    for x, y in itertools.zip_longest(reversed(a_shape[:-2]), reversed(b_shape[:-2]), fillvalue=1):
        batch *= max(x, y)
    m, k = a_shape[-2], a_shape[-1]
    n = b_shape[-1]
    size = lambda shape: batch * shape[-2] * shape[-1]  # noqa: E731
    flops = 2.0 * batch * m * k * n
    nbytes = float(itemsize * (size(a_shape) + size(b_shape) + batch * m * n))
    return flops, nbytes


def _op_name(op: str, inputs) -> str:
    if op == "matmul" and getattr(inputs[1], "name", None) == "dec_w":
        return "matmul_dec"
    return op


def profile_tape(tracer: Tracer, tensor_module, backward_owner) -> None:
    """Time every tensor primitive's forward, and each tape node's backward.

    Forward wrappers go on the primitives of ``tensor_module``; the backward
    wrapper replaces ``backward_owner.backward`` and wraps each recorded
    node's ``backward_fn`` just before the original traversal runs.
    """
    count = tracer.count

    def forward_wrapper(op):
        def make(fn):
            def wrapper(*args, **kwargs):
                name = _op_name(op, args)
                if op == "matmul":
                    a, b = args[0], args[1]
                    flops, nbytes = _matmul_cost(a.shape, b.shape, a.data.itemsize)
                    count("matmul_flops", flops)
                    count("matmul_bytes", nbytes)
                    if name == "matmul_dec":
                        count("dec_slots", a.shape[0] * a.shape[1])
                count(f"calls.{name}")
                return tracer.call(f"tensor.fwd.{name}", fn, *args, **kwargs)
            return wrapper
        return make

    for op in TENSOR_OPS:
        tracer.patch(tensor_module, op, forward_wrapper(op))

    def make_backward(fn):
        def traced_backward(loss, tape, params=None):
            for node in tape.nodes:
                name = _op_name(node.op, node.inputs)
                if node.op == "matmul":
                    a, b = node.inputs
                    flops, nbytes = _matmul_cost(a.shape, b.shape, a.data.itemsize)
                    grads = int(a.requires_grad) + int(b.requires_grad)
                    count("matmul_flops", flops * grads)
                    count("matmul_bytes", nbytes * grads)
                node.backward_fn = tracer.timed(f"tensor.bwd.{name}", node.backward_fn)
            return tracer.call("tensor.backward", fn, loss, tape, params)
        return traced_backward

    tracer.patch(backward_owner, "backward", make_backward)


def model_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of the encoder, embedding and tensor layers."""
    c = tracer.counters
    names = {s[0]: s[2] for s in tracer.spans}
    out = {
        "encoder.decoder_useful_ratio": c["dec_useful"] / c["dec_slots"] if c["dec_slots"] else 0.0,
        "encoder.params_sha256_ms": tracer.total("encoder.params_sha256") * 1000.0,
        "encoder.params_sha256_calls": float(len(tracer.durations("encoder.params_sha256"))),
        "embedding.forward_s": sum(s[4] - s[3] for s in tracer.spans if s[2] == "encoder.forward"
                                   and names.get(s[1]) == "embedding.patient_embeddings"),
        "embedding.pool_s": tracer.total("embedding.pool"),
        "encoder.forward_ms": 1000.0 * statistics.median(tracer.durations("encoder.forward") or [0.0]),
    }
    for op in OP_NAMES:
        out[f"tensor.fwd_s.{op}"] = tracer.total(f"tensor.fwd.{op}")
        out[f"tensor.bwd_s.{op}"] = tracer.total(f"tensor.bwd.{op}")
        out[f"tensor.calls.{op}"] = float(tracer.counters[f"calls.{op}"])
    out["tensor.matmul_gflop"] = tracer.counters["matmul_flops"] / 1e9
    out["tensor.matmul_mbytes"] = tracer.counters["matmul_bytes"] / 1e6
    return out
