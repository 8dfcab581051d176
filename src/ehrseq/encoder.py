"""Masked-token transformer encoder over encoded patient histories.

Post-layer-norm architecture: token embeddings (+ optional learned positional
table) -> embedding layer norm -> n_layers of (multi-head self-attention,
position-wise GELU FFN), each sublayer followed by residual + layer norm ->
separate d x |V| decoder projection. PAD positions are excluded from
attention through an additive -1e9 mask, which makes logits at real positions
independent of the PAD tail. Dropping the positional table makes the encoder
permutation-equivariant over event slots, which the ablation relies on.

A layer is 12 tape ops, 14 with dropout in training: ``tensor.linear``
(weight product plus bias) for the q, k, v, output and two FFN projections,
one fused ``tensor.attention`` for the heads, and the GELU, residual adds and
layer norms. So a 2-layer forward without the decoder runs 28 ops. The fused
ops give bitwise the outputs and gradients of the unfused composition, which
``tests/test_encoder.py`` keeps as a reference.

Training is masked-token prediction: event positions are selected with
probability ``mask_prob`` and replaced by MASK / a random code / kept
(80/10/10), and the model is fit with AdamW under global-norm gradient
clipping. :func:`mlm_mask` also has a plain always-MASK mode, which training
does not use.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .container import ContainerError, check_pin, load_artifact, save_artifact
from .corpus import ICD_OFFSET, MASK_ID, EncodedSample, PatientHistory, Vocabulary, encode_history
from .optim import AdamW, clip_global_norm
from .tensor import Tape, Tensor, backward

IGNORE_INDEX = -100
_NEG_INF = -1e9
POOL_BATCHES = 50  # training batches sorted together by length (see length_batches)
INFER_CHUNK = 256  # samples per inference forward pass (see infer_batches)

MASK_MODES = ("bert", "plain")


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss); message carries epoch/batch."""


@dataclass
class ModelConfig:
    """Encoder hyperparameters. Defaults are the full-scale reference setup;
    :meth:`desk_scale` returns the small configuration used for CPU-sized
    experiments."""

    vocab_size: int
    d: int = 256
    n_layers: int = 4
    n_heads: int = 4
    max_len: int = 131  # 3 demographic slots + H event slots
    use_positional: bool = True
    use_gender_age: bool = True  # False: placeholder ids in the demographic slots
    dropout: float = 0.1
    mask_prob: float = 0.25
    lr: float = 5e-5
    batch_size: int = 256
    epochs: int = 30
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if not (0.0 < self.mask_prob <= 1.0):
            raise ValueError(f"mask_prob must be in (0, 1], got {self.mask_prob}")
        if self.max_len < 4:
            raise ValueError(f"max_len must be >= 4, got {self.max_len}")
        if self.vocab_size < 8:
            raise ValueError(f"vocab_size {self.vocab_size} leaves no room for the reserved tokens")

    @property
    def ffn_dim(self) -> int:
        return 4 * self.d

    @property
    def H(self) -> int:
        return self.max_len - 3

    @property
    def d_head(self) -> int:
        return self.d // self.n_heads

    @classmethod
    def desk_scale(cls, vocab_size: int, **overrides) -> "ModelConfig":
        base = dict(d=64, n_layers=2, n_heads=2, max_len=3 + 48, lr=1e-3,
                    batch_size=64, epochs=10)
        base.update(overrides)
        return cls(vocab_size=vocab_size, **base)


@dataclass
class MaskedBatch:
    input_ids: np.ndarray  # (B, L) after masking
    labels: np.ndarray  # (B, L), IGNORE_INDEX where not selected
    attention_mask: np.ndarray  # (B, L)


def stack_samples(samples: Sequence[EncodedSample]) -> tuple[np.ndarray, np.ndarray]:
    """Batch encoded samples into (ids, attention mask), trimmed to the longest row."""
    longest = int(max(s.length for s in samples))
    ids = np.stack([s.token_ids[:longest] for s in samples])
    mask = np.stack([s.attention_mask[:longest] for s in samples])
    return ids, mask


def length_batches(lengths: Sequence[int], batch_size: int,
                   rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Row indices cut into batches of similar length, so little of a batch is PAD.

    Without ``rng`` (inference) the rows are sorted by length, stably, and cut
    in that order. With ``rng`` (training) this is the length-based batching
    of fairseq: a permutation of the rows, sorted by length inside pools of
    ``POOL_BATCHES`` batches, cut into batches whose order is then shuffled.
    A pool is a whole number of batches, so no batch straddles two pools and
    there are always ``ceil(n / batch_size)`` batches.
    """
    lengths = np.asarray(lengths)
    n = len(lengths)
    if rng is None:
        order = np.argsort(lengths, kind="stable")
    else:
        order = rng.permutation(n)
        pool = POOL_BATCHES * batch_size
        for start in range(0, n, pool):
            part = order[start : start + pool]
            order[start : start + pool] = part[np.argsort(lengths[part], kind="stable")]
    batches = [order[start : start + batch_size] for start in range(0, n, batch_size)]
    if rng is not None:
        batches = [batches[i] for i in rng.permutation(len(batches))]
    return batches


def infer_batches(model: EncoderModel, samples: Sequence[EncodedSample], decode: bool
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """Inference forward passes over ``samples``, one per batch.

    Yields ``(rows, attention_mask, hidden, logits)`` per batch: ``rows`` are
    the batch's indices into ``samples``, so ``out[rows] = f(...)`` puts
    results in input order; ``logits`` is None unless ``decode``. Up to
    ``INFER_CHUNK`` samples run as one batch in input order. More are cut by
    :func:`length_batches` into length-sorted batches of ``INFER_CHUNK``, each
    padded to little more than its own rows.
    """
    if len(samples) > INFER_CHUNK:
        batches = length_batches([s.length for s in samples], INFER_CHUNK)
    else:
        batches = [np.arange(len(samples))] if samples else []
    for rows in batches:
        ids, attn = stack_samples([samples[j] for j in rows])
        hidden, logits = model.forward(ids, attn, decode=decode)
        yield rows, attn, hidden.data, None if logits is None else logits.data


def mlm_mask(
    samples: Sequence[EncodedSample],
    mask_prob: float,
    rng: np.random.Generator,
    vocab_size: int,
    mode: str = "bert",
) -> MaskedBatch:
    """Select event positions with probability mask_prob and hide them.

    Only event slots (position >= 3, non-PAD) are candidates; CLS and the
    demographic slots are never touched. In "bert" mode selected positions
    become MASK 80% of the time, a uniformly random diagnosis id 10%, and
    stay unchanged 10%; "plain" mode always writes MASK. Labels carry the
    original ids at selected positions and IGNORE_INDEX elsewhere.
    """
    if mode not in MASK_MODES:
        raise ValueError(f"mask mode must be one of {MASK_MODES}")
    if mode == "bert" and vocab_size <= ICD_OFFSET:
        raise ValueError(
            f"bert masking draws random diagnosis ids, needs vocab_size > {ICD_OFFSET}, got {vocab_size}"
        )
    ids, attn = stack_samples(samples)
    B, L = ids.shape
    positions = np.arange(L)
    eligible = (attn == 1) & (positions >= 3)
    selected = eligible & (rng.random((B, L)) < mask_prob)
    labels = np.where(selected, ids, IGNORE_INDEX)
    out = ids.copy()
    if mode == "plain":
        out[selected] = MASK_ID
    else:
        r = rng.random((B, L))
        rand_ids = rng.integers(ICD_OFFSET, vocab_size, size=(B, L))
        out[selected & (r < 0.8)] = MASK_ID
        swap = selected & (r >= 0.8) & (r < 0.9)
        out[swap] = rand_ids[swap]
        # remaining 10%: keep the original id
    return MaskedBatch(out, labels, attn)


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes in creation order; the order fixes the
    random-init draws of :meth:`EncoderModel.build`."""
    d, f = config.d, config.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {"tok_emb": (config.vocab_size, d)}
    if config.use_positional:
        shapes["pos_emb"] = (config.max_len, d)
    shapes["emb_ln_g"] = (d,)
    shapes["emb_ln_b"] = (d,)
    for i in range(config.n_layers):
        for proj in ("q", "k", "v", "o"):
            shapes[f"l{i}.attn_w{proj}"] = (d, d)
            shapes[f"l{i}.attn_b{proj}"] = (d,)
        shapes[f"l{i}.ln1_g"] = (d,)
        shapes[f"l{i}.ln1_b"] = (d,)
        shapes[f"l{i}.ffn_w1"] = (d, f)
        shapes[f"l{i}.ffn_b1"] = (f,)
        shapes[f"l{i}.ffn_w2"] = (f, d)
        shapes[f"l{i}.ffn_b2"] = (d,)
        shapes[f"l{i}.ln2_g"] = (d,)
        shapes[f"l{i}.ln2_b"] = (d,)
    shapes["dec_w"] = (d, config.vocab_size)
    shapes["dec_b"] = (config.vocab_size,)
    return shapes


class EncoderModel:
    """Parameter store plus forward pass; immutable once training finishes."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor], vocab_sha256: str = ""):
        self.config = config
        self.params = params
        self.vocab_sha256 = vocab_sha256
        self.loss_history: list[float] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, config: ModelConfig, vocab_sha256: str = "") -> "EncoderModel":
        """Random init: matrices N(0, 0.02), layer-norm gains one, biases zero."""
        rng = np.random.default_rng(config.seed)
        p: dict[str, Tensor] = {}
        for name, shape in _param_shapes(config).items():
            if len(shape) == 2:
                arr = (rng.standard_normal(shape) * 0.02).astype(np.float32)
            elif name.endswith("_g"):
                arr = np.ones(shape, dtype=np.float32)
            else:
                arr = np.zeros(shape, dtype=np.float32)
            p[name] = T.parameter(arr, name=name)
        return cls(config, p, vocab_sha256=vocab_sha256)

    def params_sha256(self) -> str:
        """Content hash of the parameters; identifies the model independent
        of any file it may have been saved to."""
        h = hashlib.sha256()
        for k in sorted(self.params):
            h.update(k.encode("utf-8"))
            h.update(np.ascontiguousarray(self.params[k].data, dtype="<f4").tobytes())
        return h.hexdigest()

    def astype(self, dtype) -> "EncoderModel":
        """Copy with parameters cast (float64 for gradient checking)."""
        params = {k: T.parameter(t.data.astype(dtype), name=k) for k, t in self.params.items()}
        m = EncoderModel(self.config, params, self.vocab_sha256)
        m.loss_history = list(self.loss_history)
        return m

    # -- forward -----------------------------------------------------------

    def forward(
        self,
        input_ids: np.ndarray,
        attention_mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
        decode: bool = True,
    ) -> tuple[Tensor, Tensor | None]:
        """Contextual vectors (B,L,d) and decoder logits (B,L,|V|), or None for
        the logits when ``decode`` is False (embedding paths discard them).

        PAD keys/values receive -1e9 before the attention softmax, so their
        weight underflows to exactly zero and trailing PAD never changes the
        outputs at real positions.
        """
        cfg = self.config
        p = self.params
        B, L = input_ids.shape
        if L > cfg.max_len:
            raise ValueError(f"sequence length {L} exceeds max_len {cfg.max_len}")
        drop = cfg.dropout if train else 0.0

        h = T.embedding_lookup(p["tok_emb"], input_ids)
        if cfg.use_positional:
            pos = T.embedding_lookup(p["pos_emb"], np.arange(L))
            h = T.add(h, pos)
        h = T.layer_norm(h, p["emb_ln_g"], p["emb_ln_b"])
        h = T.dropout(h, drop, train, rng)

        dtype = p["tok_emb"].dtype
        attn_bias = ((1 - attention_mask) * _NEG_INF).astype(dtype).reshape(B, 1, 1, L)

        for i in range(cfg.n_layers):
            q, k, v = (T.linear(h, p[f"l{i}.attn_w{x}"], p[f"l{i}.attn_b{x}"]) for x in "qkv")
            ctx = T.attention(q, k, v, attn_bias, cfg.n_heads, drop, train, rng)
            attn_out = T.linear(ctx, p[f"l{i}.attn_wo"], p[f"l{i}.attn_bo"])
            attn_out = T.dropout(attn_out, drop, train, rng)
            h = T.layer_norm(T.add(h, attn_out), p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])

            inner = T.gelu(T.linear(h, p[f"l{i}.ffn_w1"], p[f"l{i}.ffn_b1"]))
            ffn_out = T.linear(inner, p[f"l{i}.ffn_w2"], p[f"l{i}.ffn_b2"])
            ffn_out = T.dropout(ffn_out, drop, train, rng)
            h = T.layer_norm(T.add(h, ffn_out), p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])

        if not decode:
            return h, None
        # matmul, not linear: the benchmark's tape profiler tags matmul with dec_w as the decoder
        logits = T.add(T.matmul(h, p["dec_w"]), p["dec_b"])
        return h, logits

    def mlm_loss(self, batch: MaskedBatch, train: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        _, logits = self.forward(batch.input_ids, batch.attention_mask, train=train, rng=rng)
        return T.cross_entropy(logits, batch.labels, ignore_index=IGNORE_INDEX)


def train(
    model: EncoderModel,
    samples: Sequence[EncodedSample],
    epochs: int | None = None,
    callbacks: Sequence[Callable[[int, float, EncoderModel], None]] = (),
    log: Callable[[str], None] | None = None,
) -> list[float]:
    """Fit the model on encoded samples; returns per-epoch mean MLM loss.

    Each epoch's batches come from :func:`length_batches`: a shuffle, then
    sorting by length inside pools of ``POOL_BATCHES`` batches, so a batch
    pads to little more than its own rows' length, and a shuffled batch
    order. Every sample is seen once per epoch, in ``ceil(n / batch_size)``
    steps. Deterministic for a fixed config seed (single worker): batch
    order, masking and dropout all draw from one generator seeded by the
    config. The epoch mean weights batches by their masked-position counts.
    A non-finite loss aborts with the epoch/batch location. ``log`` gets
    one line per epoch: the loss, the share of steps whose gradient norm
    was clipped, the median and largest norm before clipping, and samples/s.
    Each of ``callbacks`` is called after every epoch with the epoch number,
    its mean loss and the model, for per-epoch work such as checkpoints.
    """
    if not samples:
        raise ValueError("training corpus is empty")
    cfg = model.config
    rng = np.random.default_rng(cfg.seed)
    epochs = cfg.epochs if epochs is None else epochs
    opt = AdamW(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    names = list(model.params)
    history: list[float] = []
    lengths = np.array([s.length for s in samples])
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        total_loss = 0.0
        total_masked = 0
        norms: list[float] = []
        for b, rows in enumerate(length_batches(lengths, cfg.batch_size, rng)):
            chunk = [samples[j] for j in rows]
            batch = mlm_mask(chunk, cfg.mask_prob, rng, cfg.vocab_size)
            n_masked = int((batch.labels != IGNORE_INDEX).sum())
            if n_masked == 0:
                continue
            try:
                with Tape() as tape:
                    loss = model.mlm_loss(batch, train=True, rng=rng)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise T.TensorError("loss is non-finite")
                grads = backward(loss, tape, params=model.params.values())
            except T.TensorError as exc:
                raise TrainingError(f"epoch {epoch} batch {b}: {exc}") from exc
            named = {k: grads[model.params[k]] for k in names}
            norms.append(clip_global_norm(named, cfg.clip_norm))
            opt.step(named)
            total_loss += value * n_masked
            total_masked += n_masked
        mean = total_loss / max(total_masked, 1)
        history.append(mean)
        model.loss_history.append(mean)
        if log:
            seconds = time.perf_counter() - started
            clipped = sum(x > cfg.clip_norm for x in norms) / max(len(norms), 1)
            median, largest = (float(np.median(norms)), max(norms)) if norms else (0.0, 0.0)
            log(f"epoch {epoch}/{epochs}: mlm loss {mean:.4f}, clipped {clipped:.1%} of "
                f"{len(norms)} steps, grad norm median {median:.3g} max {largest:.3g}, "
                f"{len(samples) / seconds:.0f} samples/s")
        for cb in callbacks:
            cb(epoch, mean, model)
    return history


# ---------------------------------------------------------------------------
# Next-code inference
# ---------------------------------------------------------------------------


def _prefix_sample(prefix: PatientHistory, vocab: Vocabulary, cfg: ModelConfig) -> EncodedSample:
    """[CLS][GENDER][AGE][e1..ek][MASK] for a history prefix, k <= H-1."""
    keep = cfg.H - 1
    events = prefix.events[-keep:] if len(prefix.events) > keep else prefix.events
    trimmed = PatientHistory(prefix.patient_id, prefix.gender, prefix.age_years, list(events))
    enc = encode_history(trimmed, vocab, H=cfg.H, use_gender_age=cfg.use_gender_age)
    enc.token_ids[enc.length] = MASK_ID
    enc.attention_mask[enc.length] = 1
    enc.length += 1
    return enc


def predict_next_distribution_batch(
    model: EncoderModel,
    prefixes: Sequence[PatientHistory],
    vocab: Vocabulary,
    reduce: Callable[[np.ndarray], np.ndarray] = lambda dists: dists,
) -> np.ndarray:
    """``reduce`` of the next-code distributions of ``prefixes``, one row per prefix.

    A distribution is the MASK-slot softmax with all non-diagnosis token mass
    zeroed and renormalized over the diagnosis ids; its rows sum to 1.
    ``reduce`` maps each batch's (b, |V|) distributions to b rows (argmax ids,
    category sums; it must accept b = 0), so only the reduced rows of all
    prefixes are kept; the default keeps the distributions. Batches come from
    :func:`infer_batches`.
    """
    if len(vocab) != model.config.vocab_size:
        raise ValueError(
            f"vocabulary size {len(vocab)} does not match model vocab_size {model.config.vocab_size}"
        )
    samples = [_prefix_sample(p, vocab, model.config) for p in prefixes]
    empty = reduce(np.zeros((0, len(vocab)), dtype=model.params["dec_b"].dtype))
    out = np.empty((len(samples),) + empty.shape[1:], dtype=empty.dtype)
    for rows, _, _, logits in infer_batches(model, samples, decode=True):
        at_mask = logits[np.arange(len(rows)), [samples[j].length - 1 for j in rows]]  # (b, V)
        probs = np.exp(at_mask - at_mask.max(axis=-1, keepdims=True))
        probs[:, :ICD_OFFSET] = 0.0
        probs /= probs.sum(axis=-1, keepdims=True)
        out[rows] = reduce(probs)
    return out


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(model: EncoderModel, path: str | Path) -> None:
    meta = {
        "config": asdict(model.config),
        "vocab_sha256": model.vocab_sha256,
        "loss_history": model.loss_history,
    }
    arrays = {k: t.data for k, t in model.params.items()}
    save_artifact(path, kind="encoder", meta=meta, arrays=arrays)


def load_checkpoint(path: str | Path, expected_vocab_sha256: str | None = None) -> EncoderModel:
    """Load a checkpoint; refuses a vocabulary-hash mismatch when a hash is given.

    Older checkpoints record two config fields that are now fixed, the
    masking mode and the FFN width; they are dropped, and a recorded width
    other than ``4 * d`` fails the parameter shape check.
    """
    meta, arrays = load_artifact(path, kind="encoder")
    if expected_vocab_sha256 is not None:
        check_pin("vocabulary", meta.get("vocab_sha256", ""), expected_vocab_sha256)
    config = ModelConfig(**{k: v for k, v in meta["config"].items()
                            if k not in ("mask_mode", "ffn_dim")})
    shapes = _param_shapes(config)
    if set(arrays) != set(shapes):
        missing = set(shapes) - set(arrays)
        extra = set(arrays) - set(shapes)
        raise ContainerError(f"checkpoint parameters do not match config (missing {sorted(missing)}, extra {sorted(extra)})")
    for k, shape in shapes.items():
        if arrays[k].shape != shape:
            raise ContainerError(f"parameter {k!r} has shape {arrays[k].shape}, expected {shape}")
    params = {k: T.parameter(arrays[k], name=k) for k in shapes}
    model = EncoderModel(config, params, vocab_sha256=meta.get("vocab_sha256", ""))
    model.loss_history = list(meta.get("loss_history", []))
    return model


def load_with_vocab(path: str | Path, vocab_path: str | Path) -> tuple[EncoderModel, Vocabulary]:
    """Load a vocabulary, then the checkpoint at ``path``, which must have been trained on it."""
    vocab = Vocabulary.load(vocab_path)
    return load_checkpoint(path, expected_vocab_sha256=vocab.sha256()), vocab
