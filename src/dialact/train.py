"""Maximum-likelihood training with per-element adaptive steps.

The objective is the summed sequence negative log-likelihood plus an L2
penalty. Updates follow the diagonal adaptive rule: each element keeps a
running sum of squared gradients and steps by lr * g / sqrt(sum g^2).
Every parameter also carries an exponential-moving-average shadow; the
shadows, not the raw weights, are what validation and the saved
checkpoint use.

Batches contain only conversations with the same number of utterances,
at most ``max_batch`` each, reshuffled every epoch from the run seed; the
model takes any lengths, so this is only a batching policy. Training
stops when validation accuracy has not improved for ``patience`` epochs,
or at ``max_epochs``. A non-finite batch loss raises
``FloatingPointError`` naming the epoch.

Config files are flat ``key = value`` text; keys must be TrainConfig
field names, given once; an unknown or repeated key, or a bad value (a
bool is true/false/yes/no/1/0), is an error naming the line. History
records are one JSON object per epoch: {"epoch", "train_loss", "val_accuracy", "seconds",
"utt_per_s", "clip_frac", "grad_norm", "grad_norm_max"}. ``seconds`` is the epoch's wall time,
validation included; ``utt_per_s`` is the training utterances of the
epoch over it, and ``clip_frac`` the share of the epoch's steps whose
gradients were scaled down by the global-norm clip. ``grad_norm`` and
``grad_norm_max`` are the median and the largest global gradient norm of
the epoch's steps, taken before the clip.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, fields

import numpy as np

from . import autograd as ag
from .corpus import TranscriptError, build_vocab, load_pretrained_embeddings, read_key_values
from .model import DialogueActModel


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; defaults follow the reference setup."""

    lr: float = 0.005
    l2: float = 1e-5
    dropout: float = 0.2
    max_batch: int = 48
    patience: int = 5
    ema_decay: float = 0.999
    hops: int = 1
    d: int = 128
    d_u: int = 64
    d_p: int = 16
    d_n: int = 16
    d_c: int = 16
    word_dim: int = 100
    char_out: int = 100
    attn_dim: int = 64
    emit_dim: int = 64
    seed: int = 42
    max_epochs: int = 50
    clip_norm: float = 5.0  # global-norm gradient clip; <= 0 disables
    boundary_potentials: bool = False
    min_count: int = 1

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), str(f.type)
            if not isinstance(value, _FIELD_TYPES[kind]) or (kind != "bool" and isinstance(value, bool)):
                raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must be in (0, 1), got {self.ema_decay}")
        if not 0.0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be nonnegative and finite, got {self.l2}")
        if self.d != 2 * self.d_u:
            raise ValueError(f"d={self.d} must equal 2*d_u={2 * self.d_u}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not math.isfinite(self.clip_norm):
            raise ValueError(f"clip_norm must be finite (<= 0 disables clipping), got {self.clip_norm}")
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.hops > MAX_HOPS:
            raise ValueError(f"hops must be <= {MAX_HOPS}, got {self.hops}")


_FIELD_TYPES = {"bool": bool, "int": numbers.Integral, "float": numbers.Real}
# memory hops are a loop count in every forward; 16 keeps a decode within ~1.5x of one hop
MAX_HOPS = 16
# every dimension, since a zero width breaks a layer, and the counts
_AT_LEAST_ONE = (
    "hops", "patience", "max_batch", "max_epochs", "min_count",
    "d", "d_u", "d_p", "d_n", "d_c", "word_dim", "char_out", "attn_dim", "emit_dim",
)


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_CASTS = {"int": int, "float": float, "bool": lambda v: _BOOLS[v.lower()]}


def parse_config_file(path):
    """Flat key-value overrides onto TrainConfig defaults."""
    field_types = {f.name: str(f.type) for f in fields(TrainConfig)}
    overrides = {}
    for key, (lineno, value) in read_key_values(path).items():
        if key not in field_types:
            raise TranscriptError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _CASTS[field_types[key]](value)
        except (KeyError, ValueError):
            kind = field_types[key]
            raise TranscriptError(f"{path}:{lineno}: {key} = {value!r} is not a valid {kind}") from None
    return TrainConfig(**overrides)


def adagrad_step(registry, lr):
    """One diagonal adaptive update over every parameter with a gradient."""
    for name in registry.names():
        tensor = registry.params[name]
        g = tensor.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in parameter {name!r}")
        acc = registry.sq_accum[name]
        acc += g * g
        denom = np.sqrt(np.maximum(acc, 1e-12))
        tensor.data = tensor.data - lr * g / denom  # rebind: snapshots keep the old array


def clip_gradients(registry, max_norm):
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns (the scale applied, the global norm before the clip); a
    ``max_norm`` <= 0 disables the clip but not the norm.
    """
    total = 0.0
    for name in registry.names():
        g = registry.params[name].grad
        if g is not None:
            total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if 0 < max_norm < norm:
        scale = max_norm / norm
        for name in registry.names():
            g = registry.params[name].grad
            if g is not None:
                g *= scale
        return scale, norm
    return 1.0, norm


def ema_update(registry, decay):
    """shadow <- decay * shadow + (1 - decay) * param, elementwise, as a new array."""
    for name in registry.names():
        registry.ema[name] = decay * registry.ema[name] + (1.0 - decay) * registry.params[name].data


def make_batches(conversations, max_batch, rng):
    """Equal-length buckets chunked to size, then batch order shuffled."""
    buckets = {}
    for conv in conversations:
        buckets.setdefault(len(conv), []).append(conv)
    batches = []
    for length in sorted(buckets):
        bucket = list(buckets[length])
        order = rng.permutation(len(bucket))
        bucket = [bucket[i] for i in order]
        for i in range(0, len(bucket), max_batch):
            batches.append(bucket[i : i + max_batch])
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def train_loop(train_convs, valid_convs, cfg, embeddings_path=None, log=None):
    """Fit a model; returns (model, best_ema_state, history).

    The vocabulary is built from the training split only. After every
    epoch the EMA shadows are evaluated on the validation split; the
    best-scoring shadow set is what gets returned (and should be saved).
    """
    if not train_convs:
        raise TranscriptError("training corpus is empty")
    if not valid_convs:
        raise TranscriptError("validation corpus is empty")
    for split, convs in (("training", train_convs), ("validation", valid_convs)):
        for conv in convs:
            if not conv.fully_labeled():
                raise TranscriptError(f"{split} conversation {conv.id!r} has unlabeled utterances")

    vocab = build_vocab(train_convs, min_count=cfg.min_count)
    rng = np.random.default_rng(cfg.seed)
    weights = {}
    if embeddings_path is not None:
        weights["emb.word"] = load_pretrained_embeddings(embeddings_path, vocab, cfg.word_dim, rng=rng)
    model = DialogueActModel(vocab, cfg, rng=rng, weights=weights)

    train_utts = sum(len(conv) for conv in train_convs)
    history = []
    best_state = dict(model.registry.ema)  # arrays are rebound, never written
    best_val_accuracy = -1.0
    epochs_since_improvement = 0
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        epoch_loss = 0.0
        batches = make_batches(train_convs, cfg.max_batch, rng)
        clipped, norms = 0, []
        for batch in batches:
            model.registry.zero_grads()
            with ag.Tape() as tape:
                loss = model.loss(batch, train=True, rng=rng)
            # ``previous`` keeps the last step's graph alive until this step's
            # is allocated: freed below live memory, its pages are reused
            # instead of being returned to the OS and faulted back in.
            previous = tape  # noqa: F841
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite training loss {float(loss.data)} in epoch {epoch}")
            tape.backward(loss)
            model.registry.mask_frozen_grads()
            scale, norm = clip_gradients(model.registry, cfg.clip_norm)
            clipped += scale < 1.0
            norms.append(norm)
            adagrad_step(model.registry, cfg.lr)
            ema_update(model.registry, cfg.ema_decay)
            epoch_loss += float(loss.data)
        val_acc = model.accuracy(valid_convs, weights=model.registry.ema)
        seconds = time.perf_counter() - t0
        record = {
            "epoch": epoch,
            "train_loss": epoch_loss,
            "val_accuracy": val_acc,
            "seconds": seconds,
            "utt_per_s": train_utts / seconds,
            "clip_frac": clipped / len(batches),
            "grad_norm": float(np.median(norms)),
            "grad_norm_max": max(norms),
        }
        history.append(record)
        if log is not None:
            log(
                f"epoch {epoch:3d}  loss {epoch_loss:12.4f}  val_acc {val_acc:.4f}  {seconds:.1f}s"
                f"  {record['utt_per_s']:.0f} utt/s"
            )
        if val_acc > best_val_accuracy:
            best_val_accuracy = val_acc
            epochs_since_improvement = 0
            best_state = dict(model.registry.ema)
        else:
            epochs_since_improvement += 1
            if epochs_since_improvement >= cfg.patience:
                break
    return model, best_state, history


def write_history(path, history):
    with open(path, "w", encoding="utf-8") as f:
        for record in history:
            f.write(json.dumps(record) + "\n")
