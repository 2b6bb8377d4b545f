"""The full network: encoder, selection attention, and label chain.

Owns the parameters, the loss graph for a batch of conversations,
decoding, and checkpoint round-trips. A batch of any conversation lengths
runs as one graph, the chains taking one length per conversation. All
inference (``decode``, ``accuracy``, ``potential_tables``,
``evaluate.export_attention``) runs on ``inference_chunks``: chunks of at
most ``cfg.max_batch`` conversations in length order, so a long one pads
only its length neighbours. No output depends on a conversation's chunk
mates, up to BLAS rounding.

There is one parameter namespace, the checkpoint names (``emb.word``,
``utt_gru.w``, ``sel.trans``, ``crf.trans`` ...). Every layer takes a
flat ``params`` mapping from those names to tensors and reads its own
entries. ``loss`` passes ``model.params``, the plain dict of the model's
own tensors that the optimizer and ``autograd.grad_check`` read too; they
require a gradient and are recorded on the live tape. Inference passes
fresh grad-free tensors over the current arrays, or over ``weights`` such as
the EMA shadows that ``train_loop`` keeps; it records nothing on any tape
and writes no shared state, so it may run next to training in another
thread.

A checkpoint is the binary tensor container written by
:mod:`dialact.autograd` plus a ``<path>.meta.json`` sidecar carrying the
vocabulary and configuration needed to rebuild the model around the
tensors. A model holds one array per parameter and no optimizer state:
``load`` keeps the arrays the checkpoint was read into, and ``save``
writes the live arrays. The sidecar is version 2, whose tensors hold each
BiGRU as three (``{name}.w``, ``.u``, ``.b``, both directions stacked),
the context weight as one ``ctx.w`` and the char filters as one tap
matrix ``cnn.w``; a version-1 checkpoint, of per-gate weights, is refused.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from . import autograd as ag
from . import crf, encoder, evaluate
from .corpus import PAD_ID, TranscriptError, Vocab

META_VERSION = 2


class DialogueActModel:
    """Hierarchical encoder + selection attention + label chain."""

    def __init__(self, vocab, cfg, rng=None, weights=None):
        """Build every parameter; ``weights`` maps names to initial arrays.

        The other parameters draw from ``rng`` in :func:`parameter_table`
        order. A given array is never written (updates rebind), so it is kept
        if it is an owned, C-contiguous, aligned, writeable float64 array, else copied.
        """
        self.vocab = vocab
        self.cfg = cfg
        weights = weights or {}
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.params = {}
        for name, shape, scale in parameter_table(vocab, cfg):
            if name in weights:
                value = np.asarray(weights[name], dtype=np.float64)
                if value.shape != shape:
                    raise ValueError(f"{name} shape {value.shape} does not match vocab/config {shape}")
            else:
                value = rng.uniform(-scale, scale, shape) if scale else np.zeros(shape)
                if name.startswith("emb."):
                    value[PAD_ID] = 0.0
            self.params[name] = ag.Tensor(np.require(value, np.float64, ["C", "A", "W", "O"]), requires_grad=True)

    # -- forward ------------------------------------------------------------

    def forward(self, batch, params, train=False, rng=None):
        """Run one prepared batch through to chain potentials.

        ``params`` maps checkpoint names to tensors (see the module
        docstring). Returns (unary (B, N, Y) tensor, transition tensor,
        selection, encoded) where selection holds the gamma/context tensors.
        """
        enc = encoder.encode_batch(batch, params, self.cfg, train=train, rng=rng)
        rate = self.cfg.dropout if train else 0.0
        finals = ag.dropout(enc.final, rate, rng, train)
        selection = crf.selection_attention(finals, params, batch.utt_counts)
        unary, trans = crf.compute_potentials(finals, selection.context, params)
        return unary, trans, selection, enc

    def loss(self, conversations, train=True, rng=None):
        """Negative log-likelihood of the gold act sequences plus L2.

        All conversations must be fully labeled; their lengths may differ.
        """
        if not conversations:
            raise ValueError("loss needs at least one conversation")
        for conv in conversations:
            if not conv.fully_labeled():
                raise TranscriptError(f"conversation {conv.id!r} has unlabeled utterances")
        if train and rng is None:
            raise ValueError("training-mode loss needs an rng for dropout")
        params = self.params
        batch = encoder.prepare_batch(conversations, self.vocab)
        lengths = batch.utt_counts
        gold_ids = np.zeros((len(conversations), lengths.max()), dtype=np.int64)
        gold_ids[np.arange(lengths.max()) < lengths[:, None]] = [
            self.vocab.act_id(a) for c in conversations for a in c.acts
        ]
        unary, trans, _, _ = self.forward(batch, params, train=train, rng=rng)
        nll = ag.reduce_sum(crf.chain_nll(unary, trans, gold_ids, lengths))
        if self.cfg.l2 > 0.0:
            nll = ag.add(nll, ag.l2_penalty(list(params.values()), self.cfg.l2))
        return nll

    # -- inference ----------------------------------------------------------

    def inference_chunks(self, conversations, weights=None):
        """Grad-free forwards over chunks of at most ``cfg.max_batch``, in stable length order.

        Yields (indices into ``conversations``, (unary (B, N, Y), transition,
        lengths (B,)), selection, encoded) per chunk: the chain engine's
        arguments, then the layers' tensors. All chunks read one snapshot of
        ``weights`` (names to arrays; default: the current weights);
        training rebinds arrays, never writes them.
        """
        if weights is None:
            weights = {name: t.data for name, t in self.params.items()}
        params = {name: ag.Tensor(value) for name, value in weights.items()}
        order = sorted(range(len(conversations)), key=lambda i: len(conversations[i]))
        for lo in range(0, len(order), self.cfg.max_batch):
            chunk = order[lo : lo + self.cfg.max_batch]
            batch = encoder.prepare_batch([conversations[i] for i in chunk], self.vocab)
            unary, trans, selection, enc = self.forward(batch, params)
            yield chunk, (unary.data, trans.data, batch.utt_counts), selection, enc

    def potential_tables(self, conversations):
        """Chain tables, selection gammas and memory attentions, cropped, in input order."""
        tables, gammas, attentions = ([None] * len(conversations) for _ in range(3))
        for chunk, (unary, trans, lengths), selection, enc in self.inference_chunks(conversations):
            for b, (i, n) in enumerate(zip(chunk, lengths)):
                tables[i] = crf.PotentialTable(unary[b, :n], trans)
                gammas[i] = selection.gamma.data[b, :n]
                attentions[i] = enc.attention.data[b, :n, :n]
        return tables, gammas, attentions

    def decode(self, conversations, weights=None):
        """Viterbi act names per conversation, in input order, under ``weights``.

        Gold acts are ignored, so acts unseen in training are fine. Each
        chunk of :meth:`inference_chunks` is one batched Viterbi call.
        """
        results = [None] * len(conversations)
        names = self.vocab.act_names
        for chunk, scores, _, _ in self.inference_chunks(conversations, weights):
            paths, _ = crf.viterbi_decode(*scores)
            for i, path, n in zip(chunk, paths, scores[-1]):
                results[i] = [names[y] for y in path[:n]]
        return results

    def accuracy(self, conversations, weights=None):
        """Utterance-level decode accuracy against gold acts, under ``weights``."""
        return evaluate.accuracy(self.decode(conversations, weights), [c.acts for c in conversations])

    # -- persistence --------------------------------------------------------

    def save(self, path, state=None):
        """Write tensors (binary) plus the vocab/config sidecar.

        ``state`` maps names to arrays, such as the best EMA shadows that
        ``train_loop`` returns; by default, the current weights.
        """
        if state is None:
            state = {name: t.data for name, t in self.params.items()}
        ag.save_checkpoint(path, state)
        meta = {
            "version": META_VERSION,
            "config": asdict(self.cfg),
            "vocab": self.vocab.to_json_obj(),
        }
        with open(meta_path(path), "w", encoding="utf-8") as f:
            json.dump(meta, f)

    @classmethod
    def load(cls, path):
        """Rebuild a saved model; a sidecar or tensor file that does not fit raises ``ValueError``.

        The sidecar's structure and config are checked first, and the
        tensor names and shapes against what they describe, so nothing is
        allocated for a config the tensors do not back.
        """
        from .train import TrainConfig  # lazy: train builds on this module

        sidecar = meta_path(path)
        try:
            with open(sidecar, encoding="utf-8") as f:
                meta = json.load(f)  # bytes that are not UTF-8 raise a ValueError here too
            version = meta.get("version") if isinstance(meta, dict) else None
            if version != META_VERSION:
                raise ValueError(f"expected an object with version {META_VERSION}, got version {version!r}")
            config = meta.get("config")
            if not isinstance(config, dict):
                raise ValueError("'config' must be an object")
            unknown = sorted(set(config) - {f.name for f in fields(TrainConfig)})
            if unknown:
                raise ValueError(f"unknown config key {unknown[0]!r}")
            cfg = TrainConfig(**config)
            vocab = Vocab.from_json_obj(meta.get("vocab"))
        except RecursionError:
            raise ValueError(f"checkpoint sidecar {sidecar}: JSON nested too deeply") from None
        except ValueError as e:
            raise ValueError(f"checkpoint sidecar {sidecar}: {e}") from None
        state = ag.load_checkpoint(path)
        expected = {name: shape for name, shape, _ in parameter_table(vocab, cfg)}
        shapes = {name: value.shape for name, value in state.items()}
        unmatched = sorted({name for name, _ in expected.items() ^ shapes.items()})
        if unmatched:
            raise ValueError(
                f"checkpoint {path} does not match its sidecar: tensors {unmatched[:5]} differ in name or shape"
            )
        return cls(vocab, cfg, weights=state)


def parameter_table(vocab, cfg):
    """(checkpoint name, shape, init scale) of every parameter, in creation order.

    A parameter draws uniform(-scale, scale), or zeros at scale 0; the
    ``emb.*`` tables start with a zero PAD row. No input reads a PAD row
    (the vocabulary never maps a symbol to PAD, and ``encoder.char_cnn``
    reads the PAD character as a zero row), so its gradient is exactly 0.
    """
    n_acts, d, hid, emb, weight = len(vocab.act_index), cfg.d, cfg.d_u, 0.05, 0.08
    table = [
        ("emb.word", (len(vocab.word_index), cfg.word_dim), emb),
        ("emb.char", (len(vocab.char_index), cfg.d_c), emb),
        ("emb.pos", (len(vocab.pos_index), cfg.d_p), emb),
        ("emb.ner", (len(vocab.ner_index), cfg.d_n), emb),
    ]
    taps = sum(k * f for k, f in zip(encoder.CHAR_WIDTHS, encoder.split_filter_counts(cfg.char_out)))
    table += [("cnn.w", (cfg.d_c, taps), weight), ("cnn.b", (cfg.char_out,), 0.0)]
    token_dim = cfg.word_dim + cfg.char_out + cfg.d_p + cfg.d_n
    for name, input_dim in (("utt_gru", token_dim), ("ctx_gru", d)):
        table += [
            (f"{name}.w", (2, input_dim, 3 * hid), weight),
            (f"{name}.u", (2, hid, 3 * hid), weight),
            (f"{name}.b", (2, 3 * hid), 0.0),
        ]
    table += [
        ("ctx.w", (2 * hid, d), weight), ("ctx.b", (d,), 0.0),
        ("sel.w", (d, cfg.attn_dim), weight), ("sel.b", (cfg.attn_dim,), 0.0),
        ("sel.v", (cfg.attn_dim, 1), weight), ("sel.trans", (2, 2), 0.0),
        ("crf.act_emb", (n_acts, d), weight),
        ("crf.emit_wu", (d, cfg.emit_dim), weight), ("crf.emit_wc", (d, cfg.emit_dim), weight),
        ("crf.emit_b", (cfg.emit_dim,), 0.0), ("crf.emit_wout", (cfg.emit_dim, n_acts), weight),
        ("crf.trans", (n_acts, n_acts), 0.0),
    ]
    return table


def meta_path(checkpoint_path):
    return f"{checkpoint_path}.meta.json"

