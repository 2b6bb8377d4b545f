"""The full network: encoder, selection attention, and label chain.

Owns the parameter registry, the loss graph for a batch of conversations,
decoding, and checkpoint round-trips. A batch of any conversation lengths
runs as one graph, the chains taking one length per conversation.
``decode`` sorts conversations by length and runs chunks of at most
``cfg.max_batch``, so a long conversation pads only its length neighbours.

There is one parameter namespace, the checkpoint names (``emb.word``,
``utt_fwd.w_r``, ``sel.trans``, ``crf.start`` ...). Every layer takes a
flat ``params`` mapping from those names to tensors and reads its own
entries. ``loss`` passes ``registry.params``, whose tensors require a
gradient and are recorded on the live tape. Inference (``decode``,
``accuracy``, ``potential_tables``, ``conversation_detail``) passes fresh
grad-free tensors over the current arrays, or over ``weights`` such as
``registry.ema``; it records nothing on any tape and writes no shared
state, so it may run next to training in another thread.

A checkpoint is the binary tensor container written by
:mod:`dialact.autograd` plus a ``<path>.meta.json`` sidecar carrying the
vocabulary and configuration needed to rebuild the model around the
tensors.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from . import autograd as ag
from . import crf, encoder, evaluate
from .corpus import PAD_ID, TranscriptError, Vocab

META_VERSION = 1


class DialogueActModel:
    """Hierarchical encoder + selection attention + label chain."""

    def __init__(self, vocab, cfg, rng=None, weights=None):
        """Build every parameter; ``weights`` maps names to initial arrays.

        The other parameters draw from ``rng`` in :func:`parameter_table`
        order. Either way the ``emb.*`` tables get a zero, pinned PAD row.
        """
        self.vocab = vocab
        self.cfg = cfg
        weights = weights or {}
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.registry = ag.ParamRegistry()
        for name, shape, scale in parameter_table(vocab, cfg):
            if name in weights:
                value = np.array(weights[name], dtype=np.float64)
                if value.shape != shape:
                    raise ValueError(f"{name} shape {value.shape} does not match vocab/config {shape}")
            else:
                value = rng.uniform(-scale, scale, shape) if scale else np.zeros(shape)
            frozen = None
            if name.startswith("emb."):
                value[PAD_ID] = 0.0
                frozen = [PAD_ID]
            self.registry.add(name, value, frozen_rows=frozen)

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
        unary, trans = crf.compute_potentials(finals, selection.context, params, batch.utt_counts)
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
        params = self.registry.params
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

    def _snapshot(self, weights):
        """Name -> array: a shallow copy of ``weights``, or of the current weights.

        Training rebinds weight arrays and never writes into them, so the
        arrays of a snapshot never change under its reader.
        """
        if weights is None:
            return {name: t.data for name, t in self.registry.params.items()}
        return dict(weights)

    def chain_scores(self, conversations, weights=None):
        """Numpy chain scores of one batch (no tape, no dropout).

        ``weights`` maps checkpoint names to arrays (e.g. ``registry.ema``);
        by default the current weights are used. Either way the forward runs
        on grad-free tensors over those arrays, so it records nothing on any
        live tape. Returns ((unary (B, N, Y), transition, lengths (B,)),
        selection, encoded): scores are the engine's arguments, and unary
        includes any ``crf.start``/``crf.stop`` boundary scores.
        """
        weights = self._snapshot(weights)
        params = {name: ag.Tensor(value) for name, value in weights.items()}
        batch = encoder.prepare_batch(conversations, self.vocab)
        unary, trans, selection, enc = self.forward(batch, params)
        return (unary.data, trans.data, batch.utt_counts), selection, enc

    def potential_tables(self, conversations):
        """Per-conversation PotentialTables, cropped to each length, sharing one transition table."""
        (unary, trans, lengths), selection, enc = self.chain_scores(conversations)
        tables = [crf.PotentialTable(u[:n], trans) for u, n in zip(unary, lengths)]
        return tables, selection, enc

    def decode(self, conversations, weights=None):
        """Viterbi act names per conversation, in input order.

        Gold acts are ignored, so acts unseen in training are fine. Each
        chunk of at most ``cfg.max_batch`` conversations, in stable length
        order, is one batched Viterbi call; every chunk reads the same
        snapshot of ``weights`` (default: the current weights).
        """
        weights = self._snapshot(weights)
        order = sorted(range(len(conversations)), key=lambda i: len(conversations[i]))
        results = [None] * len(conversations)
        names = self.vocab.act_names
        for lo in range(0, len(order), self.cfg.max_batch):
            chunk = order[lo : lo + self.cfg.max_batch]
            scores, _, _ = self.chain_scores([conversations[i] for i in chunk], weights)
            paths, _ = crf.viterbi_decode(*scores)
            for i, path, n in zip(chunk, paths, scores[-1]):
                results[i] = [names[y] for y in path[:n]]
        return results

    def conversation_detail(self, conv):
        """Everything the attention export needs, as numpy arrays."""
        scores, selection, enc = self.chain_scores([conv])
        marginals = crf.forward_backward(*scores)
        paths, best = crf.viterbi_decode(*scores)
        return {
            "log_partition": float(marginals.logZ[0]),
            "node_marginals": marginals.node[0],
            "edge_marginals": marginals.edge[0],
            "viterbi_path": paths[0].tolist(),
            "viterbi_score": float(best[0]),
            "selection_gamma": selection.gamma.data[0].copy(),
            "memory_attention": enc.attention.data[0].copy(),
        }

    def accuracy(self, conversations, weights=None):
        """Utterance-level decode accuracy against gold acts, under ``weights``."""
        return evaluate.accuracy(self.decode(conversations, weights), [c.acts for c in conversations])

    # -- persistence --------------------------------------------------------

    def save(self, path, state=None):
        """Write tensors (binary) plus the vocab/config sidecar."""
        ag.save_checkpoint(path, state if state is not None else self.registry.state_dict())
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
        with open(sidecar, encoding="utf-8") as f:
            text = f.read()
        try:
            meta = json.loads(text)
            if not isinstance(meta, dict) or meta.get("version") != META_VERSION:
                raise ValueError(f"expected an object with version {META_VERSION}")
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
    ``emb.*`` tables also get a zero, pinned PAD row.
    """
    n_acts, d, hid, emb, weight = len(vocab.act_index), cfg.d, cfg.d_u, 0.05, 0.08
    table = [
        ("emb.word", (len(vocab.word_index), cfg.word_dim), emb),
        ("emb.char", (len(vocab.char_index), cfg.d_c), emb),
        ("emb.pos", (len(vocab.pos_index), cfg.d_p), emb),
        ("emb.ner", (len(vocab.ner_index), cfg.d_n), emb),
    ]
    for width, count in zip(encoder.CHAR_WIDTHS, encoder.split_filter_counts(cfg.char_out)):
        table += [(f"cnn.w{width}", (width * cfg.d_c, count), weight), (f"cnn.b{width}", (count,), 0.0)]
    token_dim = cfg.word_dim + cfg.char_out + cfg.d_p + cfg.d_n
    for prefix, input_dim in (("utt_fwd", token_dim), ("utt_bwd", token_dim), ("ctx_fwd", d), ("ctx_bwd", d)):
        for gate in encoder.GRU_GATES:
            table += [
                (f"{prefix}.w_{gate}", (input_dim, hid), weight),
                (f"{prefix}.u_{gate}", (hid, hid), weight),
                (f"{prefix}.b_{gate}", (hid,), 0.0),
            ]
    table += [
        ("ctx.w_fwd", (hid, d), weight), ("ctx.w_bwd", (hid, d), weight), ("ctx.b", (d,), 0.0),
        ("sel.w", (d, cfg.attn_dim), weight), ("sel.b", (cfg.attn_dim,), 0.0),
        ("sel.v", (cfg.attn_dim, 1), weight), ("sel.trans", (2, 2), 0.0),
        ("crf.act_emb", (n_acts, d), weight),
        ("crf.emit_wu", (d, cfg.emit_dim), weight), ("crf.emit_wc", (d, cfg.emit_dim), weight),
        ("crf.emit_b", (cfg.emit_dim,), 0.0), ("crf.emit_wout", (cfg.emit_dim, n_acts), weight),
        ("crf.trans", (n_acts, n_acts), 0.0),
    ]
    if cfg.boundary_potentials:
        table += [("crf.start", (n_acts,), 0.0), ("crf.stop", (n_acts,), 0.0)]
    return table


def meta_path(checkpoint_path):
    return f"{checkpoint_path}.meta.json"

