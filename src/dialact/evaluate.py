"""Accuracy, confusion matrices, and the attention/marginal export.

Accuracy is plain utterance-level agreement: correct predictions over
total utterances, pooled across conversations. Confusion rows index the
true label, columns the predicted one; row-normalized rates ship with
the counts so heatmaps can be rendered by external tooling.

The attention export is a JSON document per conversation carrying node
and edge marginals, the selection weights gamma, the memory attention
matrix, and the decoded path; one forward per inference chunk, as in
decoding. Schema (version 1)::

    {"version": 1, "conversation_id": str, "acts": [str],
     "viterbi_path": [str], "viterbi_score": float, "log_partition": float,
     "node_marginals": [[float]],            # n x Y
     "edge_marginals": [[[float]]],          # (n-1) x Y x Y
     "selection_gamma": [float],             # n
     "memory_attention": [[float]]}          # n x n
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import crf

EXPORT_VERSION = 1


class AlignmentError(ValueError):
    """Prediction/gold sequences of different lengths."""


def _check_aligned(preds, golds, ids=None):
    if len(preds) != len(golds):
        raise AlignmentError(f"{len(preds)} predicted conversations vs {len(golds)} gold")
    for i, (p, g) in enumerate(zip(preds, golds)):
        if len(p) != len(g):
            name = ids[i] if ids is not None else f"#{i}"
            raise AlignmentError(
                f"conversation {name}: {len(p)} predictions vs {len(g)} gold labels"
            )


def accuracy(preds, golds, ids=None):
    """Fraction of utterances labeled correctly, over all conversations."""
    _check_aligned(preds, golds, ids)
    total = correct = 0
    for p_seq, g_seq in zip(preds, golds):
        for p, g in zip(p_seq, g_seq):
            total += 1
            correct += int(p == g)
    if total == 0:
        raise ValueError("no utterances to score")
    return correct / total


@dataclass(frozen=True)
class EvalReport:
    """Counts plus per-label rates; rows true, columns predicted."""

    labels: tuple
    confusion: np.ndarray  # (Y, Y) counts
    accuracy: float
    precision: np.ndarray  # (Y,)
    recall: np.ndarray  # (Y,)
    total_utterances: int

    def normalized_rows(self):
        sums = self.confusion.sum(axis=1, keepdims=True)
        return self.confusion / np.maximum(sums, 1)

    def to_json_obj(self):
        return {
            "labels": list(self.labels),
            "accuracy": self.accuracy,
            "total_utterances": self.total_utterances,
            "confusion": self.confusion.tolist(),
            "confusion_row_rates": self.normalized_rows().tolist(),
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
        }


def confusion(preds, golds, labels, ids=None):
    """Build the full report from aligned label-name sequences.

    Gold names missing from ``labels`` (acts the model never saw) are
    appended after them, so those utterances count as errors.
    """
    _check_aligned(preds, golds, ids)
    labels = tuple(dict.fromkeys([*labels, *(g for g_seq in golds for g in g_seq)]))
    index = {name: i for i, name in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for p_seq, g_seq in zip(preds, golds):
        for p, g in zip(p_seq, g_seq):
            counts[index[g], index[p]] += 1
    total = int(counts.sum())
    if total == 0:
        raise ValueError("no utterances to score")
    diag = np.diag(counts).astype(float)
    col = counts.sum(axis=0).astype(float)
    row = counts.sum(axis=1).astype(float)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    return EvalReport(
        labels=labels,
        confusion=counts,
        accuracy=float(diag.sum() / total),
        precision=precision,
        recall=recall,
        total_utterances=total,
    )


def evaluate_model(model, conversations):
    """Decode and score a labeled corpus; returns (EvalReport, predictions)."""
    preds = model.decode(conversations)
    golds = [[u.act for u in c.utterances] for c in conversations]
    ids = [c.id for c in conversations]
    report = confusion(preds, golds, model.vocab.act_names, ids=ids)
    return report, preds


def export_attention(conversations, model):
    """Attention/marginal documents in input order, one ``forward_backward`` and Viterbi call per chunk."""
    names = model.vocab.act_names
    docs = [None] * len(conversations)
    for chunk, scores, selection, enc in model.inference_chunks(conversations):
        marginals = crf.forward_backward(*scores)
        paths, best = crf.viterbi_decode(*scores)
        for b, (i, n) in enumerate(zip(chunk, scores[-1])):
            docs[i] = {
                "version": EXPORT_VERSION,
                "conversation_id": conversations[i].id,
                "acts": list(names),
                "viterbi_path": [names[y] for y in paths[b, :n]],
                "viterbi_score": float(best[b]),
                "log_partition": float(marginals.logZ[b]),
                "node_marginals": marginals.node[b, :n].tolist(),
                "edge_marginals": marginals.edge[b, : n - 1].tolist(),
                "selection_gamma": selection.gamma.data[b, :n].tolist(),
                "memory_attention": enc.attention.data[b, :n, :n].tolist(),
            }
    return docs


def write_report(path, report):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.to_json_obj(), f, indent=2)


def write_attention_jsonl(path, documents):
    with open(path, "w", encoding="utf-8") as f:
        for doc in documents:
            f.write(json.dumps(doc) + "\n")
