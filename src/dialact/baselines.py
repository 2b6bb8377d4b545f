"""Context-free reference classifiers for accuracy comparisons.

Both ignore conversation structure entirely: the majority baseline
predicts the most common training act everywhere, and the logistic
baseline is a multinomial softmax regression over the mean of each
utterance's word-embedding rows. They set the floor any structured model
has to clear.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .evaluate import accuracy


def majority_baseline(train_convs, eval_convs):
    """Accuracy of always predicting the most frequent training act."""
    counts = Counter(u.act for c in train_convs for u in c.utterances if u.act is not None)
    top = counts.most_common(1)[0][0]
    return accuracy([[top] * len(c) for c in eval_convs], [c.acts for c in eval_convs]), top


def _mean_embedding_features(conversations, vocab, word_matrix):
    rows = []
    labels = []
    for conv in conversations:
        for utt in conv.utterances:
            ids = [vocab.word_id(t.surface) for t in utt.tokens]
            rows.append(word_matrix[ids].mean(axis=0))
            labels.append(vocab.act_index[utt.act] if utt.act in vocab.act_index else -1)
    return np.array(rows), np.array(labels, dtype=np.int64)


def logistic_baseline(
    train_convs, eval_convs, vocab, word_matrix, steps=400, lr=0.5, l2=1e-4, seed=0
):
    """Softmax regression on mean word embeddings; returns eval accuracy.

    Full-batch adaptive-step training from a zero init; deterministic.
    """
    x_train, y_train = _mean_embedding_features(train_convs, vocab, word_matrix)
    x_eval, y_eval = _mean_embedding_features(eval_convs, vocab, word_matrix)
    n_acts = len(vocab.act_index)
    dim = x_train.shape[1]
    weights = np.zeros((dim, n_acts))
    bias = np.zeros(n_acts)
    acc_w = np.zeros_like(weights)
    acc_b = np.zeros_like(bias)
    onehot = np.eye(n_acts)[y_train]
    for _ in range(steps):
        logits = x_train @ weights + bias
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        delta = (probs - onehot) / len(y_train)
        gw = x_train.T @ delta + l2 * weights
        gb = delta.sum(axis=0)
        acc_w += gw * gw
        acc_b += gb * gb
        weights -= lr * gw / np.sqrt(np.maximum(acc_w, 1e-12))
        bias -= lr * gb / np.sqrt(np.maximum(acc_b, 1e-12))
    pred = np.argmax(x_eval @ weights + bias, axis=1)
    return float((pred == y_eval).mean())
