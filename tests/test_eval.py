"""Accuracy, confusion reports, attention export round-trips."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact import evaluate, oracles, synthetic
from dialact.corpus import Conversation, Token, Utterance, build_vocab
from dialact.evaluate import AlignmentError, accuracy, confusion, export_attention
from dialact.model import DialogueActModel
from dialact.train import TrainConfig

TOY_CFG = TrainConfig(
    d=8, d_u=4, d_c=4, d_p=3, d_n=3, word_dim=6, char_out=6, attn_dim=4, emit_dim=4,
    dropout=0.0, seed=0,
)


def test_accuracy_extremes_and_counts():
    assert accuracy([["a", "b"]], [["a", "b"]]) == 1.0
    assert accuracy([["a", "b"]], [["b", "a"]]) == 0.0
    assert accuracy([["a", "b"], ["a", "a"]], [["a", "b"], ["b", "a"]]) == 0.75


def test_accuracy_is_one_minus_hamming():
    rng = np.random.default_rng(0)
    labels = ["p", "q", "r"]
    preds = [[labels[i] for i in rng.integers(0, 3, size=7)] for _ in range(5)]
    golds = [[labels[i] for i in rng.integers(0, 3, size=7)] for _ in range(5)]
    hamming = sum(p != g for ps, gs in zip(preds, golds) for p, g in zip(ps, gs))
    assert accuracy(preds, golds) == pytest.approx(1.0 - hamming / 35.0)


def test_accuracy_mismatch_names_conversation():
    with pytest.raises(AlignmentError, match="conv-9"):
        accuracy([["a"]], [["a", "b"]], ids=["conv-9"])


def test_confusion_perfect_is_diagonal():
    report = confusion([["a", "b", "b"]], [["a", "b", "b"]], labels=["a", "b"])
    assert np.array_equal(report.confusion, [[1, 0], [0, 2]])
    assert report.accuracy == 1.0
    assert np.array_equal(report.precision, [1.0, 1.0])


def test_confusion_swap_case():
    report = confusion([["b", "a"]], [["a", "b"]], labels=["a", "b"])
    assert np.array_equal(report.confusion, [[0, 1], [1, 0]])
    assert report.accuracy == 0.0


def test_confusion_appends_unseen_gold_labels():
    report = confusion([["a", "b", "a"]], [["a", "z", "y"]], labels=["a", "b"])
    assert report.labels == ("a", "b", "z", "y")
    assert report.confusion.shape == (4, 4)
    assert report.confusion[2, 1] == 1 and report.confusion[3, 0] == 1
    assert report.accuracy == pytest.approx(1 / 3)
    assert report.recall[2] == report.recall[3] == 0.0


def test_confusion_row_and_column_sums():
    rng = np.random.default_rng(1)
    labels = ["x", "y", "z"]
    preds = [[labels[i] for i in rng.integers(0, 3, size=50)]]
    golds = [[labels[i] for i in rng.integers(0, 3, size=50)]]
    report = confusion(preds, golds, labels)
    assert report.confusion.sum() == report.total_utterances == 50
    for j, name in enumerate(labels):
        assert report.confusion[j].sum() == golds[0].count(name)
        assert report.confusion[:, j].sum() == preds[0].count(name)
    assert report.accuracy == pytest.approx(np.trace(report.confusion) / 50, abs=1e-12)


def test_dominant_class_predictor_masses_one_column():
    # act mix shaped like a real corpus: statements dominate
    target = np.array([0.36, 0.19, 0.13, 0.06, 0.26])
    names, tables = synthetic.default_phrase_tables(5)
    spec = synthetic.SyntheticSpec(
        5, np.tile(target, (5, 1)), tables, 200, 8, 8, seed=4, act_names=names
    )
    convs, _ = synthetic.generate_synthetic(spec)
    golds = [[u.act for u in c.utterances] for c in convs]
    preds = [["statement"] * len(c) for c in convs]
    report = confusion(preds, golds, names)
    col = list(report.labels).index("statement")
    assert report.confusion[:, col].sum() == report.total_utterances
    assert report.accuracy == pytest.approx(
        sum(g.count("statement") for g in golds) / report.total_utterances
    )


def test_report_json_round_trip(tmp_path):
    report = confusion([["a", "b"]], [["a", "a"]], labels=["a", "b"])
    path = tmp_path / "report.json"
    evaluate.write_report(path, report)
    obj = json.loads(path.read_text())
    assert obj["accuracy"] == report.accuracy
    assert obj["confusion"] == report.confusion.tolist()
    assert obj["total_utterances"] == 2


# ---------------------------------------------------------------------------
# attention export
# ---------------------------------------------------------------------------


def trained_toy():
    spec = synthetic.default_spec(
        num_acts=3, self_transition=0.7, num_conversations=10, min_len=1, max_len=4, seed=6
    )
    convs, _ = synthetic.generate_synthetic(spec)
    model = DialogueActModel(build_vocab(convs), TOY_CFG, rng=np.random.default_rng(7))
    return model, convs


def test_export_single_utterance_conversation():
    model, convs = trained_toy()
    conv = next(c for c in convs if len(c) == 1)
    (doc,) = export_attention([conv], model)
    assert doc["edge_marginals"] == []
    assert np.abs(np.array(doc["node_marginals"]).sum() - 1.0) < 1e-9
    assert len(doc["viterbi_path"]) == 1


def test_export_consistent_with_direct_inference():
    model, convs = trained_toy()
    conv = max(convs, key=len)
    (doc,) = export_attention([conv], model)
    tables, _, _ = model.potential_tables([conv])
    logz, node, edge, path, score = oracles.enumerate_chain(tables[0])
    assert doc["viterbi_path"] == [model.vocab.act_names[y] for y in path]
    assert doc["viterbi_score"] == pytest.approx(score, abs=1e-12)
    assert doc["log_partition"] == pytest.approx(logz, abs=1e-9)
    assert np.abs(np.array(doc["node_marginals"]) - node).max() < 1e-9
    assert np.abs(np.array(doc["edge_marginals"]) - edge).max() < 1e-9


def close(a, b, tol=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= tol


SURFACE = st.text("abcdefghij", min_size=1, max_size=12)
CONVERSATION = st.lists(st.lists(SURFACE, min_size=1, max_size=4), min_size=1, max_size=5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spelled=st.lists(CONVERSATION, min_size=2, max_size=6),
       max_batch=st.integers(1, 5))
def test_chunked_inference_equals_each_conversation_alone(seed, spelled, max_batch):
    """Batch mates change nothing: mixed lengths and surface widths, chunks of 1-5.

    ``decode``, ``potential_tables`` and ``export_attention`` over all the
    conversations give each one's paths exactly, and its unary scores,
    marginals, logZ, gamma and attention to 1e-12, as when it runs alone.
    """
    convs = [
        Conversation(
            id=f"c{i}",
            utterances=tuple(
                Utterance(tokens=tuple(map(Token, words)), speaker="A", act="xy"[j % 2])
                for j, words in enumerate(utts)
            ),
        )
        for i, utts in enumerate(spelled)
    ]
    model = DialogueActModel(build_vocab(convs), replace(TOY_CFG, max_batch=max_batch),
                             rng=np.random.default_rng(seed))
    assert model.decode(convs) == [model.decode([c])[0] for c in convs]
    tables, gammas, attentions = model.potential_tables(convs)
    docs = export_attention(convs, model)
    for conv, table, gamma, attention, doc in zip(convs, tables, gammas, attentions, docs):
        (one_table,), (one_gamma,), (one_attention,) = model.potential_tables([conv])
        (one_doc,) = export_attention([conv], model)
        assert close(table.unary, one_table.unary)
        assert close(gamma, one_gamma) and close(attention, one_attention)
        assert doc["conversation_id"] == conv.id
        assert doc["viterbi_path"] == one_doc["viterbi_path"]
        for key in ("viterbi_score", "log_partition", "node_marginals", "edge_marginals",
                    "selection_gamma", "memory_attention"):
            assert close(doc[key], one_doc[key]), key


def test_export_json_round_trip_exact(tmp_path):
    model, convs = trained_toy()
    docs = export_attention(convs[:3], model)
    path = tmp_path / "attn.jsonl"
    evaluate.write_attention_jsonl(path, docs)
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(parsed) == 3
    for doc, back in zip(docs, parsed):
        assert back["version"] == 1
        assert back["conversation_id"] == doc["conversation_id"]
        for key in ("node_marginals", "edge_marginals", "selection_gamma", "memory_attention"):
            a = np.array(doc[key], dtype=float)
            b = np.array(back[key], dtype=float)
            assert a.shape == b.shape
            if a.size:
                assert np.abs(a - b).max() < 1e-12  # repr round-trip is exact
        assert back["log_partition"] == doc["log_partition"]


def test_export_gamma_and_attention_shapes():
    model, convs = trained_toy()
    conv = max(convs, key=len)
    (doc,) = export_attention([conv], model)
    n = len(conv)
    assert len(doc["selection_gamma"]) == n
    attn = np.array(doc["memory_attention"])
    assert attn.shape == (n, n)
    assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-9


def test_evaluate_model_end_to_end():
    model, convs = trained_toy()
    report, preds = evaluate.evaluate_model(model, convs)
    assert report.total_utterances == sum(len(c) for c in convs)
    assert 0.0 <= report.accuracy <= 1.0
    assert len(preds) == len(convs)


def test_decode_rejects_non_finite_potentials():
    model, convs = trained_toy()
    model.params["crf.trans"].data[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        model.decode(convs)
    model.params["crf.trans"].data[0, 0] = 0.0
    model.params["crf.emit_b"].data[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        model.decode(convs)
