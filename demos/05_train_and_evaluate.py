"""End to end: generate data, train, score against references, export.

A small version of the full experiment: synthesize conversations with
known structure, fit the model, and compare its test accuracy against
the majority class, a context-free logistic classifier over mean word
embeddings, and the generating model's own Viterbi decode (the ceiling).
Takes a minute or two on one core.
"""

import json

import numpy as np

from dialact import baselines, evaluate, synthetic
from dialact.corpus import build_vocab
from dialact.model import DialogueActModel
from dialact.train import TrainConfig, train_loop

spec = synthetic.default_spec(
    num_acts=5, self_transition=0.7, num_conversations=200, min_len=6, max_len=10, seed=3
)
convs, generator = synthetic.generate_synthetic(spec)
train_c, valid_c, test_c = convs[:150], convs[150:175], convs[175:]

majority_acc, majority_label = baselines.majority_baseline(train_c, test_c)
vocab = build_vocab(train_c)
word_matrix = np.random.default_rng(0).uniform(-0.05, 0.05, (len(vocab.word_index), 100))
word_matrix[0] = 0.0
logistic_acc = baselines.logistic_baseline(train_c, test_c, vocab, word_matrix)
bayes_acc = generator.decode_accuracy(test_c)

cfg = TrainConfig(d=32, d_u=16, lr=0.05, ema_decay=0.9, max_epochs=20, patience=4, seed=5)
trained, best_state, history = train_loop(train_c, valid_c, cfg, log=print)
model = DialogueActModel(trained.vocab, cfg, weights=best_state)  # the best EMA shadows as weights

report, preds = evaluate.evaluate_model(model, test_c)
print(f"\ntest accuracy        {report.accuracy:.3f}")
print(f"majority class       {majority_acc:.3f}  (always '{majority_label}')")
print(f"logistic on mean emb {logistic_acc:.3f}  (no conversation context)")
print(f"generator Viterbi    {bayes_acc:.3f}  (true-model ceiling)")

print("\nper-act recall:")
for name, r in zip(report.labels, report.recall):
    print(f"  {name:12s} {r:.3f}")

doc = evaluate.export_attention(test_c[0], model)
print(f"\nattention export for {doc['conversation_id']}:")
print(f"  decoded path: {doc['viterbi_path']}")
print(f"  selection gamma: {['%.2f' % g for g in doc['selection_gamma']]}")
with open("attention_demo.json", "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=2)
print("wrote attention_demo.json (node/edge marginals, memory attention, path)")
