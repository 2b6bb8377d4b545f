"""Command-line entry point.

Subcommands wire the library end to end:

    dialact gen-synthetic --spec s.cfg --out train.jsonl [--seed N]
    dialact train --train t.jsonl --valid v.jsonl --checkpoint m.ckpt
                  [--config c.cfg] [--out history.jsonl] [--embeddings g.txt]
    dialact eval --checkpoint m.ckpt --test test.jsonl --out report.json
    dialact predict --checkpoint m.ckpt --test in.jsonl --out labeled.jsonl
    dialact export-attn --checkpoint m.ckpt --test test.jsonl --out attn.jsonl
    dialact gradcheck [--seed N]
    dialact oracle-check [--trials N] [--max-n N] [--max-labels N] [--seed N]

Exit codes: 0 success, 1 usage error, 2 validation or oracle failure.
A flag value out of range is a usage error: oracle-check needs
--trials >= 1, --max-n >= 1, --max-labels >= 2 and at most
``oracles.MAX_SEQUENCES`` label sequences per chain (--max-labels **
--max-n); every --seed of gradcheck and oracle-check is >= 0.
A numpy overflow, division by zero or invalid value (say, from an ``lr``
or ``l2`` too large to train with) is a validation failure too, reported
in one line, and so is an input too large to allocate. A single --seed
drives every source of randomness in a subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import evaluate, oracles, synthetic
from . import autograd as ag
from .corpus import Conversation, TranscriptError, Utterance, build_vocab, parse_jsonl, write_jsonl
from .model import DialogueActModel
from .train import TrainConfig, parse_config_file, train_loop, write_history

USAGE_ERROR = 1
VALIDATION_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _int_at_least(low):
    """An argparse type: an int no smaller than ``low``; the parser names the flag."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser():
    parser = _Parser(prog="dialact", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-synthetic", help="sample a corpus from a generator spec")
    p.add_argument("--spec", required=True, help="key-value generator spec file")
    p.add_argument("--out", required=True, help="output transcript JSONL")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")

    p = sub.add_parser("train", help="fit a model on labeled transcripts")
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--valid", required=True, dest="valid_path")
    p.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p.add_argument("--config", default=None, help="key-value training config")
    p.add_argument("--out", default=None, help="history JSONL (default <checkpoint>.history.jsonl)")
    p.add_argument("--embeddings", default=None, help="pretrained word-vector text file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="score a labeled test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, dest="test_path")
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("predict", help="label transcripts with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, dest="test_path", help="input transcript JSONL")
    p.add_argument("--out", required=True, help="labeled transcript JSONL")

    p = sub.add_parser("export-attn", help="write per-conversation attention JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, dest="test_path")
    p.add_argument("--out", required=True, help="attention JSONL path")

    p = sub.add_parser("gradcheck", help="finite-difference check on a toy model")
    p.add_argument("--seed", type=_int_at_least(0), default=42)

    p = sub.add_parser("oracle-check", help="brute-force equivalence suites")
    p.add_argument("--trials", type=_int_at_least(1), default=200)
    p.add_argument("--max-n", type=_int_at_least(1), default=6, dest="max_n")
    p.add_argument("--max-labels", type=_int_at_least(2), default=4, dest="max_labels")
    p.add_argument("--seed", type=_int_at_least(0), default=42)
    return parser


def cmd_gen_synthetic(args):
    spec = synthetic.parse_spec_file(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    convs, generator = synthetic.generate_synthetic(spec)
    write_jsonl(args.out, convs)
    print(f"wrote {len(convs)} conversations to {args.out}")
    print(f"generator Viterbi accuracy on this corpus: {generator.decode_accuracy(convs):.4f}")
    return 0


def cmd_train(args):
    cfg = parse_config_file(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    train_convs = parse_jsonl(args.train_path)
    valid_convs = parse_jsonl(args.valid_path)
    log = None if args.quiet else print
    model, best_state, history = train_loop(
        train_convs, valid_convs, cfg, embeddings_path=args.embeddings, log=log
    )
    model.save(args.checkpoint, state=best_state)
    history_path = args.out or f"{args.checkpoint}.history.jsonl"
    write_history(history_path, history)
    best = max(h["val_accuracy"] for h in history)
    print(f"wrote checkpoint {args.checkpoint} (best val accuracy {best:.4f})")
    print(f"wrote history {history_path}")
    return 0


def cmd_eval(args):
    model = DialogueActModel.load(args.checkpoint)
    convs = parse_jsonl(args.test_path)
    unlabeled = [c.id for c in convs if not c.fully_labeled()]
    if unlabeled:
        raise TranscriptError(f"test conversations missing acts: {unlabeled[:5]}")
    report, _ = evaluate.evaluate_model(model, convs)
    evaluate.write_report(args.out, report)
    print(f"accuracy {report.accuracy:.4f} over {report.total_utterances} utterances")
    print(f"wrote report {args.out}")
    return 0


def cmd_predict(args):
    model = DialogueActModel.load(args.checkpoint)
    convs = parse_jsonl(args.test_path)
    preds = model.decode(convs)
    labeled = []
    for conv, acts in zip(convs, preds):
        utts = tuple(
            Utterance(tokens=u.tokens, speaker=u.speaker, act=act)
            for u, act in zip(conv.utterances, acts)
        )
        labeled.append(Conversation(id=conv.id, utterances=utts))
    write_jsonl(args.out, labeled)
    print(f"wrote {len(labeled)} labeled conversations to {args.out}")
    return 0


def cmd_export_attn(args):
    model = DialogueActModel.load(args.checkpoint)
    convs = parse_jsonl(args.test_path)
    docs = evaluate.export_attention(convs, model)
    evaluate.write_attention_jsonl(args.out, docs)
    print(f"wrote attention export for {len(docs)} conversations to {args.out}")
    return 0


def cmd_gradcheck(args):
    """Full-loss finite-difference suite on a deliberately tiny model."""
    spec = synthetic.default_spec(
        num_acts=3, self_transition=0.6, num_conversations=2, min_len=2, max_len=3, seed=args.seed
    )
    convs, _ = synthetic.generate_synthetic(spec)
    vocab = build_vocab(convs)
    cfg = TrainConfig(
        d=8, d_u=4, d_c=4, d_p=3, d_n=3, word_dim=6, char_out=6, attn_dim=4, emit_dim=4,
        dropout=0.0, seed=args.seed,
    )
    model = DialogueActModel(vocab, cfg, rng=np.random.default_rng(args.seed))
    report = ag.grad_check(
        lambda: model.loss(convs, train=False), model.params, eps=1e-4, tol=1e-4,
        max_per_tensor=50, seed=args.seed,
    )
    print(report.summary())
    return 0 if report.passed else VALIDATION_ERROR


def cmd_oracle_check(args):
    chain = oracles.chain_oracle_suite(
        trials=args.trials, max_n=args.max_n, max_labels=args.max_labels, seed=args.seed
    )
    selection = oracles.selection_oracle_suite(
        trials=max(100, args.trials // 2), max_n=10, seed=args.seed
    )
    print(chain.line())
    print(selection.line())
    return 0 if chain.ok and selection.ok else VALIDATION_ERROR


_COMMANDS = {
    "gen-synthetic": cmd_gen_synthetic,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "export-attn": cmd_export_attn,
    "gradcheck": cmd_gradcheck,
    "oracle-check": cmd_oracle_check,
}


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # max_n is capped before the power (max_labels >= 2), so a huge value costs nothing to reject
    if args.command == "oracle-check" and args.max_labels ** min(args.max_n, 64) > oracles.MAX_SEQUENCES:
        parser.error(
            f"argument --max-n: --max-labels ** --max-n must be <= {oracles.MAX_SEQUENCES} "
            f"label sequences to enumerate, got {args.max_labels} ** {args.max_n}"
        )
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, FloatingPointError, MemoryError) as e:  # + TranscriptError, JSONDecodeError
        print(f"dialact {args.command}: {str(e) or type(e).__name__}", file=sys.stderr)
        return VALIDATION_ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
