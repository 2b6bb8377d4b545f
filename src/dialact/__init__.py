"""Structured dialogue-act sequence labeling.

A numpy-only toolkit that tags each utterance in a conversation with a
dialogue act. Utterances pass through a hierarchical encoder (character
CNN + word features, word-level BiGRU, conversation-level BiGRU, memory
attention with residual hops); a latent binary-chain selection layer
produces a soft conversation context; and a linear-chain layer over act
labels is trained by exact maximum likelihood and decoded with Viterbi.

Modules
-------
autograd    tape-based reverse-mode differentiation, gradient check, checkpoints
corpus      transcript data model, JSONL io, vocabulary, embeddings
synthetic   Markov-chain corpus generator with a Bayes reference decoder
encoder     token embedding, BiGRUs, memory attention
crf         chain potentials, forward-backward, Viterbi, selection layer
oracles     brute-force enumeration references and randomized suites
model       end-to-end network assembly and checkpoint round-trips
train       adaptive-gradient training loop, EMA shadows, early stopping
baselines   majority-class and mean-embedding logistic references
evaluate    accuracy, confusion reports, attention export
cli         command-line entry point (``dialact --help``)
"""

from .corpus import Conversation, Token, Utterance, Vocab, build_vocab, parse_jsonl, write_jsonl
from .model import DialogueActModel
from .train import TrainConfig, train_loop

__version__ = "0.1.0"

__all__ = [
    "Conversation",
    "Token",
    "Utterance",
    "Vocab",
    "build_vocab",
    "parse_jsonl",
    "write_jsonl",
    "DialogueActModel",
    "TrainConfig",
    "train_loop",
    "__version__",
]
