"""Synthetic conversations from a first-order Markov chain over acts.

Each conversation samples an act sequence from a row-stochastic
transition matrix (first act from the chain's stationary distribution),
and each act emits one phrase from its categorical template table. The
generating model is returned alongside the corpus so its own Viterbi
decode can serve as an accuracy reference for anything trained on the
data.

Spec files are flat key-value text (``#`` comments allowed)::

    num_acts = 3
    num_conversations = 20
    min_len = 4
    max_len = 9
    seed = 7
    self_transition = 0.7            # symmetric matrix shortcut, or:
    act_names = greet question statement
    transition.greet = 0.8 0.1 0.1
    phrases.greet = hello there | hi | good morning
    phrase_weights.greet = 0.5 0.3 0.2

Acts without explicit phrase tables draw from the built-in dialogue
template bank (requires num_acts <= 8).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import crf
from .corpus import Conversation, TranscriptError, Token, Utterance, read_key_values
from .evaluate import accuracy

LOG_ZERO = -1e30  # finite stand-in for log(0) inside potential tables

# Template bank: per act, unique cue phrases. A shared ambiguous pool is
# mixed in by default_phrase_tables so lexical evidence alone cannot
# resolve every utterance and context has to carry the rest.
_BANK = {
    "greet": ["hi there", "hello", "hi long time no see", "good morning", "hey nice to see you"],
    "question": [
        "what are you doing these days",
        "how did it go",
        "where are you working now",
        "when is the deadline",
        "do you want to join us",
    ],
    "answer": [
        "i am busy finishing my thesis",
        "it went fine",
        "i work at the lab now",
        "the deadline is friday",
        "sure i would love to",
    ],
    "statement": [
        "i heard the submission date moved up",
        "the meeting moved to monday",
        "i am working on my projects",
        "the results look solid",
        "the review came back yesterday",
    ],
    "backchannel": ["uh huh", "yeah", "i see", "right right", "mm hm"],
    "opinion": [
        "i think it is great",
        "you should pick up the pace",
        "i do not believe it can work",
        "that seems risky to me",
        "this looks promising",
    ],
    "agreement": ["that is exactly it", "i cannot agree more", "sure that makes sense", "fair enough", "agreed"],
    "farewell": ["goodbye", "see you later", "i will let you get back to it goodbye", "talk soon", "bye for now"],
}
_AMBIGUOUS_POOL = ["okay", "well", "you know", "so anyway", "all right", "hm okay then"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator configuration; validated on construction."""

    num_acts: int
    act_transition: np.ndarray  # (num_acts, num_acts), rows sum to 1
    act_phrase_tables: tuple  # per act: tuple of ((token, ...), probability)
    num_conversations: int
    min_len: int
    max_len: int
    seed: int
    act_names: tuple = ()

    def __post_init__(self):
        trans = np.asarray(self.act_transition, dtype=np.float64)
        object.__setattr__(self, "act_transition", trans)
        if trans.shape != (self.num_acts, self.num_acts):
            raise ValueError(f"transition shape {trans.shape} != ({self.num_acts}, {self.num_acts})")
        rowsum = trans.sum(axis=1)
        if np.abs(rowsum - 1.0).max() > 1e-9:
            raise ValueError(f"transition rows must sum to 1 +- 1e-9, got {rowsum}")
        if (trans < 0).any():
            raise ValueError("transition probabilities must be nonnegative")
        if len(self.act_phrase_tables) != self.num_acts:
            raise ValueError("need one phrase table per act")
        for table in self.act_phrase_tables:
            total = sum(p for _, p in table)
            if not table or abs(total - 1.0) > 1e-9:
                raise ValueError("each phrase table must be a nonempty distribution")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"need 1 <= min_len <= max_len, got {self.min_len}..{self.max_len}")
        if self.num_conversations < 1:
            raise ValueError("num_conversations must be positive")
        names = self.act_names or tuple(f"act{i}" for i in range(self.num_acts))
        if len(names) != self.num_acts or len(set(names)) != self.num_acts:
            raise ValueError("act_names must be distinct, one per act")
        object.__setattr__(self, "act_names", tuple(names))


def stationary_distribution(transition):
    """Left eigenvector of the chain for eigenvalue 1, normalized."""
    transition = np.asarray(transition, dtype=np.float64)
    values, vectors = np.linalg.eig(transition.T)
    idx = int(np.argmin(np.abs(values - 1.0)))
    pi = np.real(vectors[:, idx])
    pi = np.abs(pi)
    return pi / pi.sum()


@dataclass(frozen=True)
class GeneratorModel:
    """The true generative process; the Bayes reference decoder."""

    act_names: tuple
    transition: np.ndarray
    initial: np.ndarray
    phrase_tables: tuple  # per act: tuple of ((token, ...), probability)
    emission_log_probs: dict = field(init=False)  # phrase tuple -> (num_acts,) log p

    def __post_init__(self):
        table = {}
        k = len(self.act_names)
        for act, phrases in enumerate(self.phrase_tables):
            for phrase, prob in phrases:
                row = table.setdefault(tuple(phrase), np.zeros(k))
                row[act] += prob
        logs = {
            phrase: np.where(mass > 0.0, np.log(np.where(mass > 0.0, mass, 1.0)), LOG_ZERO)
            for phrase, mass in table.items()
        }
        object.__setattr__(self, "emission_log_probs", logs)

    def potentials_for(self, conv):
        """Chain potentials whose Viterbi path is the MAP act sequence; row 0 holds log p(first act)."""
        k = len(self.act_names)
        unary = np.empty((len(conv), k))
        for t, utt in enumerate(conv.utterances):
            phrase = tuple(tok.surface for tok in utt.tokens)
            unary[t] = self.emission_log_probs.get(phrase, np.full(k, LOG_ZERO))
        with np.errstate(divide="ignore"):
            log_trans = np.where(self.transition > 0, np.log(np.maximum(self.transition, 1e-300)), LOG_ZERO)
            log_init = np.where(self.initial > 0, np.log(np.maximum(self.initial, 1e-300)), LOG_ZERO)
        unary[0] += log_init
        return crf.PotentialTable(unary=unary, transition=log_trans)

    def viterbi_acts(self, conv):
        pot = self.potentials_for(conv)
        paths, _ = crf.viterbi_decode(pot.unary[None], pot.transition)
        return [self.act_names[y] for y in paths[0]]

    def decode_accuracy(self, conversations):
        """Fraction of utterances the true model itself decodes correctly."""
        return accuracy([self.viterbi_acts(c) for c in conversations], [c.acts for c in conversations])

    def to_json_obj(self):
        return {
            "act_names": list(self.act_names),
            "transition": self.transition.tolist(),
            "initial": self.initial.tolist(),
            "phrase_tables": [
                [[list(phrase), prob] for phrase, prob in table] for table in self.phrase_tables
            ],
        }

    @staticmethod
    def from_json_obj(obj):
        return GeneratorModel(
            act_names=tuple(obj["act_names"]),
            transition=np.asarray(obj["transition"], dtype=np.float64),
            initial=np.asarray(obj["initial"], dtype=np.float64),
            phrase_tables=tuple(
                tuple((tuple(phrase), float(prob)) for phrase, prob in table)
                for table in obj["phrase_tables"]
            ),
        )


def save_generator(path, model):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model.to_json_obj(), f, indent=2)


def load_generator(path):
    with open(path, encoding="utf-8") as f:
        return GeneratorModel.from_json_obj(json.load(f))


def generate_synthetic(spec):
    """Sample the corpus; returns (conversations, GeneratorModel).

    Fully reproducible from ``spec.seed``: the same spec yields a
    byte-identical corpus.
    """
    rng = np.random.default_rng(spec.seed)
    initial = stationary_distribution(spec.act_transition)
    phrase_lists = [
        ([phrase for phrase, _ in table], np.array([p for _, p in table]))
        for table in spec.act_phrase_tables
    ]
    conversations = []
    for c in range(spec.num_conversations):
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        utterances = []
        act = int(rng.choice(spec.num_acts, p=initial))
        for t in range(length):
            if t > 0:
                act = int(rng.choice(spec.num_acts, p=spec.act_transition[act]))
            phrases, weights = phrase_lists[act]
            phrase = phrases[int(rng.choice(len(phrases), p=weights))]
            utterances.append(
                Utterance(
                    tokens=tuple(Token(surface=w) for w in phrase),
                    speaker="A" if t % 2 == 0 else "B",
                    act=spec.act_names[act],
                )
            )
        conversations.append(Conversation(id=f"synth-{c:04d}", utterances=tuple(utterances)))
    model = GeneratorModel(
        act_names=spec.act_names,
        transition=spec.act_transition.copy(),
        initial=initial,
        phrase_tables=tuple(tuple((tuple(p), float(w)) for p, w in table) for table in spec.act_phrase_tables),
    )
    return conversations, model


# ---------------------------------------------------------------------------
# convenience builders
# ---------------------------------------------------------------------------


def symmetric_transition(num_acts, self_transition):
    """Self-loop probability on the diagonal, remainder spread uniformly."""
    if num_acts < 2:
        raise ValueError("need at least two acts")
    off = (1.0 - self_transition) / (num_acts - 1)
    trans = np.full((num_acts, num_acts), off)
    np.fill_diagonal(trans, self_transition)
    return trans


def default_phrase_tables(num_acts, ambiguous_mass=0.45):
    """Template tables from the built-in bank plus a shared ambiguous pool.

    Each act keeps ``1 - ambiguous_mass`` of its probability on its own cue
    phrases and spreads the rest uniformly over phrases every act shares,
    so per-utterance lexical evidence is deliberately incomplete.
    """
    names = list(_BANK)
    if num_acts > len(names):
        raise ValueError(f"built-in bank covers at most {len(names)} acts")
    tables = []
    for i in range(num_acts):
        own = _BANK[names[i]]
        table = [(tuple(p.split()), (1.0 - ambiguous_mass) / len(own)) for p in own]
        table += [
            (tuple(p.split()), ambiguous_mass / len(_AMBIGUOUS_POOL)) for p in _AMBIGUOUS_POOL
        ]
        tables.append(tuple(table))
    return tuple(names[:num_acts]), tuple(tables)


def default_spec(
    num_acts=5,
    self_transition=0.7,
    num_conversations=100,
    min_len=4,
    max_len=12,
    seed=42,
    ambiguous_mass=0.45,
):
    names, tables = default_phrase_tables(num_acts, ambiguous_mass)
    return SyntheticSpec(
        num_acts=num_acts,
        act_transition=symmetric_transition(num_acts, self_transition),
        act_phrase_tables=tables,
        num_conversations=num_conversations,
        min_len=min_len,
        max_len=max_len,
        seed=seed,
        act_names=names,
    )


# ---------------------------------------------------------------------------
# spec config files
# ---------------------------------------------------------------------------


def parse_spec_file(path):
    """Flat key-value spec; see the module docstring for the grammar."""
    raw = {key: value for key, (_, value) in read_key_values(path).items()}

    def take_int(key, default=None):
        if key in raw:
            return int(raw.pop(key))
        if default is None:
            raise TranscriptError(f"{path}: missing required key {key!r}")
        return default

    num_acts = take_int("num_acts")
    num_conversations = take_int("num_conversations")
    min_len = take_int("min_len")
    max_len = take_int("max_len")
    seed = take_int("seed", 42)

    if "act_names" in raw:
        names = tuple(raw.pop("act_names").split())
    else:
        names = tuple(_BANK)[:num_acts] if num_acts <= len(_BANK) else tuple(
            f"act{i}" for i in range(num_acts)
        )
    if len(names) != num_acts:
        raise TranscriptError(f"{path}: act_names lists {len(names)} names for {num_acts} acts")

    if "self_transition" in raw:
        trans = symmetric_transition(num_acts, float(raw.pop("self_transition")))
    else:
        trans = np.empty((num_acts, num_acts))
        for i, name in enumerate(names):
            key = f"transition.{name}"
            if key not in raw:
                raise TranscriptError(f"{path}: missing {key!r} (or use self_transition)")
            row = [float(v) for v in raw.pop(key).split()]
            if len(row) != num_acts:
                raise TranscriptError(f"{path}: {key!r} needs {num_acts} values")
            trans[i] = row

    tables = []
    explicit = any(k.startswith("phrases.") for k in raw)
    if explicit:
        for name in names:
            key = f"phrases.{name}"
            if key not in raw:
                raise TranscriptError(f"{path}: missing {key!r}")
            phrases = [tuple(p.split()) for p in raw.pop(key).split("|")]
            phrases = [p for p in phrases if p]
            wkey = f"phrase_weights.{name}"
            if wkey in raw:
                weights = [float(v) for v in raw.pop(wkey).split()]
                if len(weights) != len(phrases):
                    raise TranscriptError(f"{path}: {wkey!r} needs {len(phrases)} weights")
                total = sum(weights)
                weights = [w / total for w in weights]
            else:
                weights = [1.0 / len(phrases)] * len(phrases)
            tables.append(tuple(zip(phrases, weights)))
        tables = tuple(tables)
    else:
        bank_names, tables = default_phrase_tables(num_acts)
        if "act_names" not in raw and names == tuple(_BANK)[:num_acts]:
            names = bank_names

    if raw:
        raise TranscriptError(f"{path}: unknown keys {sorted(raw)}")

    return SyntheticSpec(
        num_acts=num_acts,
        act_transition=trans,
        act_phrase_tables=tables,
        num_conversations=num_conversations,
        min_len=min_len,
        max_len=max_len,
        seed=seed,
        act_names=names,
    )
