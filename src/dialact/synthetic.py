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
template bank; acts past its eight get pseudo-word cue phrases, a
function of the act index alone. Either way, every act shares one
ambiguous pool.
"""

from __future__ import annotations

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
AMBIGUOUS_MASS = 0.45  # each act's probability on the shared pool
# Pseudo-words for acts past the bank are spelled in these syllables. No bank
# or pool phrase is spelled in them alone, so no pseudo-word phrase equals one.
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_CUES_PER_ACT = 5


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
        if self.num_acts < 1:
            raise ValueError(f"num_acts must be >= 1, got {self.num_acts}")
        trans = np.asarray(self.act_transition, dtype=np.float64)
        object.__setattr__(self, "act_transition", trans)
        if trans.shape != (self.num_acts, self.num_acts):
            raise ValueError(f"transition shape {trans.shape} != ({self.num_acts}, {self.num_acts})")
        if not np.isfinite(trans).all():
            raise ValueError("transition probabilities must be finite")
        rowsum = trans.sum(axis=1)
        if np.abs(rowsum - 1.0).max() > 1e-9:
            raise ValueError(f"transition rows must sum to 1 +- 1e-9, got {rowsum}")
        if (trans < 0).any():
            raise ValueError("transition probabilities must be nonnegative")
        if len(self.act_phrase_tables) != self.num_acts:
            raise ValueError("need one phrase table per act")
        for table in self.act_phrase_tables:
            if not all(0 <= p < np.inf for _, p in table):  # NaN fails any comparison
                raise ValueError("phrase probabilities must be finite and nonnegative")
            total = sum(p for _, p in table)
            if not table or abs(total - 1.0) > 1e-9:
                raise ValueError("each phrase table must be a nonempty distribution")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"need 1 <= min_len <= max_len, got {self.min_len}..{self.max_len}")
        if self.num_conversations < 1:
            raise ValueError("num_conversations must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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

def generate_synthetic(spec):
    """Sample the corpus; returns (conversations, GeneratorModel).

    Fully reproducible from ``spec.seed``: the same spec yields a
    byte-identical corpus.
    """
    rng = np.random.default_rng(spec.seed)
    initial = stationary_distribution(spec.act_transition)
    phrase_lists = [
        ([tuple(Token(surface=w) for w in phrase) for phrase, _ in table], np.array([p for _, p in table]))
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
                    tokens=phrase,
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


def _default_act_names(num_acts):
    """The bank's act names for up to eight acts, else ``act0``, ``act1``, ..."""
    if num_acts <= len(_BANK):
        return tuple(_BANK)[:num_acts]
    return tuple(f"act{i}" for i in range(num_acts))


def _pseudo_word(n):
    """A pseudo-word of two or more syllables, a different one for each n >= 0."""
    digits = []
    while n or len(digits) < 2:
        n, digit = divmod(n, len(_SYLLABLES))
        digits.append(_SYLLABLES[digit])
    return "".join(reversed(digits))


def _pseudo_cue_phrases(act):
    """The cue phrases of an act past the bank, from the act index alone.

    Phrase j starts with its own word, ``_pseudo_word(5 * act + j)``, so no
    two acts share a phrase; up to two one-syllable words, drawn by a
    generator seeded with the act index, follow it.
    """
    rng = np.random.default_rng(act)
    return [
        " ".join([_pseudo_word(_CUES_PER_ACT * act + j), *rng.choice(_SYLLABLES, size=rng.integers(0, 3))])
        for j in range(_CUES_PER_ACT)
    ]


def default_phrase_tables(num_acts):
    """Template tables from the built-in bank plus a shared ambiguous pool.

    Each act keeps ``1 - AMBIGUOUS_MASS`` of its probability on its own cue
    phrases and spreads the rest uniformly over phrases every act shares,
    so per-utterance lexical evidence is deliberately incomplete. Acts past
    the bank's eight take pseudo-word cue phrases.
    """
    bank = list(_BANK.values())
    tables = []
    for i in range(num_acts):
        own = bank[i] if i < len(bank) else _pseudo_cue_phrases(i)
        table = [(tuple(p.split()), (1.0 - AMBIGUOUS_MASS) / len(own)) for p in own]
        table += [
            (tuple(p.split()), AMBIGUOUS_MASS / len(_AMBIGUOUS_POOL)) for p in _AMBIGUOUS_POOL
        ]
        tables.append(tuple(table))
    return _default_act_names(num_acts), tuple(tables)


def default_spec(
    num_acts=5,
    self_transition=0.7,
    num_conversations=100,
    min_len=4,
    max_len=12,
    seed=42,
):
    names, tables = default_phrase_tables(num_acts)
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

    def number(key, cast, text):
        try:
            return cast(text)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise TranscriptError(f"{path}: {key!r} must be {kind}, got {text!r}") from None

    def take_int(key, default=None):
        if key in raw:
            return number(key, int, raw.pop(key))
        if default is None:
            raise TranscriptError(f"{path}: missing required key {key!r}")
        return default

    num_acts = take_int("num_acts")
    if num_acts < 1:
        raise TranscriptError(f"{path}: 'num_acts' must be >= 1, got {num_acts}")
    num_conversations = take_int("num_conversations")
    min_len = take_int("min_len")
    max_len = take_int("max_len")
    seed = take_int("seed", 42)

    names = tuple(raw.pop("act_names").split()) if "act_names" in raw else _default_act_names(num_acts)
    if len(names) != num_acts:
        raise TranscriptError(f"{path}: act_names lists {len(names)} names for {num_acts} acts")

    if "self_transition" in raw:
        stay = number("self_transition", float, raw.pop("self_transition"))
        if not 0.0 <= stay <= 1.0:  # NaN fails too
            raise TranscriptError(f"{path}: 'self_transition' must be in [0, 1], got {stay}")
        if num_acts < 2:
            raise TranscriptError(f"{path}: 'num_acts' must be >= 2 with 'self_transition', got {num_acts}")
        trans = symmetric_transition(num_acts, stay)
    else:
        trans = np.empty((num_acts, num_acts))
        for i, name in enumerate(names):
            key = f"transition.{name}"
            if key not in raw:
                raise TranscriptError(f"{path}: missing {key!r} (or use self_transition)")
            row = [number(key, float, v) for v in raw.pop(key).split()]
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
            if not phrases:
                raise TranscriptError(f"{path}: {key!r} lists no phrase")
            wkey = f"phrase_weights.{name}"
            if wkey in raw:
                weights = [number(wkey, float, v) for v in raw.pop(wkey).split()]
                if len(weights) != len(phrases):
                    raise TranscriptError(f"{path}: {wkey!r} needs {len(phrases)} weights")
                total = sum(weights)
                # NaN fails w >= 0, and an inf weight makes the total inf
                if not (all(w >= 0 for w in weights) and 0 < total < np.inf):
                    raise TranscriptError(f"{path}: {wkey!r} must be finite, nonnegative and sum above 0")
                weights = [w / total for w in weights]
            else:
                weights = [1.0 / len(phrases)] * len(phrases)
            tables.append(tuple(zip(phrases, weights)))
        tables = tuple(tables)
    else:
        _, tables = default_phrase_tables(num_acts)

    if raw:
        raise TranscriptError(f"{path}: unknown keys {sorted(raw)}")

    try:
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
    except ValueError as e:  # the spec's own checks name the field
        raise TranscriptError(f"{path}: {e}") from None
