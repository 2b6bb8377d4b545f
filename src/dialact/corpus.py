"""Transcript data model, JSONL ingestion, vocabulary, pretrained embeddings,
and the flat ``key = value`` reader behind config and spec files.

A transcript file is line-delimited JSON, one conversation per line:

    {"id": str, "utterances": [{"speaker": str, "tokens": [str],
                                "pos": [str]?, "ner": [str]?, "act": str?}]}

Tokens arrive pre-tokenized and pre-normalized. POS/NER columns are
optional, and so is each tag in them (``null``); a missing tag maps to a
dedicated ABSENT tag with its own learned embedding. Acts are optional
per utterance (absent or ``null`` means unlabeled), but every utterance
must carry one at training time. A value of the wrong JSON type is an
error; nothing is converted to a string. Every reader drops a leading UTF-8
byte-order mark, and a byte that is not UTF-8 is an error naming its line.

``parse_jsonl`` builds one ``Token`` per distinct (surface, pos, ner) in a
file and shares it among every occurrence; a ``Token`` is immutable, so
the sharing cannot be observed. Past the per-token JSON checks, parsing
and ``build_vocab`` cost per distinct token, not per occurrence.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD = "<pad>"
UNK = "<unk>"
ABSENT = "<absent>"

PAD_ID = 0
UNK_ID = 1
ABSENT_ID = 2  # pos/ner tables only


class TranscriptError(ValueError):
    """Malformed or invalid transcript content."""


@dataclass(frozen=True)
class Token:
    """One word with its optional tags; immutable.

    Tokens read from one file are shared: equal tokens are one object.
    """

    surface: str
    pos: str | None = None
    ner: str | None = None

    def __post_init__(self):
        if not self.surface:
            raise TranscriptError("token surface must be non-empty")


@dataclass(frozen=True)
class Utterance:
    tokens: tuple
    speaker: str
    act: str | None = None

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise TranscriptError("utterance must contain at least one token")


@dataclass(frozen=True)
class Conversation:
    id: str
    utterances: tuple

    def __post_init__(self):
        if len(self.utterances) == 0:
            raise TranscriptError(f"conversation {self.id!r} has no utterances")

    def __len__(self):
        return len(self.utterances)

    @property
    def acts(self):
        return [u.act for u in self.utterances]

    def fully_labeled(self):
        return all(u.act is not None for u in self.utterances)


def _utterance_from_obj(obj, conv_id, index, interned):
    where = f"conversation {conv_id!r}, utterance {index}"
    if not isinstance(obj, dict):
        raise TranscriptError(f"{where}: must be an object, got {type(obj).__name__}")
    tokens = obj.get("tokens")
    if not isinstance(tokens, list) or not tokens:
        raise TranscriptError(f"{where}: 'tokens' must be a non-empty list")
    for i, t in enumerate(tokens):
        if not isinstance(t, str) or not t:
            raise TranscriptError(f"{where}: token {i} must be a non-empty string, got {t!r}")
    pos = obj.get("pos")
    ner = obj.get("ner")
    for name, tags in (("pos", pos), ("ner", ner)):
        if tags is None:
            continue
        if not isinstance(tags, list):
            raise TranscriptError(f"{where}: '{name}' must be a list or null, got {type(tags).__name__}")
        if len(tags) != len(tokens):
            raise TranscriptError(f"{where}: '{name}' length {len(tags)} != {len(tokens)} tokens")
        for i, t in enumerate(tags):
            if t is not None and not isinstance(t, str):
                raise TranscriptError(f"{where}: '{name}' tag {i} must be a string or null, got {t!r}")

    toks = []
    for key in zip(tokens, pos or [None] * len(tokens), ner or [None] * len(tokens)):
        tok = interned.get(key)
        if tok is None:
            tok = interned[key] = Token(*key)
        toks.append(tok)
    speaker = obj.get("speaker", "")
    if not isinstance(speaker, str):
        raise TranscriptError(f"{where}: 'speaker' must be a string, got {speaker!r}")
    act = obj.get("act")
    if act is not None and not isinstance(act, str):
        raise TranscriptError(f"{where}: 'act' must be a string or null, got {act!r}")
    return Utterance(tokens=tuple(toks), speaker=speaker, act=act)


def parse_jsonl(path):
    """Read conversations in file order; raises with the 1-based line number.

    Equal tokens share one ``Token``: ``interned`` maps each (surface, pos,
    ner) seen in this file to it, and is dropped on return.
    """
    conversations = []
    interned = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise TranscriptError(f"{path}:{lineno}: malformed JSON ({e.msg})") from e
        except RecursionError:
            raise TranscriptError(f"{path}:{lineno}: JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise TranscriptError(f"{path}:{lineno}: a conversation must be an object")
        try:
            conv_id = obj["id"]
            if not isinstance(conv_id, str):
                raise TranscriptError(f"'id' must be a string, got {conv_id!r}")
            utts = obj["utterances"]
            if not isinstance(utts, list) or not utts:
                raise TranscriptError("'utterances' must be a non-empty list")
            conversations.append(
                Conversation(
                    id=conv_id,
                    utterances=tuple(
                        _utterance_from_obj(u, conv_id, i, interned) for i, u in enumerate(utts)
                    ),
                )
            )
        except KeyError as e:
            raise TranscriptError(f"{path}:{lineno}: missing field {e.args[0]!r}") from e
        except TranscriptError as e:
            raise TranscriptError(f"{path}:{lineno}: {e}") from e
    return conversations


def read_lines(path):
    """Yield (1-based line number, line) of a UTF-8 text file, split as text mode splits it.

    A leading byte-order mark is dropped. A byte that is not UTF-8 raises
    ``TranscriptError`` naming the file and its line (a strict reader decodes
    8 KB ahead, so its error cannot). It decodes to a lone surrogate, which
    UTF-8 never yields, so only a line that is not ASCII is re-encoded.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    byte = ord(line[e.start]) - 0xDC00
                    raise TranscriptError(f"{path}:{lineno}: byte {byte:#04x} is not UTF-8") from None
            yield lineno, line


def read_key_values(path):
    """``key = value`` lines as {key: (line number, value)}; ``#`` comments; bad lines raise."""
    pairs = {}
    for lineno, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TranscriptError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise TranscriptError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = (lineno, value)
    return pairs


def conversation_to_obj(conv):
    utts = []
    for u in conv.utterances:
        obj = {"speaker": u.speaker, "tokens": [t.surface for t in u.tokens]}
        if any(t.pos is not None for t in u.tokens):
            obj["pos"] = [t.pos for t in u.tokens]
        if any(t.ner is not None for t in u.tokens):
            obj["ner"] = [t.ner for t in u.tokens]
        if u.act is not None:
            obj["act"] = u.act
        utts.append(obj)
    return {"id": conv.id, "utterances": utts}


def write_jsonl(path, conversations):
    with open(path, "w", encoding="utf-8") as f:
        for conv in conversations:
            f.write(json.dumps(conversation_to_obj(conv)) + "\n")


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocab:
    """Symbol -> dense id maps; PAD=0 and UNK=1 everywhere except acts.

    Acts are a closed set: no PAD/UNK, ids cover exactly the observed
    labels. POS and NER tables additionally reserve ABSENT=2 for missing
    input columns. PAD is filler, not a symbol: ``word_id``, ``pos_id`` and
    ``ner_id`` map ``<pad>`` to UNK like any symbol outside the table
    (``get`` gives None or PAD_ID, 0, and both read UNK).
    """

    word_index: dict
    char_index: dict
    pos_index: dict
    ner_index: dict
    act_index: dict

    @property
    def act_names(self):
        return _symbols(self.act_index)

    def word_id(self, w):
        return self.word_index.get(w) or UNK_ID

    def char_id(self, c):
        return self.char_index.get(c, UNK_ID)

    def pos_id(self, p):
        if p is None:
            return ABSENT_ID
        return self.pos_index.get(p) or UNK_ID

    def ner_id(self, n):
        if n is None:
            return ABSENT_ID
        return self.ner_index.get(n) or UNK_ID

    def act_id(self, a):
        if a not in self.act_index:
            raise TranscriptError(f"unknown act label {a!r}; training acts are a closed set")
        return self.act_index[a]

    def to_json_obj(self):
        return {
            "words": _symbols(self.word_index),
            "chars": _symbols(self.char_index),
            "pos": _symbols(self.pos_index),
            "ner": _symbols(self.ner_index),
            "acts": _symbols(self.act_index),
        }

    @staticmethod
    def from_json_obj(obj):
        """Inverse of ``to_json_obj``; a bad structure raises ``ValueError`` naming the key."""
        if not isinstance(obj, dict) or set(obj) != set(_RESERVED):
            raise ValueError(f"vocab must be an object with the keys {list(_RESERVED)}")
        for key, reserved in _RESERVED.items():
            symbols = obj[key]
            if not (
                isinstance(symbols, list)
                and symbols
                and all(isinstance(sym, str) for sym in symbols)
                and len(set(symbols)) == len(symbols)
                and symbols[: len(reserved)] == list(reserved)
            ):
                raise ValueError(f"vocab {key!r} must be a non-empty list of distinct strings, first {reserved}")
        return Vocab(
            word_index={s: i for i, s in enumerate(obj["words"])},
            char_index={s: i for i, s in enumerate(obj["chars"])},
            pos_index={s: i for i, s in enumerate(obj["pos"])},
            ner_index={s: i for i, s in enumerate(obj["ner"])},
            act_index={s: i for i, s in enumerate(obj["acts"])},
        )


# each vocabulary list of a sidecar, with the symbols its first ids are reserved for
_RESERVED = {
    "words": (PAD, UNK), "chars": (PAD, UNK), "pos": (PAD, UNK, ABSENT), "ner": (PAD, UNK, ABSENT), "acts": (),
}


def _symbols(index):
    """The symbols of a dense id map, in id order."""
    return sorted(index, key=index.get)


def _ranked(counter):
    """Most frequent first; lexicographic order breaks frequency ties."""
    # sorted() stays stable with reverse=True, so equal counts keep lexicographic order
    return sorted(sorted(counter), key=counter.__getitem__, reverse=True)


def build_vocab(conversations, min_count=1):
    """Index every table from the corpus; pure function of its inputs."""
    if not conversations:
        raise TranscriptError("cannot build a vocabulary from an empty corpus")
    utterances = [utt for conv in conversations for utt in conv.utterances]
    acts = Counter(utt.act for utt in utterances if utt.act is not None)
    if not acts:
        raise TranscriptError("corpus has no labeled utterance; cannot index acts")
    tokens = [tok for utt in utterances for tok in utt.tokens]
    words = Counter([tok.surface for tok in tokens])
    # one C-level count over every distinct word repeated by its count
    chars = Counter("".join([word * n for word, n in words.items()]))
    pos = Counter([tok.pos for tok in tokens])
    ner = Counter([tok.ner for tok in tokens])
    del pos[None], ner[None]  # untagged tokens; a Counter ignores a missing key

    def table(counter, reserved, threshold=1):
        kept = {sym: n for sym, n in counter.items() if n >= threshold and sym not in reserved}
        return {sym: i for i, sym in enumerate((*reserved, *_ranked(kept)))}

    return Vocab(
        word_index=table(words, (PAD, UNK), threshold=min_count),
        char_index=table(chars, (PAD, UNK)),
        pos_index=table(pos, (PAD, UNK, ABSENT)),
        ner_index=table(ner, (PAD, UNK, ABSENT)),
        act_index={sym: i for i, sym in enumerate(_ranked(acts))},
    )


# ---------------------------------------------------------------------------
# pretrained embeddings
# ---------------------------------------------------------------------------


def load_pretrained_embeddings(path, vocab, dim, rng=None):
    """Word matrix (|V_w| x dim): file rows where available, else uniform.

    Out-of-file words (UNK included) draw from uniform(-0.05, 0.05) using
    ``rng``; the PAD row is all zeros. A row of the wrong width, or a
    non-numeric or non-finite value in a loaded row, raises
    ``TranscriptError`` naming the file, the line and the word.
    """
    if rng is None:
        rng = np.random.default_rng(42)
    n_words = len(vocab.word_index)
    matrix = rng.uniform(-0.05, 0.05, size=(n_words, dim))
    matrix[PAD_ID] = 0.0
    for lineno, line in read_lines(path):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        word, values = parts[0], parts[1:]
        where = f"{path}:{lineno}: embedding row for {word!r}"
        if len(values) != dim:
            raise TranscriptError(f"{where} has {len(values)} values, expected {dim}")
        idx = vocab.word_index.get(word)
        if idx is not None and idx != PAD_ID:
            try:
                row = np.array([float(v) for v in values])
            except ValueError as e:
                raise TranscriptError(f"{where}: {e}") from None
            if not np.isfinite(row).all():
                raise TranscriptError(f"{where} is not finite")
            matrix[idx] = row
    return matrix
