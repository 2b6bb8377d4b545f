"""Transcript parsing, vocabulary construction, embedding loading."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialact import corpus
from dialact.corpus import (
    ABSENT_ID,
    PAD,
    PAD_ID,
    UNK,
    UNK_ID,
    Conversation,
    Token,
    TranscriptError,
    Utterance,
    build_vocab,
    load_pretrained_embeddings,
    parse_jsonl,
    write_jsonl,
)

from helpers import per_token_vocab

# Ten-turn two-speaker snippet: a greeting pair opening, a farewell pair
# closing, question answered in between.
SNIPPET = [
    ("A", "hi long time no see", "greet"),
    ("B", "hi how are you", "greet"),
    ("A", "what are you doing these days", "question"),
    ("B", "i am busy finishing my thesis", "answer"),
    ("A", "i heard the review is due soon", "statement"),
    ("B", "yeah", "backchannel"),
    ("A", "you should pick up the pace", "opinion"),
    ("B", "right that is exactly why i am swamped", "agreement"),
    ("A", "i will let you get back to it goodbye", "farewell"),
    ("B", "see you later", "farewell"),
]


def conv_from_snippet(conv_id="c-table"):
    return Conversation(
        id=conv_id,
        utterances=tuple(
            Utterance(tokens=tuple(Token(w) for w in text.split()), speaker=spk, act=act)
            for spk, text, act in SNIPPET
        ),
    )


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_parse_minimal_record(tmp_path):
    path = tmp_path / "one.jsonl"
    write_lines(
        path,
        ['{"id":"c1","utterances":[{"speaker":"A","tokens":["hello"],"act":"greet"}]}'],
    )
    convs = parse_jsonl(path)
    assert len(convs) == 1
    assert len(convs[0]) == 1
    assert convs[0].utterances[0].act == "greet"
    assert convs[0].utterances[0].tokens[0].surface == "hello"


def test_parse_rejects_empty_utterance(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, ['{"id":"c1","utterances":[{"speaker":"A","tokens":[]}]}'])
    with pytest.raises(TranscriptError, match="tokens"):
        parse_jsonl(path)


def test_parse_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(
        path,
        [
            '{"id":"ok","utterances":[{"speaker":"A","tokens":["x"]}]}',
            "{not json",
        ],
    )
    with pytest.raises(TranscriptError, match=":2:"):
        parse_jsonl(path)


def test_parse_rejects_misaligned_tags(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(
        path,
        ['{"id":"c","utterances":[{"speaker":"A","tokens":["a","b"],"pos":["N"]}]}'],
    )
    with pytest.raises(TranscriptError, match="pos"):
        parse_jsonl(path)


BAD_FIELD_LINES = {
    "pos number": ('{"id":"c","utterances":[{"tokens":["a"],"pos":5}]}', "'pos' must be a list or null"),
    "ner string": ('{"id":"c","utterances":[{"tokens":["a","b"],"ner":"NN"}]}', "'ner' must be a list or null"),
    "tag number": ('{"id":"c","utterances":[{"tokens":["a"],"pos":[7]}]}', "'pos' tag 0 must be a string or null"),
    "utterance number": ('{"id":"c","utterances":[5]}', "must be an object, got int"),
    "utterance list": ('{"id":"c","utterances":[["a"]]}', "must be an object, got list"),
    "null token": ('{"id":"c","utterances":[{"tokens":["a",null]}]}', "token 1 must be a non-empty string, got None"),
    "list token": ('{"id":"c","utterances":[{"tokens":[["a"]]}]}', "token 0 must be a non-empty string"),
    "number token": ('{"id":"c","utterances":[{"tokens":[3]}]}', "token 0 must be a non-empty string, got 3"),
    "empty token": ('{"id":"c","utterances":[{"tokens":[""]}]}', "token 0 must be a non-empty string"),
    "act list": ('{"id":"c","utterances":[{"tokens":["a"],"act":["greet"]}]}', "'act' must be a string or null, got ['greet']"),
    "act number": ('{"id":"c","utterances":[{"tokens":["a"],"act":5}]}', "'act' must be a string or null, got 5"),
    "speaker object": ('{"id":"c","utterances":[{"tokens":["a"],"speaker":{"n":1}}]}', "'speaker' must be a string, got {'n': 1}"),
    "speaker null": ('{"id":"c","utterances":[{"tokens":["a"],"speaker":null}]}', "'speaker' must be a string, got None"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELD_LINES))
def test_parse_rejects_wrong_json_types_naming_utterance(tmp_path, case):
    line, message = BAD_FIELD_LINES[case]
    path = tmp_path / "bad.jsonl"
    write_lines(path, ['{"id":"ok","utterances":[{"tokens":["x"]}]}', line])
    with pytest.raises(TranscriptError) as err:
        parse_jsonl(path)
    assert ":2: conversation 'c', utterance 0: " in str(err.value)
    assert message in str(err.value)


@pytest.mark.parametrize("conv_id", ['["x"]', "7", "null"])
def test_parse_rejects_a_non_string_id(tmp_path, conv_id):
    path = tmp_path / "bad.jsonl"
    write_lines(path, ['{"id":"ok","utterances":[{"tokens":["x"]}]}',
                       '{"id":%s,"utterances":[{"tokens":["x"]}]}' % conv_id])
    with pytest.raises(TranscriptError, match=r":2: 'id' must be a string, got "):
        parse_jsonl(path)


def test_parse_keeps_absent_or_null_act_unlabeled_and_absent_speaker_empty(tmp_path):
    path = tmp_path / "ok.jsonl"
    write_lines(path, ['{"id":"c","utterances":[{"tokens":["a"]},{"tokens":["b"],"act":null,"speaker":"B"}]}'])
    (conv,) = parse_jsonl(path)
    assert [u.act for u in conv.utterances] == [None, None]
    assert [u.speaker for u in conv.utterances] == ["", "B"]


@pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
def test_parse_rejects_a_line_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [line])
    with pytest.raises(TranscriptError, match=":1: a conversation must be an object"):
        parse_jsonl(path)


def test_parse_ten_turn_snippet(tmp_path):
    path = tmp_path / "snippet.jsonl"
    write_jsonl(path, [conv_from_snippet()])
    convs = parse_jsonl(path)
    assert len(convs[0]) == 10
    assert convs[0].acts == [act for _, _, act in SNIPPET]
    assert convs[0].acts[:2] == ["greet", "greet"]
    assert convs[0].acts[-2:] == ["farewell", "farewell"]


def test_round_trip_exact(tmp_path):
    conv_a = conv_from_snippet("a")
    conv_b = Conversation(
        id="b",
        utterances=(
            Utterance(
                tokens=(Token("hello", pos="UH", ner="O"), Token("world", pos="NN", ner="O")),
                speaker="A",
                act="greet",
            ),
            Utterance(tokens=(Token("ok"),), speaker="B"),  # unlabeled, no tags
        ),
    )
    path = tmp_path / "io.jsonl"
    write_jsonl(path, [conv_a, conv_b])
    assert parse_jsonl(path) == [conv_a, conv_b]


def test_null_tags_map_to_absent(tmp_path):
    path = tmp_path / "nulls.jsonl"
    write_lines(
        path,
        ['{"id":"c","utterances":[{"speaker":"A","tokens":["a","b"],'
         '"pos":["NN",null],"ner":[null,"O"]}]}'],
    )
    tokens = parse_jsonl(path)[0].utterances[0].tokens
    assert [(t.pos, t.ner) for t in tokens] == [("NN", None), (None, "O")]
    vocab = build_vocab([make_conv(["a b"], ["x"])])
    assert vocab.pos_id(tokens[1].pos) == vocab.ner_id(tokens[0].ner) == ABSENT_ID


TAGS = st.none() | st.text(max_size=3)
TOKENS = st.builds(Token, surface=st.text(min_size=1, max_size=5), pos=TAGS, ner=TAGS)
UTTERANCES = st.builds(
    Utterance,
    tokens=st.lists(TOKENS, min_size=1, max_size=4).map(tuple),
    speaker=st.text(max_size=3),
    act=st.none() | st.text(max_size=4),
)
CONVERSATIONS = st.builds(
    Conversation, id=st.text(max_size=4), utterances=st.lists(UTTERANCES, min_size=1, max_size=3).map(tuple)
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(convs=st.lists(CONVERSATIONS, min_size=1, max_size=3))
def test_write_then_parse_returns_equal_conversations(tmp_path, convs):
    """Per-token optional tags, optional acts and any (non-ASCII too) surface survive."""
    path = tmp_path / "prop.jsonl"
    write_jsonl(path, convs)
    assert parse_jsonl(path) == convs


def test_parse_shares_one_token_per_distinct_key(tmp_path):
    path = tmp_path / "shared.jsonl"
    write_lines(path, [
        '{"id":"a","utterances":[{"tokens":["hi","hi","there"],"pos":["UH","UH",null]},'
        '{"tokens":["hi","there"],"act":"x"}]}',
        '{"id":"b","utterances":[{"tokens":["hi","there"],"pos":["UH",null],"ner":["O",null]},'
        '{"tokens":["there"],"ner":[null]}]}',
    ])
    a, b = parse_jsonl(path)
    (hi_uh, hi_uh_again, there), (hi, there_no_pos) = (u.tokens for u in a.utterances)
    (hi_uh_o, there_nulls), (there_null_ner,) = (u.tokens for u in b.utterances)
    assert hi_uh is hi_uh_again
    # a null tag and a missing column are one key, across conversations too
    assert there is there_no_pos is there_nulls is there_null_ner
    # tokens differing only in a tag are different objects
    assert hi == Token("hi") and hi_uh == Token("hi", pos="UH") and hi_uh_o == Token("hi", "UH", "O")
    assert len({id(t) for t in (hi, hi_uh, hi_uh_o)}) == 3
    tokens = [t for conv in (a, b) for u in conv.utterances for t in u.tokens]
    assert len({id(t) for t in tokens}) == len(set(tokens)) == 4
    # sharing ends with the call: a second parse builds its own tokens
    assert parse_jsonl(path)[0].utterances[0].tokens[0] is not hi_uh


def test_shared_tokens_write_back_byte_for_byte(tmp_path):
    mixed = Conversation(
        id="m",
        utterances=(
            Utterance(tokens=(Token("a", "DT"), Token("a"), Token("b", "NN", "O")), speaker="A", act="x"),
            Utterance(tokens=(Token("a"), Token("a", ner="O")), speaker="B"),
            Utterance(tokens=(Token("a", "DT"), Token("b", None, "O"), Token("b")), speaker="A", act="y"),
        ),
    )
    first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
    write_jsonl(first, [mixed, conv_from_snippet()])
    write_jsonl(again, parse_jsonl(first))
    assert again.read_bytes() == first.read_bytes()


BOM = "\ufeff"


def test_parse_accepts_a_leading_byte_order_mark_only(tmp_path):
    lines = ['{"id":"a","utterances":[{"tokens":["hi"],"act":"x"}]}',
             '{"id":"b","utterances":[{"tokens":["yo"]}]}']
    plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
    write_lines(plain, lines)
    marked.write_bytes(BOM.encode() + plain.read_bytes())
    assert parse_jsonl(marked) == parse_jsonl(plain)
    marked.write_bytes(BOM.encode() + plain.read_bytes().replace(b"\n", b"\r\n"))  # CRLF line endings
    assert parse_jsonl(marked) == parse_jsonl(plain)
    inner = tmp_path / "inner.jsonl"
    write_lines(inner, [lines[0], BOM + lines[1]])
    with pytest.raises(TranscriptError, match=":2: malformed JSON"):
        parse_jsonl(inner)


# one line of each reader's format, ~250 bytes, holding the character "w" once
NOT_UTF8_READERS = {
    "transcript": ('{"id":"c%d","utterances":[{"tokens":["w' + "o" * 200 + '"],"act":"x"}]}', parse_jsonl),
    "key-values": ("# %d w" + "o" * 240, corpus.read_key_values),
    "embeddings": ("w%d" + "o" * 200 + " 0.5 0.5", lambda path: load_pretrained_embeddings(
        path, build_vocab([make_conv(["hello"], ["x"])]), dim=2)),
}


@pytest.mark.parametrize("reader", sorted(NOT_UTF8_READERS))
@pytest.mark.parametrize("bad_line", [2, 50])
def test_a_byte_that_is_not_utf8_names_the_file_and_its_line(tmp_path, reader, bad_line):
    """Line 50 starts past the first 8 KB, which a text-mode reader decodes in one chunk."""
    line, read = NOT_UTF8_READERS[reader]
    rows = [(line % i).encode() for i in range(60)]
    assert sum(len(row) + 1 for row in rows[:49]) > 8192
    rows[bad_line - 1] = rows[bad_line - 1].replace(b"w", b"\xff")
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\r\n".join(rows) + b"\r\n")
    with pytest.raises(TranscriptError, match=rf"bad\.txt:{bad_line}: byte 0xff is not UTF-8$"):
        read(path)
    rows[bad_line - 1] = (line % (bad_line - 1)).encode()
    path.write_bytes(b"\r\n".join(rows) + b"\r\n")
    read(path)  # the same file without the bad byte reads


def test_token_invariants():
    tok = Token("hello")
    assert (tok.surface, tok.pos, tok.ner) == ("hello", None, None)
    with pytest.raises(TranscriptError):
        Token("")
    with pytest.raises(TranscriptError):
        Utterance(tokens=(), speaker="A")
    with pytest.raises(TranscriptError):
        Conversation(id="x", utterances=())


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def make_conv(phrases, acts):
    return Conversation(
        id="v",
        utterances=tuple(
            Utterance(tokens=tuple(Token(w) for w in p.split()), speaker="A", act=a)
            for p, a in zip(phrases, acts)
        ),
    )


def test_build_vocab_min_count_threshold():
    conv = make_conv(["a a a b"], ["x"])
    vocab = build_vocab([conv], min_count=2)
    assert vocab.word_index == {PAD: 0, UNK: 1, "a": 2}
    assert vocab.word_id("b") == UNK_ID
    assert vocab.word_id("a") == 2


def test_build_vocab_reserved_ids_everywhere():
    conv = make_conv(["hello there"], ["greet"])
    vocab = build_vocab([conv])
    for index in (vocab.word_index, vocab.char_index, vocab.pos_index, vocab.ner_index):
        assert index[PAD] == PAD_ID
        assert index[UNK] == UNK_ID
    assert vocab.pos_index[corpus.ABSENT] == ABSENT_ID
    assert PAD not in vocab.act_index and UNK not in vocab.act_index


def test_pad_spelled_as_input_reads_unk():
    conv = Conversation(
        id="p",
        utterances=(Utterance(tokens=(Token(PAD, pos=PAD, ner=PAD), Token("a", pos="NN")), speaker="A", act="x"),),
    )
    vocab = build_vocab([conv])
    assert vocab.word_index[PAD] == vocab.pos_index[PAD] == vocab.ner_index[PAD] == PAD_ID  # reserved, not counted
    assert vocab.word_id(PAD) == vocab.pos_id(PAD) == vocab.ner_id(PAD) == UNK_ID
    assert vocab.word_id("a") == 2 and vocab.pos_id("NN") == 3


def test_build_vocab_covers_42_act_classes():
    acts = [f"tag{i:02d}" for i in range(42)]
    conv = make_conv([f"w{i}" for i in range(42)], acts)
    vocab = build_vocab([conv])
    assert len(vocab.act_index) == 42
    assert sorted(vocab.act_index) == sorted(acts)


def test_build_vocab_deterministic_and_frequency_ordered(tmp_path):
    conv = make_conv(["b b c a a a", "c b"], ["x", "y"])
    path = tmp_path / "det.jsonl"
    write_jsonl(path, [conv])
    v1 = build_vocab(parse_jsonl(path))
    v2 = build_vocab(parse_jsonl(path))
    assert v1 == v2
    # a:3, b:3, c:2 -> frequency order with lexicographic ties
    assert v1.word_index["a"] == 2
    assert v1.word_index["b"] == 3
    assert v1.word_index["c"] == 4


def test_build_vocab_requires_labels():
    conv = Conversation(
        id="u", utterances=(Utterance(tokens=(Token("hi"),), speaker="A"),)
    )
    with pytest.raises(TranscriptError, match="labeled"):
        build_vocab([conv])
    with pytest.raises(TranscriptError):
        build_vocab([])


SURFACES = st.sampled_from(["a", "b", "ab", "ba", "é", "a b", PAD, UNK, corpus.ABSENT])
VOCAB_TAGS = st.none() | st.sampled_from(["NN", "VB", "O", PAD, corpus.ABSENT])
VOCAB_TOKENS = st.builds(Token, surface=SURFACES, pos=VOCAB_TAGS, ner=VOCAB_TAGS)
VOCAB_CORPORA = st.lists(
    st.builds(
        Conversation,
        id=st.just("v"),
        utterances=st.lists(
            st.builds(
                Utterance,
                tokens=st.lists(VOCAB_TOKENS, min_size=1, max_size=6).map(tuple),
                speaker=st.just("A"),
                act=st.none() | st.sampled_from(["x", "y", "z"]),
            ),
            min_size=1,
            max_size=4,
        ).map(tuple),
    ),
    max_size=4,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(convs=VOCAB_CORPORA, min_count=st.integers(1, 3))
def test_build_vocab_matches_per_token_reference(tmp_path, convs, min_count):
    """Hand-built and parsed (shared) tokens index exactly as one Counter update per token."""
    path = tmp_path / "vocab.jsonl"
    write_jsonl(path, convs)
    parsed = parse_jsonl(path)
    try:
        expected = per_token_vocab(convs, min_count)
    except TranscriptError as e:
        for corpus_ in (convs, parsed):
            with pytest.raises(TranscriptError, match=re.escape(str(e))):
                build_vocab(corpus_, min_count)
        return
    assert build_vocab(convs, min_count) == expected
    assert build_vocab(parsed, min_count) == expected


def test_vocab_json_round_trip():
    vocab = build_vocab([conv_from_snippet()])
    again = corpus.Vocab.from_json_obj(json.loads(json.dumps(vocab.to_json_obj())))
    assert again == vocab


def test_unknown_act_is_closed_set_error():
    vocab = build_vocab([make_conv(["hi"], ["greet"])])
    with pytest.raises(TranscriptError, match="unknown act"):
        vocab.act_id("farewell")


# ---------------------------------------------------------------------------
# pretrained embeddings
# ---------------------------------------------------------------------------


def test_embeddings_copy_pad_and_random_rows(tmp_path):
    vocab = build_vocab([make_conv(["hello world"], ["x"])])
    path = tmp_path / "vecs.txt"
    path.write_text("hello 0.1 0.2\nunrelated 9 9\n", encoding="utf-8")
    matrix = load_pretrained_embeddings(path, vocab, dim=2, rng=np.random.default_rng(0))
    assert np.array_equal(matrix[vocab.word_index["hello"]], [0.1, 0.2])
    assert np.array_equal(matrix[PAD_ID], [0.0, 0.0])
    # "world" is absent from the file: seeded uniform(-0.05, 0.05)
    row = matrix[vocab.word_index["world"]]
    assert np.all(np.abs(row) < 0.05) and np.any(row != 0.0)
    assert np.all(np.abs(matrix[UNK_ID]) < 0.05)


def test_embeddings_dimension_mismatch_names_word(tmp_path):
    vocab = build_vocab([make_conv(["hello"], ["x"])])
    path = tmp_path / "vecs.txt"
    path.write_text("hello 0.1 0.2 0.3\n", encoding="utf-8")
    with pytest.raises(TranscriptError, match=r"vecs\.txt:1: embedding row for 'hello' has 3 values, expected 2"):
        load_pretrained_embeddings(path, vocab, dim=2)


def test_embeddings_non_numeric_value_names_line_and_word(tmp_path):
    vocab = build_vocab([make_conv(["hello world"], ["x"])])
    path = tmp_path / "vecs.txt"
    path.write_text("world 0.5 0.5\nhello 0.1 abc\n", encoding="utf-8")
    with pytest.raises(TranscriptError, match=r"vecs\.txt:2: embedding row for 'hello': .*'abc'"):
        load_pretrained_embeddings(path, vocab, dim=2)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_embeddings_reject_non_finite_values_naming_line_and_word(tmp_path, bad):
    vocab = build_vocab([make_conv(["hello world"], ["x"])])
    path = tmp_path / "vecs.txt"
    path.write_text(f"world 0.5 0.5\nhello 0.1 {bad}\n", encoding="utf-8")
    with pytest.raises(TranscriptError, match=r"vecs\.txt:2: .*'hello' is not finite"):
        load_pretrained_embeddings(path, vocab, dim=2)


def test_embeddings_accept_a_leading_byte_order_mark(tmp_path):
    vocab = build_vocab([make_conv(["hello world"], ["x"])])
    path = tmp_path / "vecs.txt"
    path.write_text("hello 0.1 0.2\nworld 0.3 0.4\n", encoding="utf-8-sig")
    matrix = load_pretrained_embeddings(path, vocab, dim=2)
    assert np.array_equal(matrix[vocab.word_index["hello"]], [0.1, 0.2])
    assert np.array_equal(matrix[vocab.word_index["world"]], [0.3, 0.4])


def test_every_encoded_id_indexes_its_table(tmp_path):
    from dialact.encoder import prepare_batch

    conv = conv_from_snippet()
    vocab = build_vocab([conv])
    batch = prepare_batch([conv], vocab)
    assert batch.word.max() < len(vocab.word_index) and batch.word.min() >= 0
    assert batch.char.max() < len(vocab.char_index) and batch.char.min() >= 0
    assert batch.pos.max() < len(vocab.pos_index)
    assert batch.ner.max() < len(vocab.ner_index)
    # packed rows are exactly the real tokens, utterance by utterance
    assert batch.lengths.tolist() == [len(u.tokens) for u in conv.utterances]
    assert batch.types.shape == batch.pos.shape == batch.ner.shape == (batch.lengths.sum(),)
    # word ids and characters are stored once per type; ``types`` maps back
    tokens = [tok for u in conv.utterances for tok in u.tokens]
    surfaces = {tok.surface for tok in tokens}
    assert batch.word.shape == (len(surfaces),) and batch.char.shape[0] == len(surfaces)
    assert batch.types.min() >= 0 and batch.types.max() < len(surfaces)
    assert batch.word[batch.types].tolist() == [vocab.word_id(tok.surface) for tok in tokens]
    assert batch.char.shape[1] == max(4, max(len(s) for s in surfaces))
    for tok, row in zip(tokens, batch.char[batch.types]):
        spelled = [vocab.char_id(ch) for ch in tok.surface]
        assert row.tolist() == spelled + [PAD_ID] * (row.size - len(spelled))
    # no POS/NER columns in the snippet: real tokens carry the ABSENT tag
    assert np.all(batch.pos == ABSENT_ID)
    assert np.all(batch.ner == ABSENT_ID)
