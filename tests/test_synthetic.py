"""Generator: chain statistics, reproducibility, spec files, Bayes decoding."""

import hashlib
import re

import numpy as np
import pytest

from dialact import synthetic
from dialact.corpus import TranscriptError, write_jsonl
from dialact.synthetic import (
    GeneratorModel,
    SyntheticSpec,
    default_phrase_tables,
    default_spec,
    generate_synthetic,
    parse_spec_file,
    stationary_distribution,
    symmetric_transition,
)

# chi-square upper critical values at p = 0.01 by degrees of freedom
CHI2_CRIT_99 = {2: 9.2103, 3: 11.3449, 4: 13.2767, 5: 15.0863}


def acts_of(conversations):
    return [u.act for c in conversations for u in c.utterances]


def test_spec_validation():
    names, tables = default_phrase_tables(3)
    bad = np.array([[0.5, 0.4, 0.2], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])  # row 0 sums 1.1
    with pytest.raises(ValueError, match="sum to 1"):
        SyntheticSpec(3, bad, tables, 5, 2, 4, 0, names)
    with pytest.raises(ValueError, match="min_len"):
        SyntheticSpec(3, symmetric_transition(3, 0.7), tables, 5, 5, 4, 0, names)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SyntheticSpec(3, symmetric_transition(3, 0.7), tables, 5, 2, 4, -1, names)
    for trans in (symmetric_transition(3, np.nan), np.full((3, 3), np.nan)):
        with pytest.raises(ValueError, match="transition probabilities must be finite"):
            SyntheticSpec(3, trans, tables, 5, 2, 4, 0, names)
    for probs in ((np.nan, 1.0), (1.5, -0.5)):
        bad_tables = (tuple(zip(((("a",), ("b",))), probs)), *tables[1:])
        with pytest.raises(ValueError, match="phrase probabilities must be finite and nonnegative"):
            SyntheticSpec(3, symmetric_transition(3, 0.7), bad_tables, 5, 2, 4, 0, names)
    for num_acts in (0, -1):
        with pytest.raises(ValueError, match=f"num_acts must be >= 1, got {num_acts}"):
            SyntheticSpec(num_acts, np.empty((0, 0)), (), 5, 2, 4, 0, ())


def test_high_self_transition_yields_adjacent_repeats():
    spec = default_spec(num_acts=4, self_transition=0.9, num_conversations=120,
                        min_len=8, max_len=12, seed=17)
    convs, _ = generate_synthetic(spec)
    repeats = total = 0
    for conv in convs:
        acts = [u.act for u in conv.utterances]
        for a, b in zip(acts, acts[1:]):
            total += 1
            repeats += int(a == b)
    assert total > 1000
    # Binomial(total, 0.9): chance of an observed rate below 0.80 is negligible
    assert repeats / total >= 0.80


def test_frequencies_match_target_stationary_distribution():
    # Rows all equal to the target make that target the stationary law;
    # the heaviest act carries 0.36 of the mass.
    target = np.array([0.36, 0.19, 0.13, 0.06, 0.26])
    trans = np.tile(target, (5, 1))
    names, tables = default_phrase_tables(5)
    spec = SyntheticSpec(5, trans, tables, 1000, 10, 10, seed=3, act_names=names)
    convs, _ = generate_synthetic(spec)
    acts = acts_of(convs)
    assert len(acts) == 10_000
    freq = np.array([acts.count(n) for n in names]) / len(acts)
    assert abs(freq[0] - 0.36) <= 0.03
    assert np.abs(freq - target).max() <= 0.03


def test_frequencies_pass_chi_square_against_stationary():
    spec = default_spec(num_acts=5, self_transition=0.6, num_conversations=1000,
                        min_len=10, max_len=10, seed=23)
    convs, model = generate_synthetic(spec)
    acts = acts_of(convs)
    counts = np.array([acts.count(n) for n in spec.act_names], dtype=float)
    expected = stationary_distribution(spec.act_transition) * len(acts)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_99[len(counts) - 1]


def test_generation_byte_identical_for_fixed_seed(tmp_path):
    spec = default_spec(num_acts=3, num_conversations=25, seed=99)
    a, _ = generate_synthetic(spec)
    b, _ = generate_synthetic(spec)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(pa, a)
    write_jsonl(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


PINNED_CORPORA = [
    (dict(num_acts=3, num_conversations=25, seed=99),
     "9c868ca65ce98bb91e89b45a3ef872f96464f27c34c34f20e24b324eb116958e"),
    (dict(num_acts=8, self_transition=0.5, num_conversations=40, min_len=3, max_len=30, seed=2017),
     "70ac4e9a662e11a4f4b1dc2f0aae9b3416623a2f782c0cfacf49b0cc8ab6139e"),
]


@pytest.mark.parametrize("kwargs,digest", PINNED_CORPORA)
def test_generated_corpus_matches_its_pinned_digest(tmp_path, kwargs, digest):
    """The sha256 of ``write_jsonl``'s bytes for two fixed specs, from numpy's PCG64 stream."""
    convs, _ = generate_synthetic(default_spec(**kwargs))
    path = tmp_path / "pinned.jsonl"
    write_jsonl(path, convs)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def cue_phrases(tables):
    """Each act's own phrases: its table without the shared ambiguous pool."""
    pool = {tuple(p.split()) for p in synthetic._AMBIGUOUS_POOL}
    return [{phrase for phrase, _ in table if phrase not in pool} for table in tables]


def test_default_tables_past_the_bank_are_fixed_and_distinct_per_act():
    names, tables = default_phrase_tables(42)
    assert names == tuple(f"act{i}" for i in range(42))
    assert (names, tables) == default_phrase_tables(42)  # a function of the act count alone
    assert tables[:8] == default_phrase_tables(8)[1]  # the bank's acts keep their tables
    cues = cue_phrases(tables)
    assert all(len(own) == 5 for own in cues)
    for i, own in enumerate(cues):
        for other in cues[i + 1 :]:
            assert not own & other, i
    for table in tables:
        assert abs(sum(p for _, p in table) - 1.0) <= 1e-12


def test_default_spec_generates_a_42_act_corpus():
    spec = default_spec(num_acts=42, num_conversations=30, min_len=20, max_len=40, seed=4)
    convs, model = generate_synthetic(spec)
    assert len(convs) == 30 and set(acts_of(convs)) <= set(spec.act_names)
    assert len(set(acts_of(convs))) > 30
    assert model.decode_accuracy(convs) > 0.5  # cue phrases still pick out their act


def test_stationary_distribution_of_symmetric_chain_is_uniform():
    pi = stationary_distribution(symmetric_transition(5, 0.7))
    assert np.abs(pi - 0.2).max() < 1e-12


def test_bayes_decoder_beats_chance_and_is_self_consistent():
    spec = default_spec(num_acts=5, self_transition=0.7, num_conversations=150,
                        min_len=6, max_len=10, seed=5)
    convs, model = generate_synthetic(spec)
    acc = model.decode_accuracy(convs)
    assert acc > 0.5  # far above the 0.2 chance level
    # unique cue phrases decode to their own act even in isolation
    from dialact.corpus import Conversation, Token, Utterance

    cue = spec.act_phrase_tables[0][0][0]
    conv = Conversation(
        id="cue", utterances=(Utterance(tokens=tuple(Token(w) for w in cue), speaker="A"),)
    )
    assert model.viterbi_acts(conv) == [spec.act_names[0]]


def test_parse_spec_file_full_grammar(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text(
        """
# three-act toy
num_acts = 3
num_conversations = 7
min_len = 2
max_len = 4
seed = 13
act_names = hello ask tell
transition.hello = 0.6 0.2 0.2
transition.ask = 0.1 0.5 0.4
transition.tell = 0.3 0.3 0.4
phrases.hello = hi there | hello
phrase_weights.hello = 2 2
phrases.ask = how are you | what is new
phrases.tell = fine thanks | not much
""",
        encoding="utf-8",
    )
    spec = parse_spec_file(path)
    assert spec.act_names == ("hello", "ask", "tell")
    assert spec.act_transition[0, 0] == pytest.approx(0.6)
    assert spec.act_phrase_tables[0][0] == (("hi", "there"), 0.5)
    convs, _ = generate_synthetic(spec)
    assert len(convs) == 7


def test_parse_spec_file_defaults_and_errors(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text(
        "num_acts = 4\nnum_conversations = 3\nmin_len = 2\nmax_len = 3\nself_transition = 0.8\n",
        encoding="utf-8",
    )
    spec = parse_spec_file(path)
    assert spec.num_acts == 4 and spec.seed == 42
    assert len(spec.act_phrase_tables) == 4

    bad = tmp_path / "bad.cfg"
    bad.write_text("num_acts = 2\nbogus_key = 1\n", encoding="utf-8")
    with pytest.raises(Exception, match="bogus_key|missing"):
        parse_spec_file(bad)


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"phrases.a": "|"}, "'phrases.a' lists no phrase"),
        ({"phrases.a": "x | y", "phrase_weights.a": "0 0"},
         "'phrase_weights.a' must be finite, nonnegative and sum above 0"),
        ({"phrases.a": "x | y", "phrase_weights.a": "-1 2"}, "'phrase_weights.a' must be finite"),
        ({"phrases.a": "x | y", "phrase_weights.a": "nan 1"}, "'phrase_weights.a' must be finite"),
        ({"phrases.a": "x | y", "phrase_weights.a": "inf 1"}, "'phrase_weights.a' must be finite"),
        ({"phrases.a": "x | y", "phrase_weights.a": "1 x"}, "'phrase_weights.a' must be a number, got 'x'"),
        ({"num_acts": "five"}, "'num_acts' must be an integer, got 'five'"),
        ({"max_len": "3.5"}, "'max_len' must be an integer, got '3.5'"),
        ({"num_acts": "0", "act_names": ""}, "'num_acts' must be >= 1, got 0"),
        ({"num_acts": "-1"}, "'num_acts' must be >= 1, got -1"),
        ({"self_transition": "x"}, "'self_transition' must be a number, got 'x'"),
        ({"self_transition": None, "transition.a": "0.5 0.5", "transition.b": "0.5 half"},
         "'transition.b' must be a number, got 'half'"),
        ({"num_acts": "1", "act_names": "a", "phrases.b": None}, "'num_acts' must be >= 2 with 'self_transition', got 1"),
        ({"self_transition": "1.5"}, "'self_transition' must be in [0, 1], got 1.5"),
        ({"self_transition": "-0.2"}, "'self_transition' must be in [0, 1], got -0.2"),
        ({"self_transition": "nan"}, "'self_transition' must be in [0, 1], got nan"),
        ({"self_transition": None, "transition.a": "0.5 0.6", "transition.b": "0.5 0.5"},
         "transition rows must sum to 1 +- 1e-9"),
        ({"self_transition": None, "transition.a": "1.5 -0.5", "transition.b": "0.5 0.5"},
         "transition probabilities must be nonnegative"),
        ({"self_transition": None, "transition.a": "nan 0.5", "transition.b": "0.5 0.5"},
         "transition probabilities must be finite"),
        ({"min_len": "4"}, "need 1 <= min_len <= max_len, got 4..3"),
        ({"min_len": "0"}, "need 1 <= min_len <= max_len, got 0..3"),
        ({"num_conversations": "0"}, "num_conversations must be positive"),
        ({"seed": "-1"}, "seed must be >= 0, got -1"),
    ],
    ids=["no-phrase", "zero-sum", "negative", "nan", "inf", "weight-word", "num-acts-word", "int-as-float",
         "zero-acts", "negative-acts", "self-transition-word", "transition-word", "one-act-self-transition",
         "self-transition-above-one", "self-transition-negative", "self-transition-nan", "transition-row-sum",
         "transition-negative", "transition-nan", "min-above-max", "min-zero", "no-conversations", "negative-seed"],
)
def test_parse_spec_file_rejects_empty_phrases_and_bad_weights_naming_the_key(tmp_path, keys, message):
    spec = {"num_acts": "2", "num_conversations": "3", "min_len": "2", "max_len": "3", "self_transition": "0.5",
            "act_names": "a b", "phrases.a": "y", "phrases.b": "z", **keys}
    path = tmp_path / "spec.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in spec.items() if v is not None), encoding="utf-8")
    with pytest.raises(TranscriptError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        parse_spec_file(path)


def test_parse_spec_file_rejects_a_repeated_key_naming_the_line(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text("num_acts = 2\n\nnum_acts = 3\n", encoding="utf-8")
    with pytest.raises(TranscriptError, match=r"spec\.cfg:3: duplicate key 'num_acts'"):
        parse_spec_file(path)


def test_unknown_phrase_gets_log_zero_emission():
    _, model = generate_synthetic(default_spec(num_acts=3, num_conversations=2, seed=0))
    from dialact.corpus import Conversation, Token, Utterance

    conv = Conversation(
        id="oov",
        utterances=(Utterance(tokens=(Token("zzz"), Token("qqq")), speaker="A"),),
    )
    pot = model.potentials_for(conv)
    assert np.all(pot.unary[0] <= synthetic.LOG_ZERO / 2)
    assert np.isfinite(pot.unary).all()
