"""End-to-end command flows, determinism, exit codes, format closure."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialact import cli
from dialact.corpus import Conversation, Token, Utterance, build_vocab, parse_jsonl, write_jsonl
from dialact.model import DialogueActModel
from dialact.train import TrainConfig
from dialact.synthetic import SyntheticSpec, generate_synthetic, parse_spec_file, symmetric_transition

GREET_SPEC = """
num_acts = 3
num_conversations = 40
min_len = 3
max_len = 6
seed = 11
self_transition = 0.7
act_names = greet question statement
phrases.greet = hi long time no see | hi how are you | hello there
phrases.question = what are you doing these days | when is the deadline
phrases.statement = i am busy finishing my thesis | the results look solid
"""


def write_spec(tmp_path, text=GREET_SPEC, name="spec.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(*argv):
    return cli.run(list(argv))


def test_gen_synthetic_deterministic(tmp_path):
    spec = write_spec(tmp_path)
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("gen-synthetic", "--spec", spec, "--out", str(out_a), "--seed", "7") == 0
    assert run_cli("gen-synthetic", "--spec", spec, "--out", str(out_b), "--seed", "7") == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    different = tmp_path / "c.jsonl"
    run_cli("gen-synthetic", "--spec", spec, "--out", str(different), "--seed", "8")
    assert out_a.read_bytes() != different.read_bytes()


def test_gen_synthetic_prints_the_generator_ceiling_and_writes_only_the_corpus(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out = tmp_path / "a.jsonl"
    assert run_cli("gen-synthetic", "--spec", spec, "--out", str(out), "--seed", "7") == 0
    convs, generator = generate_synthetic(replace(parse_spec_file(spec), seed=7))
    ceiling = generator.decode_accuracy(convs)
    assert f"generator Viterbi accuracy on this corpus: {ceiling:.4f}\n" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "spec.cfg"]


def test_oracle_check_passes_and_reports(tmp_path, capsys):
    code = run_cli("oracle-check", "--trials", "200", "--max-n", "6", "--max-labels", "4")
    out = capsys.readouterr().out
    assert code == 0
    assert "200/200 passed" in out


def test_gradcheck_exit_zero(capsys):
    assert run_cli("gradcheck", "--seed", "3") == 0
    assert "PASSED" in capsys.readouterr().out


def test_gradcheck_summary_states_its_coverage(capsys):
    assert run_cli("gradcheck") == 0  # seed 42
    lines = capsys.readouterr().out.splitlines()
    checked = sum(int(line.rsplit("(", 1)[1].split()[0]) for line in lines[:-1])
    assert lines[-1] == f"gradcheck PASSED at tol 0.0001 over {checked} elements of {len(lines) - 1} tensors"
    assert checked >= 620  # the coverage at the fused weight layout


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--bogus-flag", "x")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("not-a-command")
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("oracle-check", "--trials", "-3"), "argument --trials: must be >= 1, got -3"),
        (("oracle-check", "--trials", "0"), "argument --trials: must be >= 1, got 0"),
        (("oracle-check", "--max-n", "0"), "argument --max-n: must be >= 1, got 0"),
        (("oracle-check", "--max-labels", "1"), "argument --max-labels: must be >= 2, got 1"),
        (("oracle-check", "--seed", "-1"), "argument --seed: must be >= 0, got -1"),
        (("gradcheck", "--seed", "-5"), "argument --seed: must be >= 0, got -5"),
        (("oracle-check", "--trials", "abc"), "argument --trials: invalid int value: 'abc'"),
    ],
)
def test_out_of_range_flag_exits_one_naming_the_flag(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(message), err
    assert "Traceback" not in err


def test_empty_phrase_list_exits_two_in_one_line(tmp_path, capsys):
    text = GREET_SPEC.replace("what are you doing these days | when is the deadline", "|")
    spec = write_spec(tmp_path, text)
    assert run_cli("gen-synthetic", "--spec", spec, "--out", str(tmp_path / "x.jsonl")) == 2
    assert capsys.readouterr().err == f"dialact gen-synthetic: {spec}: 'phrases.question' lists no phrase\n"


@pytest.mark.parametrize("old, new, message", [
    ("self_transition = 0.7", "self_transition = 1.5", "'self_transition' must be in [0, 1], got 1.5"),
    ("min_len = 3", "min_len = 9", "need 1 <= min_len <= max_len, got 9..6"),
])
def test_spec_value_errors_exit_two_naming_the_file(tmp_path, capsys, old, new, message):
    spec = write_spec(tmp_path, GREET_SPEC.replace(old, new))
    assert run_cli("gen-synthetic", "--spec", spec, "--out", str(tmp_path / "x.jsonl")) == 2
    assert capsys.readouterr().err == f"dialact gen-synthetic: {spec}: {message}\n"


def test_negative_gen_synthetic_seed_exits_two_in_one_line(tmp_path, capsys):
    code = run_cli("gen-synthetic", "--spec", write_spec(tmp_path), "--out", str(tmp_path / "x.jsonl"), "--seed", "-1")
    assert code == 2
    assert capsys.readouterr().err == "dialact gen-synthetic: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("max_n, max_labels", [(9, 4), (12, 4), (17, 2), (40, 4), (10**12, 2)])
def test_oracle_check_rejects_an_enumeration_past_the_cap_before_running(monkeypatch, capsys, max_n, max_labels):
    monkeypatch.setattr(cli.oracles, "chain_oracle_suite", None)  # never reached
    with pytest.raises(SystemExit) as exc:
        run_cli("oracle-check", "--max-n", str(max_n), "--max-labels", str(max_labels))
    assert exc.value.code == cli.USAGE_ERROR
    last = capsys.readouterr().err.splitlines()[-1]
    assert "argument --max-n" in last and f"<= {cli.oracles.MAX_SEQUENCES} " in last, last
    assert f"got {max_labels} ** {max_n}" in last


def test_oracle_check_cap_leaves_room_for_the_defaults(capsys):
    defaults = cli.build_parser().parse_args(["oracle-check"])
    assert defaults.max_labels**defaults.max_n * 16 <= cli.oracles.MAX_SEQUENCES
    # 4 ** 8 sequences, at the cap, is still accepted
    assert run_cli("oracle-check", "--max-n", "8", "--max-labels", "4", "--trials", "1") == 0
    assert "1/1 passed" in capsys.readouterr().out


def test_missing_file_exit_two(tmp_path, capsys):
    code = run_cli(
        "train",
        "--train", str(tmp_path / "absent.jsonl"),
        "--valid", str(tmp_path / "absent.jsonl"),
        "--checkpoint", str(tmp_path / "m.ckpt"),
    )
    assert code == 2
    assert "absent.jsonl" in capsys.readouterr().err


TRAIN_CFG = """
d = 16
d_u = 8
d_c = 6
word_dim = 12
char_out = 9
attn_dim = 8
emit_dim = 8
lr = 0.1
ema_decay = 0.9
dropout = 0.1
max_epochs = 30
patience = 4
seed = 5
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small trained checkpoint shared by the pipeline tests."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    spec_path = write_spec(tmp_path)
    data = tmp_path / "all.jsonl"
    assert run_cli("gen-synthetic", "--spec", spec_path, "--out", str(data)) == 0
    convs = parse_jsonl(data)
    train_path, valid_path, test_path = (tmp_path / n for n in ("tr.jsonl", "va.jsonl", "te.jsonl"))
    write_jsonl(train_path, convs[:28])
    write_jsonl(valid_path, convs[28:34])
    write_jsonl(test_path, convs[34:])
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(TRAIN_CFG, encoding="utf-8")
    ckpt = tmp_path / "model.ckpt"
    code = run_cli(
        "train", "--train", str(train_path), "--valid", str(valid_path),
        "--checkpoint", str(ckpt), "--config", str(cfg_path), "--quiet",
    )
    assert code == 0
    return tmp_path, ckpt, test_path


def test_train_writes_checkpoint_and_history(trained):
    tmp_path, ckpt, _ = trained
    assert ckpt.exists()
    assert (tmp_path / "model.ckpt.meta.json").exists()
    history = [
        json.loads(line) for line in (tmp_path / "model.ckpt.history.jsonl").read_text().splitlines()
    ]
    assert history[0]["epoch"] == 1
    assert all({"epoch", "train_loss", "val_accuracy", "seconds"} <= set(h) for h in history)


def test_eval_writes_report(trained, capsys):
    tmp_path, ckpt, test_path = trained
    report_path = tmp_path / "report.json"
    assert run_cli("eval", "--checkpoint", str(ckpt), "--test", str(test_path),
                   "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert set(report["labels"]) == {"greet", "question", "statement"}
    assert sum(sum(row) for row in report["confusion"]) == report["total_utterances"]
    assert 0.0 <= report["accuracy"] <= 1.0


def test_predict_labels_greeting_openers(trained, tmp_path):
    _, ckpt, test_path = trained
    # conversation opening with two greetings, like a transcript's first turns
    probe = tmp_path / "probe.jsonl"
    probe.write_text(
        json.dumps(
            {
                "id": "probe",
                "utterances": [
                    {"speaker": "A", "tokens": "hi long time no see".split()},
                    {"speaker": "B", "tokens": "hi how are you".split()},
                    {"speaker": "A", "tokens": "what are you doing these days".split()},
                ],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "labeled.jsonl"
    assert run_cli("predict", "--checkpoint", str(ckpt), "--test", str(probe),
                   "--out", str(out)) == 0
    labeled = parse_jsonl(out)
    acts = [u.act for u in labeled[0].utterances]
    assert acts[0] == acts[1] == "greet"


def test_predict_output_feeds_eval(trained, tmp_path):
    _, ckpt, test_path = trained
    predicted = tmp_path / "predicted.jsonl"
    assert run_cli("predict", "--checkpoint", str(ckpt), "--test", str(test_path),
                   "--out", str(predicted)) == 0
    report_path = tmp_path / "self_report.json"
    assert run_cli("eval", "--checkpoint", str(ckpt), "--test", str(predicted),
                   "--out", str(report_path)) == 0
    # the model agrees with its own predictions everywhere
    assert json.loads(report_path.read_text())["accuracy"] == 1.0


def with_unseen_acts(test_path, tmp_path):
    """The test split with every other act renamed to one training never saw."""
    convs = parse_jsonl(test_path)
    renamed = [
        Conversation(
            id=conv.id,
            utterances=tuple(
                Utterance(tokens=u.tokens, speaker=u.speaker, act="farewell" if j % 2 else u.act)
                for j, u in enumerate(conv.utterances)
            ),
        )
        for conv in convs
    ]
    path = tmp_path / "unseen.jsonl"
    write_jsonl(path, renamed)
    return path, renamed


def test_predict_ignores_unseen_gold_acts(trained, tmp_path):
    _, ckpt, test_path = trained
    unseen_path, _ = with_unseen_acts(test_path, tmp_path)
    out, reference = tmp_path / "unseen_labeled.jsonl", tmp_path / "labeled.jsonl"
    assert run_cli("predict", "--checkpoint", str(ckpt), "--test", str(unseen_path),
                   "--out", str(out)) == 0
    assert run_cli("predict", "--checkpoint", str(ckpt), "--test", str(test_path),
                   "--out", str(reference)) == 0
    # gold acts play no part in decoding
    assert out.read_bytes() == reference.read_bytes()


def test_eval_scores_unseen_gold_acts_as_errors(trained, tmp_path):
    _, ckpt, test_path = trained
    unseen_path, renamed = with_unseen_acts(test_path, tmp_path)
    report_path = tmp_path / "unseen_report.json"
    assert run_cli("eval", "--checkpoint", str(ckpt), "--test", str(unseen_path),
                   "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["labels"][-1] == "farewell"
    assert set(report["labels"][:-1]) == {"greet", "question", "statement"}
    n_unseen = sum(u.act == "farewell" for conv in renamed for u in conv.utterances)
    assert sum(report["confusion"][-1]) == n_unseen
    assert report["confusion"][-1][-1] == 0  # never predicted, so always wrong
    assert report["recall"][-1] == 0.0
    assert report["total_utterances"] == sum(len(conv) for conv in renamed)


def test_export_attn_documents(trained, tmp_path):
    _, ckpt, test_path = trained
    out = tmp_path / "attn.jsonl"
    assert run_cli("export-attn", "--checkpoint", str(ckpt), "--test", str(test_path),
                   "--out", str(out)) == 0
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    convs = parse_jsonl(test_path)
    assert len(docs) == len(convs)
    for doc, conv in zip(docs, convs):
        n = len(conv)
        assert doc["version"] == 1
        assert len(doc["viterbi_path"]) == n
        assert len(doc["node_marginals"]) == n
        assert len(doc["edge_marginals"]) == n - 1
        node = np.array(doc["node_marginals"])
        assert np.abs(node.sum(axis=1) - 1.0).max() < 1e-9


def test_checkpoint_vocab_mismatch_detected(trained, tmp_path):
    _, ckpt, test_path = trained
    with open(str(ckpt) + ".meta.json", encoding="utf-8") as f:
        meta = json.load(f)
    meta["vocab"]["acts"].append("phantom")
    broken_ckpt = tmp_path / "broken.ckpt"
    broken_ckpt.write_bytes(ckpt.read_bytes())
    with open(str(broken_ckpt) + ".meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f)
    code = run_cli("eval", "--checkpoint", str(broken_ckpt), "--test", str(test_path),
                   "--out", str(tmp_path / "r.json"))
    assert code == 2


def tiny_checkpoint(directory):
    """(checkpoint path, test transcript path) of a minimal untrained model."""
    utts = (Utterance(tokens=(Token("hi"),), speaker="A", act="a"),
            Utterance(tokens=(Token("ok"),), speaker="B", act="b"))
    convs = [Conversation(id="c", utterances=utts)]
    test_path = directory / "test.jsonl"
    write_jsonl(test_path, convs)
    cfg = TrainConfig(
        d=2, d_u=1, d_c=1, d_p=1, d_n=1, word_dim=1, char_out=3, attn_dim=1, emit_dim=1
    )
    ckpt = directory / "tiny.ckpt"
    DialogueActModel(build_vocab(convs), cfg).save(ckpt)
    return ckpt, test_path


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_transcript_with_wrong_json_types_exits_two_in_one_line(tmp_path, capsys, command):
    ckpt, _ = tiny_checkpoint(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id":"c","utterances":[{"tokens":["a","b"],"pos":"NN","act":"a"}]}\n', encoding="utf-8")
    if command == "train":
        argv = ["--train", str(bad), "--valid", str(bad), "--checkpoint", str(tmp_path / "new.ckpt")]
    else:
        argv = ["--checkpoint", str(ckpt), "--test", str(bad), "--out", str(tmp_path / "out")]
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "conversation 'c', utterance 0: 'pos' must be a list or null" in err


def test_truncated_checkpoint_exits_two_at_every_offset(tmp_path, capsys):
    ckpt, test_path = tiny_checkpoint(tmp_path)
    full = ckpt.read_bytes()
    for offset in range(len(full)):
        ckpt.write_bytes(full[:offset])
        code = run_cli("eval", "--checkpoint", str(ckpt), "--test", str(test_path),
                       "--out", str(tmp_path / "r.json"))
        err = capsys.readouterr().err
        assert code == 2, offset
        assert err.count("\n") == 1 and "tiny.ckpt is truncated" in err, (offset, err)


@pytest.mark.parametrize("command", ["eval", "predict", "export-attn"])
def test_checkpoint_with_trailing_bytes_exits_two_in_one_line(tmp_path, capsys, command):
    ckpt, test_path = tiny_checkpoint(tmp_path)
    ckpt.write_bytes(ckpt.read_bytes() + b"\x00")
    code = run_cli(command, "--checkpoint", str(ckpt), "--test", str(test_path), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "tiny.ckpt has 1 bytes after its last tensor" in err, err


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tiny")
    ckpt, test_path = tiny_checkpoint(directory)
    (directory / "corrupt.ckpt.meta.json").write_bytes((directory / "tiny.ckpt.meta.json").read_bytes())
    return directory, ckpt.read_bytes(), test_path


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_overwritten_checkpoint_byte_exits_zero_or_two(tiny, capsys, data):
    directory, full, test_path = tiny
    offset = data.draw(st.integers(0, len(full) - 1), label="offset")
    value = data.draw(st.integers(0, 255).filter(lambda v: v != full[offset]), label="byte")
    ckpt = directory / "corrupt.ckpt"
    ckpt.write_bytes(full[:offset] + bytes([value]) + full[offset + 1 :])
    code = run_cli("eval", "--checkpoint", str(ckpt), "--test", str(test_path),
                   "--out", str(directory / "r.json"))
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert err.count("\n") == (code == 2), err


NON_STRING_SCALARS = {
    "id": ('{"id":["c"],"utterances":[{"tokens":["a"],"act":"a"}]}', ":1: 'id' must be a string"),
    "act": ('{"id":"c","utterances":[{"tokens":["a"],"act":5}]}', "utterance 0: 'act' must be a string or null"),
    "speaker": ('{"id":"c","utterances":[{"tokens":["a"],"act":"a","speaker":1}]}',
                "utterance 0: 'speaker' must be a string"),
}


@pytest.mark.parametrize("field", sorted(NON_STRING_SCALARS))
@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_transcript_with_a_non_string_scalar_exits_two_in_one_line(tmp_path, capsys, command, field):
    ckpt, _ = tiny_checkpoint(tmp_path)
    line, message = NON_STRING_SCALARS[field]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n", encoding="utf-8")
    if command == "train":
        argv = ["--train", str(bad), "--valid", str(bad), "--checkpoint", str(tmp_path / "new.ckpt")]
    else:
        argv = ["--checkpoint", str(ckpt), "--test", str(bad), "--out", str(tmp_path / "out")]
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad.jsonl" in err and message in err


def test_deeply_nested_json_exits_two_in_one_line(tiny, tmp_path, capsys):
    directory, _, test_path = tiny
    nested = "[" * 200_000
    bad = tmp_path / "nested.jsonl"
    bad.write_text(nested + "\n", encoding="utf-8")
    assert run_cli("train", "--train", str(bad), "--valid", str(bad), "--checkpoint", str(tmp_path / "m.ckpt")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "nested.jsonl:1: JSON nested too deeply" in err, err
    ckpt = tmp_path / "deep.ckpt"
    ckpt.write_bytes((directory / "tiny.ckpt").read_bytes())
    (tmp_path / "deep.ckpt.meta.json").write_text(nested, encoding="utf-8")
    assert run_cli("predict", "--checkpoint", str(ckpt), "--test", str(test_path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "deep.ckpt.meta.json: JSON nested too deeply" in err, err


def test_input_that_is_not_utf8_exits_two_naming_the_file(tiny, tmp_path, capsys):
    directory, _, test_path = tiny
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(test_path.read_bytes() + test_path.read_bytes().replace(b"hi", b"h\xff"))
    ckpt = directory / "tiny.ckpt"
    assert run_cli("predict", "--checkpoint", str(ckpt), "--test", str(bad), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err == f"dialact predict: {bad}:2: byte 0xff is not UTF-8\n"
    latin = tmp_path / "latin.ckpt"
    latin.write_bytes(ckpt.read_bytes())
    sidecar = (directory / "tiny.ckpt.meta.json").read_bytes()
    (tmp_path / "latin.ckpt.meta.json").write_bytes(sidecar.replace(b'"hi"', b'"h\xe9"'))
    assert run_cli("predict", "--checkpoint", str(latin), "--test", str(test_path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"checkpoint sidecar {latin}.meta.json: 'utf-8' codec can't decode" in err, err


def write_sidecar_edit(directory, path, value):
    """A copy of the tiny checkpoint whose sidecar has ``value`` at key ``path``."""
    meta = json.loads((directory / "tiny.ckpt.meta.json").read_text(encoding="utf-8"))
    *parents, last = path
    node = meta
    for key in parents:
        node = node[key]
    node[last] = value
    ckpt = directory / "edited.ckpt"
    ckpt.write_bytes((directory / "tiny.ckpt").read_bytes())
    (directory / "edited.ckpt.meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return ckpt


SIDECAR_EDITS = {
    "unknown-config-key": (("config", "learning_rate"), 0.1, "unknown config key 'learning_rate'"),
    "lr-string": (("config", "lr"), "abc", "lr must be of type float"),
    "vocab-string": (("vocab",), "x", "vocab must be an object"),
    "config-list": (("config",), [], "'config' must be an object"),
    "acts-int": (("vocab", "acts"), 5, "vocab 'acts' must be a non-empty list"),
    "extra-vocab-key": (("vocab", "act_index"), 5, "vocab must be an object with the keys"),
    "repeated-word": (("vocab", "words"), ["<pad>", "<unk>", "hi", "hi"], "vocab 'words' must be"),
    "negative-dim": (("config", "d_c"), -3, "d_c must be >= 1"),
    "negative-seed": (("config", "seed"), -1, "seed must be >= 0"),
    "billion-hops": (("config", "hops"), 10**9, "hops must be <= 16"),
    "wider-dim": (("config", "word_dim"), 10**12, "does not match its sidecar"),
    "version": (("version",), 3, "expected an object with version 2, got version 3"),
    "version-1": (("version",), 1, "expected an object with version 2, got version 1"),
    "boundary-potentials": (("config", "boundary_potentials"), False, "unknown config key 'boundary_potentials'"),
}


@pytest.mark.parametrize("case", sorted(SIDECAR_EDITS))
def test_bad_sidecar_exits_two_naming_file_and_key(tiny, capsys, case):
    directory, _, test_path = tiny
    path, value, message = SIDECAR_EDITS[case]
    ckpt = write_sidecar_edit(directory, path, value)
    code = run_cli("eval", "--checkpoint", str(ckpt), "--test", str(test_path), "--out", str(directory / "r.json"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "edited.ckpt" in err and message in err, err


# Integers stay in the range of real configs; a ``hops`` above 16 is
# rejected (the "billion-hops" edit above), so no drawn value runs for long.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_sidecar_field_replaced_by_json_exits_zero_or_two(tiny, capsys, data):
    directory, _, test_path = tiny
    meta = json.loads((directory / "tiny.ckpt.meta.json").read_text(encoding="utf-8"))
    paths = [(key,) for key in meta] + [(part, key) for part in ("config", "vocab") for key in meta[part]]
    path = data.draw(st.sampled_from(paths), label="field")
    ckpt = write_sidecar_edit(directory, path, data.draw(JSON_VALUES, label="value"))
    code = run_cli("eval", "--checkpoint", str(ckpt), "--test", str(test_path), "--out", str(directory / "r.json"))
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert err.count("\n") == (code == 2), err


def test_train_with_unlabeled_validation_exits_two_in_one_line(tmp_path, capsys):
    labeled = tmp_path / "train.jsonl"
    labeled.write_text('{"id":"t","utterances":[{"tokens":["hi"],"act":"a"},{"tokens":["ok"],"act":"b"}]}\n',
                       encoding="utf-8")
    unlabeled = tmp_path / "valid.jsonl"
    unlabeled.write_text('{"id":"v","utterances":[{"tokens":["hi"]},{"tokens":["ok"]}]}\n', encoding="utf-8")
    ckpt = tmp_path / "m.ckpt"
    code = run_cli("train", "--train", str(labeled), "--valid", str(unlabeled), "--checkpoint", str(ckpt), "--quiet")
    err = capsys.readouterr().err
    assert code == 2 and not ckpt.exists()
    assert err.count("\n") == 1 and "validation conversation 'v' has unlabeled utterances" in err, err


TINY_TRAIN_CFG = (
    "d = 2\nd_u = 1\nd_c = 1\nd_p = 1\nd_n = 1\nword_dim = 1\nchar_out = 3\nattn_dim = 1\nemit_dim = 1\nmax_epochs = 1\n"
)
TRANSCRIPT = {"id": "c", "utterances": [
    {"speaker": "A", "tokens": ["hi", "there"], "pos": ["UH", "RB"], "ner": ["O", "O"], "act": "a"},
    {"speaker": "B", "tokens": ["ok"], "act": "b"},
]}


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_transcript_field_replaced_by_json_exits_zero_or_two(tiny, capsys, data):
    directory, _, _ = tiny
    utterance_keys = [("utterances", 0, key) for key in TRANSCRIPT["utterances"][0]]
    paths = [("id",), ("utterances",), ("utterances", 1), *utterance_keys, ("utterances", 0, "tokens", 1)]
    *parents, last = data.draw(st.sampled_from(paths), label="field")
    obj = json.loads(json.dumps(TRANSCRIPT))
    node = obj
    for key in parents:
        node = node[key]
    node[last] = data.draw(JSON_VALUES, label="value")
    path = directory / "fuzzed.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    command = data.draw(st.sampled_from(["train", "eval", "predict"]), label="command")
    if command == "train":  # on the transcript itself, with a tiny config
        cfg = directory / "tiny.cfg"
        cfg.write_text(TINY_TRAIN_CFG, encoding="utf-8")
        argv = ["--train", str(path), "--valid", str(path), "--checkpoint", str(directory / "fuzzed.ckpt"),
                "--config", str(cfg), "--quiet"]
    else:
        argv = ["--checkpoint", str(directory / "tiny.ckpt"), "--test", str(path), "--out", str(directory / "out")]
    code = run_cli(command, *argv)
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert err.count("\n") == (code == 2), err


# a key = value line of a known key and a drawn value, or free text
CONFIG_VALUES = st.integers(-1000, 1000).map(str) | st.floats().map(repr) | st.text(max_size=6) | st.sampled_from(
    ["true", "no", "1e3", "0.5", "-0", "nan", "inf", ""]
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_line_replaced_by_text_exits_zero_or_two(tiny, capsys, data):
    directory, _, _ = tiny
    lines = TINY_TRAIN_CFG.splitlines()
    keys = sorted(f.name for f in fields(TrainConfig))
    known = st.builds("{} = {}".format, st.sampled_from(keys), CONFIG_VALUES)
    lines[data.draw(st.integers(0, len(lines) - 1), label="line")] = data.draw(known | st.text(), label="text")
    data_path = directory / "labeled.jsonl"
    data_path.write_text(json.dumps(TRANSCRIPT) + "\n", encoding="utf-8")
    cfg = directory / "fuzzed.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run_cli("train", "--train", str(data_path), "--valid", str(data_path),
                   "--checkpoint", str(directory / "fuzzed.ckpt"), "--config", str(cfg), "--quiet")
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert err.count("\n") == (code == 2), err


@pytest.mark.parametrize("message", ["Unable to allocate 112. GiB for an array with shape (5001, 3000000)", ""])
def test_out_of_memory_exits_two_in_one_line(monkeypatch, capsys, message):
    def allocate(args):
        raise MemoryError(message)

    monkeypatch.setitem(cli._COMMANDS, "gradcheck", allocate)
    assert run_cli("gradcheck") == 2
    assert capsys.readouterr().err == f"dialact gradcheck: {message or 'MemoryError'}\n"


@pytest.mark.parametrize("line", ["lr = 1e308", "l2 = 1e300"])
def test_training_overflow_exits_two_in_one_line(tmp_path, capsys, line):
    data = tmp_path / "labeled.jsonl"
    data.write_text(json.dumps(TRANSCRIPT) + "\n", encoding="utf-8")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(TINY_TRAIN_CFG + line + "\n", encoding="utf-8")
    ckpt = tmp_path / "m.ckpt"
    code = run_cli("train", "--train", str(data), "--valid", str(data), "--checkpoint", str(ckpt),
                   "--config", str(cfg), "--quiet")
    err = capsys.readouterr().err
    assert code == 2 and not ckpt.exists()
    assert err.count("\n") == 1 and "overflow encountered" in err, err
