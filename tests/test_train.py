"""Loss contract, adaptive updates, EMA, batching, the training loop."""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialact import autograd as ag
from dialact import cli, synthetic
from dialact import train as train_module
from dialact.corpus import PAD, PAD_ID, Conversation, Token, TranscriptError, Utterance, build_vocab, write_jsonl
from dialact.encoder import prepare_batch
from dialact.evaluate import export_attention
from dialact.model import DialogueActModel
from dialact.train import (
    TrainConfig,
    adagrad_step,
    clip_gradients,
    ema_update,
    make_batches,
    parse_config_file,
    train_loop,
    write_history,
)
from helpers import ReferenceOptimizer, leaves

TOY_CFG = TrainConfig(
    d=8, d_u=4, d_c=4, d_p=3, d_n=3, word_dim=6, char_out=6, attn_dim=4, emit_dim=4,
    seed=0, max_epochs=3,
)


def two_label_conv(conv_id="c0"):
    return Conversation(
        id=conv_id,
        utterances=(
            Utterance(tokens=(Token("hello"), Token("there")), speaker="A", act="x"),
            Utterance(tokens=(Token("bye"),), speaker="B", act="y"),
        ),
    )


def zeroed_model(convs, cfg=TOY_CFG):
    model = DialogueActModel(build_vocab(convs), cfg, rng=np.random.default_rng(0))
    for t in model.params.values():
        t.data[:] = 0.0
    return model


def test_config_defaults_match_reference_setup():
    cfg = TrainConfig()
    assert (cfg.lr, cfg.l2, cfg.dropout) == (0.005, 1e-5, 0.2)
    assert (cfg.max_batch, cfg.patience, cfg.ema_decay, cfg.hops) == (48, 5, 0.999, 1)
    assert cfg.d == 2 * cfg.d_u == 128


def test_config_validation():
    with pytest.raises(ValueError, match="dropout"):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError, match="ema_decay"):
        TrainConfig(ema_decay=1.5)
    with pytest.raises(ValueError, match="d="):
        TrainConfig(d=10, d_u=4)


INVALID_CONFIGS = [
    ("hops", "0"),
    ("hops", "17"),
    ("lr", "0"),
    ("lr", "-0.05"),
    ("clip_norm", "nan"),
    ("clip_norm", "inf"),
    ("patience", "0"),
    ("max_batch", "0"),
    ("max_epochs", "0"),
    ("l2", "nan"),
    ("l2", "inf"),
    ("d_c", "-3"),
    ("d_p", "0"),
    ("word_dim", "0"),
    ("char_out", "0"),
    ("attn_dim", "-1"),
    ("emit_dim", "0"),
    ("seed", "-1"),
    ("min_count", "0"),
]


@pytest.mark.parametrize(
    "key,value",
    [("lr", "abc"), ("d", 64.0), ("seed", True), ("lr", False), ("dropout", None), ("hops", [1])],
)
def test_config_field_types_checked(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be of type"):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("key,text", INVALID_CONFIGS)
def test_invalid_config_rejected_when_parsed(key, text, tmp_path, capsys):
    value = type(getattr(TrainConfig(), key))(text)
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})

    conv = two_label_conv()
    data = tmp_path / "convs.jsonl"
    write_jsonl(data, [conv])
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
    ckpt = tmp_path / "m.ckpt"
    code = cli.run(
        ["train", "--train", str(data), "--valid", str(data), "--checkpoint", str(ckpt),
         "--config", str(cfg), "--quiet"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1
    assert not ckpt.exists()


CONFIG_LINE_ERRORS = [
    ("boundary_potentials = false\n", ":1: unknown config key 'boundary_potentials'"),
    ("lr = 0.1\n# comment\nlr = 0.2\n", ":3: duplicate key 'lr'"),
    ("max_batch = 4.5\n", ":1: max_batch = '4.5' is not a valid int"),
    ("seed = true\n", ":1: seed = 'true' is not a valid int"),  # no field reads bool words
    ("dropout = no\n", ":1: dropout = 'no' is not a valid float"),
]


@pytest.mark.parametrize("text,message", CONFIG_LINE_ERRORS)
def test_config_file_line_errors_exit_two_naming_the_line(text, message, tmp_path, capsys):
    data = tmp_path / "convs.jsonl"
    write_jsonl(data, [two_label_conv()])
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    ckpt = tmp_path / "m.ckpt"
    code = cli.run(
        ["train", "--train", str(data), "--valid", str(data), "--checkpoint", str(ckpt),
         "--config", str(cfg), "--quiet"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad.cfg{message}" in err and err.count("\n") == 1
    assert not ckpt.exists()


def test_parse_config_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "lr = 0.01\nmax_batch = 16\nd = 32\nd_u = 16\n# comment\ndropout = 0.0\n",
        encoding="utf-8",
    )
    cfg = parse_config_file(path)
    assert cfg.lr == 0.01 and cfg.max_batch == 16 and cfg.d == 32 and cfg.dropout == 0.0
    assert cfg.patience == 5  # untouched default

    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate = 0.1\n", encoding="utf-8")
    with pytest.raises(TranscriptError, match="learning_rate"):
        parse_config_file(bad)


def test_config_file_accepts_a_leading_byte_order_mark_only(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("max_epochs = 3\nlr = 0.01\n", encoding="utf-8-sig")
    cfg = parse_config_file(path)
    assert cfg.max_epochs == 3 and cfg.lr == 0.01
    path.write_text("max_epochs = 3\n\ufefflr = 0.01\n", encoding="utf-8")
    with pytest.raises(TranscriptError, match=r":2: unknown config key '\\ufefflr'"):
        parse_config_file(path)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_zero_model_loss_is_uniform_chain_entropy():
    conv = two_label_conv()
    model = zeroed_model([conv])
    cfg0 = TrainConfig(**{**TOY_CFG.__dict__, "l2": 0.0})
    model.cfg = cfg0
    loss = model.loss([conv], train=False)
    # n=2 positions, |Y|=2 labels, all scores zero: NLL = 2 log 2
    assert float(loss.data) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_l2_decomposition():
    conv = two_label_conv()
    vocab = build_vocab([conv])
    base = TOY_CFG.__dict__
    model_free = DialogueActModel(vocab, TrainConfig(**{**base, "l2": 0.0}), rng=np.random.default_rng(1))
    model_pen = DialogueActModel(vocab, TrainConfig(**{**base, "l2": 1.0}), rng=np.random.default_rng(1))
    plain = float(model_free.loss([conv], train=False).data)
    penalized = float(model_pen.loss([conv], train=False).data)
    sq = sum(float((t.data ** 2).sum()) for t in model_free.params.values())
    assert penalized - plain == pytest.approx(sq, rel=1e-12)


def test_loss_rejects_unlabeled():
    conv = Conversation(
        id="u", utterances=(Utterance(tokens=(Token("hi"),), speaker="A"),)
    )
    model = zeroed_model([two_label_conv()])
    with pytest.raises(TranscriptError, match="unlabeled"):
        model.loss([conv], train=False)


def test_loss_maps_gold_acts_and_rejects_unknown():
    conv = two_label_conv()
    model = zeroed_model([conv])
    stranger = Conversation(
        id="s", utterances=(Utterance(tokens=(Token("hi"),), speaker="A", act="farewell"),)
    )
    with pytest.raises(TranscriptError, match="unknown act label 'farewell'"):
        model.loss([stranger], train=False)


def test_loss_finite_at_random_init():
    spec = synthetic.default_spec(num_acts=4, num_conversations=10, seed=2)
    convs, _ = synthetic.generate_synthetic(spec)
    model = DialogueActModel(build_vocab(convs), TOY_CFG, rng=np.random.default_rng(3))
    loss = model.loss(convs, train=False)
    assert np.isfinite(loss.data).all()


def test_one_adaptive_step_decreases_toy_batch_loss():
    spec = synthetic.default_spec(num_acts=3, num_conversations=4, min_len=2, max_len=4, seed=5)
    convs, _ = synthetic.generate_synthetic(spec)
    model = DialogueActModel(build_vocab(convs), TOY_CFG, rng=np.random.default_rng(4))
    before = float(model.loss(convs, train=False).data)
    sums = {name: np.zeros_like(t.data) for name, t in model.params.items()}
    with ag.Tape() as tape:
        loss = model.loss(convs, train=False)  # dropout off for a clean re-eval
    tape.backward(loss)
    adagrad_step(model.params, sums, lr=0.005)
    after = float(model.loss(convs, train=False).data)
    assert after < before


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def one_param(value):
    """Parameters holding ``w``, its tensor, and fresh Adagrad sums and EMA shadows for it."""
    params = leaves({"w": np.array([value])})
    return params, params["w"], {"w": np.zeros(1)}, {"w": params["w"].data}


def test_adagrad_first_step_is_lr_times_sign():
    params, p, sums, shadows = one_param(1.0)
    p.grad = np.array([2.0])
    adagrad_step(params, sums, lr=0.005)
    assert p.data[0] == pytest.approx(1.0 - 0.005, abs=1e-15)


def test_adagrad_second_step_shrinks_by_sqrt_two():
    params, p, sums, shadows = one_param(0.0)
    p.grad = np.array([1.0])
    adagrad_step(params, sums, lr=0.005)
    first = p.data[0]
    p.grad = np.array([1.0])
    adagrad_step(params, sums, lr=0.005)
    assert first == pytest.approx(-0.005)
    assert p.data[0] - first == pytest.approx(-0.005 / np.sqrt(2.0), abs=1e-15)


def test_adagrad_zero_gradient_is_null_update():
    params, p, sums, shadows = one_param(3.0)
    p.grad = np.zeros(1)
    adagrad_step(params, sums, lr=0.1)
    assert p.data[0] == 3.0
    assert sums["w"][0] == 0.0


def test_adagrad_accumulator_monotone_and_step_bound():
    params, p, sums, shadows = one_param(0.0)
    rng = np.random.default_rng(6)
    prev_acc = 0.0
    prev_val = 0.0
    for step in range(1, 60):
        p.grad = rng.normal(size=1)
        adagrad_step(params, sums, lr=0.01)
        acc = float(sums["w"][0])
        assert acc >= prev_acc
        # every single step is at most lr: |g| / sqrt(sum g^2) <= 1
        assert abs(p.data[0] - prev_val) <= 0.01 + 1e-15
        prev_acc, prev_val = acc, float(p.data[0])


def test_adagrad_constant_gradient_closed_form():
    # with g identical each step, movement after T steps is lr * sum 1/sqrt(t),
    # which stays under 2 * lr * sqrt(T)
    params, p, sums, shadows = one_param(0.0)
    for t in range(1, 30):
        p.grad = np.array([0.5])
        adagrad_step(params, sums, lr=0.01)
        expected = -0.01 * sum(1.0 / np.sqrt(i) for i in range(1, t + 1))
        assert p.data[0] == pytest.approx(expected, abs=1e-12)
        assert abs(p.data[0]) <= 2 * 0.01 * np.sqrt(t)


def test_adagrad_aborts_on_nan_naming_parameter():
    params, p, sums, shadows = one_param(0.0)
    p.grad = np.array([np.nan])
    with pytest.raises(FloatingPointError, match="'w'"):
        adagrad_step(params, sums, lr=0.01)


def test_adagrad_rejects_inf_when_clipping_is_off():
    # with clip_norm <= 0 nothing rescales an inf gradient before the step,
    # and inf / sqrt(inf) would write NaN into the weights
    params, p, sums, shadows = one_param(0.5)
    p.grad = np.array([np.inf])
    assert clip_gradients(params, max_norm=0.0) == (1.0, np.inf)
    with pytest.raises(FloatingPointError, match="non-finite gradient in parameter 'w'"):
        adagrad_step(params, sums, lr=0.01)
    assert p.data[0] == 0.5


def test_first_gradient_is_a_private_copy():
    # add hands one array to both operands; clipping then scales in place
    params = leaves({"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])})
    a, b = params.values()
    with ag.Tape() as tape:
        loss = ag.reduce_sum(ag.add(a, b))
    tape.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    assert clip_gradients(params, max_norm=1.0) == pytest.approx((0.5, 2.0))  # (scale, norm before)
    assert np.array_equal(a.grad, [0.5, 0.5])
    assert np.array_equal(b.grad, [0.5, 0.5])


def test_clip_gradients_global_norm():
    params = leaves({"a": np.zeros(3), "b": np.zeros(1)})
    a, b = params.values()
    a.grad = np.array([3.0, 0.0, 0.0])
    b.grad = np.array([4.0])
    assert clip_gradients(params, max_norm=2.5) == (0.5, 5.0)
    assert np.abs(np.array([*a.grad, *b.grad]) - [1.5, 0, 0, 2.0]).max() < 1e-12
    before = a.grad.copy()
    assert clip_gradients(params, max_norm=0.0) == pytest.approx((1.0, 2.5))  # disabled; norm still taken
    assert np.array_equal(a.grad, before)
    assert clip_gradients(params, max_norm=2.5) == pytest.approx((1.0, 2.5))  # at the bound: no scaling


# ---------------------------------------------------------------------------
# EMA
# ---------------------------------------------------------------------------


def test_ema_fixed_point():
    params, p, sums, shadows = one_param(1.5)
    ema_update(params, shadows, decay=0.999)
    assert shadows["w"][0] == pytest.approx(1.5, abs=1e-15)


def test_ema_single_step_formula():
    params, p, sums, shadows = one_param(1.0)
    shadows["w"] = np.zeros(1)  # rebound: the shadow starts as the weight's own array
    ema_update(params, shadows, decay=0.999)
    assert shadows["w"][0] == pytest.approx(0.001, abs=1e-15)


def test_ema_geometric_series_closed_form():
    params, p, sums, shadows = one_param(0.7)
    shadows["w"] = np.zeros(1)  # rebound: the shadow starts as the weight's own array
    k = 250
    for _ in range(k):
        ema_update(params, shadows, decay=0.999)
    assert shadows["w"][0] == pytest.approx(0.7 * (1 - 0.999 ** k), abs=1e-12)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def conv_of_length(i, n):
    return Conversation(
        id=f"len{n}-{i}",
        utterances=tuple(
            Utterance(tokens=(Token("w"),), speaker="A", act="x") for _ in range(n)
        ),
    )


def test_bucketing_arithmetic_48_48_4():
    convs = [conv_of_length(i, 7) for i in range(100)]
    batches = make_batches(convs, max_batch=48, rng=np.random.default_rng(0))
    assert sorted(len(b) for b in batches) == [4, 48, 48]


def test_batches_never_mix_lengths():
    convs = [conv_of_length(i, 3 + (i % 4)) for i in range(37)]
    batches = make_batches(convs, max_batch=8, rng=np.random.default_rng(1))
    assert sum(len(b) for b in batches) == 37
    for batch in batches:
        assert len({len(c) for c in batch}) == 1


def test_batch_shuffling_is_seeded():
    convs = [conv_of_length(i, 4) for i in range(20)]
    ids = lambda bs: [[c.id for c in b] for b in bs]
    a = ids(make_batches(convs, 8, np.random.default_rng(3)))
    b = ids(make_batches(convs, 8, np.random.default_rng(3)))
    c = ids(make_batches(convs, 8, np.random.default_rng(4)))
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def small_corpus(seed=7, n=24):
    spec = synthetic.default_spec(
        num_acts=3, self_transition=0.75, num_conversations=n, min_len=3, max_len=5, seed=seed
    )
    convs, _ = synthetic.generate_synthetic(spec)
    return convs


def test_mixed_batch_loss_and_gradients_equal_the_sum_over_length_groups():
    convs = small_corpus(seed=8, n=12)
    widest = {}
    for conv in convs:
        width = max(len(t.surface) for u in conv.utterances for t in u.tokens)
        widest[len(conv)] = max(widest.get(len(conv), 0), width)
    assert len(set(widest.values())) > 1  # the groups' character arrays differ in width
    cfg = TrainConfig(**{**TOY_CFG.__dict__, "l2": 0.0})
    model = DialogueActModel(build_vocab(convs), cfg, rng=np.random.default_rng(3))

    def loss_and_grads(batches):
        for t in model.params.values():
            t.grad = None
        total = 0.0
        for batch in batches:
            with ag.Tape() as tape:
                loss = model.loss(batch, train=False)
            tape.backward(loss)
            total += float(loss.data)
        return total, {name: t.grad for name, t in model.params.items()}

    groups = {}
    for conv in convs:
        groups.setdefault(len(conv), []).append(conv)
    mixed, mixed_grads = loss_and_grads([convs])
    grouped, grouped_grads = loss_and_grads(list(groups.values()))
    assert abs(mixed - grouped) <= 1e-12 * abs(grouped)
    # Relative to the largest gradient entry: memory attention is a softmax
    # over keys, nearly blind to a shift of every key, so ``ctx.b``'s own
    # gradient cancels to ~1e-13 here; every other tensor agrees to ~1e-15
    # of its own largest entry.
    scale = max(np.abs(g).max() for g in grouped_grads.values())
    for name, want in grouped_grads.items():
        assert np.abs(mixed_grads[name] - want).max() <= 1e-12 * scale, name


def test_decode_keeps_input_order_across_sorted_chunks():
    convs = small_corpus(seed=10, n=14)
    cfg = TrainConfig(**{**TOY_CFG.__dict__, "max_batch": 4})
    model = DialogueActModel(build_vocab(convs), cfg, rng=np.random.default_rng(4))
    alone = [model.decode([conv])[0] for conv in convs]
    assert [len(path) for path in alone] == [len(conv) for conv in convs]
    assert model.decode(convs) == alone
    assert model.decode(convs[::-1]) == alone[::-1]


def test_train_loop_validates_inputs():
    convs = small_corpus()
    with pytest.raises(TranscriptError, match="empty"):
        train_loop(convs, [], TOY_CFG)
    with pytest.raises(TranscriptError, match="empty"):
        train_loop([], convs, TOY_CFG)


def test_train_loop_early_stopping_arithmetic():
    convs = small_corpus()
    cfg = TrainConfig(**{**TOY_CFG.__dict__, "max_epochs": 40, "patience": 3, "lr": 0.1})
    model, best_state, history = train_loop(convs[:18], convs[18:], cfg)
    accs = [h["val_accuracy"] for h in history]
    best_epoch = int(np.argmax(accs)) + 1  # first epoch reaching the maximum
    if len(history) < cfg.max_epochs:
        # stopped exactly `patience` epochs after the last improvement
        assert len(history) == best_epoch + cfg.patience
    assert max(accs) == pytest.approx(history[best_epoch - 1]["val_accuracy"])


def test_train_loop_deterministic_and_history_schema(tmp_path):
    convs = small_corpus()
    runs = [train_loop(convs[:18], convs[18:], TOY_CFG) for _ in range(2)]
    h1, h2 = runs[0][2], runs[1][2]
    strip = lambda hs: [{k: v for k, v in h.items() if k not in ("seconds", "utt_per_s")} for h in hs]
    assert strip(h1) == strip(h2)
    for name, value in runs[0][1].items():
        assert np.array_equal(value, runs[1][1][name])
    model = DialogueActModel(build_vocab(convs[:18]), TOY_CFG, rng=np.random.default_rng(0))
    with ag.Tape() as tape:
        model.loss(convs[:4], train=True, rng=np.random.default_rng(0))
    for record in h1:
        assert set(record) == {
            "epoch", "train_loss", "val_accuracy", "seconds", "utt_per_s", "clip_frac", "grad_norm", "grad_norm_max",
            "tape_records",
        }
        assert record["tape_records"] == len(tape.records)  # every batch records the same ops
    path = tmp_path / "history.jsonl"
    write_history(path, h1)
    import json

    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert parsed[0]["epoch"] == 1


@pytest.mark.parametrize("clip_norm, clipped", [(0.0, False), (1e-6, True), (1e6, False)])
def test_history_reports_throughput_and_clip_fraction(clip_norm, clipped, monkeypatch):
    convs = small_corpus()
    cfg = TrainConfig(**{**TOY_CFG.__dict__, "max_epochs": 2, "max_batch": 4, "clip_norm": clip_norm})
    norms = []

    def recording_clip(params, max_norm):
        scale, norm = clip_gradients(params, max_norm)
        norms.append(norm)
        return scale, norm

    monkeypatch.setattr(train_module, "clip_gradients", recording_clip)
    lines = []
    _, _, history = train_loop(convs[:18], convs[18:], cfg, log=lines.append)
    train_utts = sum(len(c) for c in convs[:18])
    steps = len(norms) // len(history)  # every epoch makes the same number of batches
    assert steps * len(history) == len(norms)
    for i, (record, line) in enumerate(zip(history, lines)):
        assert record["utt_per_s"] == pytest.approx(train_utts / record["seconds"], rel=1e-12)
        assert f"{record['utt_per_s']:.0f} utt/s" in line
        # 18 conversations of lengths 3-5 make at least 3 batches of at most 4
        assert record["clip_frac"] == (1.0 if clipped else 0.0)
        epoch = norms[i * steps : (i + 1) * steps]
        assert record["grad_norm"] == np.median(epoch) and record["grad_norm_max"] == max(epoch)
        assert 0.0 < record["grad_norm"] <= record["grad_norm_max"]
    assert json.loads(json.dumps(history)) == history


def test_pad_rows_stay_zero_through_training():
    convs = small_corpus()
    model, best_state, _ = train_loop(convs[:18], convs[18:], TOY_CFG)
    for name in ("emb.word", "emb.char", "emb.pos", "emb.ner"):
        assert not model.params[name].data[0].any()
        assert not best_state[name][0].any()


def test_pad_spelled_as_input_trains_no_pad_row():
    """``<pad>`` tokens and tags read UNK, so no PAD row is read and none moves from zero."""
    pad = Token(PAD, pos=PAD, ner=PAD)
    convs = [
        Conversation(c.id, tuple(
            Utterance(tuple(pad if i % 3 == 0 else t for i, t in enumerate(u.tokens)), u.speaker, u.act)
            for u in c.utterances
        ))
        for c in small_corpus()
    ]
    model, best_state, _ = train_loop(convs[:18], convs[18:], TOY_CFG)
    batch = prepare_batch(convs, model.vocab)
    assert PAD_ID not in batch.word and PAD_ID not in batch.pos and PAD_ID not in batch.ner
    for name in ("emb.word", "emb.char", "emb.pos", "emb.ner"):
        assert not model.params[name].data[PAD_ID].any()
        assert not best_state[name][PAD_ID].any()


def test_checkpoint_round_trip_through_model(tmp_path):
    convs = small_corpus()
    model, best_state, _ = train_loop(convs[:18], convs[18:], TOY_CFG)
    path = str(tmp_path / "model.ckpt")
    model.save(path, state=best_state)
    again = DialogueActModel.load(path)
    assert again.vocab == model.vocab
    assert again.cfg == model.cfg
    # one array per parameter, read in place: no optimizer state, nothing to copy for BLAS
    assert vars(again).keys() == {"vocab", "cfg", "params"}
    assert list(again.params) == list(best_state)
    for name, value in best_state.items():
        data = again.params[name].data
        assert np.array_equal(data, value) and data.dtype == np.float64
        assert all(data.flags[flag] for flag in ("C_CONTIGUOUS", "ALIGNED", "WRITEABLE", "OWNDATA"))
    again.save(str(tmp_path / "again.ckpt"))
    assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "model.ckpt").read_bytes()
    # decoding agrees with the source model evaluated on its best shadows
    assert again.decode(convs[:4]) == model.decode(convs[:4], weights=best_state)


def test_given_weights_are_kept_and_never_written():
    convs = small_corpus()
    model = DialogueActModel(build_vocab(convs), TOY_CFG, rng=np.random.default_rng(3))
    weights = {name: t.data for name, t in model.params.items()}
    weights["emb.pos"] = np.ones_like(weights["emb.pos"])  # PAD rows of 1.0 and -0.0 are kept too
    weights["emb.ner"] = -np.zeros_like(weights["emb.ner"])
    rebuilt = DialogueActModel(model.vocab, TOY_CFG, weights=weights)
    for name, value in weights.items():
        assert rebuilt.params[name].data is value  # owned, C-contiguous float64: kept, not copied
        assert rebuilt.params[name].requires_grad
    assert (weights["emb.pos"] == 1.0).all() and np.signbit(weights["emb.ner"]).all()


def test_given_weights_that_are_views_or_not_float64_are_copied():
    convs = small_corpus()
    model = DialogueActModel(build_vocab(convs), TOY_CFG, rng=np.random.default_rng(3))
    weights = {name: t.data for name, t in model.params.items()}
    wide = np.zeros((weights["crf.trans"].shape[0], 2 * weights["crf.trans"].shape[1]))
    weights["crf.trans"] = wide[:, ::2]  # strided view
    weights["sel.trans"] = np.ones((2, 2), dtype=np.float32)
    rebuilt = DialogueActModel(model.vocab, TOY_CFG, weights=weights)
    for name in ("crf.trans", "sel.trans"):
        data = rebuilt.params[name].data
        assert all(data.flags[flag] for flag in ("C_CONTIGUOUS", "ALIGNED", "WRITEABLE", "OWNDATA"))
        assert data.dtype == np.float64 and np.array_equal(data, weights[name])
        assert not np.shares_memory(data, weights[name])


def test_optimizer_state_matches_the_object_held_reference():
    """The loop's Adagrad sums and EMA shadows update as ones held in an optimizer object do, to the bit."""
    convs = small_corpus()
    cfg = TrainConfig(**{**TOY_CFG.__dict__, "max_epochs": 1})
    train_convs = convs[:18]
    trained, best_state, _ = train_loop(train_convs, convs[18:], cfg)

    vocab, rngs = build_vocab(train_convs), [np.random.default_rng(cfg.seed) for _ in range(2)]
    models = [DialogueActModel(vocab, cfg, rng=rng) for rng in rngs]
    ours, ref = (m.params for m in models)
    sums = {name: np.zeros_like(t.data) for name, t in ours.items()}
    shadows = {name: t.data for name, t in ours.items()}
    reference = ReferenceOptimizer(ref)
    batches = [make_batches(train_convs, cfg.max_batch, rng) for rng in rngs]
    assert len(batches[0]) >= 3
    for step in zip(*batches):
        for m, batch, rng in zip(models, step, rngs):
            for t in m.params.values():
                t.grad = None
            with ag.Tape() as tape:
                loss = m.loss(batch, train=True, rng=rng)
            tape.backward(loss)
            clip_gradients(m.params, cfg.clip_norm)
        adagrad_step(ours, sums, cfg.lr)
        ema_update(ours, shadows, cfg.ema_decay)
        reference.adagrad_step(cfg.lr)
        reference.ema_update(cfg.ema_decay)
        for name in ours:
            assert np.array_equal(ours[name].data, ref[name].data)
            assert np.array_equal(sums[name], reference.sq_accum[name])
            assert np.array_equal(shadows[name], reference.ema[name])
    # train_loop's first epoch runs the same steps and keeps that epoch's shadows
    for name in ours:
        assert np.array_equal(trained.params[name].data, ref[name].data)
        assert np.array_equal(best_state[name], reference.ema[name])


def inference_results(model, convs, shadows):
    """Decode paths, validation accuracy under the EMA ``shadows`` and the attention export."""
    return (
        model.decode(convs),
        model.accuracy(convs, weights=shadows),
        export_attention(convs, model),
    )


def test_inference_never_records_and_leaves_weights_in_place():
    convs = small_corpus()
    model, best_state, _ = train_loop(convs[:18], convs[18:], TOY_CFG)
    params, valid = model.params, convs[18:]
    assert any(not np.array_equal(best_state[n], t.data) for n, t in params.items())
    arrays = {name: t.data for name, t in params.items()}
    expected = inference_results(model, valid, best_state)

    results = []
    with ag.Tape() as tape:
        loss = model.loss(convs[:6], train=True, rng=np.random.default_rng(1))
        recorded = len(tape.records)
        results.append(inference_results(model, valid, best_state))
        worker = threading.Thread(target=lambda: results.append(inference_results(model, valid, best_state)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(tape.records) == recorded
    tape.backward(loss)

    assert results == [expected, expected]
    assert all(params[name].data is array for name, array in arrays.items())
    # EMA validation scores what a model holding the shadows as weights scores
    shadows = DialogueActModel(model.vocab, model.cfg, weights=best_state)
    assert shadows.accuracy(valid) == expected[1]


def test_decode_on_a_snapshot_holds_while_training_steps_run():
    """Three decoding threads against training steps that rebind every weight."""
    convs = small_corpus()
    model = DialogueActModel(build_vocab(convs), TOY_CFG, rng=np.random.default_rng(3))
    params = model.params
    snapshot = {name: t.data for name, t in params.items()}
    sums = {name: np.zeros_like(array) for name, array in snapshot.items()}
    shadows = dict(snapshot)
    expected = model.decode(convs, weights=snapshot)
    with ag.Tape() as tape:
        model.loss(convs[:8], train=True, rng=np.random.default_rng(0))
    records = len(tape.records)

    stop, agreed = threading.Event(), []

    def decode_until_stopped():
        while not stop.is_set():
            agreed.append(model.decode(convs, weights=snapshot) == expected)

    workers = [threading.Thread(target=decode_until_stopped) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    rng = np.random.default_rng(0)
    try:
        for worker in workers:
            worker.start()
        for _ in range(6):
            for t in params.values():
                t.grad = None
            with ag.Tape() as tape:
                loss = model.loss(convs[:8], train=True, rng=rng)
            assert len(tape.records) == records
            tape.backward(loss)
            adagrad_step(params, sums, 0.5)
            ema_update(params, shadows, 0.5)
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert agreed and all(agreed)
    assert not any(np.array_equal(params[name].data, snapshot[name]) for name in ("crf.trans", "sel.w"))


def huge_embeddings(tmp_path, convs, dim):
    """Word vectors so large that the L2 term overflows to inf."""
    path = tmp_path / "huge.txt"
    words = sorted({tok.surface for conv in convs for u in conv.utterances for tok in u.tokens})
    path.write_text("".join(f"{w} {' '.join(['1e200'] * dim)}\n" for w in words), encoding="utf-8")
    return path


def test_train_loop_names_epoch_of_non_finite_loss(tmp_path):
    convs = small_corpus()
    path = huge_embeddings(tmp_path, convs, TOY_CFG.word_dim)
    with pytest.raises(FloatingPointError, match="non-finite training loss inf in epoch 1"):
        train_loop(convs[:18], convs[18:], TOY_CFG, embeddings_path=path)


def test_train_loop_raises_at_a_numpy_overflow():
    # The L2 gradient squares to inf in the clip's norm; unchecked, every update would be scaled to zero.
    convs = small_corpus()
    cfg = TrainConfig(**{**TOY_CFG.__dict__, "l2": 1e300})
    with pytest.raises(FloatingPointError, match="overflow"):
        train_loop(convs[:18], convs[18:], cfg)


def cli_train_with_embeddings(tmp_path, convs, embeddings):
    """``dialact train`` of a toy config; returns (exit code, checkpoint path)."""
    data = tmp_path / "convs.jsonl"
    write_jsonl(data, convs)
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "d = 8\nd_u = 4\nd_c = 4\nd_p = 3\nd_n = 3\nword_dim = 6\nchar_out = 6\n"
        "attn_dim = 4\nemit_dim = 4\nmax_epochs = 2\n",
        encoding="utf-8",
    )
    ckpt = tmp_path / "m.ckpt"
    code = cli.run(
        ["train", "--train", str(data), "--valid", str(data), "--checkpoint", str(ckpt),
         "--config", str(cfg), "--embeddings", str(embeddings), "--quiet"]
    )
    return code, ckpt


def test_cli_train_reports_non_finite_loss_in_one_line(tmp_path, capsys):
    convs = small_corpus()
    code, ckpt = cli_train_with_embeddings(tmp_path, convs, huge_embeddings(tmp_path, convs, 6))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "epoch 1" in err
    assert not ckpt.exists()


def test_cli_train_rejects_non_finite_embeddings_in_one_line(tmp_path, capsys):
    convs = small_corpus()
    word = convs[0].utterances[0].tokens[0].surface
    path = tmp_path / "nan.txt"
    path.write_text(f"{word} {' '.join(['nan'] * 6)}\n", encoding="utf-8")
    code, ckpt = cli_train_with_embeddings(tmp_path, convs, path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"nan.txt:1: embedding row for {word!r} is not finite" in err
    assert not ckpt.exists()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_embeddings_line_replaced_by_text_exits_zero_or_two(tmp_path, capsys, data):
    convs = small_corpus(n=4)
    words = sorted({tok.surface for conv in convs for u in conv.utterances for tok in u.tokens})[:5]
    lines = [f"{w} {' '.join(['0.01'] * 6)}" for w in words]
    # free text, or fields mixing a known word with numbers and non-numbers
    fields = st.sampled_from([words[0], "0.5", "-1e3", "1e200", "nan", "abc", "", "\t"])
    text = st.text() | st.lists(fields, max_size=9).map(" ".join)
    lines[data.draw(st.integers(0, len(lines) - 1), label="line")] = data.draw(text, label="text")
    path = tmp_path / "vecs.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _ = cli_train_with_embeddings(tmp_path, convs, path)
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert err.count("\n") == (code == 2), err
