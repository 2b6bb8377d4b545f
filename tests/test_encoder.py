"""Token embedding, BiGRU encoders, memory attention, encoder gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact import autograd as ag
from dialact import encoder
from dialact.corpus import Conversation, Token, Utterance, build_vocab
from dialact.encoder import (
    char_cnn,
    embed_tokens,
    encode_context,
    encode_utterances,
    gru_sequence,
    memory_layer,
    prepare_batch,
    split_filter_counts,
)
from dialact.model import DialogueActModel
from dialact.train import TrainConfig
from helpers import init_gru, pick, sigmoid, sub

TOY_CFG = TrainConfig(
    d=8, d_u=4, d_c=4, d_p=3, d_n=3, word_dim=6, char_out=6, attn_dim=4, emit_dim=4,
    dropout=0.0, seed=0,
)


def toy_model(seed=0, cfg=TOY_CFG):
    convs = [
        Conversation(
            id="t",
            utterances=(
                Utterance(tokens=(Token("hello"), Token("there"), Token("friend")), speaker="A", act="x"),
                Utterance(tokens=(Token("ok"),), speaker="B", act="y"),
            ),
        )
    ]
    vocab = build_vocab(convs)
    return DialogueActModel(vocab, cfg, rng=np.random.default_rng(seed)), convs, vocab


def test_split_filter_counts():
    assert split_filter_counts(100) == (34, 33, 33)
    assert split_filter_counts(6) == (2, 2, 2)
    assert split_filter_counts(7) == (3, 2, 2)


# ---------------------------------------------------------------------------
# token embedding
# ---------------------------------------------------------------------------


def embed_one(token, vocab, params):
    """Feature row of a single token, through the batched path."""
    conv = Conversation(id="one", utterances=(Utterance(tokens=(token,), speaker="A"),))
    e, index = embed_tokens(prepare_batch([conv], vocab), params)
    assert index.tolist() == [0]
    return e


def test_embed_token_dimension_arithmetic():
    cfg = TrainConfig(d=128, d_u=64)  # defaults: word 100, char 100, pos/ner 16
    model, _, vocab = toy_model(cfg=cfg)
    e = embed_one(Token("hello"), vocab, model.registry.params)
    assert e.shape == (1, 100 + 100 + 16 + 16)
    assert e.shape == (1, 232)


def test_all_pad_chars_yield_bias_only_char_component():
    model, _, vocab = toy_model()
    params = model.registry.params
    # all-PAD char window: conv output is the bias alone, pooled over time
    pad_ids = np.zeros((1, 4), dtype=np.int64)
    out = char_cnn(pad_ids, params)
    expected = np.concatenate([params[f"cnn.b{w}"].data for w in encoder.CHAR_WIDTHS])
    assert np.abs(out.data[0] - expected).max() < 1e-15


def test_unk_word_gets_unk_row_but_real_char_signal():
    model, _, vocab = toy_model()
    params = model.registry.params
    e = embed_one(Token("hullo"), vocab, params)  # unseen word, seen chars
    word_part = e.data[0, : TOY_CFG.word_dim]
    char_part = e.data[0, TOY_CFG.word_dim : TOY_CFG.word_dim + TOY_CFG.char_out]
    assert np.array_equal(word_part, params["emb.word"].data[1])  # UNK row
    bias_only = np.concatenate([params[f"cnn.b{w}"].data for w in encoder.CHAR_WIDTHS])
    assert np.abs(char_part - bias_only).max() > 1e-6  # chars contribute


def char_bank(rng, dim, filters=2):
    """``emb.char`` (PAD row pinned) and one random bank per width, as a registry."""
    reg = ag.ParamRegistry()
    table = rng.normal(size=(7, dim))
    table[0] = 0.0
    reg.add("emb.char", table, frozen_rows=[0])
    for width in encoder.CHAR_WIDTHS:
        reg.add(f"cnn.w{width}", rng.normal(size=(width * dim, filters)))
        reg.add(f"cnn.b{width}", rng.normal(size=filters))
    return reg


def test_char_cnn_single_window_hand_evaluated():
    # one-hot chars "a", "b" then PAD: every width's best window covers both
    reg = ag.ParamRegistry()
    reg.add("emb.char", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for width in encoder.CHAR_WIDTHS:
        reg.add(f"cnn.w{width}", np.ones((2 * width, 1)))
        reg.add(f"cnn.b{width}", np.zeros(1))
    out = char_cnn(np.array([[1, 2, 0, 0]]), reg.params)
    assert out.data.shape == (1, 3)
    assert np.array_equal(out.data, [[2.0, 2.0, 2.0]])
    # rows are position-major: window ("a", "b") reads w[0] (pos 0, col 0) and w[3]
    reg.params["cnn.w2"].data = np.array([[1.0], [10.0], [100.0], [1000.0]])
    assert char_cnn(np.array([[1, 2, 0, 0]]), reg.params).data[0, 0] == 1001.0


def test_char_cnn_shape_errors_name_op_and_shapes():
    reg = char_bank(np.random.default_rng(0), dim=3)
    with pytest.raises(ag.ShapeError, match="char_cnn input length 3 shorter than filter width 4"):
        char_cnn(np.ones((1, 3), dtype=np.int64), reg.params)
    reg.params["cnn.w3"].data = np.zeros((8, 2))
    with pytest.raises(ag.ShapeError, match="char_cnn weight rows 8 != width\\*C 9"):
        char_cnn(np.ones((1, 5), dtype=np.int64), reg.params)


def test_char_cnn_is_one_record_and_passes_grad_check():
    rng = np.random.default_rng(13)
    reg = char_bank(rng, dim=3)
    ids = rng.integers(0, 7, size=(5, 6))
    ids[0] = [3, 0, 0, 0, 0, 0]  # a one-character word
    ids[1] = [2, 2, 2, 2, 2, 2]  # one character repeated
    weights = rng.normal(size=(5, 6))

    def closure():
        return ag.reduce_sum(ag.mul(char_cnn(ids, reg.params), weights))

    with ag.Tape() as tape:
        closure()
    assert [rec.op for rec in tape.records] == ["char_cnn", "mul", "reduce_sum"]
    report = ag.grad_check(closure, reg, eps=1e-4, tol=1e-4, max_per_tensor=30, seed=3)
    assert report.passed, report.summary()


def reference_embed(batch, vocab, params, convs):
    """Token features built token by token from primitive ops (no type rows).

    Each token's characters are looked up and convolved on their own: every
    window is a gathered and flattened (1, k*C) row, the windows stack into
    one (L_out, k*C) matmul, and the max over time picks the argmax window.
    """
    length = batch.char.shape[1]
    rows = []
    for tok in (tok for c in convs for u in c.utterances for tok in u.tokens):
        ids = [vocab.char_id(ch) for ch in tok.chars] + [0] * (length - len(tok.chars))
        pooled = []
        for width in encoder.CHAR_WIDTHS:
            windows = [
                ag.reshape(ag.gather(params["emb.char"], np.array(ids[t : t + width])), (1, -1))
                for t in range(length - width + 1)
            ]
            conv = ag.add(ag.matmul(ag.concat(windows, axis=0), params[f"cnn.w{width}"]), params[f"cnn.b{width}"])
            arg = conv.data.argmax(axis=0)
            pooled.append(pick(ag.transpose_last(conv), arg))
        features = [
            ag.gather(params["emb.word"], np.array([vocab.word_id(tok.surface)])),
            ag.reshape(ag.concat(pooled, axis=0), (1, -1)),
            ag.gather(params["emb.pos"], np.array([vocab.pos_id(tok.pos)])),
            ag.gather(params["emb.ner"], np.array([vocab.ner_id(tok.ner)])),
        ]
        rows.append(ag.concat(features, axis=1))
    return ag.concat(rows, axis=0)


SURFACE_CHARS = "ab\u00e9\u00df\u65e5\U0001f642"  # ASCII, Latin-1, CJK and an emoji


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pool=st.lists(st.text(SURFACE_CHARS, min_size=1, max_size=3), min_size=1, max_size=5),
    long_word=st.text(SURFACE_CHARS, min_size=4, max_size=9),
    b=st.integers(1, 3),
    n=st.integers(1, 3),
    min_count=st.integers(1, 2),
)
def test_type_level_embedding_matches_per_token_reference(seed, pool, long_word, b, n, min_count):
    """Forward bit-for-bit; every emb.* and cnn.* gradient to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    tags = [None, "NN", "VB"]

    def utterance(forced=()):
        picks = rng.integers(0, len(pool), size=rng.integers(1, 6))
        surfaces = [*forced, *(pool[i] for i in picks)]
        return Utterance(
            tokens=tuple(Token(w, pos=tags[rng.integers(3)], ner=tags[rng.integers(3)]) for w in surfaces),
            speaker="A",
            act="x",
        )

    # the longest word, a 1-character word and a repeated surface, all in one batch
    forced = (long_word, pool[0][:1], pool[0], pool[0])
    convs = [
        Conversation(id=f"c{i}", utterances=tuple(utterance(forced if i == j == 0 else ()) for j in range(n)))
        for i in range(b)
    ]
    vocab = build_vocab(convs, min_count=min_count)  # min_count 2 sends several types to UNK
    model = DialogueActModel(vocab, TOY_CFG, rng=rng)
    params = model.registry.params
    batch = prepare_batch(convs, vocab)
    assert batch.word.size < batch.types.size  # repeated surfaces share a type row
    names = [name for name in params if name.startswith(("emb.", "cnn."))]

    def run(build):
        model.registry.zero_grads()
        with ag.Tape() as tape:
            e = build()
            loss = ag.reduce_sum(ag.mul(e, weights))
        tape.backward(loss)
        return e.data, {name: params[name].grad for name in names}

    weights = rng.normal(size=(batch.types.size, TOY_CFG.word_dim + TOY_CFG.char_out + TOY_CFG.d_p + TOY_CFG.d_n))
    ref_e, ref_grads = run(lambda: reference_embed(batch, vocab, params, convs))
    out_e, grads = run(lambda: ag.gather(*embed_tokens(batch, params)))  # rows read at each token
    assert np.array_equal(out_e, ref_e)
    for name in names:
        scale = max(np.abs(ref_grads[name]).max(), 1e-300)
        assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-12 * scale, name


# ---------------------------------------------------------------------------
# utterance encoder
# ---------------------------------------------------------------------------


def gru_pair(seed, input_dim, hidden):
    """The utterance BiGRU's parameters, ``utt_fwd.*`` and ``utt_bwd.*``."""
    reg = ag.ParamRegistry()
    rng = np.random.default_rng(seed)
    init_gru(reg, "utt_fwd", input_dim, hidden, rng)
    init_gru(reg, "utt_bwd", input_dim, hidden, rng)
    return reg.params


def reference_gru_step(params, prefix, x, h):
    """One gated update from primitive tape ops; h' = z * h + (1 - z) * candidate."""

    def p(key):
        return params[f"{prefix}.{key}"]

    r = sigmoid(ag.add(ag.add(ag.matmul(x, p("w_r")), ag.matmul(h, p("u_r"))), p("b_r")))
    z = sigmoid(ag.add(ag.add(ag.matmul(x, p("w_z")), ag.matmul(h, p("u_z"))), p("b_z")))
    cand = ag.tanh(ag.add(ag.add(ag.matmul(x, p("w_h")), ag.matmul(ag.mul(r, h), p("u_h"))), p("b_h")))
    return ag.add(ag.mul(z, h), ag.mul(sub(1.0, z), cand))


def reference_gru(params, prefix, xs, mask, hidden_dim, reverse=False):
    """Padded (B, T, in) GRU whose padded steps freeze the state.

    Returns (final states (B, hidden), per-position states, each (B, hidden)).
    """
    b, t_len, _ = xs.shape
    h = ag.Tensor(np.zeros((b, hidden_dim)))
    states = [None] * t_len
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        m = mask[:, t : t + 1]
        step = reference_gru_step(params, prefix, ag.select(xs, t, axis=1), h)
        h = ag.add(ag.mul(step, m), ag.mul(h, 1.0 - m))
        states[t] = h
    return h, states


def test_encode_utterance_single_step():
    params = gru_pair(1, 5, 3)
    e = ag.Tensor(np.random.default_rng(2).normal(size=(1, 5)))
    u = encode_utterances(e, [1], params)
    assert u.shape == (1, 6)
    # with one token both directions see the same single input
    h_f = gru_sequence(params, "utt_fwd", e, [1])
    h_b = gru_sequence(params, "utt_bwd", e, [1], reverse=True)
    assert np.array_equal(u.data[0, :3], h_f.data[0])
    assert np.array_equal(u.data[0, 3:], h_b.data[0])


def test_direction_symmetry_under_reversal():
    params = gru_pair(3, 4, 3)
    seq = np.random.default_rng(4).normal(size=(6, 4))
    fwd_on_reversed = gru_sequence(params, "utt_fwd", ag.Tensor(seq[::-1].copy()), [6])
    bwd_on_original = gru_sequence(params, "utt_fwd", ag.Tensor(seq), [6], reverse=True)
    assert np.abs(fwd_on_reversed.data - bwd_on_original.data).max() < 1e-14


def test_zero_gru_weights_give_zero_state():
    reg = ag.ParamRegistry()
    init_gru(reg, "z", 4, 3, np.random.default_rng(0), scale=0.0)
    seq = ag.Tensor(np.random.default_rng(1).normal(size=(10, 4)))
    h = gru_sequence(reg.params, "z", seq, [5, 5])
    # candidate tanh(0) = 0 and h0 = 0, so the state never leaves zero
    assert np.array_equal(h.data, np.zeros((2, 3)))


def test_masked_padding_equals_unpadded_encoding():
    # packed form: a sequence's neighbours in the packed rows never reach it
    params = gru_pair(5, 4, 3)
    rng = np.random.default_rng(6)
    short = rng.normal(size=(3, 4))
    packed = np.concatenate([rng.normal(size=(5, 4)), short, rng.normal(size=(2, 4))])
    u_short = encoder.encode_utterances(ag.Tensor(short), [3], params)
    u_packed = encoder.encode_utterances(ag.Tensor(packed), [5, 3, 2], params)
    assert np.abs(u_short.data[0] - u_packed.data[1]).max() < 1e-14


def test_gru_sequence_rejects_bad_lengths():
    params = gru_pair(0, 2, 2)
    x = ag.Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="lengths"):
        gru_sequence(params, "utt_fwd", x, [4, 0])
    with pytest.raises(ag.ShapeError, match="rows"):
        gru_sequence(params, "utt_fwd", x, [2, 1])


def random_gru(rng, input_dim, hidden):
    """GRU parameters away from the small-init regime, so every gate matters."""
    reg = ag.ParamRegistry()
    init_gru(reg, "g", input_dim, hidden, rng, scale=0.5)
    for name in reg.names():
        reg[name].data += rng.normal(scale=0.3, size=reg[name].shape)
    return reg


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 5),
    t_len=st.integers(1, 6),
    e=st.integers(1, 5),
    hidden=st.integers(1, 4),
    reverse=st.booleans(),
    collect=st.booleans(),
)
def test_fused_gru_matches_primitive_reference(seed, b, t_len, e, hidden, reverse, collect):
    """Forward to 1e-12 and every parameter and input gradient to 1e-10."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, t_len + 1, size=b)
    t_len = int(lengths.max())
    real = np.arange(t_len)[None, :] < lengths[:, None]
    reg = random_gru(rng, e, hidden)
    params = reg.params
    padded = reg.add("x", rng.normal(size=(b, t_len, e)))
    weights = rng.normal(size=(int(lengths.sum()) if collect else b, hidden))

    reg.zero_grads()
    with ag.Tape() as tape:
        final, states = reference_gru(params, "g", padded, real.astype(float), hidden, reverse)
        if collect:
            stacked = ag.concat([ag.reshape(s, (b, 1, hidden)) for s in states], axis=1)
            spread = np.zeros((b, t_len, hidden))
            spread[real] = weights
            loss = ag.reduce_sum(ag.mul(stacked, spread))
            expected = stacked.data[real]
        else:
            loss = ag.reduce_sum(ag.mul(final, weights))
            expected = final.data
    tape.backward(loss)
    ref_grads = {name: reg[name].grad.copy() for name in reg.names()}

    reg.zero_grads()
    packed = ag.Tensor(padded.data[real], requires_grad=True)
    with ag.Tape() as tape:
        out = gru_sequence(params, "g", packed, lengths, reverse=reverse, collect=collect)
        loss = ag.reduce_sum(ag.mul(out, weights))
    tape.backward(loss)

    assert np.abs(out.data - expected).max() < 1e-12
    names = [name for name in reg.names() if name.startswith("g.")]
    assert len(names) == 9
    for name in names:
        assert np.abs(params[name].grad - ref_grads[name]).max() < 1e-10, name
    assert np.abs(packed.grad - ref_grads["x"][real]).max() < 1e-10


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("collect", [False, True])
def test_fused_gru_passes_grad_check(reverse, collect):
    check_fused_gru_gradients(reverse, collect, index=None)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("collect", [False, True])
def test_indexed_gru_passes_grad_check(reverse, collect):
    # 11 packed rows read 4 distinct rows, out of order and repeated
    check_fused_gru_gradients(reverse, collect, index=np.array([2, 0, 2, 3, 1, 1, 0, 3, 2, 0, 1]))


def check_fused_gru_gradients(reverse, collect, index):
    rng = np.random.default_rng(21)
    lengths = [3, 1, 4, 1, 2]  # includes length-1 rows
    reg = random_gru(rng, 3, 2)
    x = reg.add("x", rng.normal(size=(sum(lengths) if index is None else index.max() + 1, 3)))
    weights = rng.normal(size=(sum(lengths) if collect else len(lengths), 2))

    def closure():
        out = gru_sequence(reg.params, "g", x, lengths, reverse=reverse, collect=collect, index=index)
        return ag.reduce_sum(ag.mul(out, weights))

    report = ag.grad_check(closure, reg, eps=1e-4, tol=1e-4, max_per_tensor=20, seed=2)
    assert report.passed, report.summary()


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("collect", [False, True])
def test_indexed_gru_matches_gathered_rows(reverse, collect):
    """Forward bit-for-bit; gradients to 1e-12 of each tensor's largest entry."""
    rng = np.random.default_rng(8)
    lengths = [2, 5, 1, 3]
    reg = random_gru(rng, 3, 2)
    x = reg.add("x", rng.normal(size=(5, 3)))
    index = rng.integers(0, 5, size=sum(lengths))
    weights = rng.normal(size=(sum(lengths) if collect else len(lengths), 2))

    def run(build):
        reg.zero_grads()
        with ag.Tape() as tape:
            out = build()
            loss = ag.reduce_sum(ag.mul(out, weights))
        tape.backward(loss)
        return out.data, {name: reg[name].grad.copy() for name in reg.names()}

    ref_out, ref_grads = run(
        lambda: gru_sequence(reg.params, "g", ag.gather(x, index), lengths, reverse=reverse, collect=collect)
    )
    out, grads = run(
        lambda: gru_sequence(reg.params, "g", x, lengths, reverse=reverse, collect=collect, index=index)
    )
    assert np.array_equal(out, ref_out)
    for name in reg.names():
        scale = max(np.abs(ref_grads[name]).max(), 1e-300)
        assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-12 * scale, name


def test_gru_sequence_rejects_bad_index():
    params = gru_pair(0, 2, 2)
    x = ag.Tensor(np.zeros((3, 2)))
    with pytest.raises(ag.ShapeError, match="index"):
        gru_sequence(params, "utt_fwd", x, [2, 2], index=np.array([0, 1, 2]))  # 3 entries for 4 rows
    with pytest.raises(ag.ShapeError, match="index"):
        gru_sequence(params, "utt_fwd", x, [2, 2], index=np.array([[0, 1, 2, 0]]))  # not 1-d
    for bad in (3, -1):
        with pytest.raises(ag.ShapeError, match="index"):
            gru_sequence(params, "utt_fwd", x, [2, 2], index=np.array([0, 1, bad, 2]))


# ---------------------------------------------------------------------------
# context encoder
# ---------------------------------------------------------------------------


def context_setup(seed, d=6, hidden=3):
    """The context encoder's parameters, ``ctx_fwd.*``, ``ctx_bwd.*`` and ``ctx.*``."""
    reg = ag.ParamRegistry()
    rng = np.random.default_rng(seed)
    init_gru(reg, "ctx_fwd", d, hidden, rng)
    init_gru(reg, "ctx_bwd", d, hidden, rng)
    reg.add("ctx.w_fwd", rng.uniform(-0.3, 0.3, (hidden, d)))
    reg.add("ctx.w_bwd", rng.uniform(-0.3, 0.3, (hidden, d)))
    reg.add("ctx.b", np.zeros(d))
    return reg.params


def context_of(us, params):
    """Contextual keys (n, d) of one conversation (n, d), as a batch of one."""
    return encode_context(ag.Tensor(us), [len(us)], params).data


def test_context_single_utterance():
    params = context_setup(7)
    u1 = np.random.default_rng(8).normal(size=(1, 6))
    h = context_of(u1, params)
    assert h.shape == (1, 6)
    h2 = context_of(u1 * 2.0, params)
    assert np.abs(h - h2).max() > 0.0  # h_1 is a function of u_1


def test_context_values_in_tanh_range():
    params = context_setup(9)
    us = np.random.default_rng(10).normal(scale=5.0, size=(4, 6))
    h = context_of(us, params)
    assert np.all(h > -1.0) and np.all(h < 1.0)


def test_permuting_later_utterances_changes_first_context():
    params = context_setup(11)
    rng = np.random.default_rng(12)
    us = rng.normal(size=(5, 6))
    h = context_of(us, params)
    permuted = us.copy()
    permuted[1:] = permuted[[3, 1, 4, 2]]
    h_perm = context_of(permuted, params)
    # the backward pass carries the permutation into position 0
    assert np.abs(h[0] - h_perm[0]).max() > 1e-9


# ---------------------------------------------------------------------------
# memory layer
# ---------------------------------------------------------------------------


def memory_one(u, h):
    """(attention, out, finals) of one conversation (n, d), as a batch of one."""
    return tuple(t.data[0] for t in memory_layer(ag.Tensor(u[None]), ag.Tensor(h[None])))


def test_memory_single_utterance_doubles():
    u = np.random.default_rng(13).normal(size=(1, 4))
    h = np.random.default_rng(14).normal(size=(1, 4))
    p, o, finals = memory_one(u, h)
    assert np.array_equal(p, [[1.0]])
    assert np.array_equal(o, u)
    assert np.abs(finals - 2.0 * u).max() < 1e-15


def test_memory_identical_keys_give_uniform_attention():
    rng = np.random.default_rng(15)
    u = rng.normal(size=(3, 4))
    h = np.tile(rng.normal(size=(1, 4)), (3, 1))
    p, _, _ = memory_one(u, h)
    assert np.abs(p - 1.0 / 3.0).max() < 1e-12


def test_memory_weighted_sum_recomputed_independently():
    rng = np.random.default_rng(16)
    u = rng.normal(size=(3, 5))
    h = rng.normal(size=(3, 5))
    p, o, finals = memory_one(u, h)
    for j in range(3):
        direct = sum(p[j, i] * u[i] for i in range(3))
        assert np.abs(o[j] - direct).max() < 1e-12
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9


def test_memory_residual_identity_exact():
    rng = np.random.default_rng(17)
    u = ag.Tensor(rng.normal(size=(2, 4, 5)))
    h = ag.Tensor(rng.normal(size=(2, 4, 5)))
    _, o, finals = memory_layer(u, h, hops=1)
    assert np.array_equal(finals.data, o.data + u.data)


def test_memory_multi_hop_residual_chain():
    rng = np.random.default_rng(18)
    u = ag.Tensor(rng.normal(size=(1, 3, 4)))
    h = ag.Tensor(rng.normal(size=(1, 3, 4)))
    _, o1, f1 = memory_layer(u, h, hops=1)
    _, o2, f2 = memory_layer(u, h, hops=2)
    # second hop queries the first hop's residual output
    assert np.array_equal(f2.data, o2.data + f1.data)


def test_attention_row_shift_invariance():
    rng = np.random.default_rng(19)
    scores = rng.normal(size=(4, 4))
    p1 = ag.softmax(ag.Tensor(scores), axis=1)
    p2 = ag.softmax(ag.Tensor(scores + 3.21), axis=1)
    assert np.abs(p1.data - p2.data).max() < 1e-10


# ---------------------------------------------------------------------------
# full encoder
# ---------------------------------------------------------------------------


def test_encoded_conversation_field_contracts():
    model, convs, vocab = toy_model()
    batch = prepare_batch(convs, vocab)
    enc = encoder.encode_batch(batch, model.registry.params, model.cfg)
    assert enc.original.shape == (1, 2, TOY_CFG.d)
    assert enc.attention.shape == (1, 2, 2)
    assert np.abs(enc.attention.data.sum(axis=2) - 1.0).max() < 1e-9
    assert np.array_equal(enc.final.data, enc.memory_out.data + enc.original.data)


def test_whole_encoder_gradients_pass_grad_check():
    model, convs, vocab = toy_model()
    batch = prepare_batch(convs, vocab)

    def closure():
        enc = encoder.encode_batch(batch, model.registry.params, model.cfg)
        return ag.reduce_sum(ag.mul(enc.final, enc.final))

    report = ag.grad_check(closure, model.registry, eps=1e-4, tol=1e-4, max_per_tensor=8, seed=1)
    assert report.passed, report.summary()


def repeated_surface_model():
    """A toy model and two conversations whose surfaces repeat.

    "ok" occurs untagged and once tagged NN/PER: one type row, two feature rows.
    """

    def utt(words, act="x", tags=(None, None)):
        return Utterance(tokens=tuple(Token(w, *tags) for w in words), speaker="A", act=act)

    convs = [
        Conversation(id="a", utterances=(utt(["hello", "ok", "ok"]), utt(["ok", "there"], "y"), utt(["hello"] * 3))),
        Conversation(id="b", utterances=(utt(["ok", "friend"], tags=("NN", "PER")), utt(["there", "ok"], "y"))),
    ]
    vocab = build_vocab(convs)
    return DialogueActModel(vocab, TOY_CFG, rng=np.random.default_rng(3)), convs, vocab


def use_per_token_reference(monkeypatch):
    """Make ``embed_tokens`` return one row per token and no index, as with a dropout mask."""
    rows_per_triple = encoder.embed_tokens

    def per_token(batch, params, **kwargs):
        e, index = rows_per_triple(batch, params, **kwargs)
        return ag.gather(e, index), None

    monkeypatch.setattr(encoder, "embed_tokens", per_token)


def test_embed_tokens_one_row_per_triple_unless_masked():
    model, convs, vocab = repeated_surface_model()
    params = model.registry.params
    batch = prepare_batch(convs, vocab)
    e, index = embed_tokens(batch, params)
    triples = set(zip(batch.types.tolist(), batch.pos.tolist(), batch.ner.tolist()))
    assert e.shape[0] == len(triples) == index.max() + 1 < index.size
    surfaces = [t.surface for c in convs for u in c.utterances for t in u.tokens]
    plain, tagged = surfaces.index("ok"), 8  # conversation "b" starts at token 8
    assert surfaces[tagged] == "ok" and batch.types[plain] == batch.types[tagged]
    assert index[plain] != index[tagged]
    assert not np.array_equal(e.data[index[plain]], e.data[index[tagged]])
    # a dropout of 0 draws no mask either; an active mask keeps one row per token
    assert np.array_equal(embed_tokens(batch, params, train=True, dropout_rate=0.0)[1], index)
    masked, none = embed_tokens(batch, params, train=True, rng=np.random.default_rng(0), dropout_rate=0.5)
    assert none is None and masked.shape[0] == index.size


def test_inference_matches_per_token_reference_exactly(monkeypatch):
    model, convs, _ = repeated_surface_model()
    (unary, *_), selection, enc = model.chain_scores(convs)
    use_per_token_reference(monkeypatch)
    (ref_unary, *_), ref_selection, ref_enc = model.chain_scores(convs)
    assert np.array_equal(unary, ref_unary)
    assert np.array_equal(selection.gamma.data, ref_selection.gamma.data)
    assert np.array_equal(enc.attention.data, ref_enc.attention.data)


def test_eval_loss_gradients_match_per_token_reference(monkeypatch):
    """Every parameter gradient to 1e-12 of the tensor's largest entry."""
    model, convs, _ = repeated_surface_model()
    params = model.registry.params

    def gradients():
        model.registry.zero_grads()
        with ag.Tape() as tape:
            loss = model.loss(convs, train=False)
        tape.backward(loss)
        return loss.data, {name: t.grad for name, t in params.items() if t.grad is not None}

    loss, grads = gradients()
    use_per_token_reference(monkeypatch)
    ref_loss, ref_grads = gradients()
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys() == params.keys()
    for name, ref in ref_grads.items():
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name


def test_prepare_batch_packs_mixed_lengths():
    _, convs, vocab = toy_model()
    other = Conversation(
        id="short", utterances=(Utterance(tokens=(Token("hello"),), speaker="A", act="x"),)
    )
    batch = prepare_batch(convs + [other], vocab)
    assert batch.utt_counts.tolist() == [2, 1]
    assert batch.lengths.tolist() == [3, 1, 1]
    assert batch.types.tolist() == [0, 1, 2, 3, 0]  # "hello" keeps its type row


def test_pad_rows_lays_out_each_conversation_then_zeros():
    rows = ag.Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
    with ag.Tape() as tape:
        block = encoder.pad_rows(rows, np.array([2, 3, 1]))
        loss = ag.reduce_sum(ag.mul(block, block))
    assert block.shape == (3, 3, 2)
    assert np.array_equal(block.data[0, :2], rows.data[:2])
    assert np.array_equal(block.data[1], rows.data[2:5])
    assert np.array_equal(block.data[2, 0], rows.data[5])
    assert not block.data[0, 2:].any() and not block.data[2, 1:].any()
    tape.backward(loss)
    assert np.array_equal(rows.grad, 2.0 * rows.data)  # each row read exactly once


def test_memory_masks_keys_past_each_count():
    rng = np.random.default_rng(20)
    counts = np.array([3, 1, 2])
    u = rng.normal(size=(3, 3, 4))
    h = rng.normal(size=(3, 3, 4))
    attn, out, finals = memory_layer(ag.Tensor(u), ag.Tensor(h), hops=2, utt_counts=counts)
    for b, n in enumerate(counts):
        alone = memory_layer(ag.Tensor(u[None, b, :n]), ag.Tensor(h[None, b, :n]), hops=2)
        assert not attn.data[b, :, n:].any()  # padded keys get exactly 0
        for got, want in zip((attn.data[b, :n, :n], out.data[b, :n], finals.data[b, :n]), alone):
            assert np.abs(got - want.data[0]).max() <= 1e-12


def test_encode_batch_of_mixed_lengths_matches_each_conversation_alone():
    spec_rng = np.random.default_rng(21)
    words = ["alpha", "be", "c", "delta", "echo"]

    def conv(cid, n):
        utts = tuple(
            Utterance(
                tokens=tuple(Token(words[i]) for i in spec_rng.integers(0, 5, spec_rng.integers(1, 4))),
                speaker="A",
                act="x",
            )
            for _ in range(n)
        )
        return Conversation(id=cid, utterances=utts)

    convs = [conv("a", 3), conv("b", 1), conv("c", 4), conv("d", 2)]
    vocab = build_vocab(convs)
    model = DialogueActModel(vocab, TOY_CFG, rng=np.random.default_rng(22))
    params = model.registry.params
    mixed = encoder.encode_batch(prepare_batch(convs, vocab), params, model.cfg)
    assert mixed.final.shape == (4, 4, TOY_CFG.d)
    for b, c in enumerate(convs):
        n = len(c)
        alone = encoder.encode_batch(prepare_batch([c], vocab), params, model.cfg)
        for field in ("original", "contextual", "memory_out", "final"):
            got, want = getattr(mixed, field).data[b, :n], getattr(alone, field).data[0]
            assert np.abs(got - want).max() <= 1e-12, field
        assert np.abs(mixed.attention.data[b, :n, :n] - alone.attention.data[0]).max() <= 1e-12
        assert not mixed.original.data[b, n:].any()
