"""Token embedding, BiGRU encoders, memory attention, encoder gradients."""

import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact import autograd as ag
from dialact import encoder
from dialact.corpus import PAD_ID, Conversation, Token, Utterance, build_vocab
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
from helpers import chained_embed_tokens, im2col_char_cnn, init_gru, leaves, pick, retained_backward, sigmoid, sub

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
    e = embed_one(Token("hello"), vocab, model.params)
    assert e.shape == (1, 100 + 100 + 16 + 16)
    assert e.shape == (1, 232)


def test_all_pad_chars_yield_bias_only_char_component():
    model, _, vocab = toy_model()
    params = model.params
    # all-PAD char window: conv output is the bias alone, pooled over time
    pad_ids = np.zeros((1, 4), dtype=np.int64)
    out = char_cnn(pad_ids, params)
    assert np.abs(out.data[0] - params["cnn.b"].data).max() < 1e-15


def test_unk_word_gets_unk_row_but_real_char_signal():
    model, _, vocab = toy_model()
    params = model.params
    e = embed_one(Token("hullo"), vocab, params)  # unseen word, seen chars
    word_part = e.data[0, : TOY_CFG.word_dim]
    char_part = e.data[0, TOY_CFG.word_dim : TOY_CFG.word_dim + TOY_CFG.char_out]
    assert np.array_equal(word_part, params["emb.word"].data[1])  # UNK row
    assert np.abs(char_part - params["cnn.b"].data).max() > 1e-6  # chars contribute


def char_bank(rng, dim, filters=2):
    """``emb.char`` and a random tap matrix of ``filters`` per width, as parameters; no row is zero, PAD's included."""
    return leaves({
        "emb.char": rng.normal(size=(7, dim)),
        "cnn.w": rng.normal(size=(dim, sum(encoder.CHAR_WIDTHS) * filters)),
        "cnn.b": rng.normal(size=len(encoder.CHAR_WIDTHS) * filters),
    })


def test_char_cnn_single_window_hand_evaluated():
    # one-hot chars "a", "b" then PAD: every width's best window covers both
    params = leaves({
        "emb.char": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "cnn.w": np.ones((2, 9)),  # one filter per width: 2 + 3 + 4 taps
        "cnn.b": np.zeros(3),
    })
    out = char_cnn(np.array([[1, 2, 0, 0]]), params)
    assert out.data.shape == (1, 3)
    assert np.array_equal(out.data, [[2.0, 2.0, 2.0]])
    # columns are taps: window ("a", "b") reads tap 0 (column 0) at row "a" and tap 1 (column 1) at row "b"
    taps = np.ones((2, 9))
    taps[:, :2] = [[1.0, 100.0], [10.0, 1000.0]]
    params["cnn.w"].data = taps
    assert char_cnn(np.array([[1, 2, 0, 0]]), params).data[0, 0] == 1001.0


def test_char_cnn_shape_errors_name_op_and_shapes():
    params = char_bank(np.random.default_rng(0), dim=3)
    with pytest.raises(ag.ShapeError, match="char_cnn input length 3 shorter than filter width 4"):
        char_cnn(np.ones((1, 3), dtype=np.int64), params)
    for shape in ((2, 18), (3, 17)):
        params["cnn.w"].data = np.zeros(shape)
        with pytest.raises(ag.ShapeError, match=re.escape(f"char_cnn tap matrix {shape} does not fit C = 3 and 6 filters")):
            char_cnn(np.ones((1, 5), dtype=np.int64), params)


def test_char_cnn_is_one_record_and_passes_grad_check():
    rng = np.random.default_rng(13)
    params = char_bank(rng, dim=3)
    ids = rng.integers(0, 7, size=(5, 6))
    ids[0] = [3, 0, 0, 0, 0, 0]  # a one-character word
    ids[1] = [2, 2, 2, 2, 2, 2]  # one character repeated
    weights = rng.normal(size=(5, 6))

    def closure():
        return ag.reduce_sum(ag.mul(char_cnn(ids, params), weights))

    with ag.Tape() as tape:
        closure()
    assert [rec.op for rec in tape.records] == ["char_cnn", "mul", "reduce_sum"]
    report = ag.grad_check(closure, params, eps=1e-4, tol=1e-4, max_per_tensor=30, seed=3)
    assert report.passed, report.summary()


CHAR_CNN_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    length=st.integers(4, 9),
    dim=st.integers(1, 4),
    chars=st.integers(2, 8),
    filters=st.integers(3, 12),
)


def char_cnn_case(seed, n, length, dim, chars, filters):
    """Parameters with a zero PAD row, ids with PAD anywhere, and a runner of (output, gradients)."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(chars, dim))
    table[PAD_ID] = 0.0
    taps = sum(k * f for k, f in zip(encoder.CHAR_WIDTHS, split_filter_counts(filters)))
    params = leaves({"emb.char": table, "cnn.w": rng.normal(size=(dim, taps)), "cnn.b": rng.normal(size=filters)})
    ids = rng.integers(0, chars, size=(n, length))  # PAD (0) anywhere, as well as after a word
    ids[0, rng.integers(1, length) :] = PAD_ID
    weights = rng.normal(size=(n, filters))

    def run(op):
        for t in params.values():
            t.grad = None
        with ag.Tape() as tape:
            out = op(ids, params)
            loss = ag.reduce_sum(ag.mul(out, weights))
        tape.backward(loss)
        return out.data, {name: t.grad for name, t in params.items()}

    return params, ids, run, rng


@settings(max_examples=40, deadline=None)
@given(**CHAR_CNN_CASES)
def test_char_cnn_matches_im2col_reference(seed, n, length, dim, chars, filters):
    """Outputs and every emb.char/cnn.* gradient to 1e-12 of the tensor's largest entry.

    The reference reads PAD's zero row and sends it gradient; ``char_cnn``
    reads PAD as a constant zero, so its PAD row gets exactly 0 and the
    other rows are compared.
    """
    params, ids, run, _ = char_cnn_case(seed, n, length, dim, chars, filters)
    ref_out, ref_grads = run(im2col_char_cnn)
    out, grads = run(char_cnn)
    assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
    assert not grads["emb.char"][PAD_ID].any()
    grads["emb.char"], ref_grads["emb.char"] = grads["emb.char"][1:], ref_grads["emb.char"][1:]
    for name, grad in grads.items():
        assert np.abs(grad - ref_grads[name]).max() <= 1e-12 * max(np.abs(ref_grads[name]).max(), 1e-300), name
    grad_free = {name: ag.Tensor(t.data) for name, t in params.items()}
    assert np.array_equal(char_cnn(ids, grad_free).data, out)


@settings(max_examples=40, deadline=None)
@given(**CHAR_CNN_CASES)
def test_char_cnn_never_reads_the_pad_row(seed, n, length, dim, chars, filters):
    """Any values in emb.char's PAD row: the same output and gradients to the bit, PAD's gradient 0."""
    params, ids, run, rng = char_cnn_case(seed, n, length, dim, chars, filters)
    out, grads = run(char_cnn)
    table = params["emb.char"].data.copy()
    table[PAD_ID] = rng.normal(size=dim)
    params["emb.char"].data = table
    again, again_grads = run(char_cnn)
    assert np.array_equal(again, out)
    for name, grad in grads.items():
        assert np.array_equal(again_grads[name], grad), name
    assert not again_grads["emb.char"][PAD_ID].any()
    grad_free = {name: ag.Tensor(t.data) for name, t in params.items()}
    assert np.array_equal(char_cnn(ids, grad_free).data, out)


def reference_embed(vocab, params, convs):
    """Token features built token by token from primitive ops (no type rows).

    The character table goes through the tap matrix in one matmul, as in
    ``char_cnn``. Each token's ids are spelled at its own width,
    max(len, widest filter), whatever the batch's widest surface, so its
    windows never depend on its batch mates. Its window scores are sums of
    its characters' projected rows, one gather per tap, and the max over
    time picks the argmax window.
    """
    counts = split_filter_counts(params["cnn.b"].shape[0])
    by_column = ag.transpose_last(ag.matmul(params["emb.char"], params["cnn.w"]))
    tap_tables, start = [], 0
    for width, filters in zip(encoder.CHAR_WIDTHS, counts):
        for _ in range(width):
            tap_tables.append(ag.transpose_last(ag.gather(by_column, np.arange(start, start + filters))))  # (V, F_k)
            start += filters
    biases = np.cumsum([0, *counts])
    rows = []
    for tok in (tok for c in convs for u in c.utterances for tok in u.tokens):
        length = max(len(tok.surface), max(encoder.CHAR_WIDTHS))
        ids = np.array([vocab.char_id(ch) for ch in tok.surface] + [0] * (length - len(tok.surface)))
        pooled, tables = [], iter(tap_tables)
        for width, lo, hi in zip(encoder.CHAR_WIDTHS, biases, biases[1:]):
            span = length - width + 1
            conv = ag.gather(next(tables), ids[:span])
            for j in range(1, width):
                conv = ag.add(conv, ag.gather(next(tables), ids[j : j + span]))
            conv = ag.add(conv, ag.gather(params["cnn.b"], np.arange(lo, hi)))
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
    params = model.params
    batch = prepare_batch(convs, vocab)
    assert batch.word.size < batch.types.size  # repeated surfaces share a type row
    names = [name for name in params if name.startswith(("emb.", "cnn."))]

    def run(build):
        for t in params.values():
            t.grad = None
        with ag.Tape() as tape:
            e = build()
            loss = ag.reduce_sum(ag.mul(e, weights))
        tape.backward(loss)
        return e.data, {name: params[name].grad for name in names}

    weights = rng.normal(size=(batch.types.size, TOY_CFG.word_dim + TOY_CFG.char_out + TOY_CFG.d_p + TOY_CFG.d_n))
    ref_e, ref_grads = run(lambda: reference_embed(vocab, params, convs))
    out_e, grads = run(lambda: ag.gather(*embed_tokens(batch, params)))  # rows read at each token
    assert np.array_equal(out_e, ref_e)
    for name in names:
        grad, ref = grads[name], ref_grads[name]
        if name.startswith("emb."):  # the reference sends PAD characters gradient; no input reads PAD
            assert not grad[PAD_ID].any(), name
            grad, ref = grad[1:], ref[1:]
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(grad - ref).max() <= 1e-12 * scale, name


# ---------------------------------------------------------------------------
# token features: one op for gather, concat and dropout
# ---------------------------------------------------------------------------


def embedding_run(embed, model, batch, train, rate, seed):
    """``embed``'s rows, index, next draw of its rng and emb.*/cnn.* gradients, under a tape."""
    params = model.params
    rng = np.random.default_rng(seed)
    for t in params.values():
        t.grad = None
    with ag.Tape() as tape:
        e, index = embed(batch, params, train=train, rng=rng, dropout_rate=rate)
        weights = np.random.default_rng(seed + 1).normal(size=e.shape)
        loss = ag.reduce_sum(ag.mul(e, weights))
    tape.backward(loss)
    grads = {name: t.grad for name, t in params.items() if name.startswith(("emb.", "cnn."))}
    return e.data, index, rng.random(), grads


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 2),
    lengths=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=4), min_size=1, max_size=3),
    tags=st.sampled_from([(None,), ("NN", "VB"), (None, "NN", "VB")]),
    rate=st.sampled_from([0.0, 0.2, 0.5]),
    train=st.booleans(),
)
def test_token_features_match_gather_concat_dropout_chain(seed, lengths, tags, rate, train):
    """Rows, index, the rng's next draw and every emb.*/cnn.* gradient equal the op-by-op chain's, to the bit.

    The conversations' utterance counts and lengths vary, tags are absent,
    present or mixed, and without a mask (eval, or rate 0) rows are one per
    distinct triple, read by ``index``.
    """
    rng = np.random.default_rng(seed)
    words = ["ok", "hello", "there", "a", "friendly"]

    def token():
        return Token(words[rng.integers(len(words))], pos=tags[rng.integers(len(tags))], ner=tags[rng.integers(len(tags))])

    convs = [
        Conversation(id=f"c{i}", utterances=tuple(
            Utterance(tokens=tuple(token() for _ in range(n)), speaker="A", act="x") for n in counts
        ))
        for i, counts in enumerate(lengths)
    ]
    vocab = build_vocab(convs)
    model = DialogueActModel(vocab, TOY_CFG, rng=rng)
    batch = prepare_batch(convs, vocab)
    got = embedding_run(embed_tokens, model, batch, train, rate, seed)
    want = embedding_run(chained_embed_tokens, model, batch, train, rate, seed)
    assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    if train and rate:
        assert got[1] is None and want[1] is None and got[0].shape[0] == batch.types.size
    else:
        assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]  # the same draws, at the same point in the stream
    assert got[3].keys() == want[3].keys()
    for name, grad in want[3].items():
        assert grad is not None and got[3][name].tobytes() == grad.tobytes(), name


def test_token_features_pass_grad_check_with_a_fixed_mask():
    rng = np.random.default_rng(11)
    params = leaves({name: rng.normal(size=shape) for name, shape in (("t", (4, 3)), ("p", (3, 2)), ("n", (5, 2)))})
    tables = list(params.values())
    rows = [rng.integers(0, table.shape[0], size=9) for table in tables]
    keep = ag.dropout_mask((9, 7), 0.3, rng, train=True)
    assert keep.dtype == bool and 0 < keep.sum() < keep.size
    weights = rng.normal(size=(9, 7))

    def closure():
        return ag.reduce_sum(ag.mul(ag.tanh(encoder.token_features(tables, rows, keep, 0.3)), weights))

    report = ag.grad_check(closure, params, eps=1e-4, tol=1e-4)
    assert report.passed, report.summary()


@pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
@pytest.mark.parametrize("train", [True, False])
def test_embed_tokens_rejects_a_rate_outside_unit_interval(rate, train):
    model, convs, vocab = toy_model()
    with pytest.raises(ValueError, match="dropout rate"):
        embed_tokens(prepare_batch(convs, vocab), model.params, train=train,
                     rng=np.random.default_rng(0), dropout_rate=rate)


def held_arrays(tape):
    """Every ndarray a recorded graph keeps: record outputs and what backward closures reach."""
    found, seen, todo = {}, set(), [rec.output for rec in tape.records] + [rec.backward_fn for rec in tape.records]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while obj.base is not None:  # views count as the array they view
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, ag.Tensor):
            todo += [obj.data, obj.grad]
        elif isinstance(obj, (list, tuple, set)):
            todo += obj
        elif isinstance(obj, dict):
            todo += obj.values()
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo += [cell.cell_contents for cell in obj.__closure__]
        elif hasattr(obj, "__dataclass_fields__"):
            todo += vars(obj).values()
    return list(found.values())


def test_training_forward_keeps_one_float_token_feature_array():
    """A recorded training step holds the token features once, as one (M, E) float64 array.

    Dropout keeps a bool mask. An op-by-op chain would also keep the
    gathered rows, their concatenation, a float mask and the pre-dropout rows.
    """
    _, convs, vocab = repeated_surface_model()
    cfg = TrainConfig(**{**TOY_CFG.__dict__, "dropout": 0.2})
    model = DialogueActModel(vocab, cfg, rng=np.random.default_rng(3))
    batch = prepare_batch(convs, vocab)
    m, e = batch.types.size, cfg.word_dim + cfg.char_out + cfg.d_p + cfg.d_n
    with ag.Tape() as tape:
        model.loss(convs, train=True, rng=np.random.default_rng(0))
    weights = {id(t.data) for t in model.params.values()}
    held = [a for a in held_arrays(tape) if id(a) not in weights]
    token_rows = [a for a in held if a.shape[:1] == (m,) and a.dtype == np.float64]
    assert [a.shape for a in token_rows] == [(m, e)]
    assert any(a.shape == (m, e) and a.dtype == bool for a in held)  # the keep-mask


def recorded_training_step(seed=3):
    """A dropout-on toy model, its loss and the tape that recorded one training step."""
    _, convs, vocab = repeated_surface_model()
    cfg = TrainConfig(**{**TOY_CFG.__dict__, "dropout": 0.2})
    model = DialogueActModel(vocab, cfg, rng=np.random.default_rng(seed))
    with ag.Tape() as tape:
        loss = model.loss(convs, train=True, rng=np.random.default_rng(0))
    return model, loss, tape


def test_backward_frees_the_recorded_graph():
    """After backward the tape is empty, and of what the step made only weights and the loss live.

    Record outputs, backward closures, what they saved and every
    intermediate gradient go with their records, without the cyclic
    collector; the loss keeps no gradient.
    """
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, ag.Tensor)]
    gc.disable()
    try:
        model, loss, tape = recorded_training_step()
        weights = {id(t.data) for t in model.params.values()}
        graph = [weakref.ref(a) for a in held_arrays(tape) if id(a) not in weights and a is not loss.data]
        assert len(graph) > 20
        tape.backward(loss)
        assert tape.records == [] and held_arrays(tape) == []
        assert [ref() for ref in graph if ref() is not None] == []
        known = {id(t) for t in before} | {id(t) for t in model.params.values()}
        made = [o for o in gc.get_objects() if isinstance(o, ag.Tensor) and id(o) not in known]
    finally:
        gc.enable()
    assert made == [loss] and loss.grad is None
    assert all(t.grad is not None for t in model.params.values())


def test_freeing_backward_gives_the_retained_sweeps_gradients_to_the_bit():
    """``Tape.backward`` and the sweep that frees nothing, each on the same step built from one seed."""
    grads = []
    for sweep in (ag.Tape.backward, retained_backward):
        model, loss, tape = recorded_training_step()
        sweep(tape, loss)
        grads.append({name: t.grad for name, t in model.params.items()})
    freed, retained = grads
    assert freed.keys() == retained.keys()
    for name, grad in freed.items():
        assert grad is not None and np.array_equal(grad, retained[name]), name


# ---------------------------------------------------------------------------
# utterance encoder
# ---------------------------------------------------------------------------


def gru_pair(seed, input_dim, hidden):
    """The utterance BiGRU's parameters, ``utt_gru.*``."""
    params = {}
    init_gru(params, "utt_gru", input_dim, hidden, np.random.default_rng(seed))
    return params


def one_direction(params, name, direction):
    """``params`` with BiGRU ``name``'s weights of ``direction`` in both directions' slots."""
    return {**params, **{
        f"{name}.{kind}": ag.Tensor(np.stack([params[f"{name}.{kind}"].data[direction]] * 2)) for kind in "wub"
    }}


def reference_gru_step(params, name, direction, x, h):
    """One gated update from primitive tape ops; h' = z * h + (1 - z) * candidate.

    Each gate's weights are sliced out of the fused ``{name}.*`` tensors
    by tape ops, so their gradients reach the fused tensors.
    """

    def p(kind, gate):
        t = params[f"{name}.{kind}"]
        by_gate = ag.reshape(t, (*t.shape[:-1], 3, t.shape[-1] // 3))
        return ag.select(ag.select(by_gate, gate, axis=t.ndim - 1), direction, axis=0)

    r = sigmoid(ag.add(ag.add(ag.matmul(x, p("w", 0)), ag.matmul(h, p("u", 0))), p("b", 0)))
    z = sigmoid(ag.add(ag.add(ag.matmul(x, p("w", 1)), ag.matmul(h, p("u", 1))), p("b", 1)))
    cand = ag.tanh(ag.add(ag.add(ag.matmul(x, p("w", 2)), ag.matmul(ag.mul(r, h), p("u", 2))), p("b", 2)))
    return ag.add(ag.mul(z, h), ag.mul(sub(1.0, z), cand))


def reference_gru(params, name, xs, mask, hidden_dim, reverse=False):
    """Padded (B, T, in) GRU, direction 1 of ``name`` if ``reverse`` else 0, whose padded steps freeze the state.

    Returns (final states (B, hidden), per-position states, each (B, hidden)).
    """
    b, t_len, _ = xs.shape
    h = ag.Tensor(np.zeros((b, hidden_dim)))
    states = [None] * t_len
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        m = mask[:, t : t + 1]
        step = reference_gru_step(params, name, int(reverse), ag.select(xs, t, axis=1), h)
        h = ag.add(ag.mul(step, m), ag.mul(h, 1.0 - m))
        states[t] = h
    return h, states


def test_encode_utterance_single_step():
    params = gru_pair(1, 5, 3)
    e = ag.Tensor(np.random.default_rng(2).normal(size=(1, 5)))
    u = encode_utterances(e, [1], params)
    assert u.shape == (1, 6)
    # with one token both directions see the same single input
    same = gru_sequence(one_direction(params, "utt_gru", 1), "utt_gru", e, [1]).data
    assert np.array_equal(same[:, :3], same[:, 3:])
    assert np.array_equal(u.data[:, 3:], same[:, 3:])
    for half in range(2):
        ref = reference_gru_step(params, "utt_gru", half, e, ag.Tensor(np.zeros((1, 3))))
        assert np.abs(u.data[:, 3 * half : 3 * half + 3] - ref.data).max() < 1e-12


def test_direction_symmetry_under_reversal():
    params = gru_pair(3, 4, 3)
    seq = np.random.default_rng(4).normal(size=(6, 4))
    forward_twice = one_direction(params, "utt_gru", 0)
    on_reversed = gru_sequence(forward_twice, "utt_gru", ag.Tensor(seq[::-1].copy()), [6]).data
    on_original = gru_sequence(forward_twice, "utt_gru", ag.Tensor(seq), [6]).data
    assert np.abs(on_reversed[:, :3] - on_original[:, 3:]).max() < 1e-14


def test_zero_gru_weights_give_zero_state():
    params = {}
    init_gru(params, "z", 4, 3, np.random.default_rng(0), scale=0.0)
    seq = ag.Tensor(np.random.default_rng(1).normal(size=(10, 4)))
    h = gru_sequence(params, "z", seq, [5, 5])
    # candidate tanh(0) = 0 and h0 = 0, so the state never leaves zero
    assert np.array_equal(h.data, np.zeros((2, 6)))


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
        gru_sequence(params, "utt_gru", x, [4, 0])
    with pytest.raises(ag.ShapeError, match="rows"):
        gru_sequence(params, "utt_gru", x, [2, 1])


@pytest.mark.parametrize("kind, shape", [("w", (2, 3, 6)), ("w", (1, 2, 6)), ("u", (2, 2, 4)), ("b", (6,))])
def test_gru_sequence_rejects_weights_that_do_not_fit(kind, shape):
    params = gru_pair(0, 2, 2)
    params["utt_gru." + kind] = ag.Tensor(np.zeros(shape))
    with pytest.raises(ag.ShapeError, match="utt_gru weights .* do not fit E = 2 inputs"):
        gru_sequence(params, "utt_gru", ag.Tensor(np.zeros((4, 2))), [2, 2])


PAIR = "pair"  # the tests' BiGRU


def random_pair(rng, input_dim, hidden):
    """The BiGRU ``PAIR``, away from the small-init regime, so every gate matters."""
    params = {}
    init_gru(params, PAIR, input_dim, hidden, rng, scale=0.5)
    for t in params.values():
        t.data += rng.normal(scale=0.3, size=t.shape)
    return params


def check_pair_against_reference(rng, lengths, e, hidden, collect, indexed):
    """One pair op against two primitive reference GRUs, forward and reversed.

    Each half of the output matches its reference to 1e-12, and every
    parameter and input gradient to 1e-10. With ``indexed``, the op reads
    distinct rows by an index and the reference the gathered rows. The
    op's grad-free forward, which keeps no gates, equals its recorded one
    bit for bit.
    """
    b, t_len = len(lengths), int(lengths.max())
    real = np.arange(t_len)[None, :] < lengths[:, None]
    m = int(lengths.sum())
    params = random_pair(rng, e, hidden)
    distinct = rng.normal(size=(max(1, m // 2) if indexed else m, e))
    index = rng.integers(0, len(distinct), size=m) if indexed else None
    padded_rows = np.zeros((b, t_len, e))
    padded_rows[real] = distinct if index is None else distinct[index]
    padded = params["x"] = ag.Tensor(padded_rows, requires_grad=True)
    weights = rng.normal(size=(m if collect else b, 2 * hidden))

    for t in params.values():
        t.grad = None
    with ag.Tape() as tape:
        halves = []
        for half, reverse in enumerate((False, True)):
            final, states = reference_gru(params, PAIR, padded, real.astype(float), hidden, reverse)
            w_half = weights[:, half * hidden : (half + 1) * hidden]
            if collect:
                stacked = ag.concat([ag.reshape(s, (b, 1, hidden)) for s in states], axis=1)
                spread = np.zeros((b, t_len, hidden))
                spread[real] = w_half
                halves.append((ag.reduce_sum(ag.mul(stacked, spread)), stacked.data[real]))
            else:
                halves.append((ag.reduce_sum(ag.mul(final, w_half)), final.data))
        loss = ag.add(halves[0][0], halves[1][0])
    tape.backward(loss)
    expected = np.concatenate([halves[0][1], halves[1][1]], axis=1)
    ref_grads = {name: params[name].grad.copy() for name in params}
    ref_dx = ref_grads["x"][real]
    if index is not None:
        ref_dx = ag.scatter_add(index, ref_dx, len(distinct))

    for t in params.values():
        t.grad = None
    x = ag.Tensor(distinct, requires_grad=True)
    with ag.Tape() as tape:
        out = gru_sequence(params, PAIR, x, lengths, collect=collect, index=index)
        loss = ag.reduce_sum(ag.mul(out, weights))
    tape.backward(loss)
    grad_free = {name: ag.Tensor(t.data) for name, t in params.items()}
    lean = gru_sequence(grad_free, PAIR, ag.Tensor(distinct), lengths, collect=collect, index=index)

    assert out.shape == expected.shape
    assert np.array_equal(lean.data, out.data)
    assert np.abs(out.data - expected).max() < 1e-12
    names = [name for name in params if name != "x"]
    assert len(names) == 3
    for name in names:
        assert np.abs(params[name].grad - ref_grads[name]).max() < 1e-10, name
    assert np.abs(x.grad - ref_dx).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 5),
    t_len=st.integers(1, 6),
    e=st.integers(1, 5),
    hidden=st.integers(1, 4),
    collect=st.booleans(),
    indexed=st.booleans(),
)
def test_fused_gru_matches_primitive_reference(seed, b, t_len, e, hidden, collect, indexed):
    rng = np.random.default_rng(seed)
    check_pair_against_reference(rng, rng.integers(1, t_len + 1, size=b), e, hidden, collect, indexed)


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("collect", [False, True])
def test_gru_pair_branches_agree_on_mixed_lengths(collect, indexed):
    # length-1 sequences take only the zero-state step
    lengths = np.array([3, 1, 5, 1, 2, 1, 4])
    check_pair_against_reference(np.random.default_rng(17), lengths, 4, 3, collect, indexed)


def pair_weights(rng, rows, hidden, bwd_only):
    """Loss weights over a pair's (rows, 2H) output; ``bwd_only`` zeroes the forward half."""
    weights = rng.normal(size=(rows, 2 * hidden))
    if bwd_only:
        weights[:, :hidden] = 0.0  # the forward GRU's gradients must then be zero
    return weights


@pytest.mark.parametrize("bwd_only", [False, True])
@pytest.mark.parametrize("collect", [False, True])
def test_fused_gru_passes_grad_check(bwd_only, collect):
    check_fused_gru_gradients(bwd_only, collect, index=None)


@pytest.mark.parametrize("bwd_only", [False, True])
@pytest.mark.parametrize("collect", [False, True])
def test_indexed_gru_passes_grad_check(bwd_only, collect):
    # 11 packed rows read 4 distinct rows, out of order and repeated
    check_fused_gru_gradients(bwd_only, collect, index=np.array([2, 0, 2, 3, 1, 1, 0, 3, 2, 0, 1]))


def check_fused_gru_gradients(bwd_only, collect, index):
    rng = np.random.default_rng(21)
    lengths = [3, 1, 4, 1, 2]  # includes length-1 rows
    params = random_pair(rng, 3, 2)
    rows = rng.normal(size=(sum(lengths) if index is None else index.max() + 1, 3))
    x = params["x"] = ag.Tensor(rows, requires_grad=True)
    weights = pair_weights(rng, sum(lengths) if collect else len(lengths), 2, bwd_only)

    def closure():
        out = gru_sequence(params, PAIR, x, lengths, collect=collect, index=index)
        return ag.reduce_sum(ag.mul(out, weights))

    report = ag.grad_check(closure, params, eps=1e-4, tol=1e-4, max_per_tensor=20, seed=2)
    assert report.passed, report.summary()


@pytest.mark.parametrize("bwd_only", [False, True])
@pytest.mark.parametrize("collect", [False, True])
def test_indexed_gru_matches_gathered_rows(bwd_only, collect):
    """Forward bit-for-bit; gradients to 1e-12 of each tensor's largest entry."""
    rng = np.random.default_rng(8)
    lengths = [2, 5, 1, 3]
    params = random_pair(rng, 3, 2)
    x = params["x"] = ag.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    index = rng.integers(0, 5, size=sum(lengths))
    weights = pair_weights(rng, sum(lengths) if collect else len(lengths), 2, bwd_only)

    def run(build):
        for t in params.values():
            t.grad = None
        with ag.Tape() as tape:
            out = build()
            loss = ag.reduce_sum(ag.mul(out, weights))
        tape.backward(loss)
        return out.data, {name: params[name].grad.copy() for name in params}

    ref_out, ref_grads = run(lambda: gru_sequence(params, PAIR, ag.gather(x, index), lengths, collect=collect))
    out, grads = run(lambda: gru_sequence(params, PAIR, x, lengths, collect=collect, index=index))
    assert np.array_equal(out, ref_out)
    for name in params:
        if bwd_only and name != "x":
            assert not grads[name][0].any(), name  # the forward direction's weights
        scale = max(np.abs(ref_grads[name]).max(), 1e-300)
        assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-12 * scale, name


def test_gru_sequence_rejects_bad_index():
    params = gru_pair(0, 2, 2)
    x = ag.Tensor(np.zeros((3, 2)))
    with pytest.raises(ag.ShapeError, match="index"):
        gru_sequence(params, "utt_gru", x, [2, 2], index=np.array([0, 1, 2]))  # 3 entries for 4 rows
    with pytest.raises(ag.ShapeError, match="index"):
        gru_sequence(params, "utt_gru", x, [2, 2], index=np.array([[0, 1, 2, 0]]))  # not 1-d
    for bad in (3, -1):
        with pytest.raises(ag.ShapeError, match="index"):
            gru_sequence(params, "utt_gru", x, [2, 2], index=np.array([0, 1, bad, 2]))


# ---------------------------------------------------------------------------
# context encoder
# ---------------------------------------------------------------------------


def context_setup(seed, d=6, hidden=3):
    """The context encoder's parameters, ``ctx_gru.*`` and ``ctx.*``."""
    params = {}
    rng = np.random.default_rng(seed)
    init_gru(params, "ctx_gru", d, hidden, rng)
    params.update(leaves({"ctx.w": rng.uniform(-0.3, 0.3, (2 * hidden, d)), "ctx.b": np.zeros(d)}))
    return params


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
    enc = encoder.encode_batch(batch, model.params, model.cfg)
    assert enc.original.shape == (1, 2, TOY_CFG.d)
    assert enc.attention.shape == (1, 2, 2)
    assert np.abs(enc.attention.data.sum(axis=2) - 1.0).max() < 1e-9
    assert np.array_equal(enc.final.data, enc.memory_out.data + enc.original.data)


def test_whole_encoder_gradients_pass_grad_check():
    model, convs, vocab = toy_model()
    batch = prepare_batch(convs, vocab)

    def closure():
        enc = encoder.encode_batch(batch, model.params, model.cfg)
        return ag.reduce_sum(ag.mul(enc.final, enc.final))

    report = ag.grad_check(closure, model.params, eps=1e-4, tol=1e-4, max_per_tensor=40, seed=1)
    assert report.passed, report.summary()
    assert sum(n for _, _, n in report.entries) >= 536  # the coverage at the fused weight layout


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
    params = model.params
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
    tables, gammas, attentions = model.potential_tables(convs)
    use_per_token_reference(monkeypatch)
    ref_tables, ref_gammas, ref_attentions = model.potential_tables(convs)
    for got, want in zip(tables, ref_tables):
        assert np.array_equal(got.unary, want.unary)
    assert all(map(np.array_equal, gammas, ref_gammas))
    assert all(map(np.array_equal, attentions, ref_attentions))


def test_eval_loss_gradients_match_per_token_reference(monkeypatch):
    """Every parameter gradient to 1e-12 of the tensor's largest entry."""
    model, convs, _ = repeated_surface_model()
    params = model.params

    def gradients():
        for t in params.values():
            t.grad = None
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
    params = model.params
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
