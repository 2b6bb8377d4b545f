"""The three benchmark workloads and the loop that measures them.

Each workload is closed-loop with a single client: the next unit of work
starts when the previous one has returned. A unit is one ``train_loop``
call on ``train-c4``, one batched ``model.decode`` over ten conversations
of one length on ``decode-longconv`` and one ``model.decode([conv])`` on
``latency-longutt``. Inputs come from the seed alone; the program only
sees the generated transcripts, which go through ``write``/``parse_jsonl``
like any user file. See README.md for why each workload exists.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from dialact import baselines, corpus, model, oracles, synthetic, train

from layertrace import Tracer, metric_units

SETUP_REPEATS = 5
TRAIN_EPOCHS = 3
ACTS = ("greet", "question", "answer", "statement", "backchannel")
STAY = 0.7  # self-transition of the act chain in the decode corpora
CONV_LENGTHS = range(8, 16)  # utterances per conversation on train-c4 and latency-longutt
LONGCONV_LENGTHS = range(40, 61)
LONGCONV_PER_LENGTH = 10  # one decode call: ~500 utterance rows, like a training batch
LATENCY_POOL = 1200
# every act's phrases have exactly these token counts: a long tail from 2 to 50
LATENCY_PHRASE_LENGTHS = (2, 2, 3, 3, 4, 4, 5, 6, 8, 11, 16, 23, 34, 50)
CHECK_SAMPLE = 6  # equal-length conversations decoded alone and compared with their batch
ENUM_LENGTHS = (2, 3, 4, 5, 6)  # short conversations checked by enumeration

# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _words(rng, count):
    """Pseudo-words of 2..8 letters; the length pattern is the same for every seed."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    return ["".join(rng.choice(letters, size=2 + i % 7)) for i in range(count)]


def _phrase_tables(rng, lengths):
    """Per act, one phrase of each given token count over a private word list."""
    words = _words(rng, 400)
    return [[list(rng.choice(words, size=n)) for n in lengths] for _ in ACTS]


def _transcripts(rng, tables, lengths, prefix):
    """Conversations as transcript-format dicts; acts follow a sticky Markov chain."""
    out = []
    for i, n in enumerate(lengths):
        act = int(rng.integers(len(ACTS)))
        utterances = []
        for t in range(n):
            if t and rng.random() >= STAY:
                act = (act + int(rng.integers(1, len(ACTS)))) % len(ACTS)
            phrase = tables[act][int(rng.integers(len(tables[act])))]
            utterances.append({"speaker": "AB"[t % 2], "tokens": phrase, "act": ACTS[act]})
        out.append({"id": f"{prefix}-{i:05d}", "utterances": utterances})
    return out


def _write_and_parse(workdir, name, objects):
    path = workdir / f"{name}.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for obj in objects:
            f.write(json.dumps(obj) + "\n")
    return corpus.parse_jsonl(path)


def _load_random_model(workdir, conversations, seed):
    """Default-config model, randomly initialised, round-tripped through a checkpoint."""
    vocab = corpus.build_vocab(conversations)
    fresh = model.DialogueActModel(vocab, train.TrainConfig(), rng=np.random.default_rng(seed))
    path = workdir / "model.ckpt"
    fresh.save(path)
    return model.DialogueActModel.load(path)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Unit:
    """What one unit of work did: time, utterances, latencies, check verdicts."""

    def __init__(self, seconds, utterances, latencies_ms, checks):
        self.seconds = seconds
        self.utterances = utterances
        self.latencies_ms = latencies_ms
        self.checks = checks


class TrainC4:
    """``train_loop`` on the acceptance-gate (criterion-4) corpus and config."""

    name = "train-c4"
    training = True

    def __init__(self, seed, workdir, scale):
        n_train, n_valid = round(300 * scale), round(50 * scale)
        # Lengths cycle over 8..15, so every seed gives the same batch shapes.
        train_lengths = [CONV_LENGTHS[i % len(CONV_LENGTHS)] for i in range(n_train)]
        valid_lengths = [CONV_LENGTHS[i % len(CONV_LENGTHS)] for i in range(n_valid)]
        train_convs, valid_convs = [], []
        for n in CONV_LENGTHS:
            k_train, k_valid = train_lengths.count(n), valid_lengths.count(n)
            spec = synthetic.default_spec(
                num_acts=5, self_transition=0.7, num_conversations=k_train + k_valid,
                min_len=n, max_len=n, seed=seed * 100 + n,
            )
            convs, _ = synthetic.generate_synthetic(spec)
            convs = [corpus.Conversation(f"c4-{n}-{i}", c.utterances) for i, c in enumerate(convs)]
            train_convs += convs[:k_train]
            valid_convs += convs[k_train:]
        path = workdir / "train-c4.jsonl"
        corpus.write_jsonl(path, train_convs + valid_convs)
        convs = corpus.parse_jsonl(path)
        self.train, self.valid = convs[:n_train], convs[n_train:]
        self.train_utts = sum(len(c) for c in self.train)
        self.majority, _ = baselines.majority_baseline(self.train, self.valid)
        self.cfg = train.TrainConfig(
            d=64, d_u=32, lr=0.05, ema_decay=0.9, max_epochs=TRAIN_EPOCHS,
            patience=TRAIN_EPOCHS, seed=seed,
        )
        self.first = None
        self.val_acc = None

    def unit(self, index):
        _, _, history = train.train_loop(self.train, self.valid, self.cfg)
        losses = [h["train_loss"] for h in history]
        accs = [h["val_accuracy"] for h in history]
        checks = [math.isfinite(loss) for loss in losses]
        checks.append(len(history) == TRAIN_EPOCHS)
        checks.append(bool(accs) and accs[-1] >= self.majority)
        if self.first is None:
            self.first = (losses, accs)
            self.val_acc = accs[-1] if accs else 0.0
        else:
            checks.append((losses, accs) == self.first)  # fixed seed, same result
        latencies = [1e3 * h["seconds"] for h in history]
        return TRAIN_EPOCHS * self.train_utts, latencies, checks

    def sample_checks(self):
        return []

    def report(self, metrics):
        return {
            "train_utt_per_s": metrics["utt_per_s"],
            "train_val_acc": (self.val_acc, "fraction", sum(len(c) for c in self.valid)),
            "majority_baseline_acc": (self.majority, "fraction", sum(len(c) for c in self.valid)),
        }


class _Decode:
    """Shared parts of the decode workloads: model, sample checks."""

    training = False

    def _finish_setup(self, workdir, seed, rng, tables):
        short = _transcripts(rng, tables, ENUM_LENGTHS, "short")
        self.short = _write_and_parse(workdir, "short", short)
        self.model = _load_random_model(workdir, self.pool + self.short, seed)
        self.acts = set(self.model.vocab.act_names)
        n = len(self.pool[int(rng.integers(len(self.pool)))])
        self.sample = [c for c in self.pool if len(c) == n][:CHECK_SAMPLE]

    def _valid(self, convs, paths):
        return len(paths) == len(convs) and all(
            len(path) == len(conv) and set(path) <= self.acts for conv, path in zip(convs, paths)
        )

    def sample_checks(self):
        """Batched equals alone on a sample; Viterbi equals enumeration on short chains."""
        batched = self.model.decode(self.sample)
        checks = [len(batched) == len(self.sample)]
        for conv, path in zip(self.sample, batched):
            checks.append(self.model.decode([conv])[0] == path)
        names = self.model.vocab.act_names
        for conv in self.short:
            tables, _, _ = self.model.potential_tables([conv])
            _, _, _, best, _ = oracles.enumerate_chain(tables[0])
            checks.append(self.model.decode([conv])[0] == [names[y] for y in best])
        return checks

    def report(self, metrics):
        return {}


class DecodeLongConv(_Decode):
    """Batched decode of long conversations (40-60 utterances of 4 tokens)."""

    name = "decode-longconv"

    def __init__(self, seed, workdir, scale):
        rng = np.random.default_rng(seed)
        tables = _phrase_tables(rng, (4,) * 8)
        per_length = max(2, round(LONGCONV_PER_LENGTH * scale))
        lengths = [n for n in LONGCONV_LENGTHS for _ in range(per_length)]
        lengths = [lengths[i] for i in rng.permutation(len(lengths))]
        self.pool = _write_and_parse(workdir, "longconv", _transcripts(rng, tables, lengths, "long"))
        self._finish_setup(workdir, seed, rng, tables)
        order = [LONGCONV_LENGTHS[i] for i in rng.permutation(len(LONGCONV_LENGTHS))]
        self.batches = [[c for c in self.pool if len(c) == n] for n in order]
        self.first = [self.model.decode(batch) for batch in self.batches]  # warm-up pass

    def unit(self, index):
        i = index % len(self.batches)
        batch = self.batches[i]
        start = time.perf_counter()
        paths = self.model.decode(batch)
        seconds = time.perf_counter() - start
        checks = [self._valid(batch, paths), paths == self.first[i]]
        return sum(len(c) for c in batch), [1e3 * seconds], checks

    def report(self, metrics):
        utt_per_s, _, calls = metrics["utt_per_s"]
        mean_length = sum(len(c) for c in self.pool) / len(self.pool)
        return {"decode_conv_per_s": (utt_per_s / mean_length, "conv/s", calls)}


class LatencyLongUtt(_Decode):
    """One caller decoding one conversation at a time; long-tailed utterance lengths."""

    name = "latency-longutt"

    def __init__(self, seed, workdir, scale):
        rng = np.random.default_rng(seed)
        tables = _phrase_tables(rng, LATENCY_PHRASE_LENGTHS)
        size = max(8, round(LATENCY_POOL * scale))
        lengths = [CONV_LENGTHS[i % len(CONV_LENGTHS)] for i in range(size)]
        lengths = [lengths[i] for i in rng.permutation(size)]
        self.pool = _write_and_parse(workdir, "longutt", _transcripts(rng, tables, lengths, "lat"))
        self._finish_setup(workdir, seed, rng, tables)
        for conv in self.pool[:20]:  # warm-up pass
            self.model.decode([conv])

    def unit(self, index):
        conv = self.pool[index % len(self.pool)]
        start = time.perf_counter()
        paths = self.model.decode([conv])
        seconds = time.perf_counter() - start
        return len(conv), [1e3 * seconds], [self._valid([conv], paths)]


WORKLOADS = {w.name: w for w in (TrainC4, DecodeLongConv, LatencyLongUtt)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _gen2():
    return gc.get_stats()[2]["collections"]


def _timed_unit(work, index, errors):
    """Run one unit; a unit that raises counts as one failed check.

    train-c4 starts each unit from a clean heap, as a fresh process would.
    Returns the Unit and the generation-2 collections it triggered.
    """
    if work.training:
        gc.collect()
    gen2 = _gen2()
    start = time.perf_counter()
    try:
        utterances, latencies, checks = work.unit(index)
    except Exception as e:  # the program failed this operation; report, go on
        errors.append(f"unit {index}: {e!r}")
        utterances, latencies, checks = 0, [], [False]
    return Unit(time.perf_counter() - start, utterances, latencies, checks), _gen2() - gen2


def _measure(work, seconds, errors, tracer=None):
    """Closed loop for about ``seconds``: start a unit only if it should end in time.

    With a ``tracer``, every unit runs twice on the same input, untraced
    then traced; the traced copy feeds only the tracer. Returns the
    untraced units, their generation-2 collections and the traced seconds.
    """
    units, gen2 = [], []
    traced_seconds = 0.0
    start = time.perf_counter()
    last = 0.0
    while not units or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        unit, collections = _timed_unit(work, len(units), errors)
        units.append(unit)
        gen2.append(collections)
        if tracer is not None:
            tracer.install()
            try:
                traced_seconds += _timed_unit(work, len(units) - 1, errors)[0].seconds
            finally:
                tracer.uninstall()
        last = time.perf_counter() - t0
    return units, gen2, traced_seconds


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def environment(root, blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "commit": _git_commit(root),
    }


def _git_commit(root):
    """HEAD of a git checkout at ``root``, read from the files; 'unknown' otherwise."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name, seed, seconds, trace, root, scale=1.0):
    """Set up and measure one workload; returns the result document.

    ``scale`` shrinks the inputs for the smoke test only.
    """
    cls = WORKLOADS[name]
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        return _run(cls, seed, seconds, trace, workdir, scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def _setup(cls, seed, workdir, scale, index):
    sub = workdir / f"setup{index}"
    sub.mkdir()
    start = time.perf_counter()
    work = cls(seed, sub, scale)
    return work, time.perf_counter() - start


def _run(cls, seed, seconds, trace, workdir, scale):
    errors = []
    if trace:
        setup_tracer = Tracer(cls.training)
        setup_tracer.install()
        try:
            work, _ = _setup(cls, seed, workdir, scale, 0)
        finally:
            setup_tracer.uninstall()
        tracer = Tracer(cls.training)
        _timed_unit(work, 0, [])  # untimed: both sides of the comparison start warm
        units, gen2, traced_seconds = _measure(work, seconds, errors, tracer)
    else:
        setup_times = []
        for i in range(SETUP_REPEATS):
            work = None  # free the previous set-up first, so it does not add to peak RSS
            work, took = _setup(cls, seed, workdir, scale, i)
            setup_times.append(took)
        units, gen2, _ = _measure(work, seconds, errors)

    checks = [ok for unit in units for ok in unit.checks]
    try:
        checks += work.sample_checks()
    except Exception as e:  # a crash in a check is a failed check
        errors.append(f"sample checks: {e!r}")
        checks.append(False)
    doc = {
        "workload": cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "units": len(units),
        "attempted": len(checks),
        "failed": checks.count(False),
        "failed_frac": checks.count(False) / len(checks),
        "errors": errors,
    }
    done = [u for u in units if u.utterances]
    if trace:
        untraced = sum(u.seconds for u in units)
        overhead = 100.0 * (traced_seconds / untraced - 1.0)
        values, absent = tracer.metrics(setup_tracer, len(units), statistics.mean(gen2), overhead)
        units_of = metric_units()
        doc["metrics"] = {name: (values[name], units_of[name], len(units)) for name in units_of}
        doc["other_metrics"] = {k: v for k, v in values.items() if k not in units_of}
        doc["absent"] = absent
        return doc
    rates = [u.utterances / u.seconds for u in done]
    latencies = [ms for u in done for ms in u.latencies_ms]
    doc["metrics"] = {
        "utt_per_s": (statistics.median(rates) if rates else 0.0, "utt/s", len(rates)),
        "latency_ms_p50": (_percentile(latencies, 50), "ms", len(latencies)),
        "latency_ms_p99": (_percentile(latencies, 99), "ms", len(latencies)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    doc["report"] = work.report(doc["metrics"])
    return doc
