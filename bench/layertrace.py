"""Per-layer tracing of dialact from outside the program.

The tracer replaces public functions of the ``dialact`` modules, named by
dotted path (``encoder.encode_utterances``, ``autograd.Tape.backward``),
with timing wrappers, and puts the originals back on ``uninstall``.
Nothing under ``src/`` knows it is being traced. A name that no longer
resolves is reported as absent instead of raising, so the benchmark keeps
running when a later change fuses or deletes a function.

Backward time is attributed without touching the program either: each
wrapped layer call notes ``len(tape.records)`` when it starts and ends,
and just before ``Tape.backward`` runs, every record's ``backward_fn`` is
wrapped with a timer. A layer's backward time is the time of the records
its calls appended.

Normalisation, so numbers compare across runs of different length:

* layer metrics (``encoder.*``, ``crf.*``) are totals per workload unit.
  On a training workload the unit is one optimisation step and only
  calls made while a tape is open count, so validation decoding stays
  out of them; on a decode workload the unit is one ``model.decode``
  call;
* ``autograd.*`` and ``train.step_*``/``train.optimizer_ms`` are per
  ``Tape.backward`` call, i.e. per training batch;
* ``train.validation_ms``, ``model.load_ms`` and ``corpus.parse_jsonl.ms``
  are per call of the function.
"""

from __future__ import annotations

import functools
import importlib
import time

# metric prefix -> dotted targets; every target that resolves is wrapped and
# the prefix is absent only when none does. ``crf.chain_nll`` also names a
# possible future fused op, so the metric survives the chain refactor.
LAYERS = {
    "encoder.prepare_batch": ("encoder.prepare_batch",),
    "encoder.embed_tokens": ("encoder.embed_tokens",),
    "encoder.encode_utterances": ("encoder.encode_utterances",),
    "encoder.encode_context": ("encoder.encode_context",),
    "encoder.memory_layer": ("encoder.memory_layer",),
    "crf.selection_attention": ("crf.selection_attention",),
    "crf.compute_potentials": ("crf.compute_potentials",),
    "crf.chain_nll": ("crf.chain_nll", "crf.chain_log_partition", "crf.chain_gold_score"),
    "crf.freeze_potentials": ("crf.freeze_potentials",),
    "crf.viterbi_decode": ("crf.viterbi_decode",),
}
CALLS = {
    "train.step_fwd": ("model.DialogueActModel.loss",),
    "train.optimizer": ("train.clip_gradients", "train.adagrad_step", "train.ema_update"),
    "train.validation": ("model.DialogueActModel.accuracy",),
    "model.load": ("model.DialogueActModel.load",),
    "corpus.parse_jsonl": ("corpus.parse_jsonl",),
}
TAPE = "autograd.Tape"
ACCUMULATE = "autograd.Tensor.accumulate_grad"
GRU_STEP = "encoder.gru_step"

# tape op kinds reported by name; other kinds still appear in the detail output
OP_KINDS = (
    "matmul", "add", "sub", "mul", "concat", "tanh", "sigmoid", "gather", "pick",
    "gather_pairs", "conv1d", "max_over_time", "dropout", "softmax", "logsumexp",
    "exp", "log", "reduce_sum", "reshape", "transpose_last", "select",
)

# layer prefix -> which of fwd_ms/bwd_ms/records/ms/calls it reports
LAYER_FIELDS = {
    "encoder.prepare_batch": ("ms",),
    "encoder.embed_tokens": ("fwd_ms", "bwd_ms", "records"),
    "encoder.encode_utterances": ("fwd_ms", "bwd_ms", "records"),
    "encoder.encode_context": ("fwd_ms", "bwd_ms", "records"),
    "encoder.memory_layer": ("fwd_ms", "bwd_ms"),
    "crf.selection_attention": ("fwd_ms", "bwd_ms", "records"),
    "crf.compute_potentials": ("fwd_ms", "bwd_ms"),
    "crf.chain_nll": ("fwd_ms", "bwd_ms"),
    "crf.freeze_potentials": ("ms",),
    "crf.viterbi_decode": ("ms", "calls"),
}
FIELD_UNITS = {"fwd_ms": "ms", "bwd_ms": "ms", "ms": "ms", "records": "count", "calls": "count"}


def metric_units():
    """Every per-layer metric the tracer reports, name -> unit, in order."""
    units = {}
    for prefix, fields in LAYER_FIELDS.items():
        for field in fields:
            units[f"{prefix}.{field}"] = FIELD_UNITS[field]
    units.update(
        {
            "encoder.pad_share": "ratio",
            "encoder.padded_steps": "count",
            "encoder.stepped_positions": "count",
            "autograd.records_per_batch": "count",
            "autograd.backward_ms": "ms",
        }
    )
    for kind in OP_KINDS:
        units[f"autograd.op.{kind}.count"] = "count"
        units[f"autograd.op.{kind}.bwd_ms"] = "ms"
    units.update(
        {
            "autograd.accumulate_grad.calls": "count",
            "autograd.accumulate_grad.ms": "ms",
            "train.step_fwd_ms": "ms",
            "train.step_bwd_ms": "ms",
            "train.optimizer_ms": "ms",
            "train.validation_ms": "ms",
            "train.gc_gen2_collections": "count",
            "model.load_ms": "ms",
            "corpus.parse_jsonl.ms": "ms",
            "trace.overhead_pct": "%",
        }
    )
    return units


def _resolve(path):
    """(owner, attribute, raw value) for ``module.attr[.attr]``, or None."""
    module_name, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"dialact.{module_name}")
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    name = attrs[-1]
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class _Stat:
    __slots__ = ("calls", "seconds", "bwd_seconds", "records", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.bwd_seconds = 0.0
        self.records = 0
        self.depth = 0


class Tracer:
    """Timing wrappers over the dialact modules; see the module docstring.

    ``training`` selects the scope of the layer metrics: inside open tapes
    for a training workload, everywhere for a decode workload.
    """

    def __init__(self, training):
        self.training = training
        self.layers = {prefix: _Stat() for prefix in LAYERS}
        self.calls = {prefix: _Stat() for prefix in CALLS}
        self.backward = _Stat()
        self.accumulate = _Stat()
        self.op_count = {}
        self.op_seconds = {}
        self.tokens = 0
        self.stepped = 0
        self.absent = set()
        self._tape = None
        self._tape_open = False
        self._in_backward = False
        self._ranges = []
        self._patches = []
        self._originals = []
        self._build_patches()

    # -- wrapping ---------------------------------------------------------

    def _build_patches(self):
        for prefix, targets in {**LAYERS, **CALLS}.items():
            resolved = [r for r in map(_resolve, targets) if r is not None]
            if not resolved:
                self.absent.add(prefix)
            for r in resolved:
                self._patch(r, lambda fn, p=prefix: self._span_wrapper(p, fn))
        for target, make in (
            (f"{TAPE}.__enter__", self._enter_wrapper),
            (f"{TAPE}.__exit__", self._exit_wrapper),
            (f"{TAPE}.backward", self._backward_wrapper),
            (ACCUMULATE, self._accumulate_wrapper),
            (GRU_STEP, self._gru_step_wrapper),
        ):
            resolved = _resolve(target)
            if resolved is None:
                self.absent.add(target)
            else:
                self._patch(resolved, make)

    def _patch(self, resolved, make):
        owner, name, raw = resolved
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(functools.wraps(raw.__func__)(make(raw.__func__)))
        else:
            wrapped = functools.wraps(raw)(make(raw))
        self._patches.append((owner, name, wrapped))
        self._originals.append((owner, name, raw))

    def install(self):
        for owner, name, value in self._patches:
            setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._originals):
            setattr(owner, name, value)

    def _in_scope(self):
        return self._tape_open or not self.training

    def _records(self):
        return getattr(self._tape, "records", None) if self._tape_open else None

    def _span_wrapper(self, prefix, fn):
        """Time calls of ``fn``; layer calls also note the tape records they add.

        A nested call of the same metric is not counted twice.
        """
        layer = prefix in LAYERS
        stat = self.layers[prefix] if layer else self.calls[prefix]
        counts_tokens = prefix == "encoder.prepare_batch"

        def span(*args, **kwargs):
            if stat.depth or (layer and not self._in_scope()):
                return fn(*args, **kwargs)
            records = self._records() if layer else None
            lo = len(records) if records is not None else 0
            if counts_tokens:
                self.tokens += _token_count(args)
            stat.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat.seconds += time.perf_counter() - start
                stat.depth -= 1
                stat.calls += 1
                if records is not None:
                    hi = len(records)
                    stat.records += hi - lo
                    self._ranges.append((stat, lo, hi))

        return span

    def _enter_wrapper(self, fn):
        def enter(tape):
            out = fn(tape)
            self._tape, self._tape_open, self._ranges = tape, True, []
            return out

        return enter

    def _exit_wrapper(self, fn):
        def exit_(tape, *exc):
            self._tape_open = False
            return fn(tape, *exc)

        return exit_

    def _backward_wrapper(self, fn):
        def backward(tape, *args, **kwargs):
            records = list(getattr(tape, "records", ()))
            times = [0.0] * len(records)
            timed = all(hasattr(rec, "backward_fn") for rec in records)
            if timed:
                for i, rec in enumerate(records):
                    rec.backward_fn = _timed(rec.backward_fn, times, i)
            else:
                self.absent.add("autograd.op")
            self._in_backward = True
            start = time.perf_counter()
            try:
                return fn(tape, *args, **kwargs)
            finally:
                self.backward.seconds += time.perf_counter() - start
                self._in_backward = False
                self.backward.calls += 1
                self.backward.records += len(records)
                for i, rec in enumerate(records):
                    kind = getattr(rec, "op", "?")
                    self.op_count[kind] = self.op_count.get(kind, 0) + 1
                    self.op_seconds[kind] = self.op_seconds.get(kind, 0.0) + times[i]
                if tape is self._tape:
                    for stat, lo, hi in self._ranges:
                        stat.bwd_seconds += sum(times[lo:hi])

        return backward

    def _accumulate_wrapper(self, fn):
        stat = self.accumulate

        def accumulate_grad(tensor, g):
            if not self._in_backward:
                return fn(tensor, g)
            start = time.perf_counter()
            try:
                return fn(tensor, g)
            finally:
                stat.seconds += time.perf_counter() - start
                stat.calls += 1

        return accumulate_grad

    def _gru_step_wrapper(self, fn):
        utterances = self.layers["encoder.encode_utterances"]

        def gru_step(params, x, *args, **kwargs):
            if utterances.depth:
                self.stepped += getattr(x, "shape", (0,))[0]
            return fn(params, x, *args, **kwargs)

        return gru_step

    # -- report -----------------------------------------------------------

    def metrics(self, setup, units, gc_gen2_per_unit, overhead_pct):
        """Per-layer metrics, name -> value, plus the sorted absent names.

        ``setup`` is the tracer that watched set-up, the source of the
        load and parse timings. ``units`` counts the decode calls traced;
        a training workload is normalised per training step instead (see
        the module docstring).
        """
        steps = self.backward.calls
        per = steps if self.training else units
        absent = set()
        out = {}

        def ratio(a, b):
            return a / b if b else 0.0

        for prefix, fields in LAYER_FIELDS.items():
            stat = self.layers[prefix]
            values = {
                "fwd_ms": 1e3 * stat.seconds,
                "ms": 1e3 * stat.seconds,
                "bwd_ms": 1e3 * stat.bwd_seconds,
                "records": stat.records,
                "calls": stat.calls,
            }
            for field in fields:
                out[f"{prefix}.{field}"] = ratio(values[field], per)
                if prefix in self.absent or (field == "bwd_ms" and "autograd.op" in self.absent):
                    absent.add(f"{prefix}.{field}")

        padded = self.stepped - 2 * self.tokens  # both directions step every position
        out["encoder.pad_share"] = ratio(padded, self.stepped)
        out["encoder.padded_steps"] = ratio(padded, per)
        out["encoder.stepped_positions"] = ratio(self.stepped, per)
        if GRU_STEP in self.absent or "encoder.encode_utterances" in self.absent:
            absent.update(("encoder.pad_share", "encoder.padded_steps", "encoder.stepped_positions"))

        out["autograd.records_per_batch"] = ratio(self.backward.records, steps)
        out["autograd.backward_ms"] = ratio(1e3 * self.backward.seconds, steps)
        for kind in sorted(set(OP_KINDS) | set(self.op_count)):
            out[f"autograd.op.{kind}.count"] = ratio(self.op_count.get(kind, 0), steps)
            out[f"autograd.op.{kind}.bwd_ms"] = ratio(1e3 * self.op_seconds.get(kind, 0.0), steps)
            if "autograd.op" in self.absent:
                absent.update((f"autograd.op.{kind}.count", f"autograd.op.{kind}.bwd_ms"))
        out["autograd.accumulate_grad.calls"] = ratio(self.accumulate.calls, steps)
        out["autograd.accumulate_grad.ms"] = ratio(1e3 * self.accumulate.seconds, steps)
        if ACCUMULATE in self.absent:
            absent.update(("autograd.accumulate_grad.calls", "autograd.accumulate_grad.ms"))
        if f"{TAPE}.backward" in self.absent:
            absent.update(("autograd.records_per_batch", "autograd.backward_ms", "train.step_bwd_ms"))

        out["train.step_bwd_ms"] = out["autograd.backward_ms"]
        out["train.gc_gen2_collections"] = gc_gen2_per_unit
        for prefix, name, source, per_call in (
            ("train.step_fwd", "train.step_fwd_ms", self, False),
            ("train.optimizer", "train.optimizer_ms", self, False),
            ("train.validation", "train.validation_ms", self, True),
            ("model.load", "model.load_ms", setup, True),
            ("corpus.parse_jsonl", "corpus.parse_jsonl.ms", setup, True),
        ):
            stat = source.calls[prefix]
            out[name] = ratio(1e3 * stat.seconds, stat.calls if per_call else steps)
            if prefix in self.absent:
                absent.add(name)
        out["trace.overhead_pct"] = overhead_pct
        return out, sorted(absent)


def _token_count(args):
    """Real tokens in ``prepare_batch(conversations, ...)``; 0 if the call changed shape."""
    try:
        return sum(len(u.tokens) for conv in args[0] for u in conv.utterances)
    except (AttributeError, IndexError, TypeError):
        return 0


def _timed(fn, times, i):
    def run(g):
        start = time.perf_counter()
        try:
            return fn(g)
        finally:
            times[i] += time.perf_counter() - start

    return run
