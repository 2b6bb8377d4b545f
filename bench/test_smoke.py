"""Tiny-size self-test of the benchmark: every declared metric is emitted.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = 0.2


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_workloads_are_the_ones_that_run():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    doc = workloads.run(name, seed=3, seconds=0.01, trace=bool(trace), root=ROOT, scale=SMOKE_SCALE)
    line = run.result_line(doc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], doc["errors"]
    assert line["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    elif name != "train-c4":
        assert line["metrics"]["autograd.records_per_batch"]["value"] == 0
        assert line["metrics"]["encoder.encode_utterances.records"]["value"] == 0
    else:
        assert line["metrics"]["autograd.records_per_batch"]["value"] > 0
    json.dumps(line)  # the result line is plain JSON


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "latency-longutt", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_function_that_no_longer_exists_is_reported_absent(monkeypatch):
    from dialact import crf, encoder
    from layertrace import Tracer, metric_units

    monkeypatch.delattr(encoder, "gru_step")
    monkeypatch.delattr(crf, "viterbi_decode")
    tracer = Tracer(training=False)
    tracer.install()
    tracer.uninstall()
    values, absent = tracer.metrics(tracer, units=1, gc_gen2_per_unit=0, overhead_pct=0.0)
    assert set(values) >= set(metric_units())
    assert {"encoder.pad_share", "crf.viterbi_decode.ms", "crf.viterbi_decode.calls"} <= set(absent)
    assert "encoder.encode_utterances.fwd_ms" not in absent
