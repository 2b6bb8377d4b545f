"""Run the dialact benchmark.

    python3 bench/run.py --workload train-c4 --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs every workload, each in a fresh
process so that its peak RSS is its own. ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` reports the per-layer metrics
from a traced copy of every unit of work, and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every output check passed.
"""

import os

# Pin BLAS to one thread before numpy loads: steadier numbers on a shared
# machine, and the same setting on every machine with at least one core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-c4", "decode-longconv", "latency-longutt")
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(doc):
    """The contract's last line: verdict, counts, metric values with units."""
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in doc["metrics"].items()
        },
    }


def print_report(doc, env):
    print(
        f"workload {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}  "
        f"units {doc['units']}  "
        + "  ".join(f"{k} {v}" for k, v in env.items())
    )
    rows = dict(doc.get("report", {}))
    rows.update(doc["metrics"])
    rows["failed_frac"] = (doc["failed_frac"], "fraction", doc["attempted"])
    for name, (value, unit, samples) in rows.items():
        print(f"  {name:40s} {value:14.4f} {unit:8s} n={samples}")
    for name in doc.get("absent", ()):
        print(f"  {name:40s} absent")
    verdict = "ok" if doc["failed"] == 0 else "FAIL"
    print(f"checks {verdict}: {doc['attempted'] - doc['failed']}/{doc['attempted']} passed")
    for error in doc["errors"]:
        print(f"  error: {error}")
    print(json.dumps({"environment": env, **doc}))


def run_one(args):
    source = ROOT / "src"
    if not (source / "dialact").is_dir():
        print(f"no program to measure: {source / 'dialact'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(Path(__file__).resolve().parent)]
    import workloads
    doc = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print_report(doc, workloads.environment(ROOT, BLAS_THREADS))
    print(json.dumps(result_line(doc)))
    return 0 if doc["failed"] == 0 else 1


def run_all(args):
    """Each workload in its own process; a final line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2 or not proc.stdout.strip():
            return 2
        status = status or proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
