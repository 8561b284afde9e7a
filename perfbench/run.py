"""Benchmark of outreg: three workloads, each in a fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload protocol-train --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --selfcheck

One workload prints its end-to-end metrics (``--trace 0``) or its
per-layer metrics (``--trace 1``) as the last line of standard output:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--workload all`` runs every workload in a process of its own and
prints a table.  ``--selfcheck`` runs every workload at toy size with
every check and no timing.  The program is imported from ``src/`` of
the checkout this file sits in, and nowhere else.
"""

import os

# One BLAS thread (never more than nproc): on the 2-core reference
# machine two threads made the training-bound workload 2.7x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = workloads.ROOT
SRC = workloads.SRC
STATE = ROOT / ".perfbench"
NAMES = tuple(workloads.WORKLOADS)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _one(args) -> int:
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            False, workdir,
                            STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = _units(_spec(), bool(args.trace))
    metrics = {name: {"value": out["figures"][name], "unit": unit}
               for name, unit in units.items()}
    for line in out["notes"]:
        print(f"note: {line}", file=sys.stderr)
    for line in out["problems"]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {out['rounds']} rounds, "
          f"{out['attempted']} operations attempted, {out['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


def _all(args) -> int:
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, r in results.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def _selfcheck() -> int:
    spec = _spec()
    STATE.mkdir(exist_ok=True)
    ok = True
    for name in NAMES:
        workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=STATE))
        try:
            out = workloads.run(name, 0, 0.0, True, True, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        wanted = set(_units(spec, True)) | set(_units(spec, False))
        missing = sorted(wanted - set(out["figures"]))
        bad = sorted(k for k, v in out["figures"].items() if not math.isfinite(v))
        passed = out["correct"] and not missing and not bad
        ok = ok and passed
        print(f"{name}: {'ok' if passed else 'FAILED'} ({out['rounds']} rounds, "
              f"{out['attempted']} attempted, {out['failed']} failed)")
        for line in out["notes"]:
            print(f"  note: {line}")
        for line in out["problems"]:
            print(f"  CHECK FAILED: {line}")
        if missing or bad:
            print(f"  missing metrics {missing}, non-finite metrics {bad}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload at toy size with every check")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "outreg" / "__init__.py").is_file():
        print(f"error: no outreg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        return _selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return _all(args)
    return _one(args)


if __name__ == "__main__":
    sys.exit(main())
