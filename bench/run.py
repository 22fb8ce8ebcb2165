"""horizonmix benchmark: one command, one workload per call.

    python3 bench/run.py --workload train-flow --seed 0 --seconds 25 --trace 0

Run from the repository root (any directory works: paths resolve from this
file).  The package is imported from ``src/`` next to this directory, never
from an installed copy, so the command fails without the sources.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing; ``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, the op failure rate, the digests and the
machine facts.  Full results, and the spans of a traced run, are written
under ``.bench_out/`` at the repository root.

One process drives all load, with BLAS threads capped at the number of CPUs
this process may run on.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_package():
    """Import horizonmix from this checkout's src/ or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import horizonmix
    except ImportError as exc:
        sys.exit(f"error: cannot import horizonmix from {src}: {exc}")
    if src.resolve() not in Path(horizonmix.__file__).resolve().parents:
        sys.exit(f"error: horizonmix was imported from {horizonmix.__file__}, "
                 f"not from {src}")


def machine_facts(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"nproc": nproc,
            "blas": blas,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "numpy": np.__version__,
            "python": platform.python_version(),
            "platform": platform.platform()}


def code_fingerprint() -> str:
    """Hash of the package and benchmark sources: digests are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(key: str, digests: dict) -> list[str]:
    """Check digests against earlier runs of the same code, workload and
    seed, then record them."""
    store_path = OUT_DIR / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    earlier = store.setdefault(key, {})
    problems = [f"digest mismatch: {name} is {value}, an earlier run gave "
                f"{earlier[name]}"
                for name, value in digests.items()
                if name in earlier and earlier[name] != value]
    for name, value in digests.items():
        earlier.setdefault(name, value)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return problems


def main(argv=None) -> int:
    # turn SIGTERM into SystemExit so the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    nproc = cap_blas_threads()
    import_package()
    import workloads

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace and set(units) != set(workloads.LAYER_TARGETS):
        sys.exit("error: per-layer metrics in BENCHMARK.json differ from "
                 "workloads.LAYER_TARGETS")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT_DIR))
    try:
        if args.trace:
            run = workloads.per_layer(args.workload, args.seed, workdir,
                                      OUT_DIR / f"spans-{stem}.jsonl")
        else:
            run = workloads.end_to_end(args.workload, args.seed, args.seconds,
                                       workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(run.metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(run.metrics) ^ set(units))} "
                 "differ from BENCHMARK.json")

    key = f"{code_fingerprint()}/{args.workload}/{args.seed}"
    problems = run.problems + compare_digests(key, run.digests)
    failures = [op for op in run.ops if op is not None]
    correct = not failures and not problems
    facts = machine_facts(nproc)
    metrics = {name: {"value": float(run.metrics[name]), "unit": units[name]}
               for name in units}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"machine {json.dumps(facts)}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'op_failure_rate':28s} {len(failures) / len(run.ops):>16.6f} "
          f"ratio ({len(failures)} of {len(run.ops)} ops)")
    for problem in sorted(set(failures)):
        print(f"  failed op: {problem} (x{failures.count(problem)})")
    for line in problems:
        print(f"  problem: {line}")
    for line in run.notes:
        print(f"  note: {line}")
    print(f"  digests {json.dumps(run.digests, sort_keys=True)}")

    result = {"correct": correct, "attempted": len(run.ops),
              "failed": len(failures), "metrics": metrics}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed,
             trace=args.trace, machine=facts, digests=run.digests,
             problems=problems, notes=run.notes,
             failed_ops=failures, layer_targets=workloads.LAYER_TARGETS
             if args.trace else None), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
