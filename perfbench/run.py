"""Benchmark of the mlshap command line: explain, train, tune and plot.

Run from the repository root:

    python3 perfbench/run.py --workload explain-forest --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded.
``--trace 1`` runs the same requests untraced and then traced, and reports
the per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The full record (environment, parameters, output digest, the
per-request breakdown) goes to ``.perfbench/results/`` and, for traced runs,
the spans too. Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("explain-forest", "explain-knn", "fit")


def pin_threads() -> tuple[int, dict]:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc, {var: os.environ[var] for var in THREAD_VARS}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "mlshap").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mlshap" / "__init__.py").is_file():
        print(f"error: no mlshap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc, threads = pin_threads()
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy

    import mlshap
    import workloads
    from spans import Tracer

    if SRC.resolve() not in Path(mlshap.__file__).resolve().parents:
        print(f"error: imported mlshap from {mlshap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    state = ROOT / ".perfbench"
    work = state / f"work-{name}-{os.getpid()}"
    results = state / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": nproc, "threads": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(ROOT),
            "source_sha256": source_sha256(SRC),
        },
        **{k: result[k] for k in ("params", "digest", "input_sha256", "cycles", "cycle_probes",
                                  "attempted", "failed", "failures")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "detail": {k: {"value": v, "unit": u}
                   for k, (v, u) in result.get("detail", {}).items()},
    }
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(results / f"{name}-spans.jsonl")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"params {json.dumps(result['params'], sort_keys=True)}")
    print(f"digest sha256:{result['digest']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for key, (value, unit) in {**result.get("detail", {}), **result["metrics"]}.items():
        print(f"  {key:<34} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
