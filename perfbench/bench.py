"""One workload in this process; prints one JSON record as its last line.

``run.py`` starts this in a fresh interpreter per workload, with
``PYTHONHASHSEED`` pinned, so that ``peak_rss_mb`` belongs to the workload
alone.  Scratch files go to ``.bench_work/`` in the checkout and are removed
before exit.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
# one process, one thread: BLAS must not spread over the cores (read at numpy import)
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=["offline-train", "pipeline"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", default="bench", choices=["bench", "smoke"])
    ap.add_argument("--golden-dir", type=Path, default=HERE / "goldens")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "faultcast").is_dir():
        print(f"error: faultcast sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update(ONE_THREAD)
    import numpy
    import scipy

    import workloads
    from check import golden_path, load_golden

    logging.getLogger("faultcast").setLevel(logging.ERROR)  # CV warns per small class on every pass
    inputs = workloads.make_inputs(args.seed, args.size)
    path = golden_path(args.golden_dir, args.size, inputs.input_set)
    if not path.is_file():
        print(f"error: no golden outputs at {path}", file=sys.stderr)
        return 2
    golden = load_golden(path)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = workloads.WORKLOADS[args.workload](
            inputs, golden, workdir, args.seconds, bool(args.trace), run_id
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spans_file = None
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{run_id}.json"
        result.tracer.write(spans_file)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": inputs.input_set,
        "size": args.size,
        "trace": args.trace,
        "attempted": result.checker.attempted,
        "failed": result.checker.failed,
        "failures": result.checker.failures,
        "end_to_end": result.end_to_end,
        "named": result.named,
        "per_layer": result.per_layer,
        "samples": result.samples,
        "spans_file": None if spans_file is None else str(spans_file.relative_to(ROOT)),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
