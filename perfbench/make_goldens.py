"""Write the golden outputs the benchmark compares every run against.

    PYTHONPATH=src python3 perfbench/make_goldens.py              # every shipped input set
    PYTHONPATH=src python3 perfbench/make_goldens.py --size smoke --sets 0 --out DIR

Run it only on a commit whose outputs are known good: the goldens define
what ``failed_ratio`` counts as a mismatch.
"""

from __future__ import annotations

import argparse
import logging
import os
import shutil
import sys
from pathlib import Path

from bench import ONE_THREAD

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.update(ONE_THREAD)  # the benchmark's threading, before numpy loads

import workloads  # noqa: E402
from check import golden_path, save_golden  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--size", default="bench", choices=sorted(workloads.SIZES))
    ap.add_argument("--sets", type=int, nargs="*", default=list(range(workloads.INPUT_SETS)))
    ap.add_argument("--out", type=Path, default=HERE / "goldens")
    args = ap.parse_args(argv)
    logging.getLogger("faultcast").setLevel(logging.ERROR)
    for k in args.sets:
        inputs = workloads.make_inputs(k, args.size)
        workdir = workloads.ROOT / ".bench_work" / f"golden-{args.size}-{k}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            golden = workloads.make_golden(inputs, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = golden_path(args.out, args.size, inputs.input_set)
        save_golden(path, golden)
        print(f"{path}: {len(golden['edges'])} edges, {sum(len(r['events']) for r in golden['suite'].values())} events, "
              f"{sum(len(r['alerts']) for r in golden['alerts'].values())} alerts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
