"""faultcast benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py --workload pipeline --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh interpreter (``bench.py``) with
``PYTHONHASHSEED=0``.  This launcher stamps the environment (nproc, Python,
numpy and scipy versions, load average before and after), prints one
``metric <workload> <name> <value> <unit>`` line per reported metric and, as
its last line, a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the per-layer
ones.  The full record goes to ``.bench_out/``.  The exit code is 0 when
every checked output matched, 1 when some did not, 2 when no result was made.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline-train", "pipeline")
CHILD_TIMEOUT_S = 170


def catalogue() -> dict:
    with open(HERE / "metrics.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def run_child(workload: str, args: argparse.Namespace) -> dict:
    """Run one workload in a fresh interpreter; its record, or SystemExit(2)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable,
        str(HERE / "bench.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ]
    if args.golden_dir is not None:
        cmd += ["--golden-dir", str(args.golden_dir)]
    load_before = read_loadavg()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        raise SystemExit(2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
        raise SystemExit(2)
    record = json.loads(lines[-1])
    record["environment"] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **record.pop("versions"),
        "pythonhashseed": env["PYTHONHASHSEED"],
        "loadavg_before": load_before,
        "loadavg_after": read_loadavg(),
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"result-{workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return record


def report(record: dict, cat: dict, trace: int) -> None:
    """One line per metric this workload reports, with its unit."""
    units = {m["name"]: m["unit"] for m in cat["metrics"]}
    env = record["environment"]
    print(
        f"env {record['workload']} nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} loadavg_before={env['loadavg_before']!r} loadavg_after={env['loadavg_after']!r}"
    )
    values = record["per_layer"] if trace else record["named"]
    for name, value in values.items():
        print(f"metric {record['workload']} {name} {value:.6g} {units[name]}")
    for failure in record["failures"]:
        print(f"failed {record['workload']} {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None, help="input seed (default: metrics.json's default_seed)")
    ap.add_argument("--seconds", type=float, default=None, help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", default="bench", choices=["bench", "smoke"], help="smoke: a few seconds, for tests")
    ap.add_argument("--golden-dir", type=Path, default=None, help="where the golden outputs live")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "faultcast").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: faultcast sources and configs not found under {ROOT}", file=sys.stderr)
        return 2
    cat = catalogue()
    if args.seed is None:
        args.seed = cat["default_seed"]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    listed = bench["per_layer" if args.trace else "end_to_end"]
    records = [run_child(w, args) for w in (WORKLOADS if args.workload == "all" else (args.workload,))]
    metrics = {}
    for record in records:
        report(record, cat, args.trace)
        prefix = f"{record['workload']}/" if len(records) > 1 else ""
        values = record["per_layer" if args.trace else "end_to_end"]
        for m in listed:  # a layer the workload never calls did no work: 0
            metrics[prefix + m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
