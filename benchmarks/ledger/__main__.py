"""``python -m benchmarks.ledger`` — the perf ledger's one command.

``[--seed N] [--workload W] [--runs R] [--out FILE]``
    every workload (or just W) in a fresh subprocess each, untraced then
    traced; prints every metric by name with its unit.
``--workload W --seed N --seconds S --trace 0|1``
    one run in this process; the result is the last line of standard output
    (the form the benchmark driver calls: ``--trace`` selects it).
``compare A.json B.json``
    one row per (end-to-end metric, workload) of two ``--out`` files.
``reference``
    recompute ``reference.json`` (the optimum of every base instance).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

from benchmarks.ledger import BENCHMARK, ROOT

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks.ledger: the program under test is missing ({ROOT / 'src' / 'repro'})")
sys.path.insert(0, str(ROOT / "src"))  # the program is measured from its source tree

WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def single(args: argparse.Namespace) -> int:
    from benchmarks.ledger.runner import run_workload
    from benchmarks.ledger.workloads import WORKLOADS

    result = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    # multiprocessing's resource tracker outlives its parent by a moment unless
    # it is stopped: the driver wants every process ended before this one exits
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    print(json.dumps(result))
    return 0


def child(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "-m", "benchmarks.ledger", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    doc: dict = {"seed": args.seed, "runs": args.runs, "workloads": {}}
    failed = 0
    for name in names:
        cell = doc["workloads"][name] = {"attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {}}
        for seed in range(args.seed, args.seed + args.runs):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                result = child(name, seed, trace)
                cell["attempted"] += result["attempted"]
                cell["failed"] += result["failed"]
                for metric, entry in result["metrics"].items():
                    cell[group].setdefault(metric, []).append(entry["value"])
        failed += cell["failed"]
        print(f"\n== {name}: {cell['attempted']} ops, failed_share {cell['failed'] / cell['attempted']:.4f}")
        for group in ("end_to_end", "per_layer"):
            units = {m["name"]: m["unit"] for m in BENCHMARK[group]}
            for metric, values in cell[group].items():
                if any(values):  # a layer the workload does not exercise reports 0
                    print(f"  {metric:34s} {statistics.median(values):14.6g} {units[metric]}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)  # fmt: skip
    if argv and argv[0] == "compare":
        from benchmarks.ledger.compare import compare_files

        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare_files(args.a, args.b)
    if argv and argv[0] == "reference":
        from benchmarks.ledger.reference import write_reference

        return write_reference()
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=lambda text: abs(int(text)), default=0)  # numpy wants >= 0
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one run in this process")
    parser.add_argument("--runs", type=int, default=1, help="full ledger: seeds seed..seed+runs-1")
    parser.add_argument("--out", help="full ledger: write every value of every run to this file")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_all(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return single(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
