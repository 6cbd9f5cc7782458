"""Compare two source trees on one perfbench workload, in alternating pairs.

    python3 tools/ab.py PARENT CHANGE --workload W --seed S --pairs K --seconds T

PARENT and CHANGE are checkouts of the repository (for example a
``git archive`` copy of the parent commit and the working tree).  Each
pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
each tree, one run at a time; even pairs run PARENT first, odd pairs
CHANGE first.  Every run's end-to-end metrics (at the reference speed)
are printed as it ends.  Then, for each metric of ``BENCHMARK.json``,
each side's median, quartiles and minimum, the change of the medians,
and the pairs the change won (ties count for neither).

A tree's bytecode state decides ``setup_s`` on its own, so both trees
must hold an up-to-date ``__pycache__`` for every module under
``src/pptlab`` or neither may hold one; the tool refuses anything else
(``python3 -m compileall -q TREE/src`` makes a tree fresh).  The runs
write no bytecode, so that state holds for every pair.  A run with a
failed request is reported, and the tool then exits 1.  Stdlib only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bytecode_state(tree: Path) -> str:
    """"fresh" when every module under src/pptlab has an up-to-date
    bytecode file for this interpreter, "none" when none has any, else
    "mixed"."""
    states = set()
    for src in sorted((tree / "src" / "pptlab").glob("*.py")):
        pyc = Path(importlib.util.cache_from_source(str(src)))
        if not pyc.is_file():
            states.add("none")
            continue
        head = pyc.read_bytes()[:16]
        stat = src.stat()
        if int.from_bytes(head[4:8], "little") & 1:  # hash-based
            fresh = head[8:16] == importlib.util.source_hash(src.read_bytes())
        else:
            fresh = head[8:16] == (
                (int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little")
            )
        states.add("fresh" if head[:4] == importlib.util.MAGIC_NUMBER and fresh else "stale")
    return states.pop() if len(states) == 1 and states != {"stale"} else "mixed"


def run(tree: Path, args) -> dict:
    """One benchmark run in ``tree``: {"metrics": {name: value}, "failed": n}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"ab: the run in {tree} printed no result")
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
    }


def summary(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{statistics.median(values):12.6g} ({q1:.6g}-{q3:.6g}) min {min(values):.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    states = {side: bytecode_state(tree) for side, tree in trees.items()}
    if "mixed" in states.values() or len(set(states.values())) > 1:
        print(f"ab: bytecode states differ or are mixed: {states}; run"
              " `python3 -m compileall -q TREE/src` on both trees, or clear both", file=sys.stderr)
        return 2
    better = {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            got = run(trees[side], args)
            runs[side].append(got)
            shown = "  ".join(f"{m}={got['metrics'][m]:.6g}" for m in better)
            print(f"pair {k + 1} {side}: {shown}  failed={got['failed']}", flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs,"
          f" bytecode {states['parent']}; median (q1-q3) min")
    for name, direction in better.items():
        a = [r["metrics"][name] for r in runs["parent"]]
        b = [r["metrics"][name] for r in runs["change"]]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        move = statistics.median(b) / statistics.median(a) - 1 if statistics.median(a) else 0.0
        print(f"  {name:15s} parent {summary(a)}\n  {'':15s} change {summary(b)}"
              f"  {move:+.1%}  change won {wins}/{args.pairs}")
    failed = sum(r["failed"] for side in runs.values() for r in side)
    print(f"failed requests over all runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
