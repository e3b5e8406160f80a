"""Repeat benchmark runs over seeds and summarize them, alone or in pairs.

Run from the root of a qloop checkout:

    python3 perfbench/compare.py --runs 10               # this checkout alone
    python3 perfbench/compare.py --runs 10 --against .   # the same code twice
    python3 perfbench/compare.py --runs 10 --against ../parent

Each run is `perfbench/run.py` of this checkout with the `run_seconds`
of BENCHMARK.json, so both sides of a comparison are measured by the
same benchmark code; with `--against DIR` the other side is the program
tree in DIR.  Pair k uses seed `--seed0` + k on both sides, and the side
that runs first alternates from pair to pair.  For every end-to-end
metric and workload the report gives the sample count, median and
quartiles, the spread (distance between the quartiles over the median)
against the metric's bound, and, in pairs, the relative change of the
medians, whether it is within the bound, and the share of pairs this
checkout won.  `fail_frac` is failed jobs over jobs attempted.
`--trace` adds one traced run per workload and side; `--json FILE`
writes all values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One run.py run in tree; its parsed result, or a failed one."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)], cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def summary(values: list) -> dict:
    if not values:
        return {"n": 0, "median": float("nan"), "q1": float("nan"),
                "q3": float("nan"), "spread": float("nan"), "values": []}
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def collect(runs: list) -> dict:
    out = {m["name"]: summary([r["metrics"][m["name"]]["value"]
                               for r in runs if m["name"] in r["metrics"]])
           for m in SPEC["end_to_end"]}
    attempted = sum(r["attempted"] for r in runs)
    out["fail_frac"] = sum(r["failed"] for r in runs) / attempted
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--against", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    this = Path.cwd()
    sides = {"this": this}
    if args.against:
        sides["base"] = args.against.resolve()
    result = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "run_seconds": SPEC["run_seconds"],
              "seeds": [args.seed0 + k for k in range(args.runs)],
              "workloads": {}}
    for w in args.workloads:
        runs = {side: [] for side in sides}
        order = list(sides)
        for k in range(args.runs):
            for side in (order if k % 2 == 0 else order[::-1]):
                runs[side].append(bench(sides[side], w, args.seed0 + k, 0))
        entry = {side: collect(rs) for side, rs in runs.items()}
        if args.trace:
            for side, tree in sides.items():
                entry[side]["trace"] = bench(tree, w, args.seed0, 1)
        result["workloads"][w] = entry
        rows = []
        for m in SPEC["end_to_end"]:
            a = entry["this"][m["name"]]
            row = (f"{w:19} {m['name']:12} {m['unit']:3} n={a['n']:<3}"
                   f" median={a['median']:<9.4f} q1={a['q1']:<9.4f}"
                   f" q3={a['q3']:<9.4f} spread={a['spread']:.3f}"
                   f" bound={m['bound']}")
            if "base" in entry:
                b = entry["base"][m["name"]]
                change = (a["median"] - b["median"]) / b["median"]
                sign = 1 if m["better"] == "lower" else -1
                wins = sum(sign * (x - y) < 0 for x, y
                           in zip(a["values"], b["values"]))
                row += (f" | base median={b['median']:<9.4f}"
                        f" spread={b['spread']:.3f} change={change:+.3f}"
                        f" {'within' if abs(change) <= m['bound'] else 'OUTSIDE'}"
                        f" bound, won {wins}/{a['n']}")
            rows.append(row)
        rows.append(f"{w:19} fail_frac = " + ", ".join(
            f"{side} {entry[side]['fail_frac']:.3f}" for side in sides))
        print("\n".join(rows), flush=True)
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
