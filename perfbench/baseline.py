"""Run the benchmark as two sets of ten seeds and summarise it as a baseline file.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each set makes one untraced run per workload for seeds 1..10; the second set
starts after the first has ended on every workload, so the two sets are
minutes apart.  For each end-to-end metric and set the file records every
value, the median and quartiles, and the spread (interquartile distance over
the median); across the sets it records how much worse the second median is
than the first, as a share of the first.  One traced run per workload adds
the layer metrics and the tracing overhead, and the run context is kept.

The exit code is 1 if any operation failed, a spread other than `setup_s`'s
exceeds its bound, or a second median is worse than the first by more than
the bound: the checks a benchmark must pass to be steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {w: [] for w in workloads}
    for number in range(1, SETS + 1):
        for workload in workloads:
            runs = []
            for seed in SEEDS:
                _, result = run_once(workload, seed, seconds, 0)
                runs.append(result)
                print(f"set {number} {workload} seed {seed}: {json.dumps(result)}", file=sys.stderr)
            results[workload].append(runs)

    doc = {"run_seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    problems = []
    for workload in workloads:
        sets = results[workload]
        runs = [r for runs in sets for r in runs]
        end_to_end = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            summaries = [summarise([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            change = worse_by(summaries[0]["median"], summaries[-1]["median"], m["better"])
            end_to_end[name] = {"unit": m["unit"], "bound": m["bound"], "second_worse_by": change,
                                "sets": summaries}
            spreads = [s["spread"] for s in summaries]
            if name != "setup_s" and max(spreads) > m["bound"]:
                problems.append(f"{workload} {name}: spread {max(spreads):.4f} > bound {m['bound']}")
            if change > m["bound"]:
                problems.append(f"{workload} {name}: second median worse by {change:.4f} > bound {m['bound']}")
        failed = sum(r["failed"] for r in runs)
        if failed:
            problems.append(f"{workload}: {failed} failed operations")
        context, traced = run_once(workload, SEEDS[0], seconds, 1)
        if traced["failed"]:
            problems.append(f"{workload}: traced run failed {traced['failed']} operations")
        doc["context"] = {k: v for k, v in context.items() if k not in ("seed", "workload", "mode_seed", "missing")}
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": failed,
            "end_to_end": end_to_end,
            "traced": {"seed": SEEDS[0], "attempted": traced["attempted"],
                       "failed": traced["failed"], "per_layer": traced["metrics"]},
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for workload, entry in doc["workloads"].items():
        print(f"{workload}: failed {entry['failed']}/{entry['attempted']}")
        for name, m in entry["end_to_end"].items():
            spreads = " ".join(f"{s['spread']:.4f}" for s in m["sets"])
            medians = " ".join(f"{s['median']:.6g}" for s in m["sets"])
            print(f"  {name}: medians {medians}, second worse by {m['second_worse_by']:+.4f}, "
                  f"spreads {spreads}, bound {m['bound']}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
