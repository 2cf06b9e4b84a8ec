"""Record `expected.json`: what every benchmark command must print.

    python3 perfbench/record_expected.py

Run from the root of a source checkout whose outputs are known to be right.
Each scan is run once at 1 worker and its exit code, `tested`, `tallies` and
witness list are stored; the growth table stores each row's counts.  The
exact recursion frames of the fixed workloads come from one traced pass.
Only a change that means to alter the program's outputs should re-record.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, Ops, import_heavycol, in_process_pass
from workloads import EXPECTED_PATH, RANDOM_SEEDS, WORKLOADS, run_cli

# Workloads whose recursion frames do not depend on the seed.
FIXED = ("u4-scans",)


def record_command(cmd) -> dict:
    code, out, err, _ = run_cli(ROOT, cmd.argv(workers=1 if cmd.workers else None))
    if code not in (0, 1):
        raise SystemExit(f"{cmd.key}: exit {code}: {err.strip()}")
    doc = json.loads(out)
    if "rows" in doc:
        if any(r["calls"] is None for r in doc["rows"]):
            raise SystemExit(f"{cmd.key}: a row timed out")
        keep = ("n", "m", "algo", "variant", "calls", "cache_hits", "max_depth")
        return {"exit": code, "rows": [{k: r[k] for k in keep} for r in doc["rows"]]}
    return {"exit": code, "tested": doc["tested"], "tallies": doc["tallies"], "violations": doc["violations"]}


def main() -> int:
    commands = {}
    for name, make in WORKLOADS.items():
        for seed in range(RANDOM_SEEDS):
            for cmd in make(seed):
                if cmd.key not in commands:
                    commands[cmd.key] = record_command(cmd)
                    print(f"recorded {cmd.key}", file=sys.stderr)
    modules = import_heavycol()
    frames = {}
    for name in FIXED:
        _, observed = in_process_pass(name, WORKLOADS[name](0), modules, commands, Ops(), full=True)
        frames[name] = {"a1": observed.frames["a1"], "a2": observed.frames["a2"]}
    EXPECTED_PATH.write_text(json.dumps({"commands": commands, "frames": frames}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
