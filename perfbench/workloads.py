"""The benchmark's workloads, how their commands run, and the output checker.

Every workload is a fixed list of `heavycol` CLI commands run one after
another from the benchmark's one process (a closed loop with one client).  A
command's expected output is stored in `expected.json`, recorded at the
commit that defined the benchmark; a command fails when its exit code or any
checked field differs.  Scans check `tested`, `tallies`, the witness list and
the exit code; growth tables check each row's `calls`, `cache_hits` and
`max_depth`, and a timed-out row is a failure of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
TIMED_CLI = HERE / "timed_cli.py"

# A random scan draws this many matrices; expected reports are stored for
# RANDOM_SEEDS mode seeds, and --seed picks one of them.
RANDOM_SAMPLES = 5000
RANDOM_SEEDS = 32
POOL_WORKERS = 2

# Far above the slowest growth row (about 5 s plain at n = 7), so a row
# only times out when something is badly wrong; a timed-out row fails.
GROWTH_BUDGET_MS = 120_000

COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  `args` is also the key of its expected output;
    `workers` is appended for scans, where it must not change the report."""

    args: tuple[str, ...]
    workers: int | None = None

    @property
    def key(self) -> str:
        return " ".join(self.args)

    @property
    def scan(self) -> bool:
        return self.args[0] == "verify"

    def argv(self, workers: int | None = None) -> list[str]:
        argv = list(self.args)
        w = self.workers if workers is None else workers
        if w is not None:
            argv += ["--workers", str(w)]
        return argv + ["--json"]


def _verify(target: str, *extra: str, workers: int | None = 1) -> Command:
    return Command(("verify", target) + extra, workers)


def mode_seed(seed: int) -> int:
    """The random-scan mode seed that benchmark seed `seed` selects."""
    return seed % RANDOM_SEEDS


def random_mode(seed: int) -> str:
    return f"random:{RANDOM_SAMPLES}:{mode_seed(seed)}"


GROWTH = Command((
    "bench", "growth", "--family", "full_cube", "--n-min", "1", "--n-max", "7",
    "--algo", "both", "--budget-ms", str(GROWTH_BUDGET_MS),
))

# Each workload is two of the four load shapes the benchmark was designed
# around; this machine's speed drifts too much for runs shorter than about a
# minute to be steady, and the run budget allows two such workloads.
WORKLOADS = {
    # The north-star scans (theorem1, theorem2: ~129 k tiny matrices, 1.6 M
    # recursion frames, the constraint filter), then the same universe walked
    # with no recursion and no filter (lemma1, claim, remark).
    "u4-scans": lambda seed: [
        _verify("theorem1", "--n", "4"),
        _verify("theorem2", "--n", "4"),
        _verify("lemma1", "--n", "4"),
        _verify("claim", "--n", "4"),
        _verify("remark", workers=None),
    ],
    # The only path through the process pool and seeded rejection draws, then
    # few large matrices with deep recursion, plain and memoized.
    "pool-growth": lambda seed: [
        _verify("theorem2", "--n", "5", "--mode", random_mode(seed), workers=POOL_WORKERS),
        _verify("theorem1", "--n", "6", "--mode", random_mode(seed), workers=POOL_WORKERS),
        GROWTH,
    ],
}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


@dataclass
class Outcome:
    """What one command run produced, after checking.

    An operation is the command itself plus, for a growth table, each row;
    `failed` counts the operations whose output was wrong or missing.
    """

    key: str
    wall_s: float
    stdout: str
    attempted: int
    failed: int
    problems: list[str]
    matrices: int = 0  # scan: `tested`
    rows: tuple = ()  # growth: every row of the table
    library_s: float = 0.0  # with `timed`: time inside the public scan calls


_SCAN_FIELDS = ("tested", "tallies", "violations")
_ROW_FIELDS = ("calls", "cache_hits", "max_depth")


def check_output(expected: dict | None, key: str, code: int, stdout: str, wall_s: float) -> Outcome:
    """Compare one command's exit code and JSON report with its expectation."""
    if expected is None:
        return Outcome(key, wall_s, stdout, 1, 1, [f"{key}: no stored expectation"])
    want_rows = expected.get("rows")
    attempted = 1 + len(want_rows) if want_rows is not None else 1
    problems = []
    if code != expected["exit"]:
        problems.append(f"{key}: exit {code}, expected {expected['exit']}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        problems.append(f"{key}: output is not a JSON object")
        return Outcome(key, wall_s, stdout, attempted, attempted, problems)

    if want_rows is None:
        problems += [
            f"{key}: {field} differs from the expected report"
            for field in _SCAN_FIELDS if doc.get(field) != expected[field]
        ]
        return Outcome(key, wall_s, stdout, 1, int(bool(problems)), problems,
                       matrices=doc["tested"] if not problems else 0)

    command_failed = bool(problems)
    rows = doc.get("rows")
    by_key = {
        (r.get("n"), r.get("algo"), r.get("variant")): r
        for r in (rows if isinstance(rows, list) else []) if isinstance(r, dict)
    }
    done = []
    for want in want_rows:
        rkey = (want["n"], want["algo"], want["variant"])
        got = by_key.get(rkey)
        label = f"{key}: row n={rkey[0]} {rkey[1]} {rkey[2]}"
        if got is None:
            problems.append(f"{label} missing")
        elif got.get("calls") is None:
            problems.append(f"{label} timed out")
        elif any(got.get(f) != want[f] for f in _ROW_FIELDS):
            problems.append(f"{label} counts differ from the expected row")
        else:
            done.append(got)
    failed = int(command_failed) + len(want_rows) - len(done)
    return Outcome(key, wall_s, stdout, attempted, failed, problems, rows=tuple(by_key.values()))


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(root: Path, argv: list[str], timed: bool = False) -> tuple[int, str, str, float]:
    """Run `python -m heavycol.cli ARGV` as a fresh process; time it.

    With `timed`, the process is `timed_cli.py ARGV` instead, which runs the
    same `cli.main` and reports its library time on standard error.
    """
    program = [str(TIMED_CLI)] if timed else ["-m", "heavycol.cli"]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *program, *argv],
            cwd=root, env=cli_env(root), capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1, "", "timed out", time.perf_counter() - started
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - started


def split_library_s(err: str) -> tuple[str, float | None]:
    """`timed_cli.py`'s standard error, without its last line, and the
    library time that line reports (None if it is not there)."""
    head, _, last = err.rstrip("\n").rpartition("\n")
    name, _, value = last.partition(" ")
    if name != "library_s":
        return err, None
    try:
        return head, float(value)
    except ValueError:
        return err, None


def run_command(root: Path, expected: dict, cmd: Command, workers: int | None = None,
                timed: bool = False) -> Outcome:
    code, out, err, wall = run_cli(root, cmd.argv(workers), timed)
    outcome = check_output(expected.get(cmd.key), cmd.key, code, out, wall)
    if timed:
        err, library_s = split_library_s(err)
        if library_s is None:
            library_s = wall
            if not outcome.failed:
                outcome.failed = outcome.attempted
                outcome.problems.append(f"{cmd.key}: no library time reported")
        outcome.library_s = library_s
    if err.strip() and outcome.problems:
        outcome.problems.append(f"{cmd.key}: stderr: {err.strip().splitlines()[-1]}")
    return outcome
