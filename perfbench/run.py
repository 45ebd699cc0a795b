"""Benchmark harness for the sgdelta CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload inf-theorem --seed 1 --seconds 32 --trace 0

Each workload is a fixed list of CLI queries (see `workloads.py`), sent as a
closed loop: one client, one `sgdelta` subprocess per query, `--threads 1`,
the next query only after the previous one has exited. The seed permutes the
query order. Every output is checked by exact equality against
`expected.json`.

With `--trace 0` the harness first times `sgdelta --version` (the set-up
cost every query pays), then sends one whole pass over the corpus and keeps
cycling through it in the same order while the next query, at its median
so far, would still end within `--seconds`. Every timed child runs between
two runs of `probe.py`, a fixed piece of work that does not touch sgdelta,
and its wall time is divided by the mean of theirs (see `Timeline`): the
shared host this is written for changes speed by tens of percent within
minutes, and the probes next to a query see the same host speed it does.
It reports end-to-end metrics:

    corpus_s     seconds of one pass at a fixed host speed: the sum over
                 queries of each query's median host-scaled wall time
    setup_s      median host-scaled wall seconds of `sgdelta --version`
    peak_rss_mb  highest max RSS of any CLI child
    ok_share     children whose output matched, over children run

The unscaled wall times, the probe times and the order they ran in go to
the line before the result.

With `--trace 1` it sends one untraced pass, then replays the same queries
in this process with spans around the public functions of each module
(`layers.py`), checks each replayed output against the CLI output of the
same query, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the run environment and per-query timings.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import probe
from workloads import BUDGETS, VERSION, WHY, WORKLOADS, matches, query_key

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
PROBE = HERE / "probe.py"

# Children run with one BLAS/OpenMP thread (one client, one core's worth of
# work), without a disk cache, and import sgdelta from the checkout under test.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
UNSET = ("SGDELTA_CACHE_DIR",)

SETUP_REPEATS = 7
# probe wall time that defines the unit of the host-scaled metrics: about
# what `probe.py` takes on a quiet 2-vCPU Xeon VM
PROBE_NOMINAL_S = 0.25
CHILD_TIMEOUT_S = 150.0


@dataclass
class CliRun:
    argv: list[str]
    code: int
    output: str
    wall_s: float
    maxrss_mb: float

    def envelope(self) -> dict | None:
        lines = [ln for ln in self.output.splitlines() if ln.strip()]
        if not lines:
            return None
        try:
            out = json.loads(lines[-1])
        except json.JSONDecodeError:
            return None
        return out if isinstance(out, dict) else None


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(argv: list[str], root: Path, env: dict) -> CliRun:
    """One CLI call."""
    cmd = [sys.executable, "-m", "sgdelta.cli", *argv]
    if argv != VERSION:
        cmd += ["--threads", "1"]
    return spawn(cmd, argv, root, env)


def run_probe(root: Path, env: dict) -> CliRun:
    return spawn([sys.executable, str(PROBE)], ["probe"], root, env)


def probe_ok(run: CliRun) -> bool:
    return run.code == 0 and run.output.strip() == str(probe.CHECKSUM)


def spawn(cmd: list[str], argv: list[str], root: Path, env: dict) -> CliRun:
    """One child, timed from start to exit; its max RSS comes from wait4 on
    the child itself."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    status = None
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        if status is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(argv, proc.returncode, out.decode(errors="replace"), wall, usage.ru_maxrss / 1024.0)


def check(run: CliRun, expected: dict) -> bool:
    if run.argv == VERSION:
        return run.code == 0 and bool(run.output.strip())
    want = expected[query_key(run.argv)]
    env = run.envelope()
    if run.code != want["exit_code"] or env is None:
        return False
    return all(matches(want[part], env.get(part)) for part in ("result", "certificate") if part in want)


class Timeline:
    """Timed children in the order they ran, each between two probe runs
    (`probe.py`) when probing is on. The host this runs on is shared and
    its speed drifts by tens of percent within minutes, so each child's
    wall time is divided by the mean wall time of the probes just before
    and just after it, and reported in seconds at a probe time of
    `PROBE_NOMINAL_S`."""

    def __init__(self, root: Path, env: dict, probing: bool):
        self.root, self.env, self.probing = root, env, probing
        self.events: list[tuple[str, float]] = []  # (query key or "probe", wall)
        self.attempted = self.failed = 0

    def probe(self) -> None:
        if self.probing:
            r = run_probe(self.root, self.env)
            self.events.append(("probe", r.wall_s))
            self.attempted += 1
            self.failed += not probe_ok(r)

    def run(self, argv: list[str], expected: dict) -> CliRun:
        if not self.events:
            self.probe()
        r = run_cli(argv, self.root, self.env)
        self.events.append((query_key(argv), r.wall_s))
        self.attempted += 1
        if not check(r, expected):
            self.failed += 1
            print(f"mismatch: {query_key(argv)} exit={r.code}: {r.output[-400:]}", file=sys.stderr)
        self.probe()
        return r

    def walls(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for key, wall in self.events:
            if key != "probe":
                out.setdefault(key, []).append(wall)
        return out

    def scaled(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for i, (key, wall) in enumerate(self.events):
            if key != "probe":
                host = (self.events[i - 1][1] + self.events[i + 1][1]) / 2
                out.setdefault(key, []).append(wall * PROBE_NOMINAL_S / host)
        return out

    def expected_s(self, argv: list[str]) -> float:
        """How long the next run of `argv` and its probe should take."""
        probes = self.probes()
        return statistics.median(self.walls()[query_key(argv)]) + (statistics.median(probes) if probes else 0.0)

    def probes(self) -> list[float]:
        return [wall for key, wall in self.events if key == "probe"]


def git_commit(root: Path) -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def environment(args, root: Path, order) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(root),
        "pinned": {**PINNED, "PYTHONPATH": "<checkout>/src", **{k: "unset" for k in UNSET}, "--threads": "1"},
        "client": "closed loop, 1 client, 1 subprocess per query",
        "order": [query_key(q) for q in order],
        "budgets": {query_key(q): BUDGETS[query_key(q)] for q in order},
    }


def per_query(walls: dict[str, list[float]]) -> dict:
    return {k: {"median_s": statistics.median(v), "n": len(v)} for k, v in walls.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sgdelta" / "cli.py").is_file():
        print(f"no sgdelta source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not EXPECTED.is_file():
        print(f"missing {EXPECTED}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    os.environ.update(PINNED)  # before this process imports numpy (trace replay)
    env = child_env(root)
    order = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(order)

    # one untimed `--version` first: it writes the bytecode cache, which a
    # user pays for only once
    warm = run_cli(VERSION, root, env)
    timeline = Timeline(root, env, probing=not args.trace)
    timeline.attempted, timeline.failed = 1, int(not check(warm, {}))
    for _ in range(0 if args.trace else SETUP_REPEATS):
        timeline.run(VERSION, {})
    keys = [query_key(q) for q in order]
    started = time.perf_counter()
    runs: list[CliRun] = []
    for i in itertools.count():
        q = order[i % len(order)]
        if i >= len(order) and (args.trace or time.perf_counter() - started + timeline.expected_s(q) > args.seconds):
            break
        runs.append(timeline.run(q, expected))

    attempted, failed = timeline.attempted, timeline.failed
    walls = timeline.walls()
    queries = per_query({k: walls[k] for k in keys})
    report = {"environment": environment(args, root, order), "queries": queries}
    if args.trace:
        sys.path.insert(0, str(root / "src"))
        import layers

        cli_outputs = {query_key(r.argv): r.envelope() for r in runs}
        replay = layers.replay(order, cli_outputs)
        attempted += replay.attempted
        failed += replay.failed
        metrics = layers.per_layer_metrics(replay, runs)
        report["replay_mismatches"] = replay.mismatches
    else:
        scaled = timeline.scaled()
        metrics = {
            "corpus_s": {"value": sum(statistics.median(scaled[k]) for k in keys), "unit": "s"},
            "setup_s": {"value": statistics.median(scaled[query_key(VERSION)]), "unit": "s"},
            "peak_rss_mb": {"value": max(r.maxrss_mb for r in runs), "unit": "MB"},
            "ok_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        report["unscaled"] = {
            "corpus_s": sum(q["median_s"] for q in queries.values()),
            "setup_s": statistics.median(walls[query_key(VERSION)]),
        }
        report["probe_s"] = timeline.probes()
        report["events"] = timeline.events
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
