"""Record `expected.json`: the exact output of every benchmark query.

Run from the root of a source checkout, at the commit whose outputs become
the reference:

    python3 perfbench/record.py

Each query runs once through the CLI. Before anything is written, the
outputs are cross-checked against an independent route wherever one
exists: family predictions, the max-norm engine against enumeration for
per-element lengths, the 0-norm support scan, a 1-norm length recurrence
written here, and the values the README states for <3, 10, 11>. Any
disagreement aborts the recording.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from run import EXPECTED, PINNED, child_env, run_cli
from workloads import WORKLOADS, query_key


def l1_lengths(gens: tuple[int, ...], x: int) -> list[int]:
    """1-norm length set by the dynamic recurrence L(y) = U_i (1 + L(y - a_i)),
    one Python-int bitset per y (Barron, O'Neill, Pelayo, Math. Comp. 2017)."""
    sets = [1] + [0] * x
    for y in range(1, x + 1):
        acc = 0
        for a in gens:
            if a <= y:
                acc |= sets[y - a]
        sets[y] = acc << 1
    bits = sets[x]
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def deltas(values) -> list[int]:
    return sorted({b - a for a, b in zip(values, values[1:])})


def cross_check(argv: list[str], env: dict, checked: list[str]) -> list[str]:
    """Problems found by independent routes; empty when all agree. Appends
    the name of every check made to `checked`."""
    from sgdelta import (
        P0,
        PINF,
        construct_family,
        family,
        infinity_length_set,
        make_semigroup,
        parse_family,
        predicted_delta,
        support_length_set,
    )

    res = env["result"]
    problems = []

    def expect(ok: bool, what: str) -> None:
        checked.append(what)
        if not ok:
            problems.append(f"{query_key(argv)}: {what}")

    if argv[0] == "compute":
        gens = tuple(res["generators"])
        s = make_semigroup(gens)
        if "--x" in argv:
            x = res["x"]
            lengths = res["lengths"]
            expect(res["delta"] == deltas(lengths), "delta is not the difference set of the lengths")
            if res["p"] == "inf":
                expect(list(infinity_length_set(s, x).values) == lengths, "min-max engine disagrees with enumeration")
            elif res["p"] == "0":
                expect(list(support_length_set(s, x)) == lengths, "support scan disagrees with enumeration")
            else:
                expect(l1_lengths(gens, x) == lengths, "1-norm recurrence disagrees with enumeration")
        elif res["p"] == "inf":
            if gens[0] == 3 and gens[1:] == (gens[1], gens[1] + 1) and gens[1] % 3 == 1:
                m = (gens[1] - 1) // 3
                spec = family("three_gap", m=m)
                expect(construct_family(spec).generators == gens, "three_gap construction differs")
                expect(predicted_delta(spec, PINF).exact.values == tuple(res["delta"]), "three_gap prediction differs")
            if gens == (3, 10, 11):
                # values stated in the README quick start
                cert = env["certificate"]
                expect(res["delta"] == [1, 2, 3, 4, 6, 7], "README delta set differs")
                expect((cert["period"], cert["mode"]) == (120, "theorem-backed"), "README certificate differs")
        elif gens == (245, 4267, 23845, 33383):
            spec = family("interval", k=4)
            expect(construct_family(spec).generators == gens, "interval:k=4 construction differs")
            expect(predicted_delta(spec, P0).exact.values == tuple(res["delta"]), "interval prediction differs")
    elif argv[0] == "family":
        spec = parse_family(argv[1])
        expect(list(construct_family(spec).generators) == res["generators"], "family construction differs")
        entry = res["checks"]["0"]
        pred = predicted_delta(spec, P0)
        expect(entry["predicted"] == pred.describe(), "prediction echo differs")
        if "computed" in entry:
            from sgdelta import DeltaSet

            expect(pred.matches(DeltaSet(tuple(entry["computed"]))), "computed set misses the prediction")
    return problems


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    os.environ.update(PINNED)
    env = child_env(root)
    out = {}
    problems = []
    checked: list[str] = []
    for queries in WORKLOADS.values():
        for argv in queries:
            run = run_cli(argv, root, env)
            envelope = run.envelope()
            if envelope is None or "result" not in envelope:
                problems.append(f"{query_key(argv)}: no result (exit {run.code}): {run.output[-400:]}")
                continue
            problems += cross_check(argv, envelope, checked)
            entry = {"exit_code": run.code, "result": envelope["result"]}
            if "certificate" in envelope:
                entry["certificate"] = envelope["certificate"]
            out[query_key(argv)] = entry
            print(f"{run.wall_s:8.3f} s  exit {run.code}  {query_key(argv)}", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"{len(checked)} cross-checks agree", file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(out[k], sort_keys=True)}" for k in sorted(out)]
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
