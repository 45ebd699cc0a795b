"""Mutation check: do the tests catch a broken fast path?

Each entry of MUTANTS is one exact text replacement in one file under src/
and the tests that must fail once it is made. For each mutant the script
copies src/, tests/, perfbench/ (which tests/test_bench_names.py reads) and
pyproject.toml into a fresh temporary directory, applies the mutant there
and runs only its tests against the copy, all of them to the end. The
repository itself is never changed.

Each named test's outcome is read from the run's junit report and printed:
"fail" when one of its test cases fails, "error" when one errors or none
was collected, else "pass". A mutant is killed only when every named test
fails: a named test that no longer catches its mutant must show, even when
another one still does. A collection error, a usage error or a run that
collects nothing kills nothing: an import that breaks in the copy must not
read as a caught mutant. Each run is stopped after TIMEOUT_S seconds, and a
run that is stopped is reported as timed out, never as a kill: a mutant
that makes a loop run forever has not been caught by a failing test. Before
any mutant, every named test must pass on an unmutated copy.

    python tools/mutants.py

Exits 0 when every mutant is killed, 1 when one survives, times out or
cannot be applied, 2 when the unmutated copy fails or times out on the
named tests. Needs only the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# seconds one pytest run may take; the unmutated run of every named test
# takes about 18 s on a 2-CPU host
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, every one of which must fail


MUTANTS = (
    Mutant(
        "gluing-drops-containment",
        "src/sgdelta/families.py",
        "return cone.gcd == 1 and new not in cone.gens and cone.contains(new)",
        "return cone.gcd == 1 and new not in cone.gens",
        ("tests/test_families.py::test_gluing_verifier_rejects",),
    ),
    Mutant(
        "sweep-counter-not-reset-at-a-new-length",
        "src/sgdelta/infinity.py",
        "            counter[j] ^= xs\n",
        "",
        (
            "tests/test_properties.py::test_sweep_rows_match_full_mask",
            "tests/test_infinity.py::test_sweep_rows_match_full_mask_on_suite",
        ),
    ),
    Mutant(
        "minmax-fold-off-by-one",
        "src/sgdelta/arith.py",
        "need = table[y0 + r] + q - c",
        "need = table[y0 + r] + q + (q > 1) - c",
        ("tests/test_properties.py::test_folded_minmax_reads_match_references",),
    ),
    Mutant(
        "sweep-dead-cut-one-level-early",
        "src/sgdelta/infinity.py",
        "bottom = max(lo, level * a1)",
        "bottom = max(lo, (level + 1) * a1)",
        (
            "tests/test_properties.py::test_sweep_rows_match_full_mask",
            "tests/test_infinity.py::test_sweep_rows_match_full_mask_on_suite",
        ),
    ),
    Mutant(
        "sweep-frame-skips-its-first-level",
        "src/sgdelta/infinity.py",
        "if level * total < lo:",
        "if level * total <= lo:",
        ("tests/test_properties.py::test_sweep_frames_match_a_sweep_from_zero",),
    ),
    Mutant(
        "sweep-skips-past-the-last-uncapped-level",
        "src/sgdelta/infinity.py",
        "(hi + 1 - window) // a1 + 1 - level",
        "(hi + 1 - window) // a1 + 2 - level",
        ("tests/test_properties.py::test_sweep_matches_the_full_band_sweep",),
    ),
    Mutant(
        "sweep-steady-while-index-2-reaches-the-window",
        "src/sgdelta/infinity.py",
        " and level * (gens[1] - a1) >= window",
        "",
        ("tests/test_properties.py::test_sweep_matches_the_full_band_sweep",),
    ),
    Mutant(
        "sweep-fixed-point-compares-only-seen",
        "src/sgdelta/infinity.py",
        "state, repeats = (seen, *counter), 1",
        "state, repeats = seen, 1",
        ("tests/test_properties.py::test_sweep_matches_the_full_band_sweep",),
    ),
    Mutant(
        "sweep-window-where-g1-exceeds-1",
        "src/sgdelta/infinity.py",
        "if math.gcd(*gens[1:]) == 1 else hi + 1",
        "",
        (
            "tests/test_properties.py::test_sweep_matches_the_full_band_sweep",
            "tests/test_infinity.py::test_sweep_rows_match_full_mask_on_suite",
        ),
    ),
    Mutant(
        "sweep-slice-guard-never-masks",
        "src/sgdelta/infinity.py",
        "if r.bit_length() > n - up:",
        "if False:",
        ("tests/test_properties.py::test_sweep_matches_the_full_band_sweep",),
    ),
    Mutant(
        "level-search-adds-one-generator-per-level",
        "src/sgdelta/infinity.py",
        "new |= (new << v) & mask",
        "new |= (reach << v) & mask",
        ("tests/test_properties.py::test_minmax_level_step_matches_subset_sums",),
    ),
    Mutant(
        "level-table-leaves-the-last-runs-open",
        "src/sgdelta/arith.py",
        "        if level >> j & 1:\n",
        "        if False:\n",
        ("tests/test_properties.py::test_minmax_level_step_matches_subset_sums",),
    ),
    Mutant(
        "one-norm-level-chains-parts",
        "src/sgdelta/factorization.py",
        "new |= reach << b",
        "new |= new << b",
        ("tests/test_properties.py::test_one_norm_lengths_match_the_numpy_builder",),
    ),
    Mutant(
        "one-norm-fold-drops-the-class-term",
        "src/sgdelta/arith.py",
        "(rest.conductor + h * step)",
        "(rest.conductor)",
        (
            "tests/test_properties.py::test_one_norm_table_shifts_from_its_bound",
            "tests/test_properties.py::test_folded_minmax_reads_match_references",
        ),
    ),
    Mutant(
        "zero-threshold-drops-support-sum",
        "src/sgdelta/zero.py",
        "cone.conductor + total",
        "cone.conductor",
        (
            "tests/test_zero.py::test_stability_bound_two_generators",
            "tests/test_zero.py::test_singleton_profiles_threshold_is_the_generator",
        ),
    ),
    Mutant(
        "zero-pair-threshold-off-by-one-factor",
        "src/sgdelta/zero.py",
        "d * (a // d - 1) * (b // d - 1)",
        "d * (a // d) * (b // d - 1)",
        (
            "tests/test_properties.py::test_stability_bound_matches_all_tables",
            "tests/test_zero.py::test_stability_bound_matches_all_tables_on_search_candidates",
        ),
    ),
    Mutant(
        "zero-schur-pruning-inverted",
        "src/sgdelta/zero.py",
        "(sub[-1] // d - 1) + total > best:",
        "(sub[-1] // d - 1) + total < best:",
        (
            "tests/test_zero.py::test_stability_bound_set_by_a_larger_support",
            "tests/test_zero.py::test_stability_bound_matches_all_tables_on_search_candidates",
        ),
    ),
    Mutant(
        "round-robin-keeps-its-own-path",
        "src/sgdelta/arith.py",
        "            else:\n                n = old\n",
        "",
        ("tests/test_properties.py::test_residue_tables_match_the_heap_oracle",),
    ),
    Mutant(
        "start-region-1-term",
        "src/sgdelta/infinity.py",
        "a[0] * a[1] * (3 * g1 + b1)",
        "a[0] * a[1] * (2 * g1 + b1)",
        ("tests/test_infinity.py::test_theorem_start_set_by_a_gap_region_term",),
    ),
    Mutant(
        "start-region-2-term",
        "src/sgdelta/infinity.py",
        "a[1] * a[2] * (2 * g1 * g2 + b2)",
        "a[1] * a[2] * (g1 * g2 + b2)",
        ("tests/test_infinity.py::test_theorem_start_set_by_a_gap_region_term",),
    ),
    Mutant(
        "cone-membership-drops-the-gcd-test",
        "src/sgdelta/arith.py",
        "if y < 0 or y % self.gcd:",
        "if y < 0:",
        ("tests/test_arith.py::test_cone_table_matches_brute",),
    ),
    Mutant(
        "span-walk-keeps-every-generator",
        "src/sgdelta/arith.py",
        "if not table.contains(a):",
        "if True:",
        ("tests/test_search.py::test_candidates_match_the_minimality_oracle",),
    ),
    Mutant(
        "span-walk-skips-gcd-multiples",
        "src/sgdelta/arith.py",
        "if not table.contains(a):",
        "if a % table.gcd:",
        ("tests/test_search.py::test_candidates_match_the_minimality_oracle",),
    ),
    Mutant(
        "zero-support-span-stops-a-doubling-short",
        "src/sgdelta/zero.py",
        "while step <= room:",
        "while 2 * step <= room:",
        ("tests/test_properties.py::test_zero_union_matches_oracles",),
    ),
    Mutant(
        "window-entry-keeps-the-level",
        "src/sgdelta/infinity.py",
        "            level = max(level, (lo - width) // a1 + 1)\n",
        "            pass\n",
        ("tests/test_infinity.py::test_window_entry_skips_the_levels_below_the_frame",),
    ),
    Mutant(
        "verify-refuses-what-a-claim-reads",
        "src/sgdelta/verification.py",
        "k in OPTIONAL and k not in spec.reads and",
        "k in OPTIONAL and",
        ("tests/test_cli.py::test_verify_rejects_parameters_its_claim_does_not_read",),
    ),
    Mutant(
        "members-ignore-the-element-budget",
        "src/sgdelta/verification.py",
        "    check_element(xs[-1], budget)\n",
        "",
        ("tests/test_cli.py::test_verify_claims_hold_an_explicit_element_budget[minmax-bounds]",),
    ),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _outcome(test: str, cases: list[tuple[str, str, str]]) -> str:
    """"fail", "error" or "pass" for the pytest id `test` (a file, or a
    test in it), from the (classname, name, result) of every junit case."""
    path, _, name = test.partition("::")
    module = path.removesuffix(".py").replace("/", ".")
    mine = [
        result
        for classname, case, result in cases
        if classname == module and (not name or case == name or case.startswith(name + "["))
    ]
    if not mine or "error" in mine:
        return "error"
    return "fail" if "failure" in mine else "pass"


def _run(tree: Path, tests: tuple[str, ...]) -> tuple[dict[str, str], float]:
    """The outcome of each test in `tree`, "pass", "fail", "error" or
    "timeout", and the seconds taken."""
    report = tree / "report.xml"
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *tests],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return dict.fromkeys(tests, "timeout"), time.monotonic() - started
    seconds = time.monotonic() - started
    if proc.returncode not in (0, 1) or not report.exists():
        return dict.fromkeys(tests, "error"), seconds
    cases = []
    for case in ET.parse(report).iter("testcase"):
        results = [child.tag for child in case if child.tag in ("failure", "error")]
        cases.append((case.get("classname", ""), case.get("name", ""), results[0] if results else "pass"))
    return {t: _outcome(t, cases) for t in tests}, seconds


def _show(outcomes: dict[str, str]) -> None:
    for test, outcome in outcomes.items():
        print(f"    {outcome:8} {test}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        outcomes, seconds = _run(clean, tests)
        passed = all(o == "pass" for o in outcomes.values())
        print(f"unmutated: {'pass' if passed else 'NOT PASSING'} ({seconds:.1f} s)")
        if not passed:
            _show({t: o for t, o in outcomes.items() if o != "pass"})
            return 2
        survived = []
        for n, m in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{n}"
            _copy(tree)
            target = tree / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text occurs {text.count(m.old)} times in {m.path}")
                survived.append(m.name)
                continue
            target.write_text(text.replace(m.old, m.new))
            outcomes, seconds = _run(tree, m.tests)
            killed = all(o == "fail" for o in outcomes.values())
            print(f"{m.name}: {'killed' if killed else 'NOT KILLED'} ({seconds:.1f} s)")
            _show(outcomes)
            if not killed:
                survived.append(m.name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
