"""What the package imports, and when.

Every name a library module imports is read somewhere in that module. The
test dependencies bring no linter, so this walks each module's syntax tree,
imports inside functions included. The package `__init__` is left out: it
resolves its names on first use from one table, which is checked here
against the modules. Each CLI command runs in a fresh interpreter, which
shows the modules it loads: the max-norm engine, the claim registry,
hashlib and the family, presentation and 0-norm modules only where the
command needs them. No command loads numpy: enumeration, the element
queries at every p and the max-norm certificate's sweep are plain Python.
No command loads dataclasses and what it imports, since records are plain
classes; without the site hook, which may load typing, pathlib and shutil
itself, none of those loads either, nor bz2 and lzma, which shutil imports.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgdelta

MODULES = sorted(p.name for p in Path(sgdelta.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # quoted annotations are not read: the modules import annotations from
    # __future__, so none needs quoting
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "import numpy as np\nfrom itertools import combinations, count\nfor i in count(): np.abs(i)\n"
    assert unused_imports(source) == ["combinations"]


def test_the_check_sees_imports_inside_functions():
    source = "def f():\n    import numpy as np\n    from .zero import span\n    return np.abs(1)\n"
    assert unused_imports(source) == ["span"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    source = (Path(sgdelta.__file__).parent / name).read_text()
    assert unused_imports(source) == [], name


# the public names of the package, pinned so that the lazy table can neither
# drop nor add one unnoticed
STAR_NAMES = {
    "AperyTable", "Budget", "BudgetExceeded", "DEFAULT_INF_BUDGET", "DEFAULT_ZERO_BUDGET",
    "DeltaSet", "FamilySpec", "GluingExpression", "InvalidGenerators", "LengthSet",
    "MinimalPresentation", "NonCoprimeGenerators", "NotAMember", "NumericalSemigroup", "P0",
    "P1", "PINF", "PeriodOverflow", "PeriodicityCertificate", "QuotientData", "SearchReport",
    "SemigroupError", "StructureConstants", "SupportProfile", "ThresholdNotMet", "Trade",
    "VerificationError", "apery_set", "betti_elements", "check_l0_interval",
    "construct_family", "contains", "delta0_3gen", "delta0_semigroup", "delta0_stability_bound",
    "delta0_union_brute", "delta_inf_semigroup", "delta_of_sorted_set", "delta_set_of_element",
    "delta_set_of_semigroup", "dominant_length_set", "enumerate_factorizations", "family",
    "family_chain", "frobenius", "gluing_expressions_3gen", "index_graph_components",
    "infinity_length_set", "is_max_embedding_dimension", "iter_factorizations", "length_set",
    "make_factorization", "make_semigroup", "make_trade", "minimal_presentation", "p_length",
    "parse_family", "predicted_delta", "quotient_data", "residue_delta_subset", "search_delta",
    "singleton_support_presentation_exists", "span", "structure_constants", "support",
    "support_length_set", "support_profiles", "verify_aap", "verify_gluing",
    "verify_interval_decomposition", "verify_linf_bounds", "verify_shift",
}


def test_star_import_exports_the_pinned_names():
    namespace = {}
    exec("from sgdelta import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    assert len(STAR_NAMES) == 72


@pytest.mark.parametrize("module", sorted(sgdelta._EXPORTS))
def test_every_exported_name_is_defined_by_its_module(module):
    qualified = f"sgdelta.{module}"
    defined = vars(importlib.import_module(qualified))
    assert [name for name in sgdelta._EXPORTS[module] if name not in defined] == []
    for name in sgdelta._EXPORTS[module]:
        # a class or function is filed under the module that defines it, not
        # one that imports it
        assert getattr(defined[name], "__module__", qualified) == qualified, name
        assert getattr(sgdelta, name) is defined[name]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sgdelta, "no_such_name")
    assert not hasattr(sgdelta, "no_such_name")
    assert STAR_NAMES <= set(dir(sgdelta))


LOADED_AFTER = """
import contextlib, io, json, sys
from sgdelta import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(json.loads(sys.argv[1]))
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""


ENUMERATION = """
import json, sys
from sgdelta import enumerate_factorizations, make_semigroup
enumerate_factorizations(make_semigroup([3, 5, 7]), 100)
print(json.dumps(sorted(sys.modules)))
"""


def loaded_after(*argv: str, script: str = LOADED_AFTER, flags: tuple[str, ...] = ()) -> set[str]:
    """The modules a fresh interpreter, started with `flags`, holds after
    `sgdelta` runs argv, or after `script` runs."""
    env = {**os.environ, "PYTHONPATH": str(Path(sgdelta.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return set(json.loads(proc.stdout))


# array is a shared library too: loading it showed in the peak RSS of
# `family gaps:k=9 --p 0`
HEAVY = {"numpy", "sgdelta.infinity", "sgdelta.verification", "concurrent.futures", "hashlib", "_hashlib", "array"}
# dataclasses and the modules it imports, which cost every child about 8 ms
RECORD_MACHINERY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["compute", "--gens", "7,11,13,17", "delta", "--x", "3000", "--p", "0"],
        ["compute", "--gens", "7,11,13,17", "delta-semigroup", "--p", "0"],
        ["family", "gaps:k=5", "--p", "0"],
        ["family", "gaps:k=9", "--p", "0"],
        ["search", "--target", "1,2", "--p", "0", "--max-gen", "10", "--threads", "1"],
        ["compute", "--gens", "6,9,20", "apery", "--m", "7"],
    ],
    ids=["version", "delta-p0", "delta-semigroup-p0", "family-p0", "family-gaps9-p0", "search-p0", "apery"],
)
def test_p0_commands_load_no_heavy_module(argv):
    assert sorted(loaded_after(*argv) & (HEAVY | RECORD_MACHINERY)) == []


@pytest.mark.parametrize("p", ["1", "inf"])
def test_element_queries_load_no_numpy(p):
    # the 1-norm table and the min-max tables are plain Python
    loaded = loaded_after("compute", "--gens", "7,11,13,17", "delta", "--x", "3000", "--p", p)
    assert sorted(loaded & ({"numpy"} | RECORD_MACHINERY)) == []
    assert ("sgdelta.infinity" in loaded) == (p == "inf")


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["compute", "--gens", "7,11,13,17", "delta", "--x", "3000", "--p", "inf"]],
    ids=["version", "delta-inf"],
)
def test_commands_without_the_site_hook_load_no_typing_or_pathlib(argv):
    # a site hook may import both; -S shows what the package itself loads
    loaded = loaded_after(*argv, flags=("-S",))
    assert "sgdelta.cli" in loaded
    assert sorted(loaded & ({"typing", "pathlib"} | RECORD_MACHINERY)) == []


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["compute", "--gens", "4,6,9", "delta-semigroup", "--p", "inf"]],
    ids=["version", "delta-semigroup-inf"],
)
def test_commands_without_the_site_hook_load_no_shutil(argv):
    # argparse's own help formatter imports shutil, and with it bz2 and
    # lzma, for the terminal width; the CLI's formatter reads it without
    loaded = loaded_after(*argv, flags=("-S",))
    assert "sgdelta.cli" in loaded
    assert sorted(loaded & {"shutil", "bz2", "lzma"}) == []


LATE = {"sgdelta.families", "sgdelta.presentation", "sgdelta.zero"}


def test_version_loads_no_family_presentation_or_zero_module():
    assert sorted(loaded_after("--version") & LATE) == []


def test_max_norm_certificate_loads_no_family_presentation_or_zero_module():
    loaded = loaded_after("compute", "--gens", "7,11,13,17", "delta-semigroup", "--p", "inf")
    assert sorted(loaded & LATE) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--gens", "7,11,13,17", "delta-semigroup", "--p", "inf"],
        ["verify", "all", "--quick"],
        ["search", "--target", "1,2", "--p", "inf", "--max-gen", "7", "--max-dim", "3", "--threads", "1"],
    ],
    ids=["delta-semigroup-inf", "verify-all-quick", "search-inf"],
)
def test_max_norm_commands_load_no_numpy(argv):
    # the max-norm sweep is plain Python; the probe still sees the max-norm
    # engine load, so it sees what a command imports
    loaded = loaded_after(*argv)
    assert sorted(loaded & ({"numpy"} | RECORD_MACHINERY)) == []
    assert "sgdelta.infinity" in loaded


def test_cached_command_loads_hashlib(tmp_path):
    # the probe sees hashlib where a command needs it: only the cache key hashes
    loaded = loaded_after("compute", "--gens", "6,9,20", "apery", "--m", "7", "--cache-dir", str(tmp_path))
    assert {"hashlib", "_hashlib"} <= loaded


def test_enumeration_loads_no_numpy():
    # the prefix prune reads the shared span tables, which are plain tuples
    assert "numpy" not in loaded_after(script=ENUMERATION)
