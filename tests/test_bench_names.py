"""The names the benchmark's traced replay reads from the package.

`perfbench/layers.py` wraps the functions in its `SPANS` table and calls
`sg.<name>` and `verification.<name>` directly, so a renamed or deleted
function would break `--trace 1` only when it runs. This reads the file's
syntax tree and resolves every such name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import sgdelta
from sgdelta import verification

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TREE = ast.parse((BENCH / "layers.py").read_text())


def test_every_traced_function_resolves():
    spans = next(
        n.value for n in TREE.body if isinstance(n, ast.Assign) and any(t.id == "SPANS" for t in n.targets)
    )
    pairs = [(mod, name) for mod, name, _ in ast.literal_eval(spans)]
    pairs.append(("sgdelta.factorization", "iter_factorizations"))
    for mod, name in pairs:
        assert callable(getattr(importlib.import_module(mod), name, None)), (mod, name)


def test_every_name_read_from_the_package_resolves():
    modules = {"sg": sgdelta, "verification": verification}
    read = {
        (n.value.id, n.attr)
        for n in ast.walk(TREE)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
    }
    assert {m for m, _ in read} == set(modules)
    for mod, name in sorted(read):
        assert hasattr(modules[mod], name), f"{mod}.{name}"


def test_claim_ids_follow_the_registry():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.CLAIM_IDS == tuple(verification.CLAIMS)
