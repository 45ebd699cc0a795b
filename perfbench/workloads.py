"""The three query corpora of the benchmark, and how outputs are compared.

Each query is the argument list of one `sgdelta` CLI call (the harness adds
`--threads 1`). Corpus membership is fixed because every query has an exact
expected output in `expected.json`; the workload seed only permutes the
order in which a pass sends them.

`BUDGETS` holds the limits each query runs under, taken from this file
rather than from the envelope's `budget` echo (which always echoes the
max-norm defaults, also for p=0 queries). Queries that pass no budget flag
run under the library defaults, which are restated here.
"""

from __future__ import annotations

# Library defaults at the commit the expected outputs were recorded at.
INF_ELEMENTS = 300_000  # DEFAULT_INF_BUDGET.max_element
ZERO_ELEMENTS = 5_000_000  # DEFAULT_ZERO_BUDGET.max_element
FACTORIZATIONS = 10_000_000  # DEFAULT_FACTORIZATION_CAP

VERSION = ["--version"]


def _inf(gens: str) -> list[str]:
    return ["compute", "--gens", gens, "delta-semigroup", "--p", "inf"]


def _zero(gens: str) -> list[str]:
    return ["compute", "--gens", gens, "delta-semigroup", "--p", "0"]


def _element(gens: str, x: int, p: str) -> list[str]:
    return ["compute", "--gens", gens, "delta", "--x", str(x), "--p", p]


# why each workload exists, which layer it stresses
WHY = {
    "inf-theorem": "theorem-backed Delta_inf certificates with k=3..5; the max-norm sweep dominates",
    "elements-and-zero": "factorization enumeration and the 0-norm cone pass; the max-norm engine is never called",
    "registry-search": "claim registry and search: thousands of small semigroups, empirical k=2 certificates",
}

WORKLOADS: dict[str, list[list[str]]] = {
    "inf-theorem": [
        _inf("4,6,9"),
        _inf("3,10,11"),
        _inf("6,9,20"),
        _inf("5,13,16"),
        # three_gap family, m = 4..8: <3, 3m+1, 3m+2>
        *(_inf(f"3,{3 * m + 1},{3 * m + 2}") for m in range(4, 9)),
        _inf("7,11,13,17"),
        _inf("11,13,17,19,23"),
    ],
    "elements-and-zero": [
        *(_element("7,11,13,17", 3000, p) for p in ("0", "1", "inf")),
        *(_element("11,13,17,19,23", 1500, p) for p in ("0", "1", "inf")),
        _zero("245,4267,23845,33383"),  # interval family, k = 4
        _zero("11,13,17,19,23"),
        ["family", "gaps:k=9", "--p", "0"],
    ],
    "registry-search": [
        ["verify", "all", "--quick"],
        ["search", "--target", "1,2", "--p", "0", "--max-gen", "24", "--max-dim", "4"],
        [
            "search", "--target", "1,2", "--p", "inf", "--max-gen", "9", "--max-dim", "3",
            "--budget-elements", "30000",
        ],
    ],
}


# the claim registry at the commit the expected outputs were recorded at;
# `verify all --quick` runs each one
CLAIM_IDS = (
    "minmax-bounds",
    "aap-containment",
    "step-shift",
    "gap-regions",
    "delta-periodicity",
    "residue-class-deltas",
    "geometric-family",
    "supersymmetric-family",
    "arithmetic-family",
    "three-gap-family",
    "l0-interval-tail",
    "singleton-trades",
    "med-delta0",
    "generalized-arithmetic-delta0",
    "three-gen-gluing",
    "interval-family",
    "gaps-family",
    "geometric-proof-z",
)


def query_key(argv: list[str]) -> str:
    return " ".join(argv)


def matches(expected: dict, got: dict | None) -> bool:
    """Every expected key is present with exactly the expected value. Keys
    the program adds later (new certificate fields, say) are ignored."""
    if got is None:
        return False
    return all(k in got and got[k] == v for k, v in expected.items())


def budget_of(argv: list[str]) -> dict:
    """Effective limits of one query, from this file's settings."""
    if "--budget-elements" in argv:
        return {"max_element": int(argv[argv.index("--budget-elements") + 1])}
    if "--x" in argv:  # element queries enumerate factorizations
        return {"max_factorizations": FACTORIZATIONS}
    p = argv[argv.index("--p") + 1] if "--p" in argv else None
    if p == "0":
        return {"max_element": ZERO_ELEMENTS}
    if p == "inf":
        return {"max_element": INF_ELEMENTS}
    return {"max_element_inf": INF_ELEMENTS, "max_element_zero": ZERO_ELEMENTS}


BUDGETS = {query_key(q): budget_of(q) for qs in WORKLOADS.values() for q in qs}
