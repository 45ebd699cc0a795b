"""Registry of verifiable structural claims.

Each claim id maps to a runner that checks one structural statement on a
grid of instances. "verified" claims must pass; "report-only" claims
record observations without affecting exit status (used where an instance
statement is known to admit exceptions even though the set-level result
holds).

Every row takes one path. A runner returns rows (label, status, detail)
with no claim id; `run_claim` stamps the id of the claim's `ClaimSpec`, the
one place it is written, and refuses a set parameter outside the spec's
`reads`; `run_all` is `run_claim` over `CLAIMS`, each given what it reads. A
structure claim runs one check on each suite semigroup, and the suite
entries are shared instances, so their cached sweeps serve every claim. A
family claim's runner is `_run_family` with the family variant, its norms
and its quick and full parameter grids bound in its `ClaimSpec`.

`_guard` is the one place a budget overrun becomes a row: the overrun
semigroup, family member or gaps k gets one "budget" row and the run goes
on, never an abort. A 3-generated grid with no semigroup raises
ValueError rather than pass vacuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial

from .budget import check_element
from .errors import BudgetExceeded
from .factorization import (
    P0,
    PINF,
    DeltaSet,
    delta_of_sorted_set,
    delta_set_of_semigroup,
    enumerate_factorizations,
    iter_factorizations,
    p_length,
)
from .families import (
    FamilySpec,
    construct_family,
    family,
    family_chain,
    is_max_embedding_dimension,
    predicted_delta,
    verify_gluing,
)
from .infinity import (
    delta_inf_semigroup,
    residue_delta_subset,
    shift_threshold_index,
    shift_threshold_sum,
    structure_constants,
    verify_aap,
    verify_interval_decomposition,
    verify_linf_bounds,
    verify_shift,
)
from .parallel import parallel
from .presentation import delta0_3gen, minimal_presentation, singleton_support_presentation_exists
from .search import candidates
from .semigroup import NumericalSemigroup, contains, make_semigroup
from .zero import (
    check_l0_interval,
    delta0_semigroup,
    delta0_stability_bound,
    delta0_union_brute,
)

# Fixed semigroups exercised by the structural claims.
SUITE_GENS = ((4, 6, 9), (3, 10, 11), (6, 9, 20), (5, 13, 16))


@dataclass(frozen=True)
class Instance:
    claim: str
    label: str
    status: str  # "pass" | "fail" | "report" | "budget"
    detail: str = ""


@dataclass(frozen=True)
class ClaimSpec:
    id: str
    summary: str
    kind: str  # "verified" | "report-only"
    runner: object = field(compare=False)
    reads: tuple[str, ...] = ()  # the keys of OPTIONAL its runner reads


# The CLI flag of each parameter a claim takes only if it reads it; all take quick, workers, budget.
OPTIONAL = dict(gens="--gens", x_range="--x", m_range="--m", k_range="--k", max_gen="--max-gen", extended="--extended")


def _inst(label: str, ok: bool, detail: str = "") -> tuple[str, str, str]:
    return label, "pass" if ok else "fail", detail


def _violations(label: str, bad: list, prefix: str = "violations=") -> tuple[str, str, str]:
    """Pass row when `bad` is empty, else a fail row naming its first five entries."""
    return _inst(label, not bad, f"{prefix}{bad[:5]}" if bad else "")


def _guard(label: str, rows) -> list[tuple[str, str, str]]:
    """`rows()`, or one "budget" row under `label` when it overruns, so the
    overrun member gets the row and the run goes on."""
    try:
        return rows()
    except BudgetExceeded as e:
        return [(label, "budget", str(e))]


@cache
def _suite_semigroup(gens: tuple[int, ...]) -> NumericalSemigroup:
    """One instance per generator tuple of the suite, family and fixed rows
    for the life of the process, so every claim reuses its cached sweeps."""
    return make_semigroup(gens)


def _suite(params) -> list[NumericalSemigroup]:
    gens = params.get("gens")
    if gens:
        return [make_semigroup(gens)]
    picked = SUITE_GENS[:1] if params.get("quick") else SUITE_GENS
    return [_suite_semigroup(g) for g in picked]


def _run_suite(check, params) -> list[tuple]:
    """The rows `check(s, params)` returns for each suite semigroup."""
    return [r for s in _suite(params) for r in _guard(str(s), lambda: check(s, params))]


def _members(s, lo, hi, budget):
    """The members of s in [lo, hi]; a range with none is an error, never a
    pass that checked nothing, and one past an explicit budget overruns."""
    xs = [x for x in range(lo, hi + 1) if contains(s, x)]
    if not xs:
        raise ValueError(f"no member of {s} in [{lo},{hi}]")
    check_element(xs[-1], budget)
    return xs


# ---------------------------------------------------------------------------
# structure claims, one check per suite semigroup


def _minmax_bounds(s, params) -> list[tuple]:
    lo, hi = params.get("x_range") or (0, 10 * s.gen_sum)
    bad = [x for x in _members(s, lo, hi, params.get("budget")) if not verify_linf_bounds(s, x)]
    return [_violations(f"{s} x in [{lo},{hi}]" if lo else f"{s} x<={hi}", bad)]


def _aap(s, params) -> list[tuple]:
    """Quick runs check [p, min(2p, p + 200)]; full runs every member up to
    the certificate horizon start + (W + 1) * period."""
    if params.get("x_range") or params.get("quick"):
        p = structure_constants(s).period
        lo, hi = params.get("x_range") or (p, 2 * p)
        if params.get("quick"):
            hi = min(hi, lo + 200)
    else:
        cert = delta_inf_semigroup(s, budget=params.get("budget"))[1]
        lo, hi = 0, cert.start + (cert.window_periods + 1) * cert.period
    bad = [
        (x, i)
        for x in _members(s, lo, hi, params.get("budget"))
        for i in range(1, s.embedding_dim + 1)
        if not verify_aap(s, x, i)
    ]
    return [_violations(f"{s} x in [{lo},{hi}]", bad)]


def _step_shift(s, params) -> list[tuple]:
    consts = structure_constants(s)
    g1 = consts.records[0].complement_gcd
    sum_bound = s.generators[-1] + g1
    out = []
    for i in (1, 2):
        bound = consts.records[i - 1].margin + g1
        base = max(shift_threshold_index(s, i, bound), shift_threshold_sum(s, sum_bound))
        bad = []
        for off in (0, 1, s.generators[0], 2 * s.generators[-1] + 1):
            x = base + off
            while not contains(s, x):
                x += 1
            check_element(x, params.get("budget"))
            if not verify_shift(s, x, i, bound, sum_bound):
                bad.append(x)
        out.append(_violations(f"{s} i={i} bound={bound}", bad))
    return out


def _gap_regions(s, params) -> list[tuple]:
    # bad input, checked before the certificate so that a budget overrun
    # cannot turn it into a budget row
    if s.embedding_dim < 3:
        raise ValueError("interval decomposition references the third generator")
    cert = delta_inf_semigroup(s, budget=params.get("budget"))[1]
    stride = max(1, cert.period // (8 if params.get("quick") else 40))
    xs = [x for x in range(cert.start, cert.start + cert.period + 1, stride) if contains(s, x)]
    bad = [x for x in xs if not verify_interval_decomposition(s, x)]
    return [_violations(f"{s} {len(xs)} samples from {cert.start}", bad)]


def _periodicity(s, params) -> list[tuple]:
    budget = params.get("budget")
    d2, c2 = delta_inf_semigroup(s, window_periods=2, budget=budget)
    d3, _ = delta_inf_semigroup(s, window_periods=3, budget=budget)
    ok = d2 == d3
    return [
        _inst(
            f"{s} period={c2.period} start={c2.start} mode={c2.mode}",
            ok,
            "" if ok else f"window 2 gave {list(d2.values)}, window 3 gave {list(d3.values)}",
        )
    ]


def _residue_deltas(s, params) -> list[tuple]:
    delta, _ = delta_inf_semigroup(s, budget=params.get("budget"))
    bound = 50 * s.generators[0]
    bad = [
        j
        for j in range(s.generators[0])
        if not residue_delta_subset(s, j, bound, delta_inf=delta)
    ]
    # every failing residue is named, not only the first five
    return [_inst(f"{s} bound={bound}", not bad, f"violations at residues {bad}" if bad else "")]


def _l0_tail(s, params) -> list[tuple]:
    x0 = delta0_stability_bound(s)
    hi = x0 + 3 * s.generators[-1]
    bad = [x for x in _members(s, x0 + 1, hi, params.get("budget")) if not check_l0_interval(s, x)]
    return [_violations(f"{s} window ({x0}, {hi}]", bad, "holes at ")]


# ---------------------------------------------------------------------------
# family claims


def _family_row(spec: FamilySpec, p, budget) -> list[tuple]:
    """The family's predicted p-delta set against the computed one. The
    member is built first, so invalid parameters raise its error before any
    prediction is made from them."""
    label = f"{spec.text()} p={'inf' if p == PINF else p}"

    def row():
        s = _suite_semigroup(construct_family(spec).generators)
        pred = predicted_delta(spec, p)
        computed = delta_set_of_semigroup(s, p, budget)
        ok = pred.matches(computed)
        return [_inst(label, ok, "" if ok else f"predicted {pred.describe()}, got {list(computed.values)}")]

    return _guard(label, row)


def _run_family(variant: str, norms, quick: list[dict], full: list[dict], params) -> list[tuple]:
    """The family rows of each parameter set of the quick or the full grid."""
    grid = quick if params.get("quick") else full
    return [r for kw in grid for p in norms for r in _family_row(family(variant, **kw), p, params.get("budget"))]


def _run_three_gap(params) -> list[tuple]:
    lo, hi = params.get("m_range") or ((3, 4) if params.get("quick") else (3, 8))
    out = []
    for m in range(lo, hi + 1):
        spec = family("three_gap", m=m)
        out += _family_row(spec, PINF, params.get("budget")) + _family_row(spec, P0, params.get("budget"))
        s = construct_family(spec)
        out.append(_inst(f"{spec.text()} max embedding dim", is_max_embedding_dimension(s)))
    return out


def _run_singleton_trades(params) -> list[tuple]:
    positives = [
        family("geometric", a=2, b=3, k=3),
        family("supersymmetric", p=(5, 3, 2)),
    ]

    def row(label, s):
        pred = singleton_support_presentation_exists(s)
        d0 = delta0_semigroup(s, params.get("budget"))
        ok = pred and d0 == DeltaSet((1,))
        return [_inst(label, ok, "" if ok else f"predicate={pred} delta0={list(d0.values)}")]

    out = []
    for spec in positives:
        s = _suite_semigroup(construct_family(spec).generators)
        label = f"{spec.text()} -> {s}"
        out += _guard(label, lambda: row(label, s))
    s = _suite_semigroup((3, 10, 11))
    out.append(_inst(f"{s} (negative case)", not singleton_support_presentation_exists(s)))
    return out


def _run_med(params) -> list[tuple]:
    gens_list = [(3, 10, 11), (4, 5, 6, 7)] + ([] if params.get("quick") else [(5, 6, 7, 8, 9)])

    def row(s):
        d0 = delta0_semigroup(s, params.get("budget"))
        ok = is_max_embedding_dimension(s) and d0 == DeltaSet((1, 2))
        return [_inst(f"{s}", ok, "" if ok else f"delta0={list(d0.values)}")]

    semigroups = [_suite_semigroup(gens) for gens in gens_list]
    return [r for s in semigroups for r in _guard(f"{s}", lambda: row(s))]


def _three_gen_case(budget, gens):
    # a fresh instance: caching every 3-generated semigroup would grow the process
    s = make_semigroup(gens)
    return gens, delta0_3gen(s).values, delta0_semigroup(s, budget).values


def _run_three_gen_gluing(params) -> list[tuple]:
    max_gen = params.get("max_gen")
    if max_gen is None:
        max_gen = 24 if params.get("quick") else 40
    cases = list(candidates(3, max_gen, min_dim=3))
    if not cases:
        raise ValueError(f"no 3-generated semigroup has a_3 <= {max_gen}")
    label = f"all 3-generated with a_3 <= {max_gen} ({len(cases)} semigroups)"

    def row():
        with parallel(params.get("workers", 1)) as map_in_order:
            results = map_in_order(partial(_three_gen_case, params.get("budget")), cases)
        bad = [(g, a, b) for g, a, b in results if a != b]
        return [_inst(label, not bad, f"disagreements: {bad[:3]}" if bad else "")]

    return _guard(label, row)


def _run_interval_family(params) -> list[tuple]:
    ks = (2, 3) if params.get("quick") else (2, 3, 4)
    out = []
    for k in ks:
        out += _family_row(family("interval", k=k), P0, params.get("budget"))
    chain_ks = (3,) if params.get("quick") else (3, 4, 5)
    return out + [_chain_row(family("interval", k=k)) for k in chain_ks]


def _chain_row(spec: FamilySpec) -> tuple[str, str, str]:
    """Every link of the gluing chain behind an interval or gaps member."""
    steps = family_chain(spec)
    ok = all(verify_gluing(st.scale, st.base_gens, st.new_gen) for st in steps)
    return _inst(f"{spec.text()} chain of {len(steps)} gluings", ok)


def gaps_expected_trades(k: int) -> set[frozenset]:
    """The k forced trades of the gaps construction, as orientation-free
    side pairs over the sorted generators."""

    def e(i, c=1):
        z = [0] * (k + 1)
        z[i - 1] = c
        return tuple(z)

    def add(*vs):
        return tuple(sum(c) for c in zip(*vs))

    expected = {frozenset({e(1, 3), e(2, 2)})}
    for i in range(3, k + 1):
        expected.add(frozenset({e(i, 2), add(e(i - 2, 2), e(i - 1))}))
    expected.add(frozenset({e(k + 1, 2), add(*(e(i) for i in range(1, k + 1)))}))
    return expected


def _run_gaps_family(params) -> list[tuple]:
    lo, hi = params.get("k_range") or ((3, 5) if params.get("quick") else (3, 10))
    budget = params.get("budget")
    out = []
    for k in range(lo, hi + 1):
        out += _guard(f"gaps:k={k}", lambda: _gaps_rows(k, params.get("extended") and k == hi, budget))
    if params.get("extended"):
        out += _guard("gaps:k=16", lambda: [_gaps_membership_half(16, budget)])
    return out


def _gaps_rows(k: int, scan: bool, budget) -> list[tuple]:
    """Element deltas, forced trades and gluing chain of gaps:k, plus the
    window scan when `scan`."""
    spec = family("gaps", k=k)
    s = construct_family(spec)
    check_element((6 if scan else 3) * s.generators[-1], budget)
    out = [_inst(f"gaps:k={k} element deltas at 2x and 3x top generator", *_gaps_element_check(s, k))]
    got = {t.sides() for t in minimal_presentation(s).trades}
    expected = gaps_expected_trades(k)
    ok_tr = expected <= got and len(got) == k
    out.append(
        _inst(f"gaps:k={k} forced trades present ({len(got)} total)", ok_tr, "" if ok_tr else f"missing {expected - got}")
    )
    out.append(_chain_row(spec))
    if scan:
        out.append(_gaps_window_scan(s, k))
    return out


def _gaps_element_check(s: NumericalSemigroup, k: int) -> tuple[bool, str]:
    """The 0-deltas of twice and three times the top generator are {k-1} and
    {k}. Support sizes are read off the factorizations, which prune with
    prefix span tables: these elements have a handful even at k = 16, where
    the support engine would build 2^17 span tables, one per support."""
    top = s.generators[-1]
    d2, d3 = (
        delta_of_sorted_set(sorted({p_length(z, P0) for z in iter_factorizations(s, c * top)}))
        for c in (2, 3)
    )
    ok = d3 == DeltaSet((k,)) and d2 == DeltaSet((k - 1,))
    return ok, "" if ok else f"got {list(d2.values)} / {list(d3.values)}"


def _gaps_membership_half(k: int, budget=None) -> tuple[str, str, str]:
    """Element-level facts at proof scale: the two forced elements pin the
    top of the window, i.e. {k-1, k} is contained in the 0-delta set."""
    s = construct_family(family("gaps", k=k))
    check_element(3 * s.generators[-1], budget)
    return _inst(f"gaps:k={k} membership half {{k-1, k}}", *_gaps_element_check(s, k))


def _gaps_window_scan(s, k) -> tuple[str, str, str]:
    """Sampled scan of the 0-delta window [ceil(7k/8), k]: exhaustive over
    [0, 6 * a_top] instead of the full stability range."""
    horizon = 6 * s.generators[-1]
    observed = delta0_union_brute(s, horizon)
    window = {v for v in observed.values if math.ceil(7 * k / 8) <= v <= k}
    return (
        f"gaps:k={k} window scan to {horizon}",
        "report",
        f"window values {sorted(window)} (claim proven for k >= 16)",
    )


def _run_geometric_proof_z(params) -> list[tuple]:
    """Report-only: the two-factorization instance claim used inside the
    geometric argument admits extra factorizations on some instances; the
    set-level delta statement is what the verified claims cover."""
    out = []
    for a, b, k in [(2, 3, 3), (2, 5, 3)]:
        s = construct_family(family("geometric", a=a, b=b, k=k))
        a2 = s.generators[1]

        def rows():
            check_element(b * a2, params.get("budget"))
            found = []
            for c in range(a + 1, b + 1):
                z = enumerate_factorizations(s, c * a2)
                expect = {
                    tuple([b, c - a] + [0] * (k - 2)),
                    tuple([0, c] + [0] * (k - 2)),
                }
                holds = "holds" if z == expect else f"fails: {sorted(z)}"
                found.append((f"{s} x={c * a2}", "report", f"two-factorization claim {holds}"))
            return found

        out += _guard(str(s), rows)
    return out


def _suite_claim(cid: str, summary: str, check, reads=("gens",)) -> ClaimSpec:
    """A structure claim: `check` on each suite semigroup, or on gens alone."""
    return ClaimSpec(cid, summary, "verified", partial(_run_suite, check), reads)


CLAIMS: dict[str, ClaimSpec] = {
    c.id: c
    for c in [
        _suite_claim("minmax-bounds", "sandwich bounds for least/top max-norm lengths", _minmax_bounds, ("gens", "x_range")),
        _suite_claim("aap-containment", "dominant lengths fill a residue-class interval", _aap, ("gens", "x_range")),
        _suite_claim("step-shift", "adding a generator shifts window lengths by one", _step_shift),
        _suite_claim("gap-regions", "delta gaps outside the base set touch boundary regions", _gap_regions),
        _suite_claim("delta-periodicity", "per-element max-norm deltas repeat with the period", _periodicity),
        _suite_claim("residue-class-deltas", "rescaled residual-class deltas embed in the delta set", _residue_deltas),
        # a family claim's runner holds its variant, norms and quick and full parameter grids
        ClaimSpec("geometric-family", "geometric generators: max-norm delta is an interval", "verified", partial(
            _run_family, "geometric", (PINF, P0), [dict(a=2, b=3, k=3)],
            [dict(a=2, b=3, k=2), dict(a=2, b=3, k=3), dict(a=3, b=4, k=2), dict(a=2, b=5, k=2)])),
        ClaimSpec("supersymmetric-family", "supersymmetric: max-norm delta is an interval", "verified", partial(
            _run_family, "supersymmetric", (PINF, P0), [dict(p=(5, 3, 2))],
            [dict(p=(3, 2)), dict(p=(5, 3, 2)), dict(p=(5, 4, 3))])),
        ClaimSpec("arithmetic-family", "arithmetic generators: max-norm delta interval", "verified", partial(
            _run_family, "arithmetic", (PINF, P0), [dict(a=5, d=1, k=2)],
            [dict(a=5, d=1, k=2), dict(a=7, d=2, k=3), dict(a=9, d=1, k=4)])),
        ClaimSpec("three-gap-family", "three-generator gap family: split delta set", "verified", _run_three_gap, reads=("m_range",)),
        _suite_claim("l0-interval-tail", "0-length sets are intervals beyond the stability bound", _l0_tail),
        ClaimSpec("singleton-trades", "singleton-support presentations force 0-delta {1}", "verified", _run_singleton_trades),
        ClaimSpec("med-delta0", "maximal embedding dimension forces 0-delta {1,2}", "verified", _run_med),
        ClaimSpec("generalized-arithmetic-delta0", "generalized arithmetic: 0-delta {1,2}", "verified", partial(
            _run_family, "generalized_arithmetic", (P0,), [dict(a=5, h=2, d=3, k=2)],
            [dict(a=5, h=2, d=3, k=2), dict(a=7, h=2, d=1, k=3), dict(a=5, h=3, d=2, k=3)])),
        ClaimSpec("three-gen-gluing", "3-generated: gluing count decides the 0-delta set", "verified", _run_three_gen_gluing, reads=("max_gen",)),
        ClaimSpec("interval-family", "interval construction realizes {1..k-1}", "verified", _run_interval_family),
        ClaimSpec("gaps-family", "gaps construction: window {k-1,k} plus forced trades", "verified", _run_gaps_family,
                  reads=("k_range", "extended")),
        ClaimSpec("geometric-proof-z", "instance-level two-factorization observation", "report-only", _run_geometric_proof_z),
    ]
}


def _unread(spec: ClaimSpec, params) -> list[str]:
    """The parameters of OPTIONAL set in params (not None, not False) that the
    claim ignores."""
    return [k for k, v in params.items() if k in OPTIONAL and k not in spec.reads and v is not None and v is not False]


def run_claim(claim_id: str, **params) -> list[Instance]:
    """The rows of one claim; a set optional parameter it ignores is a ValueError."""
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim id {claim_id!r}")
    spec = CLAIMS[claim_id]
    if unread := _unread(spec, params):
        raise ValueError(f"{claim_id} does not read {unread[0]} ({OPTIONAL[unread[0]]})")
    return [Instance(claim_id, *row) for row in spec.runner(params)]


def run_all(quick: bool = False, **params) -> list[Instance]:
    """`run_claim` over every claim, each given the optional parameters it reads."""
    out = []
    for cid, spec in CLAIMS.items():
        unread = _unread(spec, params)
        out += run_claim(cid, quick=quick, **{k: v for k, v in params.items() if k not in unread})
    return out
