"""Acceptance suite: every criterion is exact (set equality / boolean), no
tolerances to tune. One printed line per criterion; run with -s to see them.
"""

from itertools import chain

import numpy as np

from sgdelta import (
    P0,
    contains,
    delta0_3gen,
    delta0_semigroup,
    delta0_stability_bound,
    delta0_union_brute,
    check_l0_interval,
    construct_family,
    delta_inf_semigroup,
    delta_set_of_element,
    enumerate_factorizations,
    family,
    family_chain,
    make_semigroup,
    minimal_presentation,
    verify_aap,
    verify_gluing,
)
from sgdelta import factorization, verification
from sgdelta.infinity import _get_engine
from sgdelta.search import candidates
from sgdelta.verification import SUITE_GENS, _gaps_membership_half, gaps_expected_trades

from _oracles import full_mask_deltas, grid_factorizations


def _report(num, desc, ok):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_three_gap_delta_inf():
    bad = []
    for m in range(3, 9):
        s = make_semigroup([3, 3 * m + 1, 3 * m + 2])
        d, cert = delta_inf_semigroup(s)
        want = tuple(sorted(set(range(1, m + 2)) | {2 * m, 2 * m + 1}))
        if d.values != want:
            bad.append((m, d.values, want))
    _report(1, "three-gap family delta-inf for m=3..8 (exact set equality)", not bad)


def test_criterion_2_geometric_and_supersymmetric_delta_inf():
    d_geo, _ = delta_inf_semigroup(make_semigroup([4, 6, 9]))
    d_sup, _ = delta_inf_semigroup(make_semigroup([6, 10, 15]))
    ok = d_geo.values == (1, 2, 3) and d_sup.values == (1, 2, 3, 4, 5)
    _report(2, "geometric (4,6,9) and supersymmetric (6,10,15) delta-inf", ok)


def test_criterion_3_arithmetic_delta_inf():
    bad = []
    for a, d, k in [(5, 1, 2), (7, 2, 3), (9, 1, 4)]:
        s = construct_family(family("arithmetic", a=a, d=d, k=k))
        got, _ = delta_inf_semigroup(s)
        want = tuple(range(1, (a - 1) // k + d + 2))
        if got.values != want:
            bad.append((a, d, k, got.values, want))
    _report(3, "arithmetic families (5,1,2),(7,2,3),(9,1,4) delta-inf", not bad)


def test_criterion_4_delta0_families():
    bad = []
    for gens, want in [
        ((4, 6, 9), (1,)),
        ((6, 10, 15), (1,)),
        ((3, 10, 11), (1, 2)),
        ((4, 5, 6, 7), (1, 2)),
        ((5, 13, 16), (1, 2)),
    ]:
        got = delta0_semigroup(make_semigroup(gens))
        if got.values != want:
            bad.append((gens, got.values, want))
    _report(4, "delta0 on geometric/supersymmetric/MED/generalized-arithmetic", not bad)


def test_criterion_5_three_generated_cross_validation():
    cases = list(candidates(3, 40, min_dim=3))
    bad = []
    for gens in cases:
        s = make_semigroup(gens)
        if delta0_3gen(s) != delta0_semigroup(s):
            bad.append(gens)
    _report(
        5,
        f"gluing-count delta0 equals exact delta0 on all {len(cases)} "
        "3-generated semigroups with largest generator <= 40",
        not bad,
    )


def test_criterion_6_interval_family():
    bad = []
    for k in (2, 3, 4):
        s = construct_family(family("interval", k=k))
        want = tuple(range(1, k)) if k > 2 else (1,)
        got = delta0_semigroup(s)
        if got.values != want:
            bad.append((k, got.values, want))
    # desk scale stops at k = 4; the construction chain itself is verified
    # as a tower of gluings up to k = 5
    for k in (3, 4, 5):
        for st in family_chain(family("interval", k=k)):
            if not verify_gluing(st.scale, st.base_gens, st.new_gen):
                bad.append(("chain", k, st))
    _report(6, "interval family: exact delta0 for k=2..4, gluing chains to k=5", not bad)


def test_criterion_7_gaps_family():
    bad = []
    for k in range(3, 11):
        s = construct_family(family("gaps", k=k))
        top = s.generators[-1]
        if delta_set_of_element(s, 3 * top, P0).values != (k,):
            bad.append((k, "triple"))
        if delta_set_of_element(s, 2 * top, P0).values != (k - 1,):
            bad.append((k, "double"))
        got = {t.sides() for t in minimal_presentation(s).trades}
        if not gaps_expected_trades(k) <= got or len(got) != k:
            bad.append((k, "trades"))
    # the proof-scale members: the two forced elements of k = 16
    if _gaps_membership_half(16)[1] != "pass":
        bad.append((16, "membership half"))
    _report(7, "gaps family k=3..10: element deltas {k}/{k-1} and the forced trades; k=16 membership half", not bad)


def test_criterion_8_structure_suite():
    # sandwich bounds on every member up to 10 * A, and the residual-class
    # deltas of every residue to 50 * a_1: the registry's own rows
    rows = verification.run_claim("minmax-bounds") + verification.run_claim("residue-class-deltas")
    failures = [(r.claim, r.label, r.detail) for r in rows if r.status != "pass"]
    for gens in SUITE_GENS:
        s = make_semigroup(gens)
        assert {f"{s} x<={10 * s.gen_sum}", f"{s} bound={50 * s.generators[0]}"} <= {r.label for r in rows}
        _, cert = delta_inf_semigroup(s, window_periods=2)
        # residue-class AAP containments across one full period above start
        for x in range(cert.start, cert.start + cert.period + 1):
            for i in range(1, s.embedding_dim + 1):
                if not verify_aap(s, x, i):
                    failures.append((gens, "aap", x, i))
        # per-element periodicity over both certificate windows
        eng = _get_engine(s, cert.start + 3 * cert.period)
        for x in range(cert.start, cert.start + 2 * cert.period):
            if full_mask_deltas(eng, x) != full_mask_deltas(eng, x + cert.period):
                failures.append((gens, "periodicity", x))
    _report(
        8,
        "structure suite on (4,6,9),(3,10,11),(6,9,20),(5,13,16): bounds, "
        "AAP window, periodicity, residue deltas",
        not failures,
    )


def test_criterion_9_oracle_equivalence():
    bad = []
    for gens in SUITE_GENS:
        s = make_semigroup(gens)
        k = s.embedding_dim
        for x in range(2001):
            got = enumerate_factorizations(s, x)
            arr = np.fromiter(chain.from_iterable(got), dtype=np.int64, count=len(got) * k).reshape(len(got), k)
            arr = arr[np.lexsort(arr.T[::-1])]  # the grid's row order
            if not np.array_equal(arr, grid_factorizations(gens, x)):
                bad.append((gens, x))
                break
        x0 = delta0_stability_bound(s)
        assert x0 <= 5000
        if delta0_semigroup(s) != delta0_union_brute(s, 2 * x0):
            bad.append((gens, "delta0-2x0"))
    _report(9, "enumeration equals the box oracle for x<=2000; delta0 stable to 2*X0", not bad)


def test_criterion_10_l0_interval_tail():
    bad = []
    for gens in SUITE_GENS:
        s = make_semigroup(gens)
        x0 = delta0_stability_bound(s)
        for x in range(x0 + 1, x0 + 3 * s.generators[-1] + 1):
            if contains(s, x) and not check_l0_interval(s, x):
                bad.append((gens, x))
    _report(10, "0-length sets are intervals on (X0, X0 + 3*a_k]", not bad)


def test_gaps_family_overrun_is_a_row_and_the_run_goes_on(monkeypatch):
    # k = 3 enumerates x <= 3 * 17 = 51; k = 4 starts at 2 * 53 = 106
    monkeypatch.setattr(factorization, "MAX_ENGINE_HORIZON", 100)
    rows = [(r.label.split()[0], r.status) for r in verification.run_claim("gaps-family", k_range=(3, 5))]
    assert rows == [("gaps:k=3", "pass")] * 3 + [("gaps:k=4", "budget"), ("gaps:k=5", "budget")]


def test_full_registry():
    # the full grid of every claim, in registry order
    rows = verification.run_all()
    per_claim = {cid: sum(r.claim == cid for r in rows) for cid in verification.CLAIMS}
    assert per_claim == {
        "minmax-bounds": 4,
        "aap-containment": 4,
        "step-shift": 8,
        "gap-regions": 4,
        "delta-periodicity": 4,
        "residue-class-deltas": 4,
        "geometric-family": 8,
        "supersymmetric-family": 6,
        "arithmetic-family": 6,
        "three-gap-family": 18,
        "l0-interval-tail": 4,
        "singleton-trades": 3,
        "med-delta0": 3,
        "generalized-arithmetic-delta0": 3,
        "three-gen-gluing": 1,
        "interval-family": 6,
        "gaps-family": 24,
        "geometric-proof-z": 4,
    }
    assert [r.claim for r in rows] == sorted((r.claim for r in rows), key=list(verification.CLAIMS).index)
    summary = {st: sum(r.status == st for r in rows) for st in ("pass", "fail", "report", "budget")}
    assert summary == {"pass": 110, "fail": 0, "report": 4, "budget": 0}
    assert [r.label for r in rows if r.claim == "three-gen-gluing"] == ["all 3-generated with a_3 <= 40 (5067 semigroups)"]
    assert [r.label for r in rows if r.claim == "gaps-family"][-3:] == [
        "gaps:k=10 element deltas at 2x and 3x top generator",
        "gaps:k=10 forced trades present (10 total)",
        "gaps:k=10 chain of 9 gluings",
    ]
