import gc
import math
import weakref

import numpy as np
import pytest

from sgdelta import (
    Budget,
    BudgetExceeded,
    NotAMember,
    PINF,
    ThresholdNotMet,
    contains,
    delta_inf_semigroup,
    delta_set_of_element,
    dominant_length_set,
    frobenius,
    infinity_length_set,
    iter_factorizations,
    make_semigroup,
    residue_delta_subset,
    structure_constants,
    verify_aap,
    verify_interval_decomposition,
    verify_linf_bounds,
    verify_shift,
)
from sgdelta import infinity, verification
from sgdelta.arith import INF
from sgdelta.infinity import _minmax_bfs, shift_threshold_index, shift_threshold_sum

from sgdelta.search import candidates

from _oracles import (
    doubling_empirical_start,
    five_start_terms,
    full_mask_deltas,
    gap_rows,
    minmax_brute,
    minmax_level_search,
    minmax_pair,
    minmax_shift_points,
    windowed_rows,
)


def enumerated_max_lengths(s, x):
    return tuple(sorted({max(z) for z in iter_factorizations(s, x)}))


@pytest.mark.parametrize("pair", [(10, 11), (3, 11), (6, 9), (9, 20), (6, 15), (25, 26)])
def test_minmax_pair_table(pair):
    t = minmax_pair(*pair, 400)
    for y in range(401):
        want = minmax_brute(pair, y)
        got = int(t[y])
        assert (want is None and got > 400) or want == got, (pair, y)


def test_minmax_bfs_table():
    gens = (9, 11, 13)
    t = _minmax_bfs(gens, 260)
    for y in range(261):
        want = minmax_brute(gens, y)
        got = int(t[y])
        assert (want is None and got > 260) or want == got, y


@pytest.mark.parametrize(
    "gens, horizon",
    [((245, 4267, 23845, 33383), 100_000), ((3, 25, 26), 150), ((4, 5, 11), 40), ((11, 13, 17, 19, 23), 3000)],
)
def test_engine_below_its_top_keeps_every_read_comparison(gens, horizon):
    # a table below its top runs only the levels up to horizon // a_i, and
    # each comparison t_i(y) <= l with l <= horizon // a_i stays as it was
    s = make_semigroup(gens)
    y0 = minmax_shift_points(gens)
    eng = infinity._Engine(gens, horizon)
    assert eng.y0 == y0
    truncated = 0
    for i, a in enumerate(gens):
        full = minmax_level_search(gens[:i] + gens[i + 1 :], len(eng.tables[i]) - 1)
        got = np.asarray(eng.tables[i])
        if len(got) - 1 < y0[i] + s.gen_sum - a:
            cap = horizon // a
            assert got[got < INF].max() <= cap, i
            assert (np.minimum(got, cap + 1) == np.minimum(full, cap + 1)).all(), i
            truncated += int((full[got >= INF] < INF).any())
        else:
            assert (got == full).all(), i
    if gens[0] == 245:
        assert truncated == 3  # the tables of 4267, 23845 and 33383 stop early


def test_infinity_length_set_matches_enumeration(geo, med3, supersym):
    for s in (geo, med3, supersym, make_semigroup([2, 3])):
        for x in range(0, 240):
            if not contains(s, x):
                with pytest.raises(NotAMember):
                    infinity_length_set(s, x)
                continue
            assert infinity_length_set(s, x).values == enumerated_max_lengths(s, x)
            for i in range(1, s.embedding_dim + 1):
                dominant = {max(z) for z in iter_factorizations(s, x) if z[i - 1] == max(z)}
                assert dominant_length_set(s, x, i).values == tuple(sorted(dominant)), (s, x, i)


def test_structure_constants(geo, med3):
    c = structure_constants(geo)
    assert c.gen_sum == 19
    assert c.period == 684
    assert [r.margin for r in c.records] == [2, 4, 1]
    assert [r.complement_gcd for r in c.records] == [3, 1, 2]

    c2 = structure_constants(med3)
    assert c2.period == 120
    assert [r.margin for r in c2.records] == [30, 2, 2]

    c3 = structure_constants(make_semigroup([2, 3]))
    assert c3.gen_sum == 5
    assert c3.period == 90
    assert [r.complement_gcd for r in c3.records] == [3, 2]
    assert [r.margin for r in c3.records] == [0, 0]


def test_delta_inf_semigroup_families(geo, med3, supersym):
    d, cert = delta_inf_semigroup(geo)
    assert d.values == (1, 2, 3)
    assert cert.mode == "theorem-backed"
    assert cert.period == 684

    d2, cert2 = delta_inf_semigroup(med3)
    assert d2.values == (1, 2, 3, 4, 6, 7)
    assert cert2.period == 120

    d3, _ = delta_inf_semigroup(supersym)
    assert d3.values == (1, 2, 3, 4, 5)


def test_delta_inf_two_generators():
    d, cert = delta_inf_semigroup(make_semigroup([2, 3]))
    assert d.values == (1, 2, 3)
    assert cert.mode == "empirical"
    assert cert.period == 90


def test_certificate_stability_under_wider_window(geo, med3):
    for s in (geo, med3):
        d2, c2 = delta_inf_semigroup(s, window_periods=2)
        d3, c3 = delta_inf_semigroup(s, window_periods=3)
        assert d2 == d3
        assert c2.start == c3.start


def _count_swept(monkeypatch):
    """Every x that `_sweep` is called on, once per call."""
    calls = []
    orig = infinity._sweep

    def counting(gens, lo, hi):
        calls.extend(range(lo, hi + 1))
        return orig(gens, lo, hi)

    monkeypatch.setattr(infinity, "_sweep", counting)
    return calls


def test_sweep_is_shared_across_window_widths(monkeypatch):
    # the wider window sweeps only what the narrower one left out
    calls = _count_swept(monkeypatch)
    s = make_semigroup([3, 10, 11])
    _, c2 = delta_inf_semigroup(s, window_periods=2)
    _, c3 = delta_inf_semigroup(s, window_periods=3)
    assert c2.start == c3.start
    assert sorted(calls) == list(range(c3.start + 4 * c3.period + 1))


def test_suite_claims_share_one_sweep(monkeypatch):
    # the max-norm suite claims share one instance per suite entry, so the
    # quick suite sweeps each x of <4,6,9> once, to the w=3 horizon
    _, cert = delta_inf_semigroup(make_semigroup([4, 6, 9]), window_periods=3)
    horizon = cert.start + 4 * cert.period
    verification._suite_semigroup.cache_clear()
    calls = _count_swept(monkeypatch)
    # the quick geometric family row (a=2, b=3, k=3) is <4,6,9> too
    for cid, rows in (
        ("gap-regions", 1),
        ("delta-periodicity", 1),
        ("residue-class-deltas", 1),
        ("geometric-family", 2),
    ):
        assert [r.status for r in verification.run_claim(cid, quick=True)] == ["pass"] * rows
    assert sorted(calls) == list(range(horizon + 1))


@pytest.mark.parametrize("gens", verification.SUITE_GENS)
def test_sweep_rows_match_full_mask_on_suite(gens):
    # every x up to the w=3 certificate horizon, against the full length mask
    s = make_semigroup(gens)
    _, cert = delta_inf_semigroup(s, window_periods=3)
    top = cert.start + 4 * cert.period
    gaps = infinity._deltas(s, top)
    eng = infinity._get_engine(s, top)
    assert gap_rows(s, gaps, 0, top + 1) == [full_mask_deltas(eng, x) for x in range(top + 1)]


def _certificate_start(s, p, w, budget):
    """The start of the certificate; k = 2 has no theorem start, so it is
    the empirical one. p is unused: the signature is that of
    `doubling_empirical_start`."""
    return delta_inf_semigroup(s, w, budget)[1].start


def _start_or_message(fn, s, w, cap):
    try:
        return fn(s, structure_constants(s).period, w, Budget(max_element=cap))
    except BudgetExceeded as e:
        return str(e)


def test_empirical_start_matches_doubling_search():
    # the exact jump finds the start the doubling horizons found, or fails
    # with the same message; both read one instance's sweep, which the full
    # mask tests check row by row
    outcomes = {}
    for gens in candidates(2, 12):
        s = make_semigroup(gens)
        for cap in (30_000, 60_000):
            for w in (1, 2, 3):
                got = _start_or_message(_certificate_start, s, w, cap)
                assert got == _start_or_message(doubling_empirical_start, s, w, cap), (s, cap, w)
                outcomes[s.generators, cap, w] = got
    # the search (w = 2) skips these two at the benchmark's budget
    assert isinstance(outcomes[(7, 9), 30_000, 2], str)
    assert isinstance(outcomes[(8, 9), 30_000, 2], str)


def test_empirical_start_needs_room_for_two_periods_past_its_window():
    # <2,3>: floor 2, period 90, start 29; its w = 1 window ends at
    # 29 + 2 * 90 <= 240 < 2 + 3 * 90, but the search starts only with w + 2
    # periods of room past the floor, as the doubling search did
    assert _start_or_message(_certificate_start, make_semigroup([2, 3]), 1, 10_000) == 29
    for fn in (_certificate_start, doubling_empirical_start):
        assert _start_or_message(fn, make_semigroup([2, 3]), 1, 240) == (
            "no verified periodicity window within element budget 240"
        )


def _sweep_matches_oracle(gens, stop):
    s = make_semigroup(gens)
    assert gap_rows(s, infinity._deltas(s, stop - 1), 0, stop) == windowed_rows(s, 0, stop)


@pytest.mark.parametrize("gens", [(8, 9), (7, 8), (30, 42, 70, 105)])
def test_sweep_batches_stay_within_their_cells(gens):
    # every row of the bit-sliced sweep to the search's budget, 30,000,
    # against the windowed oracle; the batches and their cell budget are the
    # oracle's (`_oracles.sweep_batches`), not the library's, and its narrow
    # batches hold many rows here; the windows of <30,42,70,105> are wider
    # than x / 30
    _sweep_matches_oracle(gens, 30_001)


@pytest.mark.parametrize("gens, stop", [((3, 260, 262), 35_001), ((2, 601), 21_001)])
def test_batches_with_more_columns_than_cells(gens, stop):
    # every row of the bit-sliced sweep against the windowed oracle where
    # the oracle's W columns pass the oracle's cell budget
    # (`_oracles.sweep_batches`; W = 11,480 for <3,260,262>): past x = 24,700
    # the length range passes the cell budget, and past 34,600 W
    _sweep_matches_oracle(gens, stop)


@pytest.mark.parametrize("gens, lo, stop", [((3, 260, 262), 24_700, 24_800), ((3, 260, 262), 34_600, 34_700)])
def test_one_row_batches_match_full_mask(gens, lo, stop):
    # a frame of the sweep alone, where the windowed oracle's batches
    # (`_oracles.sweep_batches`) take one row each, against the oracle and
    # the full length mask
    s = make_semigroup(gens)
    # every x here lies past the Frobenius number, so each is a member
    assert lo > frobenius(s)
    frame = infinity._sweep(s.generators, lo, stop - 1)
    got = gap_rows(s, {d: bits << lo for d, bits in frame.items()}, lo, stop)
    assert got == windowed_rows(s, lo, stop)
    eng = infinity._get_engine(s, stop)
    assert got == [full_mask_deltas(eng, x) for x in range(lo, stop)]


def test_sweep_walks_a_repeating_level_once(monkeypatch):
    # <3,25,26> to start + 3 periods: the full band splits the hits of
    # 9,609 of its 9,613 levels; past the saturation of the level searches
    # only the levels before the steady map's fixed point and those where hi
    # caps the window are walked
    outermost = []
    depth = [0]
    split = infinity._split

    def counting(*args):
        outermost.append(depth[0] == 0)
        depth[0] += 1
        try:
            return split(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(infinity, "_split", counting)
    infinity._sweep((3, 25, 26), 0, 28_837)
    assert 0 < sum(outermost) < 1_500


@pytest.mark.parametrize(
    "gens, lo, hi, bound",
    [((3, 25, 26), 20_000, 28_837, 1_000), ((3, 49, 50), 150_000, 186_661, 3_000)],
)
def test_window_entry_skips_the_levels_below_the_frame(monkeypatch, gens, lo, hi, bound):
    # a frame that starts far past saturation: once the window opens, every
    # level whose window ends at or below lo is empty and is not walked. The
    # walk keeps about 2 * width / a_1 levels (584 and 1,959); walking each
    # level up to the frame takes 6,500 and 49,317. _sweep calls zip once
    # per walked level
    walked = [0]

    def counting(*args):
        walked[0] += 1
        return zip(*args)

    monkeypatch.setattr(infinity, "zip", counting, raising=False)
    infinity._sweep(gens, lo, hi)
    assert 0 < walked[0] < bound


def test_full_aap_range_reaches_certificate_horizon():
    # without --quick every member from 0 to start + (W+1) * period is checked
    s = make_semigroup([4, 6, 9])
    _, cert = delta_inf_semigroup(s)
    assert cert.start + 3 * cert.period == 2908
    rows = verification.run_claim("aap-containment", gens=(4, 6, 9))
    assert [(r.status, r.label) for r in rows] == [("pass", f"{s} x in [0,2908]")]


@pytest.mark.parametrize(
    "gens, start",
    [
        # a_1 a_2 (3 g_1 + margin_1) / (a_2 - a_1) + 1 = 56 * 11 + 1
        ((7, 8, 9), 617),
        # a_2 a_3 (2 g_1 g_2 + margin_2) / (a_3 - a_2) + 1 = 110 * 9 + 1
        ((8, 10, 11), 991),
    ],
)
def test_theorem_start_set_by_a_gap_region_term(gens, start):
    # the step identities ask for less here, so a gap-region term alone
    # decides the start
    _, cert = delta_inf_semigroup(make_semigroup(gens))
    assert (cert.start, cert.mode) == (start, "theorem-backed")


# the inf-theorem workload of the benchmark
INF_THEOREM = [
    (4, 6, 9),
    (3, 10, 11),
    (6, 9, 20),
    (5, 13, 16),
    *((3, 3 * m + 1, 3 * m + 2) for m in range(4, 9)),
    (7, 11, 13, 17),
    (11, 13, 17, 19, 23),
]


@pytest.mark.parametrize("gens", INF_THEOREM)
def test_theorem_start_equals_the_five_term_start(gens):
    # the two index terms lie below the sum term, so leaving them out keeps
    # every start
    s = make_semigroup(gens)
    terms = five_start_terms(s)
    assert max(terms[:2]) < terms[2]
    assert infinity._theorem_start(s, structure_constants(s)) == max(terms)


def _count_builds(monkeypatch):
    """The horizon of every engine built, in order."""
    horizons = []
    orig = infinity._Engine.__init__

    def counting(self, gens, horizon):
        horizons.append(horizon)
        orig(self, gens, horizon)

    monkeypatch.setattr(infinity._Engine, "__init__", counting)
    return horizons


def test_ascending_scan_builds_few_engines(monkeypatch):
    horizons = _count_builds(monkeypatch)
    s = make_semigroup([3, 10, 11])
    top = 40 * s.gen_sum
    for x in range(top + 1):
        if contains(s, x):
            assert verify_linf_bounds(s, x), x
    # one engine per doubling of the horizon, not one per member
    assert len(horizons) <= math.ceil(math.log2(top)) + 2, horizons
    # the scan passed every table's top, so that engine serves every x
    built = len(horizons)
    delta_inf_semigroup(s, window_periods=2)
    delta_inf_semigroup(s, window_periods=3)
    infinity_length_set(s, 10**6)
    assert len(horizons) == built, horizons
    tables = s._cache["inf-engine"].tables
    y0 = minmax_shift_points(s.generators)
    assert all(len(t) <= y + s.gen_sum - a + 1 for t, y, a in zip(tables, y0, s.generators))
    # a certificate sweeps its own level searches and builds no engine
    horizons.clear()
    s = make_semigroup([5, 13, 16])
    delta_inf_semigroup(s, window_periods=2)
    delta_inf_semigroup(s, window_periods=3)
    assert horizons == []


def test_engine_budget_applies_to_the_request():
    s = make_semigroup([3, 10, 11])
    infinity_length_set(s, 10**4)  # the engine reaches its cap
    assert s._cache["inf-engine"].horizon == math.inf
    with pytest.raises(BudgetExceeded, match="exceed the engine budget"):
        infinity_length_set(s, 20_000_001)


def test_semigroup_freed_without_cyclic_gc():
    # cached engines and sweeps keep the generators, not the instance, so
    # reference counting alone frees it
    gc.disable()
    try:
        for gens in ((4, 6, 9), (2, 3)):
            s = make_semigroup(gens)
            ref = weakref.ref(s)
            delta_inf_semigroup(s)
            del s
            assert ref() is None, gens
    finally:
        gc.enable()


def test_delta_inf_matches_elementwise_union(geo):
    # exactness cross-check on a small instance: nothing appears later
    d, cert = delta_inf_semigroup(geo)
    seen = set()
    for x in range(cert.union_horizon + 2 * cert.period):
        if contains(geo, x):
            seen.update(delta_set_of_element(geo, x, PINF).values)
    assert sorted(seen) == list(d.values)


def test_delta_inf_union_against_enumeration_oracle():
    # same check with the streaming enumeration as the independent source
    s = make_semigroup([2, 3])
    d, cert = delta_inf_semigroup(s)
    seen = set()
    for x in range(cert.union_horizon + 2 * cert.period):
        if contains(s, x):
            vals = enumerated_max_lengths(s, x)
            seen.update(b - a for a, b in zip(vals, vals[1:]))
    assert sorted(seen) == list(d.values)


def test_delta_inf_budget():
    with pytest.raises(BudgetExceeded):
        delta_inf_semigroup(make_semigroup([6, 10, 15]), budget=Budget(max_element=300))


def test_verify_linf_bounds(geo, med3, mcnugget):
    for s in (geo, med3, mcnugget, make_semigroup([2, 3])):
        for x in range(0, 10 * s.gen_sum):
            if contains(s, x):
                assert verify_linf_bounds(s, x), (s, x)


def test_verify_aap(geo, med3):
    for s in (geo, med3):
        p = structure_constants(s).period
        for x in range(p, 2 * p + 1):
            if contains(s, x):
                for i in range(1, 4):
                    assert verify_aap(s, x, i), (s, x, i)


def test_verify_aap_vacuous_interval(med3):
    # tiny x: the guaranteed interval is empty, the class containment holds
    assert verify_aap(med3, 3, 1)


def test_verify_shift(geo):
    consts = structure_constants(geo)
    g1 = consts.records[0].complement_gcd
    for i in (1, 2):
        bound = consts.records[i - 1].margin + g1
        sum_bound = geo.generators[-1] + g1
        base = max(shift_threshold_index(geo, i, bound), shift_threshold_sum(geo, sum_bound))
        x = base
        while not contains(geo, x):
            x += 1
        assert verify_shift(geo, x, i, bound, sum_bound)
    with pytest.raises(ThresholdNotMet):
        verify_shift(geo, 24, 1, 5, 12)


def test_verify_shift_small_windows():
    s = make_semigroup([2, 3])
    x = max(shift_threshold_index(s, 2, 2), shift_threshold_sum(s, 2))
    while not contains(s, x):
        x += 1
    assert verify_shift(s, x, 2, 2, 2)
    # degenerate windows shift trivially
    assert verify_shift(s, x + 1, 2, 0, 0)


def test_verify_interval_decomposition(geo, med3, supersym):
    assert verify_interval_decomposition(geo, 2000)
    assert verify_interval_decomposition(med3, 1200)
    assert verify_interval_decomposition(supersym, 3000)
    with pytest.raises(ValueError):
        verify_interval_decomposition(make_semigroup([2, 3]), 500)


def test_residue_delta_subset(geo, med3):
    d_geo, _ = delta_inf_semigroup(geo)
    for j in range(4):
        assert residue_delta_subset(geo, j, 500, delta_inf=d_geo)
    d_med, _ = delta_inf_semigroup(med3)
    for j in range(3):
        assert residue_delta_subset(med3, j, 500, delta_inf=d_med)
    # classes with at most one member below the bound hold vacuously
    assert residue_delta_subset(geo, 1, 5, delta_inf=d_geo)
