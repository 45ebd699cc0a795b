"""Property tests: the per-norm engines and the presentation representatives
against enumeration, the semigroup-level delta route against the engine of
each norm, the round-robin residue tables against a heap Dijkstra, the
plain-Python min-max and 1-norm tables against the former numpy builders,
the max-norm sweep against the full length mask, its frames against a
sweep from 0 and the sweep against its former full-band kernel, and the
former windowed sweep kernel, now an oracle, against its plain-Python
reference."""

import math
from itertools import combinations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

import sgdelta as sg
from sgdelta import arith, factorization, infinity, presentation, zero
from sgdelta.arith import INF

from _oracles import (
    MINMAX_INF,
    apery_table,
    component_least_factorizations,
    cone_union_deltas,
    five_start_terms,
    full_band_sweep,
    full_mask_deltas,
    grid_factorizations,
    minimal_generators_brute,
    minmax_brute,
    minmax_level_search,
    minmax_pair,
    minmax_shift_points,
    minmax_single,
    minmax_subset_sums,
    one_norm_lengths,
    one_norm_table,
    gap_rows,
    stability_bound_all_tables,
    sweep_rows,
    sweep_rows_reference,
)

# gcd-1 generator lists, k = 2..4, each below 30
generators = st.lists(st.integers(2, 29), min_size=2, max_size=4, unique=True).filter(
    lambda g: math.gcd(*g) == 1
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gens=generators, x=st.integers(0, 299))
def test_length_sets_match_enumeration(gens, x):
    s = sg.make_semigroup(gens)
    zs = list(sg.iter_factorizations(s, x))
    for p in (sg.P0, sg.P1, sg.PINF):
        if not zs:
            with pytest.raises(sg.NotAMember):
                sg.length_set(s, x, p)
        else:
            assert sg.length_set(s, x, p).values == tuple(sorted({sg.p_length(z, p) for z in zs})), p


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gens=generators, x=st.integers(0, 150))
# prefixes whose span has gcd 2: <6, 10> and <4, 6>
@example(gens=[6, 10, 15], x=121)
@example(gens=[4, 6, 9], x=105)
def test_enumeration_matches_grid_scan(gens, x):
    s = sg.make_semigroup(gens)
    grid = grid_factorizations(s.generators, x)
    assert sorted(sg.iter_factorizations(s, x)) == [tuple(z) for z in grid.tolist()]


def _outcome(fn):
    """The delta set, or the message of a budget overrun."""
    try:
        return fn()
    except sg.BudgetExceeded as e:
        return str(e)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(gens=generators)
def test_semigroup_delta_route_matches_engines(gens):
    # fresh instances per route, so neither answer comes from the other's cache
    budget = sg.Budget(max_element=10_000)

    def fresh():
        return sg.make_semigroup(gens)

    assert _outcome(lambda: sg.delta_set_of_semigroup(fresh(), sg.P0, budget)) == _outcome(
        lambda: sg.delta0_semigroup(fresh(), budget=budget)
    )
    assert _outcome(lambda: sg.delta_set_of_semigroup(fresh(), sg.PINF, budget)) == _outcome(
        lambda: sg.delta_inf_semigroup(fresh(), budget=budget)[0]
    )
    with pytest.raises(ValueError):
        sg.delta_set_of_semigroup(fresh(), sg.P1)


def _reach(gens, top):
    """r[y] iff y <= top is a nonnegative combination of gens."""
    r = [True] + [False] * top
    for y in range(1, top + 1):
        r[y] = any(a <= y and r[y - a] for a in gens)
    return r


def _frobenius_scan(gens, top):
    r = _reach(gens, top)
    return max((y for y in range(top + 1) if not r[y]), default=-1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    gens=generators,
    sums=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
    dups=st.lists(st.integers(0, 3), max_size=3),
)
def test_span_tables_match_reachability(gens, sums, dups):
    s = sg.make_semigroup(gens)
    a = s.generators
    k = len(a)
    top = 2 * a[-1] ** 2 + a[-1]  # above every Frobenius number involved
    for size in range(1, k + 1):
        for idx in combinations(range(1, k + 1), size):
            table = sg.span(s, idx)
            sub = [a[i - 1] for i in idx]
            assert [table.contains(y) for y in range(top + 1)] == _reach(sub, top), idx
            assert table.gens == minimal_generators_brute(sub), idx
    # redundant sums of two inputs and repeated inputs are removed and reported
    n = len(gens)
    raw = [gens[i % n] + gens[j % n] for i, j in sums] + list(gens) + [gens[i % n] for i in dups]
    t = sg.make_semigroup(raw)
    brute = minimal_generators_brute(raw)
    assert t.generators == brute == a
    assert t.removed == tuple(sorted(set(raw) - set(brute) | {g for g in raw if raw.count(g) > 1}))
    assert sg.frobenius(s) == _frobenius_scan(a, top)
    for i in range(1, k + 1):
        others = [b for j, b in enumerate(a, 1) if j != i]
        g = math.gcd(*others)
        f = _frobenius_scan([b // g for b in others], top)
        assert sg.quotient_data(s, i).margin == -(-g * (f + 1) // a[i - 1]), i
        total = sum(others)
        rest = sg.span(s, tuple(j for j in range(1, k + 1) if j != i))
        assert rest.conductor == g * (f + 1), i
        assert arith.shift_point(rest, total) == -(-total * (g * (f + 1) + total) // min(others)), i


def _assert_matches_heap(table, asked):
    """A span table equals the heap oracle's table of the asked generators,
    gcd-reduced, and keeps exactly their minimal generators."""
    d = math.gcd(*asked)
    assert (table.gcd, table.modulus) == (d, asked[0] // d), asked
    assert table.least == tuple(apery_table([g // d for g in asked], table.modulus)), asked
    assert table.gens == minimal_generators_brute(asked), asked


# multiples of a small factor, at most 400, so prefixes of the sorted set
# often share a gcd above 1 that drops as generators join
scaled = st.builds(lambda f, n: f * max(1, n // f), st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(1, 400))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    gens=st.lists(scaled, min_size=1, max_size=6, unique=True),
    m=st.integers(1, 60),
    pick=st.tuples(st.integers(0, 5), st.integers(1, 3)),
)
@example(gens=[8, 22, 33, 82, 200], m=4, pick=(0, 1))  # the gcd falls 8 -> 2 -> 1 along the prefixes
@example(gens=[6, 10, 15], m=1, pick=(2, 2))  # every pair has gcd > 1
@example(gens=[7], m=7, pick=(0, 1))  # a singleton spans the multiples of 7: modulus 1
def test_residue_tables_match_the_heap_oracle(gens, m, pick):
    gens = tuple(sorted(gens))
    # every prefix, each one round-robin step from the memoized one before it
    arith._TABLES.clear()
    for n in range(1, len(gens) + 1):
        _assert_matches_heap(arith.cone_table(gens[:n]), gens[:n])
    # the same set from a cleared memo, every kept generator one step
    arith._TABLES.clear()
    _assert_matches_heap(arith.cone_table(gens), gens)
    # a residue table mod any m, generators that are multiples of m included
    assert arith.residue_table(gens, m) == apery_table(gens, m)
    if math.gcd(*gens) == 1 and 1 not in gens:
        s = sg.make_semigroup(gens)
        member = s.generators[pick[0] % s.embedding_dim] * pick[1]  # a_1 and other members
        assert sg.apery_set(s, member).entries == tuple(apery_table(s.generators, member))


@settings(derandomize=True, deadline=None, max_examples=15)
@given(gens=st.lists(st.integers(2, 40), min_size=2, max_size=5, unique=True).filter(lambda g: math.gcd(*g) == 1))
@example(gens=[3, 25, 26])  # the windows of 25 and 26 overlap at small x
@example(gens=[6, 10, 15])  # G = 30
@example(gens=[12, 20, 45])  # G = 60
@example(gens=[10, 15, 21, 35])  # canonical form <10,15,21>, G = 15
@example(gens=[30, 42, 70, 105])  # G = 210, windows wider than x / 30
@example(gens=[8, 9])  # G = 72
@example(gens=[26, 27])  # a narrow batch's widest row is not at its ends (x = 5,980)
def test_sweep_rows_match_full_mask(gens):
    # every x up to the w = 3 certificate horizon, capped at 6000
    s = sg.make_semigroup(gens)
    try:
        _, cert = sg.delta_inf_semigroup(s, window_periods=3, budget=sg.Budget(max_element=6000))
        top = cert.start + 4 * cert.period
    except sg.BudgetExceeded:
        top = 6000
    rows = gap_rows(s, infinity._deltas(s, top), 0, top + 1)
    eng = infinity._get_engine(s, top)
    for x in range(top + 1):
        assert rows[x] == full_mask_deltas(eng, x), x


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    gens=st.lists(st.integers(2, 40), min_size=2, max_size=5, unique=True).filter(lambda g: math.gcd(*g) == 1),
    lo=st.integers(0, 3000),
    width=st.integers(0, 3000),
)
@example(gens=[3, 25, 26], lo=0, width=0)  # a frame of x = 0 alone
@example(gens=[8, 9], lo=1, width=100)  # starts below the Frobenius number
@example(gens=[30, 42, 70, 105], lo=2999, width=3000)  # starts above l * a_1 for l up to 99
@example(gens=[2, 3], lo=10, width=10)  # x = lo = 2 * (2 + 3) has length 2, at the frame's first level
def test_sweep_frames_match_a_sweep_from_zero(gens, lo, width):
    # rows do not depend on each other: a frame [lo, hi] gives the rows of
    # a sweep from 0, bit for bit, whatever part of the level walk it skips
    gens = tuple(sorted(gens))
    hi = lo + width
    whole = infinity._sweep(gens, 0, hi)
    frame = infinity._sweep(gens, lo, hi)
    assert frame == {d: bits >> lo for d, bits in whole.items() if bits >> lo}


@st.composite
def sweep_frames(draw):
    """A frame [lo, hi] of `infinity._sweep`: canonical generators with a_1
    in 2..7 and the others below 90, hi up to 30,000, and lo at 0, anywhere
    in [0, hi], or in [hi / 2, hi], past the window of many of the levels
    after the level searches saturate (about level hi / A)."""
    a1 = draw(st.integers(2, 7))
    rest = draw(st.lists(st.integers(a1 + 1, 89), min_size=1, max_size=4, unique=True))
    assume(math.gcd(a1, *rest) == 1)
    gens = sg.make_semigroup([a1, *rest]).generators
    hi = draw(st.integers(0, 30_000))
    lo = draw(st.one_of(st.just(0), st.integers(0, hi), st.integers(hi // 2, hi)))
    return gens, lo, hi


@settings(derandomize=True, deadline=None, max_examples=100)
@given(frame=sweep_frames())
# the inf-theorem semigroups with g_1 = 1, each to start + 3 periods of its certificate
@example(frame=((3, 10, 11), 0, 2_377))
@example(frame=((6, 9, 20), 0, 5_443))
@example(frame=((5, 13, 16), 0, 9_983))
@example(frame=((3, 13, 14), 0, 5_221))
@example(frame=((3, 16, 17), 0, 7_561))
@example(frame=((3, 19, 20), 0, 13_861))
@example(frame=((3, 22, 23), 0, 18_865))
@example(frame=((3, 25, 26), 0, 28_837))
@example(frame=((7, 11, 13, 17), 0, 16_149))
@example(frame=((11, 13, 17, 19, 23), 0, 48_646))
# g_1 > 1 keeps the full band: g_1 = 3, and k = 2 (g_1 = 9, an empirical start)
@example(frame=((4, 6, 9), 0, 2_908))
@example(frame=((8, 9), 0, 34_292))
# theorem-backed, start 171,667, period 4,998
@example(frame=((3, 49, 50), 0, 171_667 + 3 * 4_998))
# the state reaches a fixed point while a counter still differs from the
# steady one: a fixed-point test on `seen` alone skips too early here
@example(frame=((8, 41, 58, 67), 0, 802))
# index 2 still reaches the window at the first levels where the rest of
# the steady conditions hold
@example(frame=((8, 9, 23), 0, 1_679))
# the window entry moves the frame's level from 549 to 6,465
@example(frame=((3, 25, 26), 20_000, 28_837))
# g_1 = 1, but the last level comes before the window applies
@example(frame=((7, 8, 9), 0, 30))
# g_1 = 3: the searches saturate at level 154, and about 570 levels run
# after they are dropped
@example(frame=((4, 6, 9), 2_000, 2_908))
def test_sweep_matches_the_full_band_sweep(frame):
    # the window and the level skip change no bit of any gap bitset
    gens, lo, hi = frame
    assert infinity._sweep(gens, lo, hi) == full_band_sweep(gens, lo, hi)


@st.composite
def sweep_inputs(draw):
    """Arguments of the windowed oracle's `sweep_rows`: generators, tables
    of random values with INF entries and the one trailing INF, and a column
    layout of ascending blocks (add, div, shift + j) whose order, overlap
    and clipping are all random; half the layouts put the blocks in the
    order of `sweep_windows`, bottom first and then by falling div."""
    gens = tuple(sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))))
    total = sum(gens)
    lo = draw(st.integers(0, 150))
    hi = draw(st.integers(lo + 1, lo + 40))
    stop = draw(st.integers(hi, hi + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = []
    for _ in gens:
        t = rng.integers(0, draw(st.integers(1, 40)), stop + 1)
        t[rng.random(stop + 1) < draw(st.floats(0, 1))] = arith.INF
        t[-1] = arith.INF
        tables.append(t)
    blocks = draw(
        st.lists(
            st.tuples(st.sampled_from((total,) + gens), st.booleans(), st.integers(-40, 40), st.integers(1, 12)),
            min_size=1,
            max_size=6,
        )
    )
    if draw(st.booleans()):
        blocks.sort(key=lambda b: (-b[0], b[2]))
    cols = [(div - 1 if up else 0, div, shift + j) for div, up, shift, n in blocks for j in range(n)]
    return gens, tables, np.array(cols, dtype=np.int64).T, lo, hi


@settings(derandomize=True, deadline=None, max_examples=300)
@given(args=sweep_inputs())
def test_sweep_rows_match_reference(args):
    # the kernel alone, against its contract, on layouts and tables that no
    # semigroup gives: rows out of order, overlapping and clipped windows,
    # and reads at y < 0
    got = sweep_rows(*args)
    assert [tuple(np.flatnonzero(g).tolist()) for g in got] == sweep_rows_reference(*args)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gens=st.lists(st.integers(2, 60), min_size=3, max_size=5, unique=True).filter(lambda g: math.gcd(*g) == 1))
def test_theorem_starts_lie_past_the_frobenius_number(gens):
    # the certificate compares gap rows alone, which decide its window only
    # where every x is a member; shift_threshold_sum(s, a_k + g_1) exceeds
    # a_1 * a_k, which exceeds F by Schur's bound
    s = sg.make_semigroup(gens)
    assume(s.embedding_dim >= 3)
    assert infinity._theorem_start(s, sg.structure_constants(s)) > sg.frobenius(s)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gens=st.lists(st.integers(2, 90), min_size=3, max_size=6, unique=True).filter(lambda g: math.gcd(*g) == 1))
@example(gens=[3, 260, 262])
def test_theorem_start_equals_the_five_term_start(gens):
    # _theorem_start leaves out the two index terms, which its docstring
    # shows lie below the sum term
    s = sg.make_semigroup(gens)
    assume(s.embedding_dim >= 3)
    terms = five_start_terms(s)
    assert max(terms[:2]) < terms[2]
    assert infinity._theorem_start(s, sg.structure_constants(s)) == max(terms)


@pytest.mark.parametrize(
    "gens, cap", [((2, 3), None), ((5, 7), None), ((8, 9), None), ((3, 10, 11), 2000), ((3, 25, 26), 20_000)]
)
def test_empirical_starts_lie_past_the_frobenius_number(gens, cap):
    # k = 2, and k = 3 with its theorem start past the budget
    s = sg.make_semigroup(gens)
    _, cert = sg.delta_inf_semigroup(s, budget=sg.Budget(max_element=cap) if cap else None)
    assert cert.mode == "empirical"
    assert cert.start >= sg.frobenius(s) + 1


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gens=st.lists(st.integers(2, 59), min_size=2, max_size=5, unique=True).filter(lambda g: math.gcd(*g) == 1))
@example(gens=[3, 25, 26])
@example(gens=[11, 13, 17, 19, 23])
@example(gens=[4, 5, 11])  # a_3 > B_3: t_3 exceeds top_3 // a_3 below top_3
@example(gens=[8, 9])
def test_folded_minmax_reads_match_references(gens):
    # an engine at its cap stores each table to its top; folded by
    # t_i(y) = t_i(y - q * B_i) + q, q = max(0, y - y0_i) // B_i, it must give
    # every y to three times each top, and to 60 at least. The dominant
    # lengths of the a_i + 1 consecutive x up to there, which fold their
    # reads per residue class, must match the same references.
    s = sg.make_semigroup(gens)
    a = s.generators
    y0 = minmax_shift_points(a)
    tops = [y + s.gen_sum - a_i for y, a_i in zip(y0, a)]
    eng = infinity._Engine(a, max(tops))
    assert eng.y0 == y0
    assert eng.horizon == math.inf
    for i, top in enumerate(tops):
        assert len(eng.tables[i]) == top + 1
        others = a[:i] + a[i + 1 :]
        hi = max(3 * top, 60)
        ys = np.arange(hi + 1, dtype=np.int64)
        step = s.gen_sum - a[i]
        q = np.maximum(ys - y0[i], 0) // step
        got = np.asarray(eng.tables[i])[ys - q * step] + q
        if len(others) == 1:
            want = minmax_single(others[0], hi)
        elif len(others) == 2:
            want = minmax_pair(*others, hi)
        else:
            want = minmax_subset_sums(others, hi)
        # unreachable y read INF or more, and the references give INF
        assert (np.minimum(got, MINMAX_INF) == want).all(), i
        for y in range(61):
            m = minmax_brute(others, y)
            assert (got[y] >= MINMAX_INF) if m is None else got[y] == m, (i, y)
        for x in range(hi - a[i], hi + 1):
            ls = np.arange(x // a[i] + 1)
            assert eng.dominant_values(x, i + 1) == ls[want[x - ls * a[i]] <= ls].tolist(), (i, x)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    gens=st.lists(st.integers(1, 80), min_size=0, max_size=5, unique=True),
    horizon=st.integers(0, 3000),
    levels=st.one_of(st.just(math.inf), st.integers(0, 60)),
)
@example(gens=[9, 11, 13], horizon=260, levels=math.inf)
@example(gens=[4, 6, 9, 20], horizon=400, levels=3)
@example(gens=[260, 262], horizon=70_000, levels=math.inf)  # 270 levels: bits 0 to 8
@example(gens=[4267, 23845, 33383], horizon=100_000, levels=408)
@example(gens=[], horizon=5, levels=math.inf)
def test_minmax_level_step_matches_subset_sums(gens, horizon, levels):
    # one shift per generator against one shift per subset sum, and exact
    # equality with the former numpy builder, INF entries and the entries
    # above a level cap included
    got = list(infinity._minmax_bfs(tuple(gens), horizon, levels))
    assert got == minmax_subset_sums(gens, horizon, levels).tolist()
    assert got == minmax_level_search(gens, horizon, levels).tolist()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    gens=st.lists(st.integers(2, 60), min_size=2, max_size=5, unique=True).filter(lambda g: math.gcd(*g) == 1),
    x=st.integers(0, 20_000),
)
@example(gens=[5, 13, 16], x=19_999)  # b_max = 11 is no multiple of gcd{3} = 3
@example(gens=[3, 260, 262], x=3 * 67_340 + 262)  # x past the fold of a table with y0 = 67,081
@example(gens=[7, 11, 13, 17], x=1_000_000)
@example(gens=[2, 3], x=10_001)
def test_one_norm_lengths_match_the_numpy_builder(gens, x):
    # the folded plain-Python table against the whole numpy one
    s = sg.make_semigroup(gens)
    assume(sg.contains(s, x))
    assert factorization._one_norm_lengths(s, x) == one_norm_lengths(s.generators, x)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(parts=st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True))
@example(parts=[8, 11])  # <5,13,16>: b_max = 11 against d = {3}
@example(parts=[257, 259])  # <3,260,262>: y0 = 67,081
@example(parts=[4, 6, 10])  # <7,11,13,17>
def test_one_norm_table_shifts_from_its_bound(parts):
    # m(y + b_max) = m(y) + 1 at every y in [y0, y0 + 3 b_max], INF staying
    # INF, read from a whole table with no fold
    parts = tuple(sorted(parts))
    b = parts[-1]
    y0 = factorization._one_norm_shift_point(parts)
    m = one_norm_table(parts, y0 + 4 * b)
    shifted = np.where(m[y0 : y0 + 3 * b + 1] < INF, m[y0 : y0 + 3 * b + 1] + 1, INF)
    assert (m[y0 + b : y0 + 4 * b + 1] == shifted).all()


GAPS5 = sg.construct_family(sg.parse_family("gaps:k=5")).generators


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    gens=st.lists(st.integers(2, 40), min_size=2, max_size=6, unique=True).filter(lambda g: math.gcd(*g) == 1),
    per_mille=st.integers(0, 2000),
)
@example(gens=[6, 10, 15], per_mille=1000)  # every pair has gcd > 1
@example(gens=[245, 4267, 23845, 33383], per_mille=1000)
@example(gens=list(GAPS5), per_mille=1000)
def test_zero_union_matches_oracles(gens, per_mille):
    # horizons 0, just below the least support sum, and per_mille / 1000 of
    # the stability bound x0, so up to 2 * x0
    s = sg.make_semigroup(gens)
    x0 = sg.delta0_stability_bound(s)
    for horizon in (0, s.generators[0] - 1, per_mille * x0 // 1000):
        got = zero._delta_union_to(s, horizon)
        assert got == cone_union_deltas(s, horizon), horizon
        if horizon <= 300:
            by_element = set()
            for x in range(horizon + 1):
                if sg.contains(s, x):
                    by_element.update(sg.delta_set_of_element(s, x, sg.P0).values)
            assert got == by_element, horizon


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gens=st.lists(st.integers(2, 149), min_size=2, max_size=6, unique=True).filter(lambda g: math.gcd(*g) == 1))
@example(gens=[6, 10, 15])  # a triple sets the bound; every pair has gcd > 1
def test_stability_bound_matches_all_tables(gens):
    # pairs in closed form and larger supports pruned by Schur's bound give
    # the maximum over one span table per support
    s = sg.make_semigroup(gens)
    assert sg.delta0_stability_bound(s) == stability_bound_all_tables(s)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(gens=st.lists(st.integers(2, 40), min_size=2, max_size=5, unique=True).filter(lambda g: math.gcd(*g) == 1))
def test_presentation_representatives_match_enumeration(gens):
    s = sg.make_semigroup(gens)
    for b in sg.betti_elements(s):
        comps = sg.index_graph_components(s, b)
        got = [presentation._component_representative(s, b, c) for c in comps]
        assert got == component_least_factorizations(s, b), (gens, b)
