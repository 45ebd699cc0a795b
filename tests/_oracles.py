"""Independent brute-force oracles for cross-checking the exact engines.

The brute-force oracles share no code with the library's enumeration or
table machinery: membership scans exponent boxes directly, factorization
oracles iterate coordinate grids, and graph components are computed on the
literal factorization graph. The min-max exponent tables of one and two
generators have closed forms, `minmax_single` and `minmax_pair`; the library
once built those tables with them, and now builds every table by level
search. `minmax_subset_sums` is that search with its former level step,
one shift per subset sum of the generators. `minmax_shift_points` gives
each min-max table's shift point from its explicit formula, and
`five_start_terms` the theorem start's former five validity bounds. Four
oracles are the engines' former passes, which read library tables in a
different way:
`full_mask_deltas` (the per-x max-norm mask),
`doubling_empirical_start` (the empirical start over doubling horizons),
`cone_union_deltas` (one span-table membership pass per 0-norm support) and
`stability_bound_all_tables` (the 0-norm stability bound from one span
table per support).
`component_least_factorizations` reads the library's enumeration, the
oracle for the presentation representatives picked from span tables.
`apery_table` is the library's former residue-table builder, a heap
Dijkstra over the residue graph, the oracle for the round-robin tables.
`minmax_level_search` and `one_norm_table` are the library's former numpy
builders of the min-max tables and of the 1-norm table, with no fold,
oracles for the plain-Python bitset level search and the folded 1-norm
table; `one_norm_lengths` reads the latter as the library once did.
`windowed_rows` is the library's former max-norm sweep, windowed over the
length axis and batched over x on numpy arrays, the oracle for the
bit-sliced sweep; `sweep_rows_reference` is its kernel's contract in plain
Python, for any column layout and any tables. `gap_rows` reads the rows of
the library's gap bitsets."""

import heapq
import math
from itertools import combinations, product

import numpy as np

from sgdelta import (
    BudgetExceeded,
    contains,
    enumerate_factorizations,
    frobenius,
    index_graph_components,
    infinity,
    structure_constants,
    support,
)
from sgdelta.arith import INF, ConeTable


def box_factorizations(gens, x):
    """Literal full-box scan: every exponent tuple in prod [0, x // a_i]."""
    ranges = [range(x // a + 1) for a in gens]
    return {z for z in product(*ranges) if sum(c * a for c, a in zip(z, gens)) == x}


def grid_factorizations(gens, x):
    """Vectorized box scan: grid the last k-1 coordinates, solve the first.

    Returns the factorization set as a sorted numpy array of shape (n, k).
    """
    k = len(gens)
    grids = np.meshgrid(*(np.arange(x // a + 1, dtype=np.int64) for a in gens[1:]), indexing="ij")
    rest = sum(g * a for g, a in zip(grids, gens[1:]))
    rem = x - rest.ravel()
    ok = (rem >= 0) & (rem % gens[0] == 0)
    cols = [rem[ok] // gens[0]] + [g.ravel()[ok] for g in grids]
    arr = np.stack(cols, axis=1)
    order = np.lexsort(arr.T[::-1])
    return arr[order]


def member_brute(gens, x):
    """x is a nonnegative combination of gens (recursive scan)."""
    if x == 0:
        return True
    if not gens or x < 0:
        return False
    return any(member_brute(gens, x - a) for a in gens if a <= x)


def minimal_generators_brute(gens):
    """Sorted minimal generators of the span of gens: a generator is kept iff
    a scan of the values below it that the smaller generators reach misses it."""
    gens = sorted(set(gens))
    kept = []
    for a in gens:
        smaller = [b for b in gens if b < a]
        reach = [True] + [False] * a
        for y in range(1, a + 1):
            reach[y] = any(b <= y and reach[y - b] for b in smaller)
        if not reach[a]:
            kept.append(a)
    return tuple(kept)


# unreachable entries of a min-max table; the library's tables read INF or more
MINMAX_INF = 1 << 62


def apery_table(gens, m):
    """Least element of the span of gens in each class mod m, INF where none:
    shortest paths from class 0 over the arcs r -> r + a mod m of weight a."""
    dist = [INF] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for a in gens:
            r2 = (r + a) % m
            if d + a < dist[r2]:
                dist[r2] = d + a
                heapq.heappush(heap, (d + a, r2))
    return dist


def minmax_shift_points(gens):
    """y0_i = ceil(B (g (F + 1) + B) / b_min) for each index i, the shift
    point of the min-max table of the generators b other than a_i, with sum
    B, gcd g and least element b_min, from the explicit formula. F, the
    Frobenius number of <b / g>, is read from the heap oracle's Apery table
    of its least generator m: max(table) - m."""
    out = []
    for i in range(len(gens)):
        others = gens[:i] + gens[i + 1 :]
        g = math.gcd(*others)
        reduced = [b // g for b in others]
        f = max(apery_table(reduced, reduced[0])) - reduced[0]
        total = sum(others)
        out.append(-(-total * (g * (f + 1) + total) // min(others)))
    return tuple(out)


def five_start_terms(s):
    """The five validity bounds of the theorem start, k >= 3, the two index
    terms first: the start was their maximum until the index terms were
    shown to lie below the sum term (`infinity._theorem_start`)."""
    recs = structure_constants(s).records
    a = s.generators
    g1, g2 = recs[0].complement_gcd, recs[1].complement_gcd
    b1, b2 = recs[0].margin, recs[1].margin
    return [
        infinity.shift_threshold_index(s, 1, b1 + g1),
        infinity.shift_threshold_index(s, 2, b2 + g1),
        infinity.shift_threshold_sum(s, a[-1] + g1),
        a[0] * a[1] * (3 * g1 + b1) // (a[1] - a[0]) + 1,
        a[1] * a[2] * (2 * g1 * g2 + b2) // (a[2] - a[1]) + 1,
    ]


def minmax_brute(gens, y):
    """Least maximum exponent over the representations of y by gens, None
    when there is none (literal box scan)."""
    best = None
    for z in product(*(range(y // a + 1) for a in gens)):
        if sum(c * a for c, a in zip(z, gens)) == y:
            m = max(z)
            best = m if best is None else min(best, m)
    return best


def minmax_subset_sums(gens, horizon, levels=math.inf):
    """Min-max table of gens over y = 0..horizon by level search, each level
    the union of the previous one shifted by every subset sum of gens;
    entries above `levels` stay MINMAX_INF."""
    sums = sorted({sum(c) for r in range(1, len(gens) + 1) for c in combinations(gens, r)})
    reach = np.zeros(horizon + 1, dtype=bool)
    reach[0] = True
    t = np.full(horizon + 1, MINMAX_INF, dtype=np.int64)
    t[0] = 0
    level = 0
    while level < levels:
        level += 1
        new = reach.copy()
        for v in sums:
            if v <= horizon:
                new[v:] |= reach[: horizon + 1 - v]
        newly = new & ~reach
        if not newly.any():
            break
        t[newly] = level
        reach = new
    return t


def minmax_level_search(gens, horizon, levels=math.inf):
    """t over y = 0..horizon for gens by level search on a numpy bool array:
    going from exponent bound l to l + 1 adds at most one copy of each
    generator, so OR-ing in the shift by each generator in turn reaches every
    subset-sum shift. Entries above `levels` stay INF."""
    reach = np.zeros(horizon + 1, dtype=bool)
    reach[0] = True
    t = np.full(horizon + 1, INF, dtype=np.int64)
    t[0] = 0
    level = 0
    while level < levels:
        level += 1
        new = reach.copy()
        for v in gens:
            # numpy reads overlapping operands as if copied first, so each
            # OR adds at most one copy of v
            np.logical_or(new[v:], new[:-v], out=new[v:])
        newly = new & ~reach
        if not newly.any():
            break
        t[newly] = level
        reach = new
    return t


def one_norm_table(parts, n):
    """m[y] for y = 0..n, the least number of the parts summing to y (INF if
    none), over the whole range with no fold. Part b relaxes m[y] to
    m[y - b] + 1: a running minimum of m[y] - j down each residue class mod
    b, y = j * b + r."""
    m = np.full(n + 1, INF, dtype=np.int64)
    m[0] = 0
    for b in parts:
        rows = n // b + 1
        grid = np.full(rows * b, INF, dtype=np.int64)
        grid[: n + 1] = m
        j = np.arange(rows, dtype=np.int64)[:, None]
        m = (np.minimum.accumulate(grid.reshape(rows, b) - j, axis=0) + j).ravel()[: n + 1]
    return m


def one_norm_lengths(gens, x):
    """1-lengths of x over the ascending gens: l is one iff
    m[x - l * a_1] <= l, m the `one_norm_table` of the parts a_i - a_1 to
    x - ceil(x / a_k) * a_1."""
    a1 = gens[0]
    lo = -(-x // gens[-1])
    m = one_norm_table([a - a1 for a in gens[1:]], x - lo * a1)
    ls = np.arange(lo, x // a1 + 1, dtype=np.int64)
    return ls[m[x - ls * a1] <= ls].tolist()


def minmax_single(a, horizon):
    """Min-max table of one generator over y = 0..horizon: y / a on the
    multiples of a."""
    t = np.full(horizon + 1, MINMAX_INF, dtype=np.int64)
    t[::a] = np.arange(horizon // a + 1)
    return t


def minmax_pair(b, c, horizon):
    """Min-max table of two generators b != c over y = 0..horizon, in closed
    form: the representations of y form one residue class of exponents, the
    max is V-shaped along it, so only the two lattice points nearest the
    balance point matter."""
    g = math.gcd(b, c)
    bp, cp = b // g, c // g
    t = np.full(horizon + 1, MINMAX_INF, dtype=np.int64)
    y = np.arange(0, horizon + 1, g, dtype=np.int64)
    yp = y // g
    inv = pow(bp % cp, -1, cp)
    r = (yp % cp) * inv % cp  # exponent of b is r mod cp
    bmax = yp // bp
    feasible = r <= bmax
    kmax = np.where(feasible, (bmax - r) // cp, 0)
    k1 = (yp // (bp + cp) - r) // cp  # lattice point at/below the balance
    best = np.full(len(yp), MINMAX_INF, dtype=np.int64)
    for k in (np.clip(k1, 0, kmax), np.clip(k1 + 1, 0, kmax)):
        beta = r + cp * k
        gamma = (yp - beta * bp) // cp
        np.minimum(best, np.maximum(beta, gamma), out=best)
    t[y[feasible]] = best[feasible]
    return t


def full_mask_deltas(eng, x):
    """Max-norm delta tuple of x from the engine's full length mask over
    [0, x // a_1], with no window or batch; None for a non-member."""
    ach = eng.lengths(x)
    if not ach:
        return None
    return tuple(sorted({b - a for a, b in zip(ach, ach[1:])}))


def doubling_empirical_start(s, p, w, budget):
    """Smallest x0 past the Frobenius number whose whole window
    [x0, x0 + w * p) repeats with period p, searched over sweeps whose
    horizon doubles from floor + (w + 2) * p up to the element budget."""
    floor_start = frobenius(s) + 1
    cap = budget.max_element
    horizon = floor_start + (w + 2) * p
    while horizon <= cap:
        rows = gap_rows(s, infinity._deltas(s, horizon), floor_start, horizon)
        run = 0  # rows in a row, up to x, that equal the row one period later
        for x in range(len(rows) - p):
            run = run + 1 if rows[x] == rows[x + p] else 0
            if run == w * p:
                return floor_start + x + 1 - w * p
        horizon = min(cap, horizon * 2) if horizon < cap else cap + 1
    raise BudgetExceeded(f"no verified periodicity window within element budget {cap}")


def sweep_rows_reference(gens, tables, win, lo, hi):
    """The gap rows of `sweep_rows` for x in [lo, hi), in plain Python: per
    x, the sorted distinct positions of the columns clipped to
    [ceil(x / A), x // a_1], the lengths among them (y = x - l * a_i < 0 is
    a miss), and a gap between consecutive lengths only when no position
    between the two was dropped. Each row is a tuple of gap sizes."""
    total = sum(gens)
    rows = []
    for x in range(lo, hi):
        bottom, top = -(-x // total), x // gens[0]
        kept = sorted({min(max((x + add) // div + shift, bottom), top) for add, div, shift in win.T.tolist()})
        lengths = [
            (n, l)
            for n, l in enumerate(kept)
            if any(x - l * a >= 0 and table[x - l * a] <= l for a, table in zip(gens, tables))
        ]
        rows.append(tuple(sorted({l2 - l1 for (n1, l1), (n2, l2) in zip(lengths, lengths[1:]) if l2 - l1 == n2 - n1})))
    return rows


def full_band_sweep(gens, lo, hi):
    """The gap bitsets of the frame [lo, hi] from the library's former
    max-norm sweep, which keeps every x of the live band at every level and
    walks every level: bit x - lo of gaps[d] is set iff d is the difference
    of two consecutive max-norm lengths of x. The reference for
    `infinity._sweep`, which keeps only a window of x past the saturation
    of its level searches and walks a repeating level once."""
    a1 = gens[0]
    total = sum(gens)
    searches = [infinity._level_sets(gens[:i] + gens[i + 1 :], hi + 1, a) for i, a in enumerate(gens)]
    reach = [0] * len(gens)
    counter = []  # counter[j]: the x whose counter has bit j set
    seen = 0  # the x with a length below the current level
    gaps = {}
    origin = lo
    for level in range(hi // a1 + 1):
        for i, search in enumerate(searches):
            r = next(search, None)
            if r is None:  # saturated: only the mask shrinks
                reach[i] &= (1 << max(0, hi + 1 - level * gens[i])) - 1
            else:
                reach[i] = r
        if level * total < lo:  # every length-l element lies below the frame
            continue
        cut = max(lo, level * a1) - origin
        origin += cut
        new = 0
        for a, r in zip(gens, reach):
            up = level * a - origin
            new |= r << up if up >= 0 else r >> -up
        seen >>= cut
        carry = seen
        for j, bits in enumerate(counter):  # counter += 1 on every seen x
            bits >>= cut
            counter[j] = bits ^ carry
            carry &= bits
        if carry:
            counter.append(carry)
        hit = new & seen
        if hit:
            _full_band_split(hit, counter, len(counter) - 1, 0, gaps, origin - lo)
        seen |= new
    return gaps


def _full_band_split(xs, counter, j, value, gaps, shift):
    """OR into gaps[d] the x of xs whose counter reads d, and reset their
    counters to 0, by splitting xs on the counter bits from bit j down;
    value holds the bits above j."""
    while j >= 0:
        one = xs & counter[j]
        if one:
            if one != xs:
                _full_band_split(xs ^ one, counter, j - 1, value, gaps, shift)
            xs, value = one, value | 1 << j
            counter[j] ^= xs
        j -= 1
    gaps[value] = gaps.get(value, 0) | xs << shift


def gap_rows(s, gaps, lo, stop):
    """Rows x in [lo, stop) of the library's max-norm gap bitsets
    (`infinity._deltas`) in the form of `full_mask_deltas`, with membership
    read from the span table."""
    rows = [set() for _ in range(lo, stop)]
    for d, bits in gaps.items():
        text = bin(bits >> lo)[:1:-1]  # bit x - lo at index x - lo
        x = text.find("1")
        while 0 <= x < stop - lo:
            rows[x].add(d)
            x = text.find("1", x + 1)
    return [tuple(sorted(row)) if contains(s, x) else None for x, row in zip(range(lo, stop), rows)]


# The library's former max-norm sweep, windowed over the length axis and
# batched over x on numpy arrays. Premise: every max-norm length l of x
# satisfies ceil(x / A) <= l <= x // a_1 (A the generator sum), and by the
# AAP containment the dominant lengths at i are exactly one class mod g_i on
# [ceil(x / A) + a_k, x // a_i - margin_i]. So between the points where that
# picture changes the length mask repeats with period G = lcm(g_1, ..., g_k),
# and the sweep keeps only the bottom window [ceil(x / A), ceil(x / A) + a_k
# + keep) and, per index, [x // a_i - margin_i - keep, x // a_i + keep], with
# keep = 2G + 1. It counts a gap only between consecutive lengths of a row
# with no dropped position between them.

SWEEP_CELLS = 1 << 13  # positions tested per batch


def sweep_windows(s):
    """Column layout of the windowed sweep, shape (3, W): column j of the row
    of x is the position (x + add[j]) // div[j] + shift[j] for the rows add,
    div and shift, before clipping to the length range. The columns hold the
    bottom window, then, for i from k down to 1, the top window of i, each
    ascending. Index 1's top window ends at x // a_1, since every column
    above it clips to x // a_1."""
    consts = infinity.structure_constants(s)
    total = consts.gen_sum
    keep = 2 * math.lcm(*(r.complement_gcd for r in consts.records)) + 1
    cols = [(total - 1, total, j) for j in range(s.generators[-1] + keep)]
    for i in reversed(range(s.embedding_dim)):
        a_i, rec = s.generators[i], consts.records[i]
        cols += [(0, a_i, j) for j in range(-rec.margin - keep, (keep if i else 0) + 1)]
    return np.array(cols, dtype=np.int64).T


def sweep_batches(s, lo, stop):
    """The batches of consecutive x in [lo, stop), as (lo, hi, layout) with
    (hi - lo) * columns <= max(SWEEP_CELLS, W). A batch whose widest length
    range, max(x // a_1 - ceil(x / A) + 1) over its x, is narrower than W
    tests that range whole: its columns are ceil(x / A) + j for j below that
    width. Other batches use the W columns of `sweep_windows`."""
    a1, total = s.generators[0], s.gen_sum
    win = sweep_windows(s)
    wide = win.shape[1]
    narrow = np.array([(total - 1, total, j) for j in range(wide)], dtype=np.int64).T
    while lo < stop:
        first = lo // a1 - (-(-lo // total)) + 1
        if first >= wide:
            hi = min(stop, lo + max(1, SWEEP_CELLS // wide))
            yield lo, hi, win
        else:
            xs = np.arange(lo, min(stop, lo + max(1, SWEEP_CELLS // max(first, 1))), dtype=np.int64)
            width = np.maximum.accumulate(xs // a1 - (xs + total - 1) // total + 1)
            fits = (width < wide) & (width * np.arange(1, len(xs) + 1) <= SWEEP_CELLS)
            hi = lo + max(1, int(np.count_nonzero(fits)))
            yield lo, hi, narrow[:, : max(1, int(width[hi - lo - 1]))]
        lo = hi


def sweep_rows(gens, tables, win, lo, hi):
    """Gap flags, shape (hi - lo, D) with column d set iff d is in the delta
    set, for the elements x in [lo, hi). tables[i] holds t_i unfolded to at
    least hi - 1, then one INF."""
    total = sum(gens)
    add, div, shift = win
    xs = np.arange(lo, hi, dtype=np.int64)[:, None]
    pos = (xs + add) // div + shift
    np.clip(pos, (xs + total - 1) // total, xs // gens[0], out=pos)
    if (pos[:, 1:] < pos[:, :-1]).any():  # windows that overlap
        pos.sort(axis=1)
    hit = np.zeros(pos.shape, dtype=bool)
    for a_i, table in zip(gens, tables):
        y = xs - pos * a_i
        np.maximum(y, -1, out=y)  # y < 0 reads the trailing INF
        hit |= table[y] <= pos
    kept = np.ones(pos.shape, dtype=bool)  # first of each run of equal positions
    np.not_equal(pos[:, 1:], pos[:, :-1], out=kept[:, 1:])
    hit &= kept
    # the kept lengths in row order; pos minus the rank among distinct
    # positions is equal at two of them iff no position between was dropped
    cell = np.flatnonzero(hit)
    row = cell // pos.shape[1]
    at = pos.ravel()[cell]
    run = at - np.cumsum(kept, axis=1).ravel()[cell]
    real = (row[1:] == row[:-1]) & (run[1:] == run[:-1])
    step = np.diff(at)[real]
    gaps = np.zeros((hi - lo, int(step.max(initial=0)) + 1), dtype=bool)
    gaps[row[1:][real], step] = True
    return gaps


def windowed_rows(s, lo, stop):
    """The gap rows of x in [lo, stop) from the windowed sweep, over tables
    unfolded from the engine's folded ones, in the form of
    `full_mask_deltas`."""
    eng = infinity._get_engine(s, stop - 1)
    ys = np.arange(stop + 1, dtype=np.int64)
    ys[-1] = 0
    tables = []
    for table, y0, step in zip(eng.tables, eng.y0, eng.steps):
        q = np.maximum(ys - y0, 0) // step
        t = np.frombuffer(table, dtype=np.int64)[ys - q * step] + q
        t[-1] = INF
        tables.append(t)
    parts = [sweep_rows(s.generators, tables, win, a, b) for a, b, win in sweep_batches(s, lo, stop)]
    rows = [tuple(np.flatnonzero(g).tolist()) for gaps in parts for g in gaps]
    return [row if contains(s, x) else None for x, row in zip(range(lo, stop), rows)]


def cone_contains_array(cone, y):
    """Membership in the span of a `ConeTable` over an int64 array
    (negatives allowed), read from its least-member table."""
    w = np.asarray(cone.least, dtype=np.int64)
    ok = (y >= 0) & (y % cone.gcd == 0)
    q = np.where(ok, y // cone.gcd, 0)
    return ok & (q >= w[q % cone.modulus])


def cone_union_deltas(s, horizon):
    """Union of the per-element 0-delta sets over x in [0, horizon], by one
    membership pass per support subset over fresh span tables, then the
    support sizes of each x as a bitmask (the engine's former pass)."""
    gens = s.generators
    k = len(gens)
    x = np.arange(horizon + 1, dtype=np.int64)
    masks = np.zeros(horizon + 1, dtype=np.uint32)
    for size in range(1, k + 1):
        for sub in combinations(gens, size):
            hit = cone_contains_array(ConeTable.build(sub), x - sum(sub))
            masks[hit] |= np.uint32(1 << (size - 1))
    union = set()
    for m in np.unique(masks):
        sizes = [b + 1 for b in range(32) if m >> b & 1]
        union.update(b - a for a, b in zip(sizes, sizes[1:]))
    return union


def stability_bound_all_tables(s):
    """The 0-norm stability bound as the engine once took it: the largest
    conductor + support sum over a span table for every nonempty support."""
    gens = s.generators
    return max(
        ConeTable.build(sub).conductor + sum(sub)
        for size in range(1, len(gens) + 1)
        for sub in combinations(gens, size)
    )


def support_sizes_brute(gens, x):
    """Sorted distinct support sizes over the literal factorization box."""
    return sorted({sum(1 for c in z if c) for z in box_factorizations(gens, x)})


def length_set_brute(gens, x, p):
    vals = set()
    for z in box_factorizations(gens, x):
        if p == 0:
            vals.add(sum(1 for c in z if c))
        elif p == 1:
            vals.add(sum(z))
        else:
            vals.add(max(z))
    return sorted(vals)


def factorization_graph_components(zs):
    """Components of the literal factorization graph: vertices are exponent
    tuples, edges join tuples with overlapping support."""
    zs = list(zs)
    parent = list(range(len(zs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    supports = [frozenset(i for i, c in enumerate(z) if c) for z in zs]
    for a, b in combinations(range(len(zs)), 2):
        if supports[a] & supports[b]:
            parent[find(a)] = find(b)
    groups = {}
    for i in range(len(zs)):
        groups.setdefault(find(i), []).append(zs[i])
    return list(groups.values())


def apply_trades_components(zs, trades):
    """Components of the factorization set under the moves z -> z - u + v
    for each trade (u, v) in either direction."""
    zs = sorted(zs)
    index = {z: i for i, z in enumerate(zs)}
    parent = list(range(len(zs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for z in zs:
        for u, v in trades:
            for a, b in ((u, v), (v, u)):
                if all(c >= d for c, d in zip(z, a)):
                    w = tuple(c - d + e for c, d, e in zip(z, a, b))
                    if w in index:
                        parent[find(index[z])] = find(index[w])
    return len({find(i) for i in range(len(zs))})


def component_least_factorizations(s, b):
    """Per index-graph component of b, the lexicographically least
    enumerated factorization of b whose support lies in that component."""
    zs = sorted(enumerate_factorizations(s, b))
    return [next(z for z in zs if set(support(z)) <= set(c)) for c in index_graph_components(s, b)]
