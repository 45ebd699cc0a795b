"""Exact max-norm length structure and the finite delta-set certificate.

The engine never materializes factorization sets. For each generator index i
it tabulates, over all y up to a horizon,

    t_i[y] = least possible maximum exponent among representations of y
             by the generators other than a_i (INF if unrepresentable),

because l is a dominant max-norm length of x at i (some factorization has
its maximum exponent l, attained at i) iff t_i[x - l * a_i] <= l. The full
max-norm length set of x is the union over i, and per-element delta sets
follow by differencing. A level search fills t_i: the set reachable with all
exponents <= l+1 is the union of subset-sum shifts of the level-l set.

Each table stops at top_i = y0_i + B_i, because t_i is periodic past y0_i.
Let b be the generators other than a_i, with sum B, gcd g and least element
b_min, let F be the Frobenius number of <b / g> (-1 when that is all of N),
and y0 = ceil(B * (g(F + 1) + B) / b_min) (`QuotientData.y0`). Put
l*(y) = min{l >= ceil(y / B) : l * B - y in <b>}.
  - t_i(y) >= l*(y) always: if z represents y with max m, then m >= y / B,
    and m * (1, ..., 1) - z represents m * B - y.
  - t_i(y) = l*(y) for y >= y0. Take l = l*(y) and d = l * B - y. Either
    l = ceil(y / B), so d < B, or (l - 1) * B - y >= 0 is a multiple of g
    outside <b>, so d - B <= g * F. Either way d < g(F + 1) + B. Any
    representation w of d has every w_j <= d / b_min < y0 / B <= l, so
    l * (1, ..., 1) - w represents y with max <= l.
Since l*(y + B) = l*(y) + 1 for every y, t_i(y + B) = t_i(y) + 1 for
y >= y0, and unreachable y (those off the multiples of g) stay so. A read
at y takes q = max(0, y - y0) // B and returns t_i[y - q * B] + q.

The per-element delta sets of a certificate are swept in windows. Premise:
every max-norm length l of x satisfies ceil(x / A) <= l <= x // a_1 (A the
generator sum), and by the AAP containment (claim `aap-containment`) the
dominant lengths at i are exactly the class inverse_i * x mod g_i on
[ceil(x / A) + a_k, x // a_i - margin_i]. So between the points where that
picture changes (ceil(x / A) + a_k, and x // a_i - margin_i and x // a_i
per index) the length mask repeats with period G = lcm(g_1, ..., g_k). The
sweep keeps the bottom window [ceil(x / A), ceil(x / A) + a_k + keep) and,
per index, [x // a_i - margin_i - keep, x // a_i + keep], with
keep = 2G + 1, clipped to [ceil(x / A), x // a_1] and merged; index 1's
window ends at x // a_1, where every column above it clips. A dropped
stretch then has at least keep kept positions of its own period on each
side, which already show every gap that occurs in or across it, and it lies
where the class of index 1 fills, so no gap spans it. These are the columns
of the wide layout: the bottom window, then the top windows from a_k down
to a_1, each ascending. Once the windows separate, every row is therefore
already sorted, and a batch is sorted only when some row is out of order
(small x, where windows overlap). The sweep runs the exact test only at
kept positions; each unfolded table ends in one INF, where every read at
y < 0 is pointed, so the test is one gather per index. It counts a gap only
between consecutive lengths of a row with no dropped position between them:
with rank the number of distinct positions up to a column, pos - rank is
equal at two lengths iff none was dropped between them, so the gaps come
from the compacted list of lengths alone. It keeps only gap flags, so the
row of a non-member is empty, like that of a member with one length. The
sweep runs in batches of consecutive x. A batch whose widest length range,
max(x // a_1 - ceil(x / A) + 1) over its x, is narrower than the wide
layout keeps that whole range instead (the narrow layout: columns
ceil(x / A) + j below that width), drops nothing and needs no sort; a batch
has at most 2^13 cells, or one row.
Element queries read every length of x from the stored tables, with one read
per residue class of l past y0_i (`arith.mark_lengths`), in plain Python;
only the sweep, and so only a semigroup-level query, loads numpy.

Each instance caches one engine and one sweep. The engine grows by doubling
until every table reaches its top, and is never rebuilt after that. The
sweep is a row of gap flags per x, so every x is swept at most once per
instance.

The semigroup-level delta set is the union of per-element delta sets up to
start + W * period, where start either comes from the explicit shift-identity
validity bounds (theorem-backed) or from the first observed window of exact
periodicity (empirical), which begins at F + 1. One loop serves both: it
sweeps to start + (W + 1) * period and compares the rows of the window
[start, start + W * period) with those one period later. Every such x lies
past the Frobenius number F, so it is a member and its gap row is its delta
set. A match is recorded in the certificate. A mismatch falsifies a
theorem-backed start; in empirical mode it rules out every start up to the
last mismatch, so the next window starts just past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING

from .arith import INF, ceil_div, level_table, mark_lengths
from .budget import DEFAULT_INF_BUDGET, MAX_ENGINE_HORIZON, Budget
from .errors import BudgetExceeded, NotAMember, ThresholdNotMet, VerificationError
from .factorization import PINF, DeltaSet, LengthSet
from .semigroup import (
    NumericalSemigroup,
    QuotientData,
    cached,
    contains,
    delta_period,
    frobenius,
    quotient_data,
    span,
)

if TYPE_CHECKING:
    from array import array

    import numpy as np


@dataclass(frozen=True)
class StructureConstants:
    gen_sum: int
    period: int
    records: tuple[QuotientData, ...]


@dataclass(frozen=True)
class PeriodicityCertificate:
    """Evidence that per-element delta sets repeat with the stated period
    from `start` on: verified by direct computation for every x in
    [start, start + window_periods * period)."""

    start: int
    period: int
    window_periods: int
    mode: str  # "theorem-backed" | "empirical"
    union_horizon: int
    columns: int  # positions per element of the sweep's wide layout, its widest


def structure_constants(s: NumericalSemigroup) -> StructureConstants:
    return cached(
        s,
        "structure",
        lambda: StructureConstants(
            s.gen_sum, delta_period(s), tuple(quotient_data(s, i) for i in range(1, s.embedding_dim + 1))
        ),
    )


# ---------------------------------------------------------------------------
# min-max exponent tables


def _minmax_bfs(gens: tuple[int, ...], horizon: int, levels: float = math.inf) -> array:
    """t over y = 0..horizon for the generators gens, by level search on a
    bitset of the reached y: going from exponent bound l to l + 1 adds at
    most one copy of each generator, so OR-ing in the shift by each
    generator in turn reaches every subset-sum shift. `arith.level_table`
    turns the levels into t. Entries above `levels` stay INF."""

    def reaches():
        mask = (1 << (horizon + 1)) - 1
        reach, level = 1, 0
        yield reach
        while level < levels:
            level += 1
            new = reach
            for v in gens:
                # the shift reads `new` before the OR, so each OR adds at
                # most one copy of v
                new |= (new << v) & mask
            if new == reach:
                return
            yield new
            reach = new

    return level_table(reaches(), horizon + 1)


class _Engine:
    """Max-norm length oracle for one generator tuple, valid for all
    x <= horizon. Table i stops at top_i = y0_i + B_i, and reads past it use
    t_i(y + B_i) = t_i(y) + 1; once every table reaches its top the horizon
    is infinite. Element reads fold with `arith.mark_lengths`, which reads a
    table once per residue class past y0_i. Holding the generators, not the
    semigroup, keeps the instance that caches it free of reference cycles."""

    def __init__(self, gens: tuple[int, ...], y0: tuple[int, ...], horizon: int):
        self.gens = gens
        self.y0 = y0
        self.steps = tuple(sum(gens) - a for a in gens)
        tops = [y + b for y, b in zip(y0, self.steps)]
        # below its top, table i is only compared with lengths up to
        # horizon // a_i, so higher levels may stay INF; a table that reaches
        # its top serves folded reads and needs every level
        self.tables = [
            _minmax_bfs(gens[:i] + gens[i + 1 :], min(horizon, top), horizon // a if horizon < top else math.inf)
            for i, (a, top) in enumerate(zip(gens, tops))
        ]
        self.horizon = horizon if horizon < max(tops) else math.inf

    def _mark(self, mask: bytearray, x: int, i: int) -> None:
        """Set mask[l] for every dominant length l of x at the 0-based
        index i."""
        mark_lengths(mask, self.tables[i], self.y0[i], self.steps[i], x, self.gens[i])

    def dominant_values(self, x: int, i: int) -> list[int]:
        """The dominant lengths of x at the 1-based index i, ascending."""
        mask = bytearray(x // self.gens[i - 1] + 1)
        self._mark(mask, x, i - 1)
        return list(compress(range(len(mask)), mask))

    def lengths(self, x: int) -> list[int]:
        """The max-norm lengths of x, ascending: the union over i of its
        dominant lengths."""
        # fresh buffer per call: engines are shared by concurrent readers
        mask = bytearray(x // self.gens[0] + 1)
        for i in range(len(self.gens)):
            self._mark(mask, x, i)
        return list(compress(range(len(mask)), mask))


def _get_engine(s: NumericalSemigroup, horizon: int) -> _Engine:
    """The instance's engine, valid at least up to `horizon`. The first one
    is built exactly to it; an outgrown one is rebuilt to at least twice its
    horizon, so an ascending scan to x builds O(log x) engines. No table
    grows past its top, and an engine whose tables all reach it serves every
    x and is never rebuilt."""
    if horizon > MAX_ENGINE_HORIZON:
        raise BudgetExceeded(f"length tables to {horizon} exceed the engine budget")
    eng = s._cache.get("inf-engine")
    if eng is not None and eng.horizon >= horizon:
        return eng
    if eng is not None:
        horizon = max(horizon, min(2 * eng.horizon, MAX_ENGINE_HORIZON))
    y0 = tuple(r.y0 for r in structure_constants(s).records)
    eng = _Engine(s.generators, y0, horizon)
    s._cache["inf-engine"] = eng
    return eng


def _member_engine(s: NumericalSemigroup, x: int, ahead: int = 0) -> _Engine:
    """The engine for a query at the member x, valid up to x + ahead."""
    if x < 0 or not contains(s, x):
        raise NotAMember(f"{x} is not in {s}")
    return _get_engine(s, x + ahead)


# positions tested per batch of the sweep; larger batches only raise peak
# memory, not speed
_SWEEP_CELLS = 1 << 13


def _windows(s: NumericalSemigroup) -> np.ndarray:
    """Column layout of the sweep, shape (3, W): column j of the row of x is
    the position (x + add[j]) // div[j] + shift[j] for the rows add, div and
    shift, before clipping to the length range. The columns hold the bottom
    window [ceil(x/A), ceil(x/A) + a_k + keep), then, for i from k down to
    1, the top window [x//a_i - margin_i - keep, x//a_i + keep], with
    keep = 2G + 1 and G the lcm of the complement gcds. Each window ascends
    and the windows follow in the order of their positions, so once they
    separate a row needs no sort. Index 1's top window ends at x//a_1,
    since every column above it clips to x//a_1."""
    import numpy as np

    def build():
        consts = structure_constants(s)
        total = consts.gen_sum
        keep = 2 * math.lcm(*(r.complement_gcd for r in consts.records)) + 1
        cols = [(total - 1, total, j) for j in range(s.generators[-1] + keep)]
        for i in reversed(range(s.embedding_dim)):
            a_i, rec = s.generators[i], consts.records[i]
            cols += [(0, a_i, j) for j in range(-rec.margin - keep, (keep if i else 0) + 1)]
        return np.array(cols, dtype=np.int64).T

    return cached(s, "inf-windows", build)


def _batches(s: NumericalSemigroup, lo: int, stop: int):
    """The sweep's batches of consecutive x in [lo, stop), as (lo, hi,
    layout) with (hi - lo) * columns <= max(_SWEEP_CELLS, W). A batch whose
    widest length range, max(x//a_1 - ceil(x/A) + 1) over its x, is narrower
    than W tests that range whole: its columns are ceil(x/A) + j for j below
    that width, and no position is dropped. Other batches use the W columns
    of `_windows`."""
    import numpy as np

    a1, total = s.generators[0], s.gen_sum
    win = _windows(s)
    wide = win.shape[1]
    narrow = np.array([(total - 1, total, j) for j in range(wide)], dtype=np.int64).T
    while lo < stop:
        first = lo // a1 - ceil_div(lo, total) + 1
        if first >= wide:
            hi = min(stop, lo + max(1, _SWEEP_CELLS // wide))
            yield lo, hi, win
        else:
            xs = np.arange(lo, min(stop, lo + max(1, _SWEEP_CELLS // max(first, 1))), dtype=np.int64)
            width = np.maximum.accumulate(xs // a1 - (xs + total - 1) // total + 1)
            fits = (width < wide) & (width * np.arange(1, len(xs) + 1) <= _SWEEP_CELLS)
            hi = lo + max(1, int(np.count_nonzero(fits)))
            yield lo, hi, narrow[:, : max(1, int(width[hi - lo - 1]))]
        lo = hi


def _sweep_rows(gens: tuple[int, ...], tables: list[np.ndarray], win: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Gap flags, shape (hi - lo, D) with column d set iff d is in the delta
    set, for the elements x in [lo, hi). tables[i] holds t_i unfolded to at
    least hi - 1, then one INF."""
    import numpy as np

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


def _sweep_parts(s: NumericalSemigroup, lo: int, stop: int) -> list[np.ndarray]:
    """The `_sweep_rows` output of each batch of x in [lo, stop), in order."""
    import numpy as np

    eng = _get_engine(s, stop - 1)
    # transient plain tables, a gather being cheaper than a fold per cell,
    # one call per table so that its temporaries are freed before the next
    # is built (held across tables, they raised the peak RSS); the engine
    # reaches only stop - 1, so the last read is a placeholder that the
    # trailing INF overwrites
    ys = np.arange(stop + 1, dtype=np.int64)
    ys[-1] = 0

    def unfold(table: array, y0: int, step: int) -> np.ndarray:
        """t_i at every y of ys: t_i[y - q * B_i] + q, q = max(0, y - y0_i) // B_i."""
        q = np.maximum(ys - y0, 0) // step
        return np.frombuffer(table, dtype=np.int64)[ys - q * step] + q

    tables = [unfold(*table) for table in zip(eng.tables, eng.y0, eng.steps)]
    for t in tables:
        t[-1] = INF
    return [_sweep_rows(s.generators, tables, win, a, b) for a, b, win in _batches(s, lo, stop)]


def _deltas(s: NumericalSemigroup, upto: int) -> np.ndarray:
    """The gap flags of x = 0..upto at least: gaps[x, d] is set iff d is in
    the delta set of x. Each x is swept once per instance: a longer request
    extends the cached sweep into a new array that replaces it, and the old
    one is never mutated, so concurrent readers stay safe."""
    import numpy as np

    done = s._cache.get("inf-deltas")
    have = 0 if done is None else len(done)
    if have > upto:
        return done
    parts = [] if done is None else [done]
    parts += _sweep_parts(s, have, upto + 1)
    gaps = np.zeros((upto + 1, max(g.shape[1] for g in parts)), dtype=bool)
    row = 0
    for g in parts:
        gaps[row : row + len(g), : g.shape[1]] = g
        row += len(g)
    s._cache["inf-deltas"] = gaps
    return gaps


# ---------------------------------------------------------------------------
# public per-element queries


def infinity_length_set(s: NumericalSemigroup, x: int) -> LengthSet:
    eng = _member_engine(s, x)
    return LengthSet(PINF, tuple(eng.lengths(x)))


def dominant_length_set(s: NumericalSemigroup, x: int, i: int) -> LengthSet:
    """Max-norm lengths over factorizations whose max is attained at index i
    (1-based); may be empty."""
    if not 1 <= i <= s.embedding_dim:
        raise ValueError(f"index must be in 1..{s.embedding_dim}")
    eng = _member_engine(s, x)
    return LengthSet(PINF, tuple(eng.dominant_values(x, i)))


# ---------------------------------------------------------------------------
# shift-identity validity bounds


def shift_threshold_index(s: NumericalSemigroup, i: int, bound: int) -> int:
    """Least x from which the index-i step identity with window `bound` is
    guaranteed. The inner constant is maximized over the other generators
    (the loosest instantiation that the argument supports)."""
    a_i = s.generators[i - 1]
    c = max(ceil_div(bound + 1, a) for j, a in enumerate(s.generators, 1) if j != i)
    return a_i * a_i * c + a_i * bound + 1


def shift_threshold_sum(s: NumericalSemigroup, bound: int) -> int:
    """Least x from which the all-generators step identity with window
    `bound` is guaranteed; maximized over the coordinate that could vanish,
    i.e. attained at the smallest generator."""
    a1 = s.generators[0]
    total = s.gen_sum
    return total * (total - a1) * bound // a1 + 1


def _theorem_start(s: NumericalSemigroup, consts: StructureConstants) -> int | None:
    """Explicit start for the periodicity window, k >= 3 only: the step
    identities behind the period proof plus the two gap-region width
    conditions. None for k = 2 (the region analysis needs a third
    generator), where the engine falls back to an empirical start."""
    if s.embedding_dim < 3:
        return None
    a = s.generators
    g1 = consts.records[0].complement_gcd
    g2 = consts.records[1].complement_gcd
    b1 = consts.records[0].margin
    b2 = consts.records[1].margin
    cands = [
        shift_threshold_index(s, 1, b1 + g1),
        shift_threshold_index(s, 2, b2 + g1),
        shift_threshold_sum(s, a[-1] + g1),
        a[0] * a[1] * (3 * g1 + b1) // (a[1] - a[0]) + 1,
        a[1] * a[2] * (2 * g1 * g2 + b2) // (a[2] - a[1]) + 1,
    ]
    return max(cands)


def delta_inf_semigroup(
    s: NumericalSemigroup,
    window_periods: int = 2,
    budget: Budget | None = None,
) -> tuple[DeltaSet, PeriodicityCertificate]:
    """Exact max-norm delta set of the semigroup with its certificate.

    Returns the union of per-element delta sets for x <= start + W * period.
    With a theorem-backed start nothing new appears later; the empirical
    mode (k = 2, or explicit bounds beyond budget) reports the verified
    window as evidence. The empirical search needs w + 2 periods of room
    past the Frobenius number to begin, and gives up once a window would
    reach past the element budget.
    """
    import numpy as np

    budget = budget or DEFAULT_INF_BUDGET
    w = window_periods
    if w < 1:
        raise ValueError("need at least one window period")
    consts = structure_constants(s)
    p = consts.period
    cap = budget.max_element
    start, mode = _theorem_start(s, consts), "theorem-backed"
    if start is None or start + (w + 1) * p > cap:
        start, mode = frobenius(s) + 1, "empirical"  # all x beyond are members
    fits = mode == "theorem-backed" or start + (w + 2) * p <= cap
    while fits and start + (w + 1) * p <= cap:
        gaps = _deltas(s, start + (w + 1) * p)
        bad = np.flatnonzero((gaps[start : start + w * p] != gaps[start + p : start + (w + 1) * p]).any(axis=1))
        if not bad.size:
            union_to = start + w * p
            union = np.flatnonzero(gaps[: union_to + 1].any(axis=0))
            cert = PeriodicityCertificate(start, p, w, mode, union_to, _windows(s).shape[1])
            return DeltaSet.from_iterable(union.tolist()), cert
        if mode == "theorem-backed":
            raise VerificationError(
                f"periodicity falsified at x={start + int(bad[0])} (period {p}) on {s}; "
                "this contradicts the structure analysis"
            )
        start += int(bad[-1]) + 1
    raise BudgetExceeded(f"no verified periodicity window within element budget {cap}")


# ---------------------------------------------------------------------------
# structural checks


def verify_linf_bounds(s: NumericalSemigroup, x: int) -> bool:
    """Sandwich bounds: the least max-norm length sits within a_k of x / A,
    and each nonempty dominant set tops out within k * a_k of x / a_i."""
    eng = _member_engine(s, x)
    a = s.generators
    k = len(a)
    total = s.gen_sum
    lmin = eng.lengths(x)[0]
    if lmin * total < x or (lmin - a[-1]) * total > x:
        return False
    for i in range(1, k + 1):
        dom = eng.dominant_values(x, i)
        if not dom:
            continue
        top = dom[-1]
        if top * a[i - 1] > x or x > a[i - 1] * (top + k * a[-1]):
            return False
    return True


def verify_aap(s: NumericalSemigroup, x: int, i: int) -> bool:
    """Dominant lengths at i lie in one residue class mod the complement
    gcd, and fill that class on [x/A + a_k, x/a_i - margin]."""
    eng = _member_engine(s, x)
    consts = structure_constants(s)
    rec = consts.records[i - 1]
    a_i = s.generators[i - 1]
    g = rec.complement_gcd
    dom = set(eng.dominant_values(x, i))
    res = (rec.inverse * x) % g
    if any(l % g != res for l in dom):
        return False
    lo = ceil_div(x, consts.gen_sum) + s.generators[-1]
    lo += (res - lo) % g
    hi = x // a_i - rec.margin
    for l in range(lo, hi + 1, g):
        if l not in dom:
            return False
    return True


def verify_shift(s: NumericalSemigroup, x: int, i: int, bound: int, sum_bound: int) -> bool:
    """Both step identities at x: adding a_i shifts the top `bound` window
    of the dominant set by one, and adding every generator shifts the bottom
    `sum_bound` window of the full length set by one. Raises below the
    validity thresholds instead of reporting a falsification."""
    eng = _member_engine(s, x, ahead=s.gen_sum)
    t_index = shift_threshold_index(s, i, bound)
    t_sum = shift_threshold_sum(s, sum_bound)
    if x < max(t_index, t_sum):
        raise ThresholdNotMet(f"x={x} below validity bounds {t_index}/{t_sum}")
    a_i = s.generators[i - 1]
    total = s.gen_sum

    cut = ceil_div(x, a_i) - bound
    before = {l for l in eng.dominant_values(x, i) if l >= cut}
    after = {l for l in eng.dominant_values(x + a_i, i) if l >= cut + 1}
    if after != {l + 1 for l in before}:
        return False

    cap = x // total + sum_bound
    low_before = {l for l in eng.lengths(x) if l <= cap}
    low_after = {l for l in eng.lengths(x + total) if l <= cap + 1}
    return low_after == {l + 1 for l in low_before}


def verify_interval_decomposition(s: NumericalSemigroup, x: int) -> bool:
    """Every gap size in [1, min(g_1, g_2)] and g_1 itself occurs in the
    delta set of x, and any other gap touches one of the three boundary
    regions (near x/A, near x/a_2, near x/a_1). Caller supplies x large
    enough that the regions separate."""
    if s.embedding_dim < 3:
        raise ValueError("interval decomposition references the third generator")
    eng = _member_engine(s, x)
    consts = structure_constants(s)
    a = s.generators
    total = consts.gen_sum
    g1 = consts.records[0].complement_gcd
    g2 = consts.records[1].complement_gcd
    b1 = consts.records[0].margin
    b2 = consts.records[1].margin
    ach = eng.lengths(x)
    gaps = {b - a2 for a2, b in zip(ach, ach[1:])}
    base = set(range(1, min(g1, g2) + 1)) | {g1}
    if not base <= gaps:
        return False

    def in_regions(l: int) -> bool:
        if l * total >= x and (l - a[-1]) * total <= x:
            return True
        if a[1] * (l + b2) >= x and a[1] * l <= x:
            return True
        return a[0] * (l + b1) >= x and a[0] * l <= x

    for lo, hi in zip(ach, ach[1:]):
        if hi - lo in base:
            continue
        if not (in_regions(lo) or in_regions(hi)):
            return False
    return True


def residue_delta_subset(s: NumericalSemigroup, j: int, bound: int, delta_inf: DeltaSet) -> bool:
    """Classical delta of the residual span restricted to one residue class
    mod a_1, rescaled by a_1 (consecutive class members differ by multiples
    of a_1, each multiple witnessing a top-window max-norm gap), contained
    in the semigroup's max-norm delta set."""
    a1 = s.generators[0]
    if not 0 <= j < a1:
        raise ValueError(f"residue must be in 0..{a1 - 1}")
    cone = span(s, tuple(range(2, s.embedding_dim + 1)))
    members = [y for y in range(j, bound + 1, a1) if cone.contains(y)]
    if len(members) <= 1:
        return True
    diffs = {(b - a) // a1 for a, b in zip(members, members[1:])}
    return diffs <= delta_inf.as_set()
