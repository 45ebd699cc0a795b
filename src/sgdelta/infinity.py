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

Each table stops at top_i = y0_i + B_i, because t_i(y + B_i) = t_i(y) + 1
from y0_i = `arith.shift_point` of <b> and step B_i on, b the generators
other than a_i and B_i their sum. The lemma there needs two premises, with
n*(y) = min{n >= ceil(y / B_i) : n * B_i - y in <b>}:
  - t_i(y) >= n*(y): if z represents y with max m, then m >= y / B_i, and
    m * (1, ..., 1) - z represents m * B_i - y;
  - a representation w of n * B_i - y with sum(w) <= n has every w_j <= n,
    so n * (1, ..., 1) - w represents y with max <= n.
A read at y takes q = max(0, y - y0_i) // B_i and returns
t_i[y - q * B_i] + q.

Element queries read every length of x from the stored tables, with one read
per residue class of l past y0_i (`arith.mark_lengths`).

The per-element delta sets of a certificate come from one sweep over the
levels l in ascending order, with x as the bit axis of Python-int bitsets
(the shift-or style of Baeza-Yates & Gonnet, CACM 35, 1992). x has length
l at index i iff x - l * a_i lies in reach_i(l) = {y : t_i(y) <= l}, the
level-l set of the level search that builds t_i (`_level_sets`), so the x
of length l are N_l = OR_i (reach_i(l) << l * a_i). For a frame of x up to
hi, the search of index i masks level l to y <= hi - l * a_i; once a level
adds nothing under its mask the set is saturated, about level hi / A, and
later levels only mask it. A counter, bit-sliced over x, holds l minus the
last length of x, so at each x of N_l that had a length before it reads a
gap d, and x joins the bitset G[d]. Every length of x is at most x // a_1,
so the state ints keep their origin at l * a_1 and each level cuts off the
x below it. The row of a non-member is empty, like that of a member with
one length.

One loop walks the levels. The state ints hold the x in [origin, top), and
level l's band ends at l * a_1 + window, capped at hi + 1: the full band
while window = hi + 1. Once no search yields they are dropped, and reach
keeps their last sets; a level masks a set to the n - up bits that land in
its band of n bits only where the set is longer, so a set that fits is
shifted as it is. Past the saturation the state shrinks to a window of x.
Let c_1 be the conductor of <a_2, ..., a_k> and g_1 its gcd, let L be the
first level at which every search has saturated, and w = c_1 + 2 * a_1.
  - Lemma 1: for l >= L, reach_i(l) = <others_i> ∩ [0, hi - l * a_i].
    Proof: a search stops once its masked set is closed under adding each
    generator under the mask; it holds 0, so it holds every member under
    the mask, and each later set is it, masked.
  - Lemma 2: if g_1 = 1 and l - 1 >= L, each x <= hi with
    x >= l * a_1 + c_1 has the lengths l - 1 and l. Proof: x - l * a_1 and
    x - (l - 1) * a_1 are at least c_1, so both lie in <a_2, ..., a_k>,
    under their masks since x <= hi; by Lemma 1 they are in reach_1 at
    levels l and l - 1.
So where g_1 = 1, past level L + 1 every x >= l * a_1 + c_1 has seen = 1
and counter 0, and its only events are gaps of 1, which G[1] already
holds: keeping, dropping or re-entering such an x changes no gap. At the
first level l >= L + 2 with l * A >= lo (a frame skips the levels below
it), window becomes w, the state is cut to
the previous level's window, below (l - 1) * a_1 + w, and from then on it
holds [l * a_1, l * a_1 + w), capped at hi. An x enters it at level l
from x >= (l - 1) * a_1 + w: by Lemma 2 it had the lengths l - 2 and
l - 1, so it enters with seen = 1 and counter 0, and as
x >= l * a_1 + c_1 + a_1 it has the length l too, so its gap of 1 is
recorded inside the window. (Cutting to level l's own window keeps x
whose state is that same one.) At the entry a frame moves to the first
level whose window ends above lo: the skipped windows hold only x below
lo, so the cut state is empty, and every x of the first window enters by
the argument above. Where g_1 > 1, every length of x at index 1 is one
class mod g_1 and no such window exists: window stays hi + 1.

Call a window level steady when its origin is l * a_1, hi does not cap
the window (l * a_1 + w <= hi + 1) and l * (a_2 - a_1) >= w, so that only
index 1 reaches into it. Steady levels run in one stretch, and each one
after the first applies the same map to the state (seen and every counter
slice): cut a_1 bits, set seen on the a_1 entering bits, add 1 to every
counter, split the hits of reach_1 ∩ [0, w) and reset their counters. Its
gap groups, relative to the origin, follow from the state before it. So
once the state after a steady level equals the state after the one
before, every later uncapped level repeats that level's groups, each
a_1 further up: all of them are OR-ed in with O(log n) doubling shifts,
and the walk resumes at the first level where hi caps the window. This
rests on the map being deterministic, not on the periodicity theorem.

Cost: a sweep to hi walks the levels up to L, about hi / A, on the live
band, O(live band / 64) word operations each; then, where g_1 = 1, about
w / a_1 steady levels before the fixed point and w / a_1 capped ones, each
O(w / 64), plus one doubling per gap size. Where g_1 > 1 (k = 2 among
them) it walks all hi // a_1 + 1 levels on the live band, at most
hi - l * a_1 bits.

Each instance caches one engine and one sweep. The engine grows by doubling
until every table reaches its top, and is never rebuilt after that; the
sweep reads no table. Rows do not depend on each other, so the sweep runs on
a frame [lo, hi] of x, and a longer request sweeps only the x not yet swept:
every x is swept at most once per instance.

The semigroup-level delta set is the union of per-element delta sets up to
start + W * period, where start either comes from the explicit shift-identity
validity bounds (theorem-backed) or from the first observed window of exact
periodicity (empirical), which begins at F + 1. One loop serves both: it
sweeps to start + (W + 1) * period and compares the rows of the window
[start, start + W * period) with those one period later, by XOR-ing each
G[d] with itself shifted down by one period. Every such x lies past the
Frobenius number F, so it is a member and its gap row is its delta set. A
match is recorded in the certificate. A mismatch falsifies a theorem-backed
start; in empirical mode it rules out every start up to the last mismatch,
so the next window starts just past it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import compress

from .arith import ceil_div, cone_table, level_table, mark_lengths, shift_point
from .budget import DEFAULT_INF_BUDGET, MAX_ENGINE_HORIZON, Budget
from .errors import BudgetExceeded, NotAMember, ThresholdNotMet, VerificationError
from .factorization import PINF, DeltaSet, LengthSet
from .semigroup import (
    NumericalSemigroup,
    cached,
    contains,
    delta_period,
    frobenius,
    quotient_data,
    span,
)

# typing is not loaded at run time: every annotation here is a string
TYPE_CHECKING = False
if TYPE_CHECKING:
    from array import array


class StructureConstants(namedtuple("StructureConstants", "gen_sum period records")):
    """records: the QuotientData of each generator index, in order."""

    __slots__ = ()


class PeriodicityCertificate(namedtuple("PeriodicityCertificate", "start period window_periods mode union_horizon")):
    """Evidence that per-element delta sets repeat with the stated period
    from `start` on: verified by direct computation for every x in
    [start, start + window_periods * period). mode is "theorem-backed" or
    "empirical"."""

    __slots__ = ()


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


def _level_sets(gens: tuple[int, ...], size: int, shrink: int = 0, levels: float = math.inf):
    """The sets of the min-max level search over gens, as int bitsets: the
    set of level l holds every y < size - l * shrink with t(y) <= l. Going
    from level l to l + 1 adds at most one copy of each generator, so OR-ing
    in the shift by each generator in turn reaches every subset-sum shift.
    Stops after `levels`, or after the first level that adds nothing under
    its mask: a shift only moves bits up, so every later set is the last
    one, masked."""
    mask = (1 << size) - 1
    reach, level = 1, 0
    yield reach
    while level < levels:
        level += 1
        mask >>= shrink
        new = reach = reach & mask
        for v in gens:
            # the shift reads `new` before the OR, so each OR adds at
            # most one copy of v
            new |= (new << v) & mask
        if new == reach:
            return
        yield new
        reach = new


def _minmax_bfs(gens: tuple[int, ...], horizon: int, levels: float = math.inf) -> array:
    """t over y = 0..horizon for the generators gens, from the level sets of
    `_level_sets`, which `arith.level_table` turns into t. Entries above
    `levels` stay INF."""
    return level_table(_level_sets(gens, horizon + 1, levels=levels), horizon + 1)


class _Engine:
    """Max-norm length oracle for one generator tuple, valid for all
    x <= horizon. Table i stops at top_i = y0_i + B_i, and reads past it use
    t_i(y + B_i) = t_i(y) + 1; once every table reaches its top the horizon
    is infinite. Element reads fold with `arith.mark_lengths`, which reads a
    table once per residue class past y0_i. Holding the generators, not the
    semigroup, keeps the instance that caches it free of reference cycles."""

    def __init__(self, gens: tuple[int, ...], horizon: int):
        self.gens = gens
        self.steps = tuple(sum(gens) - a for a in gens)
        self.y0 = tuple(shift_point(cone_table(gens[:i] + gens[i + 1 :]), b) for i, b in enumerate(self.steps))
        tops = [y + b for y, b in zip(self.y0, self.steps)]
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
    eng = _Engine(s.generators, horizon)
    s._cache["inf-engine"] = eng
    return eng


def _member_engine(s: NumericalSemigroup, x: int, ahead: int = 0) -> _Engine:
    """The engine for a query at the member x, valid up to x + ahead."""
    if x < 0 or not contains(s, x):
        raise NotAMember(f"{x} is not in {s}")
    return _get_engine(s, x + ahead)


def _sweep(gens: tuple[int, ...], lo: int, hi: int) -> dict[int, int]:
    """The gap bitsets of the frame of elements x in [lo, hi]: bit x - lo of
    gaps[d] is set iff d is the difference of two consecutive max-norm
    lengths of x. The levels run in ascending order, x is the bit axis, and
    bit b of every state int stands for x = max(lo, l * a_1) + b at level l.
    One loop walks the levels. Level l's band of x ends at
    l * a_1 + window, capped at hi: the full band while window = hi + 1,
    and where g_1 = 1 the window of width c_1 + 2 * a_1 from two levels
    past the saturation of the searches on. A reach set is masked to its
    band only where it is longer, and a steady level that repeats is walked
    once (the module docstring has the arguments)."""
    a1 = gens[0]
    total = sum(gens)
    searches = [_level_sets(gens[:i] + gens[i + 1 :], hi + 1, a) for i, a in enumerate(gens)]
    reach = [0] * len(gens)
    counter: list[int] = []  # counter[j]: the x whose counter has bit j set
    seen = 0  # the x with a length below the current level
    gaps: dict[int, int] = {}
    origin, top = lo, hi + 1  # the state holds the x in [origin, top)
    window = hi + 1  # level l's band ends at l * a_1 + window, capped at hi
    width = cone_table(gens[1:]).conductor + 2 * a1 if math.gcd(*gens[1:]) == 1 else hi + 1
    busy = 0  # the last level at which a search yielded
    prev = None  # the state after the last steady level
    level, last = -1, hi // a1
    while level < last:
        level += 1
        if searches:
            for i, search in enumerate(searches):
                r = next(search, None)
                if r is not None:
                    reach[i], busy = r, level
            if busy < level:  # every search has saturated; reach holds its sets
                searches = None
        if level * total < lo:  # every length-l element lies below the frame
            continue
        if width < window and level > busy + 2:
            # every x from (l - 1) * a_1 + width on has seen = 1 and counter
            # 0; a window that ends at or below lo is empty, and so is the state
            window = width
            top = max(origin, min(hi + 1, (level - 1) * a1 + width))
            mask = (1 << top - origin) - 1
            seen &= mask
            counter = [bits & mask for bits in counter]
            level = max(level, (lo - width) // a1 + 1)
        bottom = max(lo, level * a1)
        cut, origin = bottom - origin, bottom
        end = min(hi + 1, level * a1 + window)
        n = end - origin
        seen >>= cut
        if top < end:  # the x from top on enter the window
            seen |= (1 << n) - (1 << max(0, top - origin))
            top = end
        new = 0
        for a, r in zip(gens, reach):
            up = level * a - origin
            if up < n:  # a slice of n bits
                if r.bit_length() > n - up:
                    r &= (1 << n - up) - 1
                new |= r << up if up >= 0 else r >> -up
        carry = seen
        for j, bits in enumerate(counter):  # counter += 1 on every seen x
            bits >>= cut
            counter[j] = bits ^ carry
            carry &= bits
        if carry:
            counter.append(carry)
        hit = new & seen
        # a steady level: origin l * a_1, uncapped, out of reach of every
        # i >= 2; a full band level never is, as only level 0 has n = hi + 1
        steady = n == window and origin == level * a1 and level * (gens[1] - a1) >= window
        groups: dict[int, int] = {} if steady else gaps
        if hit:
            _split(hit, counter, len(counter) - 1, 0, groups, origin - lo)
        seen |= new
        if steady:
            state, repeats = (seen, *counter), 1
            if state == prev:
                # a fixed point of the steady map: every uncapped level
                # from here on repeats this level's groups, a_1 further up
                repeats = (hi + 1 - window) // a1 + 1 - level
            prev = state
            for d, bits in groups.items():
                # OR in bits << j * a_1 for every j < repeats, by doubling
                copies = 1
                while copies < repeats:
                    more = min(copies, repeats - copies)
                    bits |= bits << more * a1
                    copies += more
                gaps[d] = gaps.get(d, 0) | bits
            level += repeats - 1
            origin += (repeats - 1) * a1
            top += (repeats - 1) * a1
    return gaps


def _split(xs: int, counter: list[int], j: int, value: int, gaps: dict[int, int], shift: int) -> None:
    """OR into gaps[d] the x of xs whose counter reads d, and reset their
    counters to 0, by splitting xs on the counter bits from bit j down;
    value holds the bits above j."""
    while j >= 0:
        one = xs & counter[j]
        if one:
            if one != xs:
                _split(xs ^ one, counter, j - 1, value, gaps, shift)
            xs, value = one, value | 1 << j
            counter[j] ^= xs
        j -= 1
    gaps[value] = gaps.get(value, 0) | xs << shift


def _deltas(s: NumericalSemigroup, upto: int) -> dict[int, int]:
    """The gap bitsets of x = 0..upto at least: bit x of gaps[d] is set iff
    d is in the delta set of x. Each x is swept once per instance: a longer
    request sweeps only the new x into a new dict that replaces the cached
    one, which is never mutated, so concurrent readers stay safe."""
    if upto > MAX_ENGINE_HORIZON:
        raise BudgetExceeded(f"a sweep to {upto} exceeds the engine budget")
    have, done = s._cache.get("inf-deltas", (0, {}))
    if have > upto:
        return done
    new = _sweep(s.generators, have, upto)
    gaps = {d: done.get(d, 0) | new.get(d, 0) << have for d in done.keys() | new.keys()}
    s._cache["inf-deltas"] = upto + 1, gaps
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
    """Explicit start for the periodicity window, k >= 3 only: the
    all-generators step identity behind the period proof plus the two
    gap-region width conditions. None for k = 2 (the region analysis needs a
    third generator), where the engine falls back to an empirical start.

    The proof also needs the index identities at i = 1, 2, from
    T_i = shift_threshold_index(s, i, b_i + g_1), b_i the margins. Both lie
    below the sum term T > A(A - a_1)(a_k + g_1) / a_1, so they are left
    out. Schur's bound F(<D>) <= (d_min - 1)(d_max - 1) - 1 (gcd-1 D) gives
    g_i(F_i + 1) < b_min * b_max over the generators other than a_i, so
    b_1 < a_2 a_k / a_1 + 1 and b_2 <= a_k. Then, with ceil(n / a) < n / a + 1
    and a_1 < a_2 < a_k, term by term:
      T_1 < a_k(a_1 + a_2) + a_1^2 + 2 a_1 g_1 + 3 a_1 + 1 < 3 (a_2 + a_k)(a_k + g_1),
      T_2 < a_2^2 (a_k + g_1 + 1) / a_1 + a_2^2 + a_2(a_k + g_1) + 1
          <= (a_1 + a_2 + a_k)(a_2 + a_k)(a_k + g_1) / a_1,
    and A >= a_1 + a_2 + a_k puts both right sides below A(A - a_1)(a_k + g_1) / a_1.
    A change that lowers the sum term must re-establish the index identities."""
    if s.embedding_dim < 3:
        return None
    a = s.generators
    (g1, b1), (g2, b2) = ((r.complement_gcd, r.margin) for r in consts.records[:2])
    return max(
        shift_threshold_sum(s, a[-1] + g1),
        a[0] * a[1] * (3 * g1 + b1) // (a[1] - a[0]) + 1,
        a[1] * a[2] * (2 * g1 * g2 + b2) // (a[2] - a[1]) + 1,
    )


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
        # bit x of bad: the row of x differs from the row of x + p
        window = ((1 << (w * p)) - 1) << start
        bad = 0
        for bits in gaps.values():
            bad |= (bits ^ bits >> p) & window
        if not bad:
            union_to = start + w * p
            below = (1 << (union_to + 1)) - 1
            union = DeltaSet.from_iterable(d for d, bits in gaps.items() if bits & below)
            return union, PeriodicityCertificate(start, p, w, mode, union_to)
        if mode == "theorem-backed":
            raise VerificationError(
                f"periodicity falsified at x={(bad & -bad).bit_length() - 1} (period {p}) on {s}; "
                "this contradicts the structure analysis"
            )
        start = bad.bit_length()  # past the last mismatch
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
