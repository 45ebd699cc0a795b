"""Exact 0-norm delta sets via the support-stability bound.

For a support set I with d = gcd{a_i : i in I}, x has a factorization with
support exactly I iff d | x - sum_I and (x - sum_I)/d lies in the span of
{a_i / d}. Once x clears every support's threshold
    d * (F(<a_i/d : i in I>) + 1) + sum_I,
having any support implies having every superset support, so the 0-length
set is an interval and per-element deltas collapse to {1} or nothing.

The span tables of the supports (`_cones`) give those thresholds and the
support sizes of one element. The union of per-element deltas up to a
horizon H does not read them: it is a subset DP over Python-int bitsets of
H + 1 bits, at most 2^k * log2(H / a_1) shifted ORs in all (see
`_delta_union_to`).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .arith import ConeTable
from .budget import DEFAULT_ZERO_BUDGET, MAX_SUBSET_DIM, Budget
from .errors import BudgetExceeded, NotAMember
from .factorization import DeltaSet
from .semigroup import NumericalSemigroup, cached, span


class SupportProfile(namedtuple("SupportProfile", "support gcd threshold")):
    """support: 1-based generator indices."""

    __slots__ = ()


def _cones(s: NumericalSemigroup) -> list[tuple[tuple[int, ...], int, ConeTable]]:
    """(support, sum of its generators, membership oracle) per nonempty I."""
    k = s.embedding_dim
    if k > MAX_SUBSET_DIM:
        raise BudgetExceeded(f"2^{k} support subsets exceed the scan budget")
    return cached(
        s,
        "zero-cones",
        lambda: [
            (idx, sum(s.generators[i - 1] for i in idx), span(s, idx))
            for size in range(1, k + 1)
            for idx in combinations(range(1, k + 1), size)
        ],
    )


def support_profiles(s: NumericalSemigroup) -> list[SupportProfile]:
    return [SupportProfile(idx, cone.gcd, cone.conductor + total) for idx, total, cone in _cones(s)]


def delta0_stability_bound(s: NumericalSemigroup) -> int:
    """Least X0 from the profile table: above it every 0-length set is an
    interval. Taken over all nonempty supports (over-approximation is safe)."""
    return max(p.threshold for p in support_profiles(s))


def support_length_set(s: NumericalSemigroup, x: int) -> tuple[int, ...]:
    """Sorted achievable support sizes of x (empty iff x not in s)."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return (0,)  # the empty factorization
    sizes = set()
    for idx, total, cone in _cones(s):
        if cone.contains(x - total):
            sizes.add(len(idx))
    return tuple(sorted(sizes))


def check_l0_interval(s: NumericalSemigroup, x: int) -> bool:
    """True iff the 0-length set of x has no holes."""
    sizes = support_length_set(s, x)
    if not sizes:
        raise NotAMember(f"{x} is not in {s}")
    return sizes[-1] - sizes[0] + 1 == len(sizes)


def _delta_union_to(s: NumericalSemigroup, horizon: int) -> set[int]:
    """Union of per-element 0-delta sets over x in [0, horizon], by a subset
    DP over int bitsets: bit y of a support's span is set iff y is in the
    span of its generators, and adding a generator a ORs in copies of the
    span shifted by a, 2a, 4a, ... . Supports are walked depth-first over
    prefixes; each span is kept only up to the room its supersets can use,
    horizon minus the support sum, and is shifted by that sum into the
    bitset of its size."""
    gens = s.generators
    k = len(gens)
    by_size = [0] * (k + 1)

    def visit(span: int, total: int, size: int, start: int) -> None:
        for i in range(start, k):
            a = gens[i]
            room = horizon - total - a
            if room < 0:
                break  # generators ascend, so every later support is past the horizon
            mask = (1 << room + 1) - 1
            grown = span & mask
            step = a
            while step <= room:
                grown |= (grown << step) & mask
                step <<= 1
            by_size[size + 1] |= grown << total + a
            visit(grown, total + a, size + 1, i + 1)

    visit(1, 0, 0, 0)
    # a gap hi - lo occurs iff some x has supports of sizes lo and hi and none
    # of a size in between
    union: set[int] = set()
    for lo in range(1, k):
        between = 0
        for hi in range(lo + 1, k + 1):
            if by_size[lo] & by_size[hi] & ~between:
                union.add(hi - lo)
            between |= by_size[hi]
    return union


def delta0_semigroup(s: NumericalSemigroup, budget: Budget | None = None) -> DeltaSet:
    """Exact 0-delta set of the whole semigroup: {1} union everything seen
    up to the stability bound (beyond it nothing new can appear)."""
    budget = budget or DEFAULT_ZERO_BUDGET
    x0 = delta0_stability_bound(s)
    if x0 > budget.max_element:
        raise BudgetExceeded(f"stability bound {x0} exceeds element budget {budget.max_element}")
    return delta0_union_brute(s, x0)


def delta0_union_brute(s: NumericalSemigroup, horizon: int) -> DeltaSet:
    """{1} union the 0-deltas up to an arbitrary horizon. `delta0_semigroup`
    reads it at the stability bound; read past that bound it checks the
    bound, not the DP."""
    return DeltaSet.from_iterable(_delta_union_to(s, horizon) | {1})
