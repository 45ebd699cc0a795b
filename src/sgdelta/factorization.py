"""Factorization sets and p-length invariants (p in {0, 1, inf}).

A factorization of x is an exponent tuple z with sum(z_i * a_i) = x, aligned
to the generator order. Enumeration recurses from the largest generator down
(tightest branch bound first) and prunes every branch whose remainder is
outside the shared span table of the remaining prefix of generators. It
serves callers that need the tuples and is the oracle for the length sets,
which come from one exact engine per norm: the support cones (p = 0), a
least-part-count table (p = 1) and the min-max tables (p = inf). The
max-norm engine loads only for p = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterator

from .arith import ceil_div, cone_table, level_table, mark_lengths, shift_point
from .budget import MAX_ENGINE_HORIZON, MAX_FACTORIZATIONS, Budget
from .errors import BudgetExceeded, NotAMember
from .semigroup import NumericalSemigroup, contains

P0 = 0
P1 = 1
PINF = math.inf


def make_factorization(s: NumericalSemigroup, exponents, x: int | None = None) -> tuple[int, ...]:
    """Checked constructor: exponents must be nonnegative, aligned to the
    generators, and (when x is given) actually factor x."""
    z = tuple(int(c) for c in exponents)
    if len(z) != s.embedding_dim or any(c < 0 for c in z):
        raise ValueError(f"bad exponent vector {z} for {s}")
    value = sum(c * a for c, a in zip(z, s.generators))
    if x is not None and value != x:
        raise ValueError(f"{z} factors {value}, not {x}")
    return z


def factored_value(s: NumericalSemigroup, z) -> int:
    return sum(c * a for c, a in zip(z, s.generators))


def support(z) -> tuple[int, ...]:
    """1-based indices of the nonzero exponents."""
    return tuple(i for i, c in enumerate(z, start=1) if c)


def p_length(z, p) -> int:
    """0-length = support size, 1-length = exponent sum, inf-length = max."""
    if p == P0:
        return sum(1 for c in z if c)
    if p == P1:
        return sum(z)
    if p == PINF:
        return max(z, default=0)
    raise ValueError(f"p must be 0, 1 or inf, got {p!r}")


def iter_factorizations(s: NumericalSemigroup, x: int) -> Iterator[tuple[int, ...]]:
    """Yield every factorization of x exactly once (empty iff x not in s); no
    allocation is sized by x. Raises BudgetExceeded past the engine horizon,
    before any span table is requested."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x > MAX_ENGINE_HORIZON:
        raise BudgetExceeded(f"enumeration of {x} exceeds the engine horizon")
    gens = s.generators
    k = len(gens)
    # below[j] answers membership in the span of gens[: j + 1]
    below = [cone_table(gens[: j + 1]).contains for j in range(k)]
    if not below[-1](x):
        return
    z = [0] * k

    def rec(j: int, rem: int) -> Iterator[tuple[int, ...]]:
        if j == 0:
            z[0] = rem // gens[0]
            yield tuple(z)
            return
        a = gens[j]
        for c in range(rem // a, -1, -1):
            if below[j - 1](rem - c * a):
                z[j] = c
                yield from rec(j - 1, rem - c * a)

    yield from rec(k - 1, x)


def enumerate_factorizations(s: NumericalSemigroup, x: int) -> set[tuple[int, ...]]:
    """The complete factorization set of x as exponent tuples. Raises
    BudgetExceeded past MAX_FACTORIZATIONS tuples; the length queries
    need no tuples."""
    out = set()
    for z in iter_factorizations(s, x):
        out.add(z)
        if len(out) > MAX_FACTORIZATIONS:
            raise BudgetExceeded(f"more than {MAX_FACTORIZATIONS} factorizations of {x}")
    return out


@dataclass(frozen=True)
class LengthSet:
    """Distinct p-lengths over all factorizations of one element, sorted."""

    p: object
    values: tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("length values must be strictly increasing")

    @property
    def min_value(self) -> int:
        return self.values[0]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class DeltaSet:
    """Successive differences of a sorted length set, deduplicated."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(v < 1 for v in self.values):
            raise ValueError("delta values are positive")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("delta values must be strictly increasing")

    @classmethod
    def from_iterable(cls, vals) -> "DeltaSet":
        return cls(tuple(sorted(set(int(v) for v in vals))))

    def as_set(self) -> set[int]:
        return set(self.values)

    def __contains__(self, v) -> bool:
        return v in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def delta_of_sorted_set(values) -> DeltaSet:
    """Deltas of an arbitrary strictly increasing integer sequence."""
    vals = list(values)
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("input must be strictly increasing")
    return DeltaSet.from_iterable(b - a for a, b in zip(vals, vals[1:]))


def _one_norm_shift_point(parts: tuple[int, ...]) -> int:
    """y0 from which m(y + b) = m(y) + 1, m(y) the least number of the
    ascending parts summing to y (INF if none) and b the largest part: the
    `arith.shift_point` of <d>, d = {b - p : p a smaller part}, at step b; 0
    for a single part (k = 2). Its premises, with n* as there:
      - m(y) >= n*(y): n parts summing to y give n * b - y as the sum of
        their b - p, and n >= y / b;
      - a representation w of n * b - y with sum(w) <= n gives y in n
        parts: p for each b - p in w, and n - sum(w) copies of b."""
    if len(parts) == 1:
        return 0
    b = parts[-1]
    return shift_point(cone_table(tuple(b - p for p in reversed(parts[:-1]))), b)


def _one_norm_lengths(s: NumericalSemigroup, x: int) -> list[int]:
    """1-lengths of a member x, the 1-norm analogue of the min-max tables.

    A length-l factorization puts l - (z_2 + ... + z_k) copies on a_1, so l is
    a length iff m[x - l * a_1] <= l, where m[y] is the least number of parts
    a_i - a_1 (i >= 2) summing to y. A level search on a bitset of the y
    summing from at most n parts adds one part per level, and
    `arith.level_table` turns the levels into m; no level above x // a_1,
    the largest length, is needed. The table stops at y0 + b_max,
    `_one_norm_shift_point`'s fold, and is read once per residue class past
    y0 (`mark_lengths`).
    """
    if x > MAX_ENGINE_HORIZON:
        raise BudgetExceeded(f"1-norm length table to {x} exceeds the engine budget")
    gens = s.generators
    a1 = gens[0]
    parts = tuple(a - a1 for a in gens[1:])
    y0 = _one_norm_shift_point(parts)
    lo = ceil_div(x, gens[-1])
    top = min(x - lo * a1, y0 + parts[-1])

    def reaches():
        mask = (1 << (top + 1)) - 1
        reach = 1
        yield reach
        for _ in range(x // a1):
            new = reach
            for b in parts:
                new |= reach << b  # each shift reads the last level: one more part
            new &= mask
            if new == reach:
                return
            yield new
            reach = new

    marks = bytearray(x // a1 + 1)
    mark_lengths(marks, level_table(reaches(), top + 1), y0, parts[-1], x, a1, lo)
    return list(compress(range(len(marks)), marks))


def length_set(s: NumericalSemigroup, x: int, p) -> LengthSet:
    """Sorted distinct p-lengths of x from the exact engine of that norm;
    no factorization is enumerated."""
    if x < 0 or not contains(s, x):
        raise NotAMember(f"{x} is not in {s}")
    if p == P0:
        from .zero import support_length_set

        return LengthSet(p, support_length_set(s, x))
    if p == P1:
        return LengthSet(p, tuple(_one_norm_lengths(s, x)))
    if p == PINF:
        from .infinity import infinity_length_set

        return infinity_length_set(s, x)
    raise ValueError(f"p must be 0, 1 or inf, got {p!r}")


def delta_set_of_element(s: NumericalSemigroup, x: int, p) -> DeltaSet:
    return delta_of_sorted_set(length_set(s, x, p).values)


def delta_set_of_semigroup(s: NumericalSemigroup, p, budget: Budget | None = None) -> DeltaSet:
    """Exact delta set of the whole semigroup from the engine of that norm:
    the support-stability union (p = 0) or the certified max-norm union
    (p = inf, certificate dropped). Raises BudgetExceeded past `budget`."""
    if p == P0:
        from .zero import delta0_semigroup

        return delta0_semigroup(s, budget=budget)
    if p == PINF:
        from .infinity import delta_inf_semigroup

        return delta_inf_semigroup(s, budget=budget)[0]
    raise ValueError(f"semigroup delta sets are computed for p = 0 and p = inf, got {p!r}")
