"""Low-level integer and residue-class helpers.

Everything here works on bare generator tuples (no semigroup invariants
assumed) so it can serve quotient constructions like <a_j / d : j in I>,
including the degenerate span <1> = all nonnegative integers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

from .budget import MAX_APERY_MODULUS
from .errors import BudgetExceeded

# Sentinel for "no element in this residue class" in shortest-path tables.
# Small enough that sentinel + generator never overflows int64.
INF = 1 << 62

INT64_MAX = (1 << 63) - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The most span tables `cone_table` keeps: enough for a realization search
# to build each support it meets about once (p = 0, generators <= 24).
_CONE_MEMO = 4096


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0, exact on negatives."""
    return -((-a) // b)


def modinv(a: int, m: int) -> int:
    """Inverse of a modulo m in [0, m-1]; m >= 1 and gcd(a, m) = 1."""
    return pow(a, -1, m)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24 with the fixed bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Least prime strictly greater than n."""
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


def apery_table(gens: tuple[int, ...], m: int) -> list[int]:
    """Least element of the nonnegative span of gens in each class mod m.

    Returned list w has w[r] = min{n in span : n = r mod m}, INF when the
    class is unreachable (happens iff gcd(gens) does not generate r mod m).
    Shortest-path relaxation over the residue graph with arc weights gens.
    """
    if m <= 0:
        raise ValueError("modulus must be positive")
    if m > MAX_APERY_MODULUS:
        raise BudgetExceeded(f"residue table of size {m} exceeds the table budget")
    dist = [INF] * m
    dist[0] = 0
    heap = [(0, 0)]
    # generators that are multiples of m never change the residue and never
    # improve a distance, so they can be dropped
    arcs = [(a, a % m) for a in gens if a % m]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for a, s in arcs:
            r2 = r + s
            if r2 >= m:
                r2 -= m
            d2 = d + a
            if d2 < dist[r2]:
                dist[r2] = d2
                heapq.heappush(heap, (d2, r2))
    return dist


@dataclass(frozen=True)
class ConeTable:
    """Membership oracle for the nonnegative integer span of a generator set.

    gcd is factored out first: y belongs iff gcd | y and the reduced value
    clears the least-member table of its residue class.
    """

    gens: tuple[int, ...]
    gcd: int
    modulus: int
    least: tuple[int, ...]

    @classmethod
    def build(cls, gens) -> "ConeTable":
        """The one shared span table of gens, in any order and with repeats."""
        return cone_table(tuple(sorted(set(int(g) for g in gens))))

    def contains(self, y: int) -> bool:
        if y < 0 or y % self.gcd:
            return False
        q = y // self.gcd
        return q >= self.least[q % self.modulus]

    def minimal(self) -> tuple[int, ...]:
        """Minimal generators of the span, in the units of gens: a generator
        is redundant iff subtracting a smaller one lands back in the span."""
        return tuple(g for n, g in enumerate(self.gens) if not any(self.contains(g - a) for a in self.gens[:n]))

    def frobenius_reduced(self) -> int:
        """Largest integer outside the gcd-scaled-down span; -1 when that
        span is all of the nonnegative integers."""
        return max(self.least) - self.modulus

    def frobenius(self) -> int:
        """Largest integer not in the span itself; requires gcd = 1."""
        if self.gcd != 1:
            raise ValueError("frobenius needs a gcd-1 span")
        return self.frobenius_reduced()


@lru_cache(maxsize=_CONE_MEMO)
def cone_table(gens: tuple[int, ...]) -> ConeTable:
    """The span table of sorted, distinct gens, shared process-wide (tables are
    frozen); past `_CONE_MEMO` sets the least recently used is rebuilt."""
    if not gens or gens[0] < 1:
        raise ValueError("cone generators must be positive")
    d = math.gcd(*gens)
    reduced = tuple(g // d for g in gens)
    m = reduced[0]
    if m == 1:
        return ConeTable(gens, d, 1, (0,))
    return ConeTable(gens, d, m, tuple(apery_table(reduced, m)))
