"""Low-level integer and residue-class helpers.

Everything here works on bare generator tuples (no semigroup invariants
assumed) so it can serve quotient constructions like <a_j / d : j in I>,
including the degenerate span <1> = all nonnegative integers.

Residue tables are built by the round robin of Böcker & Lipták ("A fast and
simple algorithm for the money changing problem", Algorithmica 48, 2007):
adding one generator to a table mod m takes O(m) steps. A span table grows
from its least generator alone, one generator at a time in ascending order,
skipping each one the table already holds, so it keeps exactly the minimal
generators of the span; a step the memo already holds costs a lookup.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .budget import MAX_APERY_MODULUS
from .errors import BudgetExceeded

if TYPE_CHECKING:
    from array import array

# Sentinel for "no element in this residue class" in residue tables.
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


def mark_lengths(mask: bytearray, table, y0: int, step: int, x: int, a: int, lo: int = 0) -> None:
    """Set mask[l] for every l in [lo, x // a] with f(x - l * a) <= l, where
    f(y) = table[y] below y0 and f(y + step) = f(y) + 1 from y0 on, so
    f(y) = table[y0 + (y - y0) % step] + (y - y0) // step there. table holds
    f up to y0 + step - 1, or every y <= x - lo * a it is read at; INF marks
    an unreachable y, and a table that is cut short may hold INF wherever f
    exceeds every l it is compared with.

    The fold region, l <= (x - y0) // a, takes no read per l: there
    u = x - y0 - l * a has a residue mod step of period P = step / gcd(a, step)
    in l, and u // step falls by e = a / gcd(a, step) per period. So along
    l = c + j * P the test reads table[y0 + r] + q - j * e <= c + j * P, with
    q, r = divmod(u at c, step), and it holds exactly from
    j = ceil((table[y0 + r] + q - c) / (P + e)) on. Past that region each l is
    one plain read."""
    hi = x // a
    last = min(hi, (x - y0) // a)  # the fold region is [lo, last]
    g = math.gcd(a, step)
    period, span = step // g, (step + a) // g
    u = x - y0 - lo * a
    for c in range(lo, min(last + 1, lo + period)):
        q, r = divmod(u, step)
        u -= a
        need = table[y0 + r] + q - c
        first = c - period * (-need // span) if need > 0 else c
        if first <= last:
            mask[first : last + 1 : period] = b"\x01" * ((last - first) // period + 1)
    for l in range(max(lo, last + 1), hi + 1):
        if table[x - l * a] <= l:
            mask[l] = 1


def shift_point(rest: ConeTable, step: int) -> int:
    """y0 = ceil(step * (c + h * step) / d_min), from which f(y + step) =
    f(y) + 1 for each f with the premises below. rest is the span <D>, with
    gcd g, least element d_min and conductor c; h = g / gcd(g, step). With
    n*(y) = min{n >= ceil(y / step) : n * step - y in <D>} (INF if none):
      - f(y) >= n*(y) for every y;
      - f(y) <= n if n * step - y has a representation by D with <= n parts.
    Lemma: n*(y + step) = n*(y) + 1 (n shifts by one), and for y >= y0 each
    representation of e = n * step - y, n = n*(y), has fewer than n parts.
    The n with g | n * step - y form one class mod h: either n is the least
    n >= ceil(y / step) of its class and e < h * step, or e - h * step >= 0
    is a multiple of g outside <D>, so e - h * step < c. So a representation
    of e has at most e / d_min < y0 / step <= n parts, f = n* from y0 on,
    and an INF stays INF."""
    g = rest.gcd
    h = g // math.gcd(g, step)
    return ceil_div(step * (rest.conductor + h * step), rest.gens[0])


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_INF_TOP_BYTES = bytes.maketrans(b"01", b"\x00" + INF.to_bytes(8, "little")[-1:])


def _spread(bits: int, size: int, chars: bytes = _BIT_BYTES) -> bytes:
    """One byte per bit y < size of bits, mapped by chars from b"0"/b"1"."""
    return f"{bits:0{size}b}"[::-1].encode().translate(chars)


def level_table(reaches: Iterable[int], size: int) -> array:
    """t[y] for y < size: the index of the first set in `reaches` that holds
    y, INF if none does. The sets are int bitsets over y < size, each one
    holding the one before it.

    No entry is written per level. The bits of t are kept as one bitset per
    bit j: the y whose level has bit j set. Bit j of the level is set on
    runs of consecutive levels, and the y first reached in a run from level s
    to level e are reach_e ^ reach_(s - 1), so each run takes one XOR. Going
    to level l, bit v turns on, v the trailing zeros of l, and the bits
    below it turn off, which ends their runs: two bitset operations per
    level on average, whatever the number of entries each level reaches.
    At the end the bitsets are spread to one byte per y and written into
    the bytes of t, eight bits of the level at a time, and the top byte of
    an unreached y gets INF's."""
    # a shared library: imported here, so the 0-norm commands never load it
    from array import array

    slices: list[int] = []
    opened: list[int] = []  # opened[j]: the set before the open run of bit j
    level, prev = 0, 0
    for level, reach in enumerate(reaches):
        if level:
            on = (level & -level).bit_length() - 1  # bits below it turn off
            for j in range(on):
                slices[j] |= prev ^ opened[j]
            if on == len(slices):
                slices.append(0)
                opened.append(prev)
            else:
                opened[on] = prev
        prev = reach
    for j in range(len(slices)):
        if level >> j & 1:
            slices[j] |= prev ^ opened[j]
    t = array("q", bytes(8 * size))
    view = memoryview(t).cast("B")
    for byte in range(0, len(slices), 8):
        value = 0
        for j, bits in enumerate(slices[byte : byte + 8]):
            value |= int.from_bytes(_spread(bits, size), "little") << j
        view[byte // 8 :: 8] = value.to_bytes(size, "little")
    view[7::8] = _spread(prev ^ ((1 << size) - 1), size, _INF_TOP_BYTES)
    return t


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


def _empty_table(m: int) -> list[int]:
    """The residue table mod m of the empty span: 0, then INF in every other
    class. Raises BudgetExceeded past `MAX_APERY_MODULUS`, before allocating."""
    if m <= 0:
        raise ValueError("modulus must be positive")
    if m > MAX_APERY_MODULUS:
        raise BudgetExceeded(f"residue table of size {m} exceeds the table budget")
    least = [INF] * m
    least[0] = 0
    return least


def _round_robin(least: list[int], m: int, a: int) -> None:
    """Add generator a to the residue table least mod m, in place.

    The arcs r -> r + a split the classes into gcd(a, m) cycles. Nothing on a
    cycle improves its least entry, so one walk around the cycle from there,
    relaxing each class from the one before, finishes it. The cycle through
    0 starts at 0; a cycle whose classes are all INF stays unreachable.
    """
    step = a % m
    if not step:
        return  # a multiple of m never improves a class
    cycles = math.gcd(step, m)
    turns = m // cycles - 1
    for c in range(cycles):
        r = min(range(c, m, cycles), key=least.__getitem__) if c else 0
        n = least[r]
        if n == INF:
            continue
        for _ in range(turns):
            r += step
            if r >= m:
                r -= m
            n += a
            old = least[r]
            if n < old:
                least[r] = n
            else:
                n = old


def residue_table(gens, m: int) -> list[int]:
    """Least element of the nonnegative span of gens in each class mod m.

    Returned list w has w[r] = min{n in span : n = r mod m}, INF when the
    class is unreachable (happens iff gcd(gens) does not generate r mod m).
    """
    least = _empty_table(m)
    for a in gens:
        _round_robin(least, m, a)
    return least


@dataclass(frozen=True)
class ConeTable:
    """Membership oracle for the nonnegative integer span of a generator set,
    held by the span's minimal generators gens.

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

    @property
    def conductor(self) -> int:
        """g * (F + 1), F the Frobenius number of the span divided by g (-1
        if that is N): each multiple of g from here on is in the span."""
        return self.gcd * (max(self.least) - self.modulus + 1)

    def frobenius(self) -> int:
        """Largest integer not in the span itself; requires gcd = 1."""
        if self.gcd != 1:
            raise ValueError("frobenius needs a gcd-1 span")
        return self.conductor - 1


# The memo of `cone_table`, least recently used first.
_TABLES: OrderedDict[tuple[int, ...], ConeTable] = OrderedDict()


def cone_table(gens: tuple[int, ...]) -> ConeTable:
    """The span table of sorted, distinct gens, shared process-wide (tables are
    frozen) and filed under gens and under its minimal generators; past
    `_CONE_MEMO` sets the least recently used is rebuilt."""
    table = _TABLES.get(gens)
    if table is not None:
        _TABLES.move_to_end(gens)
        return table
    table = _TABLES[gens] = _build_cone(gens)
    _TABLES.setdefault(table.gens, table)
    while len(_TABLES) > _CONE_MEMO:
        _TABLES.popitem(last=False)
    return table


def _build_cone(gens: tuple[int, ...]) -> ConeTable:
    """The span table of sorted, distinct gens, grown from gens[0] alone: a
    generator the table already holds is redundant and skipped, and any other
    takes the memoized table of the kept generators plus it, else one
    `_extend` step. So the table's gens are the span's minimal generators.
    Steps outside the memo are not memoized, so it holds only asked-for sets
    and their minimal generators."""
    if not gens or gens[0] < 1:
        raise ValueError("cone generators must be positive")
    table = ConeTable(gens[:1], gens[0], 1, (0,))
    for a in gens[1:]:
        if not table.contains(a):
            table = _TABLES.get(table.gens + (a,)) or _extend(table, a)
    return table


def _extend(table: ConeTable, a: int) -> ConeTable:
    """The span table of table.gens plus a, one round-robin step from table."""
    d = math.gcd(table.gcd, a)
    m = table.gens[0] // d
    # in units of d the old span is e times its reduced span, so its class
    # r mod m / e lifts to class e * r mod m, with e times the value
    e = table.gcd // d
    least = _empty_table(m)
    least[::e] = [e * v for v in table.least] if e > 1 else table.least
    _round_robin(least, m, a // d)
    return ConeTable(table.gens + (a,), d, m, tuple(least))
