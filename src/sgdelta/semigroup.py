"""Canonical numerical semigroup values.

A numerical semigroup is held by its minimal generator tuple (gcd 1, no
generator a nonnegative combination of the others). Construction normalizes
arbitrary generating sets and reports what it removed: the span table of the
input set keeps only its minimal generators and is filed under them too, so
the instance reads that same table. Span tables, which answer membership,
are shared by equal generator sets (`arith.cone_table`); all else is cached
per instance. Instances and tables are immutable and all operations are
pure. Instance caches are plain dict writes, atomic under the interpreter
lock; the span-table memo serves one thread, and parallel work runs in
processes, each with its own memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import INT64_MAX, ConeTable, ceil_div, cone_table, modinv, residue_table
from .errors import InvalidGenerators, NonCoprimeGenerators, NotAMember, PeriodOverflow


@dataclass(frozen=True)
class AperyTable:
    """Least semigroup element in each residue class modulo a nonzero member.

    entries[r] is the least element congruent to r; entries[0] = 0.
    """

    modulus: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.modulus:
            raise ValueError("need one entry per residue class")


@dataclass(frozen=True)
class QuotientData:
    """Per-index residual data: the gcd of all other generators, the minimal
    generators of the scaled-down semigroup they span, the inverse of the
    chosen generator modulo that gcd (0 when the gcd is 1) and the fill
    margin: how far below x / a_i the dominant max-norm lengths are
    guaranteed to fill their residue class."""

    index: int
    complement_gcd: int
    quotient_generators: tuple[int, ...]
    inverse: int
    margin: int


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]
    removed: tuple[int, ...] = field(default=(), compare=False, repr=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __repr__(self):
        return f"NumericalSemigroup{self.generators}"

    @property
    def embedding_dim(self) -> int:
        return len(self.generators)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def gen_sum(self) -> int:
        return sum(self.generators)


def _canonicalize(raw) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(minimal generators, removed inputs); validates positivity and gcd."""
    gens = [int(g) for g in raw]
    if not gens:
        raise InvalidGenerators("generator list is empty")
    if any(g < 1 for g in gens):
        raise InvalidGenerators(f"generators must be positive: {gens}")
    g = 0
    for a in gens:
        g = math.gcd(g, a)
    if g != 1:
        raise NonCoprimeGenerators(f"gcd={g}")
    uniq = sorted(set(gens))
    if uniq[0] == 1:
        raise InvalidGenerators("need at least 2 minimal generators (input spans all of Z>=0)")
    if uniq[-1] > INT64_MAX:
        # the period is at least the generator sum, so this can never fit
        raise PeriodOverflow(f"generator {uniq[-1]} exceeds the 64-bit contract")
    dup = {g for g in gens if gens.count(g) > 1}
    if len(uniq) == 2:
        # two distinct gcd-1 generators are always minimal; no table needed
        return tuple(uniq), tuple(sorted(dup))
    kept = cone_table(tuple(uniq)).gens
    return kept, tuple(sorted(set(uniq) - set(kept) | dup))


def make_semigroup(raw_generators) -> NumericalSemigroup:
    """Normalize a generating set to canonical form.

    Duplicates and non-minimal generators are silently removed and reported
    on the .removed field. gcd > 1 is a hard error. Semigroups whose
    lcm-based period would not fit in 64 signed bits are rejected.
    """
    s = NumericalSemigroup(*_canonicalize(raw_generators))
    delta_period(s)  # raises PeriodOverflow past 64 bits
    return s


def delta_period(s: NumericalSemigroup) -> int:
    """Period lcm(a_1, g_1 * a_2, A) of the per-element max-norm delta sets,
    g_1 the gcd of the non-smallest generators and A the generator sum.
    Raises PeriodOverflow when it does not fit in 64 signed bits."""
    a = s.generators
    period = math.lcm(a[0], math.gcd(*a[1:]) * a[1], s.gen_sum)
    if period > INT64_MAX:
        raise PeriodOverflow(f"period of {a} exceeds the 64-bit contract")
    return period


def cached(s: NumericalSemigroup, key, build):
    """The value cached on s under key, built by build() on first use."""
    out = s._cache.get(key)
    if out is None:
        out = s._cache[key] = build()
    return out


def span(s: NumericalSemigroup, idx: tuple[int, ...] | None = None) -> ConeTable:
    """Least-element table of the span of the generators at the 1-based
    indices idx (all of them when None), shared by equal generator sets."""
    if idx is None:
        return cone_table(s.generators)  # already sorted and distinct
    return ConeTable.build(s.generators[i - 1] for i in idx)


def apery_set(s: NumericalSemigroup, m: int) -> AperyTable:
    """Exact Apery table of s with respect to a nonzero member m."""
    if m <= 0 or not contains(s, m):
        raise NotAMember(f"{m} is not a nonzero element of {s}")
    # the span's own table is the Apery table of the multiplicity
    return cached(
        s,
        ("apery", m),
        lambda: AperyTable(m, span(s).least if m == s.multiplicity else tuple(residue_table(s.generators, m))),
    )


def contains(s: NumericalSemigroup, x: int) -> bool:
    """x has at least one factorization. x must be nonnegative."""
    if x < 0:
        raise ValueError("membership is defined on nonnegative integers")
    return cone_table(s.generators).contains(x)


def frobenius(s: NumericalSemigroup) -> int:
    """Largest integer outside s."""
    return span(s).frobenius()


def quotient_data(s: NumericalSemigroup, i: int) -> QuotientData:
    """Residual data for the 1-based generator index i.

    complement_gcd is the gcd of the other generators; quotient_generators
    minimally generate their scaled-down span (possibly (1,) when k = 2);
    inverse solves a_i * inverse = 1 mod complement_gcd, 0 for gcd 1; the
    margin is ceil(g * (F + 1) / a_i), F the Frobenius number of that span.
    """
    k = s.embedding_dim
    if not 1 <= i <= k:
        raise ValueError(f"index must be in 1..{k}")
    return cached(s, ("quotient", i), lambda: _quotient_data(s, i))


def _quotient_data(s: NumericalSemigroup, i: int) -> QuotientData:
    cone = span(s, tuple(j for j in range(1, s.embedding_dim + 1) if j != i))
    g, a_i = cone.gcd, s.generators[i - 1]
    return QuotientData(i, g, tuple(a // g for a in cone.gens), modinv(a_i % g, g), ceil_div(cone.conductor, a_i))
