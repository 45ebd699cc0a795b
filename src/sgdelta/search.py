"""Exhaustive realization search: which semigroups in a bounded space have a
prescribed 0- or max-norm delta set.

Candidates are enumerated by ascending embedding dimension, then
lexicographically; non-canonical generator lists are skipped so no semigroup
is tested twice, and each candidate is probed on the instance that tested
its canonicity. A search never claims nonexistence beyond its bounds, and
every hit is recomputed on a fresh instance before being reported.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations, islice

from .budget import Budget
from .errors import BudgetExceeded, SemigroupError
from .factorization import P0, PINF, DeltaSet, delta_set_of_semigroup
from .parallel import pmap
from .semigroup import make_semigroup


@dataclass(frozen=True)
class SearchReport:
    target: tuple[int, ...]
    p: object
    max_dim: int
    max_gen: int
    hits: tuple[tuple[int, ...], ...]
    skipped: tuple[tuple[tuple[int, ...], str], ...]  # budget-limited candidates
    tested: int
    exhausted: bool


def candidates(max_dim: int, max_gen: int, min_dim: int = 2):
    """Canonical semigroups by ascending embedding dimension, then
    lexicographically by generators; each is the instance built to test
    canonicity."""
    for k in range(min_dim, max_dim + 1):
        for gens in combinations(range(2, max_gen + 1), k):
            g = 0
            for a in gens:
                g = math.gcd(g, a)
            if g != 1:
                continue
            try:
                s = make_semigroup(gens)
            except SemigroupError:
                continue
            if s.generators == gens:
                yield s


def _probe(args):
    s, p, target, budget = args
    try:
        d = delta_set_of_semigroup(s, p, budget)
    except BudgetExceeded as e:
        return s.generators, "budget", str(e)
    finally:
        # a batch holds its instances until it ends; drop each one's tables
        # and sweeps once it is probed
        s._cache.clear()
    return s.generators, "hit" if d.values == target else "miss", ""


def search_delta(
    target,
    p,
    max_dim: int,
    max_gen: int,
    budget: Budget | None = None,
    workers: int = 1,
    max_seconds: float | None = None,
) -> SearchReport:
    """Collect every canonical semigroup in the bounded space whose exact
    delta set equals `target`. Requires 1 in the target: a nonempty 0-delta
    set always contains 1 (0-length sets are eventually intervals), and so
    does a max-norm delta set (unit gaps always occur for large elements).
    Past `max_seconds` no further batch starts and the report is not
    exhausted."""
    if p not in (P0, PINF):
        raise ValueError("search supports p = 0 and p = inf")
    if max_dim < 2 or max_gen < 3:
        # the space would hold no candidate, and its search would pass vacuously
        raise ValueError(f"no semigroup has embedding dimension 2..{max_dim} and generators 2..{max_gen}")
    if max_seconds is not None and not 0 <= max_seconds < math.inf:
        # NaN would never pass the deadline, and NaN or inf is no JSON echo
        raise ValueError(f"the time budget must be finite and nonnegative, got {max_seconds}")
    target = DeltaSet.from_iterable(target)
    if 1 not in target:
        reason = (
            "every nonempty 0-delta set of a numerical semigroup contains 1"
            if p == P0
            else "every max-norm delta set of a numerical semigroup contains 1"
        )
        raise ValueError(f"unrealizable target {list(target.values)}: {reason}")
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    # batches are drawn as they start, so one batch of instances is alive at
    # a time
    cands = candidates(max_dim, max_gen)
    hits: list[tuple[int, ...]] = []
    skipped: list[tuple[tuple[int, ...], str]] = []
    tested = 0
    exhausted = True
    chunk = 64
    while batch := list(islice(cands, chunk)):
        if deadline is not None and time.monotonic() > deadline:
            exhausted = False
            break
        results = pmap(_probe, [(s, p, target.values, budget) for s in batch], workers)
        for gens, status, detail in results:
            tested += 1
            if status == "budget":
                skipped.append((gens, detail))
                exhausted = False
            elif status == "hit":
                # re-verify on a fresh instance before emission
                if delta_set_of_semigroup(make_semigroup(gens), p, budget).values != target.values:
                    raise SemigroupError(f"re-verification failed for {gens}")
                hits.append(gens)
    return SearchReport(
        target.values, p, max_dim, max_gen, tuple(hits), tuple(skipped), tested, exhausted
    )
