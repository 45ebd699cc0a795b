"""Exhaustive realization search: which semigroups in a bounded space have a
prescribed 0- or max-norm delta set.

Candidates are generator tuples, enumerated by ascending embedding
dimension, then lexicographically; a tuple that is not the minimal generator
set of its span, or whose gcd exceeds 1, is skipped so no semigroup is
tested twice. Each probe builds its own instance, in whichever process runs
it. A search never claims nonexistence beyond its bounds, and every hit is
recomputed on a fresh instance before being reported.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from itertools import combinations, islice

from .arith import cone_table
from .budget import Budget
from .errors import BudgetExceeded, SemigroupError
from .factorization import P0, PINF, DeltaSet, delta_set_of_semigroup
from .parallel import parallel
from .semigroup import make_semigroup


class SearchReport(namedtuple("SearchReport", "target p max_dim max_gen hits skipped tested exhausted")):
    """skipped holds the budget-limited candidates, each with its reason."""

    __slots__ = ()


def candidates(max_dim: int, max_gen: int, min_dim: int = 2):
    """Minimal gcd-1 generator tuples by ascending embedding dimension, then
    lexicographically."""
    for k in range(min_dim, max_dim + 1):
        for gens in combinations(range(2, max_gen + 1), k):
            if math.gcd(*gens) == 1 and cone_table(gens).gens == gens:
                yield gens


def _probe(args):
    gens, p, target, budget = args
    try:
        d = delta_set_of_semigroup(make_semigroup(gens), p, budget)
    except BudgetExceeded as e:
        return gens, "budget", str(e)
    return gens, "hit" if d.values == target else "miss", ""


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
    cands = candidates(max_dim, max_gen)
    hits: list[tuple[int, ...]] = []
    skipped: list[tuple[tuple[int, ...], str]] = []
    tested = 0
    exhausted = True
    chunk = 64
    with parallel(workers) as map_in_order:
        while batch := list(islice(cands, chunk)):
            if deadline is not None and time.monotonic() > deadline:
                exhausted = False
                break
            for gens, status, detail in map_in_order(_probe, [(gens, p, target.values, budget) for gens in batch]):
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
