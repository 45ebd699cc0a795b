"""Betti elements, minimal presentations and 3-generator gluing analysis.

Connectivity of the factorization graph of x (vertices = factorizations,
edges = overlapping support) is decided on the index graph instead: vertices
are the generator indices i with x - a_i in S, and i ~ j iff
x - a_i - a_j in S. A factorization's support is a clique there, and two
factorizations sharing index i are adjacent, so both graphs have identical
component structure, which keeps Betti scans cheap for large generators.

Every Betti element b satisfies b = a_j + w for some j and some nonzero w in
the Apery table of the smallest generator: pick i, j in different components
of b's graph; then b - a_j is in S but (b - a_j) - a_1 is not (either 1 sits
in i's component, or b - a_1 is not in S at all).
"""

from __future__ import annotations

from collections import namedtuple

from .factorization import DeltaSet, factored_value, support
from .families import verify_gluing
from .semigroup import (
    NumericalSemigroup,
    cached,
    make_semigroup,
    quotient_data,
    span,
)


class Trade(namedtuple("Trade", "left right")):
    """Two factorizations of the same element with disjoint supports,
    oriented so the lexicographically smaller side comes first."""

    __slots__ = ()

    def sides(self) -> frozenset:
        return frozenset((self.left, self.right))


def make_trade(s: NumericalSemigroup, z1, z2) -> Trade:
    z1, z2 = tuple(z1), tuple(z2)
    if z1 == z2:
        raise ValueError("a trade needs two distinct factorizations")
    if factored_value(s, z1) != factored_value(s, z2):
        raise ValueError("trade sides factor different elements")
    if set(support(z1)) & set(support(z2)):
        raise ValueError("trade sides must have disjoint supports")
    return Trade(*sorted((z1, z2)))


class MinimalPresentation(namedtuple("MinimalPresentation", "trades betti")):
    __slots__ = ()


class GluingExpression(namedtuple("GluingExpression", "pivot_index scale quotient")):
    """S = <a_pivot> + scale * S' with S' two-generated; scale is the gcd of
    the non-pivot generators and the pivot sits in S' as a non-generator."""

    __slots__ = ()


def index_graph_components(s: NumericalSemigroup, x: int) -> list[tuple[int, ...]]:
    """Connected components (sorted 1-based index tuples) of the index graph
    of x; one component per factorization-graph component."""
    gens = s.generators
    member = span(s).contains
    verts = [i for i, a in enumerate(gens, start=1) if member(x - a)]
    parent = {i: i for i in verts}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u in range(len(verts)):
        for v in range(u + 1, len(verts)):
            i, j = verts[u], verts[v]
            if member(x - gens[i - 1] - gens[j - 1]):
                parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for i in verts:
        comps.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(c)) for c in comps.values())


def _betti_candidates(s: NumericalSemigroup) -> list[int]:
    w = span(s).least  # the Apery table of the multiplicity
    cand = {a + v for a in s.generators for v in w if v}
    return sorted(cand)


def betti_elements(s: NumericalSemigroup) -> list[int]:
    """Elements whose factorization graph is disconnected, sorted."""
    betti = cached(
        s, "betti", lambda: [x for x in _betti_candidates(s) if len(index_graph_components(s, x)) > 1]
    )
    return list(betti)


def _component_representative(s: NumericalSemigroup, b: int, comp: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least factorization of b whose support lies in comp:
    each index of comp in turn takes the least exponent that leaves a
    remainder the later indices span, and the last takes the quotient."""
    z = [0] * s.embedding_dim
    rest = b
    for n, i in enumerate(comp[:-1]):
        a, later = s.generators[i - 1], span(s, comp[n + 1 :])
        z[i - 1] = next(c for c in range(rest // a + 1) if later.contains(rest - c * a))
        rest -= z[i - 1] * a
    z[comp[-1] - 1] = rest // s.generators[comp[-1] - 1]
    return tuple(z)


def minimal_presentation(s: NumericalSemigroup) -> MinimalPresentation:
    """One deterministic minimal presentation: per Betti element, a star of
    trades joining each component's lexicographically least factorization
    to the first component's. The trade count (components - 1 summed over
    Betti elements) is invariant across any valid selection."""
    trades = []
    betti = betti_elements(s)
    for b in betti:
        comps = index_graph_components(s, b)
        reps = [_component_representative(s, b, c) for c in comps]
        root = reps[0]
        for other in reps[1:]:
            trades.append(make_trade(s, root, other))
    return MinimalPresentation(tuple(trades), tuple(betti))


def singleton_support_presentation_exists(s: NumericalSemigroup) -> bool:
    """True iff some minimal presentation uses only trades whose two sides
    are powers of single generators: every component of every Betti
    element's graph must own a divisor of the element."""
    for b in betti_elements(s):
        for comp in index_graph_components(s, b):
            if not any(b % s.generators[i - 1] == 0 for i in comp):
                return False
    return True


def gluing_expressions_3gen(s: NumericalSemigroup) -> list[GluingExpression]:
    """All decompositions of a 3-generated semigroup as pivot + scaled pair:
    pivot a_i glues iff verify_gluing holds for g_i * S' + <a_i>, g_i the gcd
    of the other two generators and S' their scaled-down span."""
    if s.embedding_dim != 3:
        raise ValueError("gluing expressions are computed for 3 generators only")
    out = []
    for i in range(1, 4):
        q = quotient_data(s, i)
        if verify_gluing(q.complement_gcd, q.quotient_generators, s.generators[i - 1]):
            out.append(GluingExpression(i, q.complement_gcd, make_semigroup(q.quotient_generators)))
    return out


def delta0_3gen(s: NumericalSemigroup):
    """0-delta set of a 3-generated semigroup from its gluing count alone:
    two or more expressions give {1}, otherwise {1, 2}."""
    if s.embedding_dim != 3:
        raise ValueError("needs a 3-generated semigroup")
    if len(gluing_expressions_3gen(s)) >= 2:
        return DeltaSet((1,))
    return DeltaSet((1, 2))
