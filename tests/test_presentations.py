import math

import pytest

from sgdelta import (
    betti_elements,
    construct_family,
    contains,
    delta0_3gen,
    delta0_semigroup,
    enumerate_factorizations,
    family,
    frobenius,
    gluing_expressions_3gen,
    index_graph_components,
    make_semigroup,
    make_trade,
    minimal_presentation,
    singleton_support_presentation_exists,
    support,
    verify_gluing,
)
from sgdelta import factorization
from sgdelta.factorization import factored_value
from sgdelta.search import candidates
from sgdelta.verification import SUITE_GENS

from _oracles import apply_trades_components, component_least_factorizations, factorization_graph_components


def test_betti_examples(geo, med3):
    assert betti_elements(make_semigroup([2, 3])) == [6]
    assert betti_elements(med3) == [20, 21, 22]
    assert betti_elements(geo) == [12, 18]


def test_index_graph_matches_factorization_graph():
    # component counts agree with the literal factorization graph
    for gens in [(4, 6, 9), (3, 10, 11), (6, 10, 15), (8, 12, 14, 17)]:
        s = make_semigroup(gens)
        for x in range(1, 3 * s.generators[-1]):
            if not contains(s, x):
                continue
            literal = factorization_graph_components(enumerate_factorizations(s, x))
            assert len(index_graph_components(s, x)) == len(literal), (gens, x)


def test_non_betti_elements_are_connected(geo, med3, supersym):
    for s in (geo, med3, supersym):
        betti = set(betti_elements(s))
        for x in range(1, max(betti) + 1):
            if contains(s, x):
                comps = index_graph_components(s, x)
                assert (len(comps) > 1) == (x in betti), (s, x)


def test_minimal_presentation_two_generators():
    pres = minimal_presentation(make_semigroup([2, 3]))
    assert pres.betti == (6,)
    assert [(t.left, t.right) for t in pres.trades] == [((0, 2), (3, 0))]


def test_minimal_presentation_med(med3):
    pres = minimal_presentation(med3)
    got = {t.sides() for t in pres.trades}
    assert got == {
        frozenset({(7, 0, 0), (0, 1, 1)}),
        frozenset({(3, 0, 1), (0, 2, 0)}),
        frozenset({(4, 1, 0), (0, 0, 2)}),
    }


def test_minimal_presentation_gaps_trade():
    s = make_semigroup([8, 12, 14, 17])
    got = {t.sides() for t in minimal_presentation(s).trades}
    assert frozenset({(0, 0, 0, 2), (1, 1, 1, 0)}) in got


def test_trade_validation(med3):
    t = make_trade(med3, (7, 0, 0), (0, 1, 1))
    assert t.left == (0, 1, 1)  # lexicographically smaller side first
    assert factored_value(med3, t.left) == 21
    with pytest.raises(ValueError):
        make_trade(med3, (7, 0, 0), (7, 0, 0))
    with pytest.raises(ValueError):
        make_trade(med3, (7, 0, 0), (1, 1, 1))  # 21 vs 24
    with pytest.raises(ValueError):
        make_trade(med3, (8, 0, 0), (1, 1, 1))  # same element, shared support


def test_trade_count_deterministic_and_matches_components(geo, mcnugget):
    for s in (geo, mcnugget, make_semigroup([5, 7, 9, 11])):
        pres1 = minimal_presentation(s)
        pres2 = minimal_presentation(make_semigroup(s.generators))
        assert pres1 == pres2
        expected = sum(len(index_graph_components(s, b)) - 1 for b in pres1.betti)
        assert len(pres1.trades) == expected


def test_presentation_needs_no_enumeration(monkeypatch):
    # representatives come from span tables: with enumeration disabled, each
    # Betti element still gets a star of trades from the least factorization
    # of its first component to the least one of every other component
    cases = [*SUITE_GENS, (4, 5, 6, 7)]
    cases += [construct_family(family("gaps", k=k)).generators for k in range(3, 7)]
    expected = {}
    for gens in cases:
        s = make_semigroup(gens)
        expected[gens] = {b: component_least_factorizations(s, b) for b in betti_elements(s)}

    def disabled(*args, **kwargs):
        raise AssertionError("minimal_presentation enumerated factorizations")

    monkeypatch.setattr(factorization, "enumerate_factorizations", disabled)
    monkeypatch.setattr(factorization, "iter_factorizations", disabled)
    for gens in cases:
        s = make_semigroup(gens)
        pres = minimal_presentation(s)
        assert pres.betti == tuple(expected[gens]), gens
        assert len(pres.trades) == sum(len(reps) - 1 for reps in expected[gens].values()), gens
        star = [make_trade(s, reps[0], z) for reps in expected[gens].values() for z in reps[1:]]
        assert list(pres.trades) == star, gens
        joined = {}
        for t in pres.trades:
            b = factored_value(s, t.left)
            comps = index_graph_components(s, b)
            # a factorization lies in the component of any index in its support
            sides = {next(n for n, c in enumerate(comps) if support(z)[0] in c) for z in (t.left, t.right)}
            assert b in pres.betti and len(sides) == 2, (gens, t)
            joined.setdefault(b, set()).update(sides)
        for b in pres.betti:
            assert joined[b] == set(range(len(index_graph_components(s, b)))), (gens, b)


def test_presentation_soundness_chains():
    # applying the trades connects all factorizations of every element
    for gens in [(2, 3), (4, 6, 9), (3, 10, 11)]:
        s = make_semigroup(gens)
        trades = [(t.left, t.right) for t in minimal_presentation(s).trades]
        hi = frobenius(s) + s.gen_sum + s.generators[-1] ** 2
        for x in range(hi + 1):
            zs = enumerate_factorizations(s, x)
            if len(zs) > 1:
                assert apply_trades_components(zs, trades) == 1, (gens, x)


def test_singleton_support_presentations(geo, med3, supersym):
    assert singleton_support_presentation_exists(geo)
    assert singleton_support_presentation_exists(supersym)
    assert not singleton_support_presentation_exists(med3)


def test_gluing_expressions(geo, med3):
    got = {(g.pivot_index, g.scale, g.quotient.generators) for g in gluing_expressions_3gen(geo)}
    assert got == {(1, 3, (2, 3)), (3, 2, (2, 3))}
    assert gluing_expressions_3gen(make_semigroup([3, 5, 7])) == []
    assert gluing_expressions_3gen(med3) == []
    only = gluing_expressions_3gen(make_semigroup([12, 65, 91]))
    assert [(g.pivot_index, g.scale) for g in only] == [(1, 13)]
    with pytest.raises(ValueError):
        gluing_expressions_3gen(make_semigroup([2, 3]))


def test_gluing_expressions_match_fresh_gluing_checks():
    # gluing_expressions_3gen, which reads each pivot's quotient data,
    # against verify_gluing on the complement scaled down here
    for gens in candidates(3, 40, min_dim=3):
        want = []
        for i, a in enumerate(gens, start=1):
            others = [b for b in gens if b != a]
            g = math.gcd(*others)
            quotient = tuple(b // g for b in others)
            if verify_gluing(g, quotient, a):
                want.append((i, g, quotient))
        got = [(e.pivot_index, e.scale, e.quotient.generators) for e in gluing_expressions_3gen(make_semigroup(gens))]
        assert got == want, gens


def test_delta0_3gen(geo, med3):
    assert delta0_3gen(geo).values == (1,)
    assert delta0_3gen(med3).values == (1, 2)
    assert delta0_3gen(make_semigroup([3, 5, 7])).values == (1, 2)


def test_delta0_3gen_matches_exact_engine_sample():
    # the full a_3 <= 40 sweep runs in the acceptance suite
    for gens in candidates(3, 25, min_dim=3):
        s = make_semigroup(gens)
        assert delta0_3gen(s) == delta0_semigroup(s), gens
