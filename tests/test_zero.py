import json
from collections import Counter
from itertools import combinations

import pytest

from sgdelta import (
    BudgetExceeded,
    NotAMember,
    P0,
    arith,
    check_l0_interval,
    contains,
    delta0_semigroup,
    delta0_stability_bound,
    delta0_union_brute,
    delta_of_sorted_set,
    delta_set_of_element,
    iter_factorizations,
    make_semigroup,
    p_length,
    search,
    support_length_set,
    support_profiles,
    verification,
    zero,
)
from sgdelta.budget import MAX_SUBSET_DIM
from sgdelta.cli import main

from _oracles import stability_bound_all_tables, support_sizes_brute


def test_stability_bound_two_generators():
    s = make_semigroup([2, 3])
    assert delta0_stability_bound(s) == 7
    profiles = {p.support: p.threshold for p in support_profiles(s)}
    assert profiles == {(1,): 2, (2,): 3, (1, 2): 7}


def test_singleton_profiles_threshold_is_the_generator(mcnugget):
    profiles = {p.support: p.threshold for p in support_profiles(mcnugget)}
    assert profiles[(1,)] == 6
    assert profiles[(2,)] == 9
    assert profiles[(3,)] == 20


def test_support_length_set_matches_brute(geo, med3):
    for s in (geo, med3):
        for x in range(0, 70):
            assert list(support_length_set(s, x)) == support_sizes_brute(s.generators, x)


def test_check_l0_interval_examples(med3):
    s23 = make_semigroup([2, 3])
    assert check_l0_interval(s23, 8)
    assert not check_l0_interval(med3, 24)  # sizes {1, 3}
    assert check_l0_interval(med3, 3)
    with pytest.raises(NotAMember):
        check_l0_interval(med3, 8)


def test_delta0_examples(geo, med3, genarith):
    assert delta0_semigroup(geo).values == (1,)
    assert delta0_semigroup(med3).values == (1, 2)
    assert delta0_semigroup(genarith).values == (1, 2)


def test_delta0_of_element_matches_enumeration(mcnugget, med3):
    for s in (mcnugget, med3):
        for x in range(1, 120):
            if not contains(s, x):
                continue
            sizes = sorted({p_length(z, P0) for z in iter_factorizations(s, x)})
            assert delta_set_of_element(s, x, P0) == delta_of_sorted_set(sizes), (s, x)


def test_delta0_semigroup_equals_double_horizon_brute(geo, med3, mcnugget, genarith):
    # both sides run the same union, so this checks the stability bound; the
    # union itself is checked against independent passes in
    # test_properties.py::test_zero_union_matches_oracles
    for s in (geo, med3, mcnugget, genarith):
        x0 = delta0_stability_bound(s)
        assert delta0_semigroup(s) == delta0_union_brute(s, 2 * x0)


def test_interval_beyond_stability_bound(geo, med3, mcnugget, genarith):
    for s in (geo, med3, mcnugget, genarith):
        x0 = delta0_stability_bound(s)
        for x in range(x0 + 1, x0 + 3 * s.generators[-1] + 1):
            if contains(s, x):
                assert check_l0_interval(s, x), (s.generators, x)


def test_delta_values_stay_below_embedding_dim(geo, med3, mcnugget):
    # support sizes live in [1, k], so no gap can reach k
    for s in (geo, med3, mcnugget):
        k = s.embedding_dim
        x0 = delta0_stability_bound(s)
        for x in range(1, min(x0, 150)):
            if contains(s, x):
                assert all(v <= k - 1 for v in delta_set_of_element(s, x, P0).values)


def test_registry_rows_share_zero_norm_cones(monkeypatch):
    # the stability bound builds no support cones, so only l0-interval-tail,
    # which reads the 0-length sets of <4,6,9>, builds them, once: the rows
    # that read the shared registry instances build no second set
    builds = Counter()
    orig = zero.cached

    def counting(s, key, build):
        if key == "zero-cones" and key not in s._cache:
            builds[s.generators] += 1
        return orig(s, key, build)

    verification._suite_semigroup.cache_clear()
    monkeypatch.setattr(zero, "cached", counting)
    verification.run_all(quick=True)
    assert builds == {(4, 6, 9): 1}


def test_stability_bound_matches_all_tables_on_search_candidates():
    for gens in search.candidates(4, 24):
        s = make_semigroup(gens)
        assert delta0_stability_bound(s) == stability_bound_all_tables(s), gens


@pytest.mark.parametrize(
    "gens, bound, best_pair",
    [((6, 10, 15), 61, 35), ((10, 15, 24), 151, 123), ((5, 12, 14, 21), 127, 106)],
)
def test_stability_bound_set_by_a_larger_support(gens, bound, best_pair):
    # no singleton or pair reaches the bound: a support of size >= 3 sets it,
    # so its table must be built, not pruned
    s = make_semigroup(gens)
    assert max(arith.ConeTable.build(pair).conductor + sum(pair) for pair in combinations(gens, 2)) == best_pair
    assert delta0_stability_bound(s) == bound == stability_bound_all_tables(s)


@pytest.mark.parametrize(
    "gens, bound",
    [
        ((11, 13, 17, 19, 23), 438),
        ((245, 4267, 23845, 33383), 1_335_321),
        ((512, 768, 896, 1216, 1504, 1968, 2488, 3212, 4094, 8329), 34_098_927),  # gaps:k=9
    ],
)
def test_pinned_stability_bounds(gens, bound):
    assert delta0_stability_bound(make_semigroup(gens)) == bound


def test_subset_budget_refuses_before_any_support_table(monkeypatch, capsys):
    # k = 25 > MAX_SUBSET_DIM: both 0-norm routes refuse before they build
    # one support table
    gens = tuple(range(25, 50))
    s = make_semigroup(gens)
    assert s.embedding_dim == 25 > MAX_SUBSET_DIM
    built = []
    orig = arith.cone_table
    monkeypatch.setattr(arith, "cone_table", lambda g: built.append(g) or orig(g))
    monkeypatch.delenv("SGDELTA_CACHE_DIR", raising=False)
    with pytest.raises(BudgetExceeded):
        delta0_stability_bound(s)
    with pytest.raises(BudgetExceeded):
        support_length_set(s, 100)
    text = ",".join(map(str, gens))
    for argv in (("delta-semigroup", "--p", "0"), ("lengths", "--x", "100", "--p", "0")):
        code = main(["compute", "--gens", text, *argv])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3 and doc["error"]["code"] == "budget-exceeded", argv
    assert built == []
