from collections import Counter

import pytest

from sgdelta import (
    NotAMember,
    P0,
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
    support_length_set,
    support_profiles,
    verification,
    zero,
)

from _oracles import support_sizes_brute


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
    # singleton-trades and med-delta0 read the shared registry instances, so
    # only three-gen-gluing, which keeps fresh instances, builds these again
    builds = Counter()
    orig = zero.cached

    def counting(s, key, build):
        if key == "zero-cones" and key not in s._cache:
            builds[s.generators] += 1
        return orig(s, key, build)

    verification._suite_semigroup.cache_clear()
    monkeypatch.setattr(zero, "cached", counting)
    verification.run_all(quick=True)
    for gens in ((4, 6, 9), (3, 10, 11), (6, 10, 15)):
        assert 1 <= builds[gens] <= 2, (gens, builds[gens])
