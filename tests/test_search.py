import math
from itertools import combinations

import pytest

from sgdelta import Budget, P0, PINF, search, search_delta
from sgdelta.search import candidates

from _oracles import minimal_generators_brute


def test_search_delta0_pair():
    report = search_delta([1, 2], P0, max_dim=3, max_gen=20)
    assert (3, 5, 7) in report.hits
    assert (3, 10, 11) in report.hits
    assert report.exhausted
    # a two-gluing semigroup has delta {1}, so it must not appear
    assert (4, 6, 9) not in report.hits


def test_search_delta0_singleton():
    report = search_delta([1], P0, max_dim=3, max_gen=12)
    assert (4, 6, 9) in report.hits
    assert (2, 3) in report.hits
    assert all((g not in report.hits) for g in [(3, 5, 7)])


def test_search_delta_inf():
    report = search_delta(
        [1, 2, 3], PINF, max_dim=3, max_gen=10, budget=Budget(max_element=4000)
    )
    assert (4, 6, 9) in report.hits
    assert (2, 3) in report.hits
    # candidates whose certificate horizon exceeds the budget are reported,
    # not silently dropped
    if report.skipped:
        assert not report.exhausted


def test_search_rejects_target_without_one():
    with pytest.raises(ValueError, match="contains 1"):
        search_delta([2, 3], P0, max_dim=3, max_gen=10)
    with pytest.raises(ValueError, match="contains 1"):
        search_delta([2], PINF, max_dim=3, max_gen=10)


def test_search_deterministic_across_worker_counts():
    serial = search_delta([1, 2], P0, max_dim=3, max_gen=16, workers=1)
    pooled = search_delta([1, 2], P0, max_dim=3, max_gen=16, workers=2)
    assert serial.hits == pooled.hits
    assert serial.tested == pooled.tested


def test_a_pooled_search_starts_one_pool(monkeypatch):
    # 91 candidates make two batches, and both run on the same workers
    import concurrent.futures

    pools = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    report = search_delta([1, 2], P0, max_dim=3, max_gen=12, workers=2)
    assert report.tested == 91 and len(pools) == 1
    assert report.hits == search_delta([1, 2], P0, max_dim=3, max_gen=12).hits


def test_max_norm_search_deterministic_across_worker_counts():
    # tuples cross the pool and each worker builds its own instances; the
    # low budget skips some pairs, so hits, misses and skips all occur
    runs = [
        search_delta([1, 2, 3], PINF, max_dim=2, max_gen=9, budget=Budget(max_element=5000), workers=w)
        for w in (1, 2)
    ]
    serial, pooled = ((r.hits, r.skipped, r.tested, r.exhausted) for r in runs)
    assert serial == pooled
    assert serial[0] and serial[1] and len(serial[0]) + len(serial[1]) < serial[2]


def test_candidates_match_the_minimality_oracle():
    expected = [
        g
        for k in range(2, 5)
        for g in combinations(range(2, 17), k)
        if math.gcd(*g) == 1 and minimal_generators_brute(g) == g
    ]
    assert list(candidates(4, 16)) == expected


def test_search_orders_and_counts():
    report = search_delta([1], P0, max_dim=2, max_gen=8)
    # 2-generated semigroups always have 0-delta {1}
    assert report.hits == ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (3, 8), (4, 5), (4, 7), (5, 6), (5, 7), (5, 8), (6, 7), (7, 8))
    assert report.tested == len(report.hits)


def test_search_builds_each_candidate_once(monkeypatch):
    # each probe builds one instance; a hit gets one more, fresh, for its
    # re-verification
    calls = []
    orig = search.make_semigroup

    def counting(gens):
        calls.append(tuple(gens))
        return orig(gens)

    monkeypatch.setattr(search, "make_semigroup", counting)
    report = search_delta([1], P0, max_dim=2, max_gen=8)
    assert report.tested == len(report.hits) == 14
    assert sorted(calls) == sorted(2 * report.hits)
