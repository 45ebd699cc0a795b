import pytest

from sgdelta import (
    BudgetExceeded,
    NotAMember,
    P0,
    P1,
    PINF,
    delta_of_sorted_set,
    delta_set_of_element,
    dominant_length_set,
    enumerate_factorizations,
    infinity_length_set,
    iter_factorizations,
    length_set,
    make_factorization,
    make_semigroup,
    p_length,
    support,
)

from sgdelta import factorization

from _oracles import box_factorizations, length_set_brute


def test_enumeration_paper_instances(med3):
    assert enumerate_factorizations(med3, 21) == {(7, 0, 0), (0, 1, 1)}
    assert enumerate_factorizations(med3, 26) == {(5, 0, 1), (2, 2, 0)}
    assert enumerate_factorizations(med3, 8) == set()


def test_enumeration_zero_element(mcnugget):
    assert enumerate_factorizations(mcnugget, 0) == {(0, 0, 0)}


def test_enumeration_matches_box_oracle():
    for gens in [(3, 10, 11), (4, 6, 9), (6, 9, 20), (5, 13, 16), (5, 7, 9, 11)]:
        s = make_semigroup(gens)
        for x in (0, 1, 17, 40, 61, 90, 121):
            assert enumerate_factorizations(s, x) == box_factorizations(gens, x), (gens, x)


def test_enumeration_matches_grid_oracle_at_scale():
    # sampled large elements with generators up to 60
    import numpy as np

    from _oracles import grid_factorizations

    for gens in [(31, 47, 60), (11, 25, 59)]:
        s = make_semigroup(gens)
        for x in (1234, 3077, 5000):
            got = np.array(sorted(enumerate_factorizations(s, x)), dtype=np.int64)
            got = got.reshape(len(got), len(gens))
            assert np.array_equal(got, grid_factorizations(gens, x)), (gens, x)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(factorization, "MAX_FACTORIZATIONS", 100)
    with pytest.raises(BudgetExceeded):
        enumerate_factorizations(make_semigroup([2, 3]), 3000)


def test_enumeration_tables_have_a_limit(monkeypatch):
    # past the engine horizon enumeration raises before requesting a span table
    requested = []
    table = factorization.cone_table
    monkeypatch.setattr(factorization, "MAX_ENGINE_HORIZON", 1000)
    monkeypatch.setattr(factorization, "cone_table", lambda gens: requested.append(gens) or table(gens))
    s = make_semigroup([2, 3])
    assert len(enumerate_factorizations(s, 1000)) == 167
    assert requested
    requested.clear()
    with pytest.raises(BudgetExceeded):
        next(iter_factorizations(s, 1001))
    with pytest.raises(BudgetExceeded):
        enumerate_factorizations(s, 1001)
    assert requested == []


def test_monotone_growth(geo):
    # adding a copy of the first generator embeds old factorization sets
    prev = None
    for x in range(0, 120, 4):
        cur = len(enumerate_factorizations(geo, x))
        if prev is not None:
            assert cur >= prev
        prev = cur


def test_p_length():
    assert p_length((7, 0, 0), PINF) == 7
    assert p_length((7, 0, 0), P0) == 1
    assert p_length((7, 0, 0), P1) == 7
    assert p_length((1, 1, 1), P0) == 3
    assert p_length((0, 0, 0), P0) == 0
    assert p_length((0, 0, 0), PINF) == 0
    with pytest.raises(ValueError):
        p_length((1, 0), 2)


def test_support():
    assert support((7, 0, 0)) == (1,)
    assert support((0, 1, 1)) == (2, 3)


def test_make_factorization(med3):
    assert make_factorization(med3, [7, 0, 0], 21) == (7, 0, 0)
    with pytest.raises(ValueError):
        make_factorization(med3, [7, 0, 0], 22)
    with pytest.raises(ValueError):
        make_factorization(med3, [7, -1, 1])


def test_length_set_examples(med3):
    assert length_set(med3, 21, PINF).values == (1, 7)
    assert length_set(med3, 24, P0).values == (1, 3)
    assert length_set(med3, 3, P0).values == (1,)
    assert length_set(med3, 3, P1).values == (1,)
    assert length_set(med3, 3, PINF).values == (1,)
    assert length_set(med3, 0, PINF).values == (0,)
    with pytest.raises(NotAMember):
        length_set(med3, 8, PINF)


def test_length_set_matches_oracle():
    for gens in [(3, 10, 11), (4, 6, 9), (6, 10, 15)]:
        s = make_semigroup(gens)
        for x in (12, 30, 45, 77):
            for p in (P0, P1, PINF):
                if box_factorizations(gens, x):
                    assert list(length_set(s, x, p).values) == length_set_brute(gens, x, p)


def test_length_sets_are_arithmetic_for_two_generators():
    # every 1-length set of <2,3> is a step-1 progression
    s = make_semigroup([2, 3])
    for x in range(2, 201):
        try:
            vals = length_set(s, x, P1).values
        except NotAMember:
            continue
        assert vals == tuple(range(vals[0], vals[-1] + 1)), x


def test_delta_examples(med3, geo):
    assert delta_set_of_element(med3, 21, PINF).values == (6,)
    assert delta_set_of_element(med3, 24, PINF).values == (7,)
    assert delta_set_of_element(geo, 20, PINF).values == (3,)


def test_delta_of_sorted_set():
    assert delta_of_sorted_set([1, 7]).values == (6,)
    assert delta_of_sorted_set([5]).values == ()
    assert delta_of_sorted_set([0, 2, 3, 7]).values == (1, 2, 4)
    with pytest.raises(ValueError):
        delta_of_sorted_set([3, 1])


def test_dominant_factorizations(med3):
    # 21 = 7 * 3 = 10 + 11
    assert dominant_length_set(med3, 21, 1).values == (7,)
    assert dominant_length_set(med3, 21, 2).values == (1,)
    assert dominant_length_set(med3, 21, 3).values == (1,)  # ties belong to every attaining index
    assert dominant_length_set(med3, 0, 1).values == (0,)


def test_dominant_union_covers_everything(mcnugget):
    for x in (45, 58, 90):
        union = set()
        for i in (1, 2, 3):
            union |= set(dominant_length_set(mcnugget, x, i).values)
        assert tuple(sorted(union)) == infinity_length_set(mcnugget, x).values
        assert union == {max(z) for z in enumerate_factorizations(mcnugget, x)}


def test_min_length_lower_and_upper_bound():
    # least max-norm length is within a_k of x / A
    for gens in [(4, 6, 9), (3, 10, 11)]:
        s = make_semigroup(gens)
        total, top = s.gen_sum, s.generators[-1]
        for x in range(0, 10 * total):
            try:
                lmin = length_set(s, x, PINF).min_value
            except NotAMember:
                continue
            assert lmin * total >= x
            assert (lmin - top) * total <= x
