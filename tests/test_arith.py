import numpy as np
import pytest

from sgdelta import arith
from sgdelta.arith import INF, ConeTable, ceil_div, cone_table, is_prime, modinv, next_prime, residue_table
from sgdelta.errors import BudgetExceeded
from sgdelta.semigroup import apery_set, make_semigroup

from _oracles import cone_contains_array, member_brute


def test_ceil_div():
    assert ceil_div(7, 3) == 3
    assert ceil_div(6, 3) == 2
    assert ceil_div(0, 5) == 0
    assert ceil_div(-1, 3) == 0
    assert ceil_div(-4, 3) == -1


def test_modinv():
    assert modinv(3, 7) == 5
    assert modinv(1, 1) == 0
    for a, m in [(4, 9), (10, 21), (25, 26)]:
        assert a * modinv(a, m) % m == 1


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 251, 65537, 2**31 - 1}
    for p in primes:
        assert is_prime(p), p
    for n in [0, 1, 4, 9, 561, 1105, 6601, 2**31 - 2, 251 * 257]:
        assert not is_prime(n), n


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(3) == 5
    assert next_prime(12) == 13
    assert next_prime(89) == 97
    assert next_prime(245) == 251


def test_apery_table_plain():
    w = residue_table((3, 10, 11), 3)
    assert w == [0, 10, 11]
    w2 = residue_table((2, 3), 2)
    assert w2 == [0, 3]


def test_apery_table_gcd_leaves_unreachable_classes():
    w = residue_table((4, 6), 4)
    assert w[0] == 0 and w[2] == 6
    assert w[1] == INF and w[3] == INF


def test_apery_table_budget_guard():
    # both entry points refuse the modulus before allocating a table
    with pytest.raises(BudgetExceeded):
        ConeTable.build((10**9 + 7, 10**9 + 9))
    with pytest.raises(BudgetExceeded):
        apery_set(make_semigroup([3, 5]), 10**9 + 7)


def test_cone_table_matches_brute():
    for gens in [(6, 9), (4, 6), (3, 10, 11), (12, 18, 30), (1,)]:
        cone = ConeTable.build(gens)
        for y in range(-3, 80):
            assert cone.contains(y) == (y >= 0 and member_brute(gens, y)), (gens, y)
        ys = np.arange(-3, 80, dtype=np.int64)
        got = cone_contains_array(cone, ys)
        assert [bool(b) for b in got] == [cone.contains(int(y)) for y in ys]


def test_cone_frobenius():
    assert ConeTable.build((2, 3)).frobenius() == 1
    assert ConeTable.build((1,)).frobenius() == -1
    assert ConeTable.build((13, 16)).frobenius() == 13 * 16 - 29
    # gcd factored out: reduced span of (6, 9) is the span of (2, 3)
    assert ConeTable.build((6, 9)).conductor == 6  # g * (F + 1) = 3 * 2
    with pytest.raises(ValueError):
        ConeTable.build((6, 9)).frobenius()


def test_cone_table_is_one_value_per_generator_set():
    table = ConeTable.build((20, 6, 9, 6))
    assert ConeTable.build([6, 9, 20]) is table
    assert ConeTable.build(g for g in (9, 20, 20, 6)) is table
    assert cone_table((6, 9, 20)) is table
    assert table.gens == (6, 9, 20)


def test_cone_table_eviction_rebuilds_an_equal_table():
    arith._TABLES.clear()
    first = ConeTable.build((6, 9, 20))
    for b in range(3, 2 * arith._CONE_MEMO + 3, 2):  # as many other sets as the memo holds
        ConeTable.build((2, b))
    assert len(arith._TABLES) == arith._CONE_MEMO
    again = ConeTable.build((6, 9, 20))
    assert again is not first and again == first
