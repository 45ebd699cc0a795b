import pytest

from sgdelta import (
    DeltaSet,
    InvalidGenerators,
    NonCoprimeGenerators,
    NotAMember,
    PeriodOverflow,
    apery_set,
    arith,
    betti_elements,
    contains,
    delta0_semigroup,
    frobenius,
    make_semigroup,
    minimal_presentation,
    quotient_data,
    residue_delta_subset,
    span,
    structure_constants,
    verify_gluing,
)
from sgdelta.arith import ConeTable

from _oracles import member_brute


def test_make_semigroup_keeps_minimal_generators():
    s = make_semigroup([6, 9, 20])
    assert s.generators == (6, 9, 20)
    assert s.removed == ()
    assert s.embedding_dim == 3
    assert s.gen_sum == 35


def test_make_semigroup_reduces_and_reports():
    s = make_semigroup([2, 3, 4])
    assert s.generators == (2, 3)
    assert s.removed == (4,)


def test_make_semigroup_drops_duplicates():
    s = make_semigroup([3, 5, 5, 7, 12])
    assert s.generators == (3, 5, 7)
    assert set(s.removed) == {5, 12}


def test_make_semigroup_rejects_gcd():
    with pytest.raises(NonCoprimeGenerators):
        make_semigroup([4, 6])


def test_make_semigroup_rejects_bad_input():
    with pytest.raises(InvalidGenerators):
        make_semigroup([])
    with pytest.raises(InvalidGenerators):
        make_semigroup([0, 3])
    with pytest.raises(InvalidGenerators):
        make_semigroup([1, 5])


def test_make_semigroup_idempotent():
    for gens in [(2, 3, 4), (6, 9, 20), (5, 13, 16), (2, 7, 12, 13)]:
        s = make_semigroup(gens)
        again = make_semigroup(s.generators)
        assert again.generators == s.generators
        assert again.removed == ()


def test_semigroup_value_semantics():
    a = make_semigroup([3, 10, 11])
    b = make_semigroup([3, 10, 11, 13])  # 13 reduces away
    assert a == b and hash(a) == hash(b)
    assert b.removed == (13,) and a.removed == ()
    assert len({a, b}) == 1
    # equality is between instances, never with a bare generator tuple
    assert a != a.generators and a.generators != a
    # instance caches never leak across equal values; span tables are values
    # of their generator set and shared by design
    assert a._cache is not b._cache
    quotient_data(a, 1)
    assert ("quotient", 1) in a._cache and ("quotient", 1) not in b._cache


def test_period_overflow_guard():
    big = (1 << 62) - 1
    with pytest.raises(PeriodOverflow):
        make_semigroup([big - 2, big])


def test_contains_small(med3):
    assert not contains(med3, 8)
    assert contains(med3, 21)
    assert contains(med3, 0)
    with pytest.raises(ValueError):
        contains(med3, -1)


def test_contains_matches_brute_force():
    for gens in [(3, 10, 11), (6, 9, 20), (4, 6, 9)]:
        s = make_semigroup(gens)
        hi = frobenius(s) + s.generators[0]
        for x in range(hi + 1):
            assert contains(s, x) == member_brute(gens, x), (gens, x)


def test_apery_examples():
    assert apery_set(make_semigroup([2, 3]), 2).entries == (0, 3)
    assert apery_set(make_semigroup([3, 10, 11]), 3).entries == (0, 10, 11)


def test_apery_first_entry_always_zero(mcnugget):
    assert apery_set(mcnugget, 6).entries[0] == 0
    assert apery_set(mcnugget, 20).entries[0] == 0


def test_apery_invariants(mcnugget):
    for m in (6, 9, 20):
        t = apery_set(mcnugget, m)
        assert len(t.entries) == m
        for r, w in enumerate(t.entries):
            assert w % m == r
            assert contains(mcnugget, w)
            assert w < m or not contains(mcnugget, w - m)


def test_apery_requires_member(mcnugget):
    with pytest.raises(NotAMember):
        apery_set(mcnugget, 7)
    with pytest.raises(NotAMember):
        apery_set(mcnugget, 0)


def test_frobenius_values():
    assert frobenius(make_semigroup([2, 3])) == 1
    assert frobenius(make_semigroup([3, 10, 11])) == 8
    assert frobenius(make_semigroup([6, 9, 20])) == 43
    # conductor sanity: the next element is always in
    s = make_semigroup([2, 3])
    assert contains(s, frobenius(s) + 1)


def test_quotient_data_examples(geo, med3):
    q1 = quotient_data(geo, 1)
    assert (q1.complement_gcd, q1.quotient_generators, q1.inverse) == (3, (2, 3), 1)
    q3 = quotient_data(geo, 3)
    assert (q3.complement_gcd, q3.quotient_generators, q3.inverse) == (2, (2, 3), 1)
    q2 = quotient_data(med3, 2)
    assert (q2.complement_gcd, q2.quotient_generators, q2.inverse) == (1, (3, 11), 0)


def test_quotient_data_k2():
    s = make_semigroup([2, 3])
    q1 = quotient_data(s, 1)
    assert (q1.complement_gcd, q1.quotient_generators) == (3, (1,))
    q2 = quotient_data(s, 2)
    assert (q2.complement_gcd, q2.quotient_generators) == (2, (1,))


def test_quotient_data_reconstructs_and_is_coprime():
    import math

    for gens in [(4, 6, 9), (6, 9, 20), (8, 12, 14, 17)]:
        s = make_semigroup(gens)
        for i in range(1, s.embedding_dim + 1):
            q = quotient_data(s, i)
            others = [a for j, a in enumerate(gens, 1) if j != i]
            assert math.gcd(*q.quotient_generators) if len(q.quotient_generators) > 1 else True
            g = 0
            for a in others:
                g = math.gcd(g, a)
            assert g == q.complement_gcd
            if q.complement_gcd > 1:
                assert q.inverse * gens[i - 1] % q.complement_gcd == 1
            else:
                assert q.inverse == 0


@pytest.fixture
def table_builds(monkeypatch):
    """The generators of every residue table the span memo misses from here
    on; a singleton's span, of modulus 1, needs no table. Span tables are
    shared across tests, so the ones built before are dropped first."""
    calls = []
    orig = arith._build_cone

    def counting(gens):
        table = orig(gens)
        if table.modulus > 1:
            calls.append(tuple(gens))
        return table

    monkeypatch.setattr(arith, "_build_cone", counting)
    arith._TABLES.clear()
    return calls


def test_one_table_per_generator_subset(table_builds):
    # canonicalization, membership, the quotient data, the 0-norm cones, the
    # residue check, the Betti scan and the Apery set of a_1 share one table
    # per subset: the full span and the three pairs (singleton spans need no
    # table)
    s = make_semigroup([6, 9, 20])
    contains(s, 43)
    frobenius(s)
    structure_constants(s)
    delta0_semigroup(s)
    residue_delta_subset(s, 1, 300, delta_inf=DeltaSet((1,)))
    betti_elements(s)
    minimal_presentation(s)
    apery_set(s, 6)
    assert len(table_builds) == 4


def test_equal_generator_sets_share_one_table(table_builds):
    # two equal-valued instances and the gluing predicate on the same set
    # read one table, built once
    a = make_semigroup([3, 10, 11])
    b = make_semigroup([11, 3, 10, 3])
    assert verify_gluing(2, (11, 10, 3), 13)
    assert contains(a, 13) and contains(b, 13)
    assert span(a) is span(b) is span(b, (1, 2, 3))
    assert table_builds == [(3, 10, 11)]


@pytest.mark.parametrize("raw", [[3, 10, 11, 13], [3, 6, 10, 11]])
def test_non_minimal_input_builds_one_table(table_builds, raw):
    # canonicalization walks the input set once and keeps its minimal
    # generators; the instance's span is that same table, filed under both
    s = make_semigroup(raw)
    contains(s, 5)
    frobenius(s)
    assert s.generators == (3, 10, 11)
    assert table_builds == [tuple(raw)]
    assert span(s) is ConeTable.build(raw)
