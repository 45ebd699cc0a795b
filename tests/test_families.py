import pytest

from sgdelta import (
    InvalidGenerators,
    P0,
    PINF,
    PeriodOverflow,
    construct_family,
    delta0_semigroup,
    family,
    family_chain,
    is_max_embedding_dimension,
    make_semigroup,
    parse_family,
    predicted_delta,
    verify_gluing,
)


def test_constructors():
    assert construct_family(family("geometric", a=2, b=3, k=3)).generators == (4, 6, 9)
    assert construct_family(family("geometric", a=2, b=3, k=2)).generators == (2, 3)
    assert construct_family(family("supersymmetric", p=(5, 3, 2))).generators == (6, 10, 15)
    assert construct_family(family("arithmetic", a=5, d=1, k=2)).generators == (5, 6, 7)
    assert construct_family(family("generalized_arithmetic", a=5, h=2, d=3, k=2)).generators == (5, 13, 16)
    assert construct_family(family("three_gap", m=3)).generators == (3, 10, 11)
    assert construct_family(family("gaps", k=3)).generators == (8, 12, 14, 17)
    assert construct_family(family("interval", k=3)).generators == (12, 65, 91)
    assert construct_family(family("interval", k=2)).generators == (3, 5)
    assert construct_family(family("med_check", gens=(3, 10, 11))).generators == (3, 10, 11)


def test_constructor_validation():
    with pytest.raises(InvalidGenerators):
        construct_family(family("geometric", a=2, b=4, k=3))  # not coprime
    with pytest.raises(InvalidGenerators):
        construct_family(family("arithmetic", a=3, d=1, k=3))  # k >= a
    with pytest.raises(InvalidGenerators):
        construct_family(family("supersymmetric", p=(3, 5, 2)))  # not decreasing
    with pytest.raises(InvalidGenerators):
        construct_family(family("three_gap", m=2))
    with pytest.raises(InvalidGenerators):
        construct_family(family("med_check", gens=(2, 3)))
    with pytest.raises(InvalidGenerators):
        construct_family(family("interval", k=3, seeds=(4, 7)))  # 4 not prime


def test_interval_overflow():
    with pytest.raises(PeriodOverflow):
        construct_family(family("interval", k=5))


def test_parse_and_text_roundtrip():
    for text in [
        "geometric:a=2,b=3,k=3",
        "supersymmetric:p=5,3,2",
        "interval:k=3,seeds=5,7",
        "gaps:k=4",
        "med_check:gens=3,10,11",
        "three_gap:m=5",
        "generalized_arithmetic:a=5,h=2,d=3,k=2",
    ]:
        spec = parse_family(text)
        assert spec.text() == text
        assert parse_family(spec.text()) == spec


@pytest.mark.parametrize(
    "text, message",
    [
        ("geometric:a=2,3,b=3,k=3", "geometric parameter 'a' takes one value, got 2"),
        ("three_gap:m=4,5", "three_gap parameter 'm' takes one value, got 2"),
        ("geometric:a=2,b=5,k=3,a=3", "geometric parameter 'a' given twice"),
        ("supersymmetric:p=5,3,p=2", "supersymmetric parameter 'p' given twice"),
    ],
)
def test_parse_rejects_a_repeated_or_multi_valued_parameter(text, message):
    with pytest.raises(ValueError) as exc:
        parse_family(text)
    assert str(exc.value) == message


def test_family_chains_are_gluings():
    for spec in (family("interval", k=4), family("interval", k=5), family("gaps", k=6)):
        for step in family_chain(spec):
            assert verify_gluing(step.scale, step.base_gens, step.new_gen), step


def test_gluing_verifier_accepts_valid_decomposition():
    # 2 * <2,3> + <5> = <4,5,6>
    assert verify_gluing(2, (2, 3), 5)


def test_gluing_verifier_rejects():
    # attached element is a minimal generator of the base
    assert not verify_gluing(3, (2, 3), 2)
    # multipliers not coprime
    assert not verify_gluing(2, (3, 4), 6)
    # attached element outside the base span
    assert not verify_gluing(3, (2, 3), 1)


def test_interval_chain_seed_selection():
    # least two primes above k
    assert family_chain(family("interval", k=3))[0].base_gens == (5, 7)
    assert family_chain(family("interval", k=4))[0].base_gens == (5, 7)
    assert family_chain(family("interval", k=5))[0].base_gens == (7, 11)
    with pytest.raises(PeriodOverflow):
        family_chain(family("interval", k=6))


def test_is_max_embedding_dimension():
    assert is_max_embedding_dimension(make_semigroup([3, 10, 11]))
    assert is_max_embedding_dimension(make_semigroup([4, 5, 6, 7]))
    assert not is_max_embedding_dimension(make_semigroup([2, 3]))
    assert not is_max_embedding_dimension(make_semigroup([4, 6, 9]))


def test_predicted_delta():
    assert predicted_delta(family("geometric", a=2, b=3, k=3), PINF).exact.values == (1, 2, 3)
    assert predicted_delta(family("supersymmetric", p=(5, 3, 2)), PINF).exact.values == (1, 2, 3, 4, 5)
    assert predicted_delta(family("arithmetic", a=5, d=1, k=2), PINF).exact.values == (1, 2, 3, 4)
    assert predicted_delta(family("three_gap", m=3), PINF).exact.values == (1, 2, 3, 4, 6, 7)
    assert predicted_delta(family("geometric", a=2, b=3, k=3), P0).exact.values == (1,)
    assert predicted_delta(family("med_check", gens=(3, 10, 11)), P0).exact.values == (1, 2)
    assert predicted_delta(family("interval", k=4), P0).exact.values == (1, 2, 3)
    assert predicted_delta(family("interval", k=4), PINF) is None
    gaps_pred = predicted_delta(family("gaps", k=16), P0)
    assert gaps_pred.exact is None
    assert gaps_pred.required == (15, 16)
    assert gaps_pred.window_low == 14


def test_gaps_prediction_matching():
    from sgdelta import DeltaSet

    pred = predicted_delta(family("gaps", k=16), P0)
    assert (pred.window_low, pred.window_high) == (14, 16)
    assert pred.matches(DeltaSet((1, 2, 3, 15, 16)))
    assert not pred.matches(DeltaSet((1, 2, 3, 16)))  # missing k-1
    assert not pred.matches(DeltaSet((1, 2, 14, 15, 16)))  # stray value in the window


def test_interval_family_realizes_small_intervals():
    for k in (2, 3):
        s = construct_family(family("interval", k=k))
        assert delta0_semigroup(s).values == tuple(range(1, max(k - 1, 1) + 1))


def test_gaps_family_exact_small_delta0():
    # full exact 0-delta sets at desk scale; the k=5 and k=6 sets already
    # skip a value below the window, matching the construction's point
    expected = {
        3: (1, 2, 3),
        4: (1, 2, 3, 4),
        5: (1, 2, 4, 5),
        6: (1, 2, 3, 5, 6),
    }
    for k, want in expected.items():
        s = construct_family(family("gaps", k=k))
        got = delta0_semigroup(s)
        assert got.values == want, (k, got.values)
        assert predicted_delta(family("gaps", k=k), P0).matches(got)
