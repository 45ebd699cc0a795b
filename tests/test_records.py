"""What a caller sees of every record of the package.

Each record is built by position and by keyword with one field order and
the same defaults, shows an exact repr, compares and hashes over its
compared fields, refuses attribute assignment and deletion, and survives
pickling. The validated records raise ValueError on bad fields. No record
reaches the JSON writer of the CLI whole: every envelope is built from
plain dicts, lists and scalars.
"""

import contextlib
import io
import json
import pickle

import pytest

import sgdelta as sg
from sgdelta import cli
from sgdelta.arith import ConeTable
from sgdelta.families import DeltaPrediction, GluingStep
from sgdelta.verification import ClaimSpec, Instance

TRADE = sg.Trade((0, 2, 0), (3, 0, 0))
QUOTIENT = sg.QuotientData(1, 3, (2, 3), 1, 2)

# (record class, its fields in order, another value of the first field, repr)
CASES = [
    (sg.Budget, {"max_element": 10}, 11, "Budget(max_element=10)"),
    (sg.AperyTable, {"modulus": 3, "entries": (0, 4, 8)}, 4, "AperyTable(modulus=3, entries=(0, 4, 8))"),
    (
        sg.QuotientData,
        {"index": 1, "complement_gcd": 3, "quotient_generators": (2, 3), "inverse": 1, "margin": 2},
        2,
        "QuotientData(index=1, complement_gcd=3, quotient_generators=(2, 3), inverse=1, margin=2)",
    ),
    (
        ConeTable,
        {"gens": (4, 6, 9), "gcd": 1, "modulus": 4, "least": (0, 9, 6, 15)},
        (4, 6, 11),
        "ConeTable(gens=(4, 6, 9), gcd=1, modulus=4, least=(0, 9, 6, 15))",
    ),
    (sg.LengthSet, {"p": 1, "values": (4, 5, 7)}, 0, "LengthSet(p=1, values=(4, 5, 7))"),
    (sg.DeltaSet, {"values": (1, 2)}, (1, 3), "DeltaSet(values=(1, 2))"),
    (
        sg.StructureConstants,
        {"gen_sum": 19, "period": 684, "records": (QUOTIENT,)},
        20,
        "StructureConstants(gen_sum=19, period=684, records=(QuotientData(index=1, complement_gcd=3, "
        "quotient_generators=(2, 3), inverse=1, margin=2),))",
    ),
    (
        sg.PeriodicityCertificate,
        {"start": 856, "period": 684, "window_periods": 2, "mode": "theorem-backed", "union_horizon": 2224},
        857,
        "PeriodicityCertificate(start=856, period=684, window_periods=2, mode='theorem-backed', union_horizon=2224)",
    ),
    (
        sg.SupportProfile,
        {"support": (1,), "gcd": 4, "threshold": 4},
        (2,),
        "SupportProfile(support=(1,), gcd=4, threshold=4)",
    ),
    (
        sg.FamilySpec,
        {"variant": "geometric", "params": (("a", 2), ("b", 3), ("k", 3))},
        "arithmetic",
        "FamilySpec(variant='geometric', params=(('a', 2), ('b', 3), ('k', 3)))",
    ),
    (
        GluingStep,
        {"scale": 2, "base_gens": (2, 3), "new_gen": 7, "result_gens": (4, 6, 7)},
        3,
        "GluingStep(scale=2, base_gens=(2, 3), new_gen=7, result_gens=(4, 6, 7))",
    ),
    (
        DeltaPrediction,
        {"exact": None, "required": (8, 9), "window_low": 8, "window_high": 9},
        sg.DeltaSet((1,)),
        "DeltaPrediction(exact=None, required=(8, 9), window_low=8, window_high=9)",
    ),
    (
        sg.SearchReport,
        {
            "target": (1, 2), "p": 0, "max_dim": 3, "max_gen": 6, "hits": ((3, 4, 5), (4, 5, 6)),
            "skipped": (), "tested": 8, "exhausted": True,
        },
        (1,),
        "SearchReport(target=(1, 2), p=0, max_dim=3, max_gen=6, hits=((3, 4, 5), (4, 5, 6)), skipped=(), "
        "tested=8, exhausted=True)",
    ),
    (
        Instance,
        {"claim": "step-shift", "label": "<4, 6, 9>", "status": "pass", "detail": "x<=100"},
        "aap-containment",
        "Instance(claim='step-shift', label='<4, 6, 9>', status='pass', detail='x<=100')",
    ),
    (sg.Trade, {"left": (0, 2, 0), "right": (3, 0, 0)}, (0, 1, 0), "Trade(left=(0, 2, 0), right=(3, 0, 0))"),
    (
        sg.MinimalPresentation,
        {"trades": (TRADE,), "betti": (12, 18)},
        (),
        "MinimalPresentation(trades=(Trade(left=(0, 2, 0), right=(3, 0, 0)),), betti=(12, 18))",
    ),
    (
        sg.GluingExpression,
        {"pivot_index": 3, "scale": 2, "quotient": sg.make_semigroup((2, 3))},
        1,
        "GluingExpression(pivot_index=3, scale=2, quotient=NumericalSemigroup(2, 3))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def _build(cls, fields):
    return cls(*fields.values())


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, other, text):
    by_position, by_keyword = _build(cls, fields), cls(**fields)
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_repr_is_the_class_and_its_fields(cls, fields, other, text):
    assert repr(_build(cls, fields)) == text


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, other, text):
    record = _build(cls, fields)
    assert record == _build(cls, dict(fields)) and not record != _build(cls, fields)
    assert hash(record) == hash(_build(cls, fields)) == hash(tuple(fields.values()))
    first = next(iter(fields))
    changed = {**fields, first: other}
    if cls is sg.AperyTable:
        changed["entries"] = (0, 1, 2, 3)
    assert record != _build(cls, changed)


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, other, text):
    record = _build(cls, fields)
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, other)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert getattr(record, first) == fields[first]


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_pickle_round_trip(cls, fields, other, text):
    record = _build(cls, fields)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record and repr(back) == text


def test_defaults():
    assert Instance("c", "l", "pass").detail == ""
    assert DeltaPrediction() == DeltaPrediction(None, (), None, None)
    assert repr(DeltaPrediction()) == "DeltaPrediction(exact=None, required=(), window_low=None, window_high=None)"
    assert ClaimSpec("c", "s", "verified", len).reads == ()
    s = sg.NumericalSemigroup((4, 6, 9))
    assert s.removed == () and s._cache == {}
    assert s._cache is not sg.NumericalSemigroup((4, 6, 9))._cache


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: sg.DeltaSet((0, 1)), "delta values are positive"),
        (lambda: sg.DeltaSet((2, 1)), "delta values must be strictly increasing"),
        (lambda: sg.DeltaSet(values=(1, 1)), "delta values must be strictly increasing"),
        (lambda: sg.LengthSet(1, (3, 3)), "length values must be strictly increasing"),
        (lambda: sg.LengthSet(p=0, values=(4, 2)), "length values must be strictly increasing"),
        (lambda: sg.AperyTable(3, (0, 4)), "need one entry per residue class"),
        (lambda: sg.AperyTable(modulus=1, entries=(0, 4)), "need one entry per residue class"),
    ],
)
def test_validated_records_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_length_and_delta_sets_read_as_their_values():
    lengths, deltas = sg.LengthSet(1, (4, 5, 7)), sg.DeltaSet.from_iterable([2, 1, 2])
    assert list(lengths) == [4, 5, 7] and len(lengths) == 3 and lengths.min_value == 4
    assert deltas == sg.DeltaSet((1, 2)) and list(deltas) == [1, 2]
    assert 2 in deltas and 3 not in deltas and deltas.as_set() == {1, 2} and len(deltas) == 2
    assert not sg.DeltaSet(()) and not sg.LengthSet(0, ())


def test_numerical_semigroup_compares_on_its_generators_only():
    plain = sg.NumericalSemigroup((4, 6, 9))
    reduced = sg.NumericalSemigroup(generators=(4, 6, 9), removed=(8,))
    reduced._cache["key"] = "value"
    assert plain == reduced and hash(plain) == hash(reduced) == hash(((4, 6, 9),))
    assert plain != sg.NumericalSemigroup((4, 6, 11)) and plain != (4, 6, 9)
    assert repr(reduced) == "NumericalSemigroup(4, 6, 9)" and reduced.removed == (8,)
    assert sg.make_semigroup([4, 6, 9, 8]).removed == (8,)
    with pytest.raises(AttributeError):
        plain.generators = (4, 6, 11)
    with pytest.raises(AttributeError):
        plain.extra = 1
    with pytest.raises(AttributeError):
        del plain.removed
    back = pickle.loads(pickle.dumps(reduced))
    assert back == reduced and back.removed == (8,) and type(back) is sg.NumericalSemigroup


def test_claim_spec_compares_without_its_runner():
    spec = ClaimSpec("c", "s", "verified", len, ("gens",))
    same = ClaimSpec(id="c", summary="s", kind="verified", runner=abs, reads=("gens",))
    assert spec == same and not spec != same
    assert hash(spec) == hash(same) == hash(("c", "s", "verified", ("gens",)))
    assert spec != ClaimSpec("c", "s", "report-only", len, ("gens",))
    assert repr(spec) == "ClaimSpec(id='c', summary='s', kind='verified', runner=<built-in function len>, reads=('gens',))"
    with pytest.raises(AttributeError):
        spec.runner = abs
    assert pickle.loads(pickle.dumps(spec)) == spec


PLAIN = (dict, list, tuple, str, int, float, bool, type(None))


def _plain(node) -> bool:
    if type(node) not in PLAIN:
        return False
    if type(node) is dict:
        return all(type(k) is str and _plain(v) for k, v in node.items())
    if type(node) in (list, tuple):
        return all(_plain(v) for v in node)
    return True


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--gens", "4,6,9", "membership", "--x", "17"],
        ["compute", "--gens", "4,6,9", "apery", "--m", "4"],
        ["compute", "--gens", "4,6,9", "frobenius"],
        ["compute", "--gens", "4,6,9,8", "betti"],
        ["compute", "--gens", "4,6,9", "presentation"],
        ["compute", "--gens", "4,6,9", "lengths", "--x", "40", "--p", "inf"],
        ["compute", "--gens", "4,6,9", "delta", "--x", "40", "--p", "1"],
        ["compute", "--gens", "4,6,9", "delta-semigroup", "--p", "0"],
        ["compute", "--gens", "4,6,9", "delta-semigroup", "--p", "inf"],
        ["verify", "step-shift", "--gens", "4,6,9"],
        ["verify", "all", "--list"],
        ["search", "--target", "1,2", "--p", "0", "--max-gen", "6"],
        ["family", "geometric:a=2,b=3,k=3"],
        ["compute", "--gens", "4,6", "frobenius"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[3:4] if argv[0] == "compute" else argv[:2]),
)
def test_no_record_reaches_the_json_writer(argv, monkeypatch):
    seen, real = [], json.dumps

    def dumps(obj, **kwargs):
        seen.append(obj)
        return real(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", dumps)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    assert seen and all(_plain(obj) for obj in seen)
