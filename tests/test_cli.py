import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sgdelta
from sgdelta import infinity, verification
from sgdelta.cli import main
from sgdelta.factorization import DeltaSet
from sgdelta.families import DeltaPrediction, family_chain, parse_family, verify_gluing


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_compute_delta_semigroup(capsys):
    code, doc = run_json(capsys, "compute", "--gens", "3,10,11", "delta-semigroup", "--p", "inf")
    assert code == 0
    assert doc["result"]["delta"] == [1, 2, 3, 4, 6, 7]
    assert doc["certificate"]["period"] == 120
    assert doc["certificate"]["mode"] == "theorem-backed"
    assert set(doc["certificate"]) == {"start", "period", "window_periods", "mode", "union_horizon"}
    assert doc["command"] == "compute"
    assert "timing" in doc and "budget" in doc


def test_compute_delta_semigroup_p0(capsys):
    code, doc = run_json(capsys, "compute", "--gens", "3,10,11", "delta-semigroup", "--p", "0")
    assert code == 0
    assert doc["result"]["delta"] == [1, 2]
    assert doc["result"]["stability_bound"] == 111


def test_compute_element_delta(capsys):
    code, doc = run_json(capsys, "compute", "--gens", "3,10,11", "delta", "--x", "21", "--p", "inf")
    assert code == 0
    assert doc["result"]["lengths"] == [1, 7]
    assert doc["result"]["delta"] == [6]


def test_compute_error_path(capsys):
    code, doc = run_json(capsys, "compute", "--gens", "4,6", "frobenius")
    assert code == 1
    assert doc["error"]["code"] == "not-coprime"


def test_compute_budget_exit_code(capsys):
    code, doc = run_json(
        capsys,
        "compute",
        "--gens",
        "6,10,15",
        "delta-semigroup",
        "--p",
        "inf",
        "--budget-elements",
        "500",
    )
    assert code == 3
    assert doc["error"]["code"] == "budget-exceeded"


def test_certificate_past_the_engine_horizon_exits_3(capsys, monkeypatch):
    # the sweep refuses a horizon past MAX_ENGINE_HORIZON as the engine
    # does; <3,10,11> sweeps to 2017 + 3 * 120 = 2377
    monkeypatch.delenv("SGDELTA_CACHE_DIR", raising=False)
    argv = ("compute", "--gens", "3,10,11", "delta-semigroup", "--p", "inf")
    monkeypatch.setattr(infinity, "MAX_ENGINE_HORIZON", 2376)
    code, doc = run_json(capsys, *argv)
    assert code == 3
    assert doc["error"] == {"code": "budget-exceeded", "message": "a sweep to 2377 exceeds the engine budget"}
    monkeypatch.setattr(infinity, "MAX_ENGINE_HORIZON", 2377)
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["certificate"]["start"] == 2017


def test_budget_flags(capsys):
    # --budget-seconds is honoured by search alone, so elsewhere it is a
    # usage error instead of a silently defaulted element budget
    with pytest.raises(SystemExit) as exc:
        main(["verify", "interval-family", "--budget-seconds", "1000"])
    assert exc.value.code == 2
    # without --budget-elements every engine keeps its per-norm default
    code, doc = run_json(capsys, "compute", "--gens", "3,10,11", "delta-semigroup", "--p", "0")
    assert code == 0 and doc["budget"] == {"defaults": True}
    # an explicit 0 is a budget, not a request for the default
    code, doc = run_json(
        capsys, "compute", "--gens", "3,10,11", "delta-semigroup", "--p", "0", "--budget-elements", "0"
    )
    assert code == 3 and doc["error"]["code"] == "budget-exceeded"
    # element queries honour the element budget too
    code, doc = run_json(
        capsys, "compute", "--gens", "3,10,11", "lengths", "--x", "2000000", "--p", "1", "--budget-elements", "1000"
    )
    assert code == 3 and doc["error"]["code"] == "budget-exceeded"
    # the max-norm engine's budget bounds the requested x, not the tables
    code, doc = run_json(capsys, "compute", "--gens", "3,10,11", "lengths", "--x", "20000001", "--p", "inf")
    assert code == 3 and doc["error"]["code"] == "budget-exceeded"
    # the 1-norm table has the same limit, checked before anything is allocated
    for x in ("20000001", "1000000000000"):
        code, doc = run_json(capsys, "compute", "--gens", "3,5", "lengths", "--x", x, "--p", "1")
        assert code == 3 and doc["error"]["code"] == "budget-exceeded", x
    code, doc = run_json(
        capsys, "search", "--target", "1", "--p", "0", "--max-gen", "12", "--budget-seconds", "0"
    )
    assert code == 0
    assert doc["result"]["tested"] == 0 and doc["result"]["exhausted"] is False


def test_compute_apery_and_membership(capsys):
    code, doc = run_json(capsys, "compute", "--gens", "3,10,11", "apery", "--m", "3")
    assert code == 0
    assert doc["result"]["entries"] == [0, 10, 11]
    code, doc = run_json(capsys, "compute", "--gens", "3,10,11", "membership", "--x", "8")
    assert doc["result"]["member"] is False


def test_compute_betti_and_removed_generators(capsys):
    code, doc = run_json(capsys, "compute", "--gens", "4,6,9", "betti")
    assert code == 0
    assert doc["result"] == {"betti": [12, 18], "generators": [4, 6, 9]}
    # a redundant input generator is dropped and named
    code, doc = run_json(capsys, "compute", "--gens", "4,6,9,12", "frobenius")
    assert code == 0
    assert doc["result"] == {"frobenius": 11, "generators": [4, 6, 9], "removed": [12]}


@pytest.mark.parametrize("what, message", [("lengths", "lengths needs --x"), ("apery", "apery needs --m")])
def test_compute_needs_its_argument(capsys, what, message):
    code, doc = run_json(capsys, "compute", "--gens", "4,6,9", what)
    assert code == 1
    assert doc["error"] == {"code": "invalid-argument", "message": message}


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            ("compute", "--gens", "3,10,11", "apery", "--m", "3"),
            ["x,invariant,value", ",modulus,3", ",entries,0;10;11"],
        ),
        (
            ("compute", "--gens", "3,10,11", "delta", "--x", "21"),
            ["x,invariant,value", "21,lengths,1;7", "21,delta,6"],
        ),
        (
            # <2,3> is decided, every other pair overruns the budget
            ("search", "--target", "1,2,3", "--p", "inf", "--max-gen", "5", "--max-dim", "2", "--budget-elements", "400"),
            ["generators,status", "2;3,hit", "2;5,budget", "3;4,budget", "3;5,budget", "4;5,budget"],
        ),
        (
            # commas inside a prediction become ';', as in the verify rows
            ("family", "geometric:a=2,b=3,k=3"),
            ["p,predicted,computed,match", "0,= [1],1,True", "inf,= [1; 2; 3],1;2;3,True"],
        ),
        (
            ("family", "gaps:k=4"),
            [
                "p,predicted,computed,match",
                "0,contains [3; 4] and meets [4; 4] in exactly that set,1;2;3;4,True",
                "inf,unspecified,1;2;3,",
            ],
        ),
    ],
    ids=["compute-apery", "compute-delta", "search", "family-geometric", "family-gaps"],
)
def test_csv_output(capsys, argv, lines):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines() == lines
    # every line has as many fields as its header
    assert {len(line.split(",")) for line in lines} == {len(lines[0].split(","))}


def test_compute_presentation(capsys):
    code, doc = run_json(capsys, "compute", "--gens", "2,3", "presentation")
    assert code == 0
    assert doc["result"]["betti"] == [6]
    assert doc["result"]["trades"] == [{"element": 6, "left": [0, 2], "right": [3, 0]}]


def test_verify_quick(capsys):
    code, doc = run_json(capsys, "verify", "three-gap-family", "--quick")
    assert code == 0
    assert doc["result"]["summary"]["fail"] == 0
    assert doc["result"]["summary"]["pass"] > 0


def test_verify_budget_overruns_are_rows(capsys):
    # an overrun on a suite semigroup is a budget row, as in the family
    # claims, and every later claim still runs
    code, doc = run_json(capsys, "verify", "all", "--quick", "--budget-elements", "2000")
    assert code == 0
    rows = doc["result"]["instances"]
    assert [r["claim"] for r in rows if r["status"] == "budget"][:3] == [
        "gap-regions",
        "delta-periodicity",
        "residue-class-deltas",
    ]
    assert len({r["claim"] for r in rows}) == 18
    assert doc["result"]["summary"] == {"pass": 34, "fail": 0, "report": 4, "budget": 5}


@pytest.mark.parametrize(
    "argv, rows",
    [
        pytest.param(
            ("minmax-bounds", "--gens", "4,6,9", "--budget-elements", "100"),
            [("NumericalSemigroup(4, 6, 9)", "x=190 exceeds element budget 100")],
            id="minmax-bounds",
        ),
        pytest.param(
            ("aap-containment", "--quick", "--budget-elements", "500"),
            [("NumericalSemigroup(4, 6, 9)", "x=884 exceeds element budget 500")],
            id="aap-containment",
        ),
        pytest.param(
            ("l0-interval-tail", "--quick", "--budget-elements", "1"),
            [("NumericalSemigroup(4, 6, 9)", "x=64 exceeds element budget 1")],
            id="l0-interval-tail",
        ),
        pytest.param(
            ("step-shift", "--gens", "4,6,9", "--budget-elements", "1"),
            [("NumericalSemigroup(4, 6, 9)", "x=856 exceeds element budget 1")],
            id="step-shift",
        ),
        pytest.param(
            ("gaps-family", "--k", "3..3", "--budget-elements", "1"),
            [("gaps:k=3", "x=51 exceeds element budget 1")],
            id="gaps-family",
        ),
        pytest.param(
            ("geometric-proof-z", "--budget-elements", "1"),
            [
                ("NumericalSemigroup(4, 6, 9)", "x=18 exceeds element budget 1"),
                ("NumericalSemigroup(4, 10, 25)", "x=50 exceeds element budget 1"),
            ],
            id="geometric-proof-z",
        ),
    ],
)
def test_verify_claims_hold_an_explicit_element_budget(capsys, argv, rows):
    # an element past the budget overruns the row that checks it, in every
    # claim; the detail names the first such element
    code, doc = run_json(capsys, "verify", *argv)
    assert code == 0
    assert [(r["instance"], r["detail"]) for r in doc["result"]["instances"]] == rows
    assert doc["result"]["summary"]["budget"] == len(rows)


@pytest.mark.parametrize("what", ["apery", "frobenius", "betti", "presentation"])
def test_compute_refuses_a_budget_it_does_not_read(capsys, what):
    m = ("--m", "4") if what == "apery" else ()
    code, doc = run_json(capsys, "compute", "--gens", "4,6,9", what, *m, "--budget-elements", "1")
    assert code == 1
    assert doc["error"] == {"code": "invalid-argument", "message": f"{what} does not read budget (--budget-elements)"}


@pytest.mark.parametrize(
    "what, flags",
    [
        ("frobenius", ("--x", "5")),
        ("apery", ("--m", "4", "--x", "5")),
        ("delta-semigroup", ("--x", "5", "--m", "3")),
        ("betti", ("--m", "3")),
        ("delta", ("--x", "21", "--m", "3")),
    ],
)
def test_compute_refuses_an_element_or_modulus_it_does_not_read(capsys, tmp_path, what, flags):
    # refused before the cache is read, so no entry is keyed on a flag
    # that cannot change the result
    code, doc = run_json(capsys, "compute", "--gens", "4,6,9", what, *flags, "--cache-dir", str(tmp_path))
    flag = "m" if what in ("betti", "delta") else "x"
    assert code == 1
    assert doc["error"] == {"code": "invalid-argument", "message": f"{what} does not read {flag} (--{flag})"}
    assert not any(tmp_path.iterdir())


def test_verify_zero_norm_claims_honour_budget(capsys):
    # the stability bounds (111 for <3,10,11>) exceed the budget, as in
    # compute delta-semigroup --p 0, so those rows are budget rows
    code, doc = run_json(capsys, "verify", "med-delta0", "--quick", "--budget-elements", "10")
    assert code == 0
    assert [r["status"] for r in doc["result"]["instances"]] == ["budget", "budget"]
    code, doc = run_json(capsys, "verify", "singleton-trades", "--budget-elements", "10")
    assert code == 0
    assert [r["status"] for r in doc["result"]["instances"]] == ["budget", "budget", "pass"]
    code, doc = run_json(capsys, "verify", "three-gen-gluing", "--max-gen", "12", "--budget-elements", "5")
    assert code == 0
    assert [r["status"] for r in doc["result"]["instances"]] == ["budget"]


def test_verify_with_range(capsys):
    code, doc = run_json(capsys, "verify", "three-gap-family", "--m", "3..4")
    assert code == 0
    labels = [r["instance"] for r in doc["result"]["instances"]]
    assert any("m=3" in l for l in labels) and any("m=4" in l for l in labels)
    assert not any("m=5" in l for l in labels)


def test_verify_with_a_one_value_range(capsys):
    # --m 4 reads as 4..4
    code, doc = run_json(capsys, "verify", "three-gap-family", "--m", "4")
    assert code == 0
    assert [(r["instance"], r["status"]) for r in doc["result"]["instances"]] == [
        ("three_gap:m=4 p=inf", "pass"),
        ("three_gap:m=4 p=0", "pass"),
        ("three_gap:m=4 max embedding dim", "pass"),
    ]


def test_verify_minmax_bounds_labels_its_range(capsys):
    # a range from 0 keeps the x<=hi label that verify all --quick pins
    for x, label in (("100..200", "x in [100,200]"), ("0..200", "x<=200")):
        code, doc = run_json(capsys, "verify", "minmax-bounds", "--gens", "4,6,9", "--x", x)
        assert code == 0
        assert [(r["instance"], r["status"]) for r in doc["result"]["instances"]] == [
            (f"NumericalSemigroup(4, 6, 9) {label}", "pass")
        ]


@pytest.mark.parametrize("claim", ["minmax-bounds", "aap-containment"])
def test_verify_x_range_without_a_member_is_an_error(capsys, claim):
    # no member of <4,6,9> lies in [1,3], so a pass row would check nothing
    code, doc = run_json(capsys, "verify", claim, "--gens", "4,6,9", "--x", "1..3")
    assert code == 1
    assert doc["error"] == {"code": "invalid-argument", "message": "no member of NumericalSemigroup(4, 6, 9) in [1,3]"}


def test_verify_rejects_parameters_its_claim_does_not_read(capsys):
    for argv, message in (
        (("l0-interval-tail", "--gens", "4,6,9", "--x", "100..200"), "l0-interval-tail does not read x_range (--x)"),
        (("med-delta0", "--gens", "3,5", "--quick"), "med-delta0 does not read gens (--gens)"),
        (("three-gap-family", "--k", "3..4"), "three-gap-family does not read k_range (--k)"),
        (("step-shift", "--m", "3..4"), "step-shift does not read m_range (--m)"),
        (("geometric-family", "--max-gen", "0"), "geometric-family does not read max_gen (--max-gen)"),
        (("interval-family", "--extended"), "interval-family does not read extended (--extended)"),
        (("gaps-family", "--k", "3..3", "--x", "0..200"), "gaps-family does not read x_range (--x)"),
        # a read parameter set beside it does not hide the unread one
        (("gaps-family", "--extended", "--x", "0..102"), "gaps-family does not read x_range (--x)"),
    ):
        code, doc = run_json(capsys, "verify", *argv)
        assert code == 1, argv
        assert doc["error"] == {"code": "invalid-argument", "message": message}, argv


def test_gaps_family_refuses_a_lower_end_of_x(capsys, monkeypatch):
    # the window scan always runs over [0, 6 * a_top], so --x, with a lower
    # end or without, is refused before any row, the scan among them, is built
    built = []
    monkeypatch.setattr(verification, "_gaps_rows", lambda *args: built.append(args) or [])
    for x in ("100..131502", "0..131502"):
        code, doc = run_json(capsys, "verify", "gaps-family", "--k", "10..10", "--extended", "--x", x)
        assert code == 1
        assert doc["error"] == {"code": "invalid-argument", "message": "gaps-family does not read x_range (--x)"}
    assert built == []
    monkeypatch.undo()
    # 6 * 17 for k = 3
    code, doc = run_json(capsys, "verify", "gaps-family", "--k", "3..3", "--extended")
    assert code == 0
    assert doc["result"]["instances"][3]["instance"] == "gaps:k=3 window scan to 102"


def test_verify_all_gives_each_claim_the_parameters_it_reads(capsys, monkeypatch):
    seen = {}

    def claim(cid, reads):
        def runner(params):
            seen[cid] = sorted(k for k, v in params.items() if k in verification.OPTIONAL and v not in (None, False))
            return [("row", "pass", "")]

        return verification.ClaimSpec(cid, "", "verified", runner, reads)

    specs = [
        claim("minmax-bounds", ("gens", "x_range")),
        claim("gaps-family", ("k_range", "extended")),
        claim("med-delta0", ()),
    ]
    monkeypatch.setattr(verification, "CLAIMS", {c.id: c for c in specs})
    code, doc = run_json(capsys, "verify", "all", "--quick", "--gens", "4,6,9", "--x", "0..200", "--k", "3..3")
    assert code == 0
    assert seen == {"minmax-bounds": ["gens", "x_range"], "gaps-family": ["k_range"], "med-delta0": []}
    code, doc = run_json(capsys, "verify", "all", "--quick", "--x", "0..200", "--extended")
    assert code == 0
    assert seen == {"minmax-bounds": ["x_range"], "gaps-family": ["extended"], "med-delta0": []}


def test_verify_gap_regions_rejects_two_generators_at_any_budget(capsys):
    # k < 3 is bad input, never a budget row: at 30,000 the certificate of
    # <7,9> overruns
    for extra in ((), ("--budget-elements", "30000")):
        code, doc = run_json(capsys, "verify", "gap-regions", "--gens", "7,9", *extra)
        assert code == 1, extra
        assert doc["error"] == {
            "code": "invalid-argument",
            "message": "interval decomposition references the third generator",
        }, extra


def test_verify_unknown_claim(capsys):
    code, doc = run_json(capsys, "verify", "no-such-claim")
    assert code == 1
    assert doc["error"] == {"code": "invalid-argument", "message": "unknown claim id 'no-such-claim'"}


def test_verify_csv(capsys):
    code, out = run_cli(capsys, "verify", "med-delta0", "--quick", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,claim,status,detail"
    assert all(",med-delta0,pass" in l for l in lines[1:])


def test_out_of_range_counts_are_errors(capsys):
    for argv in (
        ("compute", "--gens", "3,10,11", "frobenius", "--threads", "0"),
        ("verify", "interval-family", "--quick", "--threads", "-3"),
        ("verify", "all", "--list", "--threads", "0"),
        ("compute", "--gens", "3,10,11", "frobenius", "--budget-elements", "-5"),
        ("search", "--target", "1", "--p", "0", "--max-gen", "8", "--budget-elements", "-1"),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 1, argv
        assert doc["error"]["code"] == "invalid-argument", argv


@pytest.mark.parametrize(
    "argv",
    [("verify", "all", "--quick"), ("search", "--target", "1", "--p", "0", "--max-gen", "8"), ("family", "three_gap:m=3")],
    ids=["verify", "search", "family"],
)
def test_cache_dir_only_on_compute(tmp_path, argv):
    # compute alone reads the cache, so elsewhere the flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_family_claim_builds_the_member_before_predicting(capsys):
    # m = 0 would predict a delta set containing 0; the member's own error wins
    for argv in (("verify", "three-gap-family", "--m", "0..1"), ("family", "three_gap:m=0")):
        code, doc = run_json(capsys, *argv)
        assert code == 1, argv
        assert doc["error"] == {"code": "invalid-generators", "message": "three_gap needs m >= 3"}, argv


def test_family_command(capsys):
    code, doc = run_json(capsys, "family", "geometric:a=2,b=3,k=3")
    assert code == 0
    assert doc["result"]["generators"] == [4, 6, 9]
    assert doc["result"]["checks"]["0"]["match"] is True
    assert doc["result"]["checks"]["inf"]["match"] is True


def test_family_bad_parameters(capsys):
    # each message names what is wrong
    for spec, message in [
        ("geometric:a=2,b=3", "geometric needs parameter 'k'"),
        ("interval:k=3,seeds=5", "interval needs exactly 2 seeds, got 1"),
        ("interval:k=2,seeds=5,7,11", "interval needs exactly 2 seeds, got 3"),
        ("geometric:a=2,3,b=3,k=3", "geometric parameter 'a' takes one value, got 2"),
        ("three_gap:m=4,5", "three_gap parameter 'm' takes one value, got 2"),
        ("geometric:a=2,b=5,k=3,a=3", "geometric parameter 'a' given twice"),
    ]:
        code, doc = run_json(capsys, "family", spec)
        assert code == 1
        assert doc["error"] == {"code": "invalid-argument", "message": message}, spec


def test_family_with_explicit_interval_seeds(capsys):
    # seeds are read in either order, and the default is the least two primes above k
    for spec, gens in (("interval:k=3,seeds=7,5", [12, 65, 91]), ("interval:k=3,seeds=11,13", [24, 319, 377])):
        code, doc = run_json(capsys, "family", spec, "--p", "0")
        assert code == 0
        assert doc["result"]["generators"] == gens, spec
        assert doc["result"]["checks"] == {"0": {"predicted": "= [1, 2]", "computed": [1, 2], "match": True}}, spec
    steps = family_chain(parse_family("interval:k=3,seeds=11,13"))
    assert steps and all(verify_gluing(st.scale, st.base_gens, st.new_gen) for st in steps)


def test_family_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr("sgdelta.families.predicted_delta", lambda spec, p: DeltaPrediction(exact=DeltaSet((5,))))
    code, doc = run_json(capsys, "family", "geometric:a=2,b=3,k=3", "--p", "0")
    assert code == 4
    assert doc["result"]["checks"] == {"0": {"predicted": "= [5]", "computed": [1], "match": False}}


def test_family_interval_seeds_checked_at_every_k(capsys):
    for spec in ("interval:k=2,seeds=4,9", "interval:k=2,seeds=2,3"):
        code, doc = run_json(capsys, "family", spec)
        assert code == 1
        assert doc["error"] == {
            "code": "invalid-generators",
            "message": "seeds must be distinct primes above k=2",
        }, spec


def test_verify_gaps_family_past_the_enumeration_limit(capsys):
    # 2 * a_18 = 34,155,986 exceeds the engine horizon: no table is built,
    # and the overrun k is one budget row, as in every other claim
    code, doc = run_json(capsys, "verify", "gaps-family", "--k", "17..17")
    assert code == 0
    assert [(r["instance"], r["status"]) for r in doc["result"]["instances"]] == [("gaps:k=17", "budget")]


def test_verify_reversed_range_is_an_error(capsys):
    for argv in (
        ("aap-containment", "--x", "10..5"),
        ("three-gap-family", "--m", "5..3"),
        ("gaps-family", "--k", "5..3"),
    ):
        code, doc = run_json(capsys, "verify", *argv)
        assert code == 1, argv
        assert doc["error"]["code"] == "invalid-argument", argv


def test_verify_max_gen_is_read_as_given(capsys):
    # 0 is not the default grid, and a grid with no semigroup is an error
    for max_gen in ("0", "4"):
        code, doc = run_json(capsys, "verify", "three-gen-gluing", "--max-gen", max_gen)
        assert code == 1, max_gen
        assert doc["error"]["code"] == "invalid-argument", max_gen
    # <3,4,5> is the only 3-generated semigroup with a_3 <= 5
    code, doc = run_json(capsys, "verify", "three-gen-gluing", "--max-gen", "5")
    assert code == 0
    assert [(r["instance"], r["status"]) for r in doc["result"]["instances"]] == [
        ("all 3-generated with a_3 <= 5 (1 semigroups)", "pass")
    ]


def test_family_unspecified_prediction(capsys):
    # no covered max-norm statement for MED inputs: computed but unmatched
    code, doc = run_json(capsys, "family", "med_check:gens=3,10,11", "--p", "inf")
    assert code == 0
    assert doc["result"]["checks"]["inf"]["predicted"] == "unspecified"
    assert doc["result"]["checks"]["inf"]["computed"] == [1, 2, 3, 4, 6, 7]


def test_family_budget_status(capsys):
    # interval k=3 has no covered max-norm statement and a certificate
    # horizon beyond the default budget: reported, not failed
    code, doc = run_json(capsys, "family", "interval:k=3", "--p", "inf")
    assert code == 0
    assert doc["result"]["checks"]["inf"]["status"] == "budget"


def test_search_command(capsys):
    code, doc = run_json(
        capsys, "search", "--target", "1,2", "--p", "0", "--max-gen", "12", "--max-dim", "3"
    )
    assert code == 0
    assert [3, 5, 7] in doc["result"]["hits"]
    assert doc["result"]["exhausted"] is True


def test_search_rejection(capsys):
    code, doc = run_json(
        capsys, "search", "--target", "2", "--p", "0", "--max-gen", "10", "--max-dim", "2"
    )
    assert code == 1
    assert "contains 1" in doc["error"]["message"]


def test_search_over_an_empty_space_is_an_error(capsys):
    # no candidate exists, so a search there would decide nothing
    for argv in (("--max-gen", "10", "--max-dim", "0"), ("--max-gen", "-4")):
        code, doc = run_json(capsys, "search", "--target", "1,2", "--p", "0", *argv)
        assert code == 1, argv
        assert doc["error"]["code"] == "invalid-argument", argv
    # the smallest space holds <2,3>
    code, doc = run_json(capsys, "search", "--target", "1", "--p", "0", "--max-gen", "3", "--max-dim", "2")
    assert code == 0
    assert doc["result"]["tested"] == 1 and doc["result"]["hits"] == [[2, 3]]
    assert doc["result"]["exhausted"] is True


@pytest.mark.parametrize("seconds", ["nan", "inf", "-1"])
def test_search_time_budget_must_be_finite_and_nonnegative(capsys, seconds):
    # NaN never passed the deadline and was echoed as a bare NaN; -1 tested
    # nothing and exited 0
    code, out = run_cli(
        capsys, "search", "--target", "1,2", "--p", "0", "--max-gen", "8", "--budget-seconds", seconds
    )
    doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
    assert code == 1
    assert doc["error"]["code"] == "invalid-argument"


def test_cache_roundtrip(tmp_path, capsys):
    argv = [
        "compute",
        "--gens",
        "3,10,11",
        "delta-semigroup",
        "--p",
        "inf",
        "--cache-dir",
        str(tmp_path),
    ]
    code1, doc1 = run_json(capsys, *argv)
    assert code1 == 0 and not doc1["timing"]["cached"]
    assert list(tmp_path.glob("*.json"))
    code2, doc2 = run_json(capsys, *argv)
    assert code2 == 0 and doc2["timing"]["cached"]
    assert doc2["result"]["delta"] == doc1["result"]["delta"]
    assert doc2["certificate"] == doc1["certificate"]


def test_cache_unreadable_entry_is_a_miss(tmp_path, capsys):
    argv = ["compute", "--gens", "3,10,11", "delta-semigroup", "--p", "inf", "--cache-dir", str(tmp_path)]
    _, doc1 = run_json(capsys, *argv)
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(entry.read_text()[:20])
    code, doc2 = run_json(capsys, *argv)
    assert code == 0 and not doc2["timing"]["cached"]
    assert doc2["result"] == doc1["result"] and doc2["certificate"] == doc1["certificate"]
    # the recomputed result was written back whole
    code, doc3 = run_json(capsys, *argv)
    assert code == 0 and doc3["timing"]["cached"] and doc3["result"] == doc1["result"]
    assert [f.name for f in tmp_path.iterdir()] == [entry.name]


def test_cache_unwritable_keeps_the_result(tmp_path, capsys):
    argv = ["compute", "--gens", "3,5", "frobenius", "--cache-dir"]
    # the cache directory is a file, so no entry can be written
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([*argv, str(blocker)])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["result"]["frobenius"] == 7
    assert len(captured.err.splitlines()) == 1 and "not cached" in captured.err
    assert blocker.read_text() == ""
    # the entry's path is a directory, so the rename fails; its temp file goes
    cdir = tmp_path / "cache"
    run_json(capsys, *argv, str(cdir))
    (entry,) = cdir.iterdir()
    entry.unlink()
    entry.mkdir()
    code = main([*argv, str(cdir)])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["result"]["frobenius"] == 7
    assert len(captured.err.splitlines()) == 1 and "not cached" in captured.err
    assert list(cdir.iterdir()) == [entry]


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SGDELTA_CACHE_DIR", str(tmp_path))
    run_json(capsys, "compute", "--gens", "2,3", "frobenius")
    assert list(tmp_path.glob("*.json"))


def test_cache_key_leaves_out_an_unread_p(tmp_path, capsys):
    # frobenius does not read --p, so every value of it is one entry
    for p in ("1", "inf", "0"):
        code, doc = run_json(capsys, "compute", "--gens", "4,6,9", "frobenius", "--p", p, "--cache-dir", str(tmp_path))
        assert code == 0 and doc["result"]["frobenius"] == 11
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert doc["timing"]["cached"]


def test_cache_key_holds_a_read_p(tmp_path, capsys):
    for p in ("1", "inf"):
        code, doc = run_json(
            capsys, "compute", "--gens", "4,6,9", "lengths", "--x", "36", "--p", p, "--cache-dir", str(tmp_path)
        )
        assert code == 0 and not doc["timing"]["cached"] and doc["result"]["p"] == p
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cache_entry_written_by_other_code_is_a_miss(tmp_path):
    # the key holds the package source, so after any edit, a comment line
    # included, an entry written before it is a miss
    pkg = tmp_path / "src" / "sgdelta"
    shutil.copytree(Path(sgdelta.__file__).parent, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(pkg.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = ["compute", "--gens", "4,6,9", "delta-semigroup", "--p", "inf", "--cache-dir", str(tmp_path / "cache")]

    def cached() -> bool:
        proc = subprocess.run(
            [sys.executable, "-m", "sgdelta.cli", *argv], capture_output=True, text=True, env=env, timeout=60, check=True
        )
        return json.loads(proc.stdout)["timing"]["cached"]

    assert [cached(), cached()] == [False, True]
    with (pkg / "infinity.py").open("a") as f:
        f.write("# one more comment line\n")
    assert cached() is False


def test_cache_entry_is_not_served_under_another_budget(tmp_path, capsys):
    argv = ["compute", "--gens", "4,6,9", "delta-semigroup", "--p", "inf", "--cache-dir", str(tmp_path)]
    code, _ = run_json(capsys, *argv)
    assert code == 0 and list(tmp_path.glob("*.json"))
    code, doc = run_json(capsys, *argv, "--budget-elements", "2000")
    assert code == 3 and doc["error"]["code"] == "budget-exceeded"


def test_json_keys_sorted(capsys):
    code, out = run_cli(capsys, "compute", "--gens", "2,3", "frobenius")
    doc = json.loads(out)
    assert out.index('"budget"') < out.index('"command"') < out.index('"result"')
    assert doc["result"]["frobenius"] == 1


def test_list_claims(capsys):
    code, doc = run_json(capsys, "verify", "all", "--list")
    assert code == 0
    assert "three-gap-family" in doc
    assert doc["geometric-proof-z"]["kind"] == "report-only"


@pytest.mark.parametrize(
    "argv",
    [["compute", "--gens", "3,10,11", "frobenius"], ["--version"], ["compute", "--help"]],
    ids=["compute-frobenius", "version", "compute-help"],
)
def test_closed_stdout_exits_1_without_traceback(argv):
    # the read end is closed before the child starts, so its first write fails;
    # argparse prints --help and --version itself, before any command runs
    r, w = os.pipe()
    os.close(r)
    env = {**os.environ, "PYTHONPATH": str(Path(sgdelta.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sgdelta.cli", *argv],
            stdout=w,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == b""
