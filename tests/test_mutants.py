import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_to_exactly_one_place():
    # tools/mutants.py runs outside this suite; an edit that moves or
    # duplicates a mutant's old text must fail here, not go unseen there
    mutants = _tool().MUTANTS
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.tests and all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name


def test_a_run_past_the_timeout_is_its_own_outcome(tmp_path, monkeypatch):
    # a mutant whose tests never finish is stopped and reported as timed
    # out, not as killed
    tool = _tool()
    (tmp_path / "test_sleeps.py").write_text("import time\n\n\ndef test_sleeps():\n    time.sleep(60)\n")
    monkeypatch.setattr(tool, "TIMEOUT_S", 2)
    outcomes, seconds = tool._run(tmp_path, ("test_sleeps.py",))
    assert outcomes == {"test_sleeps.py": "timeout"}
    assert seconds < 30


def test_each_named_test_gets_its_own_outcome(tmp_path):
    # the run goes on past the first failure, so a named test that passes
    # after one that fails is seen, and a mutant it does not catch survives
    (tmp_path / "test_cases.py").write_text(
        "import pytest\n\n\n"
        "def test_fails():\n    assert False\n\n\n"
        "def test_passes():\n    pass\n\n\n"
        "@pytest.mark.parametrize('n', [1, 2])\ndef test_one_case_fails(n):\n    assert n == 1\n"
    )
    named = (
        "test_cases.py::test_fails",
        "test_cases.py::test_passes",
        "test_cases.py::test_one_case_fails",
        "test_cases.py::test_one_case_fails[1]",
    )
    tool = _tool()
    outcomes, _ = tool._run(tmp_path, named)
    assert outcomes == dict(zip(named, ("fail", "pass", "fail", "pass")))
    # a file counts all its cases; a named test with no case caught nothing
    cases = [("test_cases", "test_passes", "pass"), ("test_cases", "test_fails", "failure")]
    assert tool._outcome("test_cases.py", cases) == "fail"
    assert tool._outcome("test_cases.py::test_missing", cases) == "error"
