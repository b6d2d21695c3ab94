"""Smoke tests for the scripts: each ``main`` runs on a small input and
prints its known output lines."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_all(capsys):
    assert load("certify_all").main(["--fields", "5,7,11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "    5     3 FULL_RANK_CERTIFIED        1  -",
        "    7     7 FULL_RANK_CERTIFIED        1  -",
        "   11     9 NOT_CERTIFIED              1  2,6,10",
    ]


def test_certify_all_rejects_non_prime_power(capsys):
    assert load("certify_all").main(["--fields", "12"]) == 2
    assert "not an odd prime power: 12" in capsys.readouterr().err


def test_survey_extremal_sums(capsys):
    assert load("survey_extremal_sums").main(["--upto", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        "     7     3         3      yes  3,5",
        "    11     6         6      yes  2,6,10",
    ]


def test_print_example_point(capsys):
    assert load("print_example_point").main() == 0
    out = capsys.readouterr().out
    assert "degrees: x = 14/8, y = 21/12" in out
    assert "on curve: True" in out
    assert out.count("on curve True") == 8
