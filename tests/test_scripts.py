"""Smoke tests for the scripts: each ``main`` runs on a small input and
prints its known output lines."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_certify_all_reads_uncovered_orbits_without_the_decoded_view(monkeypatch, capsys):
    from fermatlines.certify import Certificate

    def forbidden(self):
        raise AssertionError("the decoded view was built")

    monkeypatch.setattr(Certificate, "coverage", property(forbidden))
    assert load("certify_all").main(["--fields", "11,13"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "   11     9 NOT_CERTIFIED              1  2,6,10",
        "   13    13 FULL_RANK_CERTIFIED        1  -",
    ]


def test_certify_all_rejects_non_prime_power(capsys):
    assert load("certify_all").main(["--fields", "12"]) == 2
    assert "not an odd prime power: 12" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["9", "2003", "x"])
def test_certify_all_rejects_bad_fields_with_usage_exit(capsys, token):
    # characteristic 3, over the size cap, not an integer: exit 2, not a
    # traceback (exit 1 is reserved for a mathematical contradiction)
    assert load("certify_all").main(["--fields", token]) == 2
    err = capsys.readouterr().err
    assert err.strip() and "\n" not in err.strip()


@pytest.mark.parametrize(
    "argv",
    [["--fields", "9"], ["--fields", "4"], ["--fields", "2003"], ["--order", "2"]],
    ids=["fields-9", "fields-4", "fields-2003", "order-2"],
)
def test_survey_extremal_sums_rejects_bad_input_with_usage_exit(capsys, argv):
    assert load("survey_extremal_sums").main(["--upto", "0", *argv]) == 2
    err = capsys.readouterr().err
    assert err.strip() and "\n" not in err.strip()


@pytest.mark.parametrize("script", ["certify_all", "survey_extremal_sums"])
def test_scripts_reject_a_huge_field_at_once(script):
    # the size cap is checked before prime_power trial-divides the field; a
    # fresh process with a timeout turns a hang into a failure
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{script}.py"), "--fields", "1000000000000000003"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "exceeds the size cap" in done.stderr and done.stderr.count("\n") == 1


def _forbidden(*args):
    raise AssertionError("a field was surveyed before every field was checked")


@pytest.mark.parametrize(
    "script,work,argv",
    [
        ("survey_extremal_sums", "survey_N", ["--upto", "2003"]),
        ("survey_extremal_sums", "survey_N", ["--upto", "7", "--fields", "5,2003"]),
        ("certify_all", "certify", ["--fields", "5,2003"]),
    ],
    ids=["survey-upto-2003", "survey-fields-5,2003", "certify-fields-5,2003"],
)
def test_scripts_check_every_field_before_any_work(monkeypatch, capsys, script, work, argv):
    # q = 2003 is over the size cap; the smaller fields before it must not
    # be worked on, nor the header printed
    module = load(script)
    monkeypatch.setattr(module, work, _forbidden)
    assert module.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "exceeds the size cap" in err and "\n" not in err.strip()


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
