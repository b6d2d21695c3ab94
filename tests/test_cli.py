"""End-to-end tests for the command-line interface.

Every test drives ``fermatlines.cli.main`` directly with argv lists and
captures stdout; exit codes follow the contract 0 = success, 1 =
mathematical contradiction, 2 = usage error.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fermatlines import gf
from fermatlines.certify import Certificate
from fermatlines.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    return doc


# ----------------------------------------------------------------------------
# rank
# ----------------------------------------------------------------------------


def test_rank_pretty(capsys):
    rc, out = run(capsys, "rank", "--p", "7")
    assert rc == 0
    assert "expected rank 7" in out


def test_rank_json_and_csv(capsys):
    doc = run_json(capsys, "rank", "--p", "11", "--format", "json")
    assert doc == {"schema": 1, "q": 11, "expected_rank": 9}
    rc, out = run(capsys, "rank", "--p", "5", "--format", "csv")
    assert rc == 0
    assert out == "q,expected_rank\n5,3\n"


def test_rank_extension_and_errors(capsys):
    doc = run_json(capsys, "rank", "--p", "5", "--k", "2", "--format", "json")
    assert doc["q"] == 25 and doc["expected_rank"] == 25
    rc, _ = run(capsys, "rank", "--p", "9")
    assert rc == 2
    rc, _ = run(capsys, "rank", "--p", "3")
    assert rc == 2
    rc = main(["rank", "--p", "25"])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", "error: p = 25 is not prime\n")


# ----------------------------------------------------------------------------
# charsum
# ----------------------------------------------------------------------------


def test_charsum_endpoint_value(capsys):
    rc, out = run(capsys, "charsum", "--p", "7", "--c", "0", "--tuple", "1,1,1,5")
    assert rc == 0
    assert "as integer: 7" in out


def test_charsum_json_real(capsys):
    doc = run_json(
        capsys, "charsum", "--p", "7", "--c", "3", "--tuple", "1,1,1,5", "--format", "json"
    )
    assert doc["is_real"] is True
    assert doc["q"] == 7
    assert doc["tuple"] == [1, 1, 1, 5]
    assert isinstance(doc["value"], list)


def test_charsum_csv_flattens_canon(capsys):
    rc, out = run(
        capsys, "charsum", "--p", "7", "--c", "3", "--tuple", "1,1,1,5", "--format", "csv"
    )
    assert rc == 0
    header, row = out.splitlines()
    cols = header.split(",")
    assert cols[:6] == ["q", "c", "i0", "i1", "i2", "i3"]
    assert [c for c in cols if c.startswith("S_")] == [f"S_{j}" for j in range(4)]
    assert row.split(",")[0] == "7"


def test_charsum_rejects_c_outside_base_field(capsys):
    rc, _ = run(capsys, "charsum", "--p", "7", "--c", "0,2", "--tuple", "1,1,1,5")
    assert rc == 2


def test_charsum_rejects_bad_tuples(capsys):
    rc, _ = run(capsys, "charsum", "--p", "7", "--c", "3", "--tuple", "1,1,1,4")
    assert rc == 2  # entries do not sum to 0 mod d
    rc, _ = run(capsys, "charsum", "--p", "7", "--c", "3", "--tuple", "1,1,1")
    assert rc == 2
    rc, _ = run(capsys, "charsum", "--p", "7", "--c", "x", "--tuple", "1,1,1,5")
    assert rc == 2


# ----------------------------------------------------------------------------
# survey
# ----------------------------------------------------------------------------


def test_survey_q7_order4(capsys):
    doc = run_json(capsys, "survey", "--p", "7", "--order", "4", "--format", "json")
    assert doc["N"] == 3 and doc["bound"] == 3
    assert doc["hits"] == [2, 4, 6]
    assert doc["misses"] == [3, 5]


def test_survey_q11_order4(capsys):
    doc = run_json(capsys, "survey", "--p", "11", "--order", "4", "--format", "json")
    assert doc["N"] == 6
    assert doc["misses"] == [2, 6, 10]


def test_survey_csv(capsys):
    rc, out = run(capsys, "survey", "--p", "7", "--order", "4", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "c,extremum"
    assert "2,upper" in lines and "3,lower" in lines


def test_survey_rejects_bad_order(capsys):
    rc, _ = run(capsys, "survey", "--p", "7", "--order", "3")
    assert rc == 2  # 3 does not divide d = 8
    rc, _ = run(capsys, "survey", "--p", "7", "--order", "2")
    assert rc == 2


def test_survey_large_field_needs_extended(capsys):
    rc, _ = run(capsys, "survey", "--p", "7", "--k", "3", "--order", "4")
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [("certify", "--p", "2003"), ("survey", "--p", "7", "--k", "4", "--order", "4")],
)
def test_fields_over_the_size_cap_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 2
    assert "exceeds the size cap 4000000" in capsys.readouterr().err


HUGE_P = "1000000000000000003"  # prime, and far past the size cap


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--p", HUGE_P],
        ["survey", "--p", HUGE_P, "--order", "4"],
        ["lines", "--p", HUGE_P],
        ["point", "--p", HUGE_P, "--thm1"],
        ["certify", "--p", "5", "--k", "1000000000"],
        ["rank", "--p", "1000000007", "--k", "2"],
        ["rank", "--p", "5", "--k", "1000000000"],
        ["rank", "--p", "5", "--k", "7000"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_huge_p_or_k_exits_2_before_any_work(argv):
    # each limit is checked before p^k, a primality test or a factorisation;
    # a fresh process with a timeout turns a hang into a failure
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "fermatlines.cli", *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: q^2 = ") and done.stderr.count("\n") == 1
    assert "exceeds the size cap" in done.stderr


def test_rank_limits_leave_large_q_working(capsys):
    doc = run_json(capsys, "rank", "--p", "5", "--k", "12", "--format", "json")
    assert doc["q"] == 5**12 and doc["expected_rank"] == 5**12
    doc = run_json(capsys, "rank", "--p", "999983", "--k", "2", "--format", "json")
    assert doc["q"] == doc["expected_rank"] == 999983**2  # = 1 mod 3


def test_rank_does_not_factorise_q(monkeypatch, capsys):
    # check_field has already shown q = p^k with p prime, so rank only
    # applies the formula
    calls = []
    real = gf._prime_factors
    monkeypatch.setattr(gf, "_prime_factors", lambda n: calls.append(n) or real(n))
    rc, out = run(capsys, "rank", "--p", "999999999989")
    assert (rc, out) == (0, "q = 999999999989: expected rank 999999999987\n")
    assert calls == []


@pytest.mark.extended
def test_survey_q343_extended(capsys):
    doc = run_json(
        capsys, "survey", "--p", "7", "--k", "3", "--order", "4", "--extended",
        "--format", "json",
    )
    assert doc["N"] == 255 and doc["bound"] == 255


# ----------------------------------------------------------------------------
# lines
# ----------------------------------------------------------------------------


def test_lines_q7(capsys):
    doc = run_json(capsys, "lines", "--p", "7", "--format", "json")
    assert doc["q"] == 7
    assert len(doc["lines"]) == 2
    for group in doc["lines"]:
        assert len(group["pairs"]) == 4
        assert len(group["c_coeffs"]) == 2 and group["c_coeffs"][1] == 0


def test_lines_restrict_to_one_c(capsys):
    doc = run_json(capsys, "lines", "--p", "7", "--c", "3", "--format", "json")
    assert len(doc["lines"]) == 1
    assert doc["lines"][0]["c_coeffs"] == [3, 0]


def test_lines_rejects_inadmissible_c(capsys):
    message = "--c is not admissible: it must be a nonsquare of F_q with c-1 a nonzero square"
    # 2 is a square mod 7, and w = (0, 1) lies outside F_7
    for c in ("2", "0", "0,1"):
        assert main(["lines", "--p", "7", "--c", c]) == 2
        assert message in capsys.readouterr().err


def test_lines_csv(capsys):
    rc, out = run(capsys, "lines", "--p", "7", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "c,a,b"
    assert len(lines) == 1 + 8  # two admissible values, four (a,b) pairs each


# ----------------------------------------------------------------------------
# point
# ----------------------------------------------------------------------------


def test_point_thm1_pretty(capsys):
    rc, out = run(capsys, "point", "--p", "7", "--thm1")
    assert rc == 0
    assert "on curve: True" in out
    assert "degrees: x = 14/8, y = 21/12" in out


def test_point_explicit_matches_thm1(capsys):
    doc1 = run_json(capsys, "point", "--p", "7", "--thm1", "--format", "json")
    doc2 = run_json(
        capsys, "point", "--p", "7", "--a", "3", "--b", "0,2", "--format", "json"
    )
    assert doc1["point"] == doc2["point"]
    assert doc1["a"] == [3, 0] and doc1["b"] == [0, 2]


def test_point_translate_changes_point(capsys):
    doc0 = run_json(capsys, "point", "--p", "7", "--thm1", "--format", "json")
    doc3 = run_json(
        capsys, "point", "--p", "7", "--thm1", "--translate", "3", "--format", "json"
    )
    assert doc3["translate"] == 3
    assert doc3["point"] != doc0["point"]
    # translating by d is the identity
    doc8 = run_json(
        capsys, "point", "--p", "7", "--thm1", "--translate", "8", "--format", "json"
    )
    assert doc8["translate"] == 0
    assert doc8["point"] == doc0["point"]


# sha256 of the point JSON at north-star sizes, recorded from the construction
# that gcd-normalised every RatFunc step.  The canonical form is unique, so
# the fraction-free construction has to reproduce these bytes exactly.
POINT_PINS = [
    (
        ("--p", "19", "--thm1"),
        "2a32e34cd996cf8f3c4869cdf86cc84eedf58bef5569e1c5e178dcc7a48181f8",
    ),
    (
        ("--p", "19", "--thm1", "--translate", "5"),
        "a4e9e4310b9606efe0f98fa3b333dc67240a475022a00ad075bf28daa7e487f5",
    ),
    (
        ("--p", "31", "--thm1"),
        "b3535727268483e98fe601547f84ebd441399c103ac8a8d036938263ad0adb0d",
    ),
    # recorded from the construction that reduced x and y by the expansion
    # in powers of f0*f1*f2/p3, before powering in L1 replaced it
    (
        ("--p", "43", "--thm1"),
        "fd2e9958cbd58ba2151e5393f0f4418fed2bd6ce7e4bf7ad9668c051c56b10ab",
    ),
    (
        ("--p", "139", "--thm1"),
        "76ab5d5d95ed7ea44d1f4c02a6f00a0817e46feb08b1e692c6202b5f86718a2a",
    ),
    (
        ("--p", "307", "--thm1"),
        "bd6d931befc4d36ab503f373f82afefc56b661a82dcc2cdfd465cea6a2c73ac7",
        pytest.mark.extended,
    ),
    (
        ("--p", "631", "--thm1"),
        "264e226ed856805502c14c241bad2e53f58daf7f2b1285ce8dafc0ebc7f4160e",
        pytest.mark.extended,
    ),
    # recorded from the construction whose quotients were all taken top down
    (
        ("--p", "1999", "--thm1"),
        "d8d5ba51c444de655a444b6bfc04e4f2b84376e64c52a13d3053b9e1272bf751",
        pytest.mark.extended,
    ),
]


@pytest.mark.parametrize(
    "args,digest",
    [pytest.param(a, d, marks=m, id=" ".join(a)) for a, d, *m in POINT_PINS],
)
def test_point_json_matches_pin(capsys, args, digest):
    rc, out = run(capsys, "point", *args, "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the survey JSON of the survey_large benchmark workload, recorded
# from the survey that swept every c in F_q; the orbit survey must
# reproduce these bytes exactly
SURVEY_PINS = [
    (("--p", "7", "--k", "3"), "2cadf788fa17f00ccd932a7d6d11613d6210dea9c7058569d92cfe6e85829290"),
    (("--p", "251"), "46d6704f2d042fc54490fc07f065d25bea9212d0b9dc586a72c6f8f577000df2"),
    # recorded from the sweep of the whole F_q-plane, before the Frobenius fold
    (("--p", "11", "--k", "3"), "498fda0e277d17784f419dde4b29c4456e674a672a57e76a9787cff1e26373a1"),
    (
        ("--p", "1999"),
        "70e5251508e991e70b083f4e8263ee3d3aa425faead322cde267551d35a5f495",
        pytest.mark.extended,
    ),
]


@pytest.mark.parametrize(
    "args,digest",
    [pytest.param(a, d, marks=m, id=" ".join(a)) for a, d, *m in SURVEY_PINS],
)
def test_survey_json_matches_pin(capsys, args, digest):
    rc, out = run(capsys, "survey", *args, "--order", "4", "--extended", "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the certificate in each format, recorded from the certify that
# built an ExponentTuple, a CycElt and a CoverageEntry per tuple; the JSON
# written from the canon rows and the decoded view must reproduce these bytes
CERTIFY_PINS = [
    (("--p", "11", "--format", "json"), "66c407702754e7e72ce90cd5189bd5de1646511f962eae60a722936ca3163519"),
    (("--p", "13", "--format", "json"), "4243effbda9659d6298dfbe33d337b27e30ea2779ef6d7731d7c7ac4f6a12ed8"),
    (("--p", "19", "--format", "json"), "ef9b354989f6650ef26d5b5636f535aef966153b34f3e6049d567b38dc84f34f"),
    (("--p", "71", "--format", "json"), "64beda17275d0e25310ad46e1373d15d758c6d2550bc969815f096401526f9dd"),
    (
        ("--p", "11", "--k", "2", "--format", "json"),
        "6266a57c05fb962dc60cc831abf58be76f036ae00bb0e8628b4429d1eafeceb0",
    ),
    (("--p", "11", "--format", "csv"), "8c4174895fa77bac2079c0493d26f7a152f62fd4a9508169be5e645c06ffcc2f"),
    (("--p", "13", "--format", "csv"), "68996f5402995e59397411be6fb26cfa067b8c48529925c0483bd6d88c5797e1"),
    (("--p", "11",), "d0cdce8b60ffe01401d58b47e9ea6c04d3c11a54451f09fdc522275eadf736fc"),
    (("--p", "13",), "34b4f6d5c0ba2559925dfbe75128c3320033f9f738730f612ee13c26c2f379ee"),
    # past one block of _BLOCK_ROWS = 256 tuples: q = 263 takes 2 lines over
    # 261 tuples, q = 499 the single line over 499 tuples in 2 blocks
    (("--p", "263", "--format", "json"), "a2d77969da1436499d7b07fbf4295cfdd06afc6cad615d6a3211f54fcf245ce9"),
    (("--p", "499", "--format", "json"), "596de44934fea5fa6be0340be53b436f6b335825f823c88f39ff06591eb9c064"),
    # recorded before the x^(m/2) = -1 fold in the reduction of Z[zeta_d]
    (
        ("--p", "1429", "--format", "json"),
        "e35a36b9a5f9dfa2a724b6529c7914faffc0fb4c68726dc81c9b459cbd9a94d1",
        pytest.mark.extended,
    ),
    (
        ("--p", "1993", "--format", "json"),
        "a6e95b39234c4a6cffc429b98c0d9ded8e89709982d2dbb26650fe556ee6165e",
        pytest.mark.extended,
    ),
    (
        ("--p", "1997", "--format", "json"),
        "5e50f3315e729e5b45494e1ddf84fd62f164eaa7361b0edbe66fe9e1f69d6c87",
        pytest.mark.extended,
    ),
    (
        ("--p", "1999", "--format", "json"),
        "f0835a29be2a9804e10bb259d0bcaf8a8231ee53aba8d680d4d6c05763dabbc1",
        pytest.mark.extended,
    ),
]


@pytest.mark.parametrize(
    "args,digest",
    [pytest.param(a, d, marks=m, id=" ".join(a)) for a, d, *m in CERTIFY_PINS],
)
def test_certify_output_matches_pin(capsys, args, digest):
    rc, out = run(capsys, "certify", *args, "--extended")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("p", ["11", "13"])
def test_certify_pretty_reads_uncovered_without_the_json_dict(capsys, monkeypatch, p):
    def unused(self):
        raise AssertionError("the pretty output built to_json_dict")

    monkeypatch.setattr(Certificate, "to_json_dict", unused)
    rc, out = run(capsys, "certify", "--p", p)
    assert rc == 0
    digest = next(d for a, d, *_ in CERTIFY_PINS if a == ("--p", p))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_point_usage_errors(capsys):
    rc, _ = run(capsys, "point", "--p", "7", "--thm1", "--a", "3")
    assert rc == 2
    rc, _ = run(capsys, "point", "--p", "7", "--a", "3")
    assert rc == 2
    rc, _ = run(capsys, "point", "--p", "7", "--a", "1", "--b", "0,1")
    assert rc == 2  # a^2 + 1 != b^2
    rc, _ = run(capsys, "point", "--p", "5", "--thm1")
    assert rc == 2  # no canonical single-line datum unless q = 7 mod 12


# ----------------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------------


def test_certify_q7(capsys):
    doc = run_json(capsys, "certify", "--p", "7", "--format", "json")
    assert doc["verdict"] == "FULL_RANK_CERTIFIED"
    assert doc["lines_used"] == 1
    assert doc["expected_rank"] == 7


def test_certify_q13(capsys):
    doc = run_json(capsys, "certify", "--p", "13", "--format", "json")
    assert doc["verdict"] == "FULL_RANK_CERTIFIED"
    assert doc["lines_used"] <= 3


def test_certify_q11_reports_plainly(capsys):
    rc, out = run(capsys, "certify", "--p", "11")
    assert rc == 0  # no theorem promises success here: report, do not fail
    assert "NOT_CERTIFIED" in out
    assert "(2, 2, 2, 6)" in out


def test_certify_csv_blank_cells_for_uncovered(capsys):
    rc, out = run(capsys, "certify", "--p", "11", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("i0,i1,i2,i3,c,nonzero")
    uncovered = [l for l in lines[1:] if ",False" in l]
    assert len(uncovered) == 3
    for l in uncovered:
        assert l.split(",")[4] == ""  # no witness element


def test_certify_large_field_needs_extended(capsys):
    rc, _ = run(capsys, "certify", "--p", "71")
    assert rc == 2


def test_certify_byte_determinism(capsys):
    _, out1 = run(capsys, "certify", "--p", "13", "--format", "json")
    _, out2 = run(capsys, "certify", "--p", "13", "--format", "json")
    assert out1 == out2


# ----------------------------------------------------------------------------
# global flags and usage
# ----------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["rank", "--p", "7", "--bogus"]) == 2
    assert main(["rank", "--p", "7", "--threads", "4"]) == 2


def test_calls_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process and shared by every call, so a
    # parse error must leave nothing behind for the next call
    env = dict(os.environ, PYTHONPATH=str(SRC))
    results = []
    for argv in (
        ["certify", "--p", "7", "--format", "json"],
        ["certify", "--p", "7", "--bogus"],
        ["rank", "--p", "11"],
    ):
        rc = main(list(argv))
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "fermatlines.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (rc, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
        results.append((rc, captured))
    assert [rc for rc, _ in results] == [0, 2, 0]
    assert results[1][1].err.startswith("usage: fermatlines ")
    assert "unrecognized arguments: --bogus" in results[1][1].err
    assert results[2][1].out == "q = 11: expected rank 9\n"


def test_invalid_field_is_usage_error(capsys):
    assert main(["rank", "--p", "6"]) == 2
    assert main(["certify", "--p", "8"]) == 2
