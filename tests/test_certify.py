"""Tests for full-rank generation certificates.

Independent oracles used here:
  - a from-scratch quadratic-residue admissibility recount;
  - the trace of Frobenius of y^2 = x(x+1)(x+c) by brute-force point
    counting (pins the order-2 character sums);
  - the quadratic-residue sign pattern for order-4 character sums;
  - hand-computed Galois orbit partitions for small d;
  - certify_general, the per-tuple brute-force scan with no Galois transfer.
"""

import importlib
import json
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlines import (
    FULL_RANK_CERTIFIED,
    NOT_CERTIFIED,
    ContradictionError,
    CycElt,
    admissible_values,
    certify,
    certify_general,
    expected_rank,
    galois_orbits,
    line_for_thm1,
    make_field,
    prime_power,
    sum_S,
    w_tuples,
)
from fermatlines.charsum import ExponentTuple
from fermatlines.cyc import cyclotomic_poly

certify_mod = importlib.import_module("fermatlines.certify")
cli_mod = importlib.import_module("fermatlines.cli")
charsum_mod = importlib.import_module("fermatlines.charsum")

_fields = {}


def field(p, k=1):
    if (p, k) not in _fields:
        _fields[(p, k)] = make_field(p, k)
    return _fields[(p, k)]


# ----------------------------------------------------------------------------
# expected_rank
# ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "q,rank",
    [(5, 3), (7, 7), (11, 9), (13, 13), (17, 15), (19, 19), (25, 25), (49, 49), (71, 69)],
)
def test_expected_rank_values(q, rank):
    assert expected_rank(q) == rank


@pytest.mark.parametrize("bad", [4, 3, 2, 1, 0, -7, 6, 9, 27, 35, 77, 12])
def test_expected_rank_rejects(bad):
    # not a prime power with p >= 5: composite with several primes, powers
    # of 2 or 3, or too small
    with pytest.raises(ValueError):
        expected_rank(bad)


def test_expected_rank_requires_int():
    with pytest.raises(ValueError):
        expected_rank(7.0)


# ----------------------------------------------------------------------------
# galois orbits
# ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d,orbits",
    [
        (6, [[1, 5], [3]]),
        (8, [[1, 3, 5, 7], [2, 6], [4]]),
        (12, [[1, 5, 7, 11], [2, 10], [3, 9], [6]]),
        (14, [[1, 3, 5, 9, 11, 13], [2, 4, 6, 8, 10, 12], [7]]),
        (18, [[1, 5, 7, 11, 13, 17], [2, 4, 8, 10, 14, 16], [3, 15], [9]]),
    ],
)
def test_galois_orbits_small(d, orbits):
    assert galois_orbits(d) == orbits


@pytest.mark.parametrize("d", [6, 8, 12, 14, 18, 20, 72])
def test_galois_orbits_partition_and_closure(d):
    orbits = galois_orbits(d)
    flat = [i for o in orbits for i in o]
    assert sorted(flat) == [i for i in range(1, d) if (3 * i) % d != 0]
    units = [u for u in range(1, d) if gcd(u, d) == 1]
    for o in orbits:
        members = set(o)
        for i in o:
            for u in units:
                assert (u * i) % d in members


# ----------------------------------------------------------------------------
# independent sign-pattern oracles for the sums the certificates rely on
# ----------------------------------------------------------------------------


def test_order4_sum_sign_pattern_matches_residues_q11():
    # For a character of exact order 4 over F_{q^2} with q = 11 (so i = d/4
    # = 3), the sum for c not in {0,1} is -2q exactly when c is a
    # nonresidue with c-1 a nonzero residue (the admissible c), and +2q
    # otherwise.  Recomputed here against a plain residue table.
    p = 11
    F = field(p)
    d = p + 1
    squares = {(x * x) % p for x in range(1, p)}
    for c0 in range(2, p):
        S = sum_S(F, F.from_coeffs([c0, 0]), ExponentTuple.w_type(d, d // 4)).value
        admissible = c0 not in squares and (c0 - 1) % p in squares
        expected = -2 * p if admissible else 2 * p
        assert S == CycElt.from_int(d, expected), (c0, admissible)


def test_order2_sum_equals_frobenius_trace_identity_q11():
    # chi^(d/2) is the quadratic character of F_{q^2}; its cubic sum is
    # determined by the elliptic curve y^2 = x(x+1)(x+c) over F_p:
    # S = 2p - a_p^2, with a_p from brute-force point counting.
    p = 11
    F = field(p)
    d = p + 1
    squares = {(x * x) % p for x in range(1, p)}
    for c0 in range(p):
        if c0 in (0, 1):
            continue
        cnt = 1  # the point at infinity
        for x in range(p):
            f = (x * (x + 1) * (x + c0)) % p
            if f == 0:
                cnt += 1
            elif f in squares:
                cnt += 2
        a_p = p + 1 - cnt
        S = sum_S(F, F.from_coeffs([c0, 0]), ExponentTuple.w_type(d, d // 2)).value
        assert S == CycElt.from_int(d, 2 * p - a_p * a_p), (c0, a_p)


# ----------------------------------------------------------------------------
# certificates at the contract values
# ----------------------------------------------------------------------------


def _check_internal_invariants(cert, ctx):
    d = ctx.d
    tuples = w_tuples(d)
    # the coverage covers every tuple of w_tuples(d) once
    assert list(cert.coverage) == list(tuples)
    # dimension bookkeeping: trivial + nontrivial = d or d-2
    expected_dim = d if d % 3 == 2 else d - 2
    assert len(tuples) == expected_dim
    # verdict iff every entry nonzero
    assert (cert.verdict == FULL_RANK_CERTIFIED) == all(
        cert.coverage[t].nonzero for t in tuples
    )
    # lines_used counts distinct witness elements among nonzero entries
    used = {e.c.code for e in cert.coverage.values() if e.c is not None and e.nonzero}
    assert cert.lines_used == len(used)
    # the trivial tuple is always certified with no witness line
    triv = cert.coverage[ExponentTuple.trivial(d)]
    assert triv.nonzero and triv.c is None and triv.s_value is None
    # every recorded S for a nonzero entry differs from 2q; uncovered
    # entries carry no witness data
    two_q = CycElt.from_int(d, 2 * ctx.q)
    for t in tuples[1:]:
        e = cert.coverage[t]
        if e.nonzero:
            assert e.c is not None and e.s_value is not None
            assert e.s_value != two_q
        else:
            assert e.c is None and e.s_value is None
    assert cert.galois_orbits == galois_orbits(d)
    assert cert.expected_rank == expected_rank(ctx.q)


def test_certify_q7_single_line():
    F = field(7)
    cert = certify(F)
    assert cert.verdict == FULL_RANK_CERTIFIED
    assert cert.lines_used == 1
    assert cert.expected_rank == 7
    _check_internal_invariants(cert, F)


def test_certify_q19_single_line():
    F = field(19)
    cert = certify(F)
    assert cert.verdict == FULL_RANK_CERTIFIED
    assert cert.lines_used == 1
    assert cert.expected_rank == 19
    _check_internal_invariants(cert, F)


def test_certify_q5():
    F = field(5)
    cert = certify(F)
    assert cert.verdict == FULL_RANK_CERTIFIED
    assert cert.lines_used == 1  # one witness covers both orbits at d = 6
    _check_internal_invariants(cert, F)


def test_certify_q13_within_divisor_bound():
    F = field(13)
    cert = certify(F)
    assert cert.verdict == FULL_RANK_CERTIFIED
    n = sum(1 for e in range(1, 15) if 14 % e == 0)  # divisors of d = 14
    assert cert.lines_used <= n - 1
    assert cert.lines_used == 1
    _check_internal_invariants(cert, F)


def test_certify_q17_within_divisor_bound():
    F = field(17)
    cert = certify(F)
    assert cert.verdict == FULL_RANK_CERTIFIED
    n = sum(1 for e in range(1, 19) if 18 % e == 0)
    assert cert.lines_used <= n - 1
    assert cert.lines_used == 2
    _check_internal_invariants(cert, F)


def test_certify_q11_not_certified():
    F = field(11)
    cert = certify(F)
    assert cert.verdict == NOT_CERTIFIED
    _check_internal_invariants(cert, F)
    uncovered = [t for t in w_tuples(F.d) if not cert.coverage[t].nonzero]
    assert [t.entries[0] for t in uncovered] == [2, 6, 10]
    # the uncovered indices are unions of whole Galois orbits
    uncovered_is = {t.entries[0] for t in uncovered}
    for orbit in cert.galois_orbits:
        assert set(orbit) <= uncovered_is or not (set(orbit) & uncovered_is)


def test_certify_q11_uncovered_really_exhausts_admissible():
    # re-scan one uncovered tuple by hand: every admissible c hits 2q
    F = field(11)
    d = F.d
    two_q = CycElt.from_int(d, 22)
    t = ExponentTuple.w_type(d, 6)
    for c in admissible_values(F):
        assert sum_S(F, c, t).value == two_q


# ----------------------------------------------------------------------------
# the orbit scan against the brute-force oracle
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("q", [5, 11, 13, 17, 23, 25, 29])
def test_certify_matches_general(q):
    # outside q = 7 mod 12 both scan admissible c in the same order, and the
    # first witness of an orbit is the first witness of each member
    F = field(*prime_power(q))
    assert certify(F).to_json_dict() == certify_general(F).to_json_dict()


@pytest.mark.parametrize("q", [7, 19, 31])
def test_certify_agrees_with_general_q7_mod_12(q):
    # the single thm-1 line need not be the first admissible witness, so only
    # the verdict and the coverage flags are comparable
    F = field(q)
    a, b = certify(F), certify_general(F)
    assert a.verdict == b.verdict == FULL_RANK_CERTIFIED
    assert [e.nonzero for e in a.coverage.values()] == [
        e.nonzero for e in b.coverage.values()
    ]


def _count_histograms(monkeypatch):
    """Record the c of every plane histogram; calls of the F_{q^2} reference
    sweep are recorded at both binding sites (certify and charsum)."""
    histograms, sweeps = [], []
    plane_counts = charsum_mod._PlaneSweep.counts
    sweep_counts = charsum_mod._sweep_counts

    def counting_histogram(self, c):
        histograms.append(c)
        return plane_counts(self, c)

    def counting_sweep(ctx, factors):
        sweeps.append(factors)
        return sweep_counts(ctx, factors)

    monkeypatch.setattr(charsum_mod._PlaneSweep, "counts", counting_histogram)
    for mod in (certify_mod, charsum_mod):
        monkeypatch.setattr(mod, "_sweep_counts", counting_sweep)
    return histograms, sweeps


def test_certify_sweeps_once_for_the_single_line_q19(monkeypatch):
    histograms, sweeps = _count_histograms(monkeypatch)
    F = field(19)
    cert = certify(F)
    assert cert.verdict == FULL_RANK_CERTIFIED
    assert sweeps == []
    assert histograms == [line_for_thm1(F).c]


@pytest.mark.parametrize("q", [11, 13, 17])
def test_certify_sweeps_once_per_candidate_tried(monkeypatch, q):
    F = field(q)
    # the orbit scan tries admissible c in order up to each orbit's first
    # witness, or all of them for an uncovered orbit
    admissible = admissible_values(F)
    general = certify_general(F)
    tried = 0
    for orbit in galois_orbits(F.d):
        entry = general.coverage[ExponentTuple.w_type(F.d, orbit[0])]
        tried = max(tried, admissible.index(entry.c) + 1 if entry.nonzero else len(admissible))
    histograms, sweeps = _count_histograms(monkeypatch)
    certify(F)
    assert sweeps == []
    assert histograms == admissible[:tried]


@pytest.mark.parametrize("q", [11, 13, 17, 19])
def test_certify_reduces_each_witnessed_orbit_once(monkeypatch, q):
    # the witness scan reduces the open representatives once per candidate
    # tried; then each witnessed orbit, representative first, is reduced as
    # one batch with its witness, in orbit order
    F = field(q)
    orbits = galois_orbits(F.d)
    if q % 12 == 7:
        candidates, found = [line_for_thm1(F).c], [0] * len(orbits)
    else:
        candidates, general = admissible_values(F), certify_general(F)
        found = []  # per orbit, the position of its witness among the candidates
        for orbit in orbits:
            entry = general.coverage[ExponentTuple.w_type(F.d, orbit[0])]
            found.append(candidates.index(entry.c) if entry.nonzero else None)
    open_at = [len(candidates) if j is None else j for j in found]
    expected = [
        [o[0] for o, last in zip(orbits, open_at) if last >= n]
        for n in range(min(max(open_at) + 1, len(candidates)))
    ] + [o for o, j in zip(orbits, found) if j is not None]
    batches = []
    pushforward = certify_mod._pushforward

    def recording(counts, idx):
        batches.append(list(idx))
        return pushforward(counts, idx)

    monkeypatch.setattr(certify_mod, "_pushforward", recording)
    certify(F)
    assert batches == expected


def _constant_pushforward(value):
    # stands in for the pushforward: every tuple gets the integer value(q)
    def fake(counts, idx):
        out = np.zeros((len(idx), len(counts)), dtype=np.int64)
        out[:, 0] = value(len(counts) - 1)
        return out

    return fake


def test_certify_no_witness_is_a_contradiction(monkeypatch):
    monkeypatch.setattr(certify_mod, "_pushforward", _constant_pushforward(lambda q: 2 * q))
    F = field(13)
    dlogs = [c.dlog for c in admissible_values(F)]
    with pytest.raises(ContradictionError) as err:
        certify(F)
    msg = str(err.value)
    assert "no witness at q=13 for tuple (1, 1, 1, 11)" in msg
    assert f"some c in {dlogs}" in msg and "got S = 2q = 26" in msg


def test_certify_galois_transfer_failure_is_a_contradiction(monkeypatch):
    reps = {o[0] for o in galois_orbits(14)}
    pushforward = certify_mod._pushforward

    def member_hits_2q(counts, idx):
        out = pushforward(counts, idx)
        members = [k for k, i in enumerate(idx) if i not in reps]
        out[members] = _constant_pushforward(lambda q: 2 * q)(counts, idx)[members]
        return out

    monkeypatch.setattr(certify_mod, "_pushforward", member_hits_2q)
    F = field(13)
    with pytest.raises(ContradictionError) as err:
        certify(F)
    witness = certify_general(F).coverage[ExponentTuple.w_type(14, 1)].c
    msg = str(err.value)
    assert f"Galois transfer failed at q=13 for tuple (3, 3, 3, 5), c={witness.dlog}" in msg
    assert "as for (1, 1, 1, 11), got S = 2q = 26" in msg


def test_certify_mod3_failure_is_a_contradiction(monkeypatch):
    monkeypatch.setattr(certify_mod, "_pushforward", _constant_pushforward(lambda q: 0))
    F = field(19)
    with pytest.raises(ContradictionError) as err:
        certify(F)
    c = line_for_thm1(F).c
    msg = str(err.value)
    assert f"mod-3 obstruction failed at q=19 for tuple (1, 1, 1, 17), c={c.dlog}" in msg
    assert "expected S = 1 mod 3, got S = [0" in msg


def test_certify_representative_at_2q_on_the_single_line_fails_mod3(monkeypatch):
    # 2q = 2 mod 3 for q = 7 mod 12, so a representative that reads 2q on the
    # single line fails the mod-3 check before its orbit can lack a witness
    monkeypatch.setattr(certify_mod, "_pushforward", _constant_pushforward(lambda q: 2 * q))
    F = field(19)
    with pytest.raises(ContradictionError) as err:
        certify(F)
    c = line_for_thm1(F).c
    msg = str(err.value)
    assert f"mod-3 obstruction failed at q=19 for tuple (1, 1, 1, 17), c={c.dlog}" in msg
    assert "expected S = 1 mod 3, got S = [38, 0" in msg


@pytest.mark.parametrize("d", [8, 12, 20, 72])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_mod3_flags_match_is_one_mod_3(d, data):
    # certify's flags over a canon matrix against charsum's predicate on one
    # element.  Each row is 3 * base plus (r, 0, ..., 0) or a small residue
    # row, both with negative entries; base entries past 2^63 make an object
    # matrix.
    phi = len(cyclotomic_poly(d)) - 1
    big = data.draw(st.booleans(), label="object rows")
    bound = 2**70 if big else 2**60
    base = st.lists(st.integers(-bound, bound), min_size=phi, max_size=phi)
    residue = st.one_of(
        st.integers(-4, 4).map(lambda r: [r] + [0] * (phi - 1)),
        st.lists(st.integers(-4, 4), min_size=phi, max_size=phi),
    )
    row = st.builds(lambda b, r: [3 * x + y for x, y in zip(b, r)], base, residue)
    rows = data.draw(st.lists(row, min_size=1, max_size=8), label="rows")
    canon = np.array(rows, dtype=object if big else np.int64)
    expected = [charsum_mod.is_one_mod_3(CycElt(d, r + [0] * (d - phi))) for r in rows]
    assert certify_mod._one_mod_3(canon) == expected


# ----------------------------------------------------------------------------
# Galois consistency of recorded witnesses
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p,k_unit", [(13, 3), (17, 5)])
def test_orbit_witness_values_are_galois_images(p, k_unit):
    F = field(p)
    d = F.d
    cert = certify(F)
    rep = cert.coverage[ExponentTuple.w_type(d, 1)]
    other = cert.coverage[ExponentTuple.w_type(d, k_unit)]
    assert rep.c == other.c  # same orbit, same witness line
    assert other.s_value == rep.s_value.galois(k_unit)
    two_q = CycElt.from_int(d, 2 * p)
    assert rep.s_value != two_q and other.s_value != two_q


# ----------------------------------------------------------------------------
# the counting inequality behind the orbit certificate (documentation test)
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_orbit_counting_inequality(q):
    # If all (q-1)/4 admissible c gave 2q, orbit bookkeeping would force
    # 3(q-1)/4 of the c to give 2q; with the endpoint sums worth -1 each
    # and the rest bounded below by -2q, the total over c would be at
    # least q(q-1)+4q-2, exceeding both closed forms q(q-3) and (q-1)^2
    # of the actual total — a contradiction, so a witness always exists
    # when q = 1 mod 4.
    assert q % 4 == 1
    lower = (3 * (q - 1) // 4) * 2 * q + (-1) + (-1) + ((q - 1) // 4 - 2) * (-2 * q)
    assert lower == q * (q - 1) + 4 * q - 2
    assert lower > max(q * (q - 3), (q - 1) ** 2)


# ----------------------------------------------------------------------------
# JSON shape
# ----------------------------------------------------------------------------


def test_certificate_json_shape():
    F = field(7)
    doc = certify(F).to_json_dict()
    assert set(doc) == {"q", "expected_rank", "verdict", "lines_used", "coverage", "orbits"}
    assert doc["q"] == 7 and doc["expected_rank"] == 7
    assert doc["verdict"] == FULL_RANK_CERTIFIED and doc["lines_used"] == 1
    assert doc["orbits"] == galois_orbits(8)
    assert len(doc["coverage"]) == 8
    trivial = doc["coverage"][0]
    assert trivial == {"tuple": [0, 0, 0, 0], "c": None, "S_canon": None, "nonzero": True}
    for entry in doc["coverage"][1:]:
        assert set(entry) == {"tuple", "c", "S_canon", "nonzero"}
        assert isinstance(entry["c"], int) and entry["nonzero"] is True
        assert isinstance(entry["S_canon"], list)
    # byte-determinism: serializable and stable
    s1 = json.dumps(doc, sort_keys=True)
    s2 = json.dumps(certify(F).to_json_dict(), sort_keys=True)
    assert s1 == s2


def test_certificate_json_not_certified_entries():
    doc = certify(field(11)).to_json_dict()
    assert doc["verdict"] == NOT_CERTIFIED
    missing = [e for e in doc["coverage"] if not e["nonzero"]]
    assert [e["tuple"][0] for e in missing] == [2, 6, 10]
    for e in missing:
        assert e["c"] is None and e["S_canon"] is None


# ----------------------------------------------------------------------------
# the certificate's rows and its decoded view
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 23, 25, 29, 31])
def test_decoded_coverage_matches_an_entry_by_entry_rebuild(q):
    # each JSON entry rebuilt on its own: the tuple from its entries, c from
    # its dlog, S recomputed by the F_{q^2} reference sweep at that c
    F = field(*prime_power(q))
    d = F.d
    cert = certify(F)
    rebuilt = {}
    for item in cert.to_json_dict()["coverage"]:
        t = ExponentTuple(d, *item["tuple"])
        if item["c"] is None:
            rebuilt[t] = certify_mod.CoverageEntry(t, None, None, item["nonzero"])
            continue
        c = F.elem(int(F.exp[item["c"]]))
        counts = charsum_mod._sweep_counts(F, [(t.i0, 0), (t.i1, 1), (t.i2, c.code)])
        s = CycElt(d, counts.tolist())
        assert list(s.canon) == item["S_canon"]
        rebuilt[t] = certify_mod.CoverageEntry(t, c, s, item["nonzero"])
    assert list(cert.coverage) == list(rebuilt) == list(w_tuples(d))
    assert cert.coverage == rebuilt
    assert cert.coverage is cert.coverage  # built once
    assert cert.uncovered == [t.i0 for t, e in cert.coverage.items() if not e.nonzero]


@pytest.mark.parametrize(
    "fmt,q",
    [pytest.param("json", q, id=str(q)) for q in (11, 13, 19, 71)]
    + [pytest.param(f, q, id=f"{f}-{q}") for f in ("csv", "pretty") for q in (11, 13, 19, 71)],
)
def test_certify_json_builds_no_object_per_tuple(monkeypatch, capsys, fmt, q):
    # every format is rendered from the JSON coverage rows, which are written
    # from the canon rows: no ExponentTuple, CycElt or CoverageEntry is
    # constructed, however many tuples there are
    built, tuples = [], len(w_tuples(q + 1))

    def counting(cls, method):
        original = getattr(cls, method)
        if isinstance(cls.__dict__[method], classmethod):
            wrapped = classmethod(lambda c, *a: built.append(cls) or original(*a))
        else:
            wrapped = lambda self, *a, **k: built.append(cls) or original(self, *a, **k)
        monkeypatch.setattr(cls, method, wrapped)

    counting(ExponentTuple, "__post_init__")
    counting(CycElt, "__init__")
    counting(CycElt, "_from_canon")
    counting(certify_mod.CoverageEntry, "__init__")
    field(q)
    rc = cli_mod.main(["certify", "--p", str(q), "--extended", "--format", fmt])
    out = capsys.readouterr().out
    assert rc == 0 and built == []
    if fmt == "json":
        assert len(json.loads(out)["coverage"]) == tuples
    elif fmt == "csv":
        assert len(out.splitlines()) == 1 + tuples


# ----------------------------------------------------------------------------
# extended: the q = 71 sweep
# ----------------------------------------------------------------------------


@pytest.mark.extended
def test_certify_q71_computed_outcome():
    # Records the computed outcome of the full q = 71 sweep, which has been
    # cross-validated three independent ways (a from-scratch scanner with a
    # different field representation and exact cyclotomic reduction; the
    # order-4 residue sign pattern; Frobenius-trace point counts for the
    # order-2 orbit): every orbit has an admissible witness with S != 2q,
    # so the family-level scan certifies full rank with two lines.
    #
    # NOTE: the acceptance suite pins the OPPOSITE verdict for this sweep
    # (see tests/test_acceptance.py); that check fails honestly and the
    # disagreement is deliberate — see README.md for the analysis summary.
    F = make_field(71, 1)
    cert = certify(F)
    assert cert.verdict == FULL_RANK_CERTIFIED
    assert cert.lines_used == 2
    assert all(e.nonzero for e in cert.coverage.values())
    _check_internal_invariants(cert, F)


@pytest.mark.extended
def test_q71_no_single_line_covers_everything():
    # The sharper computed fact: although the family of lines covers every
    # orbit at q = 71, NO single admissible c covers all orbits by itself
    # (a single-line certificate in the style of the q = 7 mod 12 route
    # fails at q = 71, just as it does at q = 11).
    F = make_field(71, 1)
    d = F.d
    two_q = CycElt.from_int(d, 142)
    reps = [o[0] for o in galois_orbits(d)]
    for c in admissible_values(F):
        assert any(sum_S(F, c, ExponentTuple.w_type(d, i)).value == two_q for i in reps)
