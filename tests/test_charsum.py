"""Character-sum engine tests.

sum_S, which reads the F_q-plane, is checked against a completely
independent element-by-element loop, and the plane sweep (and survey_N)
against the F_{q^2} sweep _sweep_counts, the reference route that no
runtime caller uses; sum_S, the CLI charsum, charsum_numerator and
mod3_test are shown never to enter that sweep, and no computation to
assign to a FieldCtx.  The closed forms (Jacobi degenerations, the
sum-over-c identity, the quadratic identity) are checked against their
formula values; orbits, admissibility, the extremal survey, and the mod-3
obstruction are checked against brute force and known small-field data.
"""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlines.charsum import (
    ExponentTuple,
    _PlaneSweep,
    _pushforward,
    _sweep_counts,
    admissible_values,
    is_admissible,
    iter_all_nonzero_tuples,
    mod3_test,
    orbit,
    quadratic_identity_check,
    sum_S,
    sum_over_c,
    survey_N,
)
from fermatlines import charsum, cli, gf
from fermatlines.cyc import CycElt, accumulate, galois_apply, is_real
from fermatlines.fermat import charsum_numerator, lines_for_c, w_tuples
from fermatlines.gf import FieldCtx, chi_exp, find_ab_pairs, make_field


def naive_sum(ctx, c, t):
    """Independent oracle: direct per-element accumulation, no numpy."""
    s = CycElt.zero(ctx.d)
    for x in ctx.elements():
        e = 0
        skip = False
        for i, shift in [(t.i0, ctx.zero), (t.i1, ctx.one), (t.i2, c)]:
            if i % ctx.d == 0:
                continue
            y = x + shift
            if y.is_zero:
                skip = True
                break
            e += i * chi_exp(ctx, y)
        if not skip:
            s = accumulate(s, e % ctx.d)
    return s


# ----------------------------------------------------------------------------
# ExponentTuple
# ----------------------------------------------------------------------------


def test_tuple_validation():
    t = ExponentTuple(8, 1, 1, 1, 5)
    assert t.entries == (1, 1, 1, 5)
    assert t.all_nonzero and t.is_w_type
    with pytest.raises(ValueError):
        ExponentTuple(8, 1, 1, 1, 1)
    # entries normalize mod d
    assert ExponentTuple(8, -7, 9, 1, 5) == ExponentTuple(8, 1, 1, 1, 5)


def test_tuple_families():
    assert ExponentTuple.trivial(8).entries == (0, 0, 0, 0)
    assert not ExponentTuple.trivial(8).all_nonzero
    assert ExponentTuple.w_type(8, 3).entries == (3, 3, 3, 7)
    t = ExponentTuple(8, 1, 2, 3, 2)
    assert t.all_nonzero and not t.is_w_type
    assert t.scale(3).entries == (3, 6, 1, 6)


def test_iter_all_nonzero_tuples_counts():
    # (i0,i1,i2) free in [1,d-1]^3 minus those with i0+i1+i2 = 0 mod d
    assert sum(1 for _ in iter_all_nonzero_tuples(6)) == 105
    assert sum(1 for _ in iter_all_nonzero_tuples(8)) == 301
    for t in iter_all_nonzero_tuples(6):
        assert t.all_nonzero


# ----------------------------------------------------------------------------
# sweep core vs naive oracle
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (5, 2)])
def test_sum_S_matches_naive_oracle(p, k):
    ctx = make_field(p, k)
    rng = random.Random(20260822 + p * k)
    fq = ctx.fq_codes()
    for _ in range(8):
        c = ctx.elem(rng.choice(fq))
        i0, i1, i2 = (rng.randrange(ctx.d) for _ in range(3))
        t = ExponentTuple(ctx.d, i0, i1, i2, -(i0 + i1 + i2))
        assert sum_S(ctx, c, t).value == naive_sum(ctx, c, t)


# ----------------------------------------------------------------------------
# F_q-plane sweep vs the F_{q^2} sweep
# ----------------------------------------------------------------------------


def _reference_counts(ctx, c, i0, i1, i2):
    return _sweep_counts(ctx, [(i0, 0), (i1, 1), (i2, c.code)])


def _reference_value(ctx, c, t):
    return CycElt(ctx.d, _reference_counts(ctx, c, t.i0, t.i1, t.i2).tolist())


@pytest.mark.parametrize("p", [5, 7])
def test_plane_counts_match_sweep_every_tuple_and_c(p):
    ctx = make_field(p)
    for i0, i1, i2 in itertools.product(range(ctx.d), repeat=3):
        sweep = _PlaneSweep(ctx, i0, i1, i2)
        for c in ctx.fq_elements():
            expected = _reference_counts(ctx, c, i0, i1, i2)
            assert sweep.counts(c).tolist() == expected.tolist(), (i0, i1, i2, c.code)


@pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (5, 3), (7, 3)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plane_counts_match_sweep_sampled(p, k, data):
    ctx = make_field(p, k)
    c = ctx.elem(data.draw(st.sampled_from(ctx.fq_codes()), label="c"))
    i0, i1, i2 = data.draw(st.tuples(*[st.integers(0, ctx.d - 1)] * 3), label="tuple")
    counts = _PlaneSweep(ctx, i0, i1, i2).counts(c)
    assert counts.tolist() == _reference_counts(ctx, c, i0, i1, i2).tolist()


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2), (5, 3)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_reference_counts_are_symmetric_under_frobenius(p, k, data):
    # x -> x^q sends chi(f(x)) to its inverse, as q = -1 mod d: the premise
    # of the plane's fold, read off the F_{q^2} sweep alone
    ctx = make_field(p, k)
    d = ctx.d
    c = ctx.elem(data.draw(st.sampled_from(ctx.fq_codes()), label="c"))
    tuples = st.tuples(*[st.integers(0, d - 1)] * 3)
    i0, i1, i2 = data.draw(st.one_of(st.just((0, 0, 0)), tuples), label="tuple")
    counts = _reference_counts(ctx, c, i0, i1, i2).tolist()
    assert counts == [counts[-e % d] for e in range(d)]


@pytest.mark.parametrize("p,k", [(7, 1), (5, 3)])
def test_plane_tables_keep_half_the_rows(p, k):
    # u = 0 and one u of each pair u, -u: (q + 1)/2 rows, about 3q^2 bytes
    ctx = make_field(p, k)
    q = ctx.q
    sweep = _PlaneSweep(ctx, 1, 2, 3)
    assert sweep._head.shape == ((q + 1) // 2, q - 1)
    assert sweep._tail2.shape == ((q + 1) // 2, 2 * (q - 1))
    assert sweep._head.dtype == sweep._tail2.dtype == np.int16


@pytest.mark.extended
def test_plane_counts_match_sweep_at_the_size_cap():
    # q = 1999: int32 tables, and sums of table products up to 2 d^2 ~ 8M
    ctx = make_field(1999)
    assert ctx.exp.dtype == ctx.dlog.dtype == np.int32
    c = admissible_values(ctx)[0]
    counts = _PlaneSweep(ctx, 1, 1, 1).counts(c)
    assert counts.tolist() == _reference_counts(ctx, c, 1, 1, 1).tolist()


@pytest.mark.parametrize("p", [7, 13])
def test_pushforward_gives_every_w_tuple(p):
    ctx = make_field(p)
    d = ctx.d
    sweep = _PlaneSweep(ctx, 1, 1, 1)
    for c in ctx.fq_elements():
        hist = sweep.counts(c)
        for i in range(1, d):
            expected = _reference_counts(ctx, c, i, i, i)
            assert _pushforward(hist, i).tolist() == expected.tolist(), (c.code, i)


def _pushforward_loop(counts, i):
    out = [0] * len(counts)
    for k, n in enumerate(counts):
        out[k * i % len(counts)] += n
    return out


@pytest.mark.parametrize("p", [5, 11])
def test_pushforward_index_array_matches_scalar_loop(p):
    # one row per index, in the order given, repeats and non-units included
    ctx = make_field(p)
    d = ctx.d
    hist = _PlaneSweep(ctx, 1, 1, 1).counts(ctx.elem(2))
    idx = [1, 0, d - 1, 2, 3, d // 2, 2, d + 5, d - 2]
    rows = _pushforward(hist, idx)
    assert rows.shape == (len(idx), d) and rows.dtype == np.int64
    assert rows.tolist() == [_pushforward_loop(hist.tolist(), i) for i in idx]
    assert _pushforward(hist, np.array(idx)).tolist() == rows.tolist()
    assert _pushforward(hist, 3).tolist() == _pushforward_loop(hist.tolist(), 3)
    assert _pushforward(hist, []).shape == (0, d)


@pytest.mark.parametrize("p,k", [(5, 1), (11, 1), (5, 2)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pushforward_scatter_matches_scalar_loop(p, k, data):
    # the 1-D scatter against the per-index loop, on a plane histogram at a
    # drawn c: an index list with 0, repeats, indices past d and non-units,
    # a single integer, or an empty list
    ctx = make_field(p, k)
    d = ctx.d
    c = ctx.elem(data.draw(st.sampled_from(ctx.fq_codes()), label="c"))
    hist = _PlaneSweep(ctx, 1, 1, 1).counts(c)
    index = st.one_of(st.sampled_from([0, d, d // 2, 2, 3]), st.integers(0, 3 * d))
    idx = data.draw(st.one_of(index, st.lists(index, max_size=12)), label="idx")
    rows = _pushforward(hist, idx)
    assert rows.dtype == np.int64
    if isinstance(idx, int):
        assert rows.tolist() == _pushforward_loop(hist.tolist(), idx)
    else:
        assert rows.shape == (len(idx), d)
        assert rows.tolist() == [_pushforward_loop(hist.tolist(), i) for i in idx]


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2)])
def test_sum_S_w_type_route_matches_sweep(p, k):
    # every w-type tuple (i, i, i, -3i), gcd(i, d) > 1 and 3i = 0 mod d
    # included, at c = 0, c = 1 and every admissible c, against the F_{q^2}
    # reference; the tuples of one c read one cached (1, 1, 1) histogram
    ctx = make_field(p, k)
    d = ctx.d
    assert any(np.gcd(i, d) > 1 for i in range(1, d))
    for c in [ctx.zero, ctx.one] + admissible_values(ctx):
        for i in range(1, d):
            t = ExponentTuple.w_type(d, i)
            assert sum_S(ctx, c, t).value == _reference_value(ctx, c, t), (c.code, i)
        assert charsum._w_histogram.cache_info().currsize == 1
        assert charsum._w_histogram(ctx, c.code).tolist() == (
            _reference_counts(ctx, c, 1, 1, 1).tolist()
        )


def test_sum_S_w_type_route_is_only_for_nontrivial_w_tuples(monkeypatch):
    # the trivial tuple and every tuple that is not w-type sweep their own
    # plane; a w-type tuple with i != 0 reads the histogram and builds none
    ctx = make_field(7)
    c = admissible_values(ctx)[0]
    expected = {
        entries: _reference_value(ctx, c, ExponentTuple(8, *entries))
        for entries in [(0, 0, 0, 0), (1, 2, 3, 2), (2, 2, 0, 4), (3, 3, 3, 7)]
    }
    histogram = charsum._w_histogram(ctx, c.code)

    def forbidden(*args):
        raise AssertionError("the cached histogram was read")

    monkeypatch.setattr(charsum, "_w_histogram", forbidden)
    for entries in [(0, 0, 0, 0), (1, 2, 3, 2), (2, 2, 0, 4)]:
        assert sum_S(ctx, c, ExponentTuple(8, *entries)).value == expected[entries]

    monkeypatch.setattr(charsum, "_w_histogram", lambda ctx, code: histogram)
    monkeypatch.setattr(charsum, "_PlaneSweep", forbidden)
    t = ExponentTuple(8, 3, 3, 3, 7)
    assert sum_S(ctx, c, t).value == expected[t.entries]


def test_sum_S_w_type_cache_is_per_field():
    # the code 2 is an element of F_5 and of F_7; the histogram of one field
    # must never answer for the other
    ctx5, ctx7 = make_field(5), make_field(7)
    for ctx in (ctx5, ctx7, ctx5, ctx7):
        c = ctx.elem(2)
        assert c.in_fq
        t = ExponentTuple.w_type(ctx.d, 1)
        assert sum_S(ctx, c, t).value == _reference_value(ctx, c, t)
        assert charsum._w_histogram(ctx, 2).tolist() == _reference_counts(ctx, c, 1, 1, 1).tolist()
        assert not charsum._w_histogram(ctx, 2).flags.writeable


def _plane_shift_cases(ctx):
    # c = 0 reads column 0 of the tail; c = g^(d s) reads the doubled tail
    # from column s, wrapping around for every s > 0
    d, q = ctx.d, ctx.q
    return [ctx.zero] + [ctx.elem(int(ctx.exp[s * d])) for s in (0, 1, q - 2)]


@pytest.mark.parametrize("p", [5, 7])
def test_plane_counts_at_the_wrap_around_shifts(p):
    ctx = make_field(p)
    d = ctx.d
    cases = _plane_shift_cases(ctx)
    assert [c.dlog // d for c in cases[1:]] == [0, 1, ctx.q - 2]
    for i0, i1, i2 in [(1, 1, 1), (1, 2, 3), (0, 3, d - 1), (2, 0, 5), (3, 3, 0)]:
        sweep = _PlaneSweep(ctx, i0, i1, i2)
        for c in cases:
            expected = _reference_counts(ctx, c, i0, i1, i2)
            assert sweep.counts(c).tolist() == expected.tolist(), (i0, i1, i2, c.code)


@pytest.mark.extended
def test_plane_counts_at_the_wrap_around_shifts_at_the_size_cap():
    # q = 1999: int16 tables holding head + tail up to 2d - 2 = 3998
    ctx = make_field(1999)
    sweep = _PlaneSweep(ctx, 1, 1, 1)
    assert sweep._head.dtype == sweep._tail2.dtype == np.int16
    assert sweep._tail2.shape == ((ctx.q + 1) // 2, 2 * (ctx.q - 1))
    for c in _plane_shift_cases(ctx):
        assert sweep.counts(c).tolist() == _reference_counts(ctx, c, 1, 1, 1).tolist()


def test_plane_sweep_rejects_d_past_the_int16_bound():
    class Huge:  # a stand-in context: the bound is checked before any table
        q, d, p = 2**14, 2**14 + 1, 2**14

    with pytest.raises(ValueError, match="int16"):
        _PlaneSweep(Huge, 1, 1, 1)


def _charsum_json(ctx, c, t):
    argv = ["charsum", "--p", str(ctx.p), "--k", str(ctx.k), "--format", "json"]
    argv += ["--c", ",".join(map(str, c.coeffs)), "--tuple", ",".join(map(str, t.entries))]
    return argv


def _sixth_roots(ctx):
    return [c for c in ctx.fq_elements() if not c.is_zero and c.multiplicative_order() == 6]


def test_sum_S_never_enters_the_fq2_sweep(monkeypatch, capsys):
    # every expected value comes from the F_{q^2} reference before it is
    # made to raise
    cases = [
        (7, 1, [(1, 1, 1, 5), (1, 2, 3, 2), (0, 3, 0, 5)]),
        (5, 2, [(1, 1, 1, 23)]),
    ]
    charsum_json = []
    for p, k, tuples in cases:
        ctx = make_field(p, k)
        for entries in tuples:
            t = ExponentTuple(ctx.d, *entries)
            for c in ctx.fq_elements():
                value = _reference_value(ctx, c, t)
                record = charsum.SumRecord(c, t, value, value.as_integer)
                expected = {"schema": 1, **record.to_json_dict()}
                charsum_json.append((_charsum_json(ctx, c, t), expected))
    ctx7 = make_field(7)
    lines = [L for c in admissible_values(ctx7) for L in lines_for_c(ctx7, c)]
    numerators = [
        (L, t, _reference_value(ctx7, L.c, t) + (-2 * ctx7.q))
        for L in lines
        for t in w_tuples(ctx7.d)[1:]
    ]
    ctx19 = make_field(19)
    mod3 = [
        (c, t, charsum.is_one_mod_3(_reference_value(ctx19, c, t)))
        for c in _sixth_roots(ctx19)
        for t in w_tuples(ctx19.d)[1:]
    ]

    def forbidden(*args):
        raise AssertionError("the F_{q^2} sweep was entered")

    monkeypatch.setattr(FieldCtx, "add_perm", forbidden)
    monkeypatch.setattr(charsum, "_sweep_counts", forbidden)
    for argv, expected in charsum_json:
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == expected, argv
    assert len(lines) == 8
    for L, t, expected in numerators:
        assert charsum_numerator(ctx7, L, t) == expected, (L, t)
    assert len(mod3) == 2 * 19
    for c, t, expected in mod3:
        assert mod3_test(ctx19, c, t) is expected, (c.code, t)


def test_field_context_is_never_mutated(monkeypatch, capsys):
    ctx = gf._build_field.__wrapped__(7, 1)  # a fresh context, outside the cache
    monkeypatch.setattr(cli, "make_field", lambda p, k: ctx)
    before = {slot: getattr(ctx, slot) for slot in FieldCtx.__slots__}
    for argv in [
        ["charsum", "--p", "7", "--c", "3", "--tuple", "1,1,1,5", "--format", "json"],
        ["survey", "--p", "7", "--order", "4", "--format", "json"],
        ["certify", "--p", "7", "--format", "json"],
    ]:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    lines = [L for c in admissible_values(ctx) for L in lines_for_c(ctx, c)]
    for L in lines:
        for t in w_tuples(ctx.d)[1:]:
            charsum_numerator(ctx, L, t)
    for c in _sixth_roots(ctx):
        assert mod3_test(ctx, c, ExponentTuple.w_type(ctx.d, 1))
    after = {slot: getattr(ctx, slot) for slot in FieldCtx.__slots__}
    assert all(after[slot] is before[slot] for slot in FieldCtx.__slots__), [
        slot for slot in FieldCtx.__slots__ if after[slot] is not before[slot]
    ]


def test_sum_S_rejects_bad_inputs():
    ctx = make_field(7)
    t = ExponentTuple(8, 1, 1, 1, 5)
    w = ctx.from_coeffs([0, 1])  # not in F_7
    with pytest.raises(ValueError):
        sum_S(ctx, w, t)
    with pytest.raises(ValueError):
        sum_S(ctx, ctx.zero, ExponentTuple(6, 1, 1, 1, 3))
    with pytest.raises(ValueError):
        sum_S(make_field(5), ctx.zero, ExponentTuple(6, 1, 1, 1, 3))


def test_sum_record_json_shape():
    ctx = make_field(7)
    r = sum_S(ctx, ctx.elem(3), ExponentTuple.w_type(8, 1))
    j = r.to_json_dict()
    assert j["q"] == 7 and j["tuple"] == [1, 1, 1, 5]
    assert isinstance(j["value"], list) and len(j["value"]) == 4
    assert j["is_real"] is True
    assert set(j) == {"q", "c", "tuple", "value", "as_integer", "is_real", "hit_upper", "hit_lower"}
    r0 = sum_S(ctx, ctx.zero, ExponentTuple.w_type(8, 1))
    assert r0.to_json_dict()["c"] == "0"


# ----------------------------------------------------------------------------
# Jacobi degenerations (c = 0 and c = 1)
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 13])
def test_jacobi_values_all_tuples(p):
    ctx = make_field(p)
    d = ctx.d
    for t in iter_all_nonzero_tuples(d):
        s0 = sum_S(ctx, ctx.zero, t)
        expected0 = -1 if (t.i0 + t.i2) % d == 0 else ctx.q
        assert s0.as_integer == expected0, (t, s0.value)
        s1 = sum_S(ctx, ctx.one, t)
        expected1 = -1 if (t.i1 + t.i2) % d == 0 else ctx.q
        assert s1.as_integer == expected1, (t, s1.value)


# ----------------------------------------------------------------------------
# quadratic identity
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (13, 1), (5, 2)])
def test_quadratic_identity_all_orders(p, k):
    ctx = make_field(p, k)
    for order in range(2, ctx.d + 1):
        if ctx.d % order != 0:
            continue
        rep = quadratic_identity_check(ctx, order)
        assert rep["failed"] == [], rep
        assert rep["checked"] == ctx.q - 1
        assert rep["expected"] == (-1 if order == 2 else ctx.q)


def test_quadratic_identity_rejects_bad_order():
    ctx = make_field(7)
    with pytest.raises(ValueError):
        quadratic_identity_check(ctx, 1)
    with pytest.raises(ValueError):
        quadratic_identity_check(ctx, 3)  # 3 does not divide 8


# ----------------------------------------------------------------------------
# sum over c
# ----------------------------------------------------------------------------


def test_sum_over_c_branches():
    ctx = make_field(7)
    # i0 + i1 != 0 mod d: q(q-3)
    assert sum_over_c(ctx, ExponentTuple(8, 1, 1, 1, 5)).as_integer == 28
    # i0 + i1 = 0 mod d: (q-1)^2
    assert sum_over_c(ctx, ExponentTuple(8, 1, 7, 3, 5)).as_integer == 36
    ctx5 = make_field(5)
    assert sum_over_c(ctx5, ExponentTuple(6, 1, 1, 1, 3)).as_integer == 10


def test_sum_over_c_requires_all_nonzero():
    ctx = make_field(7)
    with pytest.raises(ValueError):
        sum_over_c(ctx, ExponentTuple.trivial(8))
    with pytest.raises(ValueError):
        sum_over_c(ctx, ExponentTuple(8, 0, 1, 3, 4))


@pytest.mark.parametrize("p", [5, 7])
def test_sum_over_c_exhaustive(p):
    ctx = make_field(p)
    for t in iter_all_nonzero_tuples(ctx.d):
        sum_over_c(ctx, t)  # internal closed-form assertion must hold


# ----------------------------------------------------------------------------
# invariants: realness, Weil bound, Galois equivariance
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 13])
def test_realness_and_weil_bound(p):
    ctx = make_field(p)
    d = ctx.d
    for c in ctx.fq_elements():
        for i in range(1, d):
            t = ExponentTuple.w_type(d, i)
            if not t.all_nonzero:
                continue
            r = sum_S(ctx, c, t)
            assert is_real(r.value)
            if r.as_integer is not None and not c.is_zero and c != 1:
                assert -2 * ctx.q <= r.as_integer <= 2 * ctx.q


def test_galois_equivariance():
    ctx = make_field(13)
    d = ctx.d
    rng = random.Random(7)
    units = [k for k in range(1, d) if __import__("math").gcd(k, d) == 1]
    for _ in range(6):
        c = ctx.elem(rng.randrange(13))
        i0, i1, i2 = (rng.randrange(d) for _ in range(3))
        t = ExponentTuple(d, i0, i1, i2, -(i0 + i1 + i2))
        base = sum_S(ctx, c, t).value
        for k in rng.sample(units, 3):
            assert sum_S(ctx, c, t.scale(k)).value == galois_apply(base, k)


# ----------------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------------


def test_orbit_membership_and_sizes():
    ctx = make_field(13)
    o2 = orbit(ctx.elem(2))
    assert sorted(x.code for x in o2) == [2, 7, 12]  # the self-paired case
    o5 = orbit(ctx.elem(5))
    assert len(o5) == 6
    # closure under the defining maps
    for x in o5:
        assert x.inverse() in o5 and (ctx.one - x) in o5


def test_orbit_rejects_degenerate_c():
    ctx = make_field(7)
    with pytest.raises(ValueError):
        orbit(ctx.zero)
    with pytest.raises(ValueError):
        orbit(ctx.one)
    with pytest.raises(ValueError):
        orbit(ctx.from_coeffs([0, 1]))  # outside F_q


@pytest.mark.parametrize("p", [7, 13])
def test_orbit_invariance_of_sums(p):
    ctx = make_field(p)
    d = ctx.d
    for i in range(1, d):
        t = ExponentTuple.w_type(d, i)
        if not t.all_nonzero:
            continue
        for code in range(2, p):
            members = orbit(ctx.elem(code))
            values = {sum_S(ctx, m, t).value for m in members}
            assert len(values) == 1, (i, code)


# ----------------------------------------------------------------------------
# admissible values
# ----------------------------------------------------------------------------


def brute_force_admissible_prime(p):
    squares = {x * x % p for x in range(1, p)}
    return sorted(c for c in range(2, p) if c not in squares and (c - 1) % p in squares)


@pytest.mark.parametrize("p", [5, 13, 17, 29, 37])
def test_admissible_against_brute_force(p):
    ctx = make_field(p)
    got = sorted(c.code for c in admissible_values(ctx))
    assert got == brute_force_admissible_prime(p)
    assert len(got) == (p - 1) // 4  # q = 1 mod 4 count


def test_admissible_known_sets_and_order():
    assert sorted(c.code for c in admissible_values(make_field(13))) == [2, 5, 11]
    assert sorted(c.code for c in admissible_values(make_field(11))) == [2, 6, 10]
    ctx = make_field(13)
    adm = admissible_values(ctx)
    assert [c.dlog for c in adm] == sorted(c.dlog for c in adm)


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (17, 1), (5, 2), (29, 1)])
def test_admissible_counts_q_1_mod_4(p, k):
    ctx = make_field(p, k)
    assert len(admissible_values(ctx)) == (ctx.q - 1) // 4


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2), (7, 3)])
def test_admissible_values_match_the_per_element_oracle(monkeypatch, p, k):
    # the dlog-parity pass against is_admissible on every c, sorted by dlog
    ctx = make_field(p, k)
    expected = sorted((c for c in ctx.fq_elements() if is_admissible(c)), key=lambda c: c.dlog)
    monkeypatch.setattr(charsum, "is_admissible", None)
    got = admissible_values(ctx)
    assert [c.code for c in got] == [c.code for c in expected]
    assert all(type(c.code) is int for c in got)


def test_admissible_equals_b_squared_set():
    for p in [5, 7, 13, 17]:
        ctx = make_field(p)
        via_pairs = {(b * b).code for _, b in find_ab_pairs(ctx)}
        assert {c.code for c in admissible_values(ctx)} == via_pairs
        assert {c.code for c in ctx.elements() if is_admissible(c)} == via_pairs


def test_orbit_admissibility_pattern_q13():
    # Within a 6-element orbit of an admissible c, exactly c and 1/(1 - 1/c)
    # are admissible; the self-paired orbit of 2 has just one.
    ctx = make_field(13)
    adm = {c.code for c in admissible_values(ctx)}
    assert adm == {2, 5, 11}
    one = ctx.one
    for code in [5, 11]:
        c = ctx.elem(code)
        partner = (one - c.inverse()).inverse()
        members = orbit(c)
        in_orbit_adm = {m.code for m in members if m.code in adm}
        assert in_orbit_adm == {c.code, partner.code}
        assert len(members) == 6
    # c = 2: orbit {2, 7, 12}, only 2 itself is admissible
    assert {m.code for m in orbit(ctx.elem(2)) if m.code in adm} == {2}


# ----------------------------------------------------------------------------
# extremal survey
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p", [7, 11, 19, 23, 31, 43])
def test_survey_order4_count(p):
    ctx = make_field(p)
    N, hits, misses = survey_N(ctx, 4)
    assert N == (3 * p - 9) // 4
    assert len(hits) == N


def test_survey_q7_hit_miss_sets():
    ctx = make_field(7)
    N, hits, misses = survey_N(ctx, 4)
    assert N == 3
    assert [c.code for c in hits] == [2, 4, 6]
    assert [c.code for c in misses] == [3, 5]


def test_survey_order8_bound_only():
    ctx = make_field(7)
    N, hits, _ = survey_N(ctx, 8)
    assert 4 * N <= 3 * 7 - 9


# the S_c oracle is the F_{q^2} sweep, since sum_S and survey_N share the
# plane route; order 4 needs 4 | d, which fails at q = 13, 25, 49, so there
# the smallest order above 2 dividing d is used
@pytest.mark.parametrize(
    "p,k,order", [(11, 1, 4), (19, 1, 4), (13, 1, 7), (5, 2, 13), (7, 2, 5)]
)
def test_survey_matches_sum_S_oracle(p, k, order):
    ctx = make_field(p, k)
    q, d = ctx.q, ctx.d
    t = ExponentTuple.w_type(d, d // order)
    values = {c: _reference_value(ctx, c, t) for c in ctx.fq_elements()}
    hits = [c for c in ctx.fq_elements() if values[c] == 2 * q]
    misses = [c for c in ctx.fq_elements() if values[c] == -2 * q]
    assert survey_N(ctx, order) == (len(hits), hits, misses)


@pytest.mark.parametrize(
    "p,k,order",
    [
        pytest.param(7, 3, 4, id="7-3"),
        pytest.param(251, 1, 4, id="251-1"),
        pytest.param(1019, 1, 4, id="1019-1", marks=pytest.mark.extended),
        # 4 does not divide d = 126; order 9 has 21 hits and no misses
        pytest.param(5, 3, 9, id="5-3", marks=pytest.mark.extended),
    ],
)
def test_survey_matches_per_c_element_decision(p, k, order):
    # one CycElt per c, every c swept, on the same plane counts; the 343 c
    # of q = 7^3 fill one block and part of a second
    ctx = make_field(p, k)
    q, d = ctx.q, ctx.d
    e = d // order
    sweep = _PlaneSweep(ctx, e, e, e)
    values = {c: CycElt(d, sweep.counts(c)) for c in ctx.fq_elements()}
    hits = [c for c in ctx.fq_elements() if values[c].equals_integer(2 * q)]
    misses = [c for c in ctx.fq_elements() if values[c].equals_integer(-2 * q)]
    assert survey_N(ctx, order) == (len(hits), hits, misses)
    assert 0 < len(hits) and (0 < len(misses) or order != 4)


def _orbit_count_by_closure(ctx):
    """Orbits of F_q minus {0, 1} under c -> 1/c, c -> 1 - c and c -> c^p,
    by closing each unvisited c under the three maps."""
    seen, count = {0, 1}, 0
    for c in ctx.fq_elements():
        if c.code in seen:
            continue
        count += 1
        todo = [c]
        seen.add(c.code)
        while todo:
            x = todo.pop()
            for y in (x.inverse(), ctx.one - x, x ** ctx.p):
                if y.code not in seen:
                    seen.add(y.code)
                    todo.append(y)
    return count


@pytest.mark.parametrize(
    "p,k,order", [(7, 1, 4), (5, 2, 13), (7, 3, 4), (251, 1, 4)],
    ids=["7-1", "5-2", "7-3", "251-1"],
)
def test_survey_sweeps_one_c_per_orbit(monkeypatch, p, k, order):
    ctx = make_field(p, k)
    expected = survey_N(ctx, order)
    swept = []
    counts = _PlaneSweep.counts

    def spy(self, c):
        swept.append(c.code)
        return counts(self, c)

    monkeypatch.setattr(_PlaneSweep, "counts", spy)
    assert survey_N(ctx, order) == expected
    assert len(swept) == len(set(swept)) == 2 + _orbit_count_by_closure(ctx)
    assert swept[:2] == [0, 1] and swept == sorted(swept)
    if ctx.q == 7:
        assert swept == [0, 1, 2, 3]  # orbits {2, 4, 6} and {3, 5}


def test_survey_rejects_bad_order():
    ctx = make_field(7)
    with pytest.raises(ValueError):
        survey_N(ctx, 2)
    with pytest.raises(ValueError):
        survey_N(ctx, 3)


# ----------------------------------------------------------------------------
# the mod-3 obstruction
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p", [7, 19, 31])
def test_mod3_test_all_w_tuples(p):
    ctx = make_field(p)
    d = ctx.d
    sixth = [c for c in ctx.fq_elements() if not c.is_zero and c.multiplicative_order() == 6]
    assert len(sixth) == 2
    for c in sixth:
        for i in range(1, d):
            t = ExponentTuple.w_type(d, i)
            if not t.all_nonzero:
                continue
            assert mod3_test(ctx, c, t)
            # consequence: S != 2q
            assert sum_S(ctx, c, t).as_integer != 2 * ctx.q


def test_mod3_test_preconditions():
    ctx5 = make_field(5)  # 5 != 7 mod 12
    with pytest.raises(ValueError):
        mod3_test(ctx5, ctx5.elem(2), ExponentTuple.w_type(6, 1))
    ctx = make_field(7)
    with pytest.raises(ValueError):
        mod3_test(ctx, ctx.elem(2), ExponentTuple.w_type(8, 1))  # order(2) = 3, not 6
    with pytest.raises(ValueError):
        mod3_test(ctx, ctx.elem(3), ExponentTuple.trivial(8))
    with pytest.raises(ValueError):
        mod3_test(ctx, ctx.elem(3), ExponentTuple(8, 1, 2, 3, 2))  # not w-type


def test_mod3_fixed_point_identity():
    # The map x -> -eta(x + 1) has unique fixed point u = -eta/(1 + eta).
    ctx = make_field(7)
    for eta in [ctx.elem(3), ctx.elem(5)]:
        u = -eta / (ctx.one + eta)
        assert u == -eta * (u + ctx.one)
        fixed = [x for x in ctx.elements() if x == -eta * (x + ctx.one)]
        assert fixed == [u]
