"""Cyclotomic-ring tests: Phi_d correctness against an independent oracle,
ring axioms, Galois action, realness, and ideal-class reduction."""

from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlines import cyc
from fermatlines.cyc import (
    CycElt,
    _canon_rows,
    accumulate,
    cyclotomic_poly,
    equals_integer,
    galois_apply,
    is_real,
    mod_ideal_class,
)

DS = [1, 2, 3, 4, 6, 8, 12, 14, 18, 24, 30, 72, 105, 210, 344, 1155, 1994, 2000]


def _division_canon(d: int, rows) -> list[tuple[int, ...]]:
    """The remainder of each length-d integer row (low first) on long
    division by Phi_d.  All rows are divided at once, in one object array
    of Python ints: each step subtracts c[:, None] times each nonzero
    coefficient value of Phi_d from the columns that carry it, so the
    division stays exact and never touches R_m."""
    den = cyclotomic_poly(d)
    dn = len(den) - 1
    num = np.array(rows, dtype=object)
    # Phi_d is sparse, and has few distinct coefficients
    groups = [(v, np.flatnonzero(np.array(den) == v)) for v in sorted(set(den) - {0})]
    for i in range(num.shape[1] - 1, dn - 1, -1):
        c = num[:, i, None].copy()  # the step clears column i itself
        for v, cols in groups:
            num[:, i - dn + cols] -= c * v
    return [tuple(r) for r in num[:, :dn].tolist()]


# ----------------------------------------------------------------------------
# cyclotomic polynomials
# ----------------------------------------------------------------------------


def test_cyclotomic_poly_known_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)  # x^2 + 1
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)  # x^4 + 1
    assert cyclotomic_poly(14) == (1, -1, 1, -1, 1, -1, 1)  # x^6 - x^5 + ... + 1


@pytest.mark.parametrize("d", DS)
def test_cyclotomic_poly_matches_sympy(d):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_poly(d)) == [int(c) for c in expected]


@pytest.mark.parametrize("d", [1, 2, 6, 8, 12, 14, 30, 105])
def test_cyclotomic_product_identity(d):
    # prod over e | d of Phi_e = x^d - 1
    prod = [1]
    for e in range(1, d + 1):
        if d % e == 0:
            phi = cyclotomic_poly(e)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
    assert prod == [-1] + [0] * (d - 1) + [1]


def test_cyclotomic_poly_rejects_bad_d():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


# ----------------------------------------------------------------------------
# CycElt basics
# ----------------------------------------------------------------------------


def test_sum_of_all_roots_vanishes():
    for d in [2, 6, 8, 14]:
        s = CycElt.zero(d)
        for e in range(d):
            s = accumulate(s, e)
        assert equals_integer(s, 0)
        assert not s


def test_accumulate_zero_marker():
    s = CycElt.zero(8)
    assert accumulate(s, None) == s
    s = accumulate(accumulate(s, 3), None)
    assert s == CycElt.root_of_unity(8, 3)


def test_accumulate_integer_m_times():
    s = CycElt.zero(8)
    for _ in range(5):
        s = accumulate(s, 0)
    assert equals_integer(s, 5)
    assert s.as_integer == 5


def test_zeta_is_not_an_integer():
    z = CycElt.root_of_unity(8, 1)
    assert not equals_integer(z, 1)
    assert z.as_integer is None


def test_equals_integer_unique():
    s = CycElt.from_int(14, 9)
    assert equals_integer(s, 9)
    assert not equals_integer(s, 8)


def test_counts_reduce_via_canon():
    # zeta_4^2 = -1: counts (0,0,1,0) has canon (-1, 0)
    s = CycElt(4, (0, 0, 1, 0))
    assert s.canon == (-1, 0)
    assert s == CycElt.from_int(4, -1)
    # zeta_8^4 = -1 likewise
    assert CycElt.root_of_unity(8, 4) == CycElt.from_int(8, -1)


@pytest.mark.parametrize("d", [6, 8, 12, 200])
@pytest.mark.parametrize("m", [0, 1, -1, 2 * 199, -(2**63), 2**70, -(2**70)])
def test_from_int_matches_the_reduced_counts_without_reducing(monkeypatch, d, m):
    expected = CycElt(d, [m] + [0] * (d - 1))

    def forbidden(*args):
        raise AssertionError("from_int reduced its counts")

    monkeypatch.setattr(cyc, "_canon_rows", forbidden)
    got = CycElt.from_int(d, m)
    assert got == expected and hash(got) == hash(expected)
    assert got.canon == expected.canon and all(type(a) is int for a in got.canon)
    assert len(got.canon) == len(cyclotomic_poly(d)) - 1
    if m == 0:
        assert CycElt.zero(d) == expected and not CycElt.zero(d)


def _entry(r, b):
    """An integer within +-b from the Random r, 0 or +-b one time in eight,
    so that the boundary values Hypothesis favours still turn up."""
    return r.choice((0, -b, b)) if r.random() < 0.125 else r.randint(-b, b)


def _counts_rows(d, *bounds):
    """Length-d integer lists, each entry within +-b for one of the bounds.
    From d = 200 on, Hypothesis spends far longer building such a list than
    the test spends on it (past d = 1000 it exceeds its input budget), so a
    seeded Random draws the entries instead."""
    if d < 200:
        entry = st.one_of(*(st.integers(-b, b) for b in bounds))
        return st.lists(entry, min_size=d, max_size=d)
    return st.randoms(use_true_random=True).map(
        lambda r: [_entry(r, b) for b in r.choices(bounds, k=d)]
    )


@pytest.mark.parametrize("d", [6, 12, 200, 210, 252, 1430, 1994, 2000])
def test_canon_matches_polynomial_division(d):
    # entries past 2^63 force the Python-int product instead of int64; one
    # oracle row at d = 2000 takes about 0.1 s, so it gets few examples
    row = _counts_rows(d, 9, 2**70)

    @settings(max_examples=4 if d > 1000 else 40, deadline=None)
    @given(counts=row)
    def check(counts):
        assert [CycElt(d, counts).canon] == _division_canon(d, [counts])

    check()


@pytest.mark.parametrize(
    "big",
    [
        2**62 - 1,
        2**62,
        2**63,
        2**64,
        (2**63 - 1) // 12,
        (2**63 - 1) // 12 + 1,
        (2**63 - 1) // 24,
        (2**63 - 1) // 24 + 1,
    ],
)
def test_canon_exact_at_the_int64_boundary(big):
    # rad(12) = 6 folds onto R_3, with max |R_3| = 1, so an int64 batch takes
    # the int64 product only while every entry is within (2^63 - 1) // 24,
    # and the Python-int product past it
    counts = [0] * 12
    counts[11] = big
    counts[6] = -big
    assert [CycElt(12, counts).canon] == _division_canon(12, [counts])


@pytest.mark.parametrize("d", [6, 12, 200, 210, 252, 344, 1430, 1994, 2000])
def test_canon_rows_and_batch_match_per_row_elements(d):
    # rows of small entries take the int64 product; a batch with an entry
    # past 2^63 (object matrix) or past the int64 bound of _canon_plan (int64
    # matrix, entries near 2^62) takes the Python-int product
    small, huge, near = (_counts_rows(d, b) for b in (5000, 2**70, 2**62))

    @settings(max_examples=3 if d > 1000 else 25, deadline=None)
    @given(data=st.data())
    def check(data):
        big_rows = data.draw(st.sampled_from(["object", "int64"]), label="big rows")
        row = st.one_of(small, huge if big_rows == "object" else near)
        rows = data.draw(st.lists(row, min_size=1, max_size=6), label="rows")
        counts = np.array(rows, dtype=object if big_rows == "object" else np.int64)
        expected = [CycElt(d, r).canon for r in rows]
        assert expected == _division_canon(d, rows)
        assert [tuple(c) for c in _canon_rows(d, counts).tolist()] == expected
        batch = CycElt.batch(d, counts)
        assert batch == [CycElt(d, r) for r in rows]
        assert [e.canon for e in batch] == expected

    check()


def _asked_reduction_matrices(monkeypatch):
    """The m of every R_m that _canon_rows asks for, with its per-d plans
    forgotten first, so the first call at each d builds its plan afresh."""
    asked = []
    reduction_matrix = cyc._reduction_matrix
    monkeypatch.setattr(cyc, "_reduction_matrix", lambda m: asked.append(m) or reduction_matrix(m))
    cyc._canon_plan.cache_clear()
    return asked


def test_canon_rows_reduce_through_the_radical(monkeypatch):
    # Phi_2000(x) = Phi_10(x^200) = Phi_5(-x^200): the batch asks for R_5
    # only, and its second row, past the int64 bound, sends the whole batch
    # to Python ints
    asked = _asked_reduction_matrices(monkeypatch)
    rows = [list(range(-1000, 1000)), [2**62 - j for j in range(2000)]]
    canon = _canon_rows(2000, np.array(rows, dtype=np.int64))
    assert asked == [5]
    assert canon.dtype == object
    assert [tuple(c) for c in canon.tolist()] == _division_canon(2000, rows)
    assert _canon_rows(2000, np.zeros((0, 2000), dtype=np.int64)).shape == (0, 800)


@pytest.mark.parametrize(
    "d,r", [(8, 2), (12, 3), (105, 105), (1155, 1155), (1430, 715), (1994, 997)]
)
def test_canon_rows_fold_even_radicals_once_per_d(monkeypatch, d, r):
    # even m = rad(d) > 2 reduces by R_(m/2) after the fold; odd d and m = 2
    # reduce by R_m.  The plan is looked up once per d, however many batches
    asked = _asked_reduction_matrices(monkeypatch)
    rng = np.random.default_rng(d)
    for _ in range(2):
        counts = rng.integers(-50, 50, size=(2, d))
        canon = _canon_rows(d, counts)
        assert [tuple(c) for c in canon.tolist()] == _division_canon(d, counts.tolist())
    assert asked == [r]


def test_canon_rows_mixed_block_keeps_the_int64_rows_exact():
    # one row over the bound turns the result into Python ints, and the
    # int64 rows of the same block keep their exact values
    d = 12
    small = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8]
    counts = np.array([small, [2**64] + [0] * 11, small], dtype=object)
    canon = _canon_rows(d, counts)
    assert canon.dtype == object
    assert canon[0].tolist() == canon[2].tolist() == list(_division_canon(d, [small])[0])
    assert canon[1].tolist() == [2**64, 0, 0, 0]
    assert _canon_rows(d, np.array([small], dtype=np.int64)).dtype == np.int64


def test_batch_rejects_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError):
        CycElt.batch(12, np.zeros((2, 11), dtype=np.int64))
    with pytest.raises(ValueError):
        CycElt.batch(12, np.zeros(12, dtype=np.int64))


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycElt.zero(8) + CycElt.zero(14)


# ----------------------------------------------------------------------------
# ring structure (hypothesis)
# ----------------------------------------------------------------------------


def cyc_elts(d):
    return st.lists(st.integers(-9, 9), min_size=d, max_size=d).map(lambda c: CycElt(d, c))


@settings(max_examples=50, deadline=None)
@given(cyc_elts(14), cyc_elts(14), cyc_elts(14))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CycElt.zero(14) == a
    assert a * CycElt.from_int(14, 1) == a
    assert a - a == CycElt.zero(14)


@settings(max_examples=50, deadline=None)
@given(cyc_elts(12), st.sampled_from([1, 5, 7, 11]), st.sampled_from([1, 5, 7, 11]))
def test_galois_composition(a, u, v):
    assert galois_apply(galois_apply(a, u), v) == galois_apply(a, u * v % 12)


@settings(max_examples=50, deadline=None)
@given(cyc_elts(8), cyc_elts(8), st.sampled_from([1, 3, 5, 7]))
def test_galois_is_ring_hom(a, b, u):
    assert galois_apply(a + b, u) == galois_apply(a, u) + galois_apply(b, u)
    assert galois_apply(a * b, u) == galois_apply(a, u) * galois_apply(b, u)


@pytest.mark.parametrize("d", [8, 12, 14, 200])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_canon_ring_ops_match_the_full_length_route(d, data):
    # product, Galois action and accumulate read only canon; the reference
    # works on the full length-d counts vectors (cyclic convolution,
    # index permutation, +1 at e) and reduces by polynomial division.
    # Entries past 2^63 send the reduction down the Python-int product.
    bound = data.draw(st.sampled_from([9, 2**70]), label="bound")
    vec = _counts_rows(d, bound)
    ca, cb = data.draw(vec, label="a"), data.draw(vec, label="b")
    a, b = CycElt(d, ca), CycElt(d, cb)

    conv = [0] * d
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            conv[(i + j) % d] += x * y
    assert [(a * b).canon] == _division_canon(d, [conv])

    u = data.draw(st.sampled_from([u for u in range(1, d) if gcd(u, d) == 1]), label="u")
    perm = [0] * d
    for j, x in enumerate(ca):
        perm[u * j % d] += x
    assert [a.galois(u).canon] == _division_canon(d, [perm])

    e = data.draw(st.integers(-2 * d, 2 * d), label="e")
    plus = list(ca)
    plus[e % d] += 1
    assert [accumulate(a, e).canon] == _division_canon(d, [plus])


def test_galois_identity_and_integers():
    a = CycElt(14, range(14))
    assert galois_apply(a, 1) == a
    n = CycElt.from_int(14, 42)
    for u in [1, 3, 5, 9, 11, 13]:
        assert galois_apply(n, u) == n


def test_galois_rejects_nonunits():
    with pytest.raises(ValueError):
        galois_apply(CycElt.zero(14), 7)
    with pytest.raises(ValueError):
        galois_apply(CycElt.zero(8), 0)


# ----------------------------------------------------------------------------
# realness and conjugation
# ----------------------------------------------------------------------------


def test_is_real_examples():
    assert is_real(CycElt.from_int(8, 17))
    assert not is_real(CycElt.root_of_unity(8, 1))
    z, zi = CycElt.root_of_unity(8, 1), CycElt.root_of_unity(8, 7)
    assert is_real(z + zi)


def test_conjugation_reverses_counts():
    s = CycElt(8, (1, 2, 3, 4, 5, 6, 7, 8))
    assert galois_apply(s, 7) == CycElt(8, (1, 8, 7, 6, 5, 4, 3, 2))


@settings(max_examples=40, deadline=None)
@given(cyc_elts(14))
def test_elt_plus_conjugate_is_real(a):
    assert is_real(a + galois_apply(a, 13))
    assert is_real(a * galois_apply(a, 13))


# ----------------------------------------------------------------------------
# ideal-class reduction
# ----------------------------------------------------------------------------


def test_mod_ideal_class_examples():
    d = 8
    s = CycElt.root_of_unity(d, 1) * 3 + 1
    assert mod_ideal_class(s, 3) == (1, 0, 0, 0)
    q = 7  # q = 7 mod 12: 2q = 14 = 2 mod 3
    assert mod_ideal_class(CycElt.from_int(d, 2 * q), 3) == (2, 0, 0, 0)
    assert mod_ideal_class(CycElt.zero(d), 3) == (0, 0, 0, 0)


def test_mod_ideal_class_rejects_small_modulus():
    with pytest.raises(ValueError):
        mod_ideal_class(CycElt.zero(8), 1)


@settings(max_examples=40, deadline=None)
@given(cyc_elts(12), cyc_elts(12), st.sampled_from([2, 3, 5]))
def test_mod_ideal_class_is_additive(a, b, m):
    lhs = mod_ideal_class(a + b, m)
    rhs = tuple((x + y) % m for x, y in zip(mod_ideal_class(a, m), mod_ideal_class(b, m)))
    assert lhs == rhs
