"""Line/torus/intersection tests: closed-form I_L enumeration against the
brute-force geometric oracle and against the scalar closed form, the two
inner-product routes against each other, and the counting lemmas against
their formula values."""

import importlib
from fractions import Fraction

import numpy as np
import pytest

from fermatlines.charsum import ExponentTuple
from fermatlines.cyc import CycElt
from fermatlines.fermat import (
    IntersectionSet,
    Line,
    TorusElt,
    build_intersections,
    charsum_numerator,
    direct_numerator,
    geometric_intersection_oracle,
    inner_product_direct,
    inner_product_via_charsum,
    line_for_thm1,
    lines_for_c,
    w_tuples,
)
from fermatlines.gf import (
    ContradictionError,
    FieldCtx,
    NonRationalError,
    find_ab_pairs,
    frobenius,
    in_mu_d,
    make_field,
)

fermat_mod = importlib.import_module("fermatlines.fermat")


def mu_d_elements(ctx):
    q1 = ctx.q - 1
    return [ctx.elem(int(ctx.exp[q1 * m])) for m in range(ctx.d)]


# ----------------------------------------------------------------------------
# lines
# ----------------------------------------------------------------------------


def test_line_validation():
    ctx = make_field(7)
    w = ctx.from_coeffs([0, 1])
    with pytest.raises(ValueError):
        Line(ctx, ctx.zero, 2 * w)  # a = 0
    with pytest.raises(ValueError):
        Line(ctx, w, 2 * w)  # a outside F_q
    with pytest.raises(ValueError):
        Line(ctx, ctx.elem(3), ctx.elem(2))  # b inside F_q
    with pytest.raises(ValueError):
        Line(ctx, ctx.elem(1), 2 * w)  # a^2 + 1 != b^2
    L = Line(ctx, ctx.elem(3), 2 * w)
    assert L.c == 3
    assert L.alpha == -(2 * w) / ctx.elem(3)
    assert L.beta == ctx.elem(3).inverse()


def test_lines_for_c_matches_pair_search():
    for p in [5, 7, 13]:
        ctx = make_field(p)
        pairs = find_ab_pairs(ctx)
        for code in range(p):
            c = ctx.elem(code)
            expected = sorted(
                ((a.code, b.code) for a, b in pairs if b * b == c),
            )
            got = sorted((L.a.code, L.b.code) for L in lines_for_c(ctx, c))
            assert got == expected, code


def test_lines_for_c_ordering_and_emptiness():
    ctx = make_field(13)
    ls = lines_for_c(ctx, ctx.elem(2))
    assert len(ls) == 4
    keys = [(L.a.dlog, L.b.dlog) for L in ls]
    assert keys == sorted(keys)
    assert lines_for_c(ctx, ctx.elem(3)) == []  # 3 = 4^2 is a square mod 13
    assert lines_for_c(ctx, ctx.zero) == []
    assert lines_for_c(ctx, ctx.one) == []


def test_line_for_thm1_q7_matches_example():
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    assert L.a == 3 and L.b.coeffs == (0, 2)  # a = b^2 = 3, b = 2w
    assert L.b.multiplicative_order() == 12
    with pytest.raises(ValueError):
        line_for_thm1(make_field(5))
    with pytest.raises(ValueError):
        line_for_thm1(make_field(13))


def test_line_for_thm1_q19():
    ctx = make_field(19)
    L = line_for_thm1(ctx)
    assert L.b.multiplicative_order() == 12
    assert L.a == L.b * L.b
    assert L.a * L.a + 1 == L.b * L.b


@pytest.mark.parametrize("p", [7, 19, 31, 43])
def test_line_for_thm1_b_is_smallest_code_of_order_12(p):
    ctx = make_field(p)
    scan = [x for x in ctx.elements() if not x.is_zero and x.multiplicative_order() == 12]
    assert line_for_thm1(ctx).b == min(scan, key=lambda x: x.code)


# ----------------------------------------------------------------------------
# torus elements
# ----------------------------------------------------------------------------


def test_torus_elt_validation_and_normalization():
    ctx = make_field(7)
    mu = mu_d_elements(ctx)
    z = mu[1]
    with pytest.raises(ValueError):
        TorusElt(ctx.elem(2), ctx.one, ctx.one)  # 2 is not a d-th root at q=7
    t = TorusElt.from_quad(z, z, z, z)
    assert t.is_identity
    t2 = TorusElt.from_quad(z * z, z, ctx.one, z)
    assert t2.coords == (z, ctx.one, z.inverse())


def test_torus_inverse_and_TE():
    ctx = make_field(7)
    mu = mu_d_elements(ctx)
    t = TorusElt(mu[1], mu[2], mu[5])
    ti = t.inverse()
    assert all((x * y) == 1 for x, y in zip(t.coords, ti.coords))
    assert TorusElt(mu[1], mu[2], mu[5]).in_TE  # 1+2+5 = 8 = 0 mod d
    assert not TorusElt(mu[1], mu[1], mu[1]).in_TE
    assert TorusElt.identity(ctx).in_TE


def test_nu_exponents():
    ctx = make_field(7)
    mu = mu_d_elements(ctx)
    t = TorusElt(mu[3], ctx.one, mu[7])
    assert t.nu_exponents() == (3, 0, 7)


# ----------------------------------------------------------------------------
# intersection enumeration
# ----------------------------------------------------------------------------


def reference_terms(ctx):
    """The line-independent part of the closed form: the pairs (gamma,
    (-gamma^(q-1))^(-1)) for trace(gamma) != 0, by ascending code, and the
    lists of x^(q-1) and of -x^(-(q-1)) indexed by the code of x != 0."""
    q1 = ctx.q - 1
    nonzero = list(ctx.elements())[1:]
    gammas = [(g, (-(g**q1)).inverse()) for g in nonzero if g + frobenius(ctx, g) != 0]
    return gammas, [None] + [x**q1 for x in nonzero], [None] + [-(x**-q1) for x in nonzero]


def reference_intersections(ctx, L, terms):
    """I_L by the closed form in scalar FqElem arithmetic: the three-entry
    list and the dict gamma -> t_gamma, gammas by ascending code.  The
    reference for the dlog-row route of ``build_intersections``.

    t_gamma is the inverse of [-gamma^(q-1) : 1 : -(a gamma + b)^(q-1) :
    (a + b gamma)^(q-1)], taken coordinate-wise and normalised to
    [t3/t0 : t3 : t3/t2 : 1]; terms is ``reference_terms(ctx)``."""
    one = ctx.one
    three_entry = []
    for z in mu_d_elements(ctx)[1:]:
        zi = z.inverse()
        three_entry.append(TorusElt(z, one, one))
        three_entry.append(TorusElt(one, z, one))
        three_entry.append(TorusElt(one, one, z))
        three_entry.append(TorusElt(zi, zi, zi))
    a, b = L.a, L.b
    gammas, power, neg_inv_power = terms
    gamma_indexed = {}
    for gamma, inv_t0 in gammas:
        t3 = power[(a + b * gamma).code]
        gamma_indexed[gamma] = TorusElt(t3 * inv_t0, t3, t3 * neg_inv_power[(a * gamma + b).code])
    return three_entry, gamma_indexed


@pytest.mark.parametrize(
    "p,k",
    [
        (5, 1),
        (7, 1),
        (13, 1),
        (5, 2),
        pytest.param(11, 2, marks=pytest.mark.extended),
        pytest.param(5, 3, marks=pytest.mark.extended),
    ],
)
def test_build_intersections_matches_scalar_reference(p, k):
    # row by row, gamma by gamma: I_L is closed under inversion, so a
    # comparison of multisets would miss a dropped negation
    ctx = make_field(p, k)
    n3 = 4 * (ctx.d - 1)
    terms = reference_terms(ctx)
    for a, b in find_ab_pairs(ctx):
        L = Line(ctx, a, b)
        iset = build_intersections(ctx, L)
        three_entry, gamma_indexed = reference_intersections(ctx, L, terms)
        assert iset.exps[:n3].tolist() == [list(t.nu_exponents()) for t in three_entry]
        assert iset.gammas.tolist() == [g.code for g in gamma_indexed]
        for row, t in zip(iset.exps[n3:].tolist(), gamma_indexed.values()):
            assert tuple(row) == t.nu_exponents(), (p, k, L)
        assert len(iset.exps) == n3 + len(gamma_indexed)


def test_build_intersections_checks_raise(monkeypatch):
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    # a zero a*gamma + b would otherwise read dlog[0] = -1 as an exponent
    monkeypatch.setattr(FieldCtx, "shift_codes", lambda self, codes, c: np.zeros_like(codes))
    with pytest.raises(ContradictionError, match="vanished"):
        build_intersections(ctx, L)
    monkeypatch.setattr(FieldCtx, "shift_codes", lambda self, codes, c: np.ones_like(codes))
    with pytest.raises(ContradictionError, match="repetition"):
        build_intersections(ctx, L)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_build_intersections_counts(p):
    ctx = make_field(p)
    q, d = ctx.q, ctx.d
    for L in lines_for_c(ctx, find_ab_pairs(ctx)[0][1] ** 2)[:1]:
        iset = build_intersections(ctx, L)
        assert len(iset.three_entry) == 4 * (d - 1)
        assert len(iset.gamma_indexed) == q * q - q
        assert len(iset) == q * q + 3 * q
        elems = list(iset.all_elements())
        assert len(set(elems)) == len(elems)
        for t in elems:
            for coord in t.coords:
                assert in_mu_d(ctx, coord)


def test_excluded_gammas_are_trace_zero_line():
    # trace(gamma) = 0 exactly on the q multiples of b (F_q * b, plus 0).
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    iset = build_intersections(ctx, L)
    excluded = [
        g for g in ctx.elements() if g + frobenius(ctx, g) == 0
    ]
    assert len(excluded) == ctx.q
    assert set(excluded) == {beta * L.b for beta in ctx.fq_elements()}
    assert all(g not in iset.gamma_indexed for g in excluded)


def test_gamma_involution_pairs_with_inverse():
    # gamma -> -pi(gamma) flips t_gamma to its inverse.
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    iset = build_intersections(ctx, L)
    for gamma, t in iset.gamma_indexed.items():
        partner = -frobenius(ctx, gamma)
        assert iset.gamma_indexed[partner] == t.inverse()


# ----------------------------------------------------------------------------
# geometric oracle
# ----------------------------------------------------------------------------


def full_torus_classification(ctx, L):
    iset = build_intersections(ctx, L)
    three = set(iset.three_entry)
    gammas = set(iset.gamma_indexed.values())
    mu = mu_d_elements(ctx)
    for c0 in mu:
        for c1 in mu:
            for c2 in mu:
                t = TorusElt(c0, c1, c2)
                n = geometric_intersection_oracle(ctx, L, t)
                if t.is_identity:
                    expected = ctx.q**2 + 1
                elif t in three:
                    expected = 1
                elif t in gammas:
                    expected = 2
                else:
                    expected = 0
                assert n == expected, (t, n, expected)


def test_oracle_full_torus_q5():
    ctx = make_field(5)
    L = lines_for_c(ctx, ctx.elem(2))[0]
    full_torus_classification(ctx, L)


def test_oracle_spot_checks_q7():
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    iset = build_intersections(ctx, L)
    assert geometric_intersection_oracle(ctx, L, TorusElt.identity(ctx)) == 50
    assert geometric_intersection_oracle(ctx, L, iset.three_entry[0]) == 1
    some_gamma_t = next(iter(iset.gamma_indexed.values()))
    assert geometric_intersection_oracle(ctx, L, some_gamma_t) == 2


# ----------------------------------------------------------------------------
# w-tuples
# ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d,count", [(6, 4), (8, 8), (12, 10), (14, 14), (18, 16)]
)
def test_w_tuples_counts(d, count):
    tuples = w_tuples(d)
    assert len(tuples) == count
    assert len(tuples) == (d if d % 3 else d - 2)
    assert tuples[0] == ExponentTuple.trivial(d)
    for t in tuples[1:]:
        assert t.is_w_type and t.all_nonzero
        assert t.entries[3] == (-3 * t.i0) % d
    assert len(set(tuples)) == len(tuples)


def test_w_tuples_d8_and_d12_membership():
    assert [t.i0 for t in w_tuples(8)] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert [t.i0 for t in w_tuples(12)] == [0, 1, 2, 3, 5, 6, 7, 9, 10, 11]


# ----------------------------------------------------------------------------
# inner products
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7])
def test_trivial_inner_product_every_line(p):
    ctx = make_field(p)
    for a, b in find_ab_pairs(ctx):
        L = Line(ctx, a, b)
        assert inner_product_direct(ctx, L, ExponentTuple.trivial(ctx.d)) == Fraction(
            1, ctx.d
        )


def test_sum_of_minus_four():
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    iset = build_intersections(ctx, L)
    d = ctx.d
    partial = IntersectionSet(ctx, iset.exps[: 4 * (d - 1)], np.empty(0, dtype=np.int64))
    for t in w_tuples(d)[1:]:
        assert partial.lambda_inv_sum(t).equals_integer(-4)
    # also for non-w-type all-nonzero tuples
    assert partial.lambda_inv_sum(ExponentTuple(d, 1, 2, 3, 2)).equals_integer(-4)


def test_self_pairing_constant():
    # The 2 - d term: the numerator of the trivial character is
    # (2 - d) + |I_L| = d^2, giving 1/d after division by d^3.
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    assert direct_numerator(ctx, L, ExponentTuple.trivial(8)).as_integer == 64


def test_direct_numerator_builds_I_L_once_per_line(monkeypatch):
    ctx = make_field(7)
    builds = []

    def counting(ctx, L):
        builds.append(L)
        return build_intersections(ctx, L)

    monkeypatch.setattr(fermat_mod, "build_intersections", counting)
    fermat_mod._intersections_of.cache_clear()
    first, second = (Line(ctx, a, b) for a, b in find_ab_pairs(ctx)[:2])
    for L in (first, second, first):
        iset = build_intersections(ctx, L)
        for t in w_tuples(ctx.d):
            assert direct_numerator(ctx, L, t) == iset.lambda_inv_sum(t) + (2 - ctx.d)
    # one build per run of tuples on a line; only the last line is kept
    assert builds == [first, second, first]
    fermat_mod._intersections_of.cache_clear()


def test_direct_numerator_builds_no_torus_element(monkeypatch):
    ctx = make_field(7)

    def refuse(self, *args):
        raise AssertionError("a TorusElt was built")

    monkeypatch.setattr(TorusElt, "__init__", refuse)
    fermat_mod._intersections_of.cache_clear()
    for a, b in find_ab_pairs(ctx):
        L = Line(ctx, a, b)
        for t in w_tuples(ctx.d)[1:]:
            assert direct_numerator(ctx, L, t) == charsum_numerator(ctx, L, t)
    fermat_mod._intersections_of.cache_clear()


@pytest.mark.parametrize("p", [5, 7, 13])
def test_dual_route_equality_all_lines_all_w_tuples(p):
    ctx = make_field(p)
    d = ctx.d
    nontrivial = w_tuples(d)[1:]
    for a, b in find_ab_pairs(ctx):
        L = Line(ctx, a, b)
        iset = build_intersections(ctx, L)
        for t in nontrivial:
            n_direct = iset.lambda_inv_sum(t) + (2 - d)
            n_charsum = charsum_numerator(ctx, L, t)
            assert n_direct == n_charsum, (p, L, t)


def test_dual_route_fraction_or_identical_error():
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    for t in w_tuples(8)[1:]:
        n = charsum_numerator(ctx, L, t).as_integer
        if n is None:
            with pytest.raises(NonRationalError):
                inner_product_direct(ctx, L, t)
            with pytest.raises(NonRationalError):
                inner_product_via_charsum(ctx, L, t)
        else:
            assert inner_product_direct(ctx, L, t) == inner_product_via_charsum(
                ctx, L, t
            ) == Fraction(n, 8**3)


def test_via_charsum_rejects_zero_entry():
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    with pytest.raises(ValueError):
        inner_product_via_charsum(ctx, L, ExponentTuple.trivial(8))
    with pytest.raises(ValueError):
        inner_product_via_charsum(ctx, L, ExponentTuple(8, 0, 1, 3, 4))


def test_nonzero_projection_iff_S_not_2q():
    # numerator = S - 2q, so the projection is nonzero iff S != 2q.
    ctx = make_field(7)
    L = line_for_thm1(ctx)
    from fermatlines.charsum import sum_S

    for t in w_tuples(8)[1:]:
        num = charsum_numerator(ctx, L, t)
        s = sum_S(ctx, L.c, t)
        assert bool(num) == (s.value != CycElt.from_int(8, 2 * ctx.q))
        assert bool(num)  # at the thm1 line every projection is nonzero
