"""Function-field arithmetic, group law, and trace-construction tests,
including the exact match against the q = 7 example point and the
specialisation oracle: at every good fibre t0 whose cubic has three
distinct roots in F_{q^4} or F_{q^6}, P(t0) is the sum of the three fibre
points, added over that finite field."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlines import efield
from fermatlines.efield import (
    CurvePoint,
    Poly,
    RatFunc,
    construct_point,
    curve_add,
    curve_neg,
    line_components,
    mu_d_translate,
    point_from_components,
)
from fermatlines.fermat import Line, line_for_thm1, lines_for_c
from fermatlines.gf import ContradictionError, find_ab_pairs, make_field

CTX7 = make_field(7)
CTX5 = make_field(5)

_cached = {}


def thm1_point():
    if "P7" not in _cached:
        _cached["P7"] = construct_point(CTX7, line_for_thm1(CTX7))
    return _cached["P7"]


def rf(ints_num, ints_den=(1,), ctx=CTX7):
    return RatFunc(Poly.from_fp(ctx, ints_num), Poly.from_fp(ctx, ints_den))


# ----------------------------------------------------------------------------
# Poly
# ----------------------------------------------------------------------------


def test_poly_normalization():
    p = Poly.from_fp(CTX7, [1, 2, 0, 0])
    assert p.degree == 1 and len(p.codes) == 2
    z = Poly.from_fp(CTX7, [0, 0])
    assert z.is_zero and z.codes == () and z.degree == -1


def test_poly_divmod_roundtrip():
    a = Poly.from_fp(CTX7, [3, 1, 4, 1, 5])
    b = Poly.from_fp(CTX7, [2, 6, 1])
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        a.divmod(Poly.zero(CTX7))


small_polys = st.lists(st.integers(min_value=0, max_value=6), max_size=5).map(
    lambda v: Poly.from_fp(CTX7, v)
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == Poly.zero(CTX7)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_poly_gcd_divides(a, b):
    g = a.gcd(b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
    else:
        assert a % g == Poly.zero(CTX7)
        assert b % g == Poly.zero(CTX7)
        assert g.lead_code == 1  # monic


def test_poly_eval_and_pow():
    p = Poly.from_fp(CTX7, [1, 0, 1])  # 1 + t^2
    x = CTX7.from_int(3)
    assert p.eval(x) == CTX7.from_int(10)
    assert (p**3) == p * p * p
    assert p**0 == Poly.one(CTX7)
    # every exponent up to 2d against repeated multiplication
    f = Poly(CTX7, [3, 17, 0, 40])
    acc = Poly.one(CTX7)
    for e in range(2 * CTX7.d + 1):
        assert f**e == acc, e
        acc = acc * f


def test_poly_subst_scale():
    zeta = CTX7.mu_d_gen()
    p = Poly.from_fp(CTX7, [2, 3, 4])
    q = p.subst_scale(zeta)
    # evaluation equivariance: q(x) = p(zeta * x)
    for code in [0, 1, 5, 11]:
        x = CTX7.elem(code)
        assert q.eval(x) == p.eval(zeta * x)


def test_poly_pretty_signed():
    p = Poly.from_fp(CTX7, [2, -2, 0, 1, 6])
    assert p.pretty() == "-t^4 + t^3 - 2t + 2"
    assert Poly.zero(CTX7).pretty() == "0"
    assert Poly.from_fp(CTX7, [5]).pretty() == "-2"


# ----------------------------------------------------------------------------
# RatFunc
# ----------------------------------------------------------------------------


def test_ratfunc_canonical():
    # (t^2 - 1)/(2t - 2) reduces to (t + 1)/2 = 4t + 4 over F_7
    f = rf([-1, 0, 1], [-2, 2])
    assert f == rf([4, 4])
    assert f.den == Poly.one(CTX7)
    with pytest.raises(ZeroDivisionError):
        rf([1], [0])


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys, small_polys)
def test_ratfunc_field_axioms(a, b, c, d):
    if b.is_zero or d.is_zero:
        return
    f = RatFunc(a, b)
    g = RatFunc(c, d)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) - g == f
    if not g.is_zero:
        assert (f / g) * g == f
    # canonical invariants
    for h in (f + g, f * g, f - g):
        assert h.den.lead_code == 1
        assert h.num.gcd(h.den).degree <= 0


def test_ratfunc_subst_scale_is_hom():
    zeta = CTX7.mu_d_gen()
    f = rf([1, 2], [3, 0, 1])
    g = rf([0, 5], [1, 1])
    assert (f * g).subst_scale(zeta) == f.subst_scale(zeta) * g.subst_scale(zeta)
    assert (f + g).subst_scale(zeta) == f.subst_scale(zeta) + g.subst_scale(zeta)
    assert f.subst_scale(CTX7.one) == f
    # no gcd is taken, so the image must already be the normalised pair
    for j in range(CTX7.d):
        z = zeta**j
        for h in (f, g):
            normalised = RatFunc(h.num.subst_scale(z), h.den.subst_scale(z))
            assert h.subst_scale(z) == normalised


# ----------------------------------------------------------------------------
# the cubic m0
# ----------------------------------------------------------------------------


def test_thm1_cubic_modulus():
    c0, c1, c2 = efield._build_cubic(CTX7, *line_components(CTX7, line_for_thm1(CTX7)))
    w = CTX7.from_coeffs([0, 1])
    assert c2 == Poly.from_elems(CTX7, [2 * w])
    assert c1 == Poly.one(CTX7)
    assert c0 == Poly.from_elems(CTX7, [CTX7.zero, w])


# ----------------------------------------------------------------------------
# the q = 7 example point
# ----------------------------------------------------------------------------

# transcribed printed values, highest degree first
PX_NUM = [-2, -2, 3, 1, 0, 1, 0, -1, 0, 2, -1, -3, 3, 2, 2]
PX_DEN = [-2, 2, 3, 3, 1, -3, -2, -1, -1]
PY_NUM_INNER = [1, 1, -1, 2, 0, -1, 2, 2, -3, 0, 2, 1, 2, -2, -1, 1, 0, 2, -2, 1, 0, -1]
PY_DEN = [1, 2, -1, 2, 3, 0, 1, 0, -1, 2, -1, -2, 1]


def printed_point():
    x = RatFunc(
        Poly.from_fp(CTX7, list(reversed(PX_NUM))),
        Poly.from_fp(CTX7, list(reversed(PX_DEN))),
    )
    y = -RatFunc(
        Poly.from_fp(CTX7, list(reversed(PY_NUM_INNER))),
        Poly.from_fp(CTX7, list(reversed(PY_DEN))),
    )
    return CurvePoint(CTX7, x, y)


def test_printed_point_is_on_curve():
    assert printed_point().on_curve()


def test_construct_point_matches_printed_example():
    expected = printed_point()
    L = line_for_thm1(CTX7)
    P = construct_point(CTX7, L)
    assert P == expected
    assert P.x.num.degree == 14 and P.x.den.degree == 8
    assert P.y.num.degree == 21 and P.y.den.degree == 12
    assert P.on_curve()
    # both square roots of 3 give the same point (recorded: both match)
    P_other = construct_point(CTX7, Line(CTX7, L.a, -L.b))
    assert P_other == expected


def test_construct_point_q5_quadratic_tower():
    """At q = 5 the cubic m0 has Galois group S_3: its roots need a further
    quadratic extension of L1, which the Riemann-Roch solve never builds."""
    ctx = CTX5
    L = lines_for_c(ctx, ctx.elem(2))[0]
    P = construct_point(ctx, L)
    assert not P.is_infinity
    assert P.on_curve()


# ----------------------------------------------------------------------------
# the specialisation oracle: P(t0) against the sum of the fibre points
# ----------------------------------------------------------------------------


def _fibre_embedding(ctx, big):
    """The images in the field ``big`` of all q^2 codes of F_{q^2}: w goes to
    a root of ctx.modulus (whose leading 1 is implied), searched for in the
    subfield of order q^2 of big."""
    n, Q = ctx.q * ctx.q, big.q * big.q
    coeffs = [big.from_int(c) for c in ctx.modulus] + [big.one]

    def modulus_at(x):
        acc = big.zero
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    subfield = (big.gen ** ((Q - 1) // (n - 1) * j) for j in range(n - 1))
    w = next(x for x in subfield if modulus_at(x).is_zero)
    powers = [w**i for i in range(ctx.deg)]
    images = []
    for code in range(n):
        acc = big.zero
        for a, wi in zip(ctx.decode(code), powers):
            acc = acc + a * wi
        images.append(acc)
    return images


@functools.lru_cache(maxsize=None)
def _split_fibres(p, m):
    """The embedding of F_{q^2} into big = make_field(p, m), q = p, and for
    each line of find_ab_pairs the line and every (t0, T, roots) with t0 in
    F_{q^2} on a good fibre (t0^d != 0 and 27*t0^d != -1), T = t0^d in big
    and the three distinct roots s in big of t0 = f0(s)*f1(s)*f2(s).

    f0 = s, f1 = beta + alpha*s and f2 = -alpha - beta*s are evaluated from
    L.alpha and L.beta at every code of big at once, with the exp/dlog
    tables for products and base-p digits for sums."""
    ctx, big = make_field(p), make_field(p, m)
    embed = _fibre_embedding(ctx, big)
    Q = big.q * big.q
    exp, dlog = big.exp.astype(np.int64), big.dlog.astype(np.int64)

    def mul(a, b):
        return np.where((a == 0) | (b == 0), 0, exp[(dlog[a] + dlog[b]) % (Q - 1)])

    def add(a, b):
        return sum((a // p**i + b // p**i) % p * p**i for i in range(big.deg))

    s = np.arange(Q)
    out = []
    for a, b in find_ab_pairs(ctx):
        L = Line(ctx, a, b)
        alpha, beta = embed[L.alpha.code], embed[L.beta.code]
        f1 = add(beta.code, mul(alpha.code, s))
        f2 = add((-alpha).code, mul((-beta).code, s))
        values = mul(mul(s, f1), f2)
        order = np.argsort(values, kind="stable")
        values = values[order]
        fibres = []
        for t0 in ctx.elements():
            T = t0**ctx.d
            if t0.is_zero or (27 * T + 1).is_zero:
                continue
            code = embed[t0.code].code
            lo, hi = np.searchsorted(values, [code, code + 1])
            if hi - lo == 3:
                roots = [big.elem(int(r)) for r in order[lo:hi]]
                fibres.append((t0, embed[T.code], roots))
        out.append((L, fibres))
    return embed, out


def _fibre_point(ctx, embed, L, s):
    """(x, y) = (-f0^d*f2^d, -f0^{2d}*f2^d) at the fibre root s."""
    f0 = s
    f2 = -(embed[L.alpha.code] + embed[L.beta.code] * s)
    x = -(f0**ctx.d) * f2**ctx.d
    return x, x * f0**ctx.d


def _fibre_add(T, P, Q):
    """Affine chord-tangent on y^2 + x*y - T*y = x^3 over a finite field;
    None is O."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 + y2 + x1 == T:
            return None
        lam = (3 * x1 * x1 - y1) / (2 * y1 + x1 - T)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + lam - x1 - x2
    return x3, -(lam + 1) * x3 - (y1 - lam * x1) + T


def _specialise(P, t0, embed):
    """P(t0) embedded in the bigger field; O (None) when x has a pole at t0."""
    if P.is_infinity or P.x.den.eval(t0).is_zero:
        return None
    x = P.x.num.eval(t0) / P.x.den.eval(t0)
    y = P.y.num.eval(t0) / P.y.den.eval(t0)
    return embed[x.code], embed[y.code]


FIBRE_FIELDS = [
    (5, 2),
    (5, 3),
    (7, 2),
    (7, 3),
    pytest.param(11, 2, marks=pytest.mark.extended),
    pytest.param(11, 3, marks=pytest.mark.extended),
    pytest.param(13, 2, marks=pytest.mark.extended),
]


@pytest.mark.parametrize("p", [5, 7])
def test_vieta_and_roots_satisfy_m0(p):
    """The coefficients of m0 from _build_cubic, specialised at t0, against
    the fibre roots found by evaluating f0*f1*f2 directly: Vieta's formulas
    say (s - r1)(s - r2)(s - r3) = m0(t0, s), so each root satisfies m0."""
    ctx = make_field(p)
    for m in (2, 3):
        embed, lines = _split_fibres(p, m)
        for L, split in lines:
            c0, c1, c2 = efield._build_cubic(ctx, *line_components(ctx, L))
            for t0, _, (r1, r2, r3) in split:
                e0, e1, e2 = (embed[c.eval(t0).code] for c in (c0, c1, c2))
                assert r1 + r2 + r3 == -e2, (L.a, L.b, t0)
                assert r1 * r2 + r1 * r3 + r2 * r3 == e1, (L.a, L.b, t0)
                assert r1 * r2 * r3 == -e0, (L.a, L.b, t0)


@pytest.mark.parametrize("p", [5, 7])
def test_conjugate_points_on_curve(p):
    """Each fibre point, the specialisation of one Galois conjugate, lies on
    E_t0 : y^2 + x*y - T*y = x^3 with T = t0^d, and so does their sum."""
    ctx = make_field(p)
    for m in (2, 3):
        embed, lines = _split_fibres(p, m)
        for L, split in lines:
            for t0, T, roots in split:
                points = [_fibre_point(ctx, embed, L, s) for s in roots]
                total = None
                for pt in points:
                    total = _fibre_add(T, total, pt)
                for x, y in points + ([] if total is None else [total]):
                    assert y * y + x * y - T * y == x * x * x, (L.a, L.b, t0)


@pytest.mark.parametrize("p,m", FIBRE_FIELDS)
def test_construct_point_matches_fibre_sums(p, m):
    """On a good fibre, specialisation t -> t0 is a group homomorphism
    (Silverman, The Arithmetic of Elliptic Curves, VII.2), so P(t0) is the
    sum of the three fibre points over the finite field that holds the roots
    of t0 = f0*f1*f2(s).  The sum is taken with affine chord-tangent over
    make_field(p, m), F_{q^4} for m = 2 and F_{q^6} for m = 3; nothing of it
    shares function-field arithmetic with construct_point.

    F_{q^4} holds the roots when the cubic over F_{q^2} has a linear factor,
    F_{q^6} when it is irreducible or splits.  Good fibres checked per line:
    18 of 18 at q = 5 (10 in each field), 40 of 40 at q = 7 (13 in F_{q^4},
    40 in F_{q^6}), 106 of 108 at q = 11 (66 and 58), and 107 or 108 of 154
    at q = 13 (F_{q^4} only, since 13^6 exceeds SIZE_CAP).

    At q = 7 the coordinates of P have degrees x = 14/8 and y = 21/12.  A
    wrong coordinate of at most those degrees agreeing at more than 14 + 8
    = 22 values of t0 (33 for y) would equal P's; 40 values are checked, 38
    of them with P(t0) finite.  This is not a degree-bound proof of
    identity: nothing bounds the degrees of a wrong output."""
    ctx = make_field(p)
    embed, lines = _split_fibres(p, m)
    for L, split in lines:
        P = construct_point(ctx, L)
        assert split
        for t0, T, roots in split:
            total = None
            for s in roots:
                total = _fibre_add(T, total, _fibre_point(ctx, embed, L, s))
            assert _specialise(P, t0, embed) == total, (L.a, L.b, t0)


def test_construct_point_x_in_base_field_is_a_contradiction(monkeypatch):
    z, one, t = Poly.zero(CTX7), Poly.one(CTX7), Poly.variable(CTX7)
    monkeypatch.setattr(
        efield, "_coordinate_vectors", lambda *args: ((t, z, z), (z, one, z))
    )
    L = line_for_thm1(CTX7)
    with pytest.raises(ContradictionError) as info:
        construct_point(CTX7, L)
    msg = str(info.value)
    assert "q = 7" in msg and f"({L.a}, {L.b})" in msg and "x = t lies in K" in msg


def test_construct_point_zero_y_coefficient_is_a_contradiction(monkeypatch):
    # Over the reducible m0 = s^3, xbar = s^2 satisfies xbar^2 = 0, which
    # forces c = 0; over an irreducible m0 no xbar outside K can do that.
    pz, pone = Poly.zero(CTX7), Poly.one(CTX7)
    monkeypatch.setattr(efield, "_build_cubic", lambda ctx, *f: (pz, pz, pz))
    monkeypatch.setattr(
        efield,
        "_coordinate_vectors",
        lambda *args: ((pz, pz, pone), (pz, pone, pz)),
    )
    L = line_for_thm1(CTX7)
    with pytest.raises(ContradictionError) as info:
        construct_point(CTX7, L)
    msg = str(info.value)
    assert "q = 7" in msg and f"({L.a}, {L.b})" in msg and "c = 0" in msg


def test_construct_point_off_curve_result_is_a_contradiction(monkeypatch):
    # Shifting ybar by 1 leaves b and c alone and moves the constant a by -c,
    # so the result comes out as (x, y - 1): off the curve, caught by the
    # final check.
    vectors = efield._coordinate_vectors

    def shifted(*args):
        xvec, (y0, y1, y2) = vectors(*args)
        return xvec, (y0 + Poly.one(CTX7), y1, y2)

    monkeypatch.setattr(efield, "_coordinate_vectors", shifted)
    L = line_for_thm1(CTX7)
    with pytest.raises(ContradictionError) as info:
        construct_point(CTX7, L)
    msg = str(info.value)
    assert "q = 7" in msg and f"({L.a}, {L.b})" in msg
    assert "trace point violates the curve equation" in msg


# ----------------------------------------------------------------------------
# group law
# ----------------------------------------------------------------------------


def test_group_law_identities():
    P = thm1_point()
    O = CurvePoint.infinity(CTX7)
    assert curve_add(CTX7, P, O) == P
    assert curve_add(CTX7, O, P) == P
    assert O.on_curve()
    nP = curve_neg(CTX7, P)
    assert nP.on_curve()
    assert curve_add(CTX7, P, nP).is_infinity
    assert curve_neg(CTX7, nP) == P
    assert curve_neg(CTX7, O) == O


def test_group_law_commutes_and_associates():
    P = thm1_point()
    zeta = CTX7.mu_d_gen()
    Q = mu_d_translate(CTX7, P, zeta)
    R = mu_d_translate(CTX7, P, zeta * zeta)
    assert curve_add(CTX7, P, Q) == curve_add(CTX7, Q, P)
    S1 = curve_add(CTX7, curve_add(CTX7, P, Q), R)
    S2 = curve_add(CTX7, P, curve_add(CTX7, Q, R))
    assert S1 == S2
    assert S1.on_curve()
    dbl = curve_add(CTX7, P, P)
    assert dbl.on_curve()


def test_curve_add_rejects_off_curve():
    P = thm1_point()
    bad = CurvePoint(CTX7, P.x, P.y + RatFunc.one(CTX7))
    assert not bad.on_curve()
    with pytest.raises(ValueError):
        curve_add(CTX7, P, bad)
    with pytest.raises(ValueError):
        curve_add(CTX7, bad, P)


@pytest.mark.parametrize(
    "p,full",
    [(7, True), (19, False), pytest.param(19, True, marks=pytest.mark.extended)],
)
def test_on_curve_cleared_matches_generic_identity(p, full):
    """The cleared-denominator check on rational points against the RatFunc
    identity y^2 + xy - t^d y = x^3: the thm-1 point and O, with ``full``
    also all its mu_d-translates, 2P and P + sigma P; and four points off the
    curve."""
    ctx = make_field(p)
    P = construct_point(ctx, line_for_thm1(ctx))
    on = [P, CurvePoint.infinity(ctx)]
    if full:
        zeta = ctx.mu_d_gen()
        translates = [mu_d_translate(ctx, P, zeta**j) for j in range(1, ctx.d)]
        on += translates
        on += [curve_add(ctx, P, P), curve_add(ctx, P, translates[0])]
    one, t = RatFunc.one(ctx), RatFunc.t(ctx)
    td = RatFunc.from_poly(Poly.variable(ctx) ** ctx.d)
    off = [
        CurvePoint(ctx, P.x, P.y + one),
        CurvePoint(ctx, P.x, P.y + td),
        CurvePoint(ctx, P.x + t, P.y),
        CurvePoint(ctx, P.y, P.x),
    ]
    for Q, expected in [(Q, True) for Q in on] + [(Q, False) for Q in off]:
        assert Q.on_curve() is expected, Q
        if not Q.is_infinity:
            assert Q._satisfies_equation() is expected, Q


# ----------------------------------------------------------------------------
# mu_d translation
# ----------------------------------------------------------------------------


def test_mu_d_translate_basics():
    P = thm1_point()
    assert mu_d_translate(CTX7, P, CTX7.one) == P
    O = CurvePoint.infinity(CTX7)
    assert mu_d_translate(CTX7, O, CTX7.mu_d_gen()) == O
    with pytest.raises(ValueError):
        mu_d_translate(CTX7, P, CTX7.zero)
    with pytest.raises(ValueError):
        mu_d_translate(CTX7, P, CTX7.gen)  # generator is not in mu_d


def test_mu_d_translate_orbit():
    P = thm1_point()
    zeta = CTX7.mu_d_gen()
    translates = [mu_d_translate(CTX7, P, zeta**j) for j in range(CTX7.d)]
    assert len(set(translates)) == CTX7.d
    for T in translates:
        assert T.on_curve()
    # composition law
    T1 = mu_d_translate(CTX7, P, zeta)
    T12 = mu_d_translate(CTX7, T1, zeta)
    assert T12 == translates[2]


def test_mu_d_translate_off_curve_is_a_contradiction(monkeypatch):
    # t -> g*t with g outside mu_d does not fix t^d, so the image leaves E.
    monkeypatch.setattr(efield, "in_mu_d", lambda ctx, zeta: True)
    with pytest.raises(ContradictionError) as info:
        mu_d_translate(CTX7, thm1_point(), CTX7.gen)
    msg = str(info.value)
    assert "q = 7" in msg and f"dlog {CTX7.gen.dlog}" in msg
    assert "translate left the curve" in msg


# ----------------------------------------------------------------------------
# torus equivariance of the construction
# ----------------------------------------------------------------------------


def test_point_from_components_equivariance():
    ctx = CTX7
    L = line_for_thm1(ctx)
    f0, f1, f2 = line_components(ctx, L)
    base = point_from_components(ctx, f0, f1, f2)
    assert base == construct_point(ctx, L)
    zeta = ctx.mu_d_gen()
    reps = [
        (zeta, zeta.inverse(), ctx.one),
        (zeta, zeta, (zeta * zeta).inverse()),
        (zeta**3, zeta**2, (zeta**5).inverse()),
    ]
    for t0, t1, t2 in reps:
        assert (t0 * t1 * t2) == 1
        acted = point_from_components(
            ctx, f0.scale(t0), f1.scale(t1), f2.scale(t2)
        )
        assert acted == base


def test_point_from_components_validation():
    ctx = CTX7
    f0, f1, f2 = line_components(ctx, line_for_thm1(ctx))
    with pytest.raises(ValueError):
        point_from_components(ctx, f0, f1, Poly.one(ctx))  # not a cubic
    with pytest.raises(ValueError):
        # cubic product but not on the Fermat surface
        point_from_components(
            ctx, f0, f1, Poly.from_fp(ctx, [1, 1])
        )


# ----------------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------------


def test_point_json_shape():
    P = thm1_point()
    d = P.to_json_dict()
    assert d["infinity"] is False
    assert len(d["x"]["num"]) == 15 and len(d["x"]["den"]) == 9
    assert all(len(v) == 2 for v in d["x"]["num"])  # coordinate vectors mod p
    O = CurvePoint.infinity(CTX7)
    assert O.to_json_dict() == {"infinity": True}


def test_point_pretty():
    P = thm1_point()
    s = P.pretty()
    assert "t^14" in s and "t^21" in s
    assert CurvePoint.infinity(CTX7).pretty() == "O"
