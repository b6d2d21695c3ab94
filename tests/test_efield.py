"""Function-field arithmetic, group law, and trace-construction tests,
including the exact match against the q = 7 example point."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlines import efield
from fermatlines.efield import (
    CubicExt,
    CurvePoint,
    ExtElt,
    FunctionField,
    Poly,
    QuadExt,
    RatFunc,
    _descend,
    _poly_sqrt_monic,
    _ratfunc_sqrt,
    conjugate_points,
    construct_point,
    curve_add,
    curve_neg,
    line_components,
    mu_d_translate,
    point_from_components,
    splitting_roots,
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
# square roots
# ----------------------------------------------------------------------------


def test_poly_sqrt():
    w = Poly.from_fp(CTX7, [6, 0, 2, 1])
    sq = (w.monic()) * (w.monic())
    r = _poly_sqrt_monic(sq)
    assert r == w.monic()
    assert _poly_sqrt_monic(Poly.from_fp(CTX7, [1, 1])) is None  # odd degree
    assert _poly_sqrt_monic(Poly.from_fp(CTX7, [1, 1, 1])) is None  # not square


def test_ratfunc_sqrt():
    f = rf([2, 1], [0, 0, 1])
    r = _ratfunc_sqrt(f * f)
    assert r is not None and r * r == f * f
    assert _ratfunc_sqrt(rf([0, 1])) is None  # t is not a square
    # 6*(t+6)^2 is a square in F_49(t) because 6 is a square there
    g = rf([6]) * rf([6, 1]) * rf([6, 1])
    assert _ratfunc_sqrt(g) is not None


# ----------------------------------------------------------------------------
# splitting and conjugate points
# ----------------------------------------------------------------------------


def test_thm1_cubic_modulus():
    data = splitting_roots(CTX7, line_for_thm1(CTX7))
    c0, c1, c2, lead = data.m0
    w = CTX7.from_coeffs([0, 1])
    assert lead == RatFunc.one(CTX7)
    assert c2 == RatFunc.const(CTX7, 2 * w)
    assert c1 == RatFunc.one(CTX7)
    assert c0 == RatFunc(Poly.from_elems(CTX7, [CTX7.zero, w]), Poly.one(CTX7))


@pytest.mark.parametrize(
    "p,code,level_type",
    [(7, 3, CubicExt), (7, 5, CubicExt), (5, 2, QuadExt), (13, 2, QuadExt)],
)
def test_splitting_dichotomy(p, code, level_type):
    ctx = make_field(p)
    L = lines_for_c(ctx, ctx.elem(code))[0]
    data = splitting_roots(ctx, L)
    assert isinstance(data.level, level_type)
    # cyclic case exactly when c is a primitive 6th root of unity
    assert (ctx.elem(code).multiplicative_order() == 6) == (
        level_type is CubicExt
    )


@pytest.mark.parametrize("p", [5, 7])
def test_vieta_and_roots_satisfy_m0(p):
    ctx = make_field(p)
    code = 3 if p == 7 else 2
    L = lines_for_c(ctx, ctx.elem(code))[0]
    data = splitting_roots(ctx, L)
    c0, c1, c2, _ = data.m0
    e = data.level.embed
    r1, r2, r3 = data.roots
    assert r1 + r2 + r3 == e(-c2)
    assert r1 * r2 + r1 * r3 + r2 * r3 == e(c1)
    assert r1 * r2 * r3 == e(-c0)
    for r in data.roots:
        assert (r * r * r + e(c2) * r * r + e(c1) * r + e(c0)).is_zero


@pytest.mark.parametrize("p", [5, 7])
def test_conjugate_points_on_curve(p):
    ctx = make_field(p)
    code = 3 if p == 7 else 2
    L = lines_for_c(ctx, ctx.elem(code))[0]
    pts = conjugate_points(ctx, L)
    assert len(pts) == 3
    for pt in pts:
        assert pt.on_curve()


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
    return CurvePoint.rational(CTX7, x, y)


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
    ctx = CTX5
    L = lines_for_c(ctx, ctx.elem(2))[0]
    P = construct_point(ctx, L)
    assert not P.is_infinity
    assert P.on_curve()


# ----------------------------------------------------------------------------
# the Riemann-Roch solve against the splitting-tower oracle
# ----------------------------------------------------------------------------


def tower_point(ctx, L):
    """The trace by the splitting tower: add the three conjugates at the
    splitting level, then descend to K."""
    P1, P2, P3 = conjugate_points(ctx, L)
    return _descend(ctx, curve_add(ctx, curve_add(ctx, P1, P2), P3))


@pytest.mark.parametrize(
    "p,n_lines",
    [
        (5, 4),
        (7, 8),
        pytest.param(11, 12, marks=pytest.mark.extended),
        pytest.param(13, 12, marks=pytest.mark.extended),
    ],
)
def test_construct_point_matches_tower(p, n_lines):
    ctx = make_field(p)
    pairs = find_ab_pairs(ctx)
    assert len(pairs) == n_lines
    for a, b in pairs:
        L = Line(ctx, a, b)
        assert construct_point(ctx, L) == tower_point(ctx, L), (a, b)


def test_construct_point_never_enters_the_tower(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the splitting tower was entered")

    for name in ("_split_cubic", "QuadExt", "_descend"):
        monkeypatch.setattr(efield, name, refuse)
    assert construct_point(CTX7, line_for_thm1(CTX7)) == printed_point()


@pytest.mark.parametrize("p", [5, 7, pytest.param(11, marks=pytest.mark.extended)])
def test_reduction_mod_m0_matches_cubic_ext(p):
    """The Poly-level reduction modulo m0 against CubicExt.reduce on RatFunc
    constants, the route the splitting tower still uses: the coordinate
    vectors of every line, and the square of xbar (coefficients of positive
    t-degree) against the product in L1."""
    ctx = make_field(p)
    for a, b in find_ab_pairs(ctx):
        f0, f1, f2 = line_components(ctx, Line(ctx, a, b))
        cubic = efield._build_cubic(ctx, f0, f1, f2)
        xvec, yvec = efield._coordinate_vectors(ctx, cubic, f0, f2)
        x_scalar = -((f0 * f2) ** ctx.d)
        for vec, scalar in ((xvec, x_scalar), (yvec, x_scalar * f0**ctx.d)):
            oracle = cubic.reduce(
                [RatFunc.const(ctx, ctx.elem(c)) for c in scalar.codes]
            )
            assert tuple(RatFunc.from_poly(v) for v in vec) == oracle, (a, b)
        prod = [Poly.zero(ctx)] * 5
        for i, u in enumerate(xvec):
            for j, v in enumerate(xvec):
                prod[i + j] = prod[i + j] + u * v
        xbar = ExtElt(cubic, [RatFunc.from_poly(v) for v in xvec])
        reduced = efield._reduce_mod_m0(prod, efield._m0_polys(cubic))
        assert tuple(RatFunc.from_poly(v) for v in reduced) == (xbar * xbar).vec


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
    z = RatFunc.zero(CTX7)
    monkeypatch.setattr(efield, "_build_cubic", lambda ctx, *f: CubicExt(ctx, z, z, z))
    pz, pone = Poly.zero(CTX7), Poly.one(CTX7)
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
    O = CurvePoint.infinity(P.level)
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
    bad = CurvePoint.rational(CTX7, P.x, P.y + RatFunc.one(CTX7))
    assert not bad.on_curve()
    with pytest.raises(ValueError):
        curve_add(CTX7, P, bad)
    with pytest.raises(ValueError):
        curve_add(CTX7, bad, P)


def test_curve_add_level_mismatch():
    P = thm1_point()
    pts = conjugate_points(CTX7, line_for_thm1(CTX7))
    with pytest.raises(ValueError):
        curve_add(CTX7, P, pts[0])


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
    on = [P, CurvePoint.infinity(P.level)]
    if full:
        zeta = ctx.mu_d_gen()
        translates = [mu_d_translate(ctx, P, zeta**j) for j in range(1, ctx.d)]
        on += translates
        on += [curve_add(ctx, P, P), curve_add(ctx, P, translates[0])]
    one, t = RatFunc.one(ctx), RatFunc.t(ctx)
    td = RatFunc.from_poly(Poly.variable(ctx) ** ctx.d)
    off = [
        CurvePoint.rational(ctx, P.x, P.y + one),
        CurvePoint.rational(ctx, P.x, P.y + td),
        CurvePoint.rational(ctx, P.x + t, P.y),
        CurvePoint.rational(ctx, P.y, P.x),
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
    O = CurvePoint.infinity(FunctionField(CTX7))
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
    O = CurvePoint.infinity(FunctionField(CTX7))
    assert O.to_json_dict() == {"infinity": True}
    pts = conjugate_points(CTX7, line_for_thm1(CTX7))
    with pytest.raises(ValueError):
        pts[0].to_json_dict()


def test_point_pretty():
    P = thm1_point()
    s = P.pretty()
    assert "t^14" in s and "t^21" in s
    assert CurvePoint.infinity(FunctionField(CTX7)).pretty() == "O"
