"""Function-field arithmetic, group law, and trace-construction tests,
including the exact match against the q = 7 example point and the
specialisation oracle: at every good fibre t0 whose cubic has three
distinct roots in F_{q^4} or F_{q^6}, P(t0) is the sum of the three fibre
points, added over that finite field.

The Kronecker kernel behind Poly multiplication, division and the s-reduction
is checked against the per-coefficient routes it replaced, which live here
as oracles: schoolbook multiplication, long division with a row operation
per quotient coefficient, and the Poly-of-Poly reduction modulo m0."""

import functools
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlines import efield, poly
from fermatlines.cli import main
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
from fermatlines.gf import ContradictionError, find_ab_pairs, make_field, prime_power

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


# ----------------------------------------------------------------------------
# the Kronecker kernel against the per-coefficient oracles
# ----------------------------------------------------------------------------


def scalar_add(x, y):
    """Sum coefficient by coefficient with the field's scalar add."""
    a, b = sorted((x.codes, y.codes), key=len, reverse=True)
    out = list(a)
    for i, c in enumerate(b):
        out[i] = x.ctx.add_codes(out[i], c)
    return Poly(x.ctx, out)


def scalar_neg(x):
    """Negation coefficient by coefficient with the field's scalar neg."""
    return Poly(x.ctx, [x.ctx.neg_code(c) for c in x.codes])


def schoolbook_mul(x, y):
    """Product coefficient by coefficient with the field's scalar add and mul."""
    ctx, a, b = x.ctx, x.codes, y.codes
    if not a or not b:
        return Poly.zero(ctx)
    add, mul = ctx.add_codes, ctx.mul_codes
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return Poly(ctx, out)


def schoolbook_divmod(x, y):
    """Long division: one row operation on the remainder per quotient
    coefficient, top down."""
    ctx = x.ctx
    add, mul, neg = ctx.add_codes, ctx.mul_codes, ctx.neg_code
    inv_lead = ctx.elem(y.lead_code).inverse().code
    rem = list(x.codes)
    db = y.degree
    if x.degree < db:
        return Poly.zero(ctx), x
    quot = [0] * (x.degree - db + 1)
    for i in range(x.degree - db, -1, -1):
        c = mul(rem[i + db], inv_lead)
        if c:
            quot[i] = c
            nc = neg(c)
            for j, oc in enumerate(y.codes):
                rem[i + j] = add(rem[i + j], mul(nc, oc))
    return Poly(ctx, quot), Poly(ctx, rem[:db])


def schoolbook_gcd(x, y):
    """Monic gcd by Euclid's algorithm on schoolbook_divmod."""
    while not y.is_zero:
        x, y = y, schoolbook_divmod(x, y)[1]
    return x.monic()


def schoolbook_pow(x, e):
    out = Poly.one(x.ctx)
    for _ in range(e):
        out = schoolbook_mul(out, x)
    return out


def operands(ctx, max_size=60):
    """Polys of length 0 to max_size: random codes, one random code, or every
    coefficient the code q^2 - 1 (every digit p - 1), which reaches the
    Kronecker slot bound."""
    top = ctx.q * ctx.q - 1
    return st.one_of(
        st.lists(st.integers(0, top), max_size=max_size),
        st.lists(st.integers(0, top), min_size=1, max_size=1),
        st.integers(0, max_size).map(lambda n: [top] * n),
    ).map(lambda codes: Poly(ctx, codes))


KERNEL_FIELDS = pytest.mark.parametrize(
    "p,k", [(5, 1), (7, 1), (5, 2), (7, 3)], ids=["5", "7", "25", "343"]
)


@KERNEL_FIELDS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mul_add_divmod_match_schoolbook(p, k, data):
    """F_{7^3} has k = 3: 4k - 1 = 11 slots per coefficient, 6 digits each."""
    ctx = make_field(p, k)
    a, b = data.draw(operands(ctx)), data.draw(operands(ctx))
    assert a * b == schoolbook_mul(a, b)
    assert a + b == scalar_add(a, b)
    assert a - b == scalar_add(a, scalar_neg(b))
    if not b.is_zero:
        quot, rem = a.divmod(b)
        assert (quot, rem) == schoolbook_divmod(a, b)
        assert rem.degree < b.degree


@KERNEL_FIELDS
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gcd_matches_schoolbook(p, k, data):
    ctx = make_field(p, k)
    a, b = data.draw(operands(ctx, 16)), data.draw(operands(ctx, 16))
    common = data.draw(operands(ctx, 8))
    x, y = a * common, b * common
    assert x.gcd(y) == schoolbook_gcd(x, y)


def dividend_and_divisor(ctx, rng, dq, db, low_zeros):
    """Random operands of degrees dq + db and db, whose low_zeros lowest
    coefficients are 0 where there is room: reversed, those become trailing
    zeros of rev(a) and rev(b).  Every other coefficient is nonzero."""
    n = ctx.q * ctx.q

    def operand(degree):
        zeros = min(low_zeros, degree)
        return Poly(ctx, [0] * zeros + [rng.randrange(1, n) for _ in range(degree + 1 - zeros)])

    return operand(dq + db), operand(db)


@KERNEL_FIELDS
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_newton_divmod_matches_schoolbook(p, k, data):
    """Quotients with dq and db both at least 64 take the Newton route."""
    ctx = make_field(p, k)
    dq, db = data.draw(st.integers(64, 120)), data.draw(st.integers(64, 120))
    low_zeros = data.draw(st.sampled_from([0, 1, 5, 64]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a, b = dividend_and_divisor(ctx, rng, dq, db, low_zeros)
    assert a.divmod(b) == schoolbook_divmod(a, b)


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2)], ids=["7", "25"])
@pytest.mark.parametrize("db", [0, 1, 9, 70])
@pytest.mark.parametrize(
    "dq", [poly._NEWTON_DQ - 1, poly._NEWTON_DQ, 100], ids=["below", "at", "100"]
)
@pytest.mark.parametrize("low_zeros", [0, 3])
def test_divmod_at_the_newton_crossover(p, k, db, dq, low_zeros):
    """The last quotient length taken top down, the first taken by Newton
    and one long one, each with db = 0 among the divisor degrees."""
    ctx = make_field(p, k)
    rng = random.Random(1000 * dq + 10 * db + low_zeros)
    a, b = dividend_and_divisor(ctx, rng, dq, db, low_zeros)
    assert a.divmod(b) == schoolbook_divmod(a, b)
    assert (a * b).divmod(b) == (a, Poly.zero(ctx))


@pytest.mark.parametrize(
    "dq", [0, poly._NEWTON_DQ - 1, poly._NEWTON_DQ, 40], ids=["0", "below", "at", "40"]
)
def test_division_kernel_products_on_each_side_of_the_crossover(monkeypatch, dq):
    """Below the Newton crossover neither // nor divmod makes a kernel
    product: the top-down loop gives the quotient and the remainder on the
    digit rows.  At or above it divmod makes exactly one kernel product more
    than //, the remainder's.  RatFunc divides by the gcd with //: its only
    divmod calls are the gcd's."""
    ctx = make_field(7)
    rng = random.Random(dq)
    a, b = dividend_and_divisor(ctx, rng, dq, 9, 0)
    products = []
    kron = poly._kron
    monkeypatch.setattr(poly, "_kron", lambda *args: products.append(1) or kron(*args))
    quot = a // b
    quotient_products = len(products)
    products.clear()
    assert a.divmod(b) == schoolbook_divmod(a, b)
    assert quot == schoolbook_divmod(a, b)[0]
    if dq < poly._NEWTON_DQ:
        assert quotient_products == len(products) == 0
    else:
        assert quotient_products > 0 and len(products) == quotient_products + 1
    assert Poly.one(ctx) // b == Poly.zero(ctx) and a // Poly.one(ctx) == a
    with pytest.raises(ZeroDivisionError):
        a // Poly.zero(ctx)

    expected = RatFunc(a, b)
    num, den = a * Poly(ctx, [3, 1]), b * Poly(ctx, [3, 1])
    divmods = []
    divmod_ = Poly.divmod
    monkeypatch.setattr(Poly, "divmod", lambda x, y: divmods.append(1) or divmod_(x, y))
    num.gcd(den)
    gcd_divmods, divmods[:] = len(divmods), []
    assert RatFunc(num, den) == expected
    assert len(divmods) == gcd_divmods


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2)], ids=["7", "25"])
@pytest.mark.parametrize("db", [0, 1, 6])
@pytest.mark.parametrize(
    "quot", [[1, 0, 0, 0, 0, 1], [0, 0, 2, 0, 0, 0, 0, 0, 0, 5], [4]], ids=["t5+1", "gaps", "const"]
)
def test_short_divmod_skips_zero_quotient_coefficients(p, k, db, quot):
    """Quotients whose middle coefficients are zero, so that the top-down
    loop meets steps with a zero coefficient, over a prime field and over
    F_{5^2}, with a constant divisor among the divisors."""
    ctx = make_field(p, k)
    rng = random.Random(100 * p + db)
    n = ctx.q * ctx.q
    b = Poly(ctx, [rng.randrange(n) for _ in range(db)] + [rng.randrange(1, n)])
    Q = Poly(ctx, [c if c in (0, 1) else rng.randrange(1, n) for c in quot])
    R = Poly(ctx, [rng.randrange(n) for _ in range(db)])
    a = Q * b + R
    assert len(quot) - 1 < poly._NEWTON_DQ
    assert schoolbook_divmod(a, b) == a.divmod(b) == (Q, R)
    assert a // b == Q and a % b == R


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2)], ids=["7", "25"])
def test_equal_polys_compare_and_hash_equal(p, k):
    """The same polynomial from codes, from a product, from a double
    negation, from a constant multiple, from a top-down quotient and from a
    Newton quotient (a view with a negative stride) compares equal, hashes
    equal and is one dict key: every route yields int64 rows."""
    ctx = make_field(p, k)
    rng = random.Random(p * k)
    n = ctx.q * ctx.q
    f = Poly(ctx, [rng.randrange(1, n) for _ in range(poly._NEWTON_DQ // 2)])
    g = Poly(ctx, [rng.randrange(1, n) for _ in range(4)])
    fg, long = f * g, f * f * g
    assert fg.degree < poly._NEWTON_DQ <= long.degree
    two = ctx.elem(2)
    for x, built in [
        (fg, [Poly(ctx, fg.codes + (0, 0)), -(-fg), fg.scale(two).scale(1 / two), (fg * f) // f]),
        (long, [Poly(ctx, long.codes), (long * g) // g, long + Poly.zero(ctx)]),
    ]:
        assert all(y.rows.dtype == np.int64 for y in built + [x])
        assert all(y == x and hash(y) == hash(x) for y in built)
        assert len({y: None for y in built + [x]}) == 1
    zeros = [Poly.zero(ctx), Poly(ctx, [0, 0]), fg - fg, fg % g, long % g]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)
    assert fg != fg + Poly.one(ctx)


@pytest.mark.parametrize(
    "p,m,width",
    [(5, 60, "<u2"), (7, 60, "<u2"), (31, 36, "<u2"), (31, 37, "<u4"), (31, 60, "<u4")],
)
def test_all_max_operands_at_the_slot_bound(p, m, width):
    """m * 2k * (p-1)^2 is 64800 < 2^16 at q = 31, m = 36 and 66600 at
    m = 37: the all-(p-1) operands fill the middle slot to that bound."""
    ctx = make_field(p)
    top = Poly(ctx, [ctx.q * ctx.q - 1] * m)
    assert poly._slot_dtype(ctx, m) == np.dtype(width)
    assert top * top == schoolbook_mul(top, top)
    other = Poly(ctx, [1 + i % (ctx.q * ctx.q - 1) for i in range(m)])
    assert (top * top).divmod(other) == schoolbook_divmod(top * top, other)
    assert (top * other).gcd(top) == schoolbook_gcd(top * other, top)


def test_all_max_product_in_64_bit_slots():
    """At q = 1999 the bound m * 2 * 1998^2 passes 2^32 at m = 538, so a
    length-600 product packs into 64-bit slots.  With every coefficient
    e = code q^2 - 1, coefficient i of the square is min(i + 1, 1199 - i)
    times e^2."""
    ctx = make_field(1999)
    e = ctx.elem(ctx.q * ctx.q - 1)
    assert poly._slot_dtype(ctx, 537) == np.dtype("<u4")
    assert poly._slot_dtype(ctx, 538) == np.dtype("<u8")
    top = Poly(ctx, [e.code] * 600)
    expected = [(ctx.from_int(min(i + 1, 1199 - i)) * e * e).code for i in range(1199)]
    assert (top * top).codes == tuple(expected)


def test_slot_bound_past_64_bits_raises():
    with pytest.raises(OverflowError):
        poly._slot_dtype(make_field(1999), 2**45)


@pytest.mark.extended
def test_mul_and_divmod_match_schoolbook_at_the_size_cap():
    ctx = make_field(1999)
    rng = random.Random(1999)
    a, b = (Poly(ctx, [rng.randrange(ctx.q * ctx.q) for _ in range(600)]) for _ in "ab")
    assert a * b == schoolbook_mul(a, b)
    assert (a * b + a).divmod(b) == schoolbook_divmod(a * b + a, b)


def poly_of_poly_reduce(ctx, m0, g):
    """The coordinates of the scalar g(s) modulo m0: g as a vector of
    constant Polys in t, reduced from the top degree in s down."""
    return reduce_vector(ctx, m0, [Poly(ctx, (c,)) for c in g.codes])


def reduce_vector(ctx, m0, vec):
    """The vector of Polys in t, low degree in s first, reduced modulo m0
    from the top degree in s down."""
    c0, c1, c2 = m0
    vec = list(vec)
    for i in range(len(vec) - 1, 2, -1):
        c = vec[i]
        if not c.is_zero:
            vec[i - 1] = scalar_add(vec[i - 1], scalar_neg(schoolbook_mul(c, c2)))
            vec[i - 2] = scalar_add(vec[i - 2], scalar_neg(schoolbook_mul(c, c1)))
            vec[i - 3] = scalar_add(vec[i - 3], scalar_neg(schoolbook_mul(c, c0)))
    vec = vec[:3]
    return tuple(vec) + (Poly.zero(ctx),) * (3 - len(vec))


@pytest.mark.parametrize(
    "q,every_line",
    [
        (5, True),
        (7, True),
        (25, True),
        (19, False),
        (31, False),
        (43, False),
        (139, False),
        pytest.param(307, False, marks=pytest.mark.extended),
    ],
)
def test_coordinate_vectors_match_poly_of_poly_reduction(q, every_line):
    """Powering in L1 against the Poly-of-Poly reduction of the expanded
    x and y, on every line of find_ab_pairs at q = 5, 7 and 25 and on the
    thm-1 line at q = 19, 31, 43, 139 and 307.  At q = 7 and 31, d = 8 and 32
    are powers of two, so only the other sizes run the multiply step of a 1
    bit.  At q = 25 each coefficient has 2k = 4 digits.

    Every cubic of a line has c1 = 1 and c0 = e1*t.  The reduction is also
    checked modulo the same cubic with c0, c1 or c2 set to 0 and with a
    constant term added to c0, which the fold has to shift apart from e1*t,
    on the first line at q = 5, 7 and 25."""
    ctx = make_field(*prime_power(q))
    if every_line:
        lines = [Line(ctx, a, b) for a, b in find_ab_pairs(ctx)]
    else:
        lines = [line_for_thm1(ctx)]
    zero, one = Poly.zero(ctx), Poly.one(ctx)
    for n, L in enumerate(lines):
        f0, f1, f2 = line_components(ctx, L)
        c0, c1, c2 = efield._build_cubic(ctx, f0, f1, f2)
        x = scalar_neg(schoolbook_pow(schoolbook_mul(f0, f2), ctx.d))
        y = schoolbook_mul(x, schoolbook_pow(f0, ctx.d))
        cubics = [(c0, c1, c2)]
        if every_line and n == 0:
            cubics += [(zero, c1, c2), (c0, zero, c2), (c0, c1, zero),
                       (scalar_add(c0, one), c1, c2)]
        for m0 in cubics:
            expected = (poly_of_poly_reduce(ctx, m0, x), poly_of_poly_reduce(ctx, m0, y))
            assert efield._coordinate_vectors(ctx, m0, f0, f2) == expected, (L.a, L.b, m0)


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2), (7, 3)], ids=["7", "25", "343"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_l1_mul_matches_poly_of_poly_reduction(p, k, data):
    """One packed product in L1 against the 3 x 3 schoolbook products
    reduced modulo m0, for vectors of Polys of unequal lengths, some of them
    zero, and cubics with c1 and c2 constant and c0 linear, any of them 0."""
    ctx = make_field(p, k)
    vector = st.tuples(*[operands(ctx, 12)] * 3)
    u, v = data.draw(vector), data.draw(vector)
    m0 = (data.draw(operands(ctx, 2)), data.draw(operands(ctx, 1)), data.draw(operands(ctx, 1)))
    product = [Poly.zero(ctx)] * 5
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            product[i + j] = scalar_add(product[i + j], schoolbook_mul(a, b))
    assert efield._l1_mul(u, v, m0) == reduce_vector(ctx, m0, product)


def test_kernel_results_are_python_ints(capsys):
    """np.int64 codes would reach to_coeff_vectors and then json.dumps,
    which rejects them."""
    a, b = Poly(CTX7, [3, 17, 0, 40, 5, 48]), Poly(CTX7, [2, 9, 11])
    f0, f1, f2 = line_components(CTX7, line_for_thm1(CTX7))
    xvec, yvec = efield._coordinate_vectors(
        CTX7, efield._build_cubic(CTX7, f0, f1, f2), f0, f2
    )
    for poly in (a * b, a + b, *a.divmod(b), (a * b).gcd(a), *xvec, *yvec):
        assert all(type(c) is int for c in poly.codes), poly
    # the q = 5 point through the CLI's JSON, rebuilt and compared
    argv = ["point", "--p", "5", "--a", "1,0", "--b", "4,3", "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)

    def rebuild(part):
        num, den = (
            Poly(CTX5, [CTX5.from_coeffs(v).code for v in part[key]])
            for key in ("num", "den")
        )
        return RatFunc(num, den)

    point = doc["point"]
    L = Line(CTX5, CTX5.from_coeffs(doc["a"]), CTX5.from_coeffs(doc["b"]))
    P = construct_point(CTX5, L)
    assert CurvePoint(CTX5, rebuild(point["x"]), rebuild(point["y"])) == P
    assert json.loads(json.dumps(P.to_json_dict())) == point


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


def rf_mul(f, g):
    return RatFunc(f.num * g.num, f.den * g.den)


def rf_add(f, g):
    return RatFunc(f.num * g.den + g.num * f.den, f.den * g.den)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys, small_polys)
def test_ratfunc_canonical(a, b, c, d):
    # (t^2 - 1)/(2t - 2) reduces to (t + 1)/2 = 4t + 4 over F_7
    f = rf([-1, 0, 1], [-2, 2])
    assert f == rf([4, 4])
    assert f.den == Poly.one(CTX7)
    with pytest.raises(ZeroDivisionError):
        rf([1], [0])
    if b.is_zero or d.is_zero:
        return
    # a product and a sum of fractions: the same value, with a monic
    # denominator prime to the numerator
    for num, den in ((a * c, b * d), (a * d + c * b, b * d)):
        h = RatFunc(num, den)
        assert h.num * den == num * h.den
        assert h.den.lead_code == 1
        assert h.num.gcd(h.den).degree <= 0


def test_ratfunc_subst_scale_is_hom():
    zeta = CTX7.mu_d_gen()
    f = rf([1, 2], [3, 0, 1])
    g = rf([0, 5], [1, 1])
    fz, gz = f.subst_scale(zeta), g.subst_scale(zeta)
    for op in (rf_mul, rf_add):
        assert op(f, g).subst_scale(zeta) == op(fz, gz)
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
    z, one, t = Poly.zero(CTX7), Poly.one(CTX7), Poly(CTX7, (0, 1))
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


def satisfies_equation(P):
    """y^2 + x*y - t^d*y = x^3 on canonical forms, with a gcd at every step
    (rf_add, rf_mul): the oracle for ``on_curve``."""
    x, y = P.x, P.y
    minus_td = RatFunc(-efield._t_pow_d(P.ctx), Poly.one(P.ctx))
    lhs = rf_add(rf_add(rf_mul(y, y), rf_mul(x, y)), rf_mul(minus_td, y))
    return lhs == rf_mul(rf_mul(x, x), x)


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
    bad = CurvePoint(CTX7, P.x, RatFunc(P.y.num + P.y.den, P.y.den))
    assert not bad.on_curve()
    with pytest.raises(ValueError):
        curve_add(CTX7, P, bad)
    with pytest.raises(ValueError):
        curve_add(CTX7, bad, P)


@functools.lru_cache(maxsize=None)
def thm1_sums(q):
    """For the thm-1 point P, its translate sP by ctx.mu_d_gen() and D = 2P:
    the summands and sums of D = P + P, P + sP, D + P, P + (-P) and
    sP + (-P), which take the tangent, three chords and an opposite pair,
    whose sum is O."""
    ctx = make_field(q)
    P = construct_point(ctx, line_for_thm1(ctx))
    sP = mu_d_translate(ctx, P, ctx.mu_d_gen())
    nP = curve_neg(ctx, P)
    D = curve_add(ctx, P, P)
    pairs = [(P, P), (P, sP), (D, P), (P, nP), (sP, nP)]
    return ctx, [(A, B, curve_add(ctx, A, B)) for A, B in pairs]


# sha256 of the five sums of thm1_sums as compact sorted JSON, recorded from
# the group law that chained gcd-normalised RatFunc operations.  The canonical
# form is unique, so the fraction-free group law has to reproduce them.
SUM_PINS = [
    (7, "b6c4eff2af0fa3d4423ba301cfda4873550d3eb10e5b011be5d2763cb8775467"),
    (19, "171bf3e3c04e47dd74ded59d97b426a25e28f6701a92d3a93f6998ef18fc66c4"),
    (31, "c800ed7cdb3f3dec756f01613624b2402c4594c3a7f2771912caf0a11b74b4b3"),
    (43, "a7c8bab6254cfd74694e4ce99d231a68dda680ea4ffc28d8858d07f368dc0fdf"),
    (139, "592e5fe9aeeefff8244d24a53e2aa97930219524370f384a8b685a9132c370e5"),
]


@pytest.mark.parametrize(
    "q,digest",
    [
        pytest.param(q, d, id=str(q), marks=[pytest.mark.extended] if q > 19 else [])
        for q, d in SUM_PINS
    ],
)
def test_curve_add_pins(q, digest):
    _, sums = thm1_sums(q)
    doc = json.dumps(
        [S.to_json_dict() for *_, S in sums], sort_keys=True, separators=(",", ":")
    )
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
    assert [S.is_infinity for *_, S in sums] == [False, False, False, True, False]


@pytest.mark.parametrize("q", [7, pytest.param(19, marks=pytest.mark.extended)])
def test_curve_add_matches_fibre_sums(q):
    """Specialisation t -> t0 at a good fibre is a group homomorphism, so
    (A + B)(t0) is the chord-tangent sum of A(t0) and B(t0) on E_t0 over
    F_{q^2} itself (_fibre_add, with the identity embedding): an independent
    route for each of the five sums of thm1_sums.  Good fibres: 40 at q = 7
    and 340 at q = 19."""
    ctx, sums = thm1_sums(q)
    embed = list(ctx.elements())
    fibres = 0
    for t0 in ctx.elements():
        T = t0**ctx.d
        if t0.is_zero or (27 * T + 1).is_zero:
            continue
        fibres += 1
        for A, B, S in sums:
            a, b = _specialise(A, t0, embed), _specialise(B, t0, embed)
            assert _specialise(S, t0, embed) == _fibre_add(T, a, b), t0
    assert fibres == {7: 40, 19: 340}[q]


def test_curve_add_shared_x_is_a_contradiction(monkeypatch):
    # With the negation taken to be the identity, P and its true negative
    # share x without being recognised as opposite.
    P = thm1_point()
    nP = curve_neg(CTX7, P)
    monkeypatch.setattr(efield, "curve_neg", lambda ctx, P: P)
    with pytest.raises(ContradictionError) as info:
        curve_add(CTX7, P, nP)
    msg = str(info.value)
    assert "q = 7" in msg and "share x" in msg


def test_curve_add_off_curve_result_is_a_contradiction(monkeypatch):
    # Every coordinate that curve_add builds comes out one more than it
    # should, which moves the sum off the curve, caught by the final check.
    class Shifted(RatFunc):
        def __init__(self, num, den):
            super().__init__(num + den, den)

    P = thm1_point()
    sP = mu_d_translate(CTX7, P, CTX7.mu_d_gen())
    monkeypatch.setattr(efield, "RatFunc", Shifted)
    with pytest.raises(ContradictionError) as info:
        curve_add(CTX7, P, sP)
    msg = str(info.value)
    assert "q = 7" in msg and "the sum violates the curve equation" in msg


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
    X, U, Y, V = P.x.num, P.x.den, P.y.num, P.y.den
    t, td = Poly(ctx, (0, 1)), efield._t_pow_d(ctx)
    off = [
        CurvePoint(ctx, P.x, RatFunc(Y + V, V)),
        CurvePoint(ctx, P.x, RatFunc(Y + td * V, V)),
        CurvePoint(ctx, RatFunc(X + t * U, U), P.y),
        CurvePoint(ctx, P.y, P.x),
    ]
    for Q, expected in [(Q, True) for Q in on] + [(Q, False) for Q in off]:
        assert Q.on_curve() is expected, Q
        if not Q.is_infinity:
            assert satisfies_equation(Q) is expected, Q


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
