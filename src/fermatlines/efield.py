"""Arithmetic over the rational function field F_{q^2}(t) and the elliptic
curve  E : y^2 + x*y - t^d*y = x^3,  together with the trace construction
that turns a surface line into a rational point of E.

Layers
------
``Poly``, ``RatFunc``  F_{q^2}[t] on the Kronecker kernel, and the canonical
                form of a rational function over it (the ``poly`` module).
``CurvePoint``  a point of E with coordinates in K = F_{q^2}(t), and the
                group law ``curve_add``, ``curve_neg``.

The construction: a line with components (f0, f1, f2) (fourth coordinate
normalized to 1) pulls back the fibration parameter to t = f0*f1*f2, so the
fibre coordinate s satisfies the cubic  m(s) = t - (f0*f1*f2)(s).  Because m
is monic *linear* in t, it is irreducible over F_{q^2}(t) for every valid
line: a root s0 in F_{q^2}(t) would force t = (f0*f1*f2)(s0), whose t-degree
is 3*deg_t(s0) or 0 - never 1.  The point with x = -f0(s)^d * f2(s)^d,
y = -f0(s)^{2d} * f2(s)^d lives over the cubic level L1 = K[s]/(m0); the
sum of its three Galois conjugates is Galois-stable, hence a point of E
over K.

That sum is computed by Riemann-Roch on L(4O) = <1, x, y, x^2> (Silverman,
The Arithmetic of Elliptic Curves, Ch. III), with one linear solve over K:
g = x^2 + b*x + c*y + a vanishes at the three conjugates exactly when its
value at the point is 0 in L1, and its fourth zero P4 gives the sum -P4.
Elements of L1 appear only as degree-<3 vectors in s reduced modulo m0;
no extension of K is built, and every CurvePoint has coordinates in K.
One product in L1 (``_l1_mul``), a single kernel product of the two
vectors packed in t, serves every coordinate: f0^d and f2^d by binary
powering, then x, y and x^2 by one product each.

The solve is fraction-free.  m0 is monic with coefficients in F_{q^2}[t], so
the coordinates reduced modulo m0 are Polys; Cramer's rule keeps the
numerators over one determinant, and each coordinate of the sum is
normalised to a canonical RatFunc once, at the end.  The on-curve check
clears denominators and compares Polys, with no gcd, and the mu_d
translation t -> zeta*t only makes the denominator monic again.

The group law is fraction-free in the same way: chord and tangent run on
the numerators and denominators of the inputs, and each coordinate of the
sum or the negative takes one gcd, in its RatFunc.  Every point that
``point_from_components``, ``curve_add`` and ``mu_d_translate`` return is
checked on the curve.
"""

from __future__ import annotations

import numpy as np

from .fermat import Line
from .gf import ContradictionError, FieldCtx, FqElem, in_mu_d
from .poly import Poly, RatFunc, _kron, _mul_matrix, _strip

__all__ = [
    "CurvePoint",
    "construct_point",
    "curve_add",
    "curve_neg",
    "line_components",
    "mu_d_translate",
    "point_from_components",
]


# ---------------------------------------------------------------------------
# curve points and the group law
# ---------------------------------------------------------------------------


def _t_pow_d(ctx: FieldCtx) -> Poly:
    return Poly(ctx, (0,) * ctx.d + (1,))


class CurvePoint:
    """A point of E : y^2 + x*y - t^d*y = x^3 over K = F_{q^2}(t), either
    INFINITY or (x, y) with RatFunc coordinates over ``ctx``."""

    __slots__ = ("ctx", "x", "y")

    def __init__(self, ctx: FieldCtx, x, y):
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        if x is not None and not all(
            isinstance(c, RatFunc) and c.ctx is ctx for c in (x, y)
        ):
            raise ValueError("coordinates must be RatFuncs over the given field")
        self.ctx = ctx
        self.x = x
        self.y = y

    @classmethod
    def infinity(cls, ctx: FieldCtx) -> "CurvePoint":
        return cls(ctx, None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def on_curve(self) -> bool:
        """Whether the point satisfies the curve equation, checked on x =
        xn/xd, y = yn/yd with denominators cleared, on Poly:
            yn*xd^2*(yn*xd + xn*yd - t^d*xd*yd) = xn^3*yd^2."""
        if self.is_infinity:
            return True
        xn, xd, yn, yd = self.x.num, self.x.den, self.y.num, self.y.den
        lhs = yn * (xd * xd) * (yn * xd + xn * yd - _t_pow_d(self.ctx) * (xd * yd))
        return lhs == xn * xn * xn * (yd * yd)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        return self.ctx is other.ctx and (self.x, self.y) == (other.x, other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    def to_json_dict(self):
        if self.is_infinity:
            return {"infinity": True}
        return {
            "infinity": False,
            "x": self.x.to_json_dict(),
            "y": self.y.to_json_dict(),
        }

    def pretty(self) -> str:
        if self.is_infinity:
            return "O"
        return f"(x = {self.x.pretty()}, y = {self.y.pretty()})"

    def __repr__(self):
        return f"CurvePoint({self.pretty()})"


def _checked(P: CurvePoint, failure: str) -> CurvePoint:
    """P, once it is seen to satisfy the curve equation; ``failure`` is the
    message of the ContradictionError otherwise."""
    if not P.on_curve():
        raise ContradictionError(failure)
    return P


def curve_neg(ctx: FieldCtx, P: CurvePoint) -> CurvePoint:
    """-(x, y) = (x, -y - x + t^d), on x = X/U and y = Y/V:
    -y - x + t^d = (t^d*U*V - Y*U - X*V)/(U*V)."""
    if P.ctx is not ctx:
        raise ValueError("point over a different field")
    if P.is_infinity:
        return P
    X, U, Y, V = P.x.num, P.x.den, P.y.num, P.y.den
    return CurvePoint(ctx, P.x, RatFunc(_t_pow_d(ctx) * U * V - Y * U - X * V, U * V))


def curve_add(ctx: FieldCtx, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition on y^2 + xy - t^d*y = x^3 over K (Silverman,
    The Arithmetic of Elliptic Curves, III.2.3); both inputs are verified to
    lie on the curve, and so is the sum.

    Fraction-free on x_i = X_i/U_i and y_i = Y_i/V_i, with T = t^d: the slope
    is Ln/Ld, for the chord
        Ln = (Y2*V1 - Y1*V2)*U1*U2,  Ld = (X2*U1 - X1*U2)*V1*V2,
    and for the tangent, where X2/U2 = X1/U1 is the same canonical pair,
        Ln = 3*X1^2*V1 - Y1*U1^2,  Ld = U1*(2*Y1*U1 + X1*V1 - T*U1*V1).
    Then x3 = lam^2 + lam - x1 - x2 and y3 = lam*(x1 - x3) - x3 - y1 + T over
    common denominators, each brought to canonical form by one RatFunc; y3
    is taken on the canonical x3 = X3/U3."""
    if P.ctx is not ctx or Q.ctx is not ctx:
        raise ValueError("points over a different field")
    if not P.on_curve() or not Q.on_curve():
        raise ValueError("input point is not on the curve")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    T = _t_pow_d(ctx)
    X1, U1, Y1, V1 = P.x.num, P.x.den, P.y.num, P.y.den
    X2, U2, Y2, V2 = Q.x.num, Q.x.den, Q.y.num, Q.y.den
    if P.x == Q.x:
        if Q == curve_neg(ctx, P):
            return CurvePoint.infinity(ctx)
        if Q != P:
            raise ContradictionError(
                f"q = {ctx.q}: two curve points share x without being equal"
                " or opposite"
            )
        Ln = (X1 * X1 * V1).scale(ctx.from_int(3)) - Y1 * U1 * U1
        Ld = U1 * ((Y1 * U1).scale(ctx.from_int(2)) + X1 * V1 - T * U1 * V1)
    else:
        Ln = (Y2 * V1 - Y1 * V2) * U1 * U2
        Ld = (X2 * U1 - X1 * U2) * V1 * V2
    Ld2 = Ld * Ld
    x3 = RatFunc((Ln + Ld) * Ln * U1 * U2 - (X1 * U2 + X2 * U1) * Ld2, Ld2 * U1 * U2)
    X3, U3 = x3.num, x3.den
    y3 = RatFunc(
        Ln * (X1 * U3 - X3 * U1) * V1 - (X3 * V1 + Y1 * U3 - T * U3 * V1) * Ld * U1,
        Ld * U1 * U3 * V1,
    )
    return _checked(
        CurvePoint(ctx, x3, y3), f"q = {ctx.q}: the sum violates the curve equation"
    )


# ---------------------------------------------------------------------------
# the trace construction
# ---------------------------------------------------------------------------


def line_components(ctx: FieldCtx, L: Line):
    """Components (f0, f1, f2) of the line in the chart x3 = 1.

    With alpha = -b/a and beta = 1/a the parametrization
    (s, alpha*s + beta, -(alpha + beta*s), a*(alpha*s+beta) + b*s) has fourth
    coordinate identically 1, and satisfies the line's defining equations.
    """
    if L.ctx is not ctx:
        raise ValueError("line over a different field")
    alpha, beta = L.alpha, L.beta
    f0 = Poly.from_elems(ctx, [ctx.zero, ctx.one])
    f1 = Poly.from_elems(ctx, [beta, alpha])
    f2 = Poly.from_elems(ctx, [-alpha, -beta])
    return f0, f1, f2


def _build_cubic(ctx: FieldCtx, f0: Poly, f1: Poly, f2: Poly):
    """The coefficients (c0, c1, c2) in F_{q^2}[t] of the monic cubic
    m0 = s^3 + c2*s^2 + c1*s + c0 whose roots are the fibre coordinates."""
    prod = f0 * f1 * f2
    if prod.degree != 3:
        raise ValueError("components do not define a cubic fibration")
    # Fermat-surface membership: f0^d + f1^d + f2^d + 1 = 0 identically.
    total = f0**ctx.d + f1**ctx.d + f2**ctx.d + Poly.one(ctx)
    if not total.is_zero:
        raise ValueError("components do not parametrize a line on the surface")
    # m = t - prod(s); monic form divides by -p3:
    #   m0 = s^3 + (p2/p3) s^2 + (p1/p3) s + (p0 - t)/p3
    inv_p3 = ctx.elem(prod.lead_code).inverse()
    h0, h1, h2, _ = prod.scale(inv_p3).codes
    return Poly(ctx, [h0, (-inv_p3).code]), Poly(ctx, [h1]), Poly(ctx, [h2])


def _l1_mul(u, v, m0):
    """The product in L1 of degree-<3 vectors in s, reduced modulo m0.

    Each vector is packed at a stride D in t, D past the t-degree of every
    coordinate product, so one kernel product holds the five coefficients in
    s of the product as blocks of D rows.  The s^4 block and then the s^3
    block fold through s^3 = -(c2*s^2 + c1*s + c0), where c1 and c2 are
    constants and c0 = e0 + e1*t is linear in t (_build_cubic): each fold is
    one product with the matrices of multiplication by c2, c1, e0 and e1,
    the e1 part shifted by t, one row down."""
    ctx = u[0].ctx
    lu, lv = (max(len(c.rows) for c in vec) for vec in (u, v))
    if not lu or not lv:
        return (Poly.zero(ctx),) * 3
    stride, deg, p = lu + lv - 1, ctx.deg, ctx.p

    def packed(vec, n):
        rows = np.zeros((2 * stride + n, deg), np.int64)
        for i, c in enumerate(vec):
            rows[i * stride : i * stride + len(c.rows)] = c.rows
        return rows

    blocks = np.zeros((5, stride + 1, deg), np.int64)
    product = _kron(ctx, packed(u, lu), packed(v, lv))
    blocks[:, :stride] = product.reshape(5, stride, deg)
    c0, c1, c2 = (c.codes + (0, 0) for c in m0)
    fold = np.hstack([_mul_matrix(ctx, c) for c in (c2[0], c1[0], c0[0], c0[1])])
    for k in (4, 3):
        terms = (blocks[k, :stride] % p @ fold).reshape(stride, 4, deg)
        blocks[k - 1, :stride] -= terms[:, 0]
        blocks[k - 2, :stride] -= terms[:, 1]
        blocks[k - 3, :stride] -= terms[:, 2]
        blocks[k - 3, 1:] -= terms[:, 3]
    return tuple(Poly._of(ctx, _strip(b)) for b in blocks[:3] % p)


def _coordinate_vectors(ctx: FieldCtx, m0, f0: Poly, f2: Poly):
    """The curve coordinates x = -f0^d f2^d, y = -f0^{2d} f2^d along the
    line, as degree-<3 vectors in s over F_{q^2}[t]: F0 = f0^d and F2 = f2^d
    by left-to-right binary powering in L1, then x = -F0*F2 and y = x*F0.

    f0 and f2 need no reduction, as both are linear in s: _build_cubic has
    checked deg f0*f1*f2 = 3 and f0^d + f1^d + f2^d + 1 = 0, and degrees
    (0, 1, 2) or (0, 0, 3) would leave the top term of one d-th power alone."""
    b0, b2 = (tuple(Poly(ctx, (c,)) for c in f.codes + (0,)) for f in (f0, f2))
    F0, F2 = b0, b2
    for bit in bin(ctx.d)[3:]:
        F0, F2 = _l1_mul(F0, F0, m0), _l1_mul(F2, F2, m0)
        if bit == "1":
            F0, F2 = _l1_mul(F0, b0, m0), _l1_mul(F2, b2, m0)
    x = tuple(-c for c in _l1_mul(F0, F2, m0))
    return x, _l1_mul(x, F0, m0)


def point_from_components(ctx: FieldCtx, f0: Poly, f1: Poly, f2: Poly) -> CurvePoint:
    """Trace construction from raw line components (chart x3 = 1): the sum
    P1 + P2 + P3 of the three Galois conjugates of the point over L1, as a
    rational point of E.

    With xbar, ybar the coordinates reduced modulo m0, the s and s^2
    coordinates of  xbar^2 + b*xbar + c*ybar + a = 0  in L1 are a 2x2 linear
    system in b, c over K, and the constant coordinate then gives a.  Then
    div(g) = P1 + P2 + P3 + P4 - 4O for g = x^2 + b*x + c*y + a, so the sum
    is -P4.  Eliminating y = -(x^2 + b*x + a)/c from the curve equation
    leaves a monic quartic in x with x^3-coefficient 2b - c - c^2, whence
    x4 = c^2 + c - 2b - Tr(xbar).

    Everything is fraction-free over F_{q^2}[t]: Cramer's rule gives
    b, c, a = B/det, C/det, A/det, so x4 = X/det^2 and y4 = Y/(det^3*C) with
    X = C^2 + (C - 2B - Tr*det)*det and Y = -(A*det^3 + B*det*X + X^2).  The
    negation -P4 = (x4, -y4 - x4 + t^d) is also taken on numerators, and
    each coordinate is brought to canonical form by one RatFunc at the end.

    The pipeline is equivariant under the torus scaling (f0, f1, f2) ->
    (t0*f0, t1*f1, t2*f2) with t0*t1*t2 = 1 and each t_i^d = 1: the product
    f0*f1*f2 and the d-th powers in the coordinates are literally unchanged.
    """
    m0 = _build_cubic(ctx, f0, f1, f2)
    xvec, yvec = _coordinate_vectors(ctx, m0, f0, f2)
    where = (
        f"q = {ctx.q}, components"
        f" ({f0.pretty('s')}, {f1.pretty('s')}, {f2.pretty('s')})"
    )
    x0, x1, x2 = xvec
    y0, y1, y2 = yvec
    if x1.is_zero and x2.is_zero:
        raise ContradictionError(
            f"{where}: x = {x0.pretty()} lies in K, expected a generator of"
            " the cubic level"
        )
    det = x1 * y2 - x2 * y1
    if det.is_zero:
        # 1, xbar, ybar are K-dependent: the conjugates are collinear.
        return CurvePoint.infinity(ctx)
    two = ctx.from_int(2)
    xsq = _l1_mul(xvec, xvec, m0)
    B = xsq[2] * y1 - xsq[1] * y2
    C = xsq[1] * x2 - xsq[2] * x1
    if C.is_zero:
        raise ContradictionError(
            f"{where}: y-coefficient c = 0, so x satisfies a quadratic over K,"
            " expected c != 0"
        )
    A = -(xsq[0] * det + B * x0 + C * y0)
    _, m1, m2 = m0
    trace_x = x0.scale(ctx.from_int(3)) - m2 * x1 + (m2 * m2 - m1.scale(two)) * x2
    X = C * C + (C - B.scale(two) - trace_x * det) * det
    det2 = det * det
    det3 = det2 * det
    # -y4 - x4 + t^d over the common denominator det^3*C
    y_num = det3 * (A + _t_pow_d(ctx) * C) + X * (X + (B - C) * det)
    return _checked(
        CurvePoint(ctx, RatFunc(X, det2), RatFunc(y_num, det3 * C)),
        f"{where}: trace point violates the curve equation",
    )


def construct_point(ctx: FieldCtx, L: Line) -> CurvePoint:
    """The rational point of E attached to the line L by the trace of its
    three Galois-conjugate points."""
    f0, f1, f2 = line_components(ctx, L)
    try:
        return point_from_components(ctx, f0, f1, f2)
    except ContradictionError as err:
        raise ContradictionError(f"line (a, b) = ({L.a}, {L.b}): {err}") from err


def mu_d_translate(ctx: FieldCtx, P: CurvePoint, zeta: FqElem) -> CurvePoint:
    """The automorphism t -> zeta*t applied to a rational point; the curve
    equation only sees t^d, so mu_d preserves E."""
    if not isinstance(zeta, FqElem) or zeta.ctx is not ctx:
        raise ValueError("zeta must belong to the same field")
    if zeta.is_zero or not in_mu_d(ctx, zeta):
        raise ValueError("zeta is not a d-th root of unity")
    if P.ctx is not ctx:
        raise ValueError("point over a different field")
    if P.is_infinity:
        return P
    return _checked(
        CurvePoint(ctx, P.x.subst_scale(zeta), P.y.subst_scale(zeta)),
        f"q = {ctx.q}, zeta with dlog {zeta.dlog}: translate left the curve",
    )
