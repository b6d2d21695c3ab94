"""Arithmetic over the rational function field F_{q^2}(t) and the elliptic
curve  E : y^2 + x*y - t^d*y = x^3,  together with the trace construction
that turns a surface line into a rational point of E.

Layers
------
``Poly``        dense polynomials over F_{q^2}, low degree first.  Sums work
                on base-p digit arrays; every product is one Kronecker
                big-int product (``_kron``), and division takes the quotient
                top down and the remainder from one kernel product.
``RatFunc``     canonical rational functions: gcd-reduced, monic denominator.
``CurvePoint``  a point of E with coordinates in K = F_{q^2}(t).

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
One product in L1 (``_l1_mul``) serves every coordinate: f0^d and f2^d by
binary powering, then x, y and x^2 by one product each.

The solve is fraction-free.  m0 is monic with coefficients in F_{q^2}[t], so
the coordinates reduced modulo m0 are Polys; Cramer's rule keeps the
numerators over one determinant, and each coordinate of the sum is
normalised to a canonical RatFunc once, at the end.  The on-curve check
clears denominators and compares Polys, with no gcd, and the mu_d
translation t -> zeta*t only makes the denominator monic again.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fermat import Line
from .gf import ContradictionError, FieldCtx, FqElem, in_mu_d

__all__ = [
    "CurvePoint",
    "Poly",
    "RatFunc",
    "construct_point",
    "curve_add",
    "curve_neg",
    "line_components",
    "mu_d_translate",
    "point_from_components",
]


# ---------------------------------------------------------------------------
# the Kronecker kernel: F_{q^2}[t] products on one big-int product
# ---------------------------------------------------------------------------


def _slot_dtype(ctx: FieldCtx, m: int) -> np.dtype:
    """The narrowest of the 16, 32 and 64-bit slots that holds a sum of
    m * 2k digit products, each at most (p - 1)^2."""
    bound = m * ctx.deg * (ctx.p - 1) ** 2
    for bits in (16, 32, 64):
        if bound >> bits == 0:
            return np.dtype(f"<u{bits // 8}")
    raise OverflowError(f"Kronecker slot bound {bound} exceeds 64 bits")


@lru_cache(maxsize=None)
def _fold(ctx: FieldCtx) -> np.ndarray:
    """The (4k - 1) x 2k matrix whose row j holds the digits of w^j; read-only,
    since every product shares it."""
    w = ctx.elem(ctx.p)  # the code with digits (0, 1, 0, ...)
    fold = ctx.digit_rows([(w**j).code for j in range(2 * ctx.deg - 1)])
    fold.flags.writeable = False
    return fold


def _kron(ctx: FieldCtx, a, b) -> np.ndarray:
    """Digits of the product of the code sequences a and b, one row per
    coefficient (Kronecker substitution; Harvey, J. Symb. Comp. 2009).

    Each coefficient is packed as its 2k digits into byte-aligned slots of
    one Python int, 4k - 1 slots per coefficient: room for the degree-(4k-2)
    product in w of two coefficients.  After one big-int product, slot j of
    coefficient i holds the integer coefficient of t^i w^j, and the fold
    matrix takes each w^j back to the basis 1, ..., w^{2k-1}.
    """
    stride, dtype = 2 * ctx.deg - 1, _slot_dtype(ctx, min(len(a), len(b)))
    slots = np.zeros((len(a) + len(b), stride), dtype)
    slots[:, : ctx.deg] = ctx.digit_rows([*a, *b])
    x = int.from_bytes(slots[: len(a)].tobytes(), "little")
    y = int.from_bytes(slots[len(a) :].tobytes(), "little")
    size = (len(a) + len(b) - 1) * stride
    packed = (x * y).to_bytes(size * dtype.itemsize, "little")
    # each slot widened to 8 bytes and reduced mod p as uint64 before the fold,
    # since a 64-bit slot may pass 2^63; no numpy cast runs (FieldCtx.digit_rows)
    wide = np.zeros(size, "<u8")
    wide.view(dtype)[:: 8 // dtype.itemsize] = np.frombuffer(packed, dtype)
    return (wide % ctx.p).view("<i8").reshape(-1, stride) @ _fold(ctx) % ctx.p


# ---------------------------------------------------------------------------
# dense polynomials over F_{q^2}
# ---------------------------------------------------------------------------


class Poly:
    """Dense polynomial over F_{q^2}; coefficient codes, low degree first.

    Invariant: no trailing zero coefficients; the zero polynomial is the
    empty coefficient vector.
    """

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: FieldCtx, codes):
        codes = list(codes)
        while codes and codes[-1] == 0:
            codes.pop()
        self.ctx = ctx
        self.codes = tuple(codes)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (1,))

    @classmethod
    def variable(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (0, 1))

    @classmethod
    def from_fp(cls, ctx: FieldCtx, ints) -> "Poly":
        """Coefficients given as integers, reduced into the prime field."""
        return cls(ctx, [ctx.from_int(int(a)).code for a in ints])

    @classmethod
    def from_elems(cls, ctx: FieldCtx, elems) -> "Poly":
        codes = []
        for e in elems:
            if not isinstance(e, FqElem) or e.ctx is not ctx:
                raise ValueError("coefficients must be FqElem of the same field")
            codes.append(e.code)
        return cls(ctx, codes)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.codes) - 1

    @property
    def is_zero(self) -> bool:
        return not self.codes

    @property
    def lead_code(self) -> int:
        return self.codes[-1] if self.codes else 0

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly) or other.ctx is not self.ctx:
            raise ValueError("polynomials over different fields")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return other if self.is_zero else self
        return Poly(self.ctx, self.ctx.sum_codes(self.codes, other.codes))

    def __neg__(self) -> "Poly":
        neg = self.ctx.neg_code
        return Poly(self.ctx, [neg(c) for c in self.codes])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.codes, other.codes
        if not a or not b:
            return Poly.zero(self.ctx)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            return Poly(self.ctx, a).scale(FqElem(self.ctx, b[0]))
        return Poly(self.ctx, self.ctx.row_codes(_kron(self.ctx, a, b)))

    def scale(self, e: FqElem) -> "Poly":
        mul = self.ctx.mul_codes
        return Poly(self.ctx, [mul(c, e.code) for c in self.codes])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        for bit in bin(e)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def divmod(self, other: "Poly"):
        """Quotient and remainder.  Quotient coefficient i, top down, is
        (a[i + db] - sum_j quot[i + db - j] * b[j]) / lead(b), a sum over
        the min(db, dq - i) coefficients of b below the lead that reach it;
        the remainder is the low db coefficients of a - quot*b, one kernel
        product of the low parts."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ctx, a, b = self.ctx, self.codes, other.codes
        db, dq = len(b) - 1, len(a) - len(b)
        if dq < 0:
            return Poly.zero(ctx), self
        add, mul, neg = ctx.add_codes, ctx.mul_codes, ctx.neg_code
        minus_inv_lead = neg(ctx.elem(b[-1]).inverse().code)
        nq = [0] * (dq + 1)  # the negated quotient: the remainder is a + nq*b
        for i in range(dq, -1, -1):
            c = a[i + db]
            for j in range(max(0, i + db - dq), db):
                c = add(c, mul(nq[i + db - j], b[j]))
            nq[i] = mul(c, minus_inv_lead)
        quot = Poly(ctx, [neg(c) for c in nq])
        if db == 0:
            return quot, Poly.zero(ctx)
        low = _kron(ctx, nq[:db], b[:db])[:db]
        return quot, Poly(ctx, ctx.row_codes(ctx.sum_rows(ctx.digit_rows(a[:db]), low)))

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.ctx.elem(self.lead_code).inverse())

    def gcd(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def eval(self, x: FqElem) -> FqElem:
        add, mul = self.ctx.add_codes, self.ctx.mul_codes
        acc = 0
        for c in reversed(self.codes):
            acc = add(mul(acc, x.code), c)
        return self.ctx.elem(acc)

    def subst_scale(self, zeta: FqElem) -> "Poly":
        """The substitution t -> zeta*t: coefficient i picks up zeta^i."""
        mul = self.ctx.mul_codes
        codes = [mul(c, (zeta**i).code) for i, c in enumerate(self.codes)]
        return Poly(self.ctx, codes)

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.ctx.p == other.ctx.p
            and self.ctx.k == other.ctx.k
            and self.codes == other.codes
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.k, self.codes))

    def to_coeff_vectors(self):
        """JSON form: one coordinate vector mod p per coefficient."""
        return [list(self.ctx.decode(c)) for c in self.codes]

    def pretty(self, var: str = "t") -> str:
        """Human-readable form, prime-field coefficients rendered as signed
        representatives in [-(p-1)/2, (p-1)/2], highest degree first."""
        out = ""
        for i in range(self.degree, -1, -1):
            digits = self.ctx.decode(self.codes[i])
            if any(digits[1:]):
                sign, body = "+", f"({self.ctx.elem(self.codes[i])})"
            elif digits[0]:
                mag = min(digits[0], self.ctx.p - digits[0])
                sign = "+" if mag == digits[0] else "-"
                body = "" if mag == 1 and i else str(mag)
            else:
                continue
            power = "" if i == 0 else var if i == 1 else f"{var}^{i}"
            out += f" {sign} {body}{power}"
        return (out[3:] if out[1] == "+" else "-" + out[3:]) if out else "0"

    def __repr__(self):
        return f"Poly({self.pretty()!r})"


# ---------------------------------------------------------------------------
# canonical rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Element of F_{q^2}(t) in canonical form: gcd(num, den) = 1, den monic.

    Every arithmetic operation returns the canonical form, so equality is
    component-wise equality.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, num: Poly, den: Poly):
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise ValueError("RatFunc needs Poly numerator and denominator")
        if num.ctx is not den.ctx:
            raise ValueError("numerator and denominator over different fields")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)  # den.monic() when num = 0, leaving 0/1
        if g.degree > 0:
            num, den = num.divmod(g)[0], den.divmod(g)[0]
        lead_inv = num.ctx.elem(den.lead_code).inverse()
        self.ctx, self.num, self.den = num.ctx, num.scale(lead_inv), den.scale(lead_inv)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _canonical(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap a pair already in canonical form, skipping the gcd."""
        out = object.__new__(cls)
        out.ctx, out.num, out.den = num.ctx, num, den
        return out

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.one(p.ctx))

    @classmethod
    def one(cls, ctx: FieldCtx) -> "RatFunc":
        return cls(Poly.one(ctx), Poly.one(ctx))

    @classmethod
    def t(cls, ctx: FieldCtx) -> "RatFunc":
        return cls(Poly.variable(ctx), Poly.one(ctx))

    @classmethod
    def const(cls, ctx: FieldCtx, e) -> "RatFunc":
        if isinstance(e, int):
            e = ctx.from_int(e)
        return cls(Poly.from_elems(ctx, [e]), Poly.one(ctx))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def _check(self, other):
        if not isinstance(other, RatFunc) or other.ctx is not self.ctx:
            raise ValueError("rational functions over different fields")

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc._canonical(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverting zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "RatFunc":
        if e < 0:
            return self.inverse() ** (-e)
        return RatFunc(self.num**e, self.den**e)

    def subst_scale(self, zeta: FqElem) -> "RatFunc":
        """t -> zeta*t is a ring automorphism of F_{q^2}[t], so it keeps
        gcd(num, den) = 1; only the denominator has to be made monic again."""
        num, den = self.num.subst_scale(zeta), self.den.subst_scale(zeta)
        lead_inv = self.ctx.elem(den.lead_code).inverse()
        return RatFunc._canonical(num.scale(lead_inv), den.scale(lead_inv))

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def to_json_dict(self):
        return {
            "num": self.num.to_coeff_vectors(),
            "den": self.den.to_coeff_vectors(),
        }

    def pretty(self, var: str = "t") -> str:
        if self.den == Poly.one(self.ctx):
            return self.num.pretty(var)
        return f"({self.num.pretty(var)})/({self.den.pretty(var)})"

    def __repr__(self):
        return f"RatFunc({self.pretty()!r})"


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

    def _td(self) -> RatFunc:
        return RatFunc.from_poly(_t_pow_d(self.ctx))

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


def curve_neg(ctx: FieldCtx, P: CurvePoint) -> CurvePoint:
    """-(x, y) = (x, -y - x + t^d)."""
    if P.ctx is not ctx:
        raise ValueError("point over a different field")
    if P.is_infinity:
        return P
    return CurvePoint(ctx, P.x, -P.y - P.x + P._td())


def curve_add(ctx: FieldCtx, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition on y^2 + xy - t^d*y = x^3 over K, in canonical
    RatFunc arithmetic; both inputs are verified to lie on the curve."""
    if P.ctx is not ctx or Q.ctx is not ctx:
        raise ValueError("points over a different field")
    if not P.on_curve() or not Q.on_curve():
        raise ValueError("input point is not on the curve")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    td = P._td()
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if not (x1 - x2):
        if not (y2 - (-y1 - x1 + td)):
            return CurvePoint.infinity(ctx)
        if y1 - y2:
            raise ContradictionError(
                "two curve points share x without being equal or opposite"
            )
        # doubling
        two, three = RatFunc.const(ctx, 2), RatFunc.const(ctx, 3)
        denom = two * y1 + x1 - td
        lam = (three * x1 * x1 - y1) / denom
        nu = (-(x1 * x1 * x1) + td * y1) / denom
    else:
        diff = x2 - x1
        lam = (y2 - y1) / diff
        nu = (y1 * x2 - y2 * x1) / diff
    x3 = lam * lam + lam - x1 - x2
    y3 = -((lam + RatFunc.one(ctx)) * x3) - nu + td
    return CurvePoint(ctx, x3, y3)


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


def _reduce_mod_m0(vec, m0):
    """Reduce a list of at least three Poly coefficients (low degree in s
    first) modulo the monic m0 = s^3 + c2*s^2 + c1*s + c0; with c0, c1, c2
    in F_{q^2}[t] the remainder stays in F_{q^2}[t], so no fraction is ever
    formed."""
    vec = list(vec)
    for i in range(len(vec) - 1, 2, -1):
        for j, c in enumerate(m0):
            vec[i - 3 + j] = vec[i - 3 + j] - vec[i] * c
    return tuple(vec[:3])


def _l1_mul(u, v, m0):
    """The product in L1 of degree-<3 vectors in s, reduced modulo m0."""
    prod = [Poly.zero(u[0].ctx)] * 5
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] = prod[i + j] + a * b
    return _reduce_mod_m0(prod, m0)


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
    result = CurvePoint(ctx, RatFunc(X, det2), RatFunc(y_num, det3 * C))
    if not result.on_curve():
        raise ContradictionError(f"{where}: trace point violates the curve equation")
    return result


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
    out = CurvePoint(ctx, P.x.subst_scale(zeta), P.y.subst_scale(zeta))
    if not out.on_curve():
        raise ContradictionError(
            f"q = {ctx.q}, zeta with dlog {zeta.dlog}: translate left the curve"
        )
    return out
