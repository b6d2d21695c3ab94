"""Arithmetic over the rational function field F_{q^2}(t) and the elliptic
curve  E : y^2 + x*y - t^d*y = x^3,  together with the trace construction
that turns a surface line into a rational point of E.

Layers
------
``Poly``        dense polynomials over F_{q^2}, low degree first.
``RatFunc``     canonical rational functions: gcd-reduced, monic denominator.
``ExtElt``      elements of the cubic extension L1 = K[s]/(m0(s)), K = F_{q^2}(t).
``_QuadElt``    elements of a further quadratic extension (splitting field).
``CurvePoint``  a point of E with coordinates at any of these levels.

The construction: a line with components (f0, f1, f2) (fourth coordinate
normalized to 1) pulls back the fibration parameter to t = f0*f1*f2, so the
fibre coordinate s satisfies the cubic  m(s) = t - (f0*f1*f2)(s).  Because m
is monic *linear* in t, it is irreducible over F_{q^2}(t) for every valid
line: a root s0 in F_{q^2}(t) would force t = (f0*f1*f2)(s0), whose t-degree
is 3*deg_t(s0) or 0 - never 1.  The point with x = -f0(s)^d * f2(s)^d,
y = -f0(s)^{2d} * f2(s)^d lives over L1; the sum of its three Galois
conjugates is Galois-stable, hence a point of E over F_{q^2}(t).

That sum is computed by Riemann-Roch on L(4O) = <1, x, y, x^2> (Silverman,
The Arithmetic of Elliptic Curves, Ch. III), with one linear solve over K:
g = x^2 + b*x + c*y + a vanishes at the three conjugates exactly when its
value at the point is 0 in L1, and its fourth zero P4 gives the sum -P4.
Only the cubic level L1 is built.

The solve is fraction-free.  m0 is monic with coefficients in F_{q^2}[t], so
the coordinates reduced modulo m0 are Polys; Cramer's rule keeps the
numerators over one determinant, and each coordinate of the sum is
normalised to a canonical RatFunc once, at the end.  The on-curve check of a
rational point clears denominators and compares Polys, with no gcd, and the
mu_d translation t -> zeta*t only makes the denominator monic again.

The splitting tower - the quadratic level over L1, the three roots of m0,
chord-and-tangent addition of the conjugates there, and the descent back
to K - is kept as the independent route that tests compare against
(``splitting_roots``, ``conjugate_points``, ``_descend``).
"""

from __future__ import annotations

from .fermat import Line
from .gf import ContradictionError, DescentError, FieldCtx, FqElem, in_mu_d

__all__ = [
    "CubicExt",
    "CurvePoint",
    "ExtElt",
    "FunctionField",
    "Poly",
    "QuadExt",
    "RatFunc",
    "SplittingData",
    "conjugate_points",
    "construct_point",
    "curve_add",
    "curve_neg",
    "line_components",
    "mu_d_translate",
    "point_from_components",
    "splitting_roots",
]


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
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a, b = b, a
        add = self.ctx.add_codes
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(self.ctx, out)

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
        add, mul = self.ctx.add_codes, self.ctx.mul_codes
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = add(out[i + j], mul(ai, bj))
        return Poly(self.ctx, out)

    def scale(self, e: FqElem) -> "Poly":
        mul = self.ctx.mul_codes
        return Poly(self.ctx, [mul(c, e.code) for c in self.codes])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def divmod(self, other: "Poly"):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        add, mul, neg = self.ctx.add_codes, self.ctx.mul_codes, self.ctx.neg_code
        inv_lead = self.ctx.elem(other.lead_code).inverse().code
        rem = list(self.codes)
        db = other.degree
        if self.degree < db:
            return Poly.zero(self.ctx), self
        quot = [0] * (self.degree - db + 1)
        for i in range(self.degree - db, -1, -1):
            c = mul(rem[i + db], inv_lead)
            if c:
                quot[i] = c
                nc = neg(c)
                for j, oc in enumerate(other.codes):
                    rem[i + j] = add(rem[i + j], mul(nc, oc))
        return Poly(self.ctx, quot), Poly(self.ctx, rem[:db])

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
        out = []
        zpow = 1
        for c in self.codes:
            out.append(mul(c, zpow))
            zpow = mul(zpow, zeta.code)
        return Poly(self.ctx, out)

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
        if self.is_zero:
            return "0"
        p = self.ctx.p
        half = p // 2
        terms = []
        for i in range(self.degree, -1, -1):
            code = self.codes[i]
            if code == 0:
                continue
            digits = self.ctx.decode(code)
            if any(digits[1:]):
                coeff_str, sign = "(" + str(self.ctx.elem(code)) + ")", 1
            else:
                v = digits[0]
                signed = v - p if v > half else v
                sign = -1 if signed < 0 else 1
                mag = abs(signed)
                coeff_str = "" if (mag == 1 and i > 0) else str(mag)
            if i == 0:
                power = ""
            elif i == 1:
                power = var
            else:
                power = f"{var}^{i}"
            terms.append((sign, coeff_str + power))
        parts = []
        for idx, (sign, body) in enumerate(terms):
            if idx == 0:
                parts.append(("-" if sign < 0 else "") + body)
            else:
                parts.append(("- " if sign < 0 else "+ ") + body)
        return " ".join(parts)

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
        ctx = num.ctx
        if num.is_zero:
            num, den = Poly.zero(ctx), Poly.one(ctx)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead_inv = ctx.elem(den.lead_code).inverse()
            num = num.scale(lead_inv)
            den = den.scale(lead_inv)
        self.ctx = ctx
        self.num = num
        self.den = den

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
    def zero(cls, ctx: FieldCtx) -> "RatFunc":
        return cls(Poly.zero(ctx), Poly.one(ctx))

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
# coefficient-field levels: K, cubic extension, quadratic extension
# ---------------------------------------------------------------------------


class FunctionField:
    """The base level K = F_{q^2}(t); elements are RatFunc."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx

    def zero(self) -> RatFunc:
        return RatFunc.zero(self.ctx)

    def one(self) -> RatFunc:
        return RatFunc.one(self.ctx)

    def embed(self, r: RatFunc) -> RatFunc:
        return r

    def contains(self, elt) -> bool:
        return isinstance(elt, RatFunc)

    def __eq__(self, other):
        if not isinstance(other, FunctionField):
            return NotImplemented
        return type(other) is FunctionField and self.ctx is other.ctx

    def __hash__(self):
        return hash((FunctionField, id(self.ctx)))

    def __repr__(self):
        return f"FunctionField(q={self.ctx.q})"


def _rfp_trim(v):
    v = list(v)
    while v and v[-1].is_zero:
        v.pop()
    return v


def _rfp_divmod(a, b, zero):
    """Division with remainder for lists of RatFunc, low degree first."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    inv = b[-1].inverse()
    rem = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], rem
    quot = [zero] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = rem[i + db] * inv
        quot[i] = c
        if not c.is_zero:
            for j, bc in enumerate(b):
                rem[i + j] = rem[i + j] - c * bc
    return _rfp_trim(quot), _rfp_trim(rem[:db])


def _rfp_mul(a, b, zero):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ac in enumerate(a):
        if not ac.is_zero:
            for j, bc in enumerate(b):
                out[i + j] = out[i + j] + ac * bc
    return _rfp_trim(out)


def _rf_ext_inverse(a, m, ctx):
    """Inverse of a (degree < deg m) modulo m over K, by extended Euclid.

    A nontrivial gcd would witness that m is reducible, which the structural
    irreducibility argument rules out, so it is reported as a contradiction.
    """
    zero, one = RatFunc.zero(ctx), RatFunc.one(ctx)
    a = _rfp_trim(a)
    if not a:
        raise ZeroDivisionError("inverting zero in the extension field")
    r0, r1 = list(m), a
    s0, s1 = [], [one]
    while r1:
        q, r = _rfp_divmod(r0, r1, zero)
        r0, r1 = r1, r
        qs1 = _rfp_mul(q, s1, zero)
        new_s = [
            (s0[i] if i < len(s0) else zero) - (qs1[i] if i < len(qs1) else zero)
            for i in range(max(len(s0), len(qs1)))
        ]
        s0, s1 = s1, _rfp_trim(new_s)
    if len(r0) != 1:
        raise ContradictionError(
            "nontrivial common factor with the cubic modulus: m is reducible"
        )
    c_inv = r0[0].inverse()
    return _rfp_trim([s * c_inv for s in s0])


class ExtElt:
    """Element of the cubic extension K[s]/(m0(s)): a representative of
    degree < 3 with RatFunc coefficients."""

    __slots__ = ("ext", "vec")

    def __init__(self, ext: "CubicExt", vec):
        vec = tuple(vec)
        if len(vec) != 3 or not all(isinstance(v, RatFunc) for v in vec):
            raise ValueError("ExtElt needs exactly 3 RatFunc coefficients")
        self.ext = ext
        self.vec = vec

    def _check(self, other):
        if not isinstance(other, ExtElt) or other.ext != self.ext:
            raise ValueError("extension elements of different towers")

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.vec)

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other: "ExtElt") -> "ExtElt":
        self._check(other)
        return ExtElt(self.ext, [a + b for a, b in zip(self.vec, other.vec)])

    def __neg__(self) -> "ExtElt":
        return ExtElt(self.ext, [-a for a in self.vec])

    def __sub__(self, other: "ExtElt") -> "ExtElt":
        return self + (-other)

    def __mul__(self, other: "ExtElt") -> "ExtElt":
        self._check(other)
        zero = RatFunc.zero(self.ext.ctx)
        prod = [zero] * 5
        for i, a in enumerate(self.vec):
            if not a.is_zero:
                for j, b in enumerate(other.vec):
                    prod[i + j] = prod[i + j] + a * b
        return ExtElt(self.ext, self.ext.reduce(prod))

    def inverse(self) -> "ExtElt":
        inv = _rf_ext_inverse(list(self.vec), self.ext.m0, self.ext.ctx)
        zero = RatFunc.zero(self.ext.ctx)
        inv = inv + [zero] * (3 - len(inv))
        return ExtElt(self.ext, inv[:3])

    def __truediv__(self, other: "ExtElt") -> "ExtElt":
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, ExtElt):
            return NotImplemented
        return self.ext == other.ext and self.vec == other.vec

    def __hash__(self):
        return hash((self.ext, self.vec))

    def __repr__(self):
        parts = [v.pretty() for v in self.vec]
        return f"ExtElt([{parts[0]}] + [{parts[1]}]*s + [{parts[2]}]*s^2)"


class CubicExt:
    """The cubic extension K[s]/(m0), m0 = s^3 + c2*s^2 + c1*s + c0 monic."""

    __slots__ = ("ctx", "m0")

    def __init__(self, ctx: FieldCtx, c0: RatFunc, c1: RatFunc, c2: RatFunc):
        self.ctx = ctx
        self.m0 = (c0, c1, c2, RatFunc.one(ctx))

    def zero(self) -> ExtElt:
        z = RatFunc.zero(self.ctx)
        return ExtElt(self, (z, z, z))

    def one(self) -> ExtElt:
        z = RatFunc.zero(self.ctx)
        return ExtElt(self, (RatFunc.one(self.ctx), z, z))

    def embed(self, r: RatFunc) -> ExtElt:
        z = RatFunc.zero(self.ctx)
        return ExtElt(self, (r, z, z))

    def sbar(self) -> ExtElt:
        """The adjoined root of m0."""
        z = RatFunc.zero(self.ctx)
        return ExtElt(self, (z, RatFunc.one(self.ctx), z))

    def contains(self, elt) -> bool:
        return isinstance(elt, ExtElt) and elt.ext == self

    def reduce(self, vec):
        """Reduce a coefficient list (low degree first) modulo m0."""
        c0, c1, c2, _ = self.m0
        vec = list(vec)
        for i in range(len(vec) - 1, 2, -1):
            c = vec[i]
            if not c.is_zero:
                vec[i - 1] = vec[i - 1] - c * c2
                vec[i - 2] = vec[i - 2] - c * c1
                vec[i - 3] = vec[i - 3] - c * c0
        zero = RatFunc.zero(self.ctx)
        vec = vec[:3] + [zero] * (3 - len(vec[:3]))
        return tuple(vec)

    def eval_quadratic(self, vec, x):
        """Evaluate a degree-<3 representative at an element of this level
        (or of a quadratic extension of it)."""
        level = x.ext if isinstance(x, ExtElt) else x.quad
        e = level.embed
        return e(vec[0]) + e(vec[1]) * x + e(vec[2]) * x * x

    def __eq__(self, other):
        if not isinstance(other, CubicExt):
            return NotImplemented
        return self.ctx is other.ctx and self.m0 == other.m0

    def __hash__(self):
        return hash((CubicExt, id(self.ctx), self.m0))

    def __repr__(self):
        c0, c1, c2, _ = self.m0
        return (
            f"CubicExt(s^3 + [{c2.pretty()}]s^2 + [{c1.pretty()}]s"
            f" + [{c0.pretty()}])"
        )


class _QuadElt:
    """Element a + b*u of a quadratic extension with u^2 = delta."""

    __slots__ = ("quad", "a", "b")

    def __init__(self, quad: "QuadExt", a: ExtElt, b: ExtElt):
        self.quad = quad
        self.a = a
        self.b = b

    def _check(self, other):
        if not isinstance(other, _QuadElt) or other.quad != self.quad:
            raise ValueError("quadratic-extension elements of different towers")

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        self._check(other)
        return _QuadElt(self.quad, self.a + other.a, self.b + other.b)

    def __neg__(self):
        return _QuadElt(self.quad, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        d = self.quad.delta
        return _QuadElt(
            self.quad,
            self.a * other.a + d * (self.b * other.b),
            self.a * other.b + self.b * other.a,
        )

    def inverse(self):
        n = self.a * self.a - self.quad.delta * (self.b * self.b)
        if n.is_zero:
            if self.is_zero:
                raise ZeroDivisionError("inverting zero in the quadratic layer")
            raise ContradictionError(
                "norm zero in the quadratic layer: delta is a square after all"
            )
        ninv = n.inverse()
        return _QuadElt(self.quad, self.a * ninv, -(self.b * ninv))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, _QuadElt):
            return NotImplemented
        return self.quad == other.quad and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.quad, self.a, self.b))

    def __repr__(self):
        return f"_QuadElt({self.a!r} + ({self.b!r})*u)"


class QuadExt:
    """Quadratic extension L1[u]/(u^2 - delta) of the cubic level L1."""

    __slots__ = ("cubic", "delta")

    def __init__(self, cubic: CubicExt, delta: ExtElt):
        self.cubic = cubic
        self.delta = delta

    @property
    def ctx(self) -> FieldCtx:
        return self.cubic.ctx

    def zero(self) -> _QuadElt:
        z = self.cubic.zero()
        return _QuadElt(self, z, z)

    def one(self) -> _QuadElt:
        return _QuadElt(self, self.cubic.one(), self.cubic.zero())

    def embed(self, r) -> _QuadElt:
        if isinstance(r, RatFunc):
            r = self.cubic.embed(r)
        return _QuadElt(self, r, self.cubic.zero())

    def u(self) -> _QuadElt:
        return _QuadElt(self, self.cubic.zero(), self.cubic.one())

    def contains(self, elt) -> bool:
        return isinstance(elt, _QuadElt) and elt.quad == self

    def __eq__(self, other):
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.cubic == other.cubic and self.delta == other.delta

    def __hash__(self):
        return hash((QuadExt, self.cubic, self.delta))

    def __repr__(self):
        return f"QuadExt(u^2 = {self.delta!r})"


# ---------------------------------------------------------------------------
# curve points and the group law
# ---------------------------------------------------------------------------


def _t_pow_d(ctx: FieldCtx) -> Poly:
    return Poly(ctx, (0,) * ctx.d + (1,))


class CurvePoint:
    """A point of E : y^2 + x*y - t^d*y = x^3, either INFINITY or (x, y).

    ``level`` names the coefficient field of the coordinates: the base
    FunctionField for rational points, or an extension level during the
    trace computation.
    """

    __slots__ = ("level", "x", "y")

    def __init__(self, level, x, y):
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        if x is not None and not (level.contains(x) and level.contains(y)):
            raise ValueError("coordinates do not belong to the stated level")
        self.level = level
        self.x = x
        self.y = y

    @classmethod
    def infinity(cls, level) -> "CurvePoint":
        return cls(level, None, None)

    @classmethod
    def rational(cls, ctx: FieldCtx, x: RatFunc, y: RatFunc) -> "CurvePoint":
        return cls(FunctionField(ctx), x, y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    @property
    def ctx(self) -> FieldCtx:
        return self.level.ctx

    def _td(self):
        return self.level.embed(RatFunc.from_poly(_t_pow_d(self.ctx)))

    def on_curve(self) -> bool:
        """Whether the point satisfies the curve equation.  A rational point
        x = xn/xd, y = yn/yd is checked with denominators cleared, on Poly:
            yn*xd^2*(yn*xd + xn*yd - t^d*xd*yd) = xn^3*yd^2."""
        if self.is_infinity:
            return True
        if not isinstance(self.level, FunctionField):
            return self._satisfies_equation()
        xn, xd, yn, yd = self.x.num, self.x.den, self.y.num, self.y.den
        lhs = yn * (xd * xd) * (yn * xd + xn * yd - _t_pow_d(self.ctx) * (xd * yd))
        return lhs == xn * xn * xn * (yd * yd)

    def _satisfies_equation(self) -> bool:
        """y^2 + x*y - t^d*y = x^3 in the arithmetic of the coordinates' own
        level: the check for tower points, and the oracle for ``on_curve``."""
        x, y = self.x, self.y
        lhs = y * y + x * y - self._td() * y
        return not (lhs - x * x * x)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.level != other.level:
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.level, self.x, self.y))

    def to_json_dict(self):
        if not isinstance(self.level, FunctionField):
            raise ValueError("serialization is defined for rational points only")
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
        if isinstance(self.level, FunctionField):
            return f"(x = {self.x.pretty()}, y = {self.y.pretty()})"
        return f"(x = {self.x!r}, y = {self.y!r})"

    def __repr__(self):
        return f"CurvePoint({self.pretty()})"


def curve_neg(ctx: FieldCtx, P: CurvePoint) -> CurvePoint:
    """-(x, y) = (x, -y - x + t^d)."""
    if P.ctx is not ctx:
        raise ValueError("point over a different field")
    if P.is_infinity:
        return P
    return CurvePoint(P.level, P.x, -P.y - P.x + P._td())


def curve_add(ctx: FieldCtx, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition on y^2 + xy - t^d*y = x^3 over any coefficient
    level; both inputs are verified to lie on the curve."""
    if P.ctx is not ctx or Q.ctx is not ctx:
        raise ValueError("points over a different field")
    if P.level != Q.level:
        raise ValueError("points at different tower levels")
    if not P.on_curve() or not Q.on_curve():
        raise ValueError("input point is not on the curve")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    level = P.level
    td = P._td()
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if not (x1 - x2):
        if not (y2 - (-y1 - x1 + td)):
            return CurvePoint.infinity(level)
        if y1 - y2:
            raise ContradictionError(
                "two curve points share x without being equal or opposite"
            )
        # doubling
        two = level.embed(RatFunc.const(ctx, 2))
        three = level.embed(RatFunc.const(ctx, 3))
        denom = two * y1 + x1 - td
        lam = (three * x1 * x1 - y1) / denom
        nu = (-(x1 * x1 * x1) + td * y1) / denom
    else:
        diff = x2 - x1
        lam = (y2 - y1) / diff
        nu = (y1 * x2 - y2 * x1) / diff
    one = level.one()
    x3 = lam * lam + lam - x1 - x2
    y3 = -((lam + one) * x3) - nu + td
    return CurvePoint(level, x3, y3)


# ---------------------------------------------------------------------------
# square roots in K = F_{q^2}(t)
# ---------------------------------------------------------------------------


def _elem_sqrt_code(ctx: FieldCtx, code: int):
    if code == 0:
        return 0
    dl = int(ctx.dlog[code])
    if dl % 2:
        return None
    return int(ctx.exp[dl // 2])


def _poly_sqrt_monic(p: Poly):
    """Monic square root of a monic polynomial, or None."""
    n = p.degree
    if n % 2:
        return None
    m = n // 2
    ctx = p.ctx
    add, mul, neg = ctx.add_codes, ctx.mul_codes, ctx.neg_code
    inv2 = ctx.from_int(2).inverse().code
    w = [0] * (m + 1)
    w[m] = 1
    src = list(p.codes) + [0] * (n + 1 - len(p.codes))
    for i in range(m - 1, -1, -1):
        acc = src[i + m]
        for a in range(i + 1, m):
            b = i + m - a
            if b > m or b <= i:
                continue
            acc = add(acc, neg(mul(w[a], w[b])))
        w[i] = mul(acc, inv2)
    cand = Poly(ctx, w)
    if cand * cand == p:
        return cand
    return None


def _ratfunc_sqrt(f: RatFunc):
    """A square root of f in K, or None when f is not a square."""
    if f.is_zero:
        return RatFunc.zero(f.ctx)
    ctx = f.ctx
    lead = f.num.lead_code
    lead_root = _elem_sqrt_code(ctx, lead)
    if lead_root is None:
        return None
    num_monic = f.num.monic()
    rn = _poly_sqrt_monic(num_monic)
    rd = _poly_sqrt_monic(f.den)
    if rn is None or rd is None:
        return None
    root = RatFunc(rn.scale(ctx.elem(lead_root)), rd)
    if root * root != f:
        return None
    return root


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


class SplittingData:
    """The monic cubic m0, its three roots, and the level they live at."""

    __slots__ = ("level", "cubic", "roots", "m0")

    def __init__(self, level, cubic, roots, m0):
        self.level = level
        self.cubic = cubic
        self.roots = roots
        self.m0 = m0


def _build_cubic(ctx: FieldCtx, f0: Poly, f1: Poly, f2: Poly) -> CubicExt:
    prod = f0 * f1 * f2
    if prod.degree != 3:
        raise ValueError("components do not define a cubic fibration")
    # Fermat-surface membership: f0^d + f1^d + f2^d + 1 = 0 identically.
    d = ctx.d
    total = f0**d + f1**d + f2**d + Poly.one(ctx)
    if not total.is_zero:
        raise ValueError("components do not parametrize a line on the surface")
    p3 = ctx.elem(prod.codes[3])
    p2 = ctx.elem(prod.codes[2] if len(prod.codes) > 2 else 0)
    p1 = ctx.elem(prod.codes[1] if len(prod.codes) > 1 else 0)
    p0 = ctx.elem(prod.codes[0] if len(prod.codes) > 0 else 0)
    # m = t - prod(s); monic form divides by -p3:
    #   m0 = s^3 + (p2/p3) s^2 + (p1/p3) s + (p0 - t)/p3
    c2 = RatFunc.const(ctx, p2 / p3)
    c1 = RatFunc.const(ctx, p1 / p3)
    c0 = RatFunc(
        Poly.from_elems(ctx, [p0 / p3, -(p3.inverse())]), Poly.one(ctx)
    )
    return CubicExt(ctx, c0, c1, c2)


def _split_cubic(cubic: CubicExt) -> SplittingData:
    """Split m0 over its own root field: one root is adjoined, the other two
    come from the quadratic cofactor, inside L1 when the discriminant of m0
    is a square in K (cyclic Galois group) and in a quadratic extension
    otherwise."""
    ctx = cubic.ctx
    c0, c1, c2, _ = cubic.m0
    sbar = cubic.sbar()
    e = cubic.embed
    # cofactor m0/(s - sbar) = X^2 + p_hat*X + r_hat
    p_hat = e(c2) + sbar
    r_hat = e(c1) + e(c2) * sbar + sbar * sbar
    delta = p_hat * p_hat - e(RatFunc.const(ctx, 4)) * r_hat
    # disc(m0) = 18*c2*c1*c0 - 4*c2^3*c0 + c2^2*c1^2 - 4*c1^3 - 27*c0^2
    n18 = RatFunc.const(ctx, 18)
    n4 = RatFunc.const(ctx, 4)
    n27 = RatFunc.const(ctx, 27)
    disc = (
        n18 * c2 * c1 * c0
        - n4 * c2 * c2 * c2 * c0
        + c2 * c2 * c1 * c1
        - n4 * c1 * c1 * c1
        - n27 * c0 * c0
    )
    if disc.is_zero:
        raise ContradictionError("cubic with zero discriminant: repeated root")
    half = RatFunc.const(ctx, 2).inverse()
    disc_root = _ratfunc_sqrt(disc)
    if disc_root is not None:
        # cyclic case: disc = (m0'(sbar))^2 * delta, so delta has the square
        # root  disc_root / m0'(sbar)  already inside L1.
        m0p = e(c1) + e(RatFunc.const(ctx, 2)) * e(c2) * sbar + e(
            RatFunc.const(ctx, 3)
        ) * sbar * sbar
        delta_root = e(disc_root) / m0p
        if delta_root * delta_root != delta:
            raise ContradictionError("discriminant square root check failed")
        r_plus = (-p_hat + delta_root) * e(half)
        r_minus = (-p_hat - delta_root) * e(half)
        return SplittingData(cubic, cubic, (sbar, r_plus, r_minus), cubic.m0)
    quad = QuadExt(cubic, delta)
    u = quad.u()
    hq = quad.embed(half)
    pq = quad.embed(p_hat)
    r_plus = (-pq + u) * hq
    r_minus = (-pq - u) * hq
    return SplittingData(quad, cubic, (quad.embed(sbar), r_plus, r_minus), cubic.m0)


def splitting_roots(ctx: FieldCtx, L: Line) -> SplittingData:
    """The three roots of the line's cubic m0 over a splitting level."""
    f0, f1, f2 = line_components(ctx, L)
    return _split_cubic(_build_cubic(ctx, f0, f1, f2))


def _m0_polys(cubic: CubicExt):
    """The coefficients (c0, c1, c2) of m0 as Polys in t; ``_build_cubic``
    gives each of them denominator 1."""
    return tuple(c.num for c in cubic.m0[:3])


def _reduce_mod_m0(vec, m0):
    """Reduce a list of Poly coefficients (low degree in s first) modulo the
    monic m0 = s^3 + c2*s^2 + c1*s + c0; with c0, c1, c2 in F_{q^2}[t] the
    remainder stays in F_{q^2}[t], so no fraction is ever formed."""
    c0, c1, c2 = m0
    vec = list(vec)
    for i in range(len(vec) - 1, 2, -1):
        c = vec[i]
        if not c.is_zero:
            vec[i - 1] = vec[i - 1] - c * c2
            vec[i - 2] = vec[i - 2] - c * c1
            vec[i - 3] = vec[i - 3] - c * c0
    vec = vec[:3]
    return tuple(vec) + (Poly.zero(c0.ctx),) * (3 - len(vec))


def _coordinate_vectors(ctx: FieldCtx, cubic: CubicExt, f0: Poly, f2: Poly):
    """The curve coordinates x = -f0^d f2^d, y = -f0^{2d} f2^d along the
    line, reduced modulo m0 to degree-<3 representatives over F_{q^2}[t]."""
    d = ctx.d
    m0 = _m0_polys(cubic)
    x_scalar = -((f0 * f2) ** d)
    y_scalar = x_scalar * (f0**d)

    def reduce_scalar(p: Poly):
        return _reduce_mod_m0([Poly(ctx, (c,)) for c in p.codes], m0)

    return reduce_scalar(x_scalar), reduce_scalar(y_scalar)


def _conjugates(ctx: FieldCtx, f0: Poly, f1: Poly, f2: Poly):
    cubic = _build_cubic(ctx, f0, f1, f2)
    data = _split_cubic(cubic)
    xvec, yvec = (
        [RatFunc.from_poly(v) for v in vec]
        for vec in _coordinate_vectors(ctx, cubic, f0, f2)
    )
    points = tuple(
        CurvePoint(
            data.level,
            cubic.eval_quadratic(xvec, r),
            cubic.eval_quadratic(yvec, r),
        )
        for r in data.roots
    )
    return points, data


def conjugate_points(ctx: FieldCtx, L: Line):
    """The three Galois-conjugate points of the line over a splitting level."""
    f0, f1, f2 = line_components(ctx, L)
    points, _ = _conjugates(ctx, f0, f1, f2)
    return points


def _descend(ctx: FieldCtx, S: CurvePoint) -> CurvePoint:
    """Extract rational coordinates from a Galois-stable tower point."""
    base = FunctionField(ctx)
    if S.is_infinity:
        return CurvePoint.infinity(base)

    def down(coord) -> RatFunc:
        if isinstance(coord, _QuadElt):
            if not coord.b.is_zero:
                raise DescentError("coordinate has a component along u")
            coord = coord.a
        if isinstance(coord, ExtElt):
            if not (coord.vec[1].is_zero and coord.vec[2].is_zero):
                raise DescentError("coordinate has a component along s")
            coord = coord.vec[0]
        return coord

    return CurvePoint(base, down(S.x), down(S.y))


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
    cubic = _build_cubic(ctx, f0, f1, f2)
    m0 = _m0_polys(cubic)
    xvec, yvec = _coordinate_vectors(ctx, cubic, f0, f2)
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
        return CurvePoint.infinity(FunctionField(ctx))
    two = ctx.from_int(2)
    xsq = _reduce_mod_m0(
        [
            x0 * x0,
            (x0 * x1).scale(two),
            x1 * x1 + (x0 * x2).scale(two),
            (x1 * x2).scale(two),
            x2 * x2,
        ],
        m0,
    )
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
    result = CurvePoint.rational(ctx, RatFunc(X, det2), RatFunc(y_num, det3 * C))
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
    if P.ctx is not ctx or not isinstance(P.level, FunctionField):
        raise ValueError("translation is defined for rational points")
    if P.is_infinity:
        return P
    out = CurvePoint(P.level, P.x.subst_scale(zeta), P.y.subst_scale(zeta))
    if not out.on_curve():
        raise ContradictionError(
            f"q = {ctx.q}, zeta with dlog {zeta.dlog}: translate left the curve"
        )
    return out
