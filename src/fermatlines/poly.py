"""Dense polynomials F_{q^2}[t] and canonical rational functions F_{q^2}(t).

A ``Poly`` is the n x 2k int64 array of the base-p digits of its
coefficients, low degree first, with no trailing zero rows: the layout that
the Kronecker kernel ``_kron`` reads and writes, so no operation converts
codes to digits.  A sum or difference is one padded numpy sum reduced mod p,
a constant multiple is one product with the 2k x 2k matrix over F_p of
multiplication by the constant, and a product of two polynomials is one
big-int product (Kronecker substitution; Harvey, J. Symb. Comp. 2009).
Comparison and hashing read the digit bytes; the integer codes are derived
on demand, for rendering and the scalar walks.

Division takes a short quotient and its remainder together, top down on the
digit rows: each step is one scalar product for the coefficient and one
constant multiple of the divisor (von zur Gathen and Gerhard, Modern
Computer Algebra, 2.4).  A long quotient comes from a Newton inverse of the
reversed divisor (ibid., 9.1): both the inverse and the quotient are kernel
products, and the remainder is one more, of the low parts.

``RatFunc`` is a pair of Polys in canonical form: gcd-reduced, with a monic
denominator.  It is the form of a result, not a field to compute in: its
constructor takes the one gcd, and only negation and t -> zeta*t, which
keep the form, act on it.  Computations over F_{q^2}(t), such as the
group law in ``efield``, run on Poly numerators and denominators.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import FieldCtx, FqElem

__all__ = ["Poly", "RatFunc"]

# Quotients with dq = deg(a) - deg(b) below this are taken top down.  Timed
# one divmod at a time (one core, best of 3 x 20 calls) at q = 7 with
# db = 8, q = 139 with db = 64 and q = 1999 with db = 512, the loop took
# 16-33 us at dq = 1, where a Newton quotient took 41-86 us, and 84-169 us
# at dq = 16 against 112-259 us.  At dq = 24 the two met at q = 7 (119
# against 116 us) and, with db = 8, at q = 1999 (228 against 225 us); at
# q = 139 and 1999 with db = 64 and 512 the loop still won at dq = 28.
# Euclid's many dq = 1 steps keep the loop.
_NEWTON_DQ = 24


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


@lru_cache(maxsize=1024)
def _mul_matrix(ctx: FieldCtx, code: int) -> np.ndarray:
    """The 2k x 2k matrix over F_p of multiplication by the element ``code``:
    row j holds the digits of code * w^j, and w^j has the code p^j."""
    matrix = ctx.digit_rows([ctx.mul_codes(code, ctx.p**j) for j in range(ctx.deg)])
    matrix.flags.writeable = False
    return matrix


def _kron(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The digit array of the product of the digit arrays a and b, one row
    per coefficient, len(a) + len(b) - 1 rows (Kronecker substitution).

    Each coefficient is packed as its 2k digits into byte-aligned slots of
    one Python int, 4k - 1 slots per coefficient: room for the degree-(4k-2)
    product in w of two coefficients.  After one big-int product, slot j of
    coefficient i holds the integer coefficient of t^i w^j, and the fold
    matrix takes each w^j back to the basis 1, ..., w^{2k-1}.
    """
    stride, dtype = 2 * ctx.deg - 1, _slot_dtype(ctx, min(len(a), len(b)))
    slots = np.zeros((len(a) + len(b), stride), dtype)
    slots[: len(a), : ctx.deg] = a
    slots[len(a) :, : ctx.deg] = b
    x = int.from_bytes(slots[: len(a)].tobytes(), "little")
    y = int.from_bytes(slots[len(a) :].tobytes(), "little")
    size = (len(a) + len(b) - 1) * stride
    packed = (x * y).to_bytes(size * dtype.itemsize, "little")
    # each slot widened to 8 bytes and reduced mod p as uint64 before the fold,
    # since a 64-bit slot may pass 2^63
    wide = np.zeros(size, "<u8")
    wide.view(dtype)[:: 8 // dtype.itemsize] = np.frombuffer(packed, dtype)
    return (wide % ctx.p).view("<i8").reshape(-1, stride) @ _fold(ctx) % ctx.p


def _strip(rows: np.ndarray) -> np.ndarray:
    """The digit array without its trailing zero rows."""
    nonzero = np.flatnonzero(rows)
    return rows[: nonzero[-1] // rows.shape[1] + 1] if len(nonzero) else rows[:0]


def _reciprocal(ctx: FieldCtx, rev: np.ndarray, n: int) -> np.ndarray:
    """The n digit rows of rev^{-1} mod t^n, for rev with a nonzero constant
    term, by Newton doubling: inv <- inv * (2 - rev * inv) doubles the
    precision at which rev * inv = 1."""
    lead = ctx.elem(ctx.row_codes(rev[:1])[0]).inverse()
    inv = ctx.digit_rows([lead.code])
    precisions = []
    while n > 1:
        precisions.append(n)
        n = (n + 1) // 2
    for m in reversed(precisions):
        err = -_kron(ctx, rev[:m], inv)[:m]
        err[0, 0] += 2
        inv = _kron(ctx, inv, err % ctx.p)[:m]
    return inv


# ---------------------------------------------------------------------------
# dense polynomials over F_{q^2}
# ---------------------------------------------------------------------------


class Poly:
    """Dense polynomial over F_{q^2}: ``rows`` holds the base-p digits of the
    coefficients, low degree first, as int64, so that equal polynomials have
    equal bytes.

    Invariant: no trailing zero rows; the zero polynomial has no rows.
    """

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: FieldCtx, codes):
        self.ctx = ctx
        self.rows = _strip(ctx.digit_rows(list(codes)))

    @classmethod
    def _of(cls, ctx: FieldCtx, rows: np.ndarray) -> "Poly":
        """Wrap an int64 digit array that has no trailing zero rows."""
        out = object.__new__(cls)
        out.ctx, out.rows = ctx, rows
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (1,))

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
    def codes(self) -> tuple:
        """The integer codes of the coefficients, derived from the digits on
        each call: a view for rendering and the scalar walks."""
        return tuple(self.ctx.row_codes(self.rows))

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    @property
    def is_zero(self) -> bool:
        return not len(self.rows)

    @property
    def lead_code(self) -> int:
        return self.ctx.row_codes(self.rows[-1:])[0] if len(self.rows) else 0

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly) or other.ctx is not self.ctx:
            raise ValueError("polynomials over different fields")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return other if self.is_zero else self
        short, rows = sorted((self.rows, other.rows), key=len)
        rows = rows.copy()
        rows[: len(short)] += short
        rows %= self.ctx.p
        # only a sum of equal lengths can cancel the lead
        return Poly._of(self.ctx, _strip(rows) if len(short) == len(rows) else rows)

    def __neg__(self) -> "Poly":
        return Poly._of(self.ctx, -self.rows % self.ctx.p)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        if other.is_zero:
            return self
        a, b = self.rows, other.rows
        if len(a) >= len(b):
            rows = a.copy()
            rows[: len(b)] -= b
        else:
            rows = -b
            rows[: len(a)] += a
        rows %= self.ctx.p
        return Poly._of(self.ctx, _strip(rows) if len(a) == len(b) else rows)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self, other
        if a.is_zero or b.is_zero:
            return Poly.zero(self.ctx)
        if a.degree == 0:
            a, b = b, a
        if b.degree == 0:
            return a._times(b.lead_code)
        # over a field the product of the two leads is not zero
        return Poly._of(self.ctx, _kron(self.ctx, a.rows, b.rows))

    def _times(self, code: int) -> "Poly":
        """The constant multiple by the element ``code``."""
        ctx = self.ctx
        if not code:
            return Poly.zero(ctx)
        return Poly._of(ctx, self.rows @ _mul_matrix(ctx, code) % ctx.p)

    def scale(self, e: FqElem) -> "Poly":
        return self._times(e.code)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        for bit in bin(e)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def _divide(self, other: "Poly"):
        """Quotient and remainder, with the remainder None for a Newton
        quotient.  One with dq < _NEWTON_DQ is taken top down on the digit
        rows: each step reduces the top row of the running remainder mod p,
        takes the coefficient as its code times lead(b)^{-1}, and subtracts
        that multiple of b's low rows from the rows below it.  Those rows
        stay unreduced, each step adding at most 2k (p - 1)^2, far inside
        int64 for dq < _NEWTON_DQ.  A longer one is rev(a) * rev(b)^{-1}
        mod t^{dq+1}, reversed, with rev the coefficients in reverse order."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ctx, a, b = self.ctx, self.rows, other.rows
        db, dq = len(b) - 1, len(a) - len(b)
        if dq < 0:
            return Poly.zero(ctx), self
        if dq >= _NEWTON_DQ:
            inv = _reciprocal(ctx, b[::-1], dq + 1)
            return Poly._of(ctx, _kron(ctx, a[db:][::-1], inv)[dq::-1]), None
        inv_lead = ctx.elem(other.lead_code).inverse().code
        rem = a.copy()
        quot = np.zeros((dq + 1, ctx.deg), np.int64)
        for i in range(dq, -1, -1):
            rem[i + db] %= ctx.p
            coeff = ctx.mul_codes(ctx.row_codes(rem[i + db : i + db + 1])[0], inv_lead)
            if coeff:
                matrix = _mul_matrix(ctx, coeff)
                quot[i] = matrix[0]  # the digits of coeff * w^0
                rem[i : i + db] -= b[:db] @ matrix
        return Poly._of(ctx, quot), Poly._of(ctx, _strip(rem[:db] % ctx.p))

    def __floordiv__(self, other: "Poly") -> "Poly":
        """The quotient of ``divmod``; a Newton quotient comes without the
        remainder product."""
        return self._divide(other)[0]

    def divmod(self, other: "Poly"):
        """Quotient and remainder.  Below the crossover both come from the
        one top-down loop, with no kernel product; after a Newton quotient
        the remainder is the low db coefficients of a - quot*b, one kernel
        product of the low parts."""
        quot, rem = self._divide(other)
        if rem is None:
            ctx, db, b = self.ctx, other.degree, other.rows
            low = self.rows[:db] - _kron(ctx, quot.rows[:db], b[:db])[:db] if db else b[:0]
            rem = Poly._of(ctx, _strip(low % ctx.p))
        return quot, rem

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
        """The substitution t -> zeta*t: coefficient i picks up zeta^i, a
        running product."""
        mul, power, codes = self.ctx.mul_codes, 1, []
        for c in self.codes:
            codes.append(mul(c, power))
            power = mul(power, zeta.code)
        return Poly(self.ctx, codes)

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.ctx.q, self.rows.tobytes()) == (other.ctx.q, other.rows.tobytes())

    def __hash__(self):
        return hash((self.ctx.q, self.rows.tobytes()))

    def to_coeff_vectors(self):
        """JSON form: one coordinate vector mod p per coefficient."""
        return self.rows.tolist()

    def pretty(self, var: str = "t") -> str:
        """Human-readable form, prime-field coefficients rendered as signed
        representatives in [-(p-1)/2, (p-1)/2], highest degree first."""
        out = ""
        for i, code in reversed(list(enumerate(self.codes))):
            digits = self.ctx.decode(code)
            if any(digits[1:]):
                sign, body = "+", f"({self.ctx.elem(code)})"
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

    The form is unique, so equality is component-wise equality.  There is
    no field arithmetic: callers compute on Poly numerators and denominators
    and build each result once, which takes the one gcd.
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
            num, den = num // g, den // g
        lead_inv = num.ctx.elem(den.lead_code).inverse()
        self.ctx, self.num, self.den = num.ctx, num.scale(lead_inv), den.scale(lead_inv)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _canonical(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap a pair already in canonical form, skipping the gcd."""
        out = object.__new__(cls)
        out.ctx, out.num, out.den = num.ctx, num, den
        return out

    # -- maps that keep the canonical form ----------------------------------

    def __neg__(self) -> "RatFunc":
        return RatFunc._canonical(-self.num, self.den)

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
