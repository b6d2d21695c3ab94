"""Lines on the degree-d Fermat surface, the torus action, and exact
Neron-Severi inner products of character projections.

A line here is the one-parameter family

    [u:v] -> [u : v : au + bv : av + bu],   a in F_q, b outside F_q,
                                            a^2 + 1 = b^2,

inside the surface x0^d + x1^d + x2^d + x3^d = 0, d = q + 1.  The torus
T = mu_d^4 / (diagonal mu_d) acts coordinatewise; elements are normalized
to representatives [t0 : t1 : t2 : 1].

For a character lambda of T given by a tuple (i0,i1,i2,i3) summing to 0
mod d, the self-pairing of the lambda-projection of a line L satisfies

    d^3 <L_l, L_l> = 2 - d + sum over t in I_L of lambda^{-1}(t),

where I_L is the set of torus translates meeting L.  I_L decomposes into
4(d-1) elements with three coordinates 1 plus q^2 - q elements indexed by
gamma with trace(gamma) != 0, via a closed form.  build_intersections
evaluates that closed form on the dlog table over all gamma at once and
keeps I_L as an int64 array of nu-exponent rows (e0, e1, e2), one per
element [g_d^e0 : g_d^e1 : g_d^e2 : 1]; the lambda^{-1} sum is then one
bincount of -(e0 i0 + e1 i1 + e2 i2) mod d.  No TorusElt is built on that
route: TorusElt serves the decoded views and the geometric oracle.
Independently, the same quantity equals -2q + S_{b^2, (i0,i1,i2)} with S
the character sum of the companion module.  Both routes are implemented
in full and compared exactly; no step is shared between them past the
field tables.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .charsum import ExponentTuple, is_admissible, sum_S
from .cyc import CycElt
from .gf import (
    ContradictionError,
    FieldCtx,
    FqElem,
    NonRationalError,
    in_mu_d,
    primitive_root_of_unity,
)

__all__ = [
    "Line",
    "TorusElt",
    "IntersectionSet",
    "lines_for_c",
    "line_for_thm1",
    "build_intersections",
    "geometric_intersection_oracle",
    "w_tuples",
    "inner_product_direct",
    "inner_product_via_charsum",
    "direct_numerator",
    "charsum_numerator",
]


class Line:
    """The line L_{a,b}: [u:v] -> [u : v : au+bv : av+bu] on the surface.

    Requires a in F_q (necessarily nonzero), b outside F_q, a^2 + 1 = b^2.
    alpha = -b/a and beta = 1/a are the reparametrization constants used by
    the point construction.
    """

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: FieldCtx, a: FqElem, b: FqElem):
        if a.ctx is not ctx or b.ctx is not ctx:
            raise ValueError("line coordinates must belong to the given field context")
        if a.is_zero or not a.in_fq:
            raise ValueError("a must be a nonzero element of F_q")
        if b.in_fq:
            raise ValueError("b must lie outside F_q")
        if a * a + 1 != b * b:
            raise ValueError("line requires a^2 + 1 = b^2")
        self.ctx = ctx
        self.a = a
        self.b = b

    @property
    def alpha(self) -> FqElem:
        return -(self.b / self.a)

    @property
    def beta(self) -> FqElem:
        return self.a.inverse()

    @property
    def c(self) -> FqElem:
        """b^2, the admissible value this line witnesses."""
        return self.b * self.b

    def parametrize(self, u: FqElem, v: FqElem):
        """The surface point [u : v : au+bv : av+bu] as a coordinate 4-tuple."""
        a, b = self.a, self.b
        return (u, v, a * u + b * v, a * v + b * u)

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return self.ctx is other.ctx and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((id(self.ctx), self.a.code, self.b.code))

    def __repr__(self):
        return f"Line(a={self.a}, b={self.b})"


def lines_for_c(ctx: FieldCtx, c: FqElem) -> list[Line]:
    """All lines with b^2 = c, ordered by (dlog a, dlog b).

    Empty exactly when c is not admissible (``charsum.is_admissible``).
    """
    if not is_admissible(c):
        return []
    cm1 = c - 1
    # a ranges over the square roots of c - 1 in F_q, b over those of c.
    # c - 1 is a nonzero square of F_q, so its dlog is d times an even number
    # and halving it stays in F_q.
    b0 = ctx.elem(int(ctx.exp[c.dlog // 2]))
    a0 = ctx.elem(int(ctx.exp[cm1.dlog // 2]))
    if not a0.in_fq or a0 * a0 != cm1:
        raise ContradictionError("square root of c - 1 failed to land in F_q")
    out = [Line(ctx, a, b) for a in (a0, -a0) for b in (b0, -b0)]
    out.sort(key=lambda L: (L.a.dlog, L.b.dlog))
    return out


def line_for_thm1(ctx: FieldCtx) -> Line:
    """The pinned single-line generator witness for q = 7 mod 12.

    b is the smallest-code primitive 12th root of unity and a = b^2; then
    a is a primitive 6th root of unity and a^2 + 1 = b^2 holds identically
    (a^2 - a + 1 = 0).
    """
    if ctx.q % 12 != 7:
        raise ValueError("the single-line construction requires q = 7 mod 12")
    # the elements of order 12 are exactly the unit powers of a primitive one
    zeta12 = primitive_root_of_unity(ctx, 12)
    b = min((zeta12**u for u in (1, 5, 7, 11)), key=lambda x: x.code)
    return Line(ctx, b * b, b)


class TorusElt:
    """An element of T = mu_d^4 / mu_d in its normal form [t0 : t1 : t2 : 1]."""

    __slots__ = ("t0", "t1", "t2")

    def __init__(self, t0: FqElem, t1: FqElem, t2: FqElem):
        ctx = t0.ctx
        for t in (t0, t1, t2):
            if t.is_zero or not in_mu_d(ctx, t):
                raise ValueError("torus coordinates must be d-th roots of unity")
        self.t0 = t0
        self.t1 = t1
        self.t2 = t2

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "TorusElt":
        return cls(ctx.one, ctx.one, ctx.one)

    @classmethod
    def from_quad(cls, t0: FqElem, t1: FqElem, t2: FqElem, t3: FqElem) -> "TorusElt":
        """Normalize an arbitrary representative [t0:t1:t2:t3] to t3 = 1."""
        inv = t3.inverse()
        return cls(t0 * inv, t1 * inv, t2 * inv)

    @property
    def coords(self):
        return (self.t0, self.t1, self.t2)

    @property
    def is_identity(self) -> bool:
        return self.t0 == 1 and self.t1 == 1 and self.t2 == 1

    @property
    def in_TE(self) -> bool:
        """Membership in the subgroup T_E: t0*t1*t2 = t3^3 = 1."""
        return self.t0 * self.t1 * self.t2 == 1

    def inverse(self) -> "TorusElt":
        return TorusElt(self.t0.inverse(), self.t1.inverse(), self.t2.inverse())

    def nu_exponents(self) -> tuple[int, int, int]:
        """(e0, e1, e2) with t_j = g_d^{e_j}; lambda(t) = zeta^{sum i_j e_j}."""
        ctx = self.t0.ctx
        q1 = ctx.q - 1
        out = []
        for t in self.coords:
            out.append(0 if t == 1 else (t.dlog // q1) % ctx.d)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, TorusElt):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.t0.code, self.t1.code, self.t2.code))

    def __repr__(self):
        return f"TorusElt({self.t0}, {self.t1}, {self.t2})"


class IntersectionSet:
    """The translates t with L meeting tL, as rows of nu-exponents.

    exps is a read-only int64 array with one row (e0, e1, e2) per element
    t = [g_d^e0 : g_d^e1 : g_d^e2 : 1] of I_L, entries in [0, d).  The
    first 4(d-1) rows are the three-entry block, four rows per m = 1..d-1:
    (m,0,0), (0,m,0), (0,0,m), (-m,-m,-m).  The remaining q^2 - q rows are
    the gamma block: the row after the three-entry block by j belongs to
    the gamma of code gammas[j], and gammas runs over the codes of
    trace(gamma) != 0 in ascending order.  The rows are distinct and none
    is (0, 0, 0).

    three_entry and gamma_indexed decode the rows to TorusElt afresh on
    each access; the tests and the geometric oracle read them, the
    inner-product route reads exps alone.
    """

    __slots__ = ("ctx", "exps", "gammas")

    def __init__(self, ctx: FieldCtx, exps: np.ndarray, gammas: np.ndarray):
        self.ctx = ctx
        self.exps = exps
        self.gammas = gammas
        exps.flags.writeable = False
        gammas.flags.writeable = False

    def __len__(self):
        return len(self.exps)

    def _decode(self, rows) -> list[TorusElt]:
        ctx = self.ctx
        codes = ctx.exp[(ctx.q - 1) * rows].tolist()
        return [TorusElt(*(FqElem(ctx, c) for c in row)) for row in codes]

    @property
    def three_entry(self) -> tuple[TorusElt, ...]:
        return tuple(self._decode(self.exps[: len(self.exps) - len(self.gammas)]))

    @property
    def gamma_indexed(self) -> Mapping[FqElem, TorusElt]:
        """gamma -> t_gamma for every gamma with trace(gamma) != 0."""
        ctx = self.ctx
        gammas = (FqElem(ctx, c) for c in self.gammas.tolist())
        rows = self.exps[len(self.exps) - len(self.gammas) :]
        return MappingProxyType(dict(zip(gammas, self._decode(rows))))

    def all_elements(self):
        yield from self._decode(self.exps)

    def lambda_inv_sum(self, t: ExponentTuple) -> CycElt:
        """Sum over I_L of lambda^{-1}(t) as an exact cyclotomic integer."""
        d = t.d
        counts = np.bincount(-(self.exps @ (t.i0, t.i1, t.i2)) % d, minlength=d)
        return CycElt(d, counts.tolist())


def build_intersections(ctx: FieldCtx, L: Line) -> IntersectionSet:
    """Enumerate I_L by the closed form, as nu-exponent rows, and verify its
    counting invariants.

    The three-entry block holds, for each nontrivial d-th root z, the four
    normalized representatives (z,1,1), (1,z,1), (1,1,z), (z^-1,z^-1,z^-1).
    The gamma block holds, for each gamma with trace(gamma) != 0, the
    inverse of [-gamma^(q-1) : 1 : -(a*gamma+b)^(q-1) : (a+b*gamma)^(q-1)].
    With l = dlog, x^(q-1) = g_d^l(x) and -1 = g_d^(d/2), so t_gamma is the
    row (-(d/2 + l(gamma) - l(a+b gamma)), l(a+b gamma),
    -(d/2 + l(a gamma+b) - l(a+b gamma))) mod d, and trace(gamma) != 0 is
    exactly gamma != 0 with l(gamma) != d/2 mod d.  a*gamma + b is read as
    a*(gamma + b/a) and a + b*gamma as b*(gamma + a/b), with both sums
    taken digit by digit over the whole code array (FieldCtx.shift_codes).

    Raises ContradictionError if a*gamma + b or a + b*gamma vanishes, any
    element repeats, the identity shows up, or the cardinalities are off --
    all of which are proved impossible.
    """
    q, d = ctx.q, ctx.d
    half = d // 2
    m = np.arange(1, d, dtype=np.int64)
    three = np.zeros((d - 1, 4, 3), dtype=np.int64)
    for j in range(3):
        three[:, j, j] = m
    three[:, 3, :] = (d - m)[:, None]
    three = three.reshape(-1, 3)

    # codes 1.. with dlog(gamma) != d/2 mod d: the gammas of nonzero trace
    gammas = np.flatnonzero(ctx.dlog[1:] % d != half).astype(np.int64) + 1
    n = q * q - 1
    la, lb = L.a.dlog, L.b.dlog
    shifted_ab = ctx.shift_codes(gammas, int(ctx.exp[(lb - la) % n]))  # gamma + b/a
    shifted_ba = ctx.shift_codes(gammas, int(ctx.exp[(la - lb) % n]))  # gamma + a/b
    if not (shifted_ab.all() and shifted_ba.all()):
        raise ContradictionError(
            f"a*gamma + b or a + b*gamma vanished at a gamma of nonzero trace (q={q})"
        )
    l_g = ctx.dlog[gammas].astype(np.int64)
    l_agb = la + ctx.dlog[shifted_ab].astype(np.int64)  # l(a*gamma + b)
    l_abg = lb + ctx.dlog[shifted_ba].astype(np.int64)  # l(a + b*gamma)
    gamma_rows = np.stack(
        (-(half + l_g - l_abg), l_abg, -(half + l_agb - l_abg)), axis=1
    ) % d

    if len(three) != 4 * (d - 1):
        raise ContradictionError("three-entry family has the wrong size")
    if len(gamma_rows) != q * q - q:
        raise ContradictionError("gamma family has the wrong size")
    exps = np.concatenate((three, gamma_rows))
    # sorted keys e0 d^2 + e1 d + e2: a repeated row shows as equal
    # neighbours (np.unique would do, but imports numpy.ma on first use)
    keys = np.sort(exps @ (d * d, d, 1))
    if (keys[1:] == keys[:-1]).any():
        raise ContradictionError("repetition inside I_L")
    if not keys.all():
        raise ContradictionError("identity appeared in I_L")
    return IntersectionSet(ctx, exps, gammas)


def geometric_intersection_oracle(ctx: FieldCtx, L: Line, t: TorusElt) -> int:
    """Count parameters [u:v] on L witnessing a point of (tL union t^-1 L).

    Scans all of P^1(F_{q^2}): the parametrized point P(u,v) lies on tL
    iff t^-1 P satisfies the two linear equations cutting out L (and
    symmetrically for t^-1 L).  Values: 0 (no meeting), 1 (one common
    point seen from both sides by the same parameter), 2 (a gamma-type
    meeting, witnessed by two parameters), and q^2 + 1 exactly for the
    identity (the self-intersection marker).
    """
    a, b = L.a, L.b

    def on_L(x0, x1, x2, x3) -> bool:
        return x2 == a * x0 + b * x1 and x3 == a * x1 + b * x0

    ti = t.inverse()

    def witnessed(u, v) -> bool:
        x0, x1, x2, x3 = L.parametrize(u, v)
        for s in (t, ti):
            if on_L(x0 * s.t0.inverse(), x1 * s.t1.inverse(), x2 * s.t2.inverse(), x3):
                return True
        return False

    count = 0
    one = ctx.one
    if witnessed(ctx.zero, one):
        count += 1
    for v in ctx.elements():
        if witnessed(one, v):
            count += 1
    return count


@lru_cache(maxsize=None)
def w_tuples(d: int) -> tuple[ExponentTuple, ...]:
    """The trivial tuple plus the diagonal family (i,i,i,-3i), 3i != 0 mod d.

    These index the characters whose projections span the relevant
    subspace; the count is d when 3 does not divide d, else d - 2.  The
    tuples are built once per d.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    return tuple(ExponentTuple.w_type(d, i) for i in range(d) if i == 0 or (3 * i) % d)


# ----------------------------------------------------------------------------
# inner products, two ways
# ----------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _intersections_of(ctx: FieldCtx, L: Line) -> IntersectionSet:
    # the tuples of one line share its I_L; only the last line is kept
    return build_intersections(ctx, L)


def direct_numerator(ctx: FieldCtx, L: Line, t: ExponentTuple) -> CycElt:
    """d^3 <L_l, L_l> as a cyclotomic integer, by full I_L enumeration.

    I_L is built once per line: consecutive calls on the same line reuse it.
    """
    iset = _intersections_of(ctx, L)
    return iset.lambda_inv_sum(t) + (2 - ctx.d)


def charsum_numerator(ctx: FieldCtx, L: Line, t: ExponentTuple) -> CycElt:
    """d^3 <L_l, L_l> as a cyclotomic integer, via S_{b^2, (i0,i1,i2)}.

    Valid only for tuples with all entries nonzero.
    """
    if not t.all_nonzero:
        raise ValueError("the character-sum route requires a tuple with nonzero entries")
    record = sum_S(ctx, L.c, t)
    return record.value + (-2 * ctx.q)


def _as_fraction(numerator: CycElt, d: int) -> Fraction:
    n = numerator.as_integer
    if n is None:
        raise NonRationalError(
            f"inner-product numerator {numerator} is not a rational integer"
        )
    return Fraction(n, d**3)


def inner_product_direct(ctx: FieldCtx, L: Line, t: ExponentTuple) -> Fraction:
    """<L_l, L_l> = (2 - d + sum over I_L of lambda^-1) / d^3, exactly.

    Defined for every tuple: the trivial tuple gives 1/d.  Raises
    NonRationalError when the cyclotomic total is not a rational integer.
    """
    return _as_fraction(direct_numerator(ctx, L, t), ctx.d)


def inner_product_via_charsum(ctx: FieldCtx, L: Line, t: ExponentTuple) -> Fraction:
    """<L_l, L_l> = (-2q + S_{b^2, (i0,i1,i2)}) / d^3, exactly.

    Requires a tuple with all entries nonzero; raises NonRationalError
    when S is not a rational integer.
    """
    return _as_fraction(charsum_numerator(ctx, L, t), ctx.d)
