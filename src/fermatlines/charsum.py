"""The character-sum engine.

Central object: for c in F_q and a tuple (i0, i1, i2, i3) of residues mod d
summing to 0, the sum over the big field

    S_c = sum over x in F_{q^2} of chi(x^i0 * (x+1)^i1 * (x+c)^i2),

with chi the pinned order-d character (chi(g^m) = zeta_d^m) and chi(0) = 0.
A factor whose exponent is 0 mod d is absent: it contributes neither a
character value nor a vanishing condition.

Two exact integer routes give the counts vector of S_c, the multiset of
character exponents, as an element of Z[zeta_d]:

- ``_PlaneSweep`` sweeps the F_q-plane and is the one runtime route.  chi
  is trivial on F_q*, so x in F_q contributes 1 unless a present factor
  vanishes, and every other x is lambda(u + beta) for one lambda in F_q*,
  u in F_q, with beta = ctx.gen fixed outside F_q.  Pulling lambda = 1/v
  out of each factor,

      S_c = N0 + sum over v in F_q*, u in F_q of
                 zeta_d^(i0 psi(u) + i1 psi(u+v) + i2 psi(u+cv)),

  where psi(s) = e(s + beta) and N0 counts the x in F_q at which no present
  factor vanishes (none vanishes on the plane).  One q x q table of psi
  covers every c, so a sum costs q^2 - q table lookups and no F_{q^2}
  addition; the int16 tables hold the tail twice, so each c reads one
  contiguous slice.  ``sum_S``, ``survey_N``, ``quadratic_identity_check``,
  ``sum_over_c``, ``mod3_test`` and ``certify`` all use this route.
  For i != 0 mod d the counts of (i, i, i) are those of (1, 1, 1) pushed
  forward by k -> ik (``_pushforward``): ``sum_S`` reads a w-type tuple
  so from the (1, 1, 1) histogram at c, cached for the last (field, c)
  only, and ``certify`` from its own per-candidate histograms.
  ``survey_N`` and ``quadratic_identity_check`` reduce the counts of
  _BLOCK_ROWS values of c at a time in Z[zeta_d] (``cyc._canon_rows``) and
  read the integer value off the canon rows, with no CycElt per c.
  ``survey_N`` sweeps one c per orbit of c -> 1/c, c -> 1 - c and
  c -> c^p (see ``orbit``), plus c = 0 and c = 1, and copies each
  representative's integer value to its whole orbit.
- ``_sweep_counts`` sweeps all q^2 codes of F_{q^2}: per-code exponent
  tables for x, x+1, x+c are combined mod d and bucketed with bincount.
  It is the independent reference, used only by ``certify_general`` and
  the tests.

No floating point exists anywhere in this module.

Closed forms wired in as self-checks (violations raise ContradictionError):
degenerate sums S_0 and S_1 are Jacobi-sum values (q or -1); the sum of
S_c over all c in F_q is q(q-3) or (q-1)^2 depending on the tuple; and an
extremal count N = #{c : S_c = 2q} obeys 4N <= 3q-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyc import CycElt, _canon_rows, mod_ideal_class
from .gf import ContradictionError, FieldCtx, FqElem

__all__ = [
    "ExponentTuple",
    "SumRecord",
    "sum_S",
    "quadratic_identity_check",
    "sum_over_c",
    "orbit",
    "admissible_values",
    "is_admissible",
    "survey_N",
    "is_one_mod_3",
    "mod3_test",
    "iter_all_nonzero_tuples",
]


@dataclass(frozen=True)
class ExponentTuple:
    """A tuple (i0, i1, i2, i3) of residues mod d with i0+i1+i2+i3 = 0 mod d."""

    d: int
    i0: int
    i1: int
    i2: int
    i3: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be at least 2")
        for name in ("i0", "i1", "i2", "i3"):
            object.__setattr__(self, name, getattr(self, name) % self.d)
        if (self.i0 + self.i1 + self.i2 + self.i3) % self.d != 0:
            raise ValueError("tuple entries must sum to 0 mod d")

    @classmethod
    def trivial(cls, d: int) -> "ExponentTuple":
        return cls(d, 0, 0, 0, 0)

    @classmethod
    def w_type(cls, d: int, i: int) -> "ExponentTuple":
        """(i, i, i, -3i): the diagonal family; i = 0 gives the trivial tuple."""
        return cls(d, i, i, i, -3 * i)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.i0, self.i1, self.i2, self.i3)

    @property
    def all_nonzero(self) -> bool:
        return all(i % self.d != 0 for i in self.entries)

    @property
    def is_w_type(self) -> bool:
        return self.i0 == self.i1 == self.i2

    def scale(self, k: int) -> "ExponentTuple":
        """The tuple k*(i0,i1,i2,i3); with gcd(k,d) = 1 this is the Galois
        action matching galois_apply(sum_S(c, t), k) = sum_S(c, t.scale(k))."""
        return ExponentTuple(self.d, k * self.i0, k * self.i1, k * self.i2, k * self.i3)


@dataclass(frozen=True)
class SumRecord:
    """One computed character sum S_{c, (i0,i1,i2,i3)}."""

    c: FqElem
    tuple: ExponentTuple
    value: CycElt
    as_integer: int | None

    @property
    def q(self) -> int:
        return self.c.ctx.q

    @property
    def hit_upper(self) -> bool:
        """Whether the sum attains the Weil upper bound 2q exactly."""
        return self.as_integer == 2 * self.q

    @property
    def hit_lower(self) -> bool:
        return self.as_integer == -2 * self.q

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "c": "0" if self.c.is_zero else self.c.dlog,
            "tuple": list(self.tuple.entries),
            "value": list(self.value.canon),
            "as_integer": self.as_integer,
            "is_real": self.value.is_real,
            "hit_upper": self.hit_upper,
            "hit_lower": self.hit_lower,
        }


# ----------------------------------------------------------------------------
# the sweep core
# ----------------------------------------------------------------------------


def _sweep_counts(ctx: FieldCtx, factors) -> np.ndarray:
    """Counts vector of sum over x of chi(prod (x + shift_j)^{e_j}).

    factors is a list of (e_j, shift_code_j); entries with e_j = 0 mod d are
    ignored entirely (absent factor).  Returns a length-d int64 array whose
    k-th entry counts the x with total character exponent k; x at which any
    present factor vanishes are excluded (chi(0) = 0).
    """
    d = ctx.d
    n2 = ctx.q * ctx.q
    e_tab = ctx.dlog % d  # e(x) = dlog(x) mod d, with -1 marking x = 0
    e_tab[0] = -1
    tot = np.zeros(n2, dtype=np.int64)
    valid = np.ones(n2, dtype=bool)
    any_factor = False
    for e, shift in factors:
        e %= d
        if e == 0:
            continue
        any_factor = True
        tab = e_tab if shift == 0 else e_tab[ctx.add_perm(shift)]
        valid &= tab >= 0
        tot += e * tab  # e, tab < d, so the int32 product stays below d^2 <= 4M
    if not any_factor:
        # chi(1) summed over the whole field
        counts = np.zeros(d, dtype=np.int64)
        counts[0] = n2
        return counts
    return np.bincount(tot[valid] % d, minlength=d)


class _PlaneSweep:
    """Counts vectors of S_c for one tuple (i0, i1, i2), c running over F_q,
    by the plane substitution of the module docstring.

    counts(c) is entrywise equal to
    _sweep_counts(ctx, [(i0, 0), (i1, 1), (i2, c.code)]).  F_q is indexed by
    0 -> 0 and g^(d m) -> m + 1, so multiplying v by c adds dlog(c)/d to the
    index, cyclically on 1..q-1; and the table

        P[a, b] = psi(s_a + s_b)    (s_a the element of index a)

    holds every psi value a sweep reads: psi(u) = P[u, 0], psi(u + v) =
    P[u, v], psi(u + cv) = P[u, idx(cv)].  An instance keeps the head
    i0 psi(u) + i1 psi(u + v) over v = 1..q-1 and the tail i2 psi(u + cv),
    both int16 and reduced mod d.  The tail over columns 1..q-1 is stored
    twice side by side, so the columns of c = g^(d s) are the contiguous
    slice [s, s + q - 1) of the doubled tail; c = 0 reads column 0.  The
    tables take 6q^2 bytes (0.71 MB at q = 343, 24 MB at q = 1999); building
    them takes two transient int32 q x q arrays.  Callers build one per
    call; nothing is stored on the FieldCtx.
    """

    def __init__(self, ctx: FieldCtx, i0: int, i1: int, i2: int):
        q, d, p = ctx.q, ctx.d, ctx.p
        # head + tail is at most 2d - 2, summed and binned in int16
        if 2 * d - 1 >= 2**15:
            raise ValueError(f"d = {d} is too large for the int16 plane tables")
        i0, i1, i2 = i0 % d, i1 % d, i2 % d
        # codes of F_q in index order, as base-p digits
        codes = np.concatenate(([0], ctx.exp[::d])).astype(np.int32)
        units = p ** np.arange(ctx.deg, dtype=np.int32)
        digits = codes[:, None] // units % p
        beta = np.array(ctx.decode(ctx.g_code), dtype=np.int32)
        plane = np.zeros((q, q), dtype=np.int32)  # codes of s_a + s_b + beta
        for j, unit in enumerate(units):
            plane += (digits[:, None, j] + digits[None, :, j] + beta[j]) % p * unit
        P = ctx.dlog[plane]  # int32 gather: dlog values are below q^2 <= 4M
        del plane  # freed before the tables below
        P %= d
        self.q, self.d = q, d
        # exponent of x^i0 (x+1)^i1 at (u, v); i0, i1 and P are below d, so
        # the int32 sum stays below 2d^2
        head = i1 * P[:, 1:]
        head += i0 * P[:, :1]
        head %= d
        self._head = head.astype(np.int16)
        del head
        if i2 != 1:  # P is already reduced, so i2 = 1 needs neither pass
            P *= i2  # i2 * P < d^2 in int32
            P %= d
        tail = P.astype(np.int16)
        del P
        self._tail0 = tail[:, :1].copy()
        self._tail2 = np.concatenate((tail[:, 1:], tail[:, 1:]), axis=1)
        # x in F_q at which x^i0, (x+1)^i1 or (x+c)^i2 is present and vanishes
        self._zeros = {code for code, e in ((0, i0), (ctx.neg_code(1), i1)) if e}
        self._neg_c = ctx.neg_code if i2 else None

    def counts(self, c: FqElem) -> np.ndarray:
        """The length-d int64 counts vector of S_c; c must lie in F_q."""
        q, d = self.q, self.d
        if c.is_zero:
            tail = self._tail0
        else:
            s = c.dlog // d
            tail = self._tail2[:, s : s + q - 1]
        tot = np.bincount((self._head + tail).ravel(), minlength=2 * d)
        counts = tot[:d] + tot[d:]
        zeros = self._zeros
        if self._neg_c is not None:
            zeros = zeros | {self._neg_c(c.code)}
        counts[0] += q - len(zeros)
        return counts


def _pushforward(counts: np.ndarray, idx) -> np.ndarray:
    """counts pushed forward by k -> i*k mod d, for each i in idx.

    For i != 0 mod d this turns the counts vector of (1, 1, 1) into that of
    (i, i, i): every exponent scales by i and the vanishing set is the same.
    It is an exact recomputation, valid for non-units i too.  idx is an
    index array, giving one row per index from a single np.add.at, or one
    integer, giving one vector.
    """
    d = len(counts)
    idx = np.asarray(idx, dtype=np.int64)
    targets = idx.reshape(-1, 1) * np.arange(d) % d
    out = np.zeros(targets.shape, dtype=np.int64)
    np.add.at(out, (np.arange(len(targets))[:, None], targets), counts)
    return out.reshape(idx.shape + (d,))


@lru_cache(maxsize=1)
def _w_histogram(ctx: FieldCtx, code: int) -> np.ndarray:
    # the read-only (1, 1, 1) counts vector at c; the w-type sums of one c,
    # such as the pairings of one line, share it, and only the last c is kept
    counts = _PlaneSweep(ctx, 1, 1, 1).counts(FqElem(ctx, code))
    counts.flags.writeable = False
    return counts


def sum_S(ctx: FieldCtx, c: FqElem, t: ExponentTuple) -> SumRecord:
    """S_{c, t} = sum over x in F_{q^2} of chi(x^i0 (x+1)^i1 (x+c)^i2),
    read off the F_q-plane.

    c must lie in the subfield F_q; t must belong to the same d = q+1.
    Degenerate c (0 and 1) are allowed — those are the Jacobi-sum cases.
    A w-type t = (i, i, i, -3i) with i != 0 mod d is the (1, 1, 1) histogram
    at c pushed forward by k -> ik; every other t, the trivial one
    included, sweeps its own plane.
    """
    if not isinstance(c, FqElem) or c.ctx is not ctx:
        raise ValueError("c must be an element of this field context")
    if not c.in_fq:
        raise ValueError("c must lie in the subfield F_q")
    if t.d != ctx.d:
        raise ValueError(f"tuple has d = {t.d}, field context has d = {ctx.d}")
    if t.is_w_type and t.i0:
        counts = _pushforward(_w_histogram(ctx, c.code), t.i0)
    else:
        counts = _PlaneSweep(ctx, t.i0, t.i1, t.i2).counts(c)
    value = CycElt.batch(ctx.d, counts[None])[0]
    return SumRecord(c=c, tuple=t, value=value, as_integer=value.as_integer)


# c per reduction block of survey_N and quadratic_identity_check: the block
# is _BLOCK_ROWS x d int64, 4 MB at q = 1999
_BLOCK_ROWS = 256


def _integer_values(sweep: _PlaneSweep, elements: list[FqElem]):
    """Yield (c, S_c) for each c in elements, S_c as an int, or None when it
    is not rational.  The counts rows fill a preallocated block that is
    reduced in Z[zeta_d] by one ``_canon_rows`` call."""
    d = sweep.d
    block = np.empty((_BLOCK_ROWS, d), dtype=np.int64)
    for start in range(0, len(elements), _BLOCK_ROWS):
        chunk = elements[start : start + _BLOCK_ROWS]
        for r, c in enumerate(chunk):
            block[r] = sweep.counts(c)
        canon = _canon_rows(d, block[: len(chunk)])
        rational = (canon[:, 1:] == 0).all(axis=1).tolist()
        for c, is_int, value in zip(chunk, rational, canon[:, 0].tolist()):
            yield c, value if is_int else None


# ----------------------------------------------------------------------------
# closed-form identities
# ----------------------------------------------------------------------------


def quadratic_identity_check(ctx: FieldCtx, order: int) -> dict:
    """Sum over x of chi(x(x+c)) for every c in F_q*, chi of the given order.

    The value must be q when the order exceeds 2 and -1 when the order is
    exactly 2.  Returns a report dict; any failing c is listed (and would
    indicate a bug, since the identity is unconditional).
    """
    d = ctx.d
    if order <= 1 or d % order != 0:
        raise ValueError(f"order must divide d = {d} and exceed 1")
    e = d // order
    expected = ctx.q if order > 2 else -1
    units = [c for c in ctx.fq_elements() if not c.is_zero]
    failed = [
        c.code
        for c, value in _integer_values(_PlaneSweep(ctx, e, 0, e), units)
        if value != expected
    ]
    checked = len(units)
    return {
        "order": order,
        "expected": expected,
        "checked": checked,
        "passed": checked - len(failed),
        "failed": failed,
    }


def sum_over_c(ctx: FieldCtx, t: ExponentTuple) -> CycElt:
    """Sum of S_{c,t} over all c in F_q, for an all-nonzero tuple.

    The total is the integer q(q-3) when i0 + i1 != 0 mod d, and (q-1)^2
    when i0 + i1 = 0 mod d; a mismatch raises ContradictionError.
    """
    if not t.all_nonzero:
        raise ValueError("sum_over_c requires a tuple with all entries nonzero")
    sweep = _PlaneSweep(ctx, t.i0, t.i1, t.i2)
    total = CycElt(ctx.d, sum(sweep.counts(c) for c in ctx.fq_elements()).tolist())
    q = ctx.q
    expected = (q - 1) ** 2 if (t.i0 + t.i1) % ctx.d == 0 else q * (q - 3)
    if not total.equals_integer(expected):
        raise ContradictionError(
            f"sum over c of S_c = {total} but the closed form gives {expected}"
        )
    return total


# ----------------------------------------------------------------------------
# orbits and admissibility
# ----------------------------------------------------------------------------


def orbit(c: FqElem) -> set[FqElem]:
    """The fractional-linear orbit {c, 1/c, 1-c, 1-1/c, 1/(1-c), 1/(1-1/c)}.

    S_c is constant on this orbit for w-type tuples (i, i, i, -3i): chi is
    trivial on F_q*, so x -> c x gives S_c = S_{1/c}, and x -> -1 - x gives
    S_c = S_{1-c}.  Size 6 generically; smaller when values coincide (c = 2
    gives the 3-element case).

    The p-power Frobenius joins these orbits further: x -> x^p permutes
    F_{q^2} and chi(x^p) = chi(x)^p, so S_{c^p} = sigma_p(S_c) with sigma_p
    the automorphism zeta_d -> zeta_d^p (gcd(p, d) = 1).  sigma_p fixes
    every integer, so whether S_c is rational, and its value if so, is
    constant on the union of the orbits of c, c^p, c^(p^2), ...  (see
    ``_survey_orbits``).
    """
    if not c.in_fq:
        raise ValueError("c must lie in F_q")
    if c.is_zero or c == 1:
        raise ValueError("orbit requires c outside {0, 1}")
    one = c.ctx.one
    cinv = c.inverse()
    return {
        c,
        cinv,
        one - c,
        one - cinv,
        (one - c).inverse(),
        (one - cinv).inverse(),
    }


def is_admissible(c: FqElem) -> bool:
    """Whether c = b^2 for some line: b outside F_q with a^2 + 1 = b^2, a in F_q.

    Equivalently: c is a non-square of F_q and c - 1 is a nonzero square of
    F_q.
    """
    if c.is_zero or not c.in_fq or c.is_square_in_fq():
        return False
    cm1 = c - 1
    return not cm1.is_zero and cm1.is_square_in_fq()


def admissible_values(ctx: FieldCtx) -> list[FqElem]:
    """All admissible c (see ``is_admissible``), ordered by ascending dlog
    (the deterministic scan order used by certificate searches).  For
    q = 1 mod 4 the count is exactly (q-1)/4.

    One pass over F_q* in dlog order: c = g^(d m) is a nonsquare exactly
    when m is odd, and c - 1 comes from ``shift_codes``.
    """
    d = ctx.d
    codes = ctx.exp[::d].astype(np.int64)  # codes[m] = g^(d m)
    cm1 = ctx.shift_codes(codes, ctx.neg_code(1))
    nonsquare = np.arange(len(codes)) % 2 == 1
    keep = nonsquare & (cm1 != 0) & (ctx.dlog[cm1] // d % 2 == 0)
    return [FqElem(ctx, code) for code in codes[keep].tolist()]


# ----------------------------------------------------------------------------
# extremal survey
# ----------------------------------------------------------------------------


def _survey_orbits(ctx: FieldCtx) -> dict[int, FqElem]:
    """Map each code of F_q to the representative of its orbit under the
    group generated by c -> 1/c, c -> 1 - c and c -> c^p.

    0 and 1 are their own representatives; any other orbit is the union of
    ``orbit`` over c, c^p, ..., c^(p^(k-1)) (Frobenius commutes with the
    fractional-linear maps), represented by its smallest code.
    """
    rep = {0: ctx.zero, 1: ctx.one}
    for c in ctx.fq_elements():
        if c.code in rep:
            continue
        conj = c
        for _ in range(ctx.k):
            for m in orbit(conj):
                rep[m.code] = c
            conj = conj ** ctx.p
    return rep


def survey_N(ctx: FieldCtx, order: int):
    """Count c in F_q with sum over x of chi(x(x+1)(x+c)) equal to 2q.

    chi here has exact order `order` (a divisor of d exceeding 2), realized
    as the (d/order)-th power of the pinned base character.  Returns
    (N, hits, misses_sign): the count, the c attaining +2q, and the c
    attaining -2q, each list in ascending element-code order.  The bound
    4N <= 3q - 9 is asserted (ContradictionError on violation).

    Only c = 0, c = 1 and one c per orbit of c -> 1/c, c -> 1 - c and
    c -> c^p are swept (``_survey_orbits``); the integer value of S_c, or
    its absence, is the same on a whole orbit (see ``orbit``).
    """
    d = ctx.d
    if order <= 2 or d % order != 0:
        raise ValueError(f"order must divide d = {d} and exceed 2")
    e = d // order
    q = ctx.q
    rep = _survey_orbits(ctx)
    reps = [c for c in ctx.fq_elements() if rep[c.code] == c]
    sweep = _PlaneSweep(ctx, e, e, e)
    value = {c.code: v for c, v in _integer_values(sweep, reps)}
    hits, misses = [], []
    for c in ctx.fq_elements():
        v = value[rep[c.code].code]
        if v == 2 * q:
            hits.append(c)
        elif v == -2 * q:
            misses.append(c)
    N = len(hits)
    if 4 * N > 3 * q - 9:
        raise ContradictionError(f"N = {N} exceeds the certified bound (3q-9)/4 at q = {q}")
    return N, hits, misses


# ----------------------------------------------------------------------------
# the mod-3 obstruction
# ----------------------------------------------------------------------------


def mod3_test(ctx: FieldCtx, c: FqElem, t: ExponentTuple) -> bool:
    """Whether S_{c,t} = 1 mod 3*Z[zeta_d] — which forces S != 2q.

    Preconditions: q = 7 mod 12, c a primitive 6th root of unity in F_q
    (i.e. c = b^2 for b a primitive 12th root of unity), and t a w-type
    tuple with nonzero entries.  Under these hypotheses the congruence is
    a theorem; this function recomputes it from scratch.
    """
    if ctx.q % 12 != 7:
        raise ValueError("mod3_test requires q = 7 mod 12")
    if not c.in_fq or c.is_zero or c.multiplicative_order() != 6:
        raise ValueError("c must be a primitive 6th root of unity in F_q")
    if not (t.is_w_type and t.all_nonzero):
        raise ValueError("mod3_test requires a w-type tuple with nonzero entries")
    return is_one_mod_3(sum_S(ctx, c, t).value)


def is_one_mod_3(s: CycElt) -> bool:
    """Whether s = 1 mod 3*Z[zeta_d]."""
    residue = mod_ideal_class(s, 3)
    return residue == (1,) + (0,) * (len(residue) - 1)


# ----------------------------------------------------------------------------
# tuple enumeration helpers
# ----------------------------------------------------------------------------


def iter_all_nonzero_tuples(d: int):
    """All tuples (i0,i1,i2,i3) of nonzero residues mod d summing to 0."""
    for i0 in range(1, d):
        for i1 in range(1, d):
            for i2 in range(1, d):
                i3 = (-(i0 + i1 + i2)) % d
                if i3 != 0:
                    yield ExponentTuple(d, i0, i1, i2, i3)
