"""Arithmetic in the tower F_p < F_q < F_{q^2}, with q = p^k and d = q + 1.

The double extension F_{q^2} is realized as a single extension
F_p[w]/(modulus), where modulus is the lexicographically smallest monic
irreducible polynomial of degree 2k over F_p, coefficients compared
low-degree-first as integers in [0, p).  Elements are encoded as integer
codes in [0, p^{2k}): the base-p digits of the code are the coordinates
with respect to the power basis 1, w, ..., w^{2k-1}.  Code 0 is the zero
element, code 1 is the unit.

All multiplicative structure is table-driven.  A generator g of F_{q^2}^*
is fixed deterministically (the element of smallest code whose
multiplicative order is q^2 - 1) and two tables are built once per field:

    exp[m]  = code of g^m            for 0 <= m < q^2 - 1
    dlog[x] = m with g^m = x, or -1  for codes x (dlog[0] = -1)

Both are read-only int32 arrays (q^2 <= SIZE_CAP = 4M fits).  The whole
build runs on 2k x 2k matrices over F_p, in int64: multiplication by w is
the companion matrix C of the modulus, and multiplication by an element
with digits v is sum_j v_j C^j.  The modulus scan tests each candidate by
Rabin's criterion on its C (_is_irreducible), skipping the candidates with
constant term 0, which are all divisible by w; the generator scan powers
the matrices of 8 candidates at a time, as one stack.  exp is built in
numpy blocks with the generator's matrix A, one matrix product advancing a
whole block of digit vectors at a time (see _build_tables), and dlog is
filled by scatter.

In this encoding the subgroups in play are transparent: x = g^m lies in
the middle field F_q iff d | m, and x lies in mu_d (the d-th roots of
unity) iff (q-1) | m, since mu_d is generated by g_d := g^(q-1).

The order-d character chi on F_{q^2}^* is pinned by chi(g^m) = zeta_d^m,
i.e. chi(x) = nu(x^(q-1)) where nu maps the mu_d generator g_d to zeta_d.
chi is extended by chi(0) = 0; functions here signal the zero of the
target ring with the marker value None rather than an exponent.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "ContradictionError",
    "NonRationalError",
    "SIZE_CAP",
    "FieldCtx",
    "FqElem",
    "make_field",
    "check_field",
    "prime_power",
    "frobenius",
    "in_mu_d",
    "chi_exp",
    "find_ab_pairs",
    "primitive_root_of_unity",
]

# Largest permitted q^2; bounds the exp/dlog table memory.
SIZE_CAP = 4_000_000


class ContradictionError(RuntimeError):
    """Exact arithmetic contradicted an identity that is guaranteed to hold.

    Raised when a computation violates a proved closed form or invariant
    (intersection multiset sizes, Weil bounds, certified-sum facts, ...).
    Always indicates a bug or a misused precondition, never bad luck.
    """


class NonRationalError(ContradictionError):
    """A cyclotomic total that was asked for as a rational is not rational."""


# ----------------------------------------------------------------------------
# integers, and the matrices over F_p that build the field
# ----------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _code_digits(code: int, p: int, n: int) -> list[int]:
    """The n base-p digits of code, low first."""
    out = []
    for _ in range(n):
        out.append(code % p)
        code //= p
    return out


def _companion(coeffs, p: int) -> np.ndarray:
    """The n x n matrix C over F_p of multiplication by w modulo the monic
    w^n + sum_i coeffs[i] w^i.  Row i holds the digits of w^(i+1), so a row
    vector of digits times C is the digits of x * w (the convention of
    _build_tables)."""
    C = np.eye(len(coeffs), k=1, dtype=np.int64)
    C[-1] = [-c % p for c in coeffs]
    return C


def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p by square-and-multiply, in int64, for one matrix or a stack.

    Every factor has entries below p, so an entry of a product is a sum of
    n terms below p^2.  Under SIZE_CAP, n = 2k <= 8 and p < 2000, so every
    sum is below 8 * 1999^2 < 2^35 and nothing overflows."""
    R = np.eye(M.shape[-1], dtype=np.int64)
    while e:
        if e & 1:
            R = R @ M % p
        M = M @ M % p
        e >>= 1
    return R


def _is_irreducible(coeffs, p: int) -> bool:
    """Whether the monic f = w^n + sum_i coeffs[i] w^i is irreducible over
    F_p: Rabin's test on the companion matrix C, with no gcd.

    Rabin: f is irreducible iff f | w^(p^n) - w and, for each prime r | n,
    gcd(w^(p^(n/r)) - w, f) = 1.  The first condition is C^(p^n) = C.  It
    makes f squarefree with every factor's degree dividing n, so
    R = F_p[w]/(f) is a product of fields F_(p^e) with e | n, and h in R is a
    unit exactly when h^(p^n - 1) = 1.  The gcd is 1 exactly when
    h = w^(p^(n/r)) - w is a unit, so the second condition becomes
    (C^(p^(n/r)) - C)^(p^n - 1) = I.  No tested f needs the first check,
    but the unit argument does: without it R may have nilpotents, or fields
    whose unit groups' orders do not divide p^n - 1, and h^(p^n - 1) = 1 no
    longer says whether h is a unit."""
    n = len(coeffs)
    C = _companion(coeffs, p)
    frob = [C]  # frob[j] = C^(p^j)
    for _ in range(n):
        frob.append(_mat_pow(frob[-1], p, p))
    if not np.array_equal(frob[n], C):
        return False
    eye = np.eye(n, dtype=np.int64)
    return all(
        np.array_equal(_mat_pow((frob[n // r] - C) % p, p**n - 1, p), eye)
        for r in _prime_factors(n)
    )


def _lex_smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Non-leading coefficients of the lex-least monic irreducible of degree n.

    Candidates are ordered by the tuple (c_0, c_1, ..., c_{n-1}) of
    non-leading coefficients, compared left to right.  The scan starts at
    c_0 = 1: for n >= 2 a monic f with f(0) = 0 is divisible by x, so the
    skipped codes are exactly the reducible candidates with c_0 = 0.
    """
    for code in range(p ** (n - 1), p**n):
        digits = _code_digits(code, p, n)[::-1]  # code counts up in lex order
        if _is_irreducible(digits, p):
            return tuple(digits)
    raise ContradictionError("no irreducible polynomial found (impossible)")


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k and p prime, or None when n is not a prime power."""
    if n < 2:
        return None
    factors = _prime_factors(n)
    if len(factors) != 1:
        return None
    p, k = factors[0], 0
    while n > 1:
        n //= p
        k += 1
    return p, k


# ----------------------------------------------------------------------------
# field context and elements
# ----------------------------------------------------------------------------


class FieldCtx:
    """Immutable context for F_{q^2} = F_p[w]/(modulus), q = p^k, d = q + 1.

    Construct with make_field; direct instantiation is internal.  It holds
    only what make_field builds, and nothing is assigned after __init__:
    the arrays are frozen, so a context may be shared freely across threads
    and processes.
    """

    __slots__ = (
        "p",
        "k",
        "q",
        "d",
        "deg",
        "modulus",
        "g_code",
        "exp",
        "dlog",
        "_pows",
    )

    def __init__(self, p, k, modulus, g_code, exp, dlog):
        self.p = p
        self.k = k
        self.q = p**k
        self.d = self.q + 1
        self.deg = 2 * k
        self.modulus = modulus
        self.g_code = g_code
        self.exp = exp
        self.dlog = dlog
        self._pows = np.array([p**i for i in range(self.deg)], dtype=np.int64)
        self._pows.flags.writeable = False

    # -- element constructors ------------------------------------------------

    def elem(self, code: int) -> "FqElem":
        if not 0 <= code < self.q * self.q:
            raise ValueError(f"element code {code} out of range")
        return FqElem(self, code)

    def from_coeffs(self, coeffs) -> "FqElem":
        coeffs = list(coeffs)
        if len(coeffs) > self.deg:
            raise ValueError(f"at most {self.deg} coordinates expected")
        code = 0
        for i, c in enumerate(coeffs):
            code += (c % self.p) * self.p**i
        return FqElem(self, code)

    def from_int(self, a: int) -> "FqElem":
        """The image of the integer a under Z -> F_p < F_{q^2}."""
        return FqElem(self, a % self.p)

    @property
    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    @property
    def one(self) -> "FqElem":
        return FqElem(self, 1)

    @property
    def gen(self) -> "FqElem":
        return FqElem(self, self.g_code)

    def mu_d_gen(self) -> "FqElem":
        """The pinned generator g_d = g^(q-1) of mu_d.

        The auxiliary character nu on mu_d maps g_d to zeta_d; the pinned
        chi satisfies chi(x) = nu(x^(q-1)), so chi itself sends g_d to
        zeta_d^(q-1), not to zeta_d.
        """
        return FqElem(self, int(self.exp[self.q - 1]))

    def elements(self):
        """All q^2 elements, by ascending code."""
        for code in range(self.q * self.q):
            yield FqElem(self, code)

    def fq_codes(self) -> list[int]:
        """Codes of the subfield F_q, ascending (0 first)."""
        codes = [0] + [int(self.exp[m]) for m in range(0, self.q * self.q - 1, self.d)]
        return sorted(codes)

    def fq_elements(self):
        for code in self.fq_codes():
            yield FqElem(self, code)

    # -- code-level arithmetic ----------------------------------------------

    def decode(self, code: int) -> tuple[int, ...]:
        return tuple(_code_digits(code, self.p, self.deg))

    def add_codes(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        unit = 1
        for _ in range(self.deg):
            out += ((a + b) % p) * unit
            a //= p
            b //= p
            unit *= p
        return out

    def neg_code(self, a: int) -> int:
        p = self.p
        out = 0
        unit = 1
        for _ in range(self.deg):
            out += (-a % p) * unit
            a //= p
            unit *= p
        return out

    def mul_codes(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.q * self.q - 1
        return int(self.exp[(int(self.dlog[a]) + int(self.dlog[b])) % n])

    # -- vectorized digits ----------------------------------------------------
    #
    # A Poly keeps its coefficients as such a digit array, one row per
    # coefficient; these two convert at its edges, where codes come in and
    # where they are compared or rendered.

    def digit_rows(self, codes) -> np.ndarray:
        """The len(codes) x 2k int64 array of the base-p digits of the codes."""
        column = np.array(codes, dtype=np.int64)[:, None]
        return np.divmod(column, self._pows)[0] % self.p

    def row_codes(self, digits: np.ndarray) -> list:
        """Python-int codes of the rows of a digit array already reduced mod p."""
        return (digits @ self._pows).tolist()

    # -- vectorized sweep support -------------------------------------------

    def shift_codes(self, codes: np.ndarray, c_code: int) -> np.ndarray:
        """Codes of x + c for every code x in the int64 array codes, digit
        by digit; the digits are recomputed on each call."""
        shifted = np.zeros_like(codes)
        for i, c_dig in enumerate(self.decode(c_code)):
            unit = self._pows[i]
            shifted += (codes // unit + c_dig) % self.p * unit
        return shifted

    def add_perm(self, c_code: int) -> np.ndarray:
        """Permutation array P with P[x] = code of (x + c), for all codes x.

        Only the F_{q^2} reference sweep of ``charsum`` uses it; nothing is
        cached.
        """
        return self.shift_codes(np.arange(self.q * self.q, dtype=np.int64), c_code)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k}, q={self.q})"


class FqElem:
    """An element of F_{q^2}, as (context, integer code).

    Supports field operators; multiplicative structure goes through the
    context dlog/exp tables, additive structure through base-p digits.
    """

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.code == 0

    @property
    def dlog(self) -> int:
        if self.code == 0:
            raise ValueError("dlog(0) is undefined")
        return int(self.ctx.dlog[self.code])

    @property
    def in_fq(self) -> bool:
        """Membership in the middle field F_q (the fixed field of Frobenius)."""
        return self.code == 0 or self.dlog % self.ctx.d == 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.ctx.decode(self.code)

    def is_square_in_fq(self) -> bool:
        """For nonzero elements of F_q: quadratic-residue test inside F_q."""
        if self.code == 0 or not self.in_fq:
            raise ValueError("is_square_in_fq wants a nonzero element of F_q")
        return (self.dlog // self.ctx.d) % 2 == 0

    def multiplicative_order(self) -> int:
        if self.code == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.ctx.q * self.ctx.q - 1
        m = self.dlog
        from math import gcd

        return n // gcd(n, m)

    def frobenius(self) -> "FqElem":
        if self.code == 0:
            return self
        n = self.ctx.q * self.ctx.q - 1
        return FqElem(self.ctx, int(self.ctx.exp[self.dlog * self.ctx.q % n]))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.ctx is not self.ctx:
                raise ValueError("elements from different field contexts")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.add_codes(self.code, other.code))

    __radd__ = __add__

    def __neg__(self):
        return FqElem(self.ctx, self.ctx.neg_code(self.code))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.mul_codes(self.code, other.code))

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if self.code == 0:
            raise ZeroDivisionError("0 is not invertible")
        n = self.ctx.q * self.ctx.q - 1
        return FqElem(self.ctx, int(self.ctx.exp[(-self.dlog) % n]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if self.code == 0:
            if e < 0:
                raise ZeroDivisionError("0 is not invertible")
            return self.ctx.one if e == 0 else self
        n = self.ctx.q * self.ctx.q - 1
        return FqElem(self.ctx, int(self.ctx.exp[self.dlog * e % n]))

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.ctx is other.ctx and self.code == other.code

    def __hash__(self):
        return hash((id(self.ctx), self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"FqElem({self.code} in {self.ctx!r})"

    def __str__(self):
        coeffs = self.coeffs
        if all(c == 0 for c in coeffs[1:]):
            return str(coeffs[0])
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}w" if c != 1 else "w")
            else:
                terms.append(f"{c}w^{i}" if c != 1 else f"w^{i}")
        return "+".join(terms) if terms else "0"


# ----------------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------------


# Rows per block of the exp build.  A power of two, so that the doubling in
# _build_tables ends on A^_BLOCK whenever a second block is needed.
_BLOCK = 1 << 12


def _build_tables(p, n, A):
    """The int32 tables exp and dlog of the generator g, built in blocks.

    A is the n x n matrix over F_p of multiplication by g, as the generator
    scan built it: row i holds the digits of w^i * g, so a row vector of
    digits times A is the digits of x * g.  The first block of B powers
    g^0..g^(B-1) comes by doubling, each later one as V <- V A^B mod p;
    codes are V @ (p^0, ..., p^(n-1)).
    """
    pows = p ** np.arange(n, dtype=np.int64)
    order = p**n - 1
    B = min(_BLOCK, order)
    V = np.zeros((B, n), dtype=np.int64)
    V[0, 0] = 1
    step, filled = A, 1
    while filled < B:
        take = min(filled, B - filled)
        V[filled : filled + take] = V[:take] @ step % p
        step, filled = step @ step % p, filled + take

    exp = np.empty(order, dtype=np.int32)
    dlog = np.full(p**n, -1, dtype=np.int32)
    for start in range(0, order, B):
        if start:
            V = V @ step % p
        size = min(B, order - start)
        codes = V[:size] @ pows
        exp[start : start + size] = codes
        dlog[codes] = np.arange(start, start + size, dtype=np.int32)
    if not np.array_equal(V[size - 1] @ A % p, np.eye(n, dtype=np.int64)[0]):
        raise ContradictionError("generator order mismatch while building tables")
    if np.count_nonzero(dlog == -1) != 1:
        raise ContradictionError("exp is not a bijection onto the nonzero codes")
    return exp, dlog


def check_field(p: int, k: int = 1, cap: int = SIZE_CAP) -> int:
    """Return q = p^k, or raise ValueError unless p is a prime of at least
    5, k >= 1 and q^2 <= cap (make_field's cap is SIZE_CAP).  Builds
    nothing.

    The cap is checked first, with p clipped to cap and 2k to bits(cap): p
    over cap has p^2 over it and 2k >= bits(cap) has 2^(2k) over it, so the
    clipped power, at most cap^bits(cap), is over cap exactly when q^2 is.
    No primality test or power of an unbounded p or k is made."""
    if not isinstance(p, int) or not isinstance(k, int):
        raise ValueError("p and k must be integers")
    if k < 1:
        raise ValueError("k must be >= 1")
    if min(p, cap) ** min(2 * k, cap.bit_length()) > cap:
        raise ValueError(f"q^2 = {p}^{2 * k} exceeds the size cap {cap}")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p < 5:
        raise ValueError(f"characteristic must be at least 5, got {p}")
    return p**k


def make_field(p: int, k: int = 1) -> FieldCtx:
    """Deterministically build the tower context for q = p^k.

    The same (p, k) always produces bit-identical tables: the modulus is
    the lex-least monic irreducible of degree 2k and the generator is the
    smallest-code element of full order q^2 - 1.  Both scans work on
    matrices over F_p: the modulus scan runs Rabin's test on each
    candidate's companion matrix C, starting at constant term 1 since every
    candidate with constant term 0 is divisible by w, and the generator scan
    raises each candidate's matrix sum_j v_j C^j to (q^2 - 1)/r for each
    prime r | q^2 - 1, 8 candidates per stack.  exp and dlog are int32, built block by block with
    the matrix of multiplication by g (_build_tables); the build checks
    that g^(q^2-1) = 1 and that dlog has exactly one -1, so exp hits every
    nonzero code once.

    The limits are checked on every call; the build is cached on the
    positional (p, k), so every call form of one field returns one context.
    """
    check_field(p, k)
    return _build_field(p, k)


@lru_cache(maxsize=None)
def _build_field(p: int, k: int) -> FieldCtx:
    """make_field's build for a (p, k) that check_field has passed."""
    q = p**k
    n = 2 * k
    modulus = _lex_smallest_irreducible(p, n)

    powers = np.array([_mat_pow(_companion(modulus, p), j, p) for j in range(n)])
    pows = p ** np.arange(n)
    eye = np.eye(n, dtype=np.int64)
    order = q * q - 1
    cofactors = [order // r for r in _prime_factors(order)]

    # Codes below p are the elements of F_p, whose orders divide p - 1 < q^2 - 1.
    # The scan tests 8 codes at a time, as the stack of their matrices
    # sum_j v_j C^j for digits v: a stack of 8 small matrices costs little
    # more per product than one, and the first hit is the smallest code.
    for lo in range(p, q * q, 8):
        codes = np.arange(lo, min(lo + 8, q * q))
        A = np.tensordot(codes[:, None] // pows % p, powers, 1) % p
        ok = np.all([(_mat_pow(A, cf, p) != eye).any((-2, -1)) for cf in cofactors], 0)
        if ok.any():
            g = ok.argmax()
            break
    else:
        raise ContradictionError("no generator found (impossible for a field)")

    exp, dlog = _build_tables(p, n, A[g])
    exp.flags.writeable = False
    dlog.flags.writeable = False
    return FieldCtx(p, k, modulus, int(codes[g]), exp, dlog)


def frobenius(ctx: FieldCtx, x: FqElem) -> FqElem:
    """The q-power map pi(x) = x^q; an involution fixing F_q pointwise."""
    return x.frobenius()


def in_mu_d(ctx: FieldCtx, x: FqElem) -> bool:
    """Whether x^d = 1, equivalently pi(x) * x = 1; rejects x = 0."""
    if x.is_zero:
        raise ValueError("0 is not a root of unity")
    return x.dlog % (ctx.q - 1) == 0


def chi_exp(ctx: FieldCtx, x: FqElem, i: int = 1):
    """Exponent e with chi^i(x) = zeta_d^e, or None when x = 0.

    chi is the pinned order-d character chi(g^m) = zeta_d^m; the kernel of
    chi is exactly F_q^*.
    """
    if x.is_zero:
        return None
    return x.dlog * i % ctx.d


def find_ab_pairs(ctx: FieldCtx) -> list[tuple[FqElem, FqElem]]:
    """All pairs a in F_q, b in F_{q^2} \\ F_q with a^2 + 1 = b^2.

    Ordered by (dlog a, dlog b).  Such a pair exists exactly when
    c = a^2 + 1 is a nonsquare of F_q (then both square roots of c in
    F_{q^2} fall outside F_q), so the set {b^2} over all output pairs is
    the full set of admissible c values.
    """
    pairs = []
    for a in ctx.fq_elements():
        if a.is_zero:
            continue  # a = 0 forces b^2 = 1, b in F_q
        c = a * a + 1
        if c.is_zero or c.is_square_in_fq():
            continue
        # dlog(c) = d * odd since c is an F_q nonsquare, and d is even, so
        # halving the dlog gives a square root -- necessarily outside F_q.
        b = FqElem(ctx, int(ctx.exp[c.dlog // 2]))
        if (b * b) != c:
            raise ContradictionError("square root extraction failed")
        for bb in (b, -b):
            if bb.in_fq:
                raise ContradictionError("square root of a nonsquare landed in F_q")
            pairs.append((a, bb))
    pairs.sort(key=lambda ab: (ab[0].dlog, ab[1].dlog))
    return pairs


def primitive_root_of_unity(ctx: FieldCtx, m: int) -> FqElem:
    """The pinned m-th root of unity g^((q^2-1)/m); has exact order m."""
    order = ctx.q * ctx.q - 1
    if m < 1 or order % m != 0:
        raise ValueError(f"{m} does not divide q^2 - 1 = {order}")
    return FqElem(ctx, int(ctx.exp[order // m])) if m > 1 else ctx.one
