"""Exact arithmetic in the cyclotomic integer ring Z[zeta_d].

Character sums live here.  An element is stored in one form, canon: the
remainder of sum_j counts[j] x^j modulo Phi_d(x) over Z, a length-phi(d)
integer vector, low degree first, for a length-d counts vector whose entry
j is the coefficient of zeta_d^j in a group-ring representative (the
multiset of accumulated terms).  canon is the unique representative in
Z[x]/(Phi_d), so equality of CycElts is equality of canon.

Phi_d(x) = Phi_m(x^{d/m}) for m = rad(d), so canon is reduced by the small
m x phi(m) matrix R_m, whose row b is x^b mod Phi_m, built once per m:
``_canon_rows`` views a whole (n, d) matrix of counts rows as (n, m, d/m)
and folds the rows b >= phi(m) back through R_m.  For even m > 2, y = x^{d/m}
satisfies y^{m/2} = -1, so the rows past m/2 fold back first as a signed
shift and R_{m/2} does the rest: at d = 1994 one row goes through the
matrix product instead of 998.  A batch takes the int64 product when its
entries are small enough that no sum can overflow, and the exact Python-int
product otherwise.  It is the one reduction route:
``CycElt`` reduces its counts as a one-row matrix, and ``CycElt.batch``
builds the elements of many rows from one call.

Sums, differences and integer multiples of reduced vectors are reduced, so
those ring operations act on canon alone.  The product, the Galois action
zeta_d -> zeta_d^u (a permutation of indices mod d) and ``accumulate`` read
canon as the counts vector that is zero past phi (x^j mod Phi_d is x^j for
j < phi), fold their indices mod d, and reduce once.

Everything is integer arithmetic; there is no numerical embedding anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from .gf import _prime_factors

__all__ = [
    "cyclotomic_poly",
    "CycElt",
    "accumulate",
    "equals_integer",
    "galois_apply",
    "is_real",
    "mod_ideal_class",
]


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Phi_d(x) over Z, low degree first, as prod_{s | rad d} (x^{d/s} - 1)^mu(s):
    a shifted difference per binomial with mu = +1, then an exact division,
    quot[i] = quot[i - e] - poly[i], per binomial with mu = -1."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    up, down = [d], []  # d/s over the squarefree s | d with mu(s) = +1, -1
    for p in _prime_factors(d):
        up, down = up + [e // p for e in down], down + [e // p for e in up]
    poly = [1]
    for e in up:
        out = [-a for a in poly] + [0] * e
        for i, a in enumerate(poly):
            out[i + e] += a
        poly = out
    for e in down:
        quot = [0] * (len(poly) - e)
        for i in range(len(quot)):
            quot[i] = (quot[i - e] if i >= e else 0) - poly[i]
        if any(poly[i] != quot[i - e] for i in range(len(quot), len(poly))):
            raise RuntimeError("cyclotomic division left a remainder")
        poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_matrix(m: int) -> tuple[np.ndarray, int]:
    """(R_m, max |R_m|) for squarefree m: row j of the int64 matrix R_m is
    x^j mod Phi_m.

    Row j is x times row j - 1, with the x^phi term folded back through
    Phi_m.  If a step overflowed int64, its input row (still exact) bounds
    the step's true result by max|R_m| * (1 + max|Phi_m|), so checking that
    bound once at the end covers every step.  R_m is returned in column-major
    order, so the integer products of ``_canon_rows`` read it contiguously.
    """
    phi_poly = np.array(cyclotomic_poly(m)[:-1], dtype=np.int64)
    n = len(phi_poly)
    rows = np.zeros((m, n), dtype=np.int64)
    rows[:n, :n] = np.eye(n, dtype=np.int64)
    for j in range(n, m):
        prev = rows[j - 1]
        rows[j, 1:] = prev[:-1]
        rows[j] -= prev[-1] * phi_poly
    height = int(np.abs(rows).max())
    if height * (1 + int(np.abs(phi_poly).max())) >= 2**63:
        raise OverflowError(f"x^j mod Phi_{m} does not fit in int64")
    rows = np.asfortranarray(rows)
    rows.flags.writeable = False
    return rows, height


@lru_cache(maxsize=None)
def _canon_plan(d: int) -> tuple[int, int, np.ndarray, int]:
    """(m, half, top, lim) of ``_canon_rows`` at d, looked up once per d.

    m = rad(d); half = m/2 when the fold applies (m even, m > 2), else 0;
    top is the phi(r) x (r - phi(r)) block of R_r, r = half or m, that folds
    the rows past phi(r) back; lim is the largest entry an int64 batch may
    hold.  On the fold, R_half reduces in z = -y, so the odd rows' signs are
    flipped on the way in and back on the way out: entry (c, b) of top is
    signed by (-1)^(b + c), once here.
    """
    m = prod(_prime_factors(d))
    half = m // 2 if m > 2 and m % 2 == 0 else 0
    rows, height = _reduction_matrix(half or m)
    phi = rows.shape[1]
    top = rows[phi:].T
    if half:
        top = top * (-1) ** np.add.outer(np.arange(phi), np.arange(phi, half))
        top.flags.writeable = False
    # a folded entry is a difference of two counts, so it may be twice as large
    return m, half, top, (2**63 - 1) // ((2 if half else 1) * d * height)


def _canon_rows(d: int, counts: np.ndarray) -> np.ndarray:
    """canon of every row of an (n, d) int64 or object counts matrix, as an
    (n, phi(d)) int64 matrix, or an object one of Python ints when counts is
    object or has an entry past the int64 bound of ``_canon_plan``.

    With m = rad(d) and k = d/m, count j = b k + r is x^r y^b, y = x^k, so
    entry (c, r) of the (n, phi(m), k) product is canon index c k + r.  For
    even m > 2, n = m/2 is odd and Phi_m(y) = Phi_n(-y) divides y^n + 1: the
    rows b >= n fold back as w_b = v_b - v_(b+n) before the product.
    """
    m, half, top, lim = _canon_plan(d)
    phi = top.shape[0]
    if counts.dtype != np.int64 or not ((counts >= -lim) & (counts <= lim)).all():
        counts, top = counts.astype(object), top.astype(object)
    n, k = len(counts), d // m
    v = counts.reshape(n, m, k)
    if half:
        v = v[:, :half] - v[:, half:]
    return (v[:, :phi] + top @ v[:, phi:]).reshape(n, phi * k)


class CycElt:
    """An element of Z[zeta_d]; value semantics, hashable, immutable."""

    __slots__ = ("d", "canon")

    def __init__(self, d: int, counts):
        counts = tuple(map(int, counts))
        if len(counts) != d:
            raise ValueError(f"counts must have length d = {d}")
        try:
            row = np.array([counts], dtype=np.int64)
        except OverflowError:
            row = np.array([counts], dtype=object)
        self.d = d
        self.canon = tuple(_canon_rows(d, row)[0].tolist())

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_canon(cls, d: int, canon) -> "CycElt":
        """The element whose canon is the already reduced row canon."""
        elt = cls.__new__(cls)
        elt.d, elt.canon = d, tuple(canon)
        return elt

    @classmethod
    def batch(cls, d: int, counts: np.ndarray) -> list["CycElt"]:
        """One element per row of an (n, d) int64 or object counts matrix,
        reduced by one ``_canon_rows`` call."""
        if counts.ndim != 2 or counts.shape[1] != d:
            raise ValueError(f"counts must be an (n, d = {d}) matrix")
        return [cls._from_canon(d, row) for row in _canon_rows(d, counts).tolist()]

    @classmethod
    def zero(cls, d: int) -> "CycElt":
        return cls.from_int(d, 0)

    @classmethod
    def from_int(cls, d: int, m: int) -> "CycElt":
        """The integer m, whose canon (m, 0, ..., 0) needs no reduction."""
        phi = len(cyclotomic_poly(d)) - 1
        return cls._from_canon(d, (int(m),) + (0,) * (phi - 1))

    @classmethod
    def root_of_unity(cls, d: int, e: int) -> "CycElt":
        """zeta_d^e."""
        counts = [0] * d
        counts[e % d] += 1
        return cls(d, counts)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "CycElt"):
        if not isinstance(other, CycElt):
            raise TypeError("expected a CycElt")
        if other.d != self.d:
            raise ValueError(f"mixed cyclotomic orders {self.d} and {other.d}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycElt.from_int(self.d, other)
        self._check(other)
        return CycElt._from_canon(self.d, [a + b for a, b in zip(self.canon, other.canon)])

    __radd__ = __add__

    def __neg__(self):
        return CycElt._from_canon(self.d, [-a for a in self.canon])

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycElt.from_int(self.d, other)
        self._check(other)
        return CycElt._from_canon(self.d, [a - b for a, b in zip(self.canon, other.canon)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycElt._from_canon(self.d, [a * other for a in self.canon])
        self._check(other)
        out = [0] * self.d
        for i, a in enumerate(self.canon):
            if a:
                for j, b in enumerate(other.canon):
                    if b:
                        out[(i + j) % self.d] += a * b
        return CycElt(self.d, out)

    __rmul__ = __mul__

    # -- structure -----------------------------------------------------------

    def galois(self, u: int) -> "CycElt":
        """The automorphism zeta_d -> zeta_d^u; u must be a unit mod d."""
        from math import gcd

        if gcd(u, self.d) != 1:
            raise ValueError(f"{u} is not a unit mod {self.d}")
        out = [0] * self.d
        for j, a in enumerate(self.canon):
            out[u * j % self.d] += a
        return CycElt(self.d, out)

    @property
    def is_real(self) -> bool:
        return self.galois(self.d - 1) == self

    def equals_integer(self, m: int) -> bool:
        return all(c == 0 for c in self.canon[1:]) and self.canon[0] == m

    @property
    def as_integer(self):
        """The value as a plain integer, or None when it is not rational."""
        if all(c == 0 for c in self.canon[1:]):
            return self.canon[0]
        return None

    def mod_ideal(self, m: int) -> tuple[int, ...]:
        """canon reduced coefficientwise mod m (residues in [0, m))."""
        if m < 2:
            raise ValueError("modulus must be at least 2")
        return tuple(c % m for c in self.canon)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.equals_integer(other)
        if not isinstance(other, CycElt):
            return NotImplemented
        return self.d == other.d and self.canon == other.canon

    def __hash__(self):
        return hash((self.d, self.canon))

    def __bool__(self):
        return any(self.canon)

    def __repr__(self):
        return f"CycElt(d={self.d}, canon={list(self.canon)})"

    def __str__(self):
        if self.as_integer is not None:
            return str(self.as_integer)
        terms = []
        for j, c in enumerate(self.canon):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = f"z^{j}" if j > 1 else "z"
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(terms).replace("+ -", "- ")


# ----------------------------------------------------------------------------
# module-level operations (thin wrappers with the contract signatures)
# ----------------------------------------------------------------------------


def accumulate(s: CycElt, e) -> CycElt:
    """Add one term zeta_d^e to s; e = None (the zero marker) adds nothing."""
    if e is None:
        return s
    counts = list(s.canon) + [0] * (s.d - len(s.canon))
    counts[e % s.d] += 1
    return CycElt(s.d, counts)


def equals_integer(s: CycElt, m: int) -> bool:
    """Whether canon(s) is the constant polynomial m."""
    return s.equals_integer(m)


def galois_apply(s: CycElt, u: int) -> CycElt:
    """Apply zeta_d -> zeta_d^u (requires gcd(u, d) = 1)."""
    return s.galois(u)


def is_real(s: CycElt) -> bool:
    """Whether s is fixed by complex conjugation zeta_d -> zeta_d^(d-1)."""
    return s.is_real


def mod_ideal_class(s: CycElt, m: int) -> tuple[int, ...]:
    """canon(s) mod m; s = integer r mod m*Z[zeta_d] iff this is constant r."""
    return s.mod_ideal(m)
