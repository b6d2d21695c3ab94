"""Exact arithmetic in the cyclotomic integer ring Z[zeta_d].

Character sums live here.  An element is stored in one form, canon: the
remainder of sum_j counts[j] x^j modulo Phi_d(x) over Z, a length-phi(d)
integer vector, low degree first, for a length-d counts vector whose entry
j is the coefficient of zeta_d^j in a group-ring representative (the
multiset of accumulated terms).  canon is the unique representative in
Z[x]/(Phi_d), so equality of CycElts is equality of canon.

canon is counts @ R_d, where row j of the d x phi(d) matrix R_d is
x^j mod Phi_d; R_d is built once per d.  Its first phi rows are the
identity, so ``_canon_rows`` computes counts[:phi] + counts[phi:] @ R_d[phi:]
for a whole (n, d) matrix of counts rows at once.  A row takes the int64
product when sum |counts| * max |R_d| < 2^63 and the exact Python-int
product otherwise.  It is the one reduction route: ``CycElt`` reduces its
counts as a one-row matrix, and ``CycElt.batch`` builds the elements of
many rows from one call.

Sums, differences and integer multiples of reduced vectors are reduced, so
those ring operations act on canon alone.  The product, the Galois action
zeta_d -> zeta_d^u (a permutation of indices mod d) and ``accumulate`` read
canon as the counts vector that is zero past phi (x^j mod Phi_d is x^j for
j < phi), fold their indices mod d, and reduce once.

Everything is integer arithmetic; there is no numerical embedding anywhere.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "cyclotomic_poly",
    "CycElt",
    "accumulate",
    "equals_integer",
    "galois_apply",
    "is_real",
    "mod_ideal_class",
]


def _poly_divmod_exact(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, den monic, low-first."""
    num = list(num)
    dn = len(den) - 1
    if dn == 0:
        return num, []
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Phi_d(x) over Z, low degree first, via x^d - 1 = prod_{e|d} Phi_e."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    if d == 1:
        return (-1, 1)
    num = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num, rem = _poly_divmod_exact(num, cyclotomic_poly(e))
            if rem:
                raise RuntimeError("cyclotomic division left a remainder")
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_matrix(d: int) -> tuple[np.ndarray, int]:
    """(R_d, max |R_d|): row j of the int64 matrix R_d is x^j mod Phi_d.

    Row j is x times row j - 1, with the x^phi term folded back through
    Phi_d.  If a step overflowed int64, its input row (still exact) bounds
    the step's true result by max|R_d| * (1 + max|Phi_d|), so checking that
    bound once at the end covers every step.  R_d is returned in column-major
    order, so the integer matmul of ``_canon_rows`` runs down contiguous
    columns (twice as fast at d = 2000).  Each R_d takes 8 d phi(d) bytes
    (12.8 MB at d = 2000) for the life of the process.
    """
    phi_poly = np.array(cyclotomic_poly(d)[:-1], dtype=np.int64)
    n = len(phi_poly)
    rows = np.zeros((d, n), dtype=np.int64)
    rows[:n, :n] = np.eye(n, dtype=np.int64)
    for j in range(n, d):
        prev = rows[j - 1]
        rows[j, 1:] = prev[:-1]
        rows[j] -= prev[-1] * phi_poly
    height = int(np.abs(rows).max())
    if height * (1 + int(np.abs(phi_poly).max())) >= 2**63:
        raise OverflowError(f"x^j mod Phi_{d} does not fit in int64")
    rows = np.asfortranarray(rows)
    rows.flags.writeable = False
    return rows, height


def _fits_int64(counts: np.ndarray, height: int) -> np.ndarray:
    """Per row of counts, whether sum |counts| * height < 2^63, so that the
    int64 product with R_d (entries at most height) is exact."""
    n, d = counts.shape
    if counts.dtype == np.int64:
        lim = (2**63 - 1) // (d * height)
        # a row with every entry in [-lim, lim] has sum |counts| * height < 2^63
        fits = ((counts >= -lim) & (counts <= lim)).all(axis=1)
    else:
        fits = np.zeros(n, dtype=bool)
    for r in np.flatnonzero(~fits):
        fits[r] = sum(map(abs, counts[r].tolist())) * height < 2**63
    return fits


def _canon_rows(d: int, counts: np.ndarray) -> np.ndarray:
    """canon of every row of an (n, d) int64 or object counts matrix.

    Returns an (n, phi) int64 matrix, or an object matrix of Python ints
    when some row fails the int64 bound and takes the exact object product.
    """
    rows, height = _reduction_matrix(d)
    phi = rows.shape[1]
    fits = _fits_int64(counts, height)
    if fits.all():
        counts = counts.astype(np.int64, copy=False)
        return counts[:, :phi] + counts[:, phi:] @ rows[phi:]
    canon = np.empty((len(counts), phi), dtype=object)
    small = counts[fits].astype(np.int64)
    canon[fits] = small[:, :phi] + small[:, phi:] @ rows[phi:]
    big = counts[~fits].astype(object)
    canon[~fits] = big[:, :phi] + big[:, phi:] @ rows[phi:].astype(object)
    return canon


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
