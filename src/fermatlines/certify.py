"""Machine-checkable full-rank generation certificates.

A certificate records, for every w-type exponent tuple, a witness line whose
translated-line class has nonzero projection onto that character eigenspace.
The trivial character is witnessed by the constant inner product 1/d; a
nontrivial w-type tuple (i, i, i, -3i) is witnessed by any admissible c with
S_{c} != 2q.  When every tuple carries a witness, the family of mu_d
translates of the witness points rationally generates the full group — the
verdict FULL_RANK_CERTIFIED means exactly that this nonzero-projection
criterion holds for all tuples; the rank value itself comes from the rank
formula, not from an independent height computation.

``certify`` finds one witness per Galois orbit of tuples: the first
candidate c with S != 2q on the orbit representative witnesses the whole
orbit, because S of a scaled tuple is the Galois image of S and 2q is
Galois-stable.  The candidate list depends on q mod 12:

- q = 7 mod 12: the single line with b a primitive 12th root of unity and
  a = b**2; every sum is checked against the mod-3 obstruction S = 1 mod 3.
- otherwise: every admissible c.  For q = 1 mod 4 a witness always exists
  and at most n - 1 lines are used (n the number of divisors of d); for
  q = 11 mod 12 no theorem applies and NOT_CERTIFIED is a legitimate
  outcome (q = 11 is one).

The sums come from the F_q-plane route of ``charsum``: one histogram of
the tuple (1, 1, 1) per candidate c tried, pushed forward by k -> ik to
the counts vectors of (i, i, i, -3i).  The witness scan goes through the
candidates in order; each reduces the representatives of the orbits still
open as one batch (``cyc._canon_rows``), and an orbit whose representative
is not 2q keeps (c, histogram) as its witness.  Then, orbit by orbit, a
witnessed orbit reduces all its tuples as one batch with that histogram,
and each sum passes the mod-3 and S != 2q checks before it enters the
coverage, so the first failing orbit raises, as in a per-tuple scan.  On
the single line one % 3 over a batch's canon rows gives the mod-3 residues
of all its sums, in both passes.  The line-count checks follow.  These
scans keep their own plane and batches; they do not read the histogram
that ``sum_S`` caches.

A ``Certificate`` keeps, per witnessed orbit, its witness c and the canon
rows of its batch.  ``to_json_dict`` writes the coverage from them with no
ExponentTuple, CycElt or CoverageEntry per tuple, and every output format
of the command line renders those JSON rows; ``uncovered`` reads the
uncovered indices from the groups.  ``coverage`` is a decoded view of the
same rows (tuple -> CoverageEntry), built once on first access for the
tests and the benchmark's tracer.

``certify_general`` scans every tuple against every admissible c with no
Galois transfer, computing every sum by the F_{q^2} sweep
``_sweep_counts``; it is the brute-force oracle the tests compare against,
shares no sum route with ``certify``, and records each covered tuple as a
witnessed group of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .charsum import (
    ExponentTuple,
    _PlaneSweep,
    _pushforward,
    _sweep_counts,
    admissible_values,
)
from .cyc import CycElt, _canon_rows
from .fermat import line_for_thm1, w_tuples
from .gf import ContradictionError, FieldCtx, FqElem, prime_power

__all__ = [
    "Certificate",
    "certify",
    "certify_general",
    "expected_rank",
    "galois_orbits",
]

FULL_RANK_CERTIFIED = "FULL_RANK_CERTIFIED"
NOT_CERTIFIED = "NOT_CERTIFIED"


def expected_rank(q: int) -> int:
    """The rank formula: q for q = 1 mod 3, q - 2 for q = 2 mod 3."""
    pk = prime_power(q) if isinstance(q, int) else None
    if pk is None:
        raise ValueError("q must be an integer prime power")
    if pk[0] < 5:
        raise ValueError("the characteristic must be at least 5")
    return q if q % 3 == 1 else q - 2


def galois_orbits(d: int) -> list[list[int]]:
    """Orbits of the unit-group action i -> u*i on the indices of nontrivial
    w-type tuples; two indices are in the same orbit iff gcd(i, d) agree."""
    orbits: dict[int, list[int]] = {}
    for i in range(1, d):
        if (3 * i) % d == 0:
            continue
        orbits.setdefault(gcd(i, d), []).append(i)
    return [sorted(v) for _, v in sorted(orbits.items())]


@dataclass
class CoverageEntry:
    tuple: ExponentTuple
    c: FqElem | None
    s_value: CycElt | None
    nonzero: bool


class Certificate:
    """A certificate at d = q + 1, kept as its witnessed groups.

    Each group of ``witnessed`` is (indices, c, rows): the indices i of the
    tuples (i, i, i, -3i) that witness c covers, and the canon rows of S_c
    on them, in the same order.  Every other nontrivial tuple is uncovered.
    ``to_json_dict`` writes the coverage rows straight from the groups, and
    the csv and pretty output render those rows.
    """

    def __init__(self, q: int, verdict: str, lines_used: int, orbits, witnessed):
        self.q = q
        self.expected_rank = expected_rank(q)
        self.verdict = verdict
        self.lines_used = lines_used
        self.galois_orbits = orbits
        self.witnessed = witnessed

    @property
    def uncovered(self) -> list[int]:
        """The indices i of the nontrivial tuples with no witness, ascending."""
        covered = {i for indices, _, _ in self.witnessed for i in indices}
        return sorted(i for orbit in self.galois_orbits for i in orbit if i not in covered)

    def _found(self) -> dict:
        """i -> (c, canon row of S_c) for each nontrivial tuple with a witness."""
        return {i: (c, row) for indices, c, rows in self.witnessed for i, row in zip(indices, rows)}

    def to_json_dict(self) -> dict:
        d = self.q + 1
        found = self._found()
        dlog = {c.code: c.dlog for _, c, _ in self.witnessed}
        # the trivial character pairs to the constant 1/d on every translated
        # line class, which is nonzero; no S computation is involved
        coverage = [{"tuple": [0, 0, 0, 0], "c": None, "S_canon": None, "nonzero": True}]
        for i in range(1, d):
            if 3 * i % d:
                c, row = found.get(i, (None, None))
                coverage.append(
                    {
                        "tuple": [i, i, i, -3 * i % d],
                        "c": None if c is None else dlog[c.code],
                        "S_canon": row,
                        "nonzero": row is not None,
                    }
                )
        return {
            "q": self.q,
            "expected_rank": self.expected_rank,
            "verdict": self.verdict,
            "lines_used": self.lines_used,
            "coverage": coverage,
            "orbits": self.galois_orbits,
        }

    @cached_property
    def coverage(self) -> dict[ExponentTuple, CoverageEntry]:
        """The rows decoded, tuple -> CoverageEntry over ``w_tuples(d)`` in
        order, built once on first access.  Only the tests and the
        benchmark's tracer (``perfbench/tracing.py``, which reads
        ``coverage`` by name) read it; it can go once the tracer reads the
        rows instead, with the benchmark's next version."""
        d, found = self.q + 1, self._found()
        coverage = {}
        for t in w_tuples(d):
            c, row = found.get(t.i0, (None, None))
            s = None if row is None else CycElt._from_canon(d, row)
            coverage[t] = CoverageEntry(t, c, s, s is not None or t.i0 == 0)
        return coverage


def _certificate(ctx: FieldCtx, witnessed: list, orbits: list[list[int]]) -> Certificate:
    # orbits is galois_orbits(ctx.d), which partitions the nontrivial tuples
    covered = sum(len(indices) for indices, _, _ in witnessed)
    full = covered == sum(map(len, orbits))
    return Certificate(
        ctx.q,
        FULL_RANK_CERTIFIED if full else NOT_CERTIFIED,
        len({c.code for _, c, _ in witnessed}),
        orbits,
        witnessed,
    )


def _entries(d: int, i: int) -> tuple[int, int, int, int]:
    """The entries of the w-type tuple (i, i, i, -3i)."""
    return (i, i, i, -3 * i % d)


def _is_two_q(q: int, canon: np.ndarray) -> np.ndarray:
    """Per canon row, whether it is the integer 2q."""
    return (canon[:, 0] == 2 * q) & (canon[:, 1:] == 0).all(axis=1)


def _one_mod_3(canon: np.ndarray) -> list[bool]:
    """Per canon row, whether it is 1 mod 3*Z[zeta_d] (as ``is_one_mod_3``),
    from one % 3 over the rows; the residues are freed on return."""
    residue = canon % 3
    return ((residue[:, 0] == 1) & (residue[:, 1:] == 0).all(axis=1)).tolist()


def _check_mod_3(q: int, c: FqElem, indices: list[int], canon: np.ndarray) -> None:
    """Raise at the first canon row (S at c of (i, i, i, -3i), i in indices)
    not 1 mod 3."""
    for i, row, one_mod_3 in zip(indices, canon, _one_mod_3(canon)):
        if not one_mod_3:
            raise ContradictionError(
                f"mod-3 obstruction failed at q={q} for tuple {_entries(q + 1, i)},"
                f" c={c.dlog}: expected S = 1 mod 3, got S = {row.tolist()}"
            )


def certify(ctx: FieldCtx) -> Certificate:
    """Certify full rank by one witness per Galois orbit of w-type tuples.

    Each orbit takes the first candidate c whose S on the orbit
    representative differs from 2q; all its members are then swept with
    that witness.  A theorem promises a witness unless q = 11 mod 12; there
    a missing witness leaves the orbit uncovered (NOT_CERTIFIED).
    """
    q, d = ctx.q, ctx.d
    single_line = q % 12 == 7
    candidates = [line_for_thm1(ctx).c] if single_line else admissible_values(ctx)
    plane = _PlaneSweep(ctx, 1, 1, 1)
    orbits = galois_orbits(d)

    # pass 1, the witness scan: each candidate c sweeps one histogram of
    # (1, 1, 1) and reduces the representatives of the open orbits as one
    # batch.  No member batch is reduced yet, so no sweep's temporaries
    # meet the coverage integers
    witness = {}  # orbit position -> (c, its histogram)
    pending = list(range(len(orbits)))
    for c in candidates:
        if not pending:
            break
        hist = plane.counts(c)
        reps = [orbits[k][0] for k in pending]
        canon = _canon_rows(d, _pushforward(hist, reps))
        if single_line:
            _check_mod_3(q, c, reps, canon)
        is_two_q = _is_two_q(q, canon).tolist()
        witness.update((k, (c, hist)) for k, hit in zip(pending, is_two_q) if not hit)
        pending = [k for k, hit in zip(pending, is_two_q) if hit]

    # pass 2, in orbit order: a witnessed orbit reduces all its tuples,
    # representative first, as one batch with its witness's histogram, and
    # keeps the canon rows
    witnessed = []
    for k, orbit in enumerate(orbits):
        rep = _entries(d, orbit[0])
        if k not in witness:
            if q % 12 != 11:
                raise ContradictionError(
                    f"no witness at q={q} for tuple {rep}: expected S != 2q for"
                    f" some c in {[c.dlog for c in candidates]}, got S = 2q = {2 * q}"
                    " for each"
                )
            continue
        c, hist = witness[k]
        canon = _canon_rows(d, _pushforward(hist, orbit))
        if single_line:
            _check_mod_3(q, c, orbit, canon)
        # S_c(u*t) = sigma_u(S_c(t)), and sigma_u fixes 2q
        hit = _is_two_q(q, canon)
        if hit.any():
            raise ContradictionError(
                f"Galois transfer failed at q={q} for tuple"
                f" {_entries(d, orbit[int(hit.argmax())])}, c={c.dlog}:"
                f" expected S != 2q as for {rep}, got S = 2q = {2 * q}"
            )
        witnessed.append((orbit, c, canon.tolist()))
    cert = _certificate(ctx, witnessed, orbits)
    if single_line and cert.lines_used != 1:
        raise ContradictionError(
            f"single-line certificate at q={q}: expected 1 line, got {cert.lines_used}"
        )
    n = sum(1 for e in range(1, d + 1) if d % e == 0)
    if q % 4 == 1 and cert.lines_used > n - 1:
        raise ContradictionError(
            f"orbit certificate at q={q}: expected at most n - 1 = {n - 1} lines,"
            f" got {cert.lines_used}"
        )
    return cert


def certify_general(ctx: FieldCtx) -> Certificate:
    """Brute-force certificate attempt: every tuple against every admissible
    c, each covered tuple its own witnessed group.  NOT_CERTIFIED (an
    uncovered tuple) is a valid outcome, not an error."""
    d = ctx.d
    admissible = admissible_values(ctx)
    two_q = CycElt.from_int(d, 2 * ctx.q)
    orbits = galois_orbits(d)
    witnessed = []
    for i in sorted(i for orbit in orbits for i in orbit):
        for c in admissible:
            s = CycElt(d, _sweep_counts(ctx, [(i, 0), (i, 1), (i, c.code)]).tolist())
            if s != two_q:
                witnessed.append(([i], c, [list(s.canon)]))
                break
    return _certificate(ctx, witnessed, orbits)
