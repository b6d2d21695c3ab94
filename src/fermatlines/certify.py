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
the counts vectors of (i, i, i, -3i).  ``certify`` makes one pass over the
candidates in order.  Each pushes its histogram forward to every member of
the orbits still open, in orbit order, as one batch, reduced _BLOCK_ROWS
tuples at a time (``cyc._canon_rows``) into one int64 matrix, so no tuple
is reduced again once its orbit has a witness.  On the single line one % 3
over the batch's rows gives the mod-3 residues of all its sums.  One S = 2q
flag per row then settles each orbit: an orbit whose representative is not
2q takes c as its witness and keeps its slice of the rows, the others stay
open for the next candidate, and in both cases every member must carry its
representative's flag (the Galois transfer).  The plane's tables are freed
once the last candidate's histogram is taken.  The checks raise in
candidate order, then orbit order; the missing-witness and line-count
checks follow the pass.  These scans keep their own plane and batches;
they do not read the histogram that ``sum_S`` caches.

A ``Certificate`` keeps, per witnessed orbit, its witness c and the int64
matrix of its canon rows.  ``to_json`` writes the command line's JSON text
from the matrices, with one decimal string per value in the rows' range
gathered by the rows; ``to_json_dict`` converts them row by row to lists
of ints, and the csv output renders those.  Neither builds an
ExponentTuple, CycElt or CoverageEntry per tuple.  ``uncovered`` reads the
uncovered indices from the groups; the pretty output prints it.
``coverage`` is a decoded view of the same rows (tuple -> CoverageEntry),
built once on first access for the tests and the benchmark's tracer.

``certify_general`` scans every tuple against every admissible c with no
Galois transfer, computing every sum by the F_{q^2} sweep
``_sweep_counts``; it is the brute-force oracle the tests compare against,
shares no sum route with ``certify``, and records each covered tuple as a
witnessed group of its own, a one-row int64 matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .charsum import (
    _BLOCK_ROWS,
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
    """The rank formula (_rank_formula) at a checked q: an integer prime
    power of characteristic at least 5."""
    pk = prime_power(q) if isinstance(q, int) else None
    if pk is None:
        raise ValueError("q must be an integer prime power")
    if pk[0] < 5:
        raise ValueError("the characteristic must be at least 5")
    return _rank_formula(q)


def _rank_formula(q: int) -> int:
    """q for q = 1 mod 3, q - 2 for q = 2 mod 3; q is not checked."""
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
    tuples (i, i, i, -3i) that witness c covers, and the int64 matrix of
    the canon rows of S_c on them, in the same order.  Every other
    nontrivial tuple is uncovered.  ``to_json`` writes the command line's
    JSON text straight from the matrices; ``to_json_dict`` converts them
    row by row to lists of ints, which the csv output renders.
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
        """i -> (c, canon row of S_c as a list of ints) for each nontrivial
        tuple with a witness."""
        return {
            i: (c, row.tolist())
            for indices, c, rows in self.witnessed
            for i, row in zip(indices, rows)
        }

    def _scalars(self) -> dict:
        return {
            "q": self.q,
            "expected_rank": self.expected_rank,
            "verdict": self.verdict,
            "lines_used": self.lines_used,
            "orbits": self.galois_orbits,
        }

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
        return {**self._scalars(), "coverage": coverage}

    def to_json(self, schema: int) -> str:
        """The text of ``json.dumps({"schema": schema, **to_json_dict()},
        sort_keys=True, separators=(",", ":"))`` and a newline, written from
        the matrices: one decimal string per value in the rows' range,
        gathered by the rows and joined per row.  "coverage" sorts first,
        and the other fields go through json.dumps."""
        d = self.q + 1
        lo = min((int(rows.min()) for _, _, rows in self.witnessed), default=0)
        hi = max((int(rows.max()) for _, _, rows in self.witnessed), default=0)
        decimal = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
        head = {}  # i -> its coverage entry up to the tuple
        for indices, c, rows in self.witnessed:
            tail = f'],"c":{c.dlog},"nonzero":true,"tuple":'
            for i, texts in zip(indices, decimal[rows - lo].tolist()):
                head[i] = '{"S_canon":[' + ",".join(texts) + tail
        coverage = ['{"S_canon":null,"c":null,"nonzero":true,"tuple":[0,0,0,0]}']
        for i in range(1, d):
            if 3 * i % d:
                entry = head.get(i, '{"S_canon":null,"c":null,"nonzero":false,"tuple":')
                coverage.append(f"{entry}[{i},{i},{i},{-3 * i % d}]}}")
        rest = json.dumps(
            {"schema": schema, **self._scalars()}, sort_keys=True, separators=(",", ":")
        )
        return '{"coverage":[' + ",".join(coverage) + "]," + rest[1:] + "\n"

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
    that is not 1 mod 3, from one ``_one_mod_3`` over the rows."""
    one_mod_3 = _one_mod_3(canon)
    if not all(one_mod_3):
        j = one_mod_3.index(False)
        raise ContradictionError(
            f"mod-3 obstruction failed at q={q} for tuple {_entries(q + 1, indices[j])},"
            f" c={c.dlog}: expected S = 1 mod 3, got S = {canon[j].tolist()}"
        )


def certify(ctx: FieldCtx) -> Certificate:
    """Certify full rank by one witness per Galois orbit of w-type tuples.

    Each candidate c in turn reduces every member of the orbits still
    open, and an orbit whose representative's S differs from 2q takes c as
    its witness.  A theorem promises a witness unless q = 11 mod 12; there
    a missing witness leaves the orbit uncovered (NOT_CERTIFIED).  The
    checks raise in candidate order, then orbit order: the mod-3 check of
    the single line, the Galois transfer from each representative to its
    members, then a missing witness and the line counts.
    """
    q, d = ctx.q, ctx.d
    single_line = q % 12 == 7
    candidates = [line_for_thm1(ctx).c] if single_line else admissible_values(ctx)
    plane = _PlaneSweep(ctx, 1, 1, 1)
    orbits = galois_orbits(d)
    witnessed, pending = [], orbits
    for c in candidates:
        if not pending:
            break
        hist = plane.counts(c)
        if c is candidates[-1]:
            del plane  # the last histogram is taken; the tables go
        # the members of the open orbits, in orbit order, are one batch,
        # reduced _BLOCK_ROWS tuples at a time into one matrix.  It is
        # allocated once the first block is reduced, in the space that the
        # block's temporaries freed; allocated before them, it raised the
        # peak RSS of the small fields
        idx = [i for orbit in pending for i in orbit]
        first = _canon_rows(d, _pushforward(hist, idx[:_BLOCK_ROWS]))
        canon = np.empty((len(idx), first.shape[1]), dtype=np.int64)
        canon[: len(first)] = first
        for s in range(_BLOCK_ROWS, len(idx), _BLOCK_ROWS):
            block = idx[s : s + _BLOCK_ROWS]
            canon[s : s + len(block)] = _canon_rows(d, _pushforward(hist, block))
        if single_line:
            _check_mod_3(q, c, idx, canon)
        two_q = _is_two_q(q, canon)
        still_open, start = [], 0
        for orbit in pending:
            rows, hit = canon[start : start + len(orbit)], two_q[start : start + len(orbit)]
            start += len(orbit)
            # S_c(u*t) = sigma_u(S_c(t)), and sigma_u fixes 2q, so a member
            # reads 2q exactly when its representative does
            wrong = hit != hit[0]
            if wrong.any():
                j = int(wrong.argmax())
                got = f"S = {rows[j].tolist()}" if hit[0] else f"S = 2q = {2 * q}"
                raise ContradictionError(
                    f"Galois transfer failed at q={q} for tuple {_entries(d, orbit[j])},"
                    f" c={c.dlog}: expected S {'=' if hit[0] else '!='} 2q as for"
                    f" {_entries(d, orbit[0])}, got {got}"
                )
            if hit[0]:
                still_open.append(orbit)
            else:
                witnessed.append((orbit, c, rows))
        pending = still_open
    if pending and q % 12 != 11:
        raise ContradictionError(
            f"no witness at q={q} for tuple {_entries(d, pending[0][0])}: expected S != 2q for"
            f" some c in {[c.dlog for c in candidates]}, got S = 2q = {2 * q} for each"
        )
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
                witnessed.append(([i], c, np.array([s.canon], dtype=np.int64)))
                break
    return _certificate(ctx, witnessed, orbits)
