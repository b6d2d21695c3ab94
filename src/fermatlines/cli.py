"""Command-line front end: character-sum sweeps, line inventories, explicit
point construction, and full-rank certificates, with reproducible output.

Output contract
---------------
* ``--format json``  — one JSON document on stdout, ``{"schema": 1, ...}``,
  keys sorted, compact separators: identical configurations produce
  byte-identical output.
* ``--format csv``   — a header row plus data rows; cyclotomic values are
  flattened to their canonical coefficient vectors, one column per
  coefficient; field elements in cells are colon-joined coordinate vectors.
* ``--format pretty``— human-readable report using signed residue
  representatives (coefficients shown in (-p/2, p/2]).

Exit codes: 0 success; 1 a mathematical contradiction (a certified identity
failed); 2 usage error (bad arguments or violated precondition).

Field elements are entered as plain integers (prime subfield) or as
comma-separated coordinate vectors ``c0,c1,...`` of length 2k over F_p.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache

from .certify import certify, expected_rank
from .charsum import ExponentTuple, admissible_values, is_admissible, sum_S, survey_N
from .efield import construct_point, mu_d_translate
from .fermat import Line, line_for_thm1, lines_for_c
from .gf import (
    ContradictionError,
    FieldCtx,
    FqElem,
    check_field,
    make_field,
    primitive_root_of_unity,
)

SCHEMA = 1

# rank builds no field, so its cap on q^2 only bounds the trial divisions
# behind it (about 10^6 at q = 10^12, about 0.2 s)
RANK_CAP = 10**24

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------------


def _emit_json(doc: dict) -> None:
    sys.stdout.write(
        json.dumps({"schema": SCHEMA, **doc}, sort_keys=True, separators=(",", ":"))
        + "\n"
    )


def _emit_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _signed(v: int, p: int) -> int:
    return v - p if v > p // 2 else v


def _elem_cell(x: FqElem) -> str:
    """Colon-joined coordinate vector, for CSV cells."""
    return ":".join(str(v) for v in x.coeffs)


def _elem_pretty(x: FqElem) -> str:
    p = x.ctx.p
    vals = [_signed(v, p) for v in x.coeffs]
    if all(v == 0 for v in vals[1:]):
        return str(vals[0])
    return "(" + ",".join(str(v) for v in vals) + ")"


def _parse_elem(ctx: FieldCtx, text: str, name: str) -> FqElem:
    parts = text.split(",")
    try:
        vals = [int(s) for s in parts]
    except ValueError:
        raise ValueError(
            f"--{name} must be an integer or a comma-separated coordinate vector"
        ) from None
    if len(vals) == 1:
        return ctx.from_int(vals[0])
    if len(vals) != 2 * ctx.k:
        raise ValueError(
            f"--{name} needs {2 * ctx.k} coordinates for this field (got {len(vals)})"
        )
    return ctx.from_coeffs(vals)


def _parse_tuple(ctx: FieldCtx, text: str) -> ExponentTuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--tuple must be four comma-separated integers i0,i1,i2,i3")
    try:
        i0, i1, i2, i3 = (int(s) for s in parts)
    except ValueError:
        raise ValueError("--tuple entries must be integers") from None
    return ExponentTuple(ctx.d, i0, i1, i2, i3)


def _require_extended(args, what: str, q: int) -> None:
    if q > 50 and not args.extended:
        raise ValueError(
            f"{what} at q = {q} is an extended run; pass --extended to confirm"
        )


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------


def cmd_charsum(ctx: FieldCtx, args) -> int:
    c = _parse_elem(ctx, args.c, "c")
    if not c.in_fq:
        raise ValueError("--c must lie in the base field F_q")
    t = _parse_tuple(ctx, args.tuple)
    rec = sum_S(ctx, c, t)
    if args.format == "json":
        _emit_json(rec.to_json_dict())
    elif args.format == "csv":
        canon = list(rec.value.canon)
        header = (
            ["q", "c", "i0", "i1", "i2", "i3", "as_integer", "is_real", "hit_upper", "hit_lower"]
            + [f"S_{j}" for j in range(len(canon))]
        )
        row = (
            [rec.q, "0" if c.is_zero else c.dlog, t.i0, t.i1, t.i2, t.i3,
             "" if rec.as_integer is None else rec.as_integer,
             rec.value.is_real, rec.hit_upper, rec.hit_lower]
            + canon
        )
        _emit_csv(header, [row])
    else:
        q = ctx.q
        print(f"q = {q}, d = {ctx.d}, c = {_elem_pretty(c)}, tuple = {t.entries}")
        print(f"S = {rec.value}")
        if rec.as_integer is not None:
            print(f"as integer: {rec.as_integer}")
        print(f"real: {rec.value.is_real}")
        print(f"attains 2q: {rec.hit_upper}; attains -2q: {rec.hit_lower}")
    return 0


def cmd_survey(ctx: FieldCtx, args) -> int:
    _require_extended(args, "the extremal survey", ctx.q)
    N, hits, misses = survey_N(ctx, args.order)
    q = ctx.q
    bound = (3 * q - 9) // 4
    if args.format == "json":
        _emit_json(
            {
                "q": q,
                "order": args.order,
                "N": N,
                "bound": bound,
                "hits": [c.code for c in hits],
                "misses": [c.code for c in misses],
            }
        )
    elif args.format == "csv":
        rows = [[c.code, "upper"] for c in hits] + [[c.code, "lower"] for c in misses]
        _emit_csv(["c", "extremum"], rows)
    else:
        print(f"q = {q}, character order {args.order}")
        print(f"N = {N} values of c attain 2q (certified bound {bound})")
        print(f"upper: {[_elem_pretty(c) for c in hits]}")
        print(f"lower: {[_elem_pretty(c) for c in misses]}")
    return 0


def cmd_lines(ctx: FieldCtx, args) -> int:
    if args.c is None:
        admissible = admissible_values(ctx)
    else:
        c = _parse_elem(ctx, args.c, "c")
        if not is_admissible(c):
            raise ValueError(
                "--c is not admissible: it must be a nonsquare of F_q with c-1 a nonzero square"
            )
        admissible = [c]
    groups = [(c, lines_for_c(ctx, c)) for c in admissible]
    if args.format == "json":
        _emit_json(
            {
                "q": ctx.q,
                "lines": [
                    {
                        "c": c.dlog,
                        "c_coeffs": list(c.coeffs),
                        "pairs": [
                            {"a": list(L.a.coeffs), "b": list(L.b.coeffs)} for L in Ls
                        ],
                    }
                    for c, Ls in groups
                ],
            }
        )
    elif args.format == "csv":
        rows = [[_elem_cell(c), _elem_cell(L.a), _elem_cell(L.b)] for c, Ls in groups for L in Ls]
        _emit_csv(["c", "a", "b"], rows)
    else:
        print(f"q = {ctx.q}: {len(groups)} admissible value(s)")
        for c, Ls in groups:
            pairs = ", ".join(f"(a={_elem_pretty(L.a)}, b={_elem_pretty(L.b)})" for L in Ls)
            print(f"c = {_elem_pretty(c)}: {pairs}")
    return 0


def cmd_point(ctx: FieldCtx, args) -> int:
    if args.thm1:
        if args.a is not None or args.b is not None:
            raise ValueError("--thm1 and explicit --a/--b are mutually exclusive")
        L = line_for_thm1(ctx)
    else:
        if args.a is None or args.b is None:
            raise ValueError("provide either --thm1 or both --a and --b")
        a = _parse_elem(ctx, args.a, "a")
        b = _parse_elem(ctx, args.b, "b")
        L = Line(ctx, a, b)
    P = construct_point(ctx, L)
    j = args.translate % ctx.d
    if j:
        zeta = primitive_root_of_unity(ctx, ctx.d) ** j
        P = mu_d_translate(ctx, P, zeta)
    doc = {
        "q": ctx.q,
        "a": list(L.a.coeffs),
        "b": list(L.b.coeffs),
        "translate": j,
        "point": P.to_json_dict(),
    }
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        if P.is_infinity:
            _emit_csv(["component", "coeffs"], [["infinity", "true"]])
        else:
            def flv(vectors):
                return ";".join(":".join(str(v) for v in vec) for vec in vectors)

            rows = [
                ["x_num", flv(P.x.num.to_coeff_vectors())],
                ["x_den", flv(P.x.den.to_coeff_vectors())],
                ["y_num", flv(P.y.num.to_coeff_vectors())],
                ["y_den", flv(P.y.den.to_coeff_vectors())],
            ]
            _emit_csv(["component", "coeffs"], rows)
    else:
        print(f"q = {ctx.q}, line a = {_elem_pretty(L.a)}, b = {_elem_pretty(L.b)}, translate = {j}")
        print(P.pretty())
        if not P.is_infinity:
            print(
                f"degrees: x = {P.x.num.degree}/{P.x.den.degree}, "
                f"y = {P.y.num.degree}/{P.y.den.degree}"
            )
        print("on curve: True")
    return 0


def cmd_certify(ctx: FieldCtx, args) -> int:
    _require_extended(args, "certification", ctx.q)
    cert = certify(ctx)
    doc = cert.to_json_dict()
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        canons = [e["S_canon"] or [] for e in doc["coverage"]]
        width = max(map(len, canons))
        header = ["i0", "i1", "i2", "i3", "c", "nonzero"] + [f"S_{j}" for j in range(width)]
        rows = [
            e["tuple"] + ["" if e["c"] is None else e["c"], e["nonzero"]]
            + canon + [""] * (width - len(canon))
            for e, canon in zip(doc["coverage"], canons)
        ]
        _emit_csv(header, rows)
    else:
        print(f"q = {ctx.q}: {cert.verdict}")
        print(f"expected rank: {cert.expected_rank}")
        print(f"lines used: {cert.lines_used}")
        uncovered = [tuple(e["tuple"]) for e in doc["coverage"] if not e["nonzero"]]
        if uncovered:
            print(f"uncovered tuples: {uncovered}")
        print(f"orbits: {cert.galois_orbits}")
    return 0


def cmd_rank(args) -> int:
    q = check_field(args.p, args.k, RANK_CAP)
    r = expected_rank(q)
    if args.format == "json":
        _emit_json({"q": q, "expected_rank": r})
    elif args.format == "csv":
        _emit_csv(["q", "expected_rank"], [[q, r]])
    else:
        print(f"q = {q}: expected rank {r}")
    return 0


# ----------------------------------------------------------------------------
# parser and entry point
# ----------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="characteristic (prime, at least 5)")
    sub.add_argument("--k", type=int, default=1, help="extension degree: q = p^k (default 1)")
    sub.add_argument(
        "--format",
        choices=("json", "csv", "pretty"),
        default="pretty",
        help="output format (default pretty)",
    )
    sub.add_argument(
        "--extended",
        action="store_true",
        help="confirm sweeps with q > 50 (seconds at the size cap)",
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="fermatlines",
        description="Exact character sums, surface lines, explicit points, and rank certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_charsum = sub.add_parser("charsum", help="evaluate one cubic character sum")
    _add_common(p_charsum)
    p_charsum.add_argument("--c", required=True, help="the shift c (element of F_q)")
    p_charsum.add_argument("--tuple", required=True, help="exponent tuple i0,i1,i2,i3")

    p_survey = sub.add_parser("survey", help="count c attaining the upper bound 2q")
    _add_common(p_survey)
    p_survey.add_argument("--order", type=int, required=True, help="exact character order (divides d, exceeds 2)")

    p_lines = sub.add_parser("lines", help="list admissible values and their lines")
    _add_common(p_lines)
    p_lines.add_argument("--c", default=None, help="restrict to one admissible value")

    p_point = sub.add_parser("point", help="construct the rational point of a line")
    _add_common(p_point)
    p_point.add_argument("--thm1", action="store_true", help="use the canonical single-line datum (q = 7 mod 12)")
    p_point.add_argument("--a", default=None, help="line coordinate a (element of F_q)")
    p_point.add_argument("--b", default=None, help="line coordinate b (element outside F_q)")
    p_point.add_argument("--translate", type=int, default=0, help="translate by the j-th power of the root of unity")

    p_certify = sub.add_parser("certify", help="run the full-rank generation certificate")
    _add_common(p_certify)

    p_rank = sub.add_parser("rank", help="print the expected rank for q")
    _add_common(p_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        if args.command == "rank":
            return cmd_rank(args)
        ctx = make_field(args.p, args.k)
        if args.command == "charsum":
            return cmd_charsum(ctx, args)
        if args.command == "survey":
            return cmd_survey(ctx, args)
        if args.command == "lines":
            return cmd_lines(ctx, args)
        if args.command == "point":
            return cmd_point(ctx, args)
        if args.command == "certify":
            return cmd_certify(ctx, args)
        raise ValueError(f"unknown command {args.command!r}")
    except ContradictionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
