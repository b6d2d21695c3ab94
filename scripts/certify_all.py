#!/usr/bin/env python3
"""Run the full-rank generation certificate over a list of fields.

For each q the certificate checks, orbit by orbit, whether some
admissible c gives S_{c} != 2q — equivalently whether the line family
projects nontrivially onto every relevant character eigenspace.  The
table reports the verdict, the number of distinct lines (c values) the
verified witnesses use, and any uncovered character orbits.  Every field
is checked against make_field's limits before any output.

Examples:
    python3 scripts/certify_all.py
    python3 scripts/certify_all.py --fields 5,7,11,13,17,19,23,25,29,49,71
"""

import argparse
import sys

from fermatlines.certify import certify, expected_rank
from fermatlines.gf import SIZE_CAP, check_field, make_field, prime_power


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--fields",
        default="5,7,11,13,17,19,25",
        help="comma-separated prime powers q (default 5,7,11,13,17,19,25)",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    fields = []
    for token in filter(None, args.fields.split(",")):
        try:
            q = int(token)
        except ValueError:
            q = 0
        if q * q > SIZE_CAP:  # before prime_power, which trial-divides q
            print(f"error: q^2 = {q}^2 exceeds the size cap {SIZE_CAP}", file=sys.stderr)
            return 2
        pk = prime_power(q)
        if pk is None or pk[0] == 2:
            print(f"not an odd prime power: {token}", file=sys.stderr)
            return 2
        try:
            check_field(*pk)
        except ValueError as e:  # characteristic 3
            print(f"error: {e}", file=sys.stderr)
            return 2
        fields.append(pk)

    print(f"{'q':>5} {'rank':>5} {'verdict':<22} {'lines':>5}  uncovered orbits")
    for pk in fields:
        ctx = make_field(*pk)
        cert = certify(ctx)
        uncovered = cert.uncovered
        shown = ",".join(map(str, uncovered)) if uncovered else "-"
        print(
            f"{ctx.q:>5} {expected_rank(ctx.q):>5} {cert.verdict:<22} "
            f"{cert.lines_used:>5}  {shown}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
