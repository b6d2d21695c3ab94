#!/usr/bin/env python3
"""Reproduce the extremal-sum survey: N = #{c : S_c = +2q} against (3q-9)/4.

For every prime p = 3 mod 4 in the requested range (and any explicitly
listed prime powers), survey every c in F_q with the order-4 character and
report how many c attain the upper extremum +2q, next to the exact bound
(3q-9)/4.  S_c is computed for one c per orbit of c -> 1/c, c -> 1 - c and
c -> c^p, on which its value is constant (see charsum.survey_N).  The -2q
attainers are listed as well; for primes they are exactly the c with c a
nonsquare and c - 1 a nonzero square.  Every field is checked against
make_field's limits before any output.

Examples:
    python3 scripts/survey_extremal_sums.py
    python3 scripts/survey_extremal_sums.py --upto 139
    python3 scripts/survey_extremal_sums.py --fields 343 --order 4
"""

import argparse
import sys

from fermatlines.charsum import survey_N
from fermatlines.gf import check_field, make_field, prime_power


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--upto",
        type=int,
        default=43,
        help="survey all primes p = 3 mod 4 with 7 <= p <= UPTO (default 43)",
    )
    ap.add_argument(
        "--fields",
        default="",
        help="comma-separated extra prime powers q to survey (e.g. 343)",
    )
    ap.add_argument("--order", type=int, default=4, help="character order (default 4)")
    return ap.parse_args(argv)


def is_prime(n: int) -> bool:
    pk = prime_power(n)
    return pk is not None and pk[1] == 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.order < 3:
        print(f"error: --order must be at least 3, got {args.order}", file=sys.stderr)
        return 2
    fields = [(p, 1) for p in range(7, args.upto + 1) if p % 4 == 3 and is_prime(p)]
    for token in filter(None, args.fields.split(",")):
        try:
            pk = prime_power(int(token))
        except ValueError:
            pk = None
        if pk is None:
            print(f"not a prime power: {token}", file=sys.stderr)
            return 2
        fields.append(pk)
    for p, k in fields:
        try:
            check_field(p, k)
        except ValueError as e:  # characteristic below 5 or over the size cap
            print(f"error: {e}", file=sys.stderr)
            return 2

    print(f"order-{args.order} character, S_c = sum of chi(x(x+1)(x+c))")
    print(f"{'q':>6} {'N':>5} {'(3q-9)/4':>9}  attains  -2q attainers")
    for p, k in fields:
        ctx = make_field(p, k)
        if ctx.d % args.order:
            print(f"{ctx.q:>6}  (order {args.order} does not divide d = {ctx.d})")
            continue
        n, hits, misses = survey_N(ctx, args.order)
        bound = (3 * ctx.q - 9) // 4
        mark = "yes" if n == bound else "NO"
        shown = ",".join(str(c.code) for c in misses[:8])
        if len(misses) > 8:
            shown += f",... ({len(misses)} total)"
        print(f"{ctx.q:>6} {n:>5} {bound:>9}  {mark:>7}  {shown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
