"""Acceptance suite: the package's eleven binding correctness criteria.

Every check is exact — all tolerances are zero.  Each test records its
outcome in the module-level RESULTS registry keyed by (criterion number,
variant); the conftest terminal-summary hook prints one

    ACCEPTANCE <n>: PASS/FAIL

line per entry at the end of the run.  Minutes-scale sweeps (the q = 343
survey and the q = 71 certificate) are opt-in behind --run-extended.

NOTE on criterion 10 (extended): the expected verdict for q = 71 is
pinned as NOT_CERTIFIED, but the library's exact computation certifies
full rank with 2 lines, and that computation has been cross-validated
three independent ways (see tests/test_certify.py and README.md).  The
expectation is asserted faithfully as stated and the check fails
honestly under --run-extended; it has deliberately not been altered to
match the computed outcome.
"""

import functools
import random
from fractions import Fraction

import pytest

from fermatlines.certify import (
    FULL_RANK_CERTIFIED,
    NOT_CERTIFIED,
    certify,
    expected_rank,
)
from fermatlines.charsum import (
    ExponentTuple,
    admissible_values,
    mod3_test,
    orbit,
    quadratic_identity_check,
    sum_S,
    sum_over_c,
    survey_N,
)
from fermatlines.efield import CurvePoint, Poly, RatFunc, construct_point, mu_d_translate
from fermatlines.fermat import (
    IntersectionSet,
    Line,
    TorusElt,
    build_intersections,
    charsum_numerator,
    geometric_intersection_oracle,
    inner_product_direct,
    inner_product_via_charsum,
    line_for_thm1,
    lines_for_c,
    w_tuples,
)
from fermatlines.gf import find_ab_pairs, make_field

# (criterion number, variant) -> (passed, detail); read by conftest.
RESULTS = {}


def criterion(n, variant=""):
    """Record the wrapped test's outcome in RESULTS, then let pytest see it."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as e:
                RESULTS[(n, variant)] = (False, f"{type(e).__name__}: {e}")
                raise
            RESULTS[(n, variant)] = (True, detail or "")

        return wrapper

    return deco


def all_nonzero_tuples(d):
    out = []
    for i0 in range(1, d):
        for i1 in range(1, d):
            for i2 in range(1, d):
                i3 = -(i0 + i1 + i2) % d
                if i3 != 0:
                    out.append(ExponentTuple(d, i0, i1, i2, i3))
    return out


def divisors(n):
    return [m for m in range(1, n + 1) if n % m == 0]


# ----------------------------------------------------------------------------
# 1. quadratic identity
# ----------------------------------------------------------------------------


@criterion(1)
def test_criterion_01_quadratic_identity():
    """Sum of chi(x(x+c)) is q for every character order > 2, -1 at order 2."""
    checks = 0
    for p, k in [(5, 1), (7, 1), (13, 1), (5, 2)]:
        ctx = make_field(p, k)
        for m in divisors(ctx.d):
            if m <= 2:
                continue
            rep = quadratic_identity_check(ctx, m)
            assert rep["expected"] == ctx.q
            assert rep["checked"] == ctx.q - 1
            assert rep["passed"] == rep["checked"] and rep["failed"] == []
            checks += rep["checked"]
        rep = quadratic_identity_check(ctx, 2)
        assert rep["expected"] == -1
        assert rep["checked"] == ctx.q - 1
        assert rep["passed"] == rep["checked"] and rep["failed"] == []
        checks += rep["checked"]
    return f"q in {{5,7,13,25}}, every order, every split quadratic ({checks} sums)"


# ----------------------------------------------------------------------------
# 2. extremal survey N = (3p-9)/4
# ----------------------------------------------------------------------------


@criterion(2)
def test_criterion_02_survey_bound_attained():
    """N = (3p-9)/4 exactly for order-4 characters; q = 7 sets pinned."""
    for p in [7, 11, 19, 23, 31, 43]:
        ctx = make_field(p)
        n, hits, misses = survey_N(ctx, 4)
        assert 4 * n == 3 * p - 9, f"p = {p}: N = {n}"
        if p == 7:
            assert [c.code for c in hits] == [2, 4, 6]
            assert [c.code for c in misses] == [3, 5]
            # the -2q attainers are exactly the c with c a nonsquare and
            # c - 1 a nonzero square in F_p
            residue = [
                c.code
                for c in ctx.fq_elements()
                if not c.is_zero
                and not c.is_square_in_fq()
                and not (c - 1).is_zero
                and (c - 1).is_square_in_fq()
            ]
            assert sorted(residue) == [c.code for c in misses]
    return "N = (3p-9)/4 at p in {7,11,19,23,31,43}; q=7 hit/miss sets as pinned"


@pytest.mark.extended
@criterion(2, "extended")
def test_criterion_02_extended_survey_343():
    ctx = make_field(7, 3)
    n, _, _ = survey_N(ctx, 4)
    assert n == 255 == (3 * 343 - 9) // 4, f"q = 343: N = {n}"
    return "q = 343: N = 255 = (3q-9)/4"


# ----------------------------------------------------------------------------
# 3. sum over c closed form
# ----------------------------------------------------------------------------


@criterion(3)
def test_criterion_03_sum_over_c():
    """Sum of S_c over all c is q(q-3), or (q-1)^2 when i0 + i1 = 0 mod d."""
    checks = 0
    for p in [5, 7]:
        ctx = make_field(p)
        for t in all_nonzero_tuples(ctx.d):
            total = sum_over_c(ctx, t)
            expected = (
                (ctx.q - 1) ** 2 if (t.i0 + t.i1) % ctx.d == 0 else ctx.q * (ctx.q - 3)
            )
            assert total.equals_integer(expected), (p, t)
            checks += 1
    ctx = make_field(13)
    pool = all_nonzero_tuples(ctx.d)
    for t in random.Random(13).sample(pool, 50):
        total = sum_over_c(ctx, t)
        expected = (
            (ctx.q - 1) ** 2 if (t.i0 + t.i1) % ctx.d == 0 else ctx.q * (ctx.q - 3)
        )
        assert total.equals_integer(expected), (13, t)
        checks += 1
    return f"exhaustive at q in {{5,7}}, 50 sampled at q = 13 ({checks} tuples)"


# ----------------------------------------------------------------------------
# 4. endpoint (Jacobi) values
# ----------------------------------------------------------------------------


@criterion(4)
def test_criterion_04_endpoint_values():
    """S_0 and S_1 equal q or -1 according to the vanishing-pair branch."""
    checks = 0
    for p in [5, 7, 13]:
        ctx = make_field(p)
        d = ctx.d
        for t in all_nonzero_tuples(d):
            s0 = sum_S(ctx, ctx.zero, t)
            assert s0.as_integer == (-1 if (t.i0 + t.i2) % d == 0 else ctx.q), (p, t)
            s1 = sum_S(ctx, ctx.one, t)
            assert s1.as_integer == (-1 if (t.i1 + t.i2) % d == 0 else ctx.q), (p, t)
            checks += 2
    return f"all nonzero tuples at q in {{5,7,13}} ({checks} endpoint sums)"


# ----------------------------------------------------------------------------
# 5. c-orbits and admissibility
# ----------------------------------------------------------------------------


@criterion(5)
def test_criterion_05_orbits_and_admissibility():
    """S constant on c-orbits; admissible counts and in-orbit pattern."""
    # orbit invariance for every w-type tuple and every c outside {0, 1}
    for p in [7, 13]:
        ctx = make_field(p)
        seen = set()
        for c in ctx.fq_elements():
            if c.is_zero or c == 1 or c.code in seen:
                continue
            members = sorted(orbit(c), key=lambda x: x.code)
            seen.update(x.code for x in members)
            for t in w_tuples(ctx.d)[1:]:
                values = {sum_S(ctx, x, t).value.canon for x in members}
                assert len(values) == 1, (p, t, [x.code for x in members])
    # admissible counts for q = 1 mod 4
    for p, k in [(5, 1), (13, 1), (17, 1), (5, 2), (29, 1)]:
        ctx = make_field(p, k)
        assert len(admissible_values(ctx)) == (ctx.q - 1) // 4, ctx.q
    # the in-orbit admissibility pattern at q = 13: within each orbit the
    # admissible members are exactly {c, (1 - c^-1)^-1}; c = 2 is its own
    # partner, giving the singleton exception
    ctx = make_field(13)
    adm = set(admissible_values(ctx))
    assert sorted(x.code for x in adm) == [2, 5, 11]
    seen = set()
    for c in ctx.fq_elements():
        if c.is_zero or c == 1 or c.code in seen:
            continue
        members = orbit(c)
        seen.update(x.code for x in members)
        inside = adm & members
        if inside:
            witness = min(inside, key=lambda x: x.code)
            partner = (ctx.one - witness.inverse()).inverse()
            assert inside == {witness, partner}, [x.code for x in inside]
            if witness.code == 2:
                assert partner == witness  # the 3-element orbit of c = 2
    return "orbit-constant S at q in {7,13}; counts (q-1)/4; q=13 partner pattern"


# ----------------------------------------------------------------------------
# 6. dual-route inner products
# ----------------------------------------------------------------------------


@criterion(6)
def test_criterion_06_dual_route_inner_products():
    """Direct I_L enumeration and the character sum give the same pairing."""
    checks = 0
    for p in [5, 7, 13]:
        ctx = make_field(p)
        d = ctx.d
        for a, b in find_ab_pairs(ctx):
            L = Line(ctx, a, b)
            assert inner_product_direct(ctx, L, ExponentTuple.trivial(d)) == Fraction(
                1, d
            )
            iset = build_intersections(ctx, L)
            three_only = IntersectionSet(iset.three_entry, {})
            for t in w_tuples(d)[1:]:
                # compare the two routes at the exact cyclotomic level
                left = iset.lambda_inv_sum(t) + (2 - d)
                right = charsum_numerator(ctx, L, t)
                assert left == right, (p, (a.code, b.code), t)
                # when rational, the assembled fractions agree as well
                if right.as_integer is not None:
                    assert inner_product_direct(ctx, L, t) == inner_product_via_charsum(
                        ctx, L, t
                    ) == Fraction(right.as_integer, d**3)
                # the three-entry block alone always contributes -4
                assert three_only.lambda_inv_sum(t).equals_integer(-4)
                checks += 1
    return f"every (a,b) pair, every nonzero w-tuple at q in {{5,7,13}} ({checks})"


# ----------------------------------------------------------------------------
# 7. geometric intersection oracle
# ----------------------------------------------------------------------------


@criterion(7)
def test_criterion_07_geometric_oracle():
    """The closed-form I_L matches brute-force line meeting over the torus."""
    sizes = {}
    for p in [5, 7]:
        ctx = make_field(p)
        L = line_for_thm1(ctx) if ctx.q % 12 == 7 else lines_for_c(ctx, ctx.elem(2))[0]
        iset = build_intersections(ctx, L)
        three = set(iset.three_entry)
        gammas = set(iset.gamma_indexed.values())
        q1 = ctx.q - 1
        mu = [ctx.elem(int(ctx.exp[q1 * m])) for m in range(ctx.d)]
        count = 0
        for t0 in mu:
            for t1 in mu:
                for t2 in mu:
                    t = TorusElt(t0, t1, t2)
                    n = geometric_intersection_oracle(ctx, L, t)
                    if t.is_identity:
                        expected = ctx.q**2 + 1
                    elif t in three:
                        expected = 1
                    elif t in gammas:
                        expected = 2
                    else:
                        expected = 0
                    assert n == expected, (p, n, expected)
                    count += 1
        sizes[p] = count
    assert sizes == {5: 216, 7: 512}
    return "full torus at q in {5,7} (|T| = 216, 512), every class verified"


# ----------------------------------------------------------------------------
# 8. mod-3 obstruction
# ----------------------------------------------------------------------------


@criterion(8)
def test_criterion_08_mod3_obstruction():
    """S = 1 mod 3 Z[zeta] for the pinned c, all nontrivial w-tuples."""
    checks = 0
    for p in [7, 19, 31]:
        ctx = make_field(p)
        c = line_for_thm1(ctx).c
        for t in w_tuples(ctx.d)[1:]:
            assert mod3_test(ctx, c, t), (p, t)
            checks += 1
    return f"q in {{7,19,31}}, c = b^2 from the single-line datum ({checks} tuples)"


# ----------------------------------------------------------------------------
# 9. the explicit q = 7 point
# ----------------------------------------------------------------------------

# transcribed printed values, highest degree first
PX_NUM = [-2, -2, 3, 1, 0, 1, 0, -1, 0, 2, -1, -3, 3, 2, 2]
PX_DEN = [-2, 2, 3, 3, 1, -3, -2, -1, -1]
PY_NUM_INNER = [1, 1, -1, 2, 0, -1, 2, 2, -3, 0, 2, 1, 2, -2, -1, 1, 0, 2, -2, 1, 0, -1]
PY_DEN = [1, 2, -1, 2, 3, 0, 1, 0, -1, 2, -1, -2, 1]


@criterion(9)
def test_criterion_09_explicit_point():
    """construct_point at q = 7 reproduces the printed point exactly."""
    ctx = make_field(7)
    x = RatFunc(
        Poly.from_fp(ctx, list(reversed(PX_NUM))),
        Poly.from_fp(ctx, list(reversed(PX_DEN))),
    )
    y = -RatFunc(
        Poly.from_fp(ctx, list(reversed(PY_NUM_INNER))),
        Poly.from_fp(ctx, list(reversed(PY_DEN))),
    )
    expected = CurvePoint(ctx, x, y)
    L = line_for_thm1(ctx)
    assert L.a == ctx.elem(3) and L.b * L.b == ctx.elem(3)
    P = construct_point(ctx, L)
    assert P == expected, "constructed point differs from the printed one"
    assert P.x.num.degree == 14 and P.x.den.degree == 8
    assert P.y.num.degree == 21 and P.y.den.degree == 12
    assert P.on_curve()
    zeta = ctx.mu_d_gen()
    translates = {mu_d_translate(ctx, P, zeta**j) for j in range(ctx.d)}
    assert len(translates) == 8
    assert all(T.on_curve() for T in translates)
    return "printed P matched exactly; degrees 14/8, 21/12; 8 translates on-curve"


# ----------------------------------------------------------------------------
# 10. generation certificates
# ----------------------------------------------------------------------------


@criterion(10)
def test_criterion_10_certificates():
    """Single- and few-line certificates at small q; q = 11 fails honestly."""
    outcomes = []
    for q, verdict, max_lines in [
        (7, FULL_RANK_CERTIFIED, 1),
        (19, FULL_RANK_CERTIFIED, 1),
        (13, FULL_RANK_CERTIFIED, len(divisors(14)) - 1),
        (17, FULL_RANK_CERTIFIED, len(divisors(18)) - 1),
        (11, NOT_CERTIFIED, None),
    ]:
        cert = certify(make_field(q))
        assert cert.verdict == verdict, (q, cert.verdict)
        if max_lines is not None:
            assert cert.lines_used <= max_lines, (q, cert.lines_used)
        outcomes.append(f"{q}: {cert.verdict} ({cert.lines_used})")
    return "; ".join(outcomes)


@pytest.mark.extended
@criterion(10, "extended")
def test_criterion_10_extended_certify_71():
    cert = certify(make_field(71))
    assert cert.verdict == NOT_CERTIFIED, (
        f"expected NOT_CERTIFIED at q = 71, but the exact computation returns "
        f"{cert.verdict} with lines_used = {cert.lines_used}; the computation is "
        f"cross-validated three independent ways (tests/test_certify.py) and this "
        f"pinned expectation appears to be wrong — the check is left failing "
        f"honestly rather than altered to match; see README.md"
    )
    return "q = 71: NOT_CERTIFIED as pinned"


# ----------------------------------------------------------------------------
# 11. bookkeeping
# ----------------------------------------------------------------------------


@criterion(11)
def test_criterion_11_dimension_and_rank_bookkeeping():
    """w-tuple counts d or d-2; expected_rank values at small q."""
    for d in [6, 8, 12, 14, 18]:
        assert len(w_tuples(d)) == (d if d % 3 else d - 2), d
    ranks = {5: 3, 7: 7, 11: 9, 13: 13}
    for q, r in ranks.items():
        assert expected_rank(q) == r, q
    return "w-tuple counts at d in {6,8,12,14,18}; ranks 3/7/9/13 at q in {5,7,11,13}"
