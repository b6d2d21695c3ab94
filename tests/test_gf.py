"""Field-tower tests: modulus/generator pinning, table consistency,
subgroup structure, character exponents, and (a, b) pair search.

Oracles here are independent of the production code paths: irreducibility
by exhaustive root/factor scan or sympy's galoistools, reference tables by
sympy polynomial products, order checks by repeated multiplication, and
pair searches by brute force over integer residues.
"""

import hashlib
import json

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

from fermatlines import gf
from fermatlines.gf import (
    ContradictionError,
    FqElem,
    _build_tables,
    _is_irreducible,
    _lex_smallest_irreducible,
    chi_exp,
    find_ab_pairs,
    frobenius,
    in_mu_d,
    make_field,
    prime_power,
    primitive_root_of_unity,
)


# ----------------------------------------------------------------------------
# modulus selection
# ----------------------------------------------------------------------------


def naive_irreducible_deg2(c0, c1, p):
    """Degree-2 irreducibility by exhaustive root scan."""
    return all((x * x + c1 * x + c0) % p != 0 for x in range(p))


def test_modulus_is_lex_smallest_irreducible_p7():
    ctx = make_field(7, 1)
    # Exhaustive: every lex-smaller candidate must be reducible.
    found = None
    for c0 in range(7):
        for c1 in range(7):
            if naive_irreducible_deg2(c0, c1, 7):
                found = (c0, c1)
                break
        if found:
            break
    assert ctx.modulus == found == (1, 0)  # w^2 + 1


def test_modulus_is_lex_smallest_irreducible_p5_k2():
    ctx = make_field(5, 2)
    p = 5

    def naive_irreducible_deg4(coeffs):
        # no roots, and no monic quadratic factor
        full = list(coeffs) + [1]
        if any(sum(c * pow(x, i, p) for i, c in enumerate(full)) % p == 0 for x in range(p)):
            return False
        for b0 in range(p):
            for b1 in range(p):
                # divide x^4 + ... by x^2 + b1 x + b0, check remainder
                r = list(full)
                for deg in range(4, 1, -1):
                    t = r[deg] % p
                    r[deg] = 0
                    r[deg - 1] = (r[deg - 1] - t * b1) % p
                    r[deg - 2] = (r[deg - 2] - t * b0) % p
                if r[0] % p == 0 and r[1] % p == 0:
                    return False
        return True

    # All lex-smaller tuples are reducible, the chosen one is irreducible.
    target = ctx.modulus
    assert naive_irreducible_deg4(target)
    for code in range(sum(c * 5 ** (3 - i) for i, c in enumerate(target))):
        digits = []
        rest = code
        for _ in range(4):
            digits.append(rest % 5)
            rest //= 5
        digits.reverse()
        assert not naive_irreducible_deg4(tuple(digits))


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (11, 1), (13, 1)])
def test_irreducibility_helper_agrees_with_root_scan(p, k):
    for c0 in range(p):
        for c1 in range(p):
            assert _is_irreducible([c0, c1], p) == naive_irreducible_deg2(c0, c1, p)


def _sympy_irreducible(coeffs, p):
    """sympy's test on the monic w^n + sum_i coeffs[i] w^i (it wants the
    coefficients high degree first)."""
    return gf_irreducible_p([1] + list(coeffs)[::-1], p, ZZ)


@pytest.mark.parametrize(
    "p,n",
    [(5, 2), (7, 2), (5, 3), (5, 4), (7, 4)]
    + [pytest.param(*pn, marks=pytest.mark.extended) for pn in [(5, 6), (11, 4)]],
)
def test_is_irreducible_matches_sympy_on_every_monic(p, n):
    for code in range(p**n):
        coeffs = gf._code_digits(code, p, n)
        assert _is_irreducible(coeffs, p) == _sympy_irreducible(coeffs, p), coeffs


def _scan_from_zero(p, n):
    """The lex-least monic irreducible by a scan over every code from 0."""
    for code in range(p**n):
        digits = [code // p ** (n - 1 - i) % p for i in range(n)]
        if _sympy_irreducible(digits, p):
            return tuple(digits)
    return None


@pytest.mark.parametrize(
    "p,n",
    [(p, n) for p in (5, 7, 11, 13) for n in (2, 4)]
    + [(5, 6), pytest.param(7, 6, marks=pytest.mark.extended)],
)
def test_pruned_modulus_scan_matches_scan_from_zero(p, n):
    # the scan skips constant term 0; the lex-least irreducible is unchanged
    assert _lex_smallest_irreducible(p, n) == _scan_from_zero(p, n)


def test_prime_power_matches_sympy():
    for n in range(-3, 2000):
        factors = sympy.factorint(n) if n >= 2 else {}
        expected = next(iter(factors.items())) if len(factors) == 1 else None
        assert prime_power(n) == expected, n


def test_modulus_and_generator_pinned_at_every_cap_field(monkeypatch):
    # every (p, k) the size cap allows, ascending: p prime, 5 <= p < 2000,
    # k = 1..4, p^(2k) <= SIZE_CAP.  The scans alone run: the tables are
    # stubbed out, and the uncached build keeps the stubbed contexts out of
    # make_field's cache
    stub = np.zeros(1, dtype=np.int32)
    monkeypatch.setattr(gf, "_build_tables", lambda *args: (stub.copy(), stub.copy()))
    rows = []
    for p in filter(sympy.isprime, range(5, 2000)):
        for k in range(1, 5):
            if p ** (2 * k) <= gf.SIZE_CAP:
                ctx = gf._build_field.__wrapped__(p, k)
                rows.append([p, k, list(ctx.modulus), ctx.g_code])
    assert len(rows) == 317
    spots = {(p, k): (tuple(m), g) for p, k, m, g in rows}
    assert spots[5, 4] == ((1, 0, 0, 0, 0, 1, 1, 0), 6)
    assert spots[43, 2] == ((1, 0, 0, 5), 45)
    assert spots[1993, 1] == ((1, 3), 1997)
    assert spots[1999, 1] == ((1, 0), 2003)
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "16a4c513d649e7634be8621225e3d6474040ebb2a05b1c24823e5dd318aa7b57"


# ----------------------------------------------------------------------------
# generator and tables
# ----------------------------------------------------------------------------


def test_generator_is_smallest_full_order_code_p7():
    ctx = make_field(7, 1)
    assert ctx.g_code == 9  # 2 + w

    # Oracle: order by repeated code multiplication through add/mul digits.
    def order_of(code):
        seen = 1
        cur = code
        while cur != 1:
            cur = ctx.mul_codes(cur, code)
            seen += 1
            if seen > 48:
                return None
        return seen

    full = [c for c in range(2, 49) if order_of(c) == 48]
    assert full[0] == 9


def test_exp_dlog_are_mutually_inverse():
    for p, k in [(7, 1), (5, 2)]:
        ctx = make_field(p, k)
        n = ctx.q * ctx.q - 1
        assert ctx.exp.shape == (n,)
        assert ctx.dlog.shape == (ctx.q * ctx.q,)
        assert ctx.dlog[0] == -1
        assert sorted(ctx.exp.tolist()) == list(range(1, ctx.q * ctx.q))
        codes = np.arange(1, ctx.q * ctx.q)
        assert np.array_equal(ctx.exp[ctx.dlog[codes]], codes)


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2), (7, 3)])
def test_digit_rows_match_decode_and_round_trip(p, k):
    ctx = make_field(p, k)
    codes = list(range(ctx.q * ctx.q))
    rows = ctx.digit_rows(codes)
    assert rows.tolist() == [list(ctx.decode(c)) for c in codes]
    back = ctx.row_codes(rows)
    assert back == codes and all(type(c) is int for c in back)
    assert ctx.digit_rows([]).shape == (0, ctx.deg)


def test_tables_are_frozen():
    ctx = make_field(7, 1)
    with pytest.raises(ValueError):
        ctx.exp[0] = 5
    with pytest.raises(ValueError):
        ctx.dlog[1] = 5


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(3)  # characteristic below 5
    with pytest.raises(ValueError):
        make_field(7, 0)
    with pytest.raises(ValueError):
        make_field(2003, 2)  # q^2 over the size cap


@pytest.mark.parametrize(
    "p,k", [(6, 1), (3, 1), (7, 0), (2003, 1), ("7", 1), (1999, 1), (7, 3)]
)
def test_check_field_matches_make_field(monkeypatch, p, k):
    # check_field raises exactly what make_field raises, and builds nothing
    try:
        make_field(p, k)
        expected = None
    except ValueError as e:
        expected = str(e)
    monkeypatch.setattr(gf, "_build_tables", None)
    monkeypatch.setattr(gf, "_lex_smallest_irreducible", None)
    try:
        gf.check_field(p, k)
        got = None
    except ValueError as e:
        got = str(e)
    assert got == expected


def test_make_field_is_cached():
    assert make_field(7, 1) is make_field(7, 1)


def test_make_field_call_forms_share_one_context():
    # keyword and default arguments reach the same cached build, so
    # elements from any call form mix
    forms = [make_field(7), make_field(7, 1), make_field(p=7), make_field(7, k=1)]
    assert all(ctx is forms[0] for ctx in forms)
    assert (forms[0].one + forms[1].one) == forms[2].from_int(2)


def test_make_field_checks_every_call():
    # non-int arguments that equal and hash like the cached key still fail
    make_field(7, 1)
    with pytest.raises(ValueError, match="must be integers"):
        make_field(7, 1.0)
    with pytest.raises(ValueError, match="must be integers"):
        make_field(np.int64(7), 1)


# sha256 of exp and dlog (as little-endian int64) from the sequential
# one-multiplication-per-element build, which the block build must match.
TABLE_PINS = {
    (7, 3): (
        (1, 0, 0, 0, 1, 0),
        8,
        "60afb7330ae79f471b77b3a250ba412faae3559a6d272462d21ef108715d5c75",
        "de73094b68fc3cc1c1d86ff4f63c3b36dc0be5d1b9936ac2410cd0f00729d81f",
    ),
    (5, 4): (
        (1, 0, 0, 0, 0, 1, 1, 0),
        6,
        "2662421036df1e4a23eba6866f2c80846cac5d5a99bdaa4af71fb41305a0cfe5",
        "753dbea23546142e2ebb76f9d076b49ad912fc43c73659feca54360fef696877",
    ),
    (251, 1): (
        (1, 0),
        256,
        "f05605819d5fd49618e10ca815a29e984b163d77802cceffcbc9236858e9b60a",
        "b6422983cd064979ce78848f4a3bf6d7346590869812d16fb270a6f8c7783569",
    ),
    (11, 3): (
        (1, 0, 0, 0, 1, 1),
        15,
        "b6fa55f2b15bfb9fdc1fc76beb4654418663c4e48233e1f12e46bee72c8fdb09",
        "a0cd3c2fb810290d0af704e36c2af717abaa855b606abdc998f2dfdcd4fdfbe9",
    ),
    (1999, 1): (
        (1, 0),
        2003,
        "406bdb3e2a06e0596b95e458c787f1c41d000ed91979c0c30ad2c474994020b5",
        "3eb6e7cadec31b1ac602f79d1a7249b7b7f42313280397eb633e691fe509e37a",
    ),
}


def _digest(table):
    return hashlib.sha256(table.astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize(
    "p,k",
    [(7, 3), (5, 4), (251, 1)]
    + [pytest.param(*pk, marks=pytest.mark.extended) for pk in [(11, 3), (1999, 1)]],
)
def test_tables_match_pins(p, k):
    ctx = make_field(p, k)
    assert ctx.exp.dtype == ctx.dlog.dtype == np.int32
    assert (ctx.modulus, ctx.g_code, _digest(ctx.exp), _digest(ctx.dlog)) == TABLE_PINS[p, k]


def _sequential_tables(ctx):
    """exp and dlog by one sympy product and remainder per element: the
    reference build.  sympy polynomials list coefficients high degree first."""
    p, order = ctx.p, ctx.q * ctx.q - 1
    g_poly = ctx.decode(ctx.g_code)[::-1]
    modulus = [1, *ctx.modulus[::-1]]
    exp = np.zeros(order, dtype=np.int64)
    dlog = np.full(ctx.q * ctx.q, -1, dtype=np.int64)
    cur = [1]
    for m in range(order):
        code = sum(c * p**i for i, c in enumerate(cur[::-1]))
        exp[m] = code
        dlog[code] = m
        cur = gf_rem(gf_mul(cur, g_poly, p, ZZ), modulus, p, ZZ)
    assert cur == [1]
    return exp, dlog


# Group orders 24, 48, 624, 2400, 15624, 28560 and 63000: below and above
# the block size, and (above it) ending in a partial block.
@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (5, 2), (7, 2), (5, 3), (13, 2), (251, 1)])
def test_block_tables_match_sequential_build(p, k):
    ctx = make_field(p, k)
    exp, dlog = _sequential_tables(ctx)
    assert np.array_equal(ctx.exp, exp)
    assert np.array_equal(ctx.dlog, dlog)


@pytest.mark.parametrize("block", [4, 16, 32])
@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (5, 2)])
def test_block_tables_with_small_blocks(monkeypatch, p, k, block):
    # orders 24, 48 and 624 in up to 156 blocks, with and without a partial
    # last block
    ctx = make_field(p, k)
    monkeypatch.setattr(gf, "_BLOCK", block)
    # the matrix of multiplication by g, row i the digits of w^i * g
    A = ctx.digit_rows([ctx.mul_codes(p**i, ctx.g_code) for i in range(ctx.deg)])
    exp, dlog = _build_tables(p, ctx.deg, A)
    assert np.array_equal(exp, ctx.exp)
    assert np.array_equal(dlog, ctx.dlog)


# ----------------------------------------------------------------------------
# element arithmetic
# ----------------------------------------------------------------------------


def test_field_axioms_exhaustive_p7():
    ctx = make_field(7, 1)
    elems = list(ctx.elements())
    for x in elems:
        assert x + ctx.zero == x
        assert x * ctx.one == x
        assert x + (-x) == ctx.zero
        if not x.is_zero:
            assert x * x.inverse() == ctx.one
    # spot-check distributivity on all triples of a subset
    sub = elems[::5]
    for x in sub:
        for y in sub:
            assert x * y == y * x
            assert x + y == y + x
            for z in sub:
                assert x * (y + z) == x * y + x * z


def test_int_coercion_and_from_coeffs():
    ctx = make_field(7, 1)
    assert ctx.from_int(10) == ctx.from_int(3)
    assert ctx.from_coeffs([3, 2]).code == 3 + 2 * 7
    assert ctx.from_coeffs([-1]) == ctx.from_int(6)
    x = ctx.from_coeffs([0, 1])  # w
    assert x * x == ctx.from_int(-1)  # modulus is w^2 + 1
    assert 2 * x + 1 == ctx.from_coeffs([1, 2])
    assert 1 / x == x.inverse()
    assert (5 - x) + (x - 5) == ctx.zero


def test_pow_edge_cases():
    ctx = make_field(7, 1)
    x = ctx.gen
    assert x**0 == ctx.one
    assert x**-1 == x.inverse()
    assert ctx.zero**0 == ctx.one
    assert ctx.zero**5 == ctx.zero
    with pytest.raises(ZeroDivisionError):
        ctx.zero ** (-1)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 48 * 48 - 1), st.integers(0, 48 * 48 - 1))
def test_dlog_is_multiplicative_hom(i, j):
    ctx = make_field(7, 1)
    n = ctx.q * ctx.q - 1
    x, y = FqElem(ctx, int(ctx.exp[i % n])), FqElem(ctx, int(ctx.exp[j % n]))
    assert (x * y).dlog == (x.dlog + y.dlog) % n


# ----------------------------------------------------------------------------
# subfield, Frobenius, mu_d
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2)])
def test_subfield_membership_matches_frobenius_fix(p, k):
    ctx = make_field(p, k)
    fq = set(ctx.fq_codes())
    assert len(fq) == ctx.q
    for x in ctx.elements():
        assert (frobenius(ctx, x) == x) == (x.code in fq)
        assert x.in_fq == (x.code in fq)


def test_frobenius_is_involution_and_hom():
    ctx = make_field(5, 2)
    xs = list(ctx.elements())
    for x in xs[::7]:
        assert frobenius(ctx, frobenius(ctx, x)) == x
        for y in xs[::11]:
            assert frobenius(ctx, x * y) == frobenius(ctx, x) * frobenius(ctx, y)
            assert frobenius(ctx, x + y) == frobenius(ctx, x) + frobenius(ctx, y)


def test_power_d_equals_norm_like_product():
    ctx = make_field(7, 1)
    for x in ctx.elements():
        if x.is_zero:
            continue
        assert x**ctx.d == x * frobenius(ctx, x)
        # x^d lands in F_q (it is fixed by Frobenius)
        assert (x**ctx.d).in_fq


def test_mu_d_membership_and_size():
    for p, k in [(7, 1), (5, 2)]:
        ctx = make_field(p, k)
        mu = [x for x in ctx.elements() if not x.is_zero and in_mu_d(ctx, x)]
        assert len(mu) == ctx.d
        for x in mu:
            assert x**ctx.d == ctx.one
            # Frobenius inverts mu_d
            assert frobenius(ctx, x) == x.inverse()
    with pytest.raises(ValueError):
        in_mu_d(ctx, ctx.zero)


def test_mu_d_gen_has_order_d():
    ctx = make_field(7, 1)
    z = ctx.mu_d_gen()
    assert z.multiplicative_order() == ctx.d
    # chi(g^m) = zeta_d^m, so g_d = g^(q-1) has character exponent q-1 = d-2.
    assert chi_exp(ctx, z) == ctx.d - 2


def test_frobenius_negates_square_roots_of_fq_nonsquares():
    # b outside F_q with b^2 in F_q satisfies pi(b) = -b.
    ctx = make_field(7, 1)
    for b in ctx.elements():
        if b.is_zero or b.in_fq:
            continue
        if (b * b).in_fq:
            assert frobenius(ctx, b) == -b


# ----------------------------------------------------------------------------
# character exponents
# ----------------------------------------------------------------------------


def test_chi_exp_zero_marker_and_kernel():
    ctx = make_field(7, 1)
    assert chi_exp(ctx, ctx.zero) is None
    kernel = [x for x in ctx.elements() if not x.is_zero and chi_exp(ctx, x) == 0]
    assert len(kernel) == ctx.q - 1
    assert all(x.in_fq for x in kernel)


def test_chi_exp_is_hom_and_scales_with_i():
    ctx = make_field(5, 2)
    xs = [x for x in ctx.elements() if not x.is_zero]
    for x in xs[::17]:
        for y in xs[::23]:
            assert chi_exp(ctx, x * y) == (chi_exp(ctx, x) + chi_exp(ctx, y)) % ctx.d
        for i in range(ctx.d):
            assert chi_exp(ctx, x, i) == chi_exp(ctx, x) * i % ctx.d


def test_chi_exp_on_fq_nonsquare_square_roots():
    # chi(b) = -1 (exponent d/2) for b with b^2 an F_q nonsquare.
    ctx = make_field(13, 1)
    for a, b in find_ab_pairs(ctx):
        assert chi_exp(ctx, b) == ctx.d // 2


# ----------------------------------------------------------------------------
# (a, b) pairs with a^2 + 1 = b^2
# ----------------------------------------------------------------------------


def brute_force_pairs_prime(p):
    """Integer-residue brute force for k = 1: count pairs and c-set."""
    squares = {x * x % p for x in range(1, p)}
    cs = set()
    count = 0
    for a in range(1, p):
        c = (a * a + 1) % p
        if c != 0 and c not in squares:
            cs.add(c)
            count += 2  # two square roots b, both outside F_p
    return count, cs


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 29])
def test_find_ab_pairs_against_integer_brute_force(p):
    ctx = make_field(p, 1)
    pairs = find_ab_pairs(ctx)
    count, cs = brute_force_pairs_prime(p)
    assert len(pairs) == count
    assert sorted({(b * b).code for _, b in pairs}) == sorted(cs)
    for a, b in pairs:
        assert a.in_fq and not a.is_zero
        assert not b.in_fq
        assert a * a + 1 == b * b
        assert (b * b).in_fq


def test_find_ab_pairs_known_c_sets():
    assert sorted({(b * b).code for _, b in find_ab_pairs(make_field(5))}) == [2]
    assert sorted({(b * b).code for _, b in find_ab_pairs(make_field(7))}) == [3, 5]
    assert sorted({(b * b).code for _, b in find_ab_pairs(make_field(11))}) == [2, 6, 10]
    assert sorted({(b * b).code for _, b in find_ab_pairs(make_field(13))}) == [2, 5, 11]


def test_find_ab_pairs_ordering():
    ctx = make_field(13, 1)
    pairs = find_ab_pairs(ctx)
    keys = [(a.dlog, b.dlog) for a, b in pairs]
    assert keys == sorted(keys)


def test_find_ab_pairs_count_formula():
    # #admissible c = (q-1)/4 for q = 1 mod 4; each c gives pairs.
    for p, k in [(5, 1), (13, 1), (17, 1), (5, 2), (29, 1)]:
        ctx = make_field(p, k)
        cs = {(b * b).code for _, b in find_ab_pairs(ctx)}
        assert len(cs) == (ctx.q - 1) // 4


# ----------------------------------------------------------------------------
# pinned roots of unity
# ----------------------------------------------------------------------------


def test_primitive_root_of_unity_orders():
    ctx = make_field(7, 1)
    for m in [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]:
        z = primitive_root_of_unity(ctx, m)
        assert z.multiplicative_order() == m
    with pytest.raises(ValueError):
        primitive_root_of_unity(ctx, 5)  # 5 does not divide 48
    with pytest.raises(ValueError):
        primitive_root_of_unity(ctx, 0)


def test_primitive_root_of_unity_d_matches_mu_d_gen_power():
    ctx = make_field(7, 1)
    z = primitive_root_of_unity(ctx, ctx.d)
    assert in_mu_d(ctx, z)
    assert z.multiplicative_order() == ctx.d
