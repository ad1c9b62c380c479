"""Field arithmetic: examples, axioms, and the scalar/vector path agreement."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taniapn.errors import InvalidParams, ZeroInput, ZeroInverse
from taniapn.families import PottZhouParams, TaniguchiParams, gold
from taniapn.gf2m import (
    MODULUS_TABLE,
    FieldCtx,
    coprime_residues,
    default_ctx,
    factorize,
    irreducibles,
    is_irreducible,
    resolve_ctx,
    smallest_irreducible,
    xor_span,
)
from taniapn.linmaps import gf2_apply

GF8 = FieldCtx(3, 0xB)


def test_modulus_table_spot_values():
    assert MODULUS_TABLE[1] == 0x3
    assert MODULUS_TABLE[2] == 0x7
    assert MODULUS_TABLE[3] == 0xB
    assert MODULUS_TABLE[4] == 0x13
    assert MODULUS_TABLE[8] == 0x11B


def test_modulus_table_regenerates():
    for m in range(1, 33):
        assert smallest_irreducible(m) == MODULUS_TABLE[m]


def test_irreducibility_rejects_products():
    assert not is_irreducible(0b1111)        # (X+1)(X^2+X+1)
    assert not is_irreducible(0b101)         # (X+1)^2
    assert is_irreducible(0b111)
    assert is_irreducible(0x11B)


def test_ctx_validation():
    with pytest.raises(InvalidParams):
        FieldCtx(0)
    with pytest.raises(InvalidParams):
        FieldCtx(33)
    with pytest.raises(InvalidParams):
        FieldCtx(3, 0xF)                     # reducible
    with pytest.raises(InvalidParams):
        FieldCtx(3, 0x13)                    # wrong degree
    with pytest.raises(InvalidParams):
        FieldCtx(3, 0xA)                     # no constant term


def test_mul_examples():
    assert GF8.mul(0b010, 0b010) == 0b100    # X * X = X^2
    assert GF8.mul(0b010, 0b100) == 0b011    # X^3 = X + 1
    for a in range(8):
        assert GF8.mul(a, 0b001) == a


def test_pow2k_examples():
    assert GF8.pow2k(0b010, 1) == 0b100
    for a in range(8):
        assert GF8.pow2k(a, 0) == a
        assert GF8.pow2k(a, 3) == a          # Frobenius order m
        assert GF8.pow2k(a, -1) == GF8.pow2k(a, 2)


def test_pow_examples():
    assert GF8.pow(0b010, 3) == 0b011
    assert GF8.pow(0, 0) == 1
    for a in range(1, 8):
        assert GF8.pow(a, 1) == a
        assert GF8.pow(a, 7) == 1            # Lagrange


def test_inverse_examples():
    assert GF8.inverse(1) == 1
    assert GF8.inverse(0b010) == 0b101       # X * (X^2 + 1) = 1
    rng = np.random.default_rng(7)
    ctx = default_ctx(11)
    for a in rng.integers(1, ctx.order, size=100):
        assert ctx.mul(int(a), ctx.inverse(int(a))) == 1
    with pytest.raises(ZeroInverse):
        GF8.inverse(0)


def assert_inverses(ctx, elements):
    for a in elements:
        inv = ctx.inverse(a)
        assert inv == ctx.pow(a, ctx.order - 2) and ctx.mul(a, inv) == 1, (ctx, a)


@pytest.mark.parametrize("m", range(1, 13))
def test_inverse_matches_pow_on_every_element(m):
    assert_inverses(default_ctx(m), range(1, 1 << m))


@pytest.mark.parametrize("m", range(13, 33))
def test_inverse_matches_pow_on_samples(m):
    rng = random.Random(m)
    assert_inverses(default_ctx(m), [rng.randrange(1, 1 << m) for _ in range(2000)])


@pytest.mark.parametrize("m, modulus", [(6, 0x49), (9, 0x211)])
def test_inverse_matches_pow_under_other_moduli(m, modulus):
    assert_inverses(FieldCtx(m, modulus), range(1, 1 << m))


def test_inverse_refuses_non_elements():
    ctx = default_ctx(5)
    for a in (ctx.order, ctx.modulus, -1):
        with pytest.raises(InvalidParams):
            ctx.inverse(a)


def test_is_cube():
    ctx = default_ctx(4)
    assert ctx.is_cube(1)
    brute = {ctx.pow(c, 3) for c in range(1, 16)}
    assert sum(ctx.is_cube(a) for a in range(1, 16)) == len(brute) == 5
    for a in range(1, 16):
        assert ctx.is_cube(a) == (a in brute)
    for a in range(1, 32):                   # odd m: cubing is a bijection
        assert default_ctx(5).is_cube(a)
    with pytest.raises(ZeroInput):
        ctx.is_cube(0)


def test_cube_count_even_m():
    for m in (2, 4, 6, 8):
        ctx = default_ctx(m)
        cubes = sum(ctx.is_cube(a) for a in range(1, ctx.order))
        assert cubes == (ctx.order - 1) // 3


@settings(max_examples=300, deadline=None)
@given(
    m=st.sampled_from([2, 3, 5, 8, 13, 16, 18, 24]),
    data=st.data(),
)
def test_field_axioms(m, data):
    ctx = default_ctx(m)
    elem = st.integers(min_value=0, max_value=ctx.order - 1)
    a, b, c = data.draw(elem), data.draw(elem), data.draw(elem)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
    assert ctx.mul(a, 1) == a
    assert ctx.mul(a, 0) == 0


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from([3, 6, 11, 18]),
    data=st.data(),
)
def test_frobenius_is_field_automorphism(m, data):
    ctx = default_ctx(m)
    elem = st.integers(min_value=0, max_value=ctx.order - 1)
    a, b = data.draw(elem), data.draw(elem)
    fr = lambda x: ctx.pow2k(x, 1)
    assert fr(a ^ b) == fr(a) ^ fr(b)
    assert fr(ctx.mul(a, b)) == ctx.mul(fr(a), fr(b))
    k = data.draw(st.integers(min_value=0, max_value=m - 1))
    assert ctx.pow2k(ctx.pow2k(a, k), m - k) == a


def test_generator_has_full_order():
    for m in (1, 2, 3, 5, 8, 12):
        ctx = default_ctx(m)
        g = ctx.generator
        seen = set()
        x = 1
        for _ in range(ctx.order - 1):
            seen.add(x)
            x = ctx.mul(x, g)
        assert x == 1 and len(seen) == ctx.order - 1


def check_log_tables(ctx, idx):
    """exp[i] = g^i and log[exp[i]] = i at each i of idx; log[0] = -1."""
    exp, log = ctx._logexp
    assert exp.dtype == np.uint32 and log.dtype == np.int32
    assert exp.size == ctx.order - 1 and log.size == ctx.order and log[0] == -1
    g = ctx.generator
    for i in idx:
        assert int(exp[i]) == ctx.pow(g, i) and int(log[exp[i]]) == i


@pytest.mark.parametrize("ctx", [FieldCtx(m) for m in range(1, 17)] + [FieldCtx(9, 0x211)], ids=repr)
def test_log_tables_match_scalar_walk(ctx):
    # every entry against the walk x -> x*g, which visits g^i at step i
    exp, log = ctx._logexp
    walk, x = [], 1
    for _ in range(ctx.order - 1):
        walk.append(x)
        x = ctx.mul(x, ctx.generator)
    assert exp.tolist() == walk
    assert (log[exp] == np.arange(ctx.order - 1)).all()
    check_log_tables(ctx, [0, ctx.order - 2])


@pytest.mark.parametrize("m, modulus", [(20, None), (24, None), (22, 0x400027)])
def test_log_tables_sampled(m, modulus):
    ctx = FieldCtx(m, modulus)
    rng = np.random.default_rng(m)
    check_log_tables(ctx, [0, 1, ctx.order - 2] + rng.integers(0, ctx.order - 1, 300).tolist())


def test_log_build_uses_no_bulk_product(monkeypatch):
    ctx = FieldCtx(12)
    monkeypatch.setattr(ctx, "_mul_vec_raw", lambda *a: pytest.fail("log build called _mul_vec_raw"))
    check_log_tables(ctx, range(0, ctx.order - 1, 97))


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 16, 18, 24, 26, 32])
def test_vector_ops_match_scalar(m):
    # the three product tiers, each at its ends: the product table for
    # m <= 8, the log tables for 9 <= m <= 24, the shift-XOR path beyond
    # (at m = 32 its reduction must not lose the top bit); the scalar side
    # is always the raw loop
    ctx = default_ctx(m)
    rng = np.random.default_rng(m)
    a = rng.integers(0, ctx.order, size=200, dtype=np.uint32)
    b = rng.integers(0, ctx.order, size=200, dtype=np.uint32)
    a[:2] = 0                                # 200 random draws can miss 0
    b[1:3] = 0
    ops = [
        (lambda x, y: ctx.mul_vec(x, y), ctx.mul),
        (lambda x, y: ctx.square_vec(x), lambda x, y: ctx.mul(x, x)),
    ]
    for k in (0, 1, m - 1, -1, -m - 1):
        ops.append((lambda x, y, k=k: ctx.pow2k_vec(x, k), lambda x, y, k=k: ctx.pow2k(x, k)))
    for e in (0, 1, 3, (1 << min(m, 8)) + 1, ctx.order - 1):
        ops.append((lambda x, y, e=e: ctx.pow_vec(x, e), lambda x, y, e=e: ctx.pow(x, e)))
    for vec, scalar in ops:
        r = vec(a, b)
        assert r.dtype == np.uint32 and r.shape == a.shape
        assert all(int(r[i]) == scalar(int(a[i]), int(b[i])) for i in range(200))
        # Python-int and 0-d operands, zero included
        for x, y in ((0, 0), (0, int(b[5])), (int(a[5]), 0), (int(a[5]), int(b[5]))):
            for r in (vec(x, y), vec(np.uint32(x), np.uint32(y)), vec(np.array(x), np.array(y))):
                assert r.dtype == np.uint32 and r.shape == ()
                assert int(r) == scalar(x, y)
    assert ctx.pow_vec(0, 0) == 1 and ctx.pow_vec(np.zeros(3, np.uint32), 0).tolist() == [1] * 3


@pytest.mark.parametrize("ctx", [FieldCtx(m) for m in range(1, 9)]
                         + [FieldCtx(m, list(irreducibles(m))[1]) for m in range(3, 9)], ids=repr)
def test_product_table_matches_raw_product(ctx):
    # every pair (a, b), against the shift-and-XOR product; m = 1 and 2 have
    # one irreducible polynomial each, so the other modulus starts at m = 3
    a, b = np.divmod(np.arange(ctx.order * ctx.order, dtype=np.uint32), np.uint32(ctx.order))
    want = ctx._mul_vec_raw(a, b)
    table = ctx._products
    assert table.dtype == np.uint8 and table.size == ctx.order ** 2 and not table.flags.writeable
    assert (table == want).all()
    r = ctx.mul_vec(a, b)
    assert r.dtype == np.uint32 and (r == want).all()


@pytest.mark.parametrize("m", range(1, 33))
def test_frobenius_map_matches_scalar(m):
    # the table-gather linear maps against the scalar squaring walk and mul,
    # at every degree and every Frobenius power k, with 0, 1, the top element
    # and every basis vector among the inputs (at m = 32 the top bit, which
    # only the high table sees); one table of the whole map up to m = 16,
    # from m = 17 one per operand half, the low half taking the odd bit
    ctx = default_ctx(m)
    rng = np.random.default_rng(100 + m)
    a = np.concatenate([np.array([0, 1, ctx.order - 1], dtype=np.uint32),
                        np.left_shift(np.uint32(1), np.arange(m, dtype=np.uint32)),
                        rng.integers(0, ctx.order, size=100, dtype=np.uint32)])
    want = a.tolist()
    for k in range(m):
        r = ctx.pow2k_vec(a, k)
        assert r.dtype == np.uint32 and r.shape == a.shape and r.tolist() == want
        assert [t.size for t in ctx._frobenius_tables[k]] == \
            ([1 << m] if m <= 16 else [1 << (m + 1) // 2, 1 << m // 2])
        r = ctx.pow2k_vec(np.array(a[-1]), k)
        assert r.shape == () and int(r) == want[-1]
        want = [ctx.mul(x, x) for x in want]
    assert want == a.tolist()  # x^(2^m) = x
    for k in (-1, -m - 1):
        assert ctx.pow2k_vec(a, k).tolist() == [ctx.pow2k(x, k) for x in a.tolist()]
    assert ctx.square_vec(a).tolist() == [ctx.mul(x, x) for x in a.tolist()]
    c = int(rng.integers(1, ctx.order))
    assert ctx._times(a, c).tolist() == [ctx.mul(x, c) for x in a.tolist()]
    # X*a by one shift-and-reduce step; at m = 1, X reduces to 1
    assert ctx.xtime_vec(a).tolist() == [ctx.mul(x, 2) for x in a.tolist()]


@pytest.mark.parametrize("m", [1, 2, 4, 6, 9, 12])
def test_powers_match_scalar_pow(m):
    ctx = default_ctx(m)
    n1 = ctx.order - 1
    # g^d for the smallest prime d dividing 2^m - 1 generates a proper subgroup
    # (for m >= 2); 0 and 1 are the degenerate bases
    c = ctx.pow(ctx.generator, factorize(n1)[0][0]) if n1 > 1 else 1
    for base in (c, 0, 1, ctx.generator):
        for n in (1, 2, 5, 7, n1, 2 * n1 + 3):
            r = ctx._powers(base, n)
            assert r.dtype == np.uint32
            assert r.tolist() == [ctx.pow(base, i) for i in range(n)]


def test_xor_span_of_array_images_spans_each_column():
    # images are rows of a 2-D out, cast to its dtype: column c of the span
    # is the span of the images' column c
    rng = np.random.default_rng(5)
    imgs = rng.integers(0, 1 << 8, size=(6, 5), dtype=np.uint32)
    out = xor_span(list(imgs), np.zeros((1 << 6, 5), dtype=np.uint8))
    assert out.dtype == np.uint8
    for c in range(5):
        assert out[:, c].tolist() == [gf2_apply(imgs[:, c].tolist(), v) for v in range(1 << 6)]


@pytest.mark.parametrize("n", range(13))
def test_xor_span_matches_gf2_apply(n):
    # random 32-bit images with a zero and a repeated image mixed in
    rng = np.random.default_rng(n)
    imgs = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).tolist()
    if n >= 2:
        imgs[n // 2] = 0
        imgs[-1] = imgs[0]
    want = [gf2_apply(imgs, v) for v in range(1 << n)]
    out = xor_span(imgs, np.zeros(1 << n, dtype=np.uint32))
    assert out.dtype == np.uint32 and out.tolist() == want
    # out[0] is an offset added to every entry; entries past 2^n stay as they are
    out = np.full(2 << n, 7, dtype=np.uint32)
    out[0] = 0xA5
    xor_span(imgs, out)
    assert out[:1 << n].tolist() == [0xA5 ^ w for w in want]
    assert (out[1 << n:] == 7).all()


def test_irreducibles_generator():
    first_two = []
    for f in irreducibles(4):
        first_two.append(f)
        if len(first_two) == 2:
            break
    assert first_two[0] == 0x13
    assert is_irreducible(first_two[1]) and first_two[1] != 0x13


def test_coprime_residues():
    assert coprime_residues(1) == [1]
    assert coprime_residues(6) == [1, 5]
    assert coprime_residues(12) == [1, 5, 7, 11]



ENTRY_POINTS = {  # name -> (degree, call with a context)
    "resolve_ctx": (5, lambda c: resolve_ctx(5, c)),
    "TaniguchiParams": (5, lambda c: TaniguchiParams(m=5, k=1, alpha=1, beta=1, ctx=c)),
    "PottZhouParams": (4, lambda c: PottZhouParams(m=4, k=1, s=2, alpha=2, ctx=c)),
    "gold": (5, lambda c: gold(5, 1, c)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_context_of_another_degree_is_refused(name):
    m, call = ENTRY_POINTS[name]
    call(default_ctx(m))
    with pytest.raises(InvalidParams, match="context degree"):
        call(default_ctx(m + 1))
