"""Pair maps as basis images: composition, inversion, tables, coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taniapn.errors import InvalidParams
from taniapn.gf2m import default_ctx
from taniapn.linmaps import (
    PairMap,
    gf2_apply,
    gf2_invert,
    gf2_kernel,
    gf2_rank,
    kernel_dims,
    linpoly_from_images,
    low_weight_points,
    low_weight_values,
    pack,
    pair_indices,
    table_from_images,
    unpack,
)


def eval_lin(p, x, ctx):
    """Scalar oracle: the linearized polynomial sum p_i X^(2^i) at x."""
    r = 0
    for i, c in enumerate(p):
        if c:
            r ^= ctx.mul(c, ctx.pow2k(x, i))
    return r


def eval_blocks(blocks, v, ctx):
    """Scalar oracle: (xx(x) + xy(y), yx(x) + yy(y)) at the packed point v."""
    xx, xy, yx, yy = blocks
    m = ctx.m
    x, y = v >> m, v & ((1 << m) - 1)
    a = eval_lin(xx, x, ctx) ^ eval_lin(xy, y, ctx)
    b = eval_lin(yx, x, ctx) ^ eval_lin(yy, y, ctx)
    return (a << m) | b


def random_pairmap(m, rng):
    return PairMap(tuple(int(v) for v in rng.integers(0, 1 << (2 * m), size=2 * m)))


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([2, 3, 4, 6]), seed=st.integers(0, 10_000))
def test_pairmap_compose_matches_pointwise(m, seed):
    rng = np.random.default_rng(seed)
    a, b = random_pairmap(m, rng), random_pairmap(m, rng)
    assert np.array_equal(a.compose(b).table(), a.table()[b.table()])
    assert np.array_equal(a.add(b).table(), a.table() ^ b.table())


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([2, 3, 4, 6]), seed=st.integers(0, 10_000))
def test_pairmap_inverse_round_trip(m, seed):
    rng = np.random.default_rng(seed)
    pm = random_pairmap(m, rng)
    if np.unique(pm.table()).size < 1 << (2 * m):  # singular, decided without elimination
        with pytest.raises(InvalidParams):
            pm.inverse()
        return
    inv = pm.inverse()
    points = np.arange(1 << (2 * m), dtype=np.uint32)
    assert np.array_equal(inv.table()[pm.table()], points)
    assert pm.compose(inv) == PairMap.identity(m)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([1, 2, 3, 5, 8, 16]), seed=st.integers(0, 10_000))
def test_moore_solve_recovers_coefficients(m, seed):
    ctx = default_ctx(m)
    rng = np.random.default_rng(seed)
    polys = [tuple(int(v) for v in rng.integers(0, ctx.order, size=m)) for _ in range(3)]
    columns = [[eval_lin(p, 1 << j, ctx) for j in range(m)] for p in polys]
    assert linpoly_from_images(columns, ctx) == polys
    assert linpoly_from_images(columns[:1], ctx) == polys[:1]


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([2, 3, 4]), seed=st.integers(0, 10_000))
def test_pairmap_blocks_evaluate_to_table(m, seed):
    # slow oracle: the JSON coefficients, evaluated at every point, are the map
    ctx = default_ctx(m)
    rng = np.random.default_rng(seed)
    blocks = tuple(tuple(int(v) for v in rng.integers(0, ctx.order, size=m))
                   for _ in range(4))
    pm = PairMap(tuple(eval_blocks(blocks, 1 << j, ctx) for j in range(2 * m)))
    assert pm.blocks(ctx) == blocks
    tab = pm.table()
    for v in range(1 << (2 * m)):
        assert int(tab[v]) == eval_blocks(blocks, v, ctx)


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([2, 3, 4, 5]), data=st.data())
def test_pairmap_monomial_matches_direct_evaluation(m, data):
    ctx = default_ctx(m)
    mono = st.none() | st.tuples(st.integers(0, ctx.order - 1), st.integers(0, m - 1))
    xx, xy, yx, yy = (data.draw(mono) for _ in range(4))

    def blk(b, e):  # c * e^(2^d), by plain exponentiation
        return ctx.mul(b[0], ctx.pow(e, 1 << b[1])) if b else 0

    tab = PairMap.monomial(ctx, xx=xx, xy=xy, yx=yx, yy=yy).table()
    for v in range(1 << (2 * m)):
        x, y = v >> m, v & (ctx.order - 1)
        want = ((blk(xx, x) ^ blk(xy, y)) << m) | (blk(yx, x) ^ blk(yy, y))
        assert int(tab[v]) == want


@pytest.mark.parametrize("m", [16, 17, 24, 32])
def test_pairmap_monomial_images_past_32_bits(m):
    # the high half of an image passes uint32 from m = 17 on
    ctx = default_ctx(m)
    rng = np.random.default_rng(m)
    c = [ctx.order - 1] + [int(v) for v in rng.integers(1, ctx.order, size=3)]
    xx, xy, yx, yy = (c[0], 0), (c[1], 1), (c[2], m - 1), (c[3], m // 2)
    pm = PairMap.monomial(ctx, xx=xx, xy=xy, yx=yx, yy=yy)
    blocks = tuple(tuple(b[0] if i == b[1] else 0 for i in range(m)) for b in (xx, xy, yx, yy))
    assert pm.images() == tuple(eval_blocks(blocks, 1 << j, ctx) for j in range(2 * m))
    assert pm.blocks(ctx) == blocks


@pytest.mark.parametrize("m", [1, 16, 17, 32])
def test_pack_unpack_round_trip(m):
    top = (1 << m) - 1
    xs, ys = [0, 1, top, top >> 1, top], [top, 0, 1, top, top ^ 1]
    for x, y in zip(xs, ys):
        v = pack(x, y, m)
        assert type(v) is int and v == x * 2 ** m + y
        assert unpack(v, m) == (x, y) and all(type(h) is int for h in unpack(v, m))
    v = pack(np.array(xs, dtype=np.uint32), np.array(ys, dtype=np.uint32), m)
    assert v.dtype == (np.uint32 if 2 * m <= 32 else np.uint64)
    assert v.tolist() == [x * 2 ** m + y for x, y in zip(xs, ys)]
    x, y = unpack(v, m)
    assert x.dtype == y.dtype == np.uint32 and x.tolist() == xs and y.tolist() == ys


@pytest.mark.parametrize("imgs", [(1 << 3, 1), (-1, 1)])
def test_pairmap_rejects_out_of_range_images(imgs):
    # too large (it once reached inverse() as a bare KeyError) and negative
    with pytest.raises(InvalidParams):
        PairMap(imgs)


def test_gf2_helpers():
    # map on 3 bits: images of e0, e1, e2
    imgs = [0b011, 0b110, 0b101]        # singular: e0^e1^e2 -> 0
    assert gf2_rank(imgs) == 2
    assert gf2_invert(imgs) is None
    imgs = [0b001, 0b011, 0b111]
    assert gf2_rank(imgs) == 3
    inv = gf2_invert(imgs)
    for v in range(8):
        assert gf2_apply(inv, gf2_apply(imgs, v)) == v
    tab = table_from_images(imgs)
    assert [int(x) for x in tab] == [gf2_apply(imgs, v) for v in range(8)]
    assert gf2_rank([1]) == 1 and gf2_invert([1]) == [1]
    assert gf2_rank([0]) == 0 and gf2_invert([0]) is None
    # 32 bits: e_j -> e_j + e_(j+1) (cyclically) has kernel {0, all-ones}; with
    # e_31 -> e_31 instead it telescopes, and e_j + ... + e_31 maps to e_j
    full = (1 << 32) - 1
    singular = [(1 << j) | (1 << ((j + 1) % 32)) for j in range(32)]
    assert gf2_apply(singular, full) == 0
    assert gf2_rank(singular) == 31 and gf2_invert(singular) is None
    imgs = singular[:31] + [1 << 31]
    assert gf2_rank(imgs) == 32
    assert gf2_invert(imgs) == [full ^ ((1 << j) - 1) for j in range(32)]


@pytest.mark.parametrize("n", [1, 2, 5, 16, 32])
def test_low_weight_points_are_the_identity_in_value_order(n):
    points = low_weight_points(n)
    want = [0] + [1 << i for i in range(n)] + [(1 << i) | (1 << j)
                                               for i in range(n) for j in range(i + 1, n)]
    assert points.tolist() == want
    i, j = pair_indices(n)
    assert points[n + 1:].tolist() == ((1 << i) | (1 << j)).tolist()
    imgs = [(5 * v + 3) % (1 << min(n, 31)) for v in range(n)]
    assert np.array_equal(low_weight_values(imgs),
                          [gf2_apply(imgs, int(v)) for v in points])
    # one read-only array per bit count, shared by every caller
    assert low_weight_points(n) is points and not points.flags.writeable
    assert not i.flags.writeable and not j.flags.writeable


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000), rank_cut=st.integers(0, 8))
def test_gf2_kernel_spans_the_kernel(n, seed, rank_cut):
    # slow oracle: every point the map sends to 0; low-rank maps included
    rng = np.random.default_rng(seed)
    imgs = [int(v) for v in rng.integers(0, 1 << n, size=n)]
    imgs = [v >> rank_cut for v in imgs]
    basis = gf2_kernel(imgs)
    assert gf2_rank(basis) == len(basis) == n - gf2_rank(imgs)
    kernel = {v for v in range(1 << n) if gf2_apply(imgs, v) == 0}
    assert set(table_from_images(basis).tolist()) == kernel


@pytest.mark.parametrize("n, dtype", [(1, np.uint8), (5, np.uint8), (16, np.uint16),
                                      (31, np.uint32), (32, np.uint32)])
def test_kernel_dims_match_gf2_rank(n, dtype):
    # columns of full rank, of rank 0 and of random low rank, up to the top bit of the type
    rng = np.random.default_rng(n)
    cols = [[1 << j for j in range(n)], [0] * n]
    for cut in range(n):
        cols.append([int(v) >> cut for v in rng.integers(0, 1 << n, size=n, dtype=np.uint64)])
    rows = np.array(cols, dtype=dtype).T.copy()
    dims = kernel_dims(rows, np.empty_like(rows))
    assert dims.dtype == np.uint8
    assert dims.tolist() == [n - gf2_rank(c) for c in cols]
