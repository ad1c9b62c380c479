"""Linearized-polynomial maps: evaluation, composition, inversion, rank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taniapn.errors import InvalidParams
from taniapn.gf2m import default_ctx
from taniapn.linmaps import (
    PairMap,
    compose_lin,
    eval_lin,
    gf2_apply,
    gf2_invert,
    gf2_rank,
    linpoly_from_images,
    mono_lin,
    table_from_images,
    zero_lin,
)


def random_pairmap(ctx, rng):
    m = ctx.m
    blocks = [tuple(int(v) for v in rng.integers(0, ctx.order, size=m))
              for _ in range(4)]
    return PairMap(*blocks)


@settings(max_examples=50, deadline=None)
@given(m=st.sampled_from([2, 3, 4, 5]), seed=st.integers(0, 10_000))
def test_compose_lin_matches_pointwise(m, seed):
    ctx = default_ctx(m)
    rng = np.random.default_rng(seed)
    p = tuple(int(v) for v in rng.integers(0, ctx.order, size=m))
    q = tuple(int(v) for v in rng.integers(0, ctx.order, size=m))
    pq = compose_lin(p, q, ctx)
    for x in range(ctx.order):
        assert eval_lin(pq, x, ctx) == eval_lin(p, eval_lin(q, x, ctx), ctx)


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([2, 3, 4]), seed=st.integers(0, 10_000))
def test_pairmap_compose_matches_pointwise(m, seed):
    ctx = default_ctx(m)
    rng = np.random.default_rng(seed)
    a, b = random_pairmap(ctx, rng), random_pairmap(ctx, rng)
    ab = a.compose(b, ctx)
    for v in range(1 << (2 * m)):
        assert ab.apply(v, ctx) == a.apply(b.apply(v, ctx), ctx)


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([2, 3, 4, 6]), seed=st.integers(0, 10_000))
def test_pairmap_inverse_round_trip(m, seed):
    ctx = default_ctx(m)
    rng = np.random.default_rng(seed)
    pm = random_pairmap(ctx, rng)
    if gf2_rank(pm.images(ctx)) < 2 * m:
        with pytest.raises(InvalidParams):
            pm.inverse(ctx)
        return
    inv = pm.inverse(ctx)
    ident = pm.compose(inv, ctx)
    assert np.array_equal(ident.table(ctx),
                          np.arange(1 << (2 * m), dtype=np.uint32))


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([2, 3, 5, 8]), seed=st.integers(0, 10_000))
def test_moore_solve_recovers_coefficients(m, seed):
    ctx = default_ctx(m)
    rng = np.random.default_rng(seed)
    coeffs = tuple(int(v) for v in rng.integers(0, ctx.order, size=m))
    images = [eval_lin(coeffs, 1 << j, ctx) for j in range(m)]
    assert linpoly_from_images(images, ctx) == coeffs


def test_pairmap_table_matches_apply():
    ctx = default_ctx(3)
    pm = PairMap(mono_lin(3, 5, 1), zero_lin(3), mono_lin(3, 2, 0), mono_lin(3, 1, 2))
    tab = pm.table(ctx)
    for v in range(64):
        assert int(tab[v]) == pm.apply(v, ctx)


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

