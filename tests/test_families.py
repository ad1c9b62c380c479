"""Family constructors, evaluation, materialization, and the table file format."""

import json

import numpy as np
import pytest

from taniapn.errors import InvalidParams, TooLarge
from taniapn.families import (
    PottZhouParams,
    TaniguchiParams,
    TruthTableFunction,
    gold,
    load_function,
    materialize,
    save_function,
)
from taniapn.gf2m import FieldCtx, coprime_residues, default_ctx
from taniapn.poly_roots import count_roots, phi_set


def test_taniguchi_params_validation():
    with pytest.raises(InvalidParams):
        TaniguchiParams(m=4, k=2, alpha=1, beta=1)     # gcd(2,4) != 1
    with pytest.raises(InvalidParams):
        TaniguchiParams(m=4, k=0, alpha=1, beta=1)
    with pytest.raises(InvalidParams):
        TaniguchiParams(m=4, k=1, alpha=1, beta=0)     # beta = 0
    with pytest.raises(InvalidParams):
        TaniguchiParams(m=4, k=1, alpha=16, beta=1)    # out of range


def test_pott_zhou_params_validation():
    with pytest.raises(InvalidParams):
        PottZhouParams(m=5, k=1, s=2, alpha=2)         # odd m
    with pytest.raises(InvalidParams):
        PottZhouParams(m=6, k=2, s=2, alpha=2)         # gcd(2,6) != 1
    with pytest.raises(InvalidParams):
        PottZhouParams(m=4, k=1, s=5, alpha=2)         # s > m
    with pytest.raises(InvalidParams):
        PottZhouParams(m=4, k=1, s=2, alpha=0)
    # odd s is constructible; only the APN criterion rejects it
    f = PottZhouParams(m=4, k=1, s=1, alpha=2)
    assert not f.is_apn_criterion()


def test_gold_params_validation():
    with pytest.raises(InvalidParams):
        gold(6, 2)                                     # gcd(2,6) != 1
    g = gold(5, 1)
    assert g.evaluate(0) == 0 and g.evaluate(1) == 1


def test_zero_maps_to_zero():
    f = TaniguchiParams(m=4, k=1, alpha=3, beta=5)
    assert f.evaluate(0, 0) == (0, 0)
    g = PottZhouParams(m=4, k=1, s=2, alpha=2)
    assert g.evaluate(0, 0) == (0, 0)


def test_taniguchi_y_zero_reduces_to_power():
    # first coordinate at y=0 is x^(2^(2k)(2^k+1)): for m=3, k=1 that is x^12
    ctx = default_ctx(3)
    f = TaniguchiParams(m=3, k=1, alpha=1, beta=2)
    for x in range(8):
        assert f.evaluate(x, 0) == (ctx.pow(x, 12), 0)


def test_second_coordinate_is_product():
    ctx = default_ctx(4)
    f = TaniguchiParams(m=4, k=3, alpha=7, beta=9)
    g = PottZhouParams(m=4, k=3, s=4, alpha=2)
    for x in range(16):
        for y in range(16):
            assert f.evaluate(x, y)[1] == ctx.mul(x, y)
            assert g.evaluate(x, y)[1] == ctx.mul(x, y)


@pytest.mark.parametrize("kind, m", [("taniguchi", 17), ("taniguchi", 24), ("taniguchi", 32),
                                     ("pott-zhou", 18), ("pott-zhou", 24), ("pott-zhou", 32)])
def test_eval_packed_vec_past_32_bits(kind, m):
    # packed values pass uint32 from m = 17 on
    ctx = default_ctx(m)
    rng = np.random.default_rng(m)
    a, b = (int(v) for v in rng.integers(1, ctx.order, size=2))
    f = (TaniguchiParams(m=m, k=m - 1, alpha=a, beta=b, ctx=ctx) if kind == "taniguchi"
         else PottZhouParams(m=m, k=1, s=2, alpha=a, ctx=ctx))
    v = rng.integers(0, 1 << (2 * m), size=50, dtype=np.uint64)
    got = f.eval_packed_vec(v)
    assert got.dtype == np.uint64
    want = [f.evaluate(int(p) >> m, int(p) & (ctx.order - 1)) for p in v]
    assert [(int(w) >> m, int(w) & (ctx.order - 1)) for w in got] == want


def test_taniguchi_criterion_matches_phi():
    ctx = default_ctx(4)
    phi = phi_set(1, ctx)
    for beta in range(1, 16):
        f = TaniguchiParams(m=4, k=1, alpha=1, beta=beta)
        assert f.is_apn_criterion() == (beta in phi)


def test_taniguchi_alpha_zero_criterion():
    # alpha = 0: APN iff m even and beta a non-cube
    ctx = default_ctx(4)
    for beta in range(1, 16):
        f = TaniguchiParams(m=4, k=1, alpha=0, beta=beta)
        assert f.is_apn_criterion() == (not ctx.is_cube(beta))
    for beta in range(1, 32):
        f = TaniguchiParams(m=5, k=1, alpha=0, beta=beta)
        assert not f.is_apn_criterion()


@pytest.mark.parametrize("ctx", [default_ctx(m) for m in range(2, 7)] + [FieldCtx(6, 0x49)],
                         ids=repr)
def test_taniguchi_criterion_against_root_scan(ctx):
    # every member (k, alpha, beta), alpha = 0 included: the cube rule and
    # the rank test against the literal root scan
    for k in coprime_residues(ctx.m):
        for alpha in range(ctx.order):
            for beta in range(1, ctx.order):
                f = TaniguchiParams(m=ctx.m, k=k, alpha=alpha, beta=beta, ctx=ctx)
                assert f.is_apn_criterion() == (count_roots(k, alpha, beta, ctx) == 0), \
                    (ctx, k, alpha, beta)


@pytest.mark.parametrize("m", [pytest.param(m, marks=pytest.mark.slow) if m >= 17 else m
                               for m in range(13, 25)])
def test_taniguchi_criterion_against_root_scan_sampled(m):
    # random members, drawn until each kind is seen: alpha != 0 with and
    # without a root, and alpha = 0 with a root and (even m) without
    ctx = default_ctx(m)
    rng = np.random.default_rng(200 + m)
    ks = coprime_residues(m)
    want = {(False, True): 3, (False, False): 3, (True, False): 1, (True, True): m % 2 == 0}
    for _ in range(200):
        if not any(want.values()):
            break
        k = ks[rng.integers(len(ks))]
        alpha = 0 if rng.random() < 0.25 else int(rng.integers(1, ctx.order))
        beta = int(rng.integers(1, ctx.order))
        apn = count_roots(k, alpha, beta, ctx) == 0
        assert TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta).is_apn_criterion() == apn, \
            (m, k, alpha, beta)
        want[alpha == 0, apn] = max(0, want[alpha == 0, apn] - 1)
    assert not any(want.values()), want


def test_materialize_round_trip():
    for m, k, alpha, beta in [(3, 1, 1, 2), (4, 3, 5, 9)]:
        ctx = default_ctx(m)
        f = TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta)
        tab = materialize(f)
        assert tab.table.shape == (1 << (2 * m),)
        for x in range(ctx.order):
            for y in range(ctx.order):
                assert tab.evaluate(x, y) == f.evaluate(x, y)


def test_materialize_spot_checks_m8():
    f = TaniguchiParams(m=8, k=3, alpha=17, beta=77)
    tab = materialize(f)
    rng = np.random.default_rng(0)
    for v in rng.integers(0, 1 << 16, size=1000):
        x, y = int(v) >> 8, int(v) & 0xFF
        assert tab.evaluate(x, y) == f.evaluate(x, y)


def test_materialize_guard():
    f = TaniguchiParams(m=15, k=1, alpha=1, beta=1)  # 2m = 30 > 28
    with pytest.raises(TooLarge):
        f.packed_table()


def test_packed_table_peak_stays_within_its_blocks(peak_mb):
    # the 4 MB table of 2^20 entries, filled BLOCK points at a time; 53 MB
    # with 2^20-point batches.  Spot checks cover all 16 blocks.
    f = TaniguchiParams(m=10, k=1, alpha=1, beta=1)
    tab, peak = peak_mb(f.packed_table)
    assert peak < 12
    for v in np.random.default_rng(10).integers(0, 1 << 20, size=200).tolist() + [0, (1 << 20) - 1]:
        x, y = f.evaluate(v >> 10, v & 0x3FF)
        assert int(tab[v]) == x << 10 | y


def _derivative_is_additive(tab, a, n):
    # D_a f(v) = f(v+a)+f(v)+f(a)+f(0); additive iff it equals its own
    # linear extension from the basis images
    idx = np.arange(1 << n, dtype=np.uint32)
    d = tab[idx ^ np.uint32(a)] ^ tab ^ np.uint32(int(tab[a]) ^ int(tab[0]))
    lin = np.zeros(1, dtype=np.uint32)
    for j in range(n):
        lin = np.concatenate([lin, lin ^ d[1 << j]])
    return bool(np.array_equal(d, lin))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_families_are_quadratic_exhaustive(m):
    ctx = default_ctx(m)
    fs = [TaniguchiParams(m=m, k=1, alpha=1, beta=ctx.order - 1)]
    if m % 2 == 0:
        fs.append(PottZhouParams(m=m, k=1, s=2, alpha=2))
    for f in fs:
        tab = f.packed_table()
        assert int(tab[0]) == 0
        for a in range(1, 1 << (2 * m)):
            assert _derivative_is_additive(tab, a, 2 * m)


@pytest.mark.parametrize("m", [6, 7, 8])
def test_families_are_quadratic_sampled(m):
    f = TaniguchiParams(m=m, k=1, alpha=1, beta=3)
    tab = f.packed_table()
    rng = np.random.default_rng(m)
    for a in rng.integers(1, 1 << (2 * m), size=50):
        assert _derivative_is_additive(tab, int(a), 2 * m)


def test_truth_table_function_validation():
    ctx = default_ctx(3)
    with pytest.raises(InvalidParams):
        TruthTableFunction(np.zeros(17, dtype=np.uint32), ctx)


def test_save_load_round_trip(tmp_path):
    ctx = default_ctx(4)
    f = TaniguchiParams(m=4, k=1, alpha=1, beta=9)
    path = tmp_path / "f419.apnt"
    manifest = save_function(f, path)
    raw = path.read_bytes()
    assert raw[:4] == b"APNT"
    assert raw[4] == 1                         # version
    assert int.from_bytes(raw[5:7], "little") == 4
    assert raw[7] == 1                         # taniguchi kind code
    assert len(raw) == 8 + (1 << 8) * 8
    # the member's field is recorded as "modulus", not among its parameters
    assert json.loads(manifest.read_text())["params"] == \
        {"m": 4, "k": 1, "alpha": "0x1", "beta": "0x9"}

    back = load_function(path)
    assert back.ctx == ctx
    assert back.source_kind == "taniguchi"
    assert np.array_equal(back.table, f.packed_table())


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.apnt"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(InvalidParams):
        load_function(path)
    f = TaniguchiParams(m=3, k=1, alpha=1, beta=2)
    manifest = save_function(f, path)
    good = path.read_bytes()
    for raw in (good[:6], good[:-1], good + bytes(8)):   # short header, short/long payload
        path.write_bytes(raw)
        with pytest.raises(InvalidParams):
            load_function(path)
    path.write_bytes(good)
    for text in ("[1, 2]", "{}", '{"modulus": 11}', '{"modulus": "0xZZ"}', "{"):
        manifest.write_text(text)
        with pytest.raises(InvalidParams):
            load_function(path)



def test_save_rejects_gold_before_writing(tmp_path):
    path = tmp_path / "g.apnt"
    with pytest.raises(InvalidParams, match="bivariate"):
        save_function(gold(5, 1), path)
    assert not path.exists()
    assert not path.with_name(path.name + ".json").exists()
