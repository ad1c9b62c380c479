"""Differential spectrum and the APN verdict against known functions."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taniapn import diffanalysis
from taniapn.diffanalysis import (
    _generic_histograms,
    differential_spectrum,
    is_apn,
)
from taniapn.equivalence import canonical_witness, verify_witness
from taniapn.errors import TooLarge
from taniapn.families import (
    BivariateFunction,
    PottZhouParams,
    TaniguchiParams,
    TruthTableFunction,
    gold,
    materialize,
)
from taniapn.gf2m import default_ctx
from taniapn.poly_roots import phi_set


def test_linear_map_has_maximal_uniformity():
    # identity (x,y) -> (x,y): every derivative is constant
    ctx = default_ctx(2)
    n = 4
    ident = TruthTableFunction(np.arange(1 << n, dtype=np.uint32), ctx)
    spec = differential_spectrum(ident)
    assert spec.uniformity == 1 << n
    assert spec.histogram == {0: ((1 << n) - 1) ** 2, 1 << n: (1 << n) - 1}


def test_taniguchi_m4_uniformity_two():
    ctx = default_ctx(4)
    for beta in phi_set(1, ctx):
        f = TaniguchiParams(m=4, k=1, alpha=1, beta=beta)
        spec = differential_spectrum(f)
        assert spec.uniformity == 2


def test_spectrum_refuses_a_histogram_of_the_wrong_mass(monkeypatch):
    # one extra pair with two solutions keeps every count even
    orig = diffanalysis._histograms
    monkeypatch.setattr(diffanalysis, "_histograms", lambda f: [*orig(f), {2: 1}])
    with pytest.raises(AssertionError, match="histogram mass mismatch"):
        differential_spectrum(gold(5, 1))


def test_gold_spectrum_gf32():
    spec = differential_spectrum(gold(5, 1))
    assert spec.uniformity == 2
    assert spec.histogram == {0: 31 * 16, 2: 31 * 16}
    # direct recount for one a as an independent check
    g = gold(5, 1)
    a = 7
    per_b = {}
    for x in range(32):
        b = g.evaluate(x ^ a) ^ g.evaluate(x)
        per_b[b] = per_b.get(b, 0) + 1
    assert max(per_b.values()) == 2 and len(per_b) == 16


def test_apn_histogram_shape():
    # any APN on n bits: exactly 2^(n-1) b-values with 2 solutions per a
    for f in (gold(5, 1), TaniguchiParams(m=3, k=1, alpha=1, beta=2)):
        spec = differential_spectrum(f)
        n = spec.n
        assert spec.histogram[2] == ((1 << n) - 1) * (1 << (n - 1))


def test_pott_zhou_m4():
    ctx = default_ctx(4)
    noncube = next(a for a in range(2, 16) if not ctx.is_cube(a))
    good = PottZhouParams(m=4, k=1, s=2, alpha=noncube)
    assert good.is_apn_criterion() and is_apn(good)
    odd_s = PottZhouParams(m=4, k=1, s=1, alpha=noncube)
    assert not odd_s.is_apn_criterion() and not is_apn(odd_s)
    cube = next(a for a in range(2, 16) if ctx.is_cube(a))
    cube_alpha = PottZhouParams(m=4, k=1, s=2, alpha=cube)
    assert not cube_alpha.is_apn_criterion() and not is_apn(cube_alpha)


def test_is_apn_short_circuit_agrees_with_spectrum():
    for beta in range(1, 8):
        f = TaniguchiParams(m=3, k=1, alpha=1, beta=beta)
        assert is_apn(f) == (differential_spectrum(f).uniformity == 2)


def test_non_admissible_beta_has_four_solution_derivative():
    # beta outside Phi: some derivative equation gains >= 4 solutions
    ctx = default_ctx(3)
    admissible = set(phi_set(1, ctx))
    for beta in range(1, 8):
        if beta not in admissible:
            f = TaniguchiParams(m=3, k=1, alpha=1, beta=beta)
            assert differential_spectrum(f).uniformity >= 4


def test_scan_guard():
    f = TaniguchiParams(m=9, k=1, alpha=1, beta=1)  # n = 18 > 16
    with pytest.raises(TooLarge):
        is_apn(f)
    with pytest.raises(TooLarge):
        differential_spectrum(f)


def test_spectrum_json_round_trip():
    spec = differential_spectrum(gold(5, 1))
    data = spec.to_json()
    assert data == {"n": 5, "uniformity": 2, "histogram": {"0": 496, "2": 496}}


# ---------------------------------------------------------------------------
# kernel-rank path against the generic scan (the oracle)
# ---------------------------------------------------------------------------

def generic_histogram(f) -> dict[int, int]:
    hist: dict[int, int] = {}
    for part in _generic_histograms(f.packed_table(), f.dimension):
        for c, fr in part.items():
            hist[c] = hist.get(c, 0) + fr
    return hist


def assert_declared_quadratic(f):
    """f's type declares is_quadratic; the Moebius transform of its table,
    read as a TruthTableFunction, must agree.  A Gold table on an odd
    number n of bits is read as a function of n + 1 bits that ignores the
    top one, which keeps its degree."""
    assert type(f).is_quadratic is True
    if isinstance(f, BivariateFunction):
        assert TruthTableFunction(f.packed_table(), f.ctx).is_quadratic
    else:
        m = (f.dimension + 1) // 2
        tab = np.tile(f.packed_table(), 1 << (2 * m - f.dimension))
        assert TruthTableFunction(tab, default_ctx(m)).is_quadratic


def assert_matches_oracle(f):
    want = generic_histogram(f)
    assert differential_spectrum(f).histogram == want
    assert is_apn(f) == (max(want) == 2)


@pytest.mark.parametrize("m", [3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_fast_path_matches_oracle_taniguchi(m):
    # the whole range of acceptance criterion 3
    ctx = default_ctx(m)
    for k in range(1, m):
        if gcd(k, m) != 1:
            continue
        for alpha in (0, 1):
            for beta in range(1, ctx.order):
                f = TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta)
                assert_declared_quadratic(f)
                assert_matches_oracle(f)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_fast_path_matches_oracle_pott_zhou(m):
    ctx = default_ctx(m)
    cube = next(a for a in range(1, ctx.order) if ctx.is_cube(a))
    noncube = next(a for a in range(2, ctx.order) if not ctx.is_cube(a))
    for s in range(m + 1):
        for alpha in (cube, noncube):
            f = PottZhouParams(m=m, k=1, s=s, alpha=alpha)
            assert_declared_quadratic(f)
            assert_matches_oracle(f)


@pytest.mark.parametrize("n", range(3, 14))
def test_fast_path_matches_oracle_gold(n):
    assert_declared_quadratic(gold(n, 1))
    assert_matches_oracle(gold(n, 1))


def table_from_anf(coeffs: dict[int, int], n: int) -> np.ndarray:
    """f(x) = sum of coeffs[u] over the monomials u contained in x."""
    x = np.arange(1 << n)
    tab = np.zeros(1 << n, dtype=np.uint32)
    for u, c in coeffs.items():
        tab[(x & u) == u] ^= np.uint32(c)
    return tab


@st.composite
def quadratic_anf(draw, min_m=1):
    m = draw(st.integers(min_m, 4))
    n = 2 * m
    monomials = [0] + [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1)]
    return m, {u: draw(st.integers(0, (1 << n) - 1)) for u in monomials}


@settings(max_examples=100, deadline=None)
@given(quadratic_anf())
def test_random_quadratic_tables_match_oracle(m_coeffs):
    m, coeffs = m_coeffs
    f = TruthTableFunction(table_from_anf(coeffs, 2 * m), default_ctx(m))
    assert f.is_quadratic
    assert_matches_oracle(f)


@settings(max_examples=100, deadline=None)
@given(quadratic_anf(min_m=2), st.data())
def test_cubic_monomial_fails_degree_check(m_coeffs, data):
    m, coeffs = m_coeffs
    n = 2 * m
    bits = data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
    cubic = sum(1 << b for b in bits)
    coeffs[cubic] = data.draw(st.integers(1, (1 << n) - 1))
    f = TruthTableFunction(table_from_anf(coeffs, n), default_ctx(m))
    assert not f.is_quadratic
    assert_matches_oracle(f)


def test_degree_is_read_from_the_function_object(monkeypatch):
    # members and Gold maps declare is_quadratic, so neither the scan nor
    # the witness check runs the Moebius transform on them; a truth table
    # runs it once, however many readers ask
    moebius = BivariateFunction.__dict__["is_quadratic"]
    runs = []
    monkeypatch.setattr(moebius, "func", lambda f, orig=moebius.func: runs.append(f) or orig(f))
    p = TaniguchiParams(m=4, k=3, alpha=5, beta=11)
    w, canon = canonical_witness(p)
    noncube = next(a for a in range(2, 16) if not default_ctx(4).is_cube(a))
    for f in (p, canon, PottZhouParams(m=4, k=1, s=2, alpha=noncube), gold(5, 1)):
        assert is_apn(f) and differential_spectrum(f).uniformity == 2
    assert verify_witness(w, p, canon)
    assert runs == []
    f, g = materialize(p), materialize(canon)
    assert differential_spectrum(f).uniformity == 2 and is_apn(f)
    assert verify_witness(w, f, g)
    assert len(runs) == 2 and runs[0] is f and runs[1] is g


def test_scan_path_follows_is_quadratic(monkeypatch):
    # a quadratic table takes the kernel-rank path, a cubic one the generic loop
    paths = []
    for name in ("kernel_dims", "_generic_histograms"):
        orig = getattr(diffanalysis, name)
        monkeypatch.setattr(diffanalysis, name,
                            lambda *a, name=name, orig=orig: paths.append(name) or orig(*a))
    quadratic = materialize(TaniguchiParams(m=2, k=1, alpha=1, beta=1))
    cubic = TruthTableFunction(table_from_anf({7: 1}, 4), default_ctx(2))
    differential_spectrum(quadratic)
    assert set(paths) == {"kernel_dims"}
    paths.clear()
    differential_spectrum(cubic)
    assert paths == ["_generic_histograms"]


# ---------------------------------------------------------------------------
# the kernel-rank path on any quadratic table, across chunks
# ---------------------------------------------------------------------------

class QuadraticTable:
    """A degree-<= 2 map on n bits given by its table, for any n
    (TruthTableFunction holds n = 2m only)."""

    is_quadratic = True

    def __init__(self, table: np.ndarray, n: int):
        self.table, self.dimension = table, n

    def eval_packed_vec(self, v):
        return self.table[v]

    def packed_table(self):
        return self.table


def random_quadratic_tables(n: int, rng) -> list[np.ndarray]:
    """The zero map, an affine map, a sparse quadratic map with few output
    bits (large kernels) and two dense quadratic maps."""
    monomials = [0] + [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1)]
    affine = [0] + [1 << i for i in range(n)]
    top = 1 << n
    sparse = rng.choice(monomials, size=min(3, len(monomials)), replace=False)
    return [
        np.zeros(top, dtype=np.uint32),
        table_from_anf({int(u): int(rng.integers(top)) for u in affine}, n),
        table_from_anf({int(u): int(rng.integers(1, 4)) for u in sparse}, n),
        *(table_from_anf({u: int(rng.integers(top)) for u in monomials}, n) for _ in range(2)),
    ]


@pytest.mark.parametrize("n", range(2, 11))
def test_kernel_path_matches_generic_scan_on_random_tables(n):
    rng = np.random.default_rng(1000 + n)
    for tab in random_quadratic_tables(n, rng):
        assert_matches_oracle(QuadraticTable(tab, n))


def test_kernel_path_matches_generic_scan_across_many_chunks(monkeypatch):
    # 16 values of a per chunk: 512 chunks at n = 13, each with its own
    # column from the high bits, and a = 0 left out of the first one only
    monkeypatch.setattr(diffanalysis, "_RANK_CHUNK", 16)
    rng = np.random.default_rng(13)
    for f in (QuadraticTable(random_quadratic_tables(13, rng)[-1], 13), gold(13, 1)):
        assert_matches_oracle(f)


def test_is_apn_stops_after_the_first_chunk(monkeypatch):
    calls = []
    orig = diffanalysis.kernel_dims
    monkeypatch.setattr(diffanalysis, "kernel_dims", lambda *a: calls.append(1) or orig(*a))
    f = TaniguchiParams(m=7, k=1, alpha=1, beta=2)  # 2m = 14: four chunks of a
    assert not f.is_apn_criterion()
    assert not is_apn(f)
    assert len(calls) == 1
