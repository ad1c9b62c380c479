"""Acceptance gate: one test per criterion, exact tolerances, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.
"""

import json
import time
from math import gcd

import numpy as np
import pytest

from taniapn.cli import main as cli_main
from taniapn.counting import (
    b_orbits,
    capital_m,
    capital_n,
    n_taniguchi,
    oracle_b,
    oracle_capital_n,
)
from taniapn.diffanalysis import differential_spectrum, is_apn
from taniapn.equivalence import (
    aut_orders,
    canonical_witness,
    canonicalize,
    count_monomial_el_automorphisms,
    pott_zhou_bridge_witness,
    verify_witness,
)
from taniapn.families import PottZhouParams, TaniguchiParams
from taniapn.gf2m import FieldCtx, coprime_residues, default_ctx, irreducibles
from taniapn.poly_roots import count_roots, frobenius_orbits, phi_set

# reference counting table: m -> (#classes, lower bound)
TABLE = {
    2: (1, 1), 3: (1, 1), 4: (3, 2), 5: (6, 6), 6: (5, 4), 7: (21, 21),
    8: (26, 22), 9: (57, 57), 10: (74, 70), 11: (315, 315), 12: (234, 228),
    13: (1266, 1266), 14: (1185, 1173), 15: (2916, 2916), 16: (5492, 5464),
    17: (20568, 20568), 18: (14595, 14565), 19: (82791, 82791),
    20: (69988, 69908), 25: (4473950, 4473930),
}


def _pass_line(num, name, elapsed, budget):
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _two_ks(m):
    ks = {1, coprime_residues(m)[-1]}
    return sorted(ks)


def test_criterion_1_table_reproduction(capsys):
    t0 = time.perf_counter()
    code = cli_main(["--format", "json", "table", "--m", "2..20,25"])
    out = capsys.readouterr().out
    assert code == 0
    rows = {row["m"]: (row["n"], row["bound"]) for row in json.loads(out)}
    assert rows == TABLE
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _pass_line(1, "table reproduction m=2..20,25", elapsed, 1.0)


def test_criterion_2_formula_vs_oracle():
    t0 = time.perf_counter()
    for m in range(1, 19):
        ctx = default_ctx(m)
        for k in _two_ks(m):
            phi = phi_set(k, ctx)
            assert len(phi) == capital_m(m), (m, k)
            assert oracle_capital_n(phi) == capital_n(m), (m, k)
            assert oracle_b(phi) == b_orbits(m), (m, k)
    _pass_line(2, "formula vs oracle m=1..18, two k per m",
               time.perf_counter() - t0, 30.0)


def test_criterion_3_apn_criterion_both_directions():
    t0 = time.perf_counter()
    checked = 0
    for m in (3, 4, 5, 6):
        ctx = default_ctx(m)
        for k in coprime_residues(m):
            for alpha in (0, 1):
                for beta in range(1, ctx.order):
                    f = TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta)
                    criterion = count_roots(k, alpha, beta, ctx) == 0
                    assert f.is_apn_criterion() == criterion
                    assert is_apn(f) == criterion, (m, k, alpha, beta)
                    checked += 1
    assert checked == 588
    _pass_line(3, f"exhaustive vs criterion on {checked} functions",
               time.perf_counter() - t0, 300.0)


def test_criterion_4_witness_verification():
    t0 = time.perf_counter()
    verified = 0
    for m in (4, 5, 6):
        ctx = default_ctx(m)
        for k in coprime_residues(m):
            for alpha in range(1, ctx.order):
                for beta in range(1, ctx.order):
                    if count_roots(k, alpha, beta, ctx) != 0:
                        continue
                    p = TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta)
                    w, canon = canonical_witness(p)
                    trip = canonicalize(p)
                    assert (canon.k, canon.beta) == (trip.k_star, trip.beta_star)
                    assert verify_witness(w, p, canon), p
                    verified += 1
    bridges = 0
    for m in (4, 6):
        ctx = default_ctx(m)
        for k in [k for k in coprime_residues(m) if k < m / 2]:
            for beta in range(2, ctx.order):
                if ctx.is_cube(beta):
                    continue
                p = TaniguchiParams(m=m, k=k, alpha=0, beta=beta)
                w, pz = pott_zhou_bridge_witness(p)
                assert verify_witness(w, p, pz), p
                bridges += 1
    assert verified == 150 + 1364 + 2646  # per-m APN (k, alpha != 0, beta) counts
    assert bridges == 10 + 42
    _pass_line(4, f"{verified} canonical witnesses + {bridges} pott-zhou bridges",
               time.perf_counter() - t0, 120.0)


def test_criterion_5_automorphism_oracle():
    t0 = time.perf_counter()
    assert aut_orders(TaniguchiParams(m=2, k=1, alpha=1, beta=1)).aut == 5760
    ctx3 = default_ctx(3)
    beta3 = next(iter(phi_set(1, ctx3)))
    assert aut_orders(TaniguchiParams(m=3, k=1, alpha=1, beta=beta3)).aut == 896
    swept = 0
    for m in (5, 6, 7):
        ctx = default_ctx(m)
        for k in coprime_residues(m):
            for beta in phi_set(k, ctx):
                p = TaniguchiParams(m=m, k=k, alpha=1, beta=beta)
                assert count_monomial_el_automorphisms(p) == \
                    aut_orders(p).aut_el, p
                swept += 1
    assert swept == 4 * 11 + 2 * 21 + 6 * 43
    _pass_line(5, f"monomial oracle on {swept} functions + constants 5760/896",
               time.perf_counter() - t0, 600.0)


def test_criterion_6_class_accounting():
    t0 = time.perf_counter()
    for m in (4, 5, 6, 7, 8):
        ctx = default_ctx(m)
        triples = set()
        for k in coprime_residues(m):
            for alpha in (0, 1):
                for beta in range(1, ctx.order):
                    if count_roots(k, alpha, beta, ctx) == 0:
                        triples.add(canonicalize(
                            TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta)))
        assert len(triples) == n_taniguchi(m), m
    _pass_line(6, "class accounting m=4..8 equals n(m)",
               time.perf_counter() - t0, 60.0)


def test_criterion_7_property_suites():
    t0 = time.perf_counter()

    # field axioms: 10^4 random triples per m <= 16
    for m in range(1, 17):
        ctx = default_ctx(m)
        rng = np.random.default_rng(m)
        a, b, c = rng.integers(0, ctx.order, size=(3, 10_000), dtype=np.uint32)
        assert np.array_equal(ctx.mul_vec(a, b), ctx.mul_vec(b, a))
        assert np.array_equal(ctx.mul_vec(ctx.mul_vec(a, b), c),
                              ctx.mul_vec(a, ctx.mul_vec(b, c)))
        assert np.array_equal(ctx.mul_vec(a, b ^ c),
                              ctx.mul_vec(a, b) ^ ctx.mul_vec(a, c))

    # root-count trichotomy on beta != 0 (beta = 0 has exactly the 2 roots {0,1})
    for m in range(2, 11):
        ctx = default_ctx(m)
        for k in _two_ks(m):
            x = ctx.elements()
            img = ctx.mul_vec(ctx.pow2k_vec(x, k), x) ^ x
            counts = np.bincount(img, minlength=ctx.order)
            assert counts[0] == 2
            assert set(np.unique(counts[1:])) <= {0, 1, 3}

    # 3k never divides 2^k + 1 (k <= 1000, gcd(k, 3) = 1, k > 1)
    for k in range(2, 1001):
        if gcd(k, 3) == 1:
            assert (pow(2, k, 3 * k) + 1) % (3 * k) != 0

    # spectrum mass conservation on freshly computed spectra
    specs = [
        differential_spectrum(TaniguchiParams(m=4, k=1, alpha=1, beta=9)),
        differential_spectrum(TaniguchiParams(m=4, k=1, alpha=1, beta=3)),  # non-APN member
        differential_spectrum(PottZhouParams(m=4, k=1, s=2, alpha=2)),
    ]
    for spec in specs:
        size = 1 << spec.n
        assert sum(c * f for c, f in spec.histogram.items()) == (size - 1) * size
        assert all(c % 2 == 0 for c in spec.histogram)

    # modulus independence of counts and orbit profiles
    for m in range(2, 11):
        mods = []
        for f in irreducibles(m):
            mods.append(f)
            if len(mods) == 2:
                break
        if len(mods) < 2:
            continue
        ctx_a, ctx_b = FieldCtx(m, mods[0]), FieldCtx(m, mods[1])
        for k in _two_ks(m):
            pa, pb = phi_set(k, ctx_a), phi_set(k, ctx_b)
            assert len(pa) == len(pb) == capital_m(m)
            assert (sorted(frobenius_orbits(pa).lengths.tolist())
                    == sorted(frobenius_orbits(pb).lengths.tolist()))

    _pass_line(7, "property suites (axioms, trichotomy, 3k, mass, moduli)",
               time.perf_counter() - t0, 60.0)
