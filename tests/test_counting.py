"""Closed-form counting pipeline vs the known table and the brute-force oracles."""

import numpy as np
import pytest

from fractions import Fraction

from taniapn.counting import (
    b_orbits,
    burnside_b,
    capital_m,
    capital_n,
    count_report,
    divisors,
    epsilon,
    euler_phi,
    factorize,
    lower_bound,
    moebius,
    n_taniguchi,
    oracle_b,
    oracle_capital_n,
    proper_subfields,
    subfield_counts,
    subfield_n,
)
from taniapn.errors import InvalidParams, TooLarge
from taniapn.gf2m import FieldCtx, coprime_residues, default_ctx, irreducibles
from taniapn.poly_roots import BetaSet, frobenius_orbits, phi_set

# (m, number of classes, lower bound) for m = 2..20 and 25
TABLE = {
    2: (1, 1), 3: (1, 1), 4: (3, 2), 5: (6, 6), 6: (5, 4), 7: (21, 21),
    8: (26, 22), 9: (57, 57), 10: (74, 70), 11: (315, 315), 12: (234, 228),
    13: (1266, 1266), 14: (1185, 1173), 15: (2916, 2916), 16: (5492, 5464),
    17: (20568, 20568), 18: (14595, 14565), 19: (82791, 82791),
    20: (69988, 69908), 25: (4473950, 4473930),
}

# exact values at m = 50, 100 (published tables stop at magnitudes
# ~7.5e13 and ~8.5e28; frozen from an independently cross-checked run)
N_50 = 75059996026770
BOUND_50 = 75059993789510
N_100 = 84510040015215368493112090420
BOUND_100 = 84510040015215293433113547040


def test_integer_helpers():
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(100) == 40
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_capital_m():
    assert capital_m(1) == 1
    assert capital_m(3) == 3
    assert capital_m(4) == 5
    for m in range(1, 65):
        v = capital_m(m)  # divisibility asserted inside
        assert v * 3 == (1 << m) + (-1) ** (m + 1)


def test_epsilon():
    assert epsilon(2) == 2
    assert epsilon(6) == 2
    assert epsilon(18) == 2
    assert epsilon(4) == 0    # 4 = 0 mod 4
    assert epsilon(10) == 0   # t = 2
    assert epsilon(9) == 0    # t = 0
    assert epsilon(12) == 0


def test_capital_n_examples():
    assert capital_n(1) == 1
    assert capital_n(2) == 0
    assert capital_n(5) == 10
    assert capital_n(6) == 18
    assert capital_n(9) == ((1 << 9) + 1) // 3 == 171
    assert capital_n(27) == ((1 << 27) + 1) // 3


def test_b_orbits_examples():
    assert b_orbits(3) == 1
    assert b_orbits(4) == 2
    assert b_orbits(5) == 3
    assert b_orbits(7) == 7


def test_n_taniguchi_table():
    for m, (n, _) in TABLE.items():
        assert n_taniguchi(m) == n


def test_lower_bound_table():
    for m, (_, bound) in TABLE.items():
        assert lower_bound(m) == bound


def test_bound_never_exceeds_count():
    for m in range(3, 101):
        assert lower_bound(m) <= n_taniguchi(m)


def test_exact_values_m50_m100():
    assert n_taniguchi(50) == N_50
    assert lower_bound(50) == BOUND_50
    assert n_taniguchi(100) == N_100
    assert lower_bound(100) == BOUND_100
    assert 7.4e13 < N_50 < 7.6e13
    assert 8.4e28 < float(N_100) < 8.6e28


def test_m2_special_case():
    assert n_taniguchi(2) == 1
    assert lower_bound(2) == 1
    with pytest.raises(InvalidParams):
        n_taniguchi(1)


def phi1(m):
    return phi_set(1, default_ctx(m))


def test_oracle_examples():
    assert oracle_capital_n(phi1(1)) == 1
    assert oracle_capital_n(phi1(2)) == 0
    assert oracle_capital_n(phi1(6)) == capital_n(6) == 18
    assert oracle_capital_n(phi1(9)) == 171
    assert oracle_b(phi1(4)) == 2
    assert oracle_b(phi1(7)) == 7


@pytest.mark.parametrize("m", range(1, 15))
def test_formula_oracle_agreement_fast(m):
    # acceptance extends this to m <= 18; the slow tier to m <= 24
    ctx = default_ctx(m)
    for k in {1, coprime_residues(m)[-1]}:
        phi = phi_set(k, ctx)
        assert len(phi) == capital_m(m)
        assert oracle_capital_n(phi) == capital_n(m)
        assert oracle_b(phi) == b_orbits(m)


@pytest.mark.slow
@pytest.mark.parametrize("m", range(19, 25))
def test_formula_oracle_agreement_slow_tier(m):
    # second k is the smallest coprime residue > 1 (k = m-1 would cost m-1
    # vectorized squarings over the full 2^m field for no extra coverage,
    # since phi(k) = phi(m-k) exactly)
    ctx = default_ctx(m)
    ks = {1, next(k for k in coprime_residues(m) if k > 1)}
    for k in ks:
        phi = phi_set(k, ctx)
        assert len(phi) == capital_m(m)
        assert oracle_capital_n(phi) == capital_n(m)
        assert oracle_b(phi) == b_orbits(m)


# ---------------------------------------------------------------------------
# N and b from the subfield counts, against the oracles and the formulas
# ---------------------------------------------------------------------------

def subfield_oracle(phi, d):
    """|Phi ∩ GF(2^d)|: the members of phi that x -> x^(2^d) fixes."""
    return int(np.count_nonzero(phi.ctx.pow2k_vec(phi.elements, d) == phi.elements))


def assert_subfield_counts_match_oracles(m, ks):
    ctx = default_ctx(m)
    for k, s in subfield_counts(ks, ctx).items():
        phi = phi_set(k, ctx)
        assert s == {d: subfield_oracle(phi, d) for d in divisors(m)[:-1]}, (m, k)
        s[m] = len(phi)
        assert subfield_n(m, s) == oracle_capital_n(phi) == capital_n(m), (m, k)
        assert burnside_b(m, s) == oracle_b(phi) == b_orbits(m), (m, k)


def test_subfield_counts_match_oracles_every_k_to_20():
    for m in range(1, 21):
        assert_subfield_counts_match_oracles(m, coprime_residues(m))


@pytest.mark.slow
@pytest.mark.parametrize("m", range(21, 25))
def test_subfield_counts_match_oracles_every_k_slow_tier(m):
    assert_subfield_counts_match_oracles(m, coprime_residues(m))


@pytest.mark.parametrize("m", range(21, 33))
def test_subfield_counts_give_the_formulas_above_20(m):
    # s_m is the closed form M(m) here, as audit takes it above its enumeration cap
    ks = coprime_residues(m)
    counts = subfield_counts(ks, default_ctx(m))
    assert list(counts) == ks
    for k, s in counts.items():
        s[m] = capital_m(m)
        assert subfield_n(m, s) == capital_n(m) and burnside_b(m, s) == b_orbits(m), (m, k)


@pytest.mark.parametrize("m", [1, 6, 12, 16, 32])
def test_proper_subfields_are_the_fixed_fields(m):
    ctx = default_ctx(m)
    ds, elements = proper_subfields(ctx)
    assert ds == tuple(divisors(m)[:-1])
    lo = 0
    for d in ds:
        part = np.sort(elements[lo:lo + (1 << d)])
        lo += 1 << d
        assert np.array_equal(np.unique(part), part) and part.size == 1 << d
        assert np.array_equal(ctx.pow2k_vec(part, d), part)
        if m <= 16:  # every fixed point of the field, by scan
            x = ctx.elements()
            assert np.array_equal(part, x[ctx.pow2k_vec(x, d) == x])
    assert lo == elements.size


def test_burnside_b_is_never_floored():
    assert burnside_b(4, {1: 1, 2: 1, 4: 5}) == 2
    assert burnside_b(4, {1: 0, 2: 1, 4: 5}) == Fraction(3, 2)
    assert str(burnside_b(4, {1: 0, 2: 1, 4: 5})) == "3/2"


def test_oracle_k_independence():
    for m in range(1, 13):
        base = oracle_b(phi1(m))
        for k in coprime_residues(m):
            assert oracle_b(phi_set(k, default_ctx(m))) == base


def test_oracle_guard():
    # a hand-built set: enumerating Phi(25) would be the cost the guard avoids
    phi = BetaSet(ctx=FieldCtx(25), k=1, elements=np.zeros(0, dtype=np.uint32))
    assert phi.m == 25
    for oracle in (oracle_capital_n, oracle_b):
        with pytest.raises(TooLarge):
            oracle(phi)


def test_lemma_3k_never_divides():
    # 3k never divides 2^k + 1 for k > 1 with gcd(k, 3) = 1
    for k in range(2, 1001):
        if k % 3 != 0:
            assert (pow(2, k, 3 * k) + 1) % (3 * k) != 0


def test_modulus_independence():
    for m in range(2, 11):
        it = irreducibles(m)
        ctx_a = FieldCtx(m, next(it))
        second = next(it, None)
        if second is None:  # m=2 has a single irreducible
            continue
        ctx_b = FieldCtx(m, second)
        for k in {1, coprime_residues(m)[-1]}:
            pa, pb = phi_set(k, ctx_a), phi_set(k, ctx_b)
            assert len(pa) == len(pb)
            assert (sorted(frobenius_orbits(pa).lengths.tolist())
                    == sorted(frobenius_orbits(pb).lengths.tolist()))


def test_count_report_round_trip():
    for m in (2, 6, 17):
        rep = count_report(m)
        assert rep.to_json()["factorization"] == [[p, e] for p, e in factorize(m)]
        assert rep.csv_row() == (m, rep.capital_m, rep.capital_n, rep.b,
                                 rep.n_taniguchi, rep.lower_bound)
    assert count_report(2).note is not None
    assert count_report(6).note is None


def test_count_report_refuses_a_bound_above_n(monkeypatch):
    from taniapn import counting
    monkeypatch.setattr(counting, "lower_bound", lambda m: n_taniguchi(m) + 1)
    with pytest.raises(AssertionError):
        count_report(6)
