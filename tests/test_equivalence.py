"""Canonicalization, witnesses, automorphism orders, and the monomial oracle."""

import json
import random
from functools import reduce

import numpy as np
import pytest

from taniapn import equivalence
from taniapn.counting import b_orbits, n_taniguchi
from taniapn.diffanalysis import is_apn
from taniapn.equivalence import (
    AutOrders,
    AutWitness,
    CanonicalTriple,
    LinearWitness,
    are_ccz_equivalent,
    aut_orders,
    canonical_witness,
    canonicalize,
    compose_witness,
    count_monomial_el_automorphisms,
    equivalence_witness,
    identity_witness,
    invert_witness,
    monomial_el_automorphisms,
    pott_zhou_aut_order,
    pott_zhou_bridge_witness,
    verify_witness,
)
from taniapn.errors import DegreeMismatch, InvalidParams, NotApn, TooLarge
from taniapn.families import (
    TaniguchiParams,
    TruthTableFunction,
    materialize,
)
from taniapn.gf2m import FieldCtx, coprime_residues, default_ctx
from taniapn.linmaps import PairMap, gf2_apply, gf2_rank, pack, unpack
from taniapn.poly_roots import (
    count_roots,
    orbit_length,
    orbit_min,
    phi_set,
    rootless,
    transform_beta,
)


def full_grid_verify(w, f, g):
    """Slow oracle for verify_witness: bijectivity, then the identity at every point."""
    size = 1 << f.dimension
    l_tab, n_tab = w.l_map.table(), w.n_map.table()
    if np.unique(l_tab).size < size or np.unique(n_tab).size < size:
        return False
    f_tab, g_tab = f.packed_table(), g.packed_table()
    return bool(np.array_equal(f_tab[l_tab], n_tab[g_tab] ^ w.m_map.table()))


def apn_params(m, ks=None, alphas=(1,), ctx=None):
    """Every APN (k, alpha, beta) triple for the given ranges."""
    ctx = ctx or default_ctx(m)
    for k in (ks if ks is not None else coprime_residues(m)):
        for alpha in alphas:
            for beta in range(1, ctx.order):
                if count_roots(k, alpha, beta, ctx) == 0:
                    yield TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta, ctx=ctx)


# ---------------------------------------------------------------------------
# canonicalize / are_ccz_equivalent
# ---------------------------------------------------------------------------

def test_canonicalize_k_negation():
    ctx = default_ctx(5)
    beta = next(iter(phi_set(4, ctx)))
    trip = canonicalize(TaniguchiParams(m=5, k=4, alpha=1, beta=beta))
    assert trip.k_star == 1


def test_canonicalize_m4_unit():
    assert canonicalize(TaniguchiParams(m=4, k=1, alpha=1, beta=1)) == \
        CanonicalTriple(1, 1, 1)


def test_canonicalize_alpha_reduction_consistency():
    for m in (4, 5):
        ctx = default_ctx(m)
        for p in apn_params(m, alphas=range(1, ctx.order)):
            q = TaniguchiParams(m=m, k=p.k, alpha=1,
                                beta=transform_beta(p.k, p.alpha, p.beta, ctx))
            assert canonicalize(p) == canonicalize(q)


@pytest.mark.parametrize("ctx", [default_ctx(m) for m in (3, 4, 5, 6)] + [FieldCtx(6, 0x49)],
                         ids=lambda ctx: f"{ctx.m}-0x{ctx.modulus:X}")
def test_canonicalize_matches_its_definition(ctx):
    # the literal triple: (k*, 1, orbit minimum of the alpha-normalised beta),
    # or the marker (k*, 0, 0) for alpha = 0
    m = ctx.m
    for p in apn_params(m, alphas=range(ctx.order), ctx=ctx):
        k_star = min(p.k, m - p.k)
        want = (k_star, 0, 0) if p.alpha == 0 else \
            (k_star, 1, orbit_min(transform_beta(p.k, p.alpha, p.beta, ctx), ctx))
        assert canonicalize(p) == CanonicalTriple(*want), p


def test_canonicalize_requires_apn():
    ctx = default_ctx(4)
    bad = next(b for b in range(1, 16) if count_roots(1, 1, b, ctx) > 0)
    with pytest.raises(NotApn):
        canonicalize(TaniguchiParams(m=4, k=1, alpha=1, beta=bad))


def test_ccz_equivalence_examples():
    ctx = default_ctx(4)
    beta = 9
    p = TaniguchiParams(m=4, k=1, alpha=1, beta=beta)
    p_sq = TaniguchiParams(m=4, k=1, alpha=1, beta=ctx.mul(beta, beta))
    assert are_ccz_equivalent(p, p_sq)

    noncube = next(b for b in range(2, 16) if not ctx.is_cube(b))
    p_zero = TaniguchiParams(m=4, k=1, alpha=0, beta=noncube)
    assert not are_ccz_equivalent(p_zero, p)   # alpha=0 vs alpha!=0

    unit = TaniguchiParams(m=4, k=1, alpha=1, beta=1)
    assert not are_ccz_equivalent(unit, p)     # the two m=4 classes

    with pytest.raises(DegreeMismatch):
        are_ccz_equivalent(unit, TaniguchiParams(m=5, k=1, alpha=1, beta=6))


def test_equivalence_refuses_members_over_different_moduli():
    p = TaniguchiParams(m=6, k=1, alpha=1, beta=0x2, ctx=FieldCtx(6, 0x49))
    q = next(apn_params(6, ks=[1]))
    for decide in (are_ccz_equivalent, equivalence_witness):
        with pytest.raises(DegreeMismatch, match="modulus 0x49 vs 0x43"):
            decide(p, q)


def test_m4_has_two_alpha1_classes():
    triples = {canonicalize(p) for p in apn_params(4, ks=[1])}
    assert triples == {CanonicalTriple(1, 1, 1), CanonicalTriple(1, 1, 9)}


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_identity_witness_verifies():
    f = TaniguchiParams(m=4, k=1, alpha=1, beta=9)
    assert verify_witness(identity_witness(4), f, f)


def test_wrong_witness_rejected():
    f = TaniguchiParams(m=4, k=1, alpha=1, beta=1)
    g = TaniguchiParams(m=4, k=1, alpha=1, beta=9)
    assert not verify_witness(identity_witness(4), f, g)


def test_canonical_witness_sweep_m4_m5():
    # acceptance extends this sweep to m=6
    for m in (4, 5):
        ctx = default_ctx(m)
        for p in apn_params(m, alphas=range(1, ctx.order), ctx=ctx):
            w, canon = canonical_witness(p)
            trip = canonicalize(p)
            assert (canon.k, canon.alpha, canon.beta) == \
                (trip.k_star, 1, trip.beta_star)
            assert verify_witness(w, p, canon)


def test_canonical_target_keeps_the_field():
    # f_(1, 1, 0x2) is APN over 0x49 but not over the default 0x43, so the
    # target is usable only if it carries the source's field
    ctx = FieldCtx(6, 0x49)
    p = TaniguchiParams(m=6, k=5, alpha=1, beta=0x2, ctx=ctx)
    w, target = canonical_witness(p)
    assert target == TaniguchiParams(m=6, k=1, alpha=1, beta=0x2, ctx=ctx)
    assert not TaniguchiParams(m=6, k=1, alpha=1, beta=0x2).is_apn_criterion()
    assert target.is_apn_criterion()
    assert canonicalize(target) == canonicalize(p) == CanonicalTriple(1, 1, 0x2)
    assert aut_orders(target) == aut_orders(p)
    assert verify_witness(w, p, target)


def test_pair_witness_uses_inversion():
    ctx = default_ctx(5)
    p1 = next(apn_params(5, ks=[4], alphas=[3], ctx=ctx))
    b1 = transform_beta(4, 3, p1.beta, ctx)
    target = orbit_min(b1, ctx)
    b2 = ctx.mul(target, target)                    # same orbit, not minimal
    beta2 = ctx.mul(b2, ctx.pow(7, (1 << 4) + 1))   # undo alpha=7 reduction
    p2 = TaniguchiParams(m=5, k=1, alpha=7, beta=beta2)
    assert are_ccz_equivalent(p1, p2)
    w = equivalence_witness(p1, p2)
    assert verify_witness(w, p1, p2)


def test_witness_none_for_inequivalent():
    p1 = TaniguchiParams(m=4, k=1, alpha=1, beta=1)
    p2 = TaniguchiParams(m=4, k=1, alpha=1, beta=9)
    assert equivalence_witness(p1, p2) is None


def test_decision_completeness_invariants():
    # distinct canonical triples: no witness is ever claimed, and either the
    # aut orders separate the classes or the differential spectra agree
    # (inequivalence itself is the trusted theorem)
    from taniapn.diffanalysis import differential_spectrum
    for m in (4, 5, 6):
        ctx = default_ctx(m)
        reps = {}
        for p in apn_params(m, alphas=(0, 1), ctx=ctx):
            reps.setdefault(canonicalize(p), p)
        reps = list(reps.values())
        spectra = [differential_spectrum(p) for p in reps]
        for i, p1 in enumerate(reps):
            for j in range(i + 1, len(reps)):
                assert equivalence_witness(p1, reps[j]) is None
                auts_differ = aut_orders(p1) != aut_orders(reps[j])
                assert auts_differ or spectra[i] == spectra[j]


def test_pair_witnesses_within_classes():
    # sampled pairs with equal canonical triples (alpha != 0) always get a
    # verified constructive witness
    rng = random.Random(11)
    for m in (4, 5, 6):
        ctx = default_ctx(m)
        by_class = {}
        for p in apn_params(m, alphas=range(1, ctx.order), ctx=ctx):
            by_class.setdefault(canonicalize(p), []).append(p)
        pairs = []
        for members in by_class.values():
            for _ in range(3):
                pairs.append((rng.choice(members), rng.choice(members)))
        for p1, p2 in rng.sample(pairs, min(len(pairs), 12)):
            w = equivalence_witness(p1, p2)
            assert w is not None
            assert verify_witness(w, p1, p2)


def test_witness_alpha_zero_frobenius_path():
    ctx = default_ctx(4)
    p1 = TaniguchiParams(m=4, k=1, alpha=0, beta=2)
    p2 = TaniguchiParams(m=4, k=1, alpha=0, beta=4)
    w = equivalence_witness(p1, p2)
    assert w is not None
    assert verify_witness(w, p1, p2)
    # equivalent (same class) but different orbits: no constructive path
    p3 = TaniguchiParams(m=4, k=1, alpha=0, beta=next(
        b for b in range(2, 16)
        if not ctx.is_cube(b) and orbit_min(b, ctx) != orbit_min(2, ctx)))
    assert are_ccz_equivalent(p1, p3)
    assert equivalence_witness(p1, p3) is None


def test_pott_zhou_bridge_m4():
    ctx = default_ctx(4)
    for beta in range(2, 16):
        if ctx.is_cube(beta):
            continue
        p = TaniguchiParams(m=4, k=1, alpha=0, beta=beta)
        w, pz = pott_zhou_bridge_witness(p)
        assert pz.s == 2 and pz.alpha == ctx.inverse(beta)
        assert verify_witness(w, p, pz)


def test_pott_zhou_bridge_keeps_the_field():
    ctx = FieldCtx(6, 0x49)
    beta = next(b for b in range(2, ctx.order) if not ctx.is_cube(b))
    p = TaniguchiParams(m=6, k=1, alpha=0, beta=beta, ctx=ctx)
    w, pz = pott_zhou_bridge_witness(p)
    assert pz.ctx == ctx and pz.alpha == ctx.inverse(beta) and pz.is_apn_criterion()
    assert verify_witness(w, p, pz)


def holds_at_points(w, f, g, count=8):
    """Scalar oracle for a witness beyond the verify cap: full-rank L and N,
    and f(L(p)) = N(g(p)) + M(p) at `count` random packed points p."""
    m = f.ctx.m
    if gf2_rank(w.l_map.images()) != 2 * m or gf2_rank(w.n_map.images()) != 2 * m:
        return False
    rng = random.Random(m)
    for p in [rng.getrandbits(2 * m) for _ in range(count)]:
        lhs = pack(*f.evaluate(*unpack(gf2_apply(w.l_map.images(), p), m)), m)
        rhs = gf2_apply(w.n_map.images(), pack(*g.evaluate(*unpack(p, m)), m))
        if lhs != rhs ^ gf2_apply(w.m_map.images(), p):
            return False
    return True


@pytest.mark.parametrize("m, k, beta", [(17, 16, 0x3), (20, 13, 0x12)])
def test_canonical_witness_above_32_bits(m, k, beta):
    # alpha != 1 and k > m/2, and beta' is not its orbit minimum, so the
    # alpha, swap and twist maps all enter; their images pass 32 bits
    p = TaniguchiParams(m=m, k=k, alpha=3, beta=beta)
    w, canon = canonical_witness(p)
    assert (canon.k, canon.alpha) == (m - k, 1) and canon.beta != beta
    assert holds_at_points(w, p, canon)
    with pytest.raises(TooLarge):
        verify_witness(w, p, canon)


def test_pott_zhou_bridge_above_32_bits():
    p = TaniguchiParams(m=18, k=1, alpha=0, beta=0x2)  # 0x2 is a non-cube
    w, pz = pott_zhou_bridge_witness(p)
    assert holds_at_points(w, p, pz)


def test_witness_composition_and_inversion_round_trip():
    ctx = default_ctx(4)
    p = TaniguchiParams(m=4, k=3, alpha=5, beta=11)
    assert count_roots(3, 5, 11, ctx) == 0
    w, canon = canonical_witness(p)
    w_inv = invert_witness(w)
    assert verify_witness(w_inv, canon, p)
    # composing a witness with its inverse gives a self-witness of f_p
    w_id = compose_witness(w, w_inv)
    assert verify_witness(w_id, p, p)


def dense_chain(p):
    """canonical_witness(p) composed densely: its elementary witnesses as
    PairMap.monomial maps, folded by compose_witness."""
    trip, steps, _ = equivalence._canonical(p)
    target = TaniguchiParams(m=p.m, k=trip.k_star, alpha=1, beta=trip.beta_star, ctx=p.ctx)
    return reduce(compose_witness, [s.witness() for s in steps], identity_witness(p.m)), target


@pytest.mark.parametrize("m", [3, 4, 5])
def test_canonical_chain_matches_dense_composition(m):
    ctx = default_ctx(m)
    checked = 0
    for p in apn_params(m, alphas=range(1, ctx.order), ctx=ctx):
        assert canonical_witness(p) == dense_chain(p), p
        checked += 1
    assert checked == {3: 42, 4: 150, 5: 1364}[m]


def class_member(rng, ctx, k, gamma):
    """A random member with this k of the class of f_{min(k, m-k),1,gamma}: a
    Frobenius twist of gamma, then a random alpha, beta = gamma' alpha^(2^(m-k)+1)."""
    m = ctx.m
    alpha = rng.randrange(1, ctx.order)
    beta = ctx.mul(ctx.pow2k(gamma, rng.randrange(m)), ctx.pow(alpha, (1 << (m - k)) + 1))
    return TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta, ctx=ctx)


@pytest.mark.parametrize("m, pairs", [(6, 4), (7, 4), (8, 4), (9, 4), (10, 4), (17, 2), (24, 1)])
def test_pair_chain_matches_dense_composition(m, pairs):
    # 2m > 32 at m = 17 and 24 packs into uint64; a fresh context drops
    # the m = 24 log table with the test
    ctx = FieldCtx(m)
    rng = random.Random(m)
    for _ in range(pairs):
        k_star = rng.choice([k for k in coprime_residues(m) if k < m / 2])
        gammas = np.array([rng.randrange(1, ctx.order) for _ in range(64)], dtype=np.uint32)
        gamma = int(gammas[rootless(k_star, gammas, ctx)][0])
        # p2 has k > m/2, so the inverted chain holds the swapped maps
        p1 = class_member(rng, ctx, rng.choice([k_star, m - k_star]), gamma)
        p2 = class_member(rng, ctx, m - k_star, gamma)
        (w1, c1), (w2, c2) = dense_chain(p1), dense_chain(p2)
        assert c1 == c2
        assert equivalence_witness(p1, p2) == compose_witness(w1, invert_witness(w2))


def test_witness_verify_guard():
    f = TaniguchiParams(m=17, k=1, alpha=1, beta=1)  # 2m = 34 exceeds the uint32 packing
    with pytest.raises(TooLarge):
        verify_witness(identity_witness(17), f, f)


def test_witness_verify_rejects_context_mismatch():
    f = TaniguchiParams(m=3, k=1, alpha=1, beta=2, ctx=FieldCtx(3, 0xB))
    g = TaniguchiParams(m=3, k=1, alpha=1, beta=3, ctx=FieldCtx(3, 0xD))
    with pytest.raises(DegreeMismatch):
        verify_witness(identity_witness(3), f, g)


def _corrupted(w, rng):
    """One bit flipped in one basis image of L, of N and of M, and a singular L."""
    n = len(w.l_map.images())

    def flip(pm):
        imgs = list(pm.images())
        imgs[rng.randrange(n)] ^= 1 << rng.randrange(n)
        return PairMap(tuple(imgs))

    singular = list(w.l_map.images())
    singular[rng.randrange(n)] = 0
    return [LinearWitness(flip(w.l_map), w.n_map, w.m_map),
            LinearWitness(w.l_map, flip(w.n_map), w.m_map),
            LinearWitness(w.l_map, w.n_map, flip(w.m_map)),
            LinearWitness(PairMap(tuple(singular)), w.n_map, w.m_map)]


def test_verify_witness_matches_full_grid_oracle():
    # every canonical witness and pott-zhou bridge with 2m <= 12, plus
    # corrupted copies of a sample of them
    rng = random.Random(5)
    cases = []
    for m in (3, 4, 5, 6):
        ctx = default_ctx(m)
        canons = {}  # one object per class, so its truth table is built once
        for p in apn_params(m, alphas=range(1, ctx.order), ctx=ctx):
            w, canon = canonical_witness(p)
            cases.append((w, p, canons.setdefault(canon, canon)))
    for m in (4, 6):
        ctx = default_ctx(m)
        for p in apn_params(m, ks=[k for k in coprime_residues(m) if k < m / 2],
                            alphas=(0,), ctx=ctx):
            w, pz = pott_zhou_bridge_witness(p)
            cases.append((w, p, pz))
    for w, f, g in cases:
        assert verify_witness(w, f, g) and full_grid_verify(w, f, g)
    for w, f, g in rng.sample(cases, 100):
        for bad in _corrupted(w, rng):
            assert verify_witness(bad, f, g) == full_grid_verify(bad, f, g)


def test_verify_witness_accepts_quadratic_tables_only():
    ctx = default_ctx(4)
    p = TaniguchiParams(m=4, k=3, alpha=5, beta=11)
    w, canon = canonical_witness(p)
    f, g = materialize(p), materialize(canon)
    assert verify_witness(w, f, g)
    points = np.arange(1 << 8, dtype=np.uint32)
    cubic = TruthTableFunction(  # adds x_0 x_1 x_2 to output bit 0
        f.table ^ ((points & 7) == 7).astype(np.uint32), ctx)
    with pytest.raises(InvalidParams):
        verify_witness(w, cubic, g)
    with pytest.raises(InvalidParams):
        verify_witness(invert_witness(w), g, cubic)


def test_verify_witness_needs_both_maps_bijective():
    # on the all-zero table the identity holds for any L and N, so only the
    # rank checks can refuse a singular one; a member forces both at once
    ctx = default_ctx(3)
    zero = TruthTableFunction(np.zeros(1 << 6, dtype=np.uint32), ctx)
    ident, null = PairMap.identity(3), PairMap.zero(3)
    assert not verify_witness(LinearWitness(null, ident, null), zero, zero)
    assert not verify_witness(LinearWitness(ident, null, null), zero, zero)
    assert verify_witness(LinearWitness(ident, ident, null), zero, zero)
    p = TaniguchiParams(m=3, k=1, alpha=1, beta=1)
    assert not verify_witness(LinearWitness(null, null, null), p, p)


def test_witness_verify_at_the_cap():
    # 2m = 32, the largest verifiable size
    ctx = default_ctx(16)
    beta = 0x1003  # in Phi for k = 15
    p1 = TaniguchiParams(m=16, k=15, alpha=1, beta=beta)
    p2 = TaniguchiParams(m=16, k=1, alpha=ctx.inverse(beta), beta=ctx.inverse(beta))
    w = equivalence_witness(p1, p2)
    assert verify_witness(w, p1, p2)
    for bad in _corrupted(w, random.Random(16)):
        assert not verify_witness(bad, p1, p2)


def test_witness_json_round_trip():
    ctx = default_ctx(4)
    p1 = TaniguchiParams(m=4, k=1, alpha=1, beta=9)
    p2 = TaniguchiParams(m=4, k=1, alpha=1, beta=13)
    w = equivalence_witness(p1, p2)
    data = json.loads(json.dumps(w.to_json(ctx)))
    l_xx, l_xy, l_yx, l_yy = w.l_map.blocks(ctx)
    n_xx, n_xy, n_yx, n_yy = w.n_map.blocks(ctx)
    m_xx, m_xy, m_yx, m_yy = w.m_map.blocks(ctx)
    blocks = {"l_a": (l_xx, l_xy), "l_b": (l_yx, l_yy),
              "m_a": (m_xx, m_xy), "m_b": (m_yx, m_yy)}
    for name, (x, y) in blocks.items():
        assert data[name] == {"x": [f"0x{c:X}" for c in x], "y": [f"0x{c:X}" for c in y]}
    n_blocks = {"n1": n_xx, "n2": n_yx, "n3": n_xy, "n4": n_yy}
    for name, coeffs in n_blocks.items():
        assert data[name] == [f"0x{c:X}" for c in coeffs]
    assert verify_witness(w, p1, p2)


def test_apn_invariant_under_witness():
    # applying a verified equivalence preserves the APN verdict
    ctx = default_ctx(4)
    p1 = TaniguchiParams(m=4, k=1, alpha=1, beta=9)
    p2 = TaniguchiParams(m=4, k=3, alpha=7, beta=transform_beta(
        1, ctx.inverse(7), 9, ctx))
    if count_roots(3, 7, p2.beta, ctx) == 0 and are_ccz_equivalent(p1, p2):
        assert is_apn(p1) == is_apn(p2)
    assert is_apn(p1)


# ---------------------------------------------------------------------------
# class accounting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [4, 5])
def test_class_accounting_small(m):
    # full m in {4..8} runs in the acceptance gate
    ctx = default_ctx(m)
    triples = {canonicalize(p)
               for p in apn_params(m, alphas=(0, 1), ctx=ctx)}
    assert len(triples) == n_taniguchi(m)


def test_self_witness_is_identity():
    p = TaniguchiParams(m=4, k=1, alpha=1, beta=9)
    w = equivalence_witness(p, p)
    assert w == identity_witness(4)
    assert verify_witness(w, p, p)


@pytest.mark.parametrize("k, alpha, beta", [(1, 0, 2), (3, 5, 11)])
def test_self_witness_is_identity_through_steps(k, alpha, beta):
    # an alpha = 0 member takes the zero twist, and alpha = 5 with k > m/2
    # composes its alpha, swap and twist steps with their inverses
    p = TaniguchiParams(m=4, k=k, alpha=alpha, beta=beta)
    w = equivalence_witness(p, p)
    assert w == identity_witness(4)
    assert verify_witness(w, p, p)


def test_per_k_class_count():
    # for fixed k: b(m) alpha=1 classes, plus one alpha=0 class when m even
    for m in (4, 5, 6, 7, 8):
        ctx = default_ctx(m)
        triples = {canonicalize(p)
                   for p in apn_params(m, ks=[1], alphas=(0, 1), ctx=ctx)}
        assert len(triples) == b_orbits(m) + (1 if m % 2 == 0 else 0)


# ---------------------------------------------------------------------------
# automorphism orders
# ---------------------------------------------------------------------------

def test_aut_constants_m2_m3():
    ctx3 = default_ctx(3)
    beta = next(iter(phi_set(1, ctx3)))
    orders = aut_orders(TaniguchiParams(m=3, k=1, alpha=1, beta=beta))
    assert orders == AutOrders(14, 896, 896)
    assert aut_orders(TaniguchiParams(m=2, k=1, alpha=1, beta=1)) == \
        AutOrders(360, 5760, 5760)


def test_aut_alpha_zero():
    ctx = default_ctx(4)
    noncube = next(b for b in range(2, 16) if not ctx.is_cube(b))
    orders = aut_orders(TaniguchiParams(m=4, k=1, alpha=0, beta=noncube))
    assert orders.aut_el == 3 * 4 * 15 == 180
    assert orders.aut == orders.aut_ea == 180 << 8
    ctx6 = default_ctx(6)
    noncube6 = next(b for b in range(2, 64) if not ctx6.is_cube(b))
    orders6 = aut_orders(TaniguchiParams(m=6, k=1, alpha=0, beta=noncube6))
    assert orders6.aut_el == 3 * 6 * 63 // 2


def test_aut_alpha_one_m5():
    full = aut_orders(TaniguchiParams(m=5, k=1, alpha=1, beta=6))
    assert full.aut_el == 31          # full-length orbit: 5*31/5
    unit = aut_orders(TaniguchiParams(m=5, k=1, alpha=1, beta=1))
    assert unit.aut_el == 155         # beta'=1 has orbit length 1
    assert unit.aut == 155 << 10


@pytest.mark.parametrize("m", [4, 5, 6])
def test_aut_el_matches_its_definition(m):
    # m(2^m - 1) over the orbit length of the alpha-normalised beta
    ctx = default_ctx(m)
    for p in apn_params(m, alphas=range(1, ctx.order), ctx=ctx):
        beta1 = transform_beta(p.k, p.alpha, p.beta, ctx)
        assert aut_orders(p).aut_el == m * (ctx.order - 1) // orbit_length(beta1, ctx), p


def test_aut_invariant_on_classes():
    # all members of one canonical class share the same orders
    for m in (4, 5, 6, 7, 8):
        ctx = default_ctx(m)
        by_class = {}
        for p in apn_params(m, alphas=(0, 1), ctx=ctx):
            by_class.setdefault(canonicalize(p), set()).add(
                aut_orders(p))
        for trip, orders in by_class.items():
            assert len(orders) == 1, trip


def test_aut_requires_apn():
    with pytest.raises(NotApn):
        ctx = default_ctx(4)
        bad = next(b for b in range(1, 16) if count_roots(1, 1, b, ctx) > 0)
        aut_orders(TaniguchiParams(m=4, k=1, alpha=1, beta=bad))


def test_taniguchi_aut_below_pott_zhou_floor():
    # alpha != 0 members sit strictly below 3m*2^(2m-1)*(2^m-1), which lower
    # bounds every pott-zhou order (at m=4 all even s collapse to the larger
    # constant, so the bound is not tight there)
    for m in (4, 6, 8):
        ctx = default_ctx(m)
        floor = 3 * m * (1 << (2 * m - 1)) * (ctx.order - 1)
        assert min(pott_zhou_aut_order(m, s) for s in range(0, m + 1, 2)) >= floor
        for p in apn_params(m, ks=[1], alphas=(1,), ctx=ctx):
            assert aut_orders(p).aut < floor


# ---------------------------------------------------------------------------
# monomial oracle
# ---------------------------------------------------------------------------

def test_monomial_identity_always_present():
    wits = monomial_el_automorphisms(TaniguchiParams(m=4, k=1, alpha=1, beta=9))
    assert any(w.u == 0 and w.a_u == 1 and w.b_bar_u == 1 and w.c_u == 1
               for w in wits)


def test_monomial_counts_m5_spot():
    # acceptance sweeps all (k, beta) for m in {5,6,7}
    for beta in (1, 6):
        p = TaniguchiParams(m=5, k=1, alpha=1, beta=beta)
        assert count_monomial_el_automorphisms(p) == \
            aut_orders(p).aut_el


def test_monomial_witness_internal_consistency():
    ctx = default_ctx(5)
    beta = max(phi_set(2, ctx))
    for w in monomial_el_automorphisms(TaniguchiParams(m=5, k=2, alpha=1, beta=beta)):
        assert w.b_bar_u == ctx.pow2k(w.a_u, 4)
        assert w.c_u == ctx.pow(w.b_bar_u, (1 << 2) + 1)
        assert ctx.pow2k(beta, w.u) == beta    # beta'^(2^u) = beta'


def test_monomial_guards():
    with pytest.raises(InvalidParams):
        count_monomial_el_automorphisms(TaniguchiParams(m=5, k=1, alpha=3, beta=6))
    with pytest.raises(TooLarge):
        count_monomial_el_automorphisms(TaniguchiParams(m=12, k=1, alpha=1, beta=1))


def monomial_by_full_grid(p):
    """Slow oracle: each monomial candidate built as a witness, checked on every point."""
    ctx = p.ctx
    found = []
    for u in range(ctx.m):
        for a_u in range(1, ctx.order):
            b_bar = ctx.pow2k(a_u, 2 * p.k)
            c_u = ctx.pow(b_bar, (1 << p.k) + 1)
            w = LinearWitness(
                l_map=PairMap.monomial(ctx, xx=(a_u, u), yy=(b_bar, u)),
                n_map=PairMap.monomial(ctx, xx=(c_u, u), yy=(ctx.mul(a_u, b_bar), u)),
                m_map=PairMap.zero(ctx.m),
            )
            if full_grid_verify(w, p, p):
                found.append(AutWitness(u=u, a_u=a_u, b_bar_u=b_bar, c_u=c_u))
    return found


@pytest.mark.parametrize("m", [4, 5, 6])
def test_monomial_matches_full_grid_oracle(m):
    # beta = 1, where it is in Phi, has d = 1: every candidate passes the sieve
    ctx = default_ctx(m)
    for k in coprime_residues(m):
        phi = phi_set(k, ctx)
        for beta in {min(phi), max(phi)} | ({1} & set(phi)):
            p = TaniguchiParams(m=m, k=k, alpha=1, beta=beta)
            assert monomial_el_automorphisms(p) == monomial_by_full_grid(p)


def test_monomial_matches_full_grid_oracle_in_small_batches(monkeypatch):
    # 200 point checks per batch: the sieve's 11 points take 18 candidates
    # a batch, the 45 points of weight 2 take 4, so both passes span many
    from taniapn import equivalence
    monkeypatch.setattr(equivalence, "_aut_batch_elements", lambda m: 200)
    ctx = default_ctx(5)
    for k in (1, 2):
        phi = phi_set(k, ctx)
        for beta in {min(phi), max(phi)} | ({1} & set(phi)):
            p = TaniguchiParams(m=5, k=k, alpha=1, beta=beta)
            wits = monomial_el_automorphisms(p)
            assert len(wits) > 4 and wits == monomial_by_full_grid(p)


@pytest.mark.slow
@pytest.mark.parametrize("m", [10, 11])
def test_monomial_counts_above_old_cap(m):
    ctx = default_ctx(m)
    phi = phi_set(1, ctx)
    for beta in (min(phi), max(phi)):
        p = TaniguchiParams(m=m, k=1, alpha=1, beta=beta)
        assert count_monomial_el_automorphisms(p) == aut_orders(p).aut_el


def test_canonical_triple_json_round_trip():
    trip = CanonicalTriple(2, 1, 0x17)
    assert trip.to_json() == {"k_star": 2, "alpha_star": 1, "beta_star": "0x17"}
