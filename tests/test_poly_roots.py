"""Trinomial root analysis: scan oracle, Phi enumeration, orbits, subfield lifts."""

import hashlib
import json

import numpy as np
import pytest
from conftest import beta_set
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taniapn import poly_roots
from taniapn.counting import capital_m
from taniapn.errors import InvalidK, InvalidParams, NotFrobeniusClosed, ZeroAlpha
from taniapn.gf2m import FieldCtx, coprime_residues, default_ctx
from taniapn.poly_roots import (
    BetaSet,
    count_roots,
    frobenius_orbit,
    frobenius_orbits,
    orbit_length,
    orbit_min,
    phi_set,
    rootless,
    transform_beta,
)

GF8 = default_ctx(3)
GF16 = default_ctx(4)


def orbit_minima(arr, ctx):
    """Per element of the sorted arr, the smallest member of its Frobenius
    orbit, as frobenius_orbits reports it."""
    dec = frobenius_orbits(beta_set(ctx, 1, arr))
    return dec.representatives[dec.orbit_of]


def phi_by_definition(k, ctx):
    """Independent oracle: Phi via a per-beta root count, not image complement."""
    return {b for b in range(ctx.order) if count_roots(k, 1, b, ctx) == 0}


def test_count_roots_beta_zero_always_rooted():
    for m in (2, 3, 4, 5):
        ctx = default_ctx(m)
        for k in coprime_residues(m):
            assert count_roots(k, 1, 0, ctx) >= 1


def test_count_roots_gf8():
    # exactly 3 values of beta give a rootless trinomial at m=3, k=1
    zero_root_betas = [b for b in range(8) if count_roots(1, 1, b, GF8) == 0]
    assert len(zero_root_betas) == 3
    assert zero_root_betas == [2, 4, 6]


def test_count_roots_invalid_k():
    with pytest.raises(InvalidK):
        count_roots(2, 1, 1, default_ctx(4))
    with pytest.raises(InvalidK):
        count_roots(3, 1, 1, default_ctx(6))


@pytest.mark.parametrize("m", range(2, 11))
def test_root_count_trichotomy(m):
    # {0, 1, 3} on beta != 0; beta = 0 factors as X(X^(2^k)+1) with roots {0, 1}
    ctx = default_ctx(m)
    ks = {1, coprime_residues(m)[-1]}
    for k in ks:
        counts = [count_roots(k, 1, b, ctx) for b in range(ctx.order)]
        assert counts[0] == 2
        assert set(counts[1:]) <= {0, 1, 3}
        # independent cross-check: multiset of the image x -> x^(2^k+1)+x
        x = ctx.elements()
        img = ctx.mul_vec(ctx.pow2k_vec(x, k), x) ^ x
        bincounts = np.bincount(img, minlength=ctx.order)
        assert counts == bincounts.tolist()


@pytest.mark.parametrize("m", range(1, 15))
def test_phi_size_formula(m):
    ctx = default_ctx(m)
    for k in {1, coprime_residues(m)[-1]}:
        assert len(phi_set(k, ctx)) == capital_m(m)


def test_phi_matches_definition_oracle():
    for m in range(1, 9):
        ctx = default_ctx(m)
        for k in coprime_residues(m):
            assert set(phi_set(k, ctx)) == phi_by_definition(k, ctx)


def test_phi_basics():
    phi3 = phi_set(1, GF8)
    assert list(phi3) == [2, 4, 6]
    phi4 = phi_set(1, GF16)
    assert list(phi4) == [1, 9, 11, 13, 14]
    for m in range(1, 10):
        ctx = default_ctx(m)
        for k in coprime_residues(m):
            phi = phi_set(k, ctx)
            assert 0 not in phi
            sq = set(int(v) for v in ctx.square_vec(phi.elements))
            assert sq <= set(phi)            # Frobenius closure


def test_beta_set_carries_its_field():
    # x^6 + x^3 + 1 against the default modulus of degree 6
    other, default = phi_set(1, FieldCtx(6, 0x49)), phi_set(1, default_ctx(6))
    assert other.ctx.modulus == 0x49 and other.m == default.m == 6
    assert other != default
    assert beta_set(other.ctx, 1, default.elements) != default
    assert beta_set(default.ctx, 1, default.elements.copy()) == default


def test_beta_set_checks_its_bitmap():
    # one byte per 8 elements, and at least one byte
    ctx = default_ctx(4)
    good = phi_set(1, ctx).bitmap
    for bad in (good.astype(np.uint16), good.view(np.int8), good.reshape(1, 2), good.tolist()):
        with pytest.raises(InvalidParams, match="^a BetaSet bitmap is a 1-D uint8 array$"):
            BetaSet(ctx, 1, bad)
    for bad in (good[:1], np.zeros(3, dtype=np.uint8)):
        with pytest.raises(InvalidParams, match=f"^a BetaSet bitmap at m=4 has length {bad.size}, "
                                                "not 2$"):
            BetaSet(ctx, 1, bad)
    with pytest.raises(InvalidParams, match="^a BetaSet bitmap at m=2 has length 0, not 1$"):
        BetaSet(default_ctx(2), 1, np.zeros(0, dtype=np.uint8))
    # below m = 3 the one byte is partly used, and its upper bits must be clear
    for m in (1, 2):
        whole = (1 << (1 << m)) - 1
        assert len(BetaSet(default_ctx(m), 1, np.array([whole], dtype=np.uint8))) == 1 << m
        with pytest.raises(InvalidParams, match=f"^a BetaSet bitmap at m={m} has a bit at or "
                                                f"above 2\\^{m}$"):
            BetaSet(default_ctx(m), 1, np.array([1 << (1 << m)], dtype=np.uint8))
    assert len(BetaSet(GF8, 1, np.array([0xFF], dtype=np.uint8))) == 8


def test_membership_outside_the_field():
    # neither -1 nor 2^m is a member, even of the whole field, and no read
    # wraps around the bitmap
    for ctx in (default_ctx(1), GF8, GF16):
        whole = beta_set(ctx, 1, ctx.elements())
        assert ctx.order - 1 in whole and 0 in whole
        assert -1 not in whole and ctx.order not in whole and 1 << 40 not in whole
    phi = phi_set(1, GF16)
    assert -1 not in phi and 16 not in phi


@pytest.mark.parametrize("m", range(1, 11))
def test_chunked_root_scans_match_one_pass(m, monkeypatch):
    ctx = default_ctx(m)
    betas = range(0, ctx.order, max(1, ctx.order // 16))
    whole = [(phi_set(k, ctx), [count_roots(k, 1, b, ctx) for b in betas])
             for k in coprime_residues(m)]
    monkeypatch.setattr(poly_roots, "BLOCK", 1 << 4)
    chunked = [(phi_set(k, ctx), [count_roots(k, 1, b, ctx) for b in betas])
               for k in coprime_residues(m)]
    assert chunked == whole


@pytest.mark.parametrize("m", range(11, 15))
def test_phi_batches_match_one_batch(m, monkeypatch):
    # batches of 16 put up to 1,024 values of u = hi*16 through the cross
    # term u*v^q + u^q*v of the batched path
    ctx = default_ctx(m)
    whole = [phi_set(k, ctx) for k in coprime_residues(m)]
    monkeypatch.setattr(poly_roots, "BLOCK", 1 << 4)
    assert [phi_set(k, ctx) for k in coprime_residues(m)] == whole


def test_root_scan_peak_stays_within_its_blocks(peak_mb):
    # tables warm: the scan holds a few BLOCK-sized temporaries, not a
    # batch the size of the field (33 MB at m = 20 with 2^22-element batches)
    ctx = FieldCtx(20)
    want = count_roots(1, 3, 5, ctx)
    got, peak = peak_mb(lambda: count_roots(1, 3, 5, ctx))
    assert got == want and peak < 4


def test_phi_set_peak_stays_within_its_mask_and_set(peak_mb):
    # the rootless mask (1 MB at m = 20), its packed bitmap and BLOCK-sized
    # batches; 10.7 MB with 2^22-element batches and a sorted element array
    phi, peak = peak_mb(lambda: phi_set(1, FieldCtx(20)))
    assert len(phi) == capital_m(20) and peak < 6


def test_orbits_of_every_k_star_peak_within_their_bitmaps(peak_mb):
    # classes --m 20: per k* a 128 KB bitmap and its orbits, with one 1 MB
    # rootless mask at a time; 8.3 MB with each set's sorted elements held
    ctx = FieldCtx(20)
    ks = [k for k in coprime_residues(20) if k < 10]
    want = [frobenius_orbits(phi_set(k, ctx)) for k in ks]  # tables warm
    got, peak = peak_mb(lambda: [frobenius_orbits(phi_set(k, ctx)) for k in ks])
    assert [d.to_json() for d in got] == [d.to_json() for d in want] and peak < 4


def test_phi_set_needs_no_generator_or_log_table(forbid_generator_walk):
    # the oracle is the image complement through the log table, taken first
    oracle = {}
    for m in range(1, 13):
        ctx = default_ctx(m)
        x = ctx.elements()
        for k in coprime_residues(m):
            rooted = np.zeros(ctx.order, dtype=bool)
            rooted[ctx.mul_vec(ctx.pow2k_vec(x, k), x) ^ x] = True
            oracle[m, k] = np.flatnonzero(~rooted).tolist()
    forbid_generator_walk()
    with pytest.raises(AssertionError):
        default_ctx(5).generator
    for (m, k), want in oracle.items():
        assert phi_set(k, default_ctx(m)).elements.tolist() == want


@pytest.mark.parametrize("m", [2, 9, 14])
def test_phi_set_takes_only_the_squaring_tables_scalar_products(m, monkeypatch):
    # the m basis squares behind the squaring tables are the only scalar
    # products: the Frobenius-k tables square the basis k times, and F(u)
    # and every image of the doubling are XORs of entries of X^s * (X^r)^q;
    # batches of 16 put the later-batch path through it too
    want = [phi_set(k, default_ctx(m)) for k in coprime_residues(m)]
    ctx = FieldCtx(m)
    calls = []
    orig = ctx.mul
    monkeypatch.setattr(ctx, "mul", lambda a, b: calls.append(1) or orig(a, b))
    monkeypatch.setattr(ctx, "pow2k", lambda *_: pytest.fail("scalar pow2k called"))
    monkeypatch.setattr(poly_roots, "BLOCK", 1 << 4)
    assert [phi_set(k, ctx) for k in coprime_residues(m)] == want
    assert len(calls) == m


def test_phi_k_negation_symmetry():
    for m in range(2, 11):
        ctx = default_ctx(m)
        for k in coprime_residues(m):
            assert set(phi_set(k, ctx)) == set(phi_set(m - k, ctx))


def test_phi_orbit_profile_independent_of_k():
    # The weaker always-checkable invariant: profiles agree across k.
    # (Set-level equality fails in general: first at m=5, k=2.)
    for m in range(1, 13):
        ctx = default_ctx(m)
        ks = coprime_residues(m)
        base = sorted(frobenius_orbits(phi_set(ks[0], ctx)).lengths.tolist())
        for k in ks[1:]:
            assert sorted(frobenius_orbits(phi_set(k, ctx)).lengths.tolist()) == base
    assert set(phi_set(2, default_ctx(5))) != set(phi_set(1, default_ctx(5)))


def test_frobenius_orbits_examples():
    dec3 = frobenius_orbits(phi_set(1, GF8))
    assert dec3.representatives.tolist() == [2] and dec3.lengths.tolist() == [3]
    assert dec3.orbit_of.tolist() == [0, 0, 0] and dec3.total == 3
    dec4 = frobenius_orbits(phi_set(1, GF16))  # Phi = 0x1, 0x9, 0xB, 0xD, 0xE
    assert dec4.representatives.tolist() == [1, 9] and dec4.lengths.tolist() == [1, 4]
    assert dec4.orbit_of.tolist() == [0, 1, 1, 1, 1] and dec4.total == 5


def test_frobenius_orbits_properties():
    for m in (4, 6, 9):
        ctx = default_ctx(m)
        phi = phi_set(1, ctx)
        dec = frobenius_orbits(phi)
        assert dec.representatives.dtype == dec.lengths.dtype == np.uint32
        assert int(dec.lengths.sum()) == dec.total == len(phi)
        for rep, length in zip(dec.representatives.tolist(), dec.lengths.tolist()):
            assert m % length == 0
            assert orbit_min(rep, ctx) == rep
            assert orbit_length(rep, ctx) == length
        for b, i in zip(phi, dec.orbit_of.tolist()):
            assert orbit_min(b, ctx) == dec.representatives[i]


@pytest.mark.parametrize("m", range(1, 15))
def test_orbit_minima_matches_scalar_walk(m):
    # Phi(m) for every k, and the whole field: closed, holding 0 and 1,
    # with the short orbits of every subfield
    ctx = default_ctx(m)
    field = ctx.elements()
    oracle = [orbit_min(b, ctx) for b in field.tolist()]
    for arr in [phi_set(k, ctx).elements for k in coprime_residues(m)] + [field]:
        reps = orbit_minima(arr, ctx)
        assert reps.dtype == np.uint32 and reps.shape == arr.shape
        assert reps.tolist() == [oracle[b] for b in arr.tolist()]


def test_orbit_minima_closure_and_empty_set():
    # in GF(8) the orbit of 2 is {2, 4, 6}
    assert orbit_minima(np.array([2, 4, 6], dtype=np.uint32), GF8).tolist() == [2, 2, 2]
    with pytest.raises(NotFrobeniusClosed, match="0x6"):
        orbit_minima(np.array([2, 4], dtype=np.uint32), GF8)
    empty = orbit_minima(np.zeros(0, dtype=np.uint32), GF8)
    assert empty.dtype == np.uint32 and empty.size == 0


@pytest.mark.parametrize("m", [1, 2])
def test_orbit_minima_in_fields_of_fewer_than_8_elements(m):
    # the membership bitmap is a single, partly used byte
    ctx = default_ctx(m)
    field = ctx.elements()
    for arr in [field, field[:1], field[1:2], phi_set(1, ctx).elements]:
        assert orbit_minima(arr, ctx).tolist() == [orbit_min(b, ctx) for b in arr.tolist()]
    if m == 2:  # GF(4): 2 and 3 = 2^2 form one orbit
        for arr, escapes in (([2], "0x3"), ([3], "0x2"), ([0, 1, 3], "0x2")):
            with pytest.raises(NotFrobeniusClosed, match=escapes):
                orbit_minima(np.array(arr, dtype=np.uint32), ctx)


def test_orbit_minima_escape_in_a_later_batch(monkeypatch):
    # with BLOCK = 2 a decoded block is one byte, 8 field values: GF(8) is
    # one block, and in GF(16) the orbit 9 -> 13 -> 14 -> 11 is in the second
    monkeypatch.setattr(poly_roots, "BLOCK", 2)
    assert orbit_minima(np.array([1, 2, 3, 4, 5, 6, 7], dtype=np.uint32), GF8).tolist() \
        == [1, 2, 3, 2, 3, 2, 3]
    with pytest.raises(NotFrobeniusClosed, match="0x3"):
        orbit_minima(np.array([1, 2, 4, 6, 7], dtype=np.uint32), GF8)
    assert orbit_minima(np.array([1, 9, 11, 13, 14], dtype=np.uint32), GF16).tolist() \
        == [1, 9, 9, 9, 9]
    with pytest.raises(NotFrobeniusClosed, match="square 0xB escapes"):
        orbit_minima(np.array([1, 9, 13, 14], dtype=np.uint32), GF16)


def test_phi_set_bitmap_is_the_packed_definition(monkeypatch):
    # phi_set's bitmap is the packed mask of the per-beta root count; with
    # blocks of 16 the rootless scatter runs in slices and marks the same betas
    want = {(m, k): beta_set(default_ctx(m), k, sorted(phi_by_definition(k, default_ctx(m)))).bitmap
            for m in range(1, 11) for k in coprime_residues(m)}
    for block in (poly_roots.BLOCK, 16):
        monkeypatch.setattr(poly_roots, "BLOCK", block)
        for (m, k), bitmap in want.items():
            phi = phi_set(k, default_ctx(m))
            assert np.array_equal(phi.bitmap, bitmap), (block, m, k)
            assert len(phi) == capital_m(m)


@pytest.mark.parametrize("m", [4, 6, 8, 9, 10])
def test_orbit_filter_across_block_edges(m, monkeypatch):
    # blocks of 16 elements: orbits spread over several blocks, a
    # representative found in each block, and a last, partial block
    monkeypatch.setattr(poly_roots, "BLOCK", 16)
    ctx = default_ctx(m)
    for arr in [phi_set(k, ctx).elements for k in coprime_residues(m)] + [ctx.elements()]:
        dec = frobenius_orbits(beta_set(ctx, 1, arr))
        reps = sorted({orbit_min(b, ctx) for b in arr.tolist()})
        assert dec.representatives.tolist() == reps
        assert dec.lengths.tolist() == [orbit_length(r, ctx) for r in reps]
        assert dec.orbit_of.tolist() == [reps.index(orbit_min(b, ctx)) for b in arr.tolist()]


@st.composite
def closed_sets(draw):
    """(ctx, sorted uint32 array): a random union of Frobenius orbits at
    m = 1..12, with 0, 1 and an element of a subfield GF(2^d), d < m
    dividing m (d = 1 at m = 1), each drawn in or out."""
    m = draw(st.integers(min_value=1, max_value=12))
    ctx = default_ctx(m)
    field = ctx.elements()
    d = draw(st.sampled_from([d for d in range(1, m) if m % d == 0] or [1]))
    subfield = field[ctx.pow2k_vec(field, d) == field]
    seeds = draw(st.lists(st.integers(min_value=0, max_value=ctx.order - 1), max_size=40))
    extra = (0, 1, int(draw(st.sampled_from(subfield.tolist()))))
    seeds += [b for b in extra if draw(st.booleans())]
    members = {c for b in seeds for c in frobenius_orbit(b, ctx)}
    return ctx, np.array(sorted(members), dtype=np.uint32)


@settings(max_examples=300, deadline=None)
@given(closed_sets())
def test_frobenius_orbits_match_scalar_walk_on_closed_sets(case):
    ctx, arr = case
    minimum = {b: min(frobenius_orbit(b, ctx)) for b in arr.tolist()}
    reps = sorted(set(minimum.values()))
    dec = frobenius_orbits(beta_set(ctx, 1, arr))
    assert dec.representatives.tolist() == reps
    assert dec.lengths.tolist() == [len(frobenius_orbit(r, ctx)) for r in reps]
    assert dec.orbit_of.dtype == np.int32
    assert dec.orbit_of.tolist() == [reps.index(minimum[b]) for b in arr.tolist()]
    assert dec.total == arr.size


@settings(max_examples=200, deadline=None)
@given(closed_sets(), st.data())
def test_dropping_a_conjugate_names_its_square(case, data):
    # the one member whose square is the dropped conjugate c escapes, so the
    # message names c, as the construction's closure check always has
    ctx, arr = case
    moving = [b for b in arr.tolist() if len(frobenius_orbit(b, ctx)) > 1]
    assume(moving)
    c = data.draw(st.sampled_from(moving))
    broken = beta_set(ctx, 1, arr[arr != c])
    for read in (lambda: frobenius_orbits(broken), lambda: frobenius_orbits(broken).orbit_of):
        with pytest.raises(NotFrobeniusClosed, match=f"square 0x{c:X} escapes the set"):
            read()


def test_orbit_of_is_walked_once_on_first_read(monkeypatch):
    dec = frobenius_orbits(phi_set(1, default_ctx(9)))
    walks = []
    orig = poly_roots._orbit_ids
    monkeypatch.setattr(poly_roots, "_orbit_ids", lambda *a: walks.append(1) or orig(*a))
    assert dec.orbit_of is dec.orbit_of and walks == [1]


# SHA-256 of the bytes of phi_set(k, default_ctx(m)).elements and of the
# representatives, lengths and orbit_of arrays of its frobenius_orbits;
# m > 22 runs the batched path at its real batch size.
PHI_DIGESTS = {
    (20, 1): ("d84219a3db983c1fde6018a4741bf47d6d166e1e5cfa4e2165bf84d01ff796b8",
              "dc36dc8bd5204cf94151e861d4a285e90bff317159ecf19abddf5b5397d748ff",
              "032e1ad0eacfa3163e4f592e2ebcfaa8878ba889a4317eab2401694e707ba9b7",
              "76cbdf17d61f2f23b6a7ea42de6d888ee442a8549d20ebb97906bbce2a6e6d55"),
    (22, 21): ("ec48b0f7b68b105e544da32aee6c2f4f0d663922abbc60a5d9a41cb64d32bf71",
               "9d5b34940e49086a3f0d90ca95c6aced1153509a6d2d4ee49669d1190587f412",
               "1987bf79d926d77382c63c7290dca9bf39804a84ac2614e82c7bb24d76197921",
               "615a60a089bc5c87282a0c9a5de3e5d7a2358b880ff04fa00da1ca4b8683ce46"),
    (23, 6): ("f064ee682bf9d88098a5745b7ada451aa250402a9a90ae4602327caf5dd9d9cd",
              "fe0a94ce9b433ee0ec77ae8fe1d394d4bfa37c4c5ac7efa547b65ccd0b6e0b4f",
              "049f390713775505b1cd11cf6ba620c08602a6aa3e3b122daace23547f1388f2",
              "a92006bc1b3ad8614c4be671ad83fbc88cb1c9af650ac98075605d7b9f36e704"),
    (24, 5): ("f9df19ffd3ea8906a4c9cf01050243c9d7f55e5181d506f4f8580eb6c5a88eba",
              "6a263b386c2d170a3b470726514616ee37a2866c7a795e30ddfc3f53546f8d0b",
              "f7326b5233297156e6c0e49679cf515dbaa57db631237f91cb0d54f690a58927",
              "c6898d439ac7bbddb8fe4e1de25c53886fd5a95210fc225bbcfd2434e797e63f"),
    (25, 2): ("d57ff9597574ef6159483102b3606454e86c4231c6bfbd9ccfd7889618a2ab47",
              "f6ca5fa3d0350c789de860e3c8ad65003f81e3b04b98fb0e8cf431a8d3c37568",
              "31a857b18ea348593b0b9a7f1d2ecf36fa4844f1023be9918b3cee38228270f7",
              "62ba93c033476bae705b6ebc19fbb5a453e8f81d315fdb5a5cdd5833bb8ddd41"),
}


@pytest.mark.parametrize("m, k", sorted(PHI_DIGESTS))
def test_phi_and_orbit_digests(m, k):
    phi = phi_set(k, default_ctx(m))
    dec = frobenius_orbits(phi)
    arrays = (phi.elements, dec.representatives, dec.lengths, dec.orbit_of)
    assert [a.dtype.str for a in arrays] == ["<u4", "<u4", "<u4", "<i4"]
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == PHI_DIGESTS[m, k]


@pytest.mark.slow
@pytest.mark.parametrize("m, k", [(23, 1), (24, 5)])
def test_phi_membership_against_root_count_sampled(m, k):
    # the quadratic doubling against the literal root scan, on 100 betas
    # in Phi and 100 outside it
    ctx = default_ctx(m)
    rng = np.random.default_rng(m)
    phi = phi_set(k, ctx)
    rootless = np.zeros(ctx.order, dtype=bool)
    rootless[phi.elements] = True
    inside = rng.choice(phi.elements, size=100, replace=False)
    outside = rng.choice(np.flatnonzero(~rootless), size=100, replace=False)
    assert all(count_roots(k, 1, int(b), ctx) == 0 for b in inside)
    assert all(count_roots(k, 1, int(b), ctx) > 0 for b in outside)


# ---------------------------------------------------------------------------
# the rank test of rootlessness, against Phi and the root scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 13))
def test_rootless_is_phi_membership(m):
    # every beta, every coprime k; modulus 0x49 checks a non-default field
    for ctx in (default_ctx(m), FieldCtx(6, 0x49)) if m == 6 else (default_ctx(m),):
        for k in coprime_residues(m):
            mask = rootless(k, ctx.elements(), ctx)
            assert np.array_equal(np.flatnonzero(mask), phi_set(k, ctx).elements), (m, k)


@pytest.mark.parametrize("m", range(13, 17))
def test_rootless_against_root_count_sampled(m):
    # 0, 1 and 30 random betas per coprime k, against the literal root scan
    ctx = default_ctx(m)
    rng = np.random.default_rng(100 + m)
    betas = np.concatenate([[0, 1], rng.integers(2, ctx.order, size=30)]).astype(np.uint32)
    for k in coprime_residues(m):
        got = rootless(k, betas, ctx).tolist()
        assert got == [count_roots(k, 1, int(b), ctx) == 0 for b in betas.tolist()], (m, k)


def test_rootless_batches_match_one_batch(monkeypatch):
    # BLOCK = 64 at m = 9: batches of 7 betas, the last one short
    ctx = default_ctx(9)
    betas = np.random.default_rng(9).permutation(ctx.order).astype(np.uint32)[:200]
    whole = rootless(2, betas, ctx)
    monkeypatch.setattr(poly_roots, "BLOCK", 64)
    assert np.array_equal(rootless(2, betas, ctx), whole)
    assert rootless(2, betas[:0], ctx).shape == (0,)


def test_rootless_at_m_32_rejects_k_not_coprime():
    ctx = default_ctx(32)
    assert rootless(1, np.array([0, 1], dtype=np.uint32), ctx).tolist() == [False, True]
    with pytest.raises(InvalidK):
        rootless(2, np.array([1], dtype=np.uint32), ctx)


def _count_orbit_minima_squarings(monkeypatch):
    ctx = FieldCtx(12)
    calls = []
    for name in ("mul_vec", "square_vec", "pow2k_vec", "pow_vec", "xtime_vec"):
        orig = getattr(ctx, name)
        monkeypatch.setattr(ctx, name, lambda a, *r, name=name, orig=orig:
                            calls.append((name, np.size(a))) or orig(a, *r))
    orbit_minima(phi_set(5, default_ctx(12)).elements, ctx)
    assert {name for name, _ in calls} == {"square_vec"}
    return sum(size for _, size in calls)


def test_orbit_minima_squares_a_pinned_count(monkeypatch):
    # |Phi| = 1,365 in 116 orbits: the minimum filter squares 4,458
    # elements (3.27 |Phi|), the walk of their orbits 1,365 - 116 more
    assert _count_orbit_minima_squarings(monkeypatch) == 5707


def test_orbit_minima_squares_the_same_count_in_small_blocks(monkeypatch):
    # the filter decides each element on its own, so blocks change nothing
    monkeypatch.setattr(poly_roots, "BLOCK", 16)
    assert _count_orbit_minima_squarings(monkeypatch) == 5707


def test_transform_beta():
    for b in range(8):
        assert transform_beta(1, 1, b, GF8) == b
    for a in range(1, 8):
        assert transform_beta(1, a, a, GF8) == GF8.pow(a, 3)   # a^(1-5) = a^3
    with pytest.raises(ZeroAlpha):
        transform_beta(1, 0, 1, GF8)


def test_transform_beta_preserves_rootlessness():
    for alpha in range(1, 16):
        for beta in range(16):
            lhs = count_roots(1, alpha, beta, GF16) == 0
            rhs = count_roots(1, 1, transform_beta(1, alpha, beta, GF16), GF16) == 0
            assert lhs == rhs


def embed_subfield(sub, sup):
    """Test-local embedding GF(2^r) -> GF(2^m) as a lookup table of size 2^r.

    Sends sub's generator g to a root h in sup of g's minimal polynomial
    over GF(2), then g^e -> h^e; checked to be a field homomorphism.
    """
    g = sub.generator
    coeffs = [1]                       # prod over conjugates c of (X + c)
    conj = g
    while True:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] ^= c
            nxt[i] ^= sub.mul(conj, c)
        coeffs, conj = nxt, sub.mul(conj, conj)
        if conj == g:
            break
    assert set(coeffs) <= {0, 1}
    x = sup.elements()
    acc = np.full(sup.order, coeffs[-1], dtype=np.uint32)
    for c in reversed(coeffs[:-1]):
        acc = sup.mul_vec(acc, x) ^ np.uint32(c)
    h = int(np.nonzero(acc == 0)[0][0])
    emb = [0] * sub.order
    a, b = 1, 1
    for _ in range(sub.order - 1):
        emb[a] = b
        a, b = sub.mul(a, g), sup.mul(b, h)
    for a in range(sub.order):
        for b in range(sub.order):
            assert emb[a ^ b] == emb[a] ^ emb[b]
            assert emb[sub.mul(a, b)] == sup.mul(emb[a], emb[b])
    return emb


# (r, p) pairs from the subfield-embedding contract; m = r*p
EMBED_CASES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (5, 2)]


@pytest.mark.parametrize("r,p", EMBED_CASES)
def test_subfield_root_transfer(r, p):
    # p != 3: rootless betas stay rootless upstairs; p = 3: all gain roots
    m = r * p
    sub, sup = default_ctx(r), default_ctx(m)
    k = 1
    emb = embed_subfield(sub, sup)
    phi_up = phi_set(k, sup)
    for beta in phi_set(k, sub):
        lifted = emb[beta]
        if p == 3:
            assert lifted not in phi_up
            assert count_roots(k, 1, lifted, sup) == 3
        else:
            assert lifted in phi_up


def test_beta_set_serialization():
    phi = phi_set(1, GF16)
    data = phi.to_json()
    assert data == {"m": 4, "k": 1, "elements": ["0x1", "0x9", "0xB", "0xD", "0xE"]}
    assert 9 in phi and 2 not in phi
    assert len(phi) == 5


def test_orbit_serialization():
    dec = frobenius_orbits(phi_set(1, GF16))
    data = dec.to_json()
    assert data["total"] == 5
    assert data["orbits"][0] == {"representative": "0x1", "length": 1}


def test_json_round_trips():
    phi = phi_set(1, GF16)
    assert json.loads(json.dumps(phi.to_json())) == {
        "m": 4, "k": 1, "elements": [f"0x{b:X}" for b in phi]}
    dec = frobenius_orbits(phi)
    assert json.loads(json.dumps(dec.to_json())) == {
        "total": len(phi),
        "orbits": [{"representative": f"0x{r:X}", "length": n}
                   for r, n in zip(dec.representatives.tolist(), dec.lengths.tolist())]}
