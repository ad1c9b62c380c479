"""Equivalence classification of the bivariate family f_{k,alpha,beta}.

Canonical form.  Every APN member with alpha != 0 is linearly equivalent
to one with alpha = 1 (scale y by alpha^(-2^(-k)), sending beta to
beta' = beta / alpha^(2^(-k)+1)), with beta' movable along its Frobenius
orbit and k replaceable by m - k.  For m >= 3 two members are
CCZ-equivalent exactly when their canonical triples

    ( k* = min(k, m-k),  alpha* in {0, 1},  beta* = orbit minimum )

coincide; all alpha = 0 members with the same k* form a single class,
marked (k*, 0, 0).  Each member is walked to that form once (_canonical):
the walk gives its triple, the elementary witnesses that lead there and
the length of beta*'s Frobenius orbit, which the equivalence decision,
the witness chain and the automorphism order all read.

The classification functions take members (families.TaniguchiParams)
and no separate context: a member holds the field its alpha and beta are
read in.  Two operands must share one field (DegreeMismatch otherwise),
and the members a witness leads to are built in the source's field.  An
APN check reads the member's own verdict, and the walk its normalized
beta, so each is decided once however many of these functions a member
passes through.

Witnesses.  Equivalences are produced constructively as (L, N, M) with
f(L(x, y)) = N(g(x, y)) + M(x, y), composed from the elementary maps
(alpha-normalization, Frobenius twist, k-negation, and the alpha = 0
bridge to the pott-zhou family).  Each of those has M = 0 and L, N with
two monomial blocks c X^(2^d), on the diagonal or swapped, a shape that
composition and inversion keep: (c1, d1) o (c2, d2) = (c1 c2^(2^d1),
d1 + d2) and (c, d)^-1 = ((c^-1)^(2^(m-d)), m - d).  The chain is the
canonical walk's steps, f_p1 <- canonical <- f_p2 for a pair, composed
as scalar blocks with its PairMaps built once at the end; compose_witness
and invert_witness, on dense PairMaps, are its oracle in the tests.  A
witness is only ever trusted after verify_witness checks the bijectivity
of L and N and the identity on the points of Hamming weight <= 2.  That is exact for quadratic f and g:
h = f o L + N o g + M then has algebraic degree <= 2, and its ANF
coefficient at a monomial of weight <= 2 is the XOR of h over the points
below it, so h vanishing on those 1 + n + n(n-1)/2 points (n = 2m) makes
every coefficient, and so h, zero.  verify_witness reads "quadratic"
from each operand's is_quadratic, which families owns, and refuses an
operand of higher degree.

Automorphism orders.  For m >= 4,

    |Aut_EL| = 3m(2^m-1)            alpha = 0, m = 4
             = (3/2)m(2^m-1)        alpha = 0, m >= 5
             = m(2^m-1)/d           alpha != 0, d = orbit length of beta'

and |Aut| = |Aut_EA| = 2^(2m) |Aut_EL| (the translation part contributes
a factor 2^(2m)).  m = 2 and m = 3 have the single classes with
|Aut| = 5760 and 896 respectively (known orders).  The monomial
enumerator rebuilds |Aut_EL| from scratch for alpha = 1 by trying every
self-witness of the shape L_A = a X^(2^u), L_B = a^(2^(2k)) Y^(2^u),
checked on the same weight <= 2 points.  All m(2^m - 1) candidates
(u, a) go through one batched pass: a sieve on the 1 + 2m points of
weight <= 1, then its survivors on the points of weight 2.  The
Frobenius power 2^u acts on each half of a point (x and y of p and of
f(p)) on its own, never on the packed value.  A batch makes at most
(2^m - 1)(1 + n + n(n-1)/2)/2 point checks, which bounds the memory when
most candidates survive the sieve (beta = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import (
    DegreeMismatch,
    InvalidParams,
    NotApn,
    TooLarge,
)
from .families import BivariateFunction, PottZhouParams, TaniguchiParams
from .gf2m import FieldCtx
from .linmaps import (
    Monomial,
    PairMap,
    gf2_apply_vec,
    gf2_rank,
    low_weight_points,
    low_weight_values,
    pack,
    unpack,
)
from .poly_roots import (
    frobenius_orbit,
    transform_beta,
)

_VERIFY_BITS_LIMIT = 32   # 2m; packed points and values are uint32
_MONOMIAL_DEGREE_LIMIT = 11


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalTriple:
    """Equality of triples decides CCZ-equivalence (m >= 3)."""

    k_star: int
    alpha_star: int   # 0 or 1
    beta_star: int    # orbit minimum of beta'; marker 0 when alpha_star = 0

    def to_json(self) -> dict:
        return {
            "k_star": self.k_star,
            "alpha_star": self.alpha_star,
            "beta_star": f"0x{self.beta_star:X}",
        }


@dataclass(frozen=True)
class LinearWitness:
    """(L, N, M) with f(L(x,y)) = N(g(x,y)) + M(x,y).

    Each map is a PairMap held as basis images.  The JSON form writes
    its linearized-polynomial blocks (xx, xy, yx, yy) from PairMap.blocks:
    L = (L_A; L_B) and M = (M_A; M_B) by output coordinate, with
    L_A(x, y) = xx(x) + xy(y) and L_B(x, y) = yx(x) + yy(y), and
    N = (N1, N3; N2, N4) with N1 = xx, N2 = yx, N3 = xy, N4 = yy.
    """

    l_map: PairMap
    n_map: PairMap
    m_map: PairMap

    def to_json(self, ctx: FieldCtx) -> dict:
        (lxx, lxy, lyx, lyy), (nxx, nxy, nyx, nyy), (mxx, mxy, myx, myy) = (
            [[f"0x{c:X}" for c in block] for block in pm.blocks(ctx)]
            for pm in (self.l_map, self.n_map, self.m_map))
        return {
            "l_a": {"x": lxx, "y": lxy},
            "l_b": {"x": lyx, "y": lyy},
            "n1": nxx, "n2": nyx, "n3": nxy, "n4": nyy,
            "m_a": {"x": mxx, "y": mxy},
            "m_b": {"x": myx, "y": myy},
        }


@dataclass(frozen=True)
class AutWitness:
    """Monomial EL-automorphism: L_A = a_u X^(2^u), L_B = b_bar_u Y^(2^u),
    N1 = c_u X^(2^u), with b_bar_u = a_u^(2^(2k)) and c_u = b_bar_u^(2^k+1)."""

    u: int
    a_u: int
    b_bar_u: int
    c_u: int


class AutOrders(NamedTuple):
    aut_el: int
    aut_ea: int
    aut: int


# ---------------------------------------------------------------------------
# Canonicalization and the equivalence decision
# ---------------------------------------------------------------------------

def _require_apn(p: TaniguchiParams) -> None:
    if not p.is_apn_criterion():
        raise NotApn(f"f_(k={p.k}, alpha=0x{p.alpha:X}, beta=0x{p.beta:X}) is not APN")


def canonicalize(p: TaniguchiParams) -> CanonicalTriple:
    """Canonical triple of an APN member; defined for m >= 3."""
    return _canonical(p).triple


def _same_field(p1: TaniguchiParams, p2: TaniguchiParams) -> FieldCtx:
    if p1.ctx != p2.ctx:
        raise DegreeMismatch(f"m={p1.m} vs m={p2.m}" if p1.m != p2.m else
                             f"modulus 0x{p1.ctx.modulus:X} vs 0x{p2.ctx.modulus:X}")
    return p1.ctx


def are_ccz_equivalent(p1: TaniguchiParams, p2: TaniguchiParams) -> bool:
    _same_field(p1, p2)
    return canonicalize(p1) == canonicalize(p2)


# ---------------------------------------------------------------------------
# Elementary witnesses (each verified by tests, never assumed)
# ---------------------------------------------------------------------------

def identity_witness(m: int) -> LinearWitness:
    return LinearWitness(PairMap.identity(m), PairMap.identity(m), PairMap.zero(m))


def compose_witness(w1: LinearWitness, w2: LinearWitness) -> LinearWitness:
    """(f <- g) composed with (g <- h) gives f <- h."""
    return LinearWitness(
        l_map=w1.l_map.compose(w2.l_map),
        n_map=w1.n_map.compose(w2.n_map),
        m_map=w1.n_map.compose(w2.m_map).add(w1.m_map.compose(w2.l_map)),
    )


def invert_witness(w: LinearWitness) -> LinearWitness:
    """(f <- g) inverted to (g <- f): g(L^-1) = N^-1(f) + N^-1(M(L^-1))."""
    l_inv = w.l_map.inverse()
    n_inv = w.n_map.inverse()
    m_new = n_inv.compose(w.m_map.compose(l_inv))
    return LinearWitness(l_map=l_inv, n_map=n_inv, m_map=m_new)


class _Blocks(NamedTuple):
    """A pair map with two nonzero monomial blocks c X^(2^d):
    (x, y) -> (a(x), b(y)), or (a(y), b(x)) when swapped."""

    swapped: bool
    a: Monomial
    b: Monomial


_IDENTITY_BLOCKS = _Blocks(False, (1, 0), (1, 0))


def _monomial_compose(ctx: FieldCtx, p: Monomial, q: Monomial) -> Monomial:
    """p o q: c1 (c2 X^(2^d2))^(2^d1) = c1 c2^(2^d1) X^(2^(d1 + d2))."""
    (c1, d1), (c2, d2) = p, q
    return ctx.mul(c1, ctx.pow2k(c2, d1)), (d1 + d2) % ctx.m


def _monomial_inverse(ctx: FieldCtx, p: Monomial) -> Monomial:
    """y = c x^(2^d) solved for x: x = (c^-1)^(2^(m-d)) y^(2^(m-d))."""
    c, d = p
    return ctx.pow2k(ctx.inverse(c), -d), -d % ctx.m


class _Chain(NamedTuple):
    """A witness (L, N, 0) whose L and N are _Blocks.

    The elementary witnesses have this shape, and composing and inverting
    keeps it (M stays 0), so the chain of canonical_witness and
    equivalence_witness is a few scalar products; witness() builds its
    PairMaps once.  compose_witness and invert_witness are its dense oracle.
    """

    ctx: FieldCtx
    l_map: _Blocks
    n_map: _Blocks

    def compose(self, other: "_Chain") -> "_Chain":
        """self o other, as compose_witness."""
        def blocks(p: _Blocks, q: _Blocks) -> _Blocks:
            qa, qb = (q.b, q.a) if p.swapped else (q.a, q.b)
            return _Blocks(p.swapped != q.swapped, _monomial_compose(self.ctx, p.a, qa),
                           _monomial_compose(self.ctx, p.b, qb))
        return _Chain(self.ctx, blocks(self.l_map, other.l_map), blocks(self.n_map, other.n_map))

    def inverse(self) -> "_Chain":
        """As invert_witness; a swapped map's inverse swaps its two blocks."""
        def blocks(p: _Blocks) -> _Blocks:
            a, b = _monomial_inverse(self.ctx, p.a), _monomial_inverse(self.ctx, p.b)
            return _Blocks(True, b, a) if p.swapped else _Blocks(False, a, b)
        return _Chain(self.ctx, blocks(self.l_map), blocks(self.n_map))

    def witness(self) -> LinearWitness:
        def pair_map(p: _Blocks) -> PairMap:
            if p.swapped:
                return PairMap.monomial(self.ctx, xy=p.a, yx=p.b)
            return PairMap.monomial(self.ctx, xx=p.a, yy=p.b)
        return LinearWitness(pair_map(self.l_map), pair_map(self.n_map), PairMap.zero(self.ctx.m))


def _w_alpha(k: int, alpha: int, ctx: FieldCtx) -> _Chain:
    """f_{k,alpha,beta} <- f_{k,1,beta/alpha^(2^(-k)+1)}: scale y by 1/alpha^(2^-k)."""
    scale_y = _Blocks(False, (1, 0), (ctx.inverse(ctx.pow2k(alpha, ctx.m - k)), 0))
    return _Chain(ctx, scale_y, scale_y)


def _w_frob(i: int, ctx: FieldCtx) -> _Chain:
    """f_{k,alpha,beta^(2^i)} <- f_{k,alpha,beta}: raise everything to 2^i."""
    twist = _Blocks(False, (1, i), (1, i))
    return _Chain(ctx, twist, twist)


def _w_swap(d: int, beta: int, ctx: FieldCtx) -> _Chain:
    """Swap x and y, twist by 2^d, scale the first output by beta.

    With d = 3k* mod m this is f_{m-k*,1,beta} <- f_{k*,1/beta,1/beta};
    with d = 0 it is the bridge f_{k,0,beta} <- g_{k,2k,1/beta}.
    """
    return _Chain(ctx, _Blocks(True, (1, d), (1, d)), _Blocks(False, (beta, 0), (1, d)))


# ---------------------------------------------------------------------------
# The canonical walk
# ---------------------------------------------------------------------------

class _Walk(NamedTuple):
    """A member's walk to its canonical form."""

    triple: CanonicalTriple
    steps: list[_Chain]   # f_p <- f_canonical in composition order; none for alpha = 0
    orbit_length: int     # of beta*; 0 for alpha = 0


def _canonical(p: TaniguchiParams) -> _Walk:
    """The one walk of an APN member (m >= 3) to its canonical form.

    alpha -> 1, then k -> m-k when k > m/2 (via the 3k-Frobenius swap,
    which reintroduces an alpha to normalize), then a Frobenius twist down
    to the orbit minimum beta*.  An alpha = 0 member stays where it is.
    """
    if p.m < 3:
        raise InvalidParams("canonical form is defined for m >= 3")
    _require_apn(p)
    ctx, m, k = p.ctx, p.m, p.k
    if p.alpha == 0:
        return _Walk(CanonicalTriple(min(k, m - k), 0, 0), [], 0)
    steps = [] if p.alpha == 1 else [_w_alpha(k, p.alpha, ctx)]
    beta = p.normalized_beta
    if k > m // 2:
        k = m - k
        steps.append(_w_swap(3 * k % m, beta, ctx))
        inv_b = ctx.inverse(beta)
        # now at f_{k*, 1/beta, 1/beta}; normalize its alpha away
        steps.append(_w_alpha(k, inv_b, ctx))
        beta = transform_beta(k, inv_b, inv_b, ctx)
    orbit = frobenius_orbit(beta, ctx)
    beta_star = min(orbit)
    i = -orbit.index(beta_star) % len(orbit)  # beta = beta_star^(2^i)
    if i:
        steps.append(_w_frob(i, ctx))
    return _Walk(CanonicalTriple(k, 1, beta_star), steps, len(orbit))


def _chain(ctx: FieldCtx, steps: list[_Chain]) -> _Chain:
    """The steps composed, as one chain."""
    return reduce(_Chain.compose, steps, _Chain(ctx, _IDENTITY_BLOCKS, _IDENTITY_BLOCKS))


def canonical_witness(p: TaniguchiParams) -> tuple[LinearWitness, TaniguchiParams]:
    """Composed witness f_p <- f_canonical for alpha != 0 members.

    The steps of the member's canonical walk (_canonical), composed as
    monomial blocks (_Chain) with the maps built once.  The canonical
    target lives in p's field.
    """
    if p.alpha == 0:
        raise InvalidParams("constructive canonicalization needs alpha != 0")
    triple, steps, _ = _canonical(p)
    target = TaniguchiParams(m=p.m, k=triple.k_star, alpha=1, beta=triple.beta_star, ctx=p.ctx)
    return _chain(p.ctx, steps).witness(), target


def equivalence_witness(p1: TaniguchiParams, p2: TaniguchiParams) -> LinearWitness | None:
    """Witness with f_{p1}(L(x,y)) = N(f_{p2}(x,y)) + M(x,y), or None.

    None means no constructive path: the members are inequivalent, or
    both have alpha = 0 with betas in different Frobenius orbits (their
    equivalence routes through pott-zhou maps not restated here).
    """
    ctx = _same_field(p1, p2)
    (t1, s1, _), (t2, s2, _) = _canonical(p1), _canonical(p2)
    if t1 != t2:
        return None
    if p1.alpha == 0:
        if p1.k != p2.k:
            return None
        orbit = frobenius_orbit(p2.beta, ctx)
        if p1.beta not in orbit:
            return None  # same class but different orbit: no direct map here
        # p1.beta = p2.beta^(2^i) at index i of p2.beta's orbit
        return _w_frob(orbit.index(p1.beta), ctx).witness()
    return _chain(ctx, s1).compose(_chain(ctx, s2).inverse()).witness()


def pott_zhou_bridge_witness(p: TaniguchiParams) -> tuple[LinearWitness, PottZhouParams]:
    """Witness f_{k,0,beta} <- g_{k,2k,1/beta} (even m, non-cube beta, k < m/2),
    with g in p's field."""
    if p.alpha != 0:
        raise InvalidParams("bridge witness is for alpha = 0 members")
    if not 0 < p.k < p.m / 2:
        raise InvalidParams("bridge witness needs 0 < k < m/2")
    _require_apn(p)
    pz = PottZhouParams(m=p.m, k=p.k, s=2 * p.k, alpha=p.ctx.inverse(p.beta), ctx=p.ctx)
    return _w_swap(0, p.beta, p.ctx).witness(), pz


# ---------------------------------------------------------------------------
# Witness verification
# ---------------------------------------------------------------------------

def verify_witness(w: LinearWitness, f: BivariateFunction, g: BivariateFunction) -> bool:
    """Check f(L(x,y)) = N(g(x,y)) + M(x,y) plus bijectivity of L and N.

    The identity is compared on the points of Hamming weight <= 2, which
    decides it everywhere because f and g are quadratic (module
    docstring); an operand whose is_quadratic (families) is False raises
    InvalidParams.
    """
    if f.ctx != g.ctx:
        raise DegreeMismatch("witness operands live over different contexts")
    ctx = f.ctx
    n = 2 * ctx.m
    if n > _VERIFY_BITS_LIMIT:
        raise TooLarge(f"witness verification capped at 2m={_VERIFY_BITS_LIMIT}")
    if not (f.is_quadratic and g.is_quadratic):
        raise InvalidParams("witness check needs operands of algebraic degree <= 2")
    if gf2_rank(w.l_map.images()) != n or gf2_rank(w.n_map.images()) != n:
        return False
    points = low_weight_points(n)
    lhs = f.eval_packed_vec(low_weight_values(w.l_map.images()))
    rhs = gf2_apply_vec(w.n_map.images(), g.eval_packed_vec(points))
    return bool(np.array_equal(lhs, rhs ^ low_weight_values(w.m_map.images())))


# ---------------------------------------------------------------------------
# Automorphism groups
# ---------------------------------------------------------------------------

_KNOWN_AUT_ORDERS = {2: 5760, 3: 896}  # |Aut| of the single class at m = 2, 3


def aut_orders(p: TaniguchiParams) -> AutOrders:
    """(|Aut_EL|, |Aut_EA|, |Aut|) of an APN member.

    m in {2, 3} returns the known single-class orders (5760, 896 for |Aut|),
    with |Aut_EL| = |Aut| / 2^(2m) from the translation factorization.
    """
    _require_apn(p)
    ctx, m = p.ctx, p.m
    if m in _KNOWN_AUT_ORDERS:
        aut = _KNOWN_AUT_ORDERS[m]
        return AutOrders(aut >> (2 * m), aut, aut)
    if p.alpha == 0:
        if m == 4:
            el = 3 * m * (ctx.order - 1)
        else:
            el = 3 * m * (ctx.order - 1) // 2
    else:
        el = m * (ctx.order - 1) // _canonical(p).orbit_length
    aut = el << (2 * m)
    return AutOrders(el, aut, aut)


def pott_zhou_aut_order(m: int, s: int) -> int:
    """|Aut(g_{k,s,alpha})|: comparison constant for the inequivalence check."""
    base = 3 * m * ((1 << m) - 1)
    if s % m in (0, m // 2):
        return base << (2 * m)
    return base << (2 * m - 1)


def _aut_batch_elements(m: int) -> int:
    """Point checks per batch of the monomial exhaustion: (2^m - 1) times
    the points of weight <= 2, halved.  A batch gathers each candidate's
    row of Frobenius images, one array more than checking every a_u of a
    single u against one broadcast row; at half that check's size a
    batch's peak stays below it."""
    return ((1 << m) - 1) * low_weight_points(2 * m).size // 2


def _monomial_search(p: TaniguchiParams) -> tuple[np.ndarray, ...]:
    """The self-witnesses of monomial_el_automorphisms as the arrays
    (u, a_u, b_bar_u, c_u), in (u, a_u) order."""
    if p.alpha != 1:
        raise InvalidParams("monomial enumeration is stated for alpha = 1")
    if p.m > _MONOMIAL_DEGREE_LIMIT:
        raise TooLarge(f"monomial enumeration capped at m={_MONOMIAL_DEGREE_LIMIT}")
    _require_apn(p)
    ctx, m, n1 = p.ctx, p.m, p.ctx.order - 1
    points = low_weight_points(2 * m)
    f_points = p.eval_packed_vec(points)
    a_u = np.arange(1, ctx.order, dtype=np.uint32)
    b_bar = ctx.pow2k_vec(a_u, 2 * p.k)
    c_u = ctx.mul_vec(ctx.pow2k_vec(b_bar, p.k), b_bar)  # b_bar^(2^k + 1)
    # coeffs[h] multiplies half h of a point p = (x, y) with f(p) = (f1, f2):
    # L(p) = (a_u x^(2^u), b_bar y^(2^u)), N(f(p)) = (c_u f1^(2^u), n4 f2^(2^u));
    # frob[u, h] is half h of every point raised to 2^u, each half on its own
    coeffs = np.stack([a_u, b_bar, c_u, ctx.mul_vec(a_u, b_bar)])
    halves = np.stack([*unpack(points, m), *unpack(f_points, m)])
    frob = np.stack([ctx.pow2k_vec(halves, u) for u in range(m)])
    cand = np.arange(m * n1)  # candidate u * (2^m - 1) + a_u - 1
    # the sieve on the weight <= 1 points, then its survivors on the rest
    for lo, hi in ((0, 1 + 2 * m), (1 + 2 * m, points.size)):
        step = max(1, _aut_batch_elements(m) // (hi - lo))
        keep = np.empty(cand.size, dtype=bool)
        for start in range(0, cand.size, step):
            u, i = np.divmod(cand[start:start + step], n1)
            lx, ly, nx, ny = (ctx.mul_vec(coeffs[h].take(i)[:, None], frob[u, h, lo:hi])
                              for h in range(4))
            same = p.eval_packed_vec(pack(lx, ly, m)) == pack(nx, ny, m)
            keep[start:start + step] = same.all(axis=1)
        cand = cand[keep]
    u, i = np.divmod(cand, n1)
    return u, a_u.take(i), b_bar.take(i), c_u.take(i)


def monomial_el_automorphisms(p: TaniguchiParams) -> list[AutWitness]:
    """Every self-witness of the monomial shape, by exhaustion.

    Enumerates (u, a_u), derives b_bar_u = a_u^(2^(2k)), c_u = b_bar_u^(2^k+1),
    N4 = a_u b_bar_u X^(2^u), and keeps the tuples, in (u, a_u) order,
    whose witness (L, N, 0) is a self-witness of f.  L and N are
    bijective because a_u != 0 makes a_u, b_bar_u, c_u and a_u b_bar_u
    nonzero (a block c X^(2^u) is bijective iff c != 0).  The identity
    f(L(p)) = N(f(p)) is checked as in verify_witness, on the points of
    weight <= 2, for all m(2^m - 1) candidates in one batched pass: a
    sieve on the 1 + 2m points of weight <= 1, then its survivors on the
    points of weight 2.  A batch makes at most _aut_batch_elements(m)
    point checks, so memory stays bounded when every candidate passes
    the sieve (beta = 1).
    """
    return [AutWitness(*w) for w in zip(*(v.tolist() for v in _monomial_search(p)))]


def count_monomial_el_automorphisms(p: TaniguchiParams) -> int:
    """|Aut_EL| recomputed by the monomial exhaustion (alpha = 1, m <= 11)."""
    return _monomial_search(p)[0].size
