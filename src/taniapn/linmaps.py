"""Linearized-polynomial maps on GF(2^m)^2 and their GF(2) linear algebra.

A GF(2)-linear map GF(2^m) -> GF(2^m) is a linearized polynomial
sum c_i X^(2^i), stored as the length-m coefficient tuple (c_0..c_(m-1)).
A linear map on the pair space decomposes into four such blocks:

    P(x, y) = ( xx(x) + xy(y),  yx(x) + yy(y) )

Pairs pack as v = (bits(x) << m) | bits(y), matching the truth-table
layout, so a PairMap also acts on packed 2m-bit vectors.  Composition is
done symbolically ((sum a_i X^(2^i)) o (sum b_j X^(2^j)) collects
a_i b_j^(2^i) at exponent 2^(i+j mod m)); inversion goes through the
2m x 2m GF(2) matrix and comes back to coefficients by solving the Moore
system sum_i c_i e_j^(2^i) = phi(e_j) on the bit basis e_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .gf2m import FieldCtx

LinPoly = tuple[int, ...]


# ---------------------------------------------------------------------------
# Univariate linearized polynomials
# ---------------------------------------------------------------------------

def zero_lin(m: int) -> LinPoly:
    return (0,) * m

def mono_lin(m: int, coeff: int, deg: int) -> LinPoly:
    """coeff * X^(2^(deg mod m))."""
    out = [0] * m
    out[deg % m] = coeff
    return tuple(out)

def add_lin(p: LinPoly, q: LinPoly) -> LinPoly:
    return tuple(a ^ b for a, b in zip(p, q))

def eval_lin(p: LinPoly, x: int, ctx: FieldCtx) -> int:
    r = 0
    for i, c in enumerate(p):
        if c:
            r ^= ctx.mul(c, ctx.pow2k(x, i))
    return r

def compose_lin(p: LinPoly, q: LinPoly, ctx: FieldCtx) -> LinPoly:
    """(p o q)(X): coefficient p_i q_j^(2^i) lands at exponent 2^(i+j)."""
    m = ctx.m
    out = [0] * m
    for i, pi in enumerate(p):
        if not pi:
            continue
        for j, qj in enumerate(q):
            if qj:
                out[(i + j) % m] ^= ctx.mul(pi, ctx.pow2k(qj, i))
    return tuple(out)


def linpoly_from_images(images: list[int], ctx: FieldCtx) -> LinPoly:
    """Coefficients of the unique linearized polynomial with phi(e_j) = images[j].

    Solves the Moore system over GF(2^m) on the bit basis e_j = 1 << j;
    the Moore matrix of a basis is invertible, so elimination always
    finds a pivot.
    """
    m = ctx.m
    rows = [[ctx.pow2k(1 << j, i) for i in range(m)] + [images[j]] for j in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = ctx.inverse(rows[col][col])
        rows[col] = [ctx.mul(inv, v) for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [rows[r][i] ^ ctx.mul(f, rows[col][i]) for i in range(m + 1)]
    return tuple(rows[j][m] for j in range(m))


# ---------------------------------------------------------------------------
# GF(2) linear maps as basis-image lists (imgs[j] = map(1 << j))
# ---------------------------------------------------------------------------

def gf2_apply(imgs: list[int], v: int) -> int:
    r, j = 0, 0
    while v:
        if v & 1:
            r ^= imgs[j]
        v >>= 1
        j += 1
    return r


def gf2_rank(imgs: list[int]) -> int:
    basis: list[int] = []
    for v in imgs:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def gf2_invert(imgs: list[int]) -> list[int] | None:
    """Basis images of the inverse map, or None when singular."""
    nbits = len(imgs)
    piv: dict[int, tuple[int, int]] = {}  # leading bit -> (value, preimage)
    for j in range(nbits):
        v, p = imgs[j], 1 << j
        while v:
            b = v.bit_length() - 1
            if b in piv:
                v ^= piv[b][0]
                p ^= piv[b][1]
            else:
                piv[b] = (v, p)
                break
        else:
            return None
    if len(piv) < nbits:
        return None
    for b in sorted(piv):  # ascending: lower pivots already one-hot
        v, p = piv[b]
        rest = v ^ (1 << b)
        while rest:
            c = rest.bit_length() - 1
            v ^= piv[c][0]
            p ^= piv[c][1]
            rest = v ^ (1 << b)
        piv[b] = (v, p)
    return [piv[b][1] for b in range(nbits)]


def table_from_images(imgs: list[int]) -> np.ndarray:
    """Values of the GF(2)-linear map on all points, by linearity doubling."""
    tab = np.zeros(1, dtype=np.uint32)
    for img in imgs:
        tab = np.concatenate([tab, tab ^ np.uint32(img)])
    return tab


# ---------------------------------------------------------------------------
# Pair-space maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairMap:
    """Linear map on GF(2^m)^2 in 2x2 linearized-block form."""

    xx: LinPoly  # first coordinate, from x
    xy: LinPoly  # first coordinate, from y
    yx: LinPoly  # second coordinate, from x
    yy: LinPoly  # second coordinate, from y

    @property
    def m(self) -> int:
        return len(self.xx)

    @classmethod
    def zero(cls, m: int) -> "PairMap":
        z = zero_lin(m)
        return cls(z, z, z, z)

    @classmethod
    def identity(cls, m: int) -> "PairMap":
        return cls(mono_lin(m, 1, 0), zero_lin(m), zero_lin(m), mono_lin(m, 1, 0))

    def apply(self, v: int, ctx: FieldCtx) -> int:
        m = ctx.m
        x, y = v >> m, v & ((1 << m) - 1)
        a = eval_lin(self.xx, x, ctx) ^ eval_lin(self.xy, y, ctx)
        b = eval_lin(self.yx, x, ctx) ^ eval_lin(self.yy, y, ctx)
        return (a << m) | b

    def compose(self, other: "PairMap", ctx: FieldCtx) -> "PairMap":
        """self o other."""
        def blk(p, q, r, s):  # p o q + r o s
            return add_lin(compose_lin(p, q, ctx), compose_lin(r, s, ctx))
        return PairMap(
            xx=blk(self.xx, other.xx, self.xy, other.yx),
            xy=blk(self.xx, other.xy, self.xy, other.yy),
            yx=blk(self.yx, other.xx, self.yy, other.yx),
            yy=blk(self.yx, other.xy, self.yy, other.yy),
        )

    def add(self, other: "PairMap") -> "PairMap":
        return PairMap(
            add_lin(self.xx, other.xx),
            add_lin(self.xy, other.xy),
            add_lin(self.yx, other.yx),
            add_lin(self.yy, other.yy),
        )

    def images(self, ctx: FieldCtx) -> list[int]:
        return [self.apply(1 << j, ctx) for j in range(2 * ctx.m)]

    @classmethod
    def from_images(cls, imgs: list[int], ctx: FieldCtx) -> "PairMap":
        m = ctx.m
        mask = (1 << m) - 1
        x_imgs = [imgs[m + j] for j in range(m)]  # bit m+j is bit j of x
        y_imgs = [imgs[j] for j in range(m)]
        return cls(
            xx=linpoly_from_images([w >> m for w in x_imgs], ctx),
            xy=linpoly_from_images([w >> m for w in y_imgs], ctx),
            yx=linpoly_from_images([w & mask for w in x_imgs], ctx),
            yy=linpoly_from_images([w & mask for w in y_imgs], ctx),
        )

    def inverse(self, ctx: FieldCtx) -> "PairMap":
        inv = gf2_invert(self.images(ctx))
        if inv is None:
            raise InvalidParams("pair map is not bijective")
        return PairMap.from_images(inv, ctx)

    def table(self, ctx: FieldCtx) -> np.ndarray:
        """Values on all packed points, built by linearity doubling."""
        return table_from_images(self.images(ctx))
