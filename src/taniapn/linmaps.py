"""Linear maps on GF(2^m)^2 = GF(2)^(2m) as basis images, and GF(2) algebra.

Pairs pack as v = (bits(x) << m) | bits(y), matching the truth-table
layout.  A PairMap is stored as its 2m basis images, images[j] = P(1 << j),
so composition, sums, inversion, rank, full tables and the values at the
points of Hamming weight <= 2 are plain GF(2) linear algebra on those
lists and need no field context.

Linearized-polynomial coefficients appear only at the JSON boundary: the
map decomposes into four GF(2^m)-linear blocks

    P(x, y) = ( xx(x) + xy(y),  yx(x) + yy(y) ),

each a linearized polynomial sum c_i X^(2^i), stored as the length-m
coefficient tuple (c_0..c_(m-1)) and recovered from the block's basis
images by solving the Moore system sum_i c_i e_j^(2^i) = phi(e_j) on the
bit basis e_j; the Moore matrix is inverted once per field context.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParams
from .gf2m import FieldCtx

LinPoly = tuple[int, ...]


# ---------------------------------------------------------------------------
# Linearized-polynomial coefficients (JSON boundary only)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _moore_inverse(ctx: FieldCtx) -> np.ndarray:
    """inv[i, j] of the Moore matrix A[j, i] = e_j^(2^i) on the bit basis.

    Gauss-Jordan on [A | I]; the Moore matrix of a basis is invertible,
    so elimination always finds a pivot.  Read-only: the cache shares it.
    """
    m = ctx.m
    rows = [[ctx.pow2k(1 << j, i) for i in range(m)] + [int(r == j) for r in range(m)]
            for j in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = ctx.inverse(rows[col][col])
        rows[col] = [ctx.mul(inv, v) for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [rows[r][i] ^ ctx.mul(f, rows[col][i]) for i in range(2 * m)]
    out = np.array([row[m:] for row in rows], dtype=np.uint32)
    out.flags.writeable = False
    return out


def linpoly_from_images(columns: Sequence[Sequence[int]], ctx: FieldCtx) -> list[LinPoly]:
    """Coefficients of the unique linearized polynomial with phi(e_j) = images[j],
    for each images list in `columns`.

    Solves the Moore system sum_i c_i e_j^(2^i) = phi(e_j) over GF(2^m) on
    the bit basis e_j = 1 << j by the field's cached Moore inverse.
    """
    inv = _moore_inverse(ctx)
    rhs = np.array(columns, dtype=np.uint32).T  # rhs[j, c] = columns[c][j]
    coeffs = np.bitwise_xor.reduce(ctx.mul_vec(inv[:, :, None], rhs[None, :, :]), axis=1)
    return [tuple(int(v) for v in coeffs[:, c]) for c in range(len(columns))]


# ---------------------------------------------------------------------------
# GF(2) linear maps as basis-image lists (imgs[j] = map(1 << j))
# ---------------------------------------------------------------------------

def gf2_apply(imgs: Sequence[int], v: int) -> int:
    r, j = 0, 0
    while v:
        if v & 1:
            r ^= imgs[j]
        v >>= 1
        j += 1
    return r


def gf2_rank(imgs: Sequence[int]) -> int:
    basis: list[int] = []
    for v in imgs:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def gf2_invert(imgs: Sequence[int]) -> list[int] | None:
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


def gf2_apply_vec(imgs: Sequence[int], v: np.ndarray) -> np.ndarray:
    """gf2_apply at every entry of a uint32 array."""
    out = np.zeros_like(v)
    for j, img in enumerate(imgs):
        out ^= ((v >> np.uint32(j)) & np.uint32(1)) * np.uint32(img)
    return out


def low_weight_values(imgs: Sequence[int]) -> np.ndarray:
    """Values of the map at the points of Hamming weight <= 2, in the order
    0, then e_i, then e_i + e_j for i < j (row-major)."""
    a = np.array(imgs, dtype=np.uint32)
    i, j = np.triu_indices(a.size, 1)
    return np.concatenate([np.zeros(1, dtype=np.uint32), a, a[i] ^ a[j]])


def table_from_images(imgs: Sequence[int]) -> np.ndarray:
    """Values of the GF(2)-linear map on all points, by linearity doubling."""
    tab = np.zeros(1, dtype=np.uint32)
    for img in imgs:
        tab = np.concatenate([tab, tab ^ np.uint32(img)])
    return tab


# ---------------------------------------------------------------------------
# Pair-space maps
# ---------------------------------------------------------------------------

Monomial = tuple[int, int]  # (c, d): the block c * X^(2^d)


@dataclass(frozen=True)
class PairMap:
    """GF(2)-linear map on packed pairs, stored as imgs[j] = P(1 << j)."""

    imgs: tuple[int, ...]

    @classmethod
    def zero(cls, m: int) -> "PairMap":
        return cls((0,) * (2 * m))

    @classmethod
    def identity(cls, m: int) -> "PairMap":
        return cls(tuple(1 << j for j in range(2 * m)))

    @classmethod
    def monomial(cls, ctx: FieldCtx, xx: Monomial | None = None,
                 xy: Monomial | None = None, yx: Monomial | None = None,
                 yy: Monomial | None = None) -> "PairMap":
        """Map whose blocks are each c * X^(2^d) or, when None, zero."""
        m = ctx.m

        def blk(mono: Monomial | None, e: int) -> int:
            return ctx.mul(mono[0], ctx.pow2k(e, mono[1])) if mono else 0

        from_y = [(blk(xy, 1 << j) << m) | blk(yy, 1 << j) for j in range(m)]
        from_x = [(blk(xx, 1 << j) << m) | blk(yx, 1 << j) for j in range(m)]
        return cls(tuple(from_y + from_x))

    def images(self) -> tuple[int, ...]:
        """Basis images, imgs[j] = P(1 << j)."""
        return self.imgs

    def compose(self, other: "PairMap") -> "PairMap":
        """self o other."""
        return PairMap(tuple(gf2_apply(self.imgs, v) for v in other.imgs))

    def add(self, other: "PairMap") -> "PairMap":
        return PairMap(tuple(a ^ b for a, b in zip(self.imgs, other.imgs)))

    def inverse(self) -> "PairMap":
        inv = gf2_invert(self.imgs)
        if inv is None:
            raise InvalidParams("pair map is not bijective")
        return PairMap(tuple(inv))

    def table(self) -> np.ndarray:
        """Values on all packed points, built by linearity doubling."""
        return table_from_images(self.imgs)

    def blocks(self, ctx: FieldCtx) -> tuple[LinPoly, LinPoly, LinPoly, LinPoly]:
        """Coefficients of the (xx, xy, yx, yy) blocks, by the Moore solve."""
        m = ctx.m
        mask = (1 << m) - 1
        from_x, from_y = self.imgs[m:], self.imgs[:m]  # bit m+j is bit j of x
        return tuple(linpoly_from_images(
            [[w >> m for w in from_x], [w >> m for w in from_y],
             [w & mask for w in from_x], [w & mask for w in from_y]], ctx))
