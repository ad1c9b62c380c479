"""Linear maps on GF(2^m)^2 = GF(2)^(2m) as basis images, and GF(2) algebra.

Pairs pack as v = (bits(x) << m) | bits(y), the layout of every packed
point and value in the package.  pack and unpack state it and its width
once: ints stay ints, and element arrays pack to uint32 while 2m <= 32
and to uint64 above, so no shift wraps.  A PairMap is stored as its 2m
basis images, images[j] = P(1 << j), so composition, sums, inversion,
rank, full tables and the values at the points of Hamming weight <= 2
are plain GF(2) linear algebra on those lists and need no field
context.  The points of weight <= 2 themselves (low_weight_points) are
one cached, read-only array per bit count n, which the witness check,
the automorphism exhaustion (n = 2m) and the differential scan (any n)
share.

Linearized-polynomial coefficients appear only at the JSON boundary: the
map decomposes into four GF(2^m)-linear blocks

    P(x, y) = ( xx(x) + xy(y),  yx(x) + yy(y) ),

each a linearized polynomial sum c_i X^(2^i), stored as the length-m
coefficient tuple (c_0..c_(m-1)) and recovered from the block's basis
images by solving the Moore system sum_i c_i e_j^(2^i) = phi(e_j) on the
bit basis e_j.  The Moore inverse is the Frobenius table of the trace-dual
basis, found by one GF(2) inversion once per field context.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor

import numpy as np

from .errors import InvalidParams
from .gf2m import FieldCtx, xor_span

LinPoly = tuple[int, ...]


# ---------------------------------------------------------------------------
# Linearized-polynomial coefficients (JSON boundary only)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _moore_inverse(ctx: FieldCtx) -> np.ndarray:
    """inv[i, j] = d_j^(2^i), the inverse of the Moore matrix A[j, i] = e_j^(2^i).

    d is the trace-dual basis of the bit basis: Tr(d_j e_k) = [j = k], so
    x = sum_j Tr(d_j x) e_j and phi(x) = sum_i x^(2^i) sum_j d_j^(2^i) phi(e_j).
    d is the GF(2) inverse of x -> (Tr(e_0 x), ..., Tr(e_(m-1) x)), which
    the nondegenerate trace form makes bijective; Tr(v) is the parity of
    v & tr_mask, Tr being GF(2)-linear.  Read-only: the cache shares it.
    """
    m = ctx.m
    tr_mask = sum(reduce(xor, (ctx.pow2k(1 << t, i) for i in range(m))) << t for t in range(m))
    tr_form = [sum(((ctx.mul(1 << k, 1 << j) & tr_mask).bit_count() & 1) << k
                   for k in range(m)) for j in range(m)]
    dual = gf2_invert(tr_form)
    out = np.array([[ctx.pow2k(d, i) for d in dual] for i in range(m)], dtype=np.uint32)
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


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """Forward GF(2) elimination: {leading bit: row} spanning the same space."""
    piv: dict[int, int] = {}
    for v in rows:
        while v:
            b = v.bit_length() - 1
            if b not in piv:
                piv[b] = v
                break
            v ^= piv[b]
    return piv


def gf2_rank(imgs: Sequence[int]) -> int:
    return len(_echelon(imgs))


def gf2_invert(imgs: Sequence[int]) -> list[int] | None:
    """Basis images of the inverse map, or None when singular.

    Eliminates the rows image | preimage, (imgs[j] << n) | (1 << j): a pivot
    in the low half is a vanishing combination of images.  Otherwise back
    substitution leaves the preimage of e_i in the row with pivot n + i.
    """
    n = len(imgs)
    piv = _echelon((v << n) | (1 << j) for j, v in enumerate(imgs))
    if min(piv, default=n) < n:
        return None
    for b in sorted(piv):  # ascending: lower pivots are one-hot in the high half
        v = piv[b]
        rest = (v >> n) ^ (1 << (b - n))
        while rest:
            c = rest.bit_length() - 1
            v ^= piv[n + c]
            rest ^= 1 << c
        piv[b] = v
    return [piv[n + i] & ((1 << n) - 1) for i in range(n)]


def gf2_apply_vec(imgs: Sequence[int], v: np.ndarray) -> np.ndarray:
    """gf2_apply at every entry of a uint32 array."""
    out = np.zeros_like(v)
    for j, img in enumerate(imgs):
        out ^= ((v >> np.uint32(j)) & np.uint32(1)) * np.uint32(img)
    return out


@lru_cache(maxsize=16)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for 0 <= i < j < n, row-major: the bits of the weight-2 points
    in low_weight_values order.  Read-only: the cache shares them."""
    out = np.triu_indices(n, 1)
    for v in out:
        v.flags.writeable = False
    return out


def low_weight_values(imgs: Sequence[int]) -> np.ndarray:
    """Values of the map at the points of Hamming weight <= 2, in the order
    0, then e_i, then e_i + e_j for i < j (row-major)."""
    a = np.array(imgs, dtype=np.uint32)
    i, j = pair_indices(a.size)
    return np.concatenate([np.zeros(1, dtype=np.uint32), a, a[i] ^ a[j]])


@lru_cache(maxsize=16)
def low_weight_points(n: int) -> np.ndarray:
    """The packed points of Hamming weight <= 2 in GF(2)^n, in
    low_weight_values order (0, then weight 1, then weight 2).  Read-only:
    the cache shares it."""
    out = low_weight_values([1 << j for j in range(n)])
    out.flags.writeable = False
    return out


def table_from_images(imgs: Sequence[int]) -> np.ndarray:
    """Values of the GF(2)-linear map on all points, by linearity doubling."""
    return xor_span(imgs, np.zeros(1 << len(imgs), dtype=np.uint32))


# ---------------------------------------------------------------------------
# Pair-space maps
# ---------------------------------------------------------------------------

def pack(x, y, m: int):
    """(x << m) | y: an int for ints, else an array, uint32 while 2m <= 32, else uint64."""
    if isinstance(x, int) and isinstance(y, int):
        return (x << m) | y
    dtype = np.uint32 if 2 * m <= 32 else np.uint64
    return (np.asarray(x, dtype=dtype) << dtype(m)) | np.asarray(y, dtype=dtype)


def unpack(v, m: int):
    """(x, y) of the packed pair v: ints for an int, else uint32 element arrays."""
    x, y = v >> m, v & ((1 << m) - 1)
    if isinstance(v, int):
        return x, y
    return x.astype(np.uint32, copy=False), y.astype(np.uint32, copy=False)


Monomial = tuple[int, int]  # (c, d): the block c * X^(2^d)


@dataclass(frozen=True)
class PairMap:
    """GF(2)-linear map on packed pairs, stored as imgs[j] = P(1 << j)."""

    imgs: tuple[int, ...]

    def __post_init__(self):
        top = 1 << len(self.imgs)
        if not all(0 <= v < top for v in self.imgs):
            raise InvalidParams(f"basis images must lie in [0, 2^{len(self.imgs)})")

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
        basis = np.left_shift(np.uint32(1), np.arange(m, dtype=np.uint32))

        def blk(mono: Monomial | None) -> np.ndarray:
            """The block's values at the bit basis e_j = 1 << j."""
            if mono is None:
                return np.zeros(m, dtype=np.uint32)
            return ctx.mul_vec(mono[0], ctx.pow2k_vec(basis, mono[1]))

        from_y, from_x = pack(blk(xy), blk(yy), m), pack(blk(xx), blk(yx), m)
        return cls(tuple(from_y.tolist() + from_x.tolist()))

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
        x, y = zip(*(unpack(w, m) for w in self.imgs))  # imgs[m + j] is from bit j of x
        return tuple(linpoly_from_images([x[m:], x[:m], y[m:], y[:m]], ctx))
