"""Root analysis of the trinomial P(X) = X^(2^k+1) + alpha*X + beta.

The admissible set

    Phi(m) = { beta : X^(2^k+1) + X + beta has no root in GF(2^m) }

is enumerated by the image-complement trick: beta has a root iff
beta = F(x) = x^(2^k+1) + x for some x, so one O(2^m) pass over x marks
every rooted beta and the unmarked values are Phi(m), a BetaSet that
holds the field it was enumerated in, so its readers take it alone.  F
is quadratic, F(u + v) = F(u) + F(v) + u*v^(2^k) + u^(2^k)*v, with a
cross term that is GF(2)-linear in v (Nyberg, EUROCRYPT 1993).  So the
pass builds F in natural order with XORs alone: the low batch
x < 2^t = gf2m.BLOCK doubles one bit at a time, and each later batch
x = u + v (u = hi*2^t, v < 2^t) is the low batch plus F(u) plus the span
of the cross term's t basis images; each batch is marked rooted as soon
as it is built.  Those images and F(u) are XORs of one m x m table of
X^s * (X^r)^(2^k); no scalar product, generator, log table or bulk
product is involved.

Phi(m) is closed under the squaring map and decomposes into Frobenius
orbits {b, b^2, b^4, ...} whose lengths divide m; orbit representatives
are the numerically smallest members.  A BetaSet is held once, as a
packed membership bitmap over the field, and one decoder reads its
members out a block at a time.  frobenius_orbits runs a shrinking
minimum filter on one decoded block at a time, so that its temporaries
stay in cache: one squaring of the block, checked against the bitmap,
then further squarings of only the elements still below every conjugate
seen so far, about H_m times the size of the set in all.  It keeps
representatives and lengths as arrays; the orbit of each element
(orbit_of) is walked from the representatives, with a rank lookup of
each conjugate in the bitmap, only when it is first read.

rootless() decides membership in Phi(m) for any batch of betas without
a pass over the field, and is_rootless() for one beta, which is how a
member decides its APN criterion (families.TaniguchiParams).  For
beta != 0 and gcd(k, m) = 1 the trinomial has 2^(dim ker L) - 1 roots,
where L(y) = y^(q^2) + y^q + beta*y is GF(2)-linear (Bluher, FFA 10,
2004), so beta is in Phi(m) iff L has full rank.  At beta = 0, which has
the root 0, L has the kernel GF(2), so the rank test holds there too.
Row i of L is (X^i)^(q^2) + (X^i)^q, which does not depend on beta
(_frobenius_rows), plus beta*X^i, the i-th shift-and-reduce step of
beta.  rootless ranks a whole batch by one batched elimination
(linmaps.kernel_dims); is_rootless ranks its m rows as Python ints
(linmaps.gf2_rank), since a batched elimination of one column costs
about 5m numpy calls.

count_roots() stays a literal exhaustive scan on purpose: it is the
independent oracle the tests check phi_set, rootless and is_rootless
against, and no command calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .errors import (
    InvalidK,
    InvalidParams,
    NotFrobeniusClosed,
    TooLarge,
    ZeroAlpha,
)
from .gf2m import BLOCK, FieldCtx, xor_span
from .linmaps import gf2_rank, kernel_dims

_SCAN_DEGREE_LIMIT = 28  # 2^m-element scans stay feasible up to here
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class BetaSet:
    """Phi(m) for one (m, k), in the field ctx: the betas whose trinomial is
    rootless.  The bitmap is the one stored form; the elements are decoded."""

    ctx: FieldCtx
    k: int
    bitmap: np.ndarray  # uint8, beta is bit beta & 7 of byte beta >> 3; max(1, 2^m / 8) bytes

    def __post_init__(self):
        bitmap, order = self.bitmap, self.ctx.order
        if not (isinstance(bitmap, np.ndarray) and bitmap.dtype == np.uint8 and bitmap.ndim == 1):
            raise InvalidParams("a BetaSet bitmap is a 1-D uint8 array")
        if bitmap.size != max(1, order >> 3):
            raise InvalidParams(f"a BetaSet bitmap at m={self.m} has length {bitmap.size}, "
                                f"not {max(1, order >> 3)}")
        if order < 8 and int(bitmap[0]) >> order:
            raise InvalidParams(f"a BetaSet bitmap at m={self.m} has a bit at or above 2^{self.m}")

    @property
    def m(self) -> int:
        return self.ctx.m

    @cached_property
    def _size(self) -> int:
        return int(_POPCOUNT8.take(self.bitmap).sum(dtype=np.int64))

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(int(b) for b in self.elements)

    def __contains__(self, beta: int) -> bool:
        return 0 <= beta < self.ctx.order and bool(self.bitmap[beta >> 3] >> (beta & 7) & 1)

    @cached_property
    def elements(self) -> np.ndarray:
        """The members, sorted uint32, decoded from the bitmap on first read."""
        # filled in place, since joining a list of the blocks doubles the peak
        out = np.empty(len(self), dtype=np.uint32)
        n = 0
        for block in _members(self.bitmap):
            out[n:n + block.size] = block
            n += block.size
        return out

    def to_json(self) -> dict:
        """The set as a JSON-ready dict.  The CLI prints the elements with
        its numpy renderer instead; this dict through json.dumps is that
        renderer's slow oracle in the tests."""
        return {
            "m": self.m,
            "k": self.k,
            "elements": [f"0x{b:X}" for b in self.elements.tolist()],
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BetaSet)
            and (self.ctx, self.k) == (other.ctx, other.k)
            and bool(np.array_equal(self.bitmap, other.bitmap))
        )


def _members(bitmap: np.ndarray):
    """The members of a membership bitmap in ascending order, as uint32
    arrays, one per 4*BLOCK field values; an empty set is one empty block."""
    step = BLOCK >> 1  # bytes: whole ones for BLOCK >= 2, and about 1.3 BLOCK members of Phi
    for lo in range(0, bitmap.size, step):
        bits = np.unpackbits(bitmap[lo:lo + step], bitorder="little").view(bool)
        yield np.flatnonzero(bits).astype(np.uint32) + np.uint32(lo << 3)


@dataclass(frozen=True, eq=False)
class OrbitDecomposition:
    """Frobenius-orbit partition of one Phi(m), held as arrays: per orbit its
    smallest member and its length, and on first read per element of Phi
    its orbit."""

    phi: BetaSet
    representatives: np.ndarray  # sorted uint32, the smallest member of each orbit
    lengths: np.ndarray  # uint32, the length of each orbit, aligned with representatives

    @cached_property
    def orbit_of(self) -> np.ndarray:
        """int32, per element of Phi (sorted) the index of its orbit."""
        return _orbit_ids(self.phi, self.representatives, self.lengths)

    @property
    def total(self) -> int:
        return len(self.phi)

    def __len__(self) -> int:
        return int(self.representatives.size)

    def to_json(self) -> dict:
        """The orbits as a JSON-ready dict.  The CLI prints them with its
        numpy renderer instead; this dict through json.dumps is that
        renderer's slow oracle in the tests."""
        return {
            "total": self.total,
            "orbits": [
                {"representative": f"0x{r:X}", "length": length}
                for r, length in zip(self.representatives.tolist(), self.lengths.tolist())
            ],
        }


def _check_k(k: int, ctx: FieldCtx) -> int:
    k %= ctx.m
    if gcd(k, ctx.m) != 1:
        raise InvalidK(f"k={k} not coprime to m={ctx.m}")
    return k


def count_roots(k: int, alpha: int, beta: int, ctx: FieldCtx) -> int:
    """Exact number of x with x^(2^k+1) + alpha*x + beta = 0, by full scan:
    the oracle of phi_set, rootless and is_rootless."""
    k = _check_k(k, ctx)
    if not (ctx.contains(alpha) and ctx.contains(beta)):
        raise InvalidParams("alpha/beta out of field range")
    if ctx.m > _SCAN_DEGREE_LIMIT:
        raise TooLarge(f"exhaustive root scan capped at m={_SCAN_DEGREE_LIMIT}")
    roots = 0
    for lo in range(0, ctx.order, BLOCK):
        x = np.arange(lo, min(lo + BLOCK, ctx.order), dtype=np.uint32)
        roots += int((ctx.mul_vec(ctx.pow2k_vec(x, k), x) ^ ctx.mul_vec(x, alpha) == beta).sum())
    return roots


def _frobenius_rows(k: int, ctx: FieldCtx) -> np.ndarray:
    """(X^i)^(q^2) + (X^i)^q for i < m, q = 2^k, as uint32: the part of
    row i of L(y) = y^(q^2) + y^q + beta*y that does not depend on beta,
    from the k-th Frobenius table applied twice."""
    q = ctx.pow2k_vec(np.left_shift(np.uint32(1), np.arange(ctx.m, dtype=np.uint32)), k)
    return ctx.pow2k_vec(q, k) ^ q


def is_rootless(k: int, beta: int, ctx: FieldCtx) -> bool:
    """Whether X^(q+1) + X + beta, q = 2^k, has no root in GF(2^m): whether
    L(y) = y^(q^2) + y^q + beta*y has full rank, as rootless() for one beta.

    Row i is _frobenius_rows' entry i plus beta*X^i, each row a Python
    int from one shift-and-reduce step of the one before.
    """
    k = _check_k(k, ctx)
    if not ctx.contains(beta):
        raise InvalidParams("beta out of field range")
    rows = []
    for frob in _frobenius_rows(k, ctx).tolist():
        rows.append(frob ^ beta)
        beta <<= 1
        if beta >> ctx.m:
            beta ^= ctx.modulus
    return gf2_rank(rows) == ctx.m


def rootless(k: int, betas: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Per beta of a uint32 element array, whether X^(q+1) + X + beta,
    q = 2^k, has no root in GF(2^m): whether L(y) = y^(q^2) + y^q + beta*y
    has full rank.  beta = 0 needs no exception: L(y) = (y^q + y)^q then
    has the kernel GF(2).

    Row i of L is _frobenius_rows' entry i plus beta*X^i, the i-th xtime
    step of beta.  The betas go in batches of BLOCK // m, so the m rows of
    a batch hold at most BLOCK entries.
    """
    k = _check_k(k, ctx)
    m = ctx.m
    frob = _frobenius_rows(k, ctx)
    out = np.empty(betas.size, dtype=bool)
    width = BLOCK // m
    rows = np.empty((m, min(width, betas.size)), dtype=np.uint32)
    scratch = np.empty_like(rows)
    for lo in range(0, betas.size, width):
        n = min(width, betas.size - lo)
        rows[0, :n] = betas[lo:lo + n]
        for i in range(1, m):
            rows[i, :n] = ctx.xtime_vec(rows[i - 1, :n])
        rows[:, :n] ^= frob[:, None]
        out[lo:lo + n] = kernel_dims(rows[:, :n], scratch[:, :n]) == 0
    return out


def phi_set(k: int, ctx: FieldCtx) -> BetaSet:
    """Phi(m) via the image complement of F(x) = x^(q+1) + x, q = 2^k.

    F is quadratic: F(u + v) = F(u) + F(v) + u*v^q + u^q*v, and the cross
    term is GF(2)-linear in v.  So for v < 2^n, F(u + v) is F(u) plus the
    span of the cross term's n basis images plus the table of F below 2^n.
    With u = 2^s and n = s that doubles the low table, F below
    2^t = BLOCK, one bit at a time; with u = hi*2^t and n = t it gives
    each later batch.  Both the images and F(u) are XORs of entries
    of the m x m matrix M[s, r] = X^s * (X^r)^q: for u the sum of X^j over
    j in J, the cross term's image at X^r is the XOR of C[j, r] = M[j, r]
    ^ M[r, j] over J, and u^(q+1) is the XOR of M over J x J.  M takes one
    Frobenius map of the basis and m - 1 shift-and-reduce steps of its
    rows; no scalar product, generator or log table is involved.
    """
    k = _check_k(k, ctx)
    if ctx.m > _SCAN_DEGREE_LIMIT:
        raise TooLarge(f"phi_set scan capped at m={_SCAN_DEGREE_LIMIT}")
    t = min(ctx.m, BLOCK.bit_length() - 1)
    prod = np.empty((ctx.m, ctx.m), dtype=np.uint32)  # M[s, r] = X^s * (X^r)^q
    prod[0] = ctx.pow2k_vec(np.left_shift(np.uint32(1), np.arange(ctx.m, dtype=np.uint32)), k)
    for s in range(1, ctx.m):
        prod[s] = ctx.xtime_vec(prod[s - 1])
    cross = prod ^ prod.T
    low = np.zeros(1 << t, dtype=np.uint32)  # F(v) for v < 2^t, once filled

    def fill(u: int, n: int, out: np.ndarray) -> None:
        """out[v] = F(u + v) for v < 2^n, from low[:2^n]; u has no bit below n."""
        bits = [j for j in range(n, ctx.m) if u >> j & 1]
        out[0] = np.bitwise_xor.reduce(prod[np.ix_(bits, bits)], axis=None) ^ u
        xor_span(np.bitwise_xor.reduce(cross[bits, :n], axis=0), out)
        out ^= low[:1 << n]

    for s in range(t):
        fill(1 << s, s, low[1 << s:2 << s])
    rootless = np.ones(ctx.order, dtype=bool)
    rootless[low] = False
    batch = np.empty_like(low)
    for u in range(1 << t, ctx.order, 1 << t):
        fill(u, t, batch)
        rootless[batch] = False
    return BetaSet(ctx, k, np.packbits(rootless, bitorder="little"))


def frobenius_orbits(phi: BetaSet) -> OrbitDecomposition:
    """Partition Phi(m) into Frobenius orbits {b, b^2, b^4, ...}.

    The representatives and lengths come from the minimum filter of
    _orbit_representatives; the orbit of each element (orbit_of) is walked
    from them only when it is first read.
    """
    return OrbitDecomposition(phi, *_orbit_representatives(phi))


def _orbit_representatives(phi: BetaSet) -> tuple[np.ndarray, np.ndarray]:
    """The smallest member of each Frobenius orbit of phi, in ascending
    order, and the length of that orbit, both uint32.

    A shrinking minimum filter, run on one decoded block of phi's members
    at a time, since it decides each element on its own.  Step 1 squares
    every element and checks each square against the membership bitmap, so
    a set that is not closed raises NotFrobeniusClosed naming the first
    escaping square.  Step i keeps only the x below each of x^2, ...,
    x^(2^i); x^(2^i) = x at a step i that divides m ends the orbit of a
    representative of length i.  Every orbit length divides m, so an x
    still kept after step m - 1 is a representative of length m.  About
    1/i of the elements reach step i + 1, so the filter squares about
    H_(m-1)*|phi| elements in all.  The blocks are ascending, so their
    representatives, each block's sorted, are sorted in all.
    """
    ctx, bitmap = phi.ctx, phi.bitmap
    reps, lengths = [], []
    for x in _members(bitmap):
        cur = ctx.square_vec(x)
        escaped = (bitmap.take(cur >> np.uint32(3)) >> (cur & np.uint32(7))) & 1 == 0
        if escaped.any():
            raise NotFrobeniusClosed(f"square 0x{int(cur[escaped][0]):X} escapes the set")
        found = []
        for i in range(1, ctx.m):
            if i > 1:
                cur = ctx.square_vec(cur)
            if ctx.m % i == 0:
                found.append((x.compress(cur == x), i))
            kept = cur > x
            x, cur = x.compress(kept), cur.compress(kept)
        found.append((x, ctx.m))
        block_reps = np.concatenate([r for r, _ in found])
        order = np.argsort(block_reps)
        reps.append(block_reps.take(order))
        lengths.append(np.concatenate([np.full(r.size, i, dtype=np.uint32)
                                       for r, i in found]).take(order))
    return np.concatenate(reps), np.concatenate(lengths)


def _orbit_ids(phi: BetaSet, reps: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per element of phi (sorted), the int32 index in reps of its orbit.

    Walks each representative's orbit once, rep^(2^j) for j < its length,
    and finds each conjugate's position in phi by its rank: the members
    below it, read from the membership bitmap as a prefix count per byte
    plus the popcount of the bits below it in its byte.
    """
    ctx, bitmap = phi.ctx, phi.bitmap
    counts = _POPCOUNT8.take(bitmap)
    below = np.cumsum(counts, dtype=np.int32) - counts  # members in the earlier bytes
    ids = np.empty(len(phi), dtype=np.int32)
    walk = np.argsort(lengths, kind="stable")[::-1].astype(np.int32)  # longest orbits first
    cur = reps.take(walk)
    for j in range(ctx.m):
        if j:  # the orbits longer than j, a prefix of walk, move on to their next conjugate
            n = np.count_nonzero(lengths > j)
            cur, walk = ctx.square_vec(cur[:n]), walk[:n]
        byte, bit = cur >> np.uint32(3), cur & np.uint32(7)
        ids[below.take(byte) + _POPCOUNT8.take(bitmap.take(byte) & ((1 << bit) - 1))] = walk
    return ids


def transform_beta(k: int, alpha: int, beta: int, ctx: FieldCtx) -> int:
    """Normalize alpha to 1: beta' = beta / alpha^(2^(m-k)+1).

    The trinomial for (alpha, beta) is rootless iff the one for (1, beta')
    is (substitute X -> alpha^(2^-k) X and factor out alpha^(2^-k+1)).
    """
    if alpha == 0:
        raise ZeroAlpha("alpha-normalization needs alpha != 0")
    e = (1 << ((ctx.m - k) % ctx.m)) + 1
    return ctx.mul(beta, ctx.inverse(ctx.pow(alpha, e)))


def frobenius_orbit(beta: int, ctx: FieldCtx) -> list[int]:
    """The orbit of beta in walk order: [beta, beta^2, beta^4, ...], so
    entry i is beta^(2^i).  The one scalar Frobenius walk; it is the oracle
    for frobenius_orbits."""
    orbit = [beta]
    cur = ctx.mul(beta, beta)
    while cur != beta:
        orbit.append(cur)
        cur = ctx.mul(cur, cur)
    return orbit


def orbit_min(beta: int, ctx: FieldCtx) -> int:
    """Smallest member of the Frobenius orbit of beta."""
    return min(frobenius_orbit(beta, ctx))


def orbit_length(beta: int, ctx: FieldCtx) -> int:
    """min { u >= 1 : beta^(2^u) = beta }; divides m."""
    return len(frobenius_orbit(beta, ctx))
