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
x < 2^t = _SCAN_CHUNK doubles one bit at a time, and each later batch
x = u + v (u = hi*2^t, v < 2^t) is the low batch plus F(u) plus the span
of the cross term's t basis images.  Only those images and F(u) take
scalar products; no generator, log table or bulk product is involved.

Phi(m) is closed under the squaring map and decomposes into Frobenius
orbits {b, b^2, b^4, ...} whose lengths divide m; orbit representatives
are the numerically smallest members.  orbit_minima finds them for a
whole set with one squaring pass, a rank lookup of each square in a
packed membership bitmap of the set, and ceil(log2 m) pointer-doubling
steps over positions in the sorted set; frobenius_orbits keeps the
result as arrays (representatives, lengths, the orbit of each element).

count_roots() stays a literal exhaustive scan on purpose: it decides a
single member's APN criterion (families.TaniguchiParams), and it is the
independent oracle the tests check phi_set against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import (
    InvalidK,
    InvalidParams,
    NotFrobeniusClosed,
    TooLarge,
    ZeroAlpha,
)
from .gf2m import FieldCtx, xor_span

_SCAN_DEGREE_LIMIT = 28  # 2^m-element scans stay feasible up to here
_SCAN_CHUNK = 1 << 22  # x values per batch of a root scan, a power of two; one batch up to m = 22
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class BetaSet:
    """Phi(m) for one (m, k), in the field ctx: the betas whose trinomial is rootless."""

    ctx: FieldCtx
    k: int
    elements: np.ndarray  # sorted uint32, no duplicates

    @property
    def m(self) -> int:
        return self.ctx.m

    def __len__(self) -> int:
        return int(self.elements.size)

    def __iter__(self):
        return iter(int(b) for b in self.elements)

    def __contains__(self, beta: int) -> bool:
        i = int(np.searchsorted(self.elements, beta))
        return i < self.elements.size and int(self.elements[i]) == beta

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
            and bool(np.array_equal(self.elements, other.elements))
        )


@dataclass(frozen=True, eq=False)
class OrbitDecomposition:
    """Frobenius-orbit partition of one Phi(m), held as arrays: per orbit its
    smallest member and its length, per element of Phi its orbit."""

    representatives: np.ndarray  # sorted uint32, the smallest member of each orbit
    lengths: np.ndarray  # uint32, the length of each orbit, aligned with representatives
    orbit_of: np.ndarray  # int32, per element of Phi (sorted) the index of its orbit

    @property
    def total(self) -> int:
        return int(self.orbit_of.size)

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


def _batches(n: int):
    """Slices that cover range(n) in batches of _SCAN_CHUNK."""
    return [slice(lo, lo + _SCAN_CHUNK) for lo in range(0, n, _SCAN_CHUNK)]


def _take(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[idx], gathered batch by batch, so no intp copy of all of idx is made."""
    out = np.empty(idx.size, dtype=a.dtype)
    for s in _batches(idx.size):
        out[s] = a[idx[s]]
    return out


def _scan_chunks(ctx: FieldCtx):
    """Every element of the field, in uint32 batches of _SCAN_CHUNK."""
    for lo in range(0, ctx.order, _SCAN_CHUNK):
        yield np.arange(lo, min(lo + _SCAN_CHUNK, ctx.order), dtype=np.uint32)


def count_roots(k: int, alpha: int, beta: int, ctx: FieldCtx) -> int:
    """Exact number of x with x^(2^k+1) + alpha*x + beta = 0, by full scan."""
    k = _check_k(k, ctx)
    if not (ctx.contains(alpha) and ctx.contains(beta)):
        raise InvalidParams("alpha/beta out of field range")
    if ctx.m > _SCAN_DEGREE_LIMIT:
        raise TooLarge(f"exhaustive root scan capped at m={_SCAN_DEGREE_LIMIT}")
    return sum(int((ctx.mul_vec(ctx.pow2k_vec(x, k), x) ^ ctx.mul_vec(x, alpha) == beta).sum())
               for x in _scan_chunks(ctx))


def phi_set(k: int, ctx: FieldCtx) -> BetaSet:
    """Phi(m) via the image complement of F(x) = x^(q+1) + x, q = 2^k.

    F is quadratic: F(u + v) = F(u) + F(v) + u*v^q + u^q*v, and the cross
    term is GF(2)-linear in v.  So for v < 2^n, F(u + v) is F(u) plus the
    span of the cross term's n basis images plus the table of F below 2^n.
    With u = 2^s and n = s that doubles the low table, F below
    2^t = _SCAN_CHUNK, one bit at a time; with u = hi*2^t and n = t it
    gives each later batch.  Only the basis images and F(u) take scalar
    products; the tables are XORs only.
    """
    k = _check_k(k, ctx)
    if ctx.m > _SCAN_DEGREE_LIMIT:
        raise TooLarge(f"phi_set scan capped at m={_SCAN_DEGREE_LIMIT}")
    t = min(ctx.m, _SCAN_CHUNK.bit_length() - 1)
    frob = [ctx.pow2k(1 << r, k) for r in range(t)]  # (X^r)^q
    low = np.zeros(1 << t, dtype=np.uint32)  # F(v) for v < 2^t, once filled

    def fill(u: int, n: int, out: np.ndarray) -> None:
        """out[v] = F(u + v) for v < 2^n, from low[:2^n]; u has no bit below n."""
        uq = ctx.pow2k(u, k)
        out[0] = ctx.mul(u, uq) ^ u
        xor_span([ctx.mul(p, u) ^ ctx.mul(uq, 1 << r) for r, p in enumerate(frob[:n])], out)
        out ^= low[:1 << n]

    for s in range(t):
        fill(1 << s, s, low[1 << s:2 << s])
    rootless = np.ones(ctx.order, dtype=bool)
    rootless[low] = False
    batch = np.empty_like(low)
    for u in range(1 << t, ctx.order, 1 << t):
        fill(u, t, batch)
        rootless[batch] = False
    # indexed batch by batch into a uint32 array of the final size, so no
    # int64 index array of |Phi| entries is ever built
    elements = np.empty(np.count_nonzero(rootless), dtype=np.uint32)
    n = 0
    for lo in range(0, ctx.order, _SCAN_CHUNK):
        idx = np.flatnonzero(rootless[lo:lo + _SCAN_CHUNK])
        elements[n:n + idx.size] = idx + lo
        n += idx.size
    return BetaSet(ctx=ctx, k=k, elements=elements)


def frobenius_orbits(phi: BetaSet) -> OrbitDecomposition:
    """Partition Phi(m) into Frobenius orbits {b, b^2, b^4, ...}.

    Each orbit's smallest member sits at the one position that is its own
    orbit minimum, so the orbits come in sorted order without a sort.
    """
    pos = _orbit_min_positions(phi.elements, phi.ctx)
    is_rep = pos == np.arange(pos.size, dtype=np.int32)
    orbit_of = _take(np.cumsum(is_rep, dtype=np.int32) - 1, pos)
    return OrbitDecomposition(representatives=phi.elements[is_rep],
                              lengths=np.bincount(orbit_of).astype(np.uint32),
                              orbit_of=orbit_of)


def orbit_minima(arr: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Per element of the sorted, squaring-closed arr, the smallest member
    of its Frobenius orbit."""
    return arr[_orbit_min_positions(arr, ctx)]


def _orbit_min_positions(arr: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Per element of the sorted, squaring-closed arr, the int32 position in
    arr of the smallest member of its Frobenius orbit.

    Pointer doubling over the squaring map on positions takes the minimum
    over 1, 2, 4, ... steps of the map; every orbit length divides m, so
    ceil(log2 m) doublings cover each orbit.  arr is sorted, so the
    smallest position holds the smallest member.
    """
    nxt = _squaring_positions(arr, ctx)
    reps = np.arange(arr.size, dtype=np.int32)
    for _ in range((ctx.m - 1).bit_length()):
        ahead = _take(reps, nxt)
        reps = np.minimum(reps, ahead, out=ahead)
        nxt = _take(nxt, nxt)
    return reps


def _squaring_positions(arr: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Per element of the sorted arr, the int32 position in arr of its square.

    One squaring pass and a rank lookup: the rank of v is the number of
    members below it, read from a membership bitmap of arr packed 8 to a
    byte, as a prefix count per byte plus the popcount of the bits below v
    in its byte.  A square outside arr raises NotFrobeniusClosed.
    """
    if ctx.m > _SCAN_DEGREE_LIMIT:
        raise TooLarge(f"orbit pass capped at m={_SCAN_DEGREE_LIMIT}: its bitmap spans the field")
    member = np.zeros(ctx.order, dtype=bool)
    for s in _batches(arr.size):
        member[arr[s]] = True
    bitmap = np.packbits(member, bitorder="little")
    del member
    counts = _POPCOUNT8[bitmap]
    below = np.cumsum(counts, dtype=np.int32) - counts  # members in the earlier bytes
    nxt = np.empty(arr.size, dtype=np.int32)
    for s in _batches(arr.size):
        sq = ctx.square_vec(arr[s])
        byte, bit = sq >> np.uint32(3), sq & np.uint32(7)
        word = bitmap[byte]
        escaped = (word >> bit) & 1 == 0
        if escaped.any():
            raise NotFrobeniusClosed(f"square 0x{int(sq[escaped][0]):X} escapes the set")
        nxt[s] = below[byte] + _POPCOUNT8[word & ((1 << bit) - 1)]
    return nxt


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
    entry i is beta^(2^i).  The one scalar Frobenius walk; through orbit_min
    it is the oracle for orbit_minima."""
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
