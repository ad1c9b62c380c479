"""Exact arithmetic in GF(2^m) for 1 <= m <= 32.

Elements are plain Python ints in [0, 2^m): bit i is the coefficient of X^i
in the polynomial residue modulo the context's irreducible polynomial.
Addition is XOR; multiplication is shift-and-XOR with on-the-fly reduction.

Every operation flows through a FieldCtx, which is immutable after
construction and safe to share.  Scalar operations use the raw
shift-and-XOR path and never touch a table, so they are the oracle for
the bulk (numpy) operations, which take and return uint32 element
arrays.  The scalar inverse is the extended Euclidean algorithm in
GF(2)[X], about 2m shift-and-XOR steps, with pow(a, 2^m - 2) as its
oracle.  Maps that are GF(2)-linear share one kernel: xor_span tables a
map on the span of its basis images by XOR doubling, _linear_tables uses
it for one table of the whole map up to m = 16 and one table per operand
half above, and _apply_linear applies the map as one table gather
(ndarray.take), or the XOR of two, so its tables stay in cache.
The Frobenius powers square_vec and pow2k_vec are such maps
(x -> x^(2^k), tables cached per k on the context, the k-th from k
squarings of the basis), for every m; so is multiplication by a
fixed element, which _powers uses to build the antilog g^0, g^1, ...
by doubling, its only use.  General bulk products come in three tiers
by degree.  For m <= 8, mul_vec is one gather from a uint8 product table
of 2^(2m) entries (64 KB at m = 8) at index (a << m) | b, built by the
same XOR doubling over the m rows X^i * b, so a small context holds that
one table and no log table.  For 9 <= m <= 24, mul_vec adds logs on a
lazily built log/antilog pair (uint32 antilog; int32 log).  Beyond 24 it
is the shift-and-XOR product, _mul_vec_raw.  pow_vec is
square-and-multiply over mul_vec at every m.

A pass over the field, or over any index space, that loops takes BLOCK
elements at a time: 256 KB of uint32, so its temporaries stay in cache.
Every module that blocks a pass imports it from here.

The default modulus for each degree is the lexicographically smallest
irreducible polynomial (smallest when the coefficient bit-vector is read
as an integer), e.g.

    m=1 : X + 1              -> 0x3
    m=2 : X^2 + X + 1        -> 0x7
    m=3 : X^3 + X + 1        -> 0xB
    m=4 : X^4 + X + 1        -> 0x13
    m=8 : X^8+X^4+X^3+X+1    -> 0x11B

The full table is MODULUS_TABLE below.  Any other irreducible polynomial
of the right degree can be supplied explicitly; all counting results are
isomorphism-invariant, the canonical choice only makes element values
reproducible bit-for-bit.

The integer helpers the field and the counting pipeline share live here
too: factorize (trial division) and coprime_residues.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .errors import InvalidParams, ZeroInput, ZeroInverse

# Lexicographically smallest irreducible polynomial of each degree 1..32,
# regenerable via smallest_irreducible() (asserted in the test suite).
MODULUS_TABLE: dict[int, int] = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
}

MAX_DEGREE = 32
BLOCK = 1 << 16  # elements per pass (see above); a power of two
# Product tiers of mul_vec: the full product table up to
# _PRODUCT_TABLE_DEGREE_LIMIT (2^(2m) uint8 entries, 64 KB at 8), the
# log/antilog pair up to _TABLE_DEGREE_LIMIT (~128 MB at 24), the
# shift-and-XOR product above.  Frobenius powers and Phi(m) use neither table.
_PRODUCT_TABLE_DEGREE_LIMIT = 8
_TABLE_DEGREE_LIMIT = 24
# A GF(2)-linear map of up to this many input bits is one table (256 KB at
# 16); a wider one is a table per operand half.
_WHOLE_TABLE_BITS = 16


# ---------------------------------------------------------------------------
# GF(2)[X] helpers (polynomials as bit vectors)
# ---------------------------------------------------------------------------

def _poly_mod(a: int, f: int) -> int:
    fb = f.bit_length()
    while a.bit_length() >= fb:
        a ^= f << (a.bit_length() - fb)
    return a


def _poly_mulmod(a: int, b: int, f: int) -> int:
    """a*b mod f in GF(2)[X]; operands already reduced mod f."""
    deg = f.bit_length() - 1
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
        if (b >> deg) & 1:
            b ^= f
    return r


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a = _poly_mod(a, b)
        a, b = b, a
    return a


def is_irreducible(f: int) -> bool:
    """Irreducibility of f over GF(2).

    A polynomial of degree m is irreducible iff it has no irreducible
    factor of degree <= m/2, i.e. gcd(X^(2^i) + X, f) = 1 for 1 <= i <= m/2.
    """
    m = f.bit_length() - 1
    if m < 1 or not (f & 1):
        return False
    x = 0b10
    cur = x
    for _ in range(m // 2):
        cur = _poly_mulmod(cur, cur, f)
        if _poly_gcd(cur ^ x, f) != 1:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree m."""
    c = (1 << m) | 1
    while not is_irreducible(c):
        c += 2
    return c


def irreducibles(m: int):
    """Yield the irreducible polynomials of degree m in ascending order."""
    c = (1 << m) | 1
    top = 1 << (m + 1)
    while c < top:
        if is_irreducible(c):
            yield c
        c += 2


def xor_span(imgs, out: np.ndarray) -> np.ndarray:
    """Fill out[x] = out[0] ^ (XOR of imgs[r] over the set bits r of x) for
    x < 2^len(imgs), in place, by doubling: out[2^r + x] = out[x] ^ imgs[r].

    With out[0] = 0 this is the table of the GF(2)-linear map with basis
    images imgs; a nonzero out[0] adds that constant to every entry.
    Images are ints or arrays broadcast against out[x], cast to out.dtype.
    """
    size = 1
    for img in imgs:
        np.bitwise_xor(out[:size], np.asarray(img, dtype=out.dtype), out=out[size:2 * size])
        size *= 2
    return out


def _linear_tables(imgs) -> tuple[np.ndarray, ...]:
    """The GF(2)-linear map L with basis images imgs[i] = L(X^i) as at most
    two uint32 tables: up to _WHOLE_TABLE_BITS images one table of the
    whole map, more images one table per operand half, the low half taking
    the odd image (2^11 entries each at m = 22, 2^16 at m = 32)."""
    n = len(imgs)
    halves = [imgs] if n <= _WHOLE_TABLE_BITS else [imgs[:(n + 1) // 2], imgs[(n + 1) // 2:]]
    return tuple(xor_span(h, np.zeros(1 << len(h), dtype=np.uint32)) for h in halves)


def _apply_linear(tables: tuple[np.ndarray, ...], a) -> np.ndarray:
    """L(a) for uint32 element arrays, 0-d arrays or ints: one table gather,
    or the XOR of a gather per operand half."""
    a = np.asarray(a, dtype=np.uint32)
    flat = a.reshape(-1)
    if len(tables) == 1:
        out = tables[0].take(flat)
    else:
        low, high = tables
        out = low.take(flat & np.uint32(low.size - 1))
        out ^= high.take(flat >> np.uint32(low.size.bit_length() - 1))
    return out.reshape(a.shape)


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """GF(2^m) under a fixed irreducible modulus.

    Immutable after construction; all operations are pure, so contexts may
    be shared freely across concurrent workers.
    """

    def __init__(self, m: int, modulus: int | None = None):
        if not 1 <= m <= MAX_DEGREE:
            raise InvalidParams(f"degree m={m} out of range 1..{MAX_DEGREE}")
        if modulus is None:
            modulus = MODULUS_TABLE[m]
        if modulus.bit_length() - 1 != m or not (modulus & 1):
            raise InvalidParams(
                f"modulus 0x{modulus:X} must have degree exactly {m} and constant term 1"
            )
        if not is_irreducible(modulus):
            raise InvalidParams(f"modulus 0x{modulus:X} is reducible over GF(2)")
        self.m = m
        self.modulus = modulus
        self.order = 1 << m
        self._frobenius_tables: dict[int, tuple[np.ndarray, ...]] = {}

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus=0x{self.modulus:X})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

    def contains(self, a: int) -> bool:
        return 0 <= a < self.order

    # -- scalar operations --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product in GF(2^m): shift-and-XOR with on-the-fly reduction."""
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> self.m) & 1:
                a ^= self.modulus
        return r

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply; e >= 0, with 0^0 = 1."""
        if e < 0:
            raise InvalidParams("pow exponent must be non-negative")
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def pow2k(self, a: int, k: int) -> int:
        """Frobenius power a^(2^(k mod m)); negative k means the inverse map."""
        for _ in range(k % self.m):
            a = self.mul(a, a)
        return a

    def inverse(self, a: int) -> int:
        """Multiplicative inverse, by the extended Euclidean algorithm in GF(2)[X]
        (Hankerson, Menezes & Vanstone, Guide to ECC, Alg. 2.48).

        Keeps g1 * a = u and g2 * a = v modulo f, from (u, v) = (a, f) and
        (g1, g2) = (1, 0).  Each step cancels the top term of u by v shifted
        up, after swapping the two rows when u is the shorter, so
        deg u + deg v falls by at least one: about 2m shift-and-XOR steps
        until u = 1, where g1 = a^-1.  pow(a, 2^m - 2) is its oracle.
        """
        if not 0 < a < self.order:
            if a == 0:
                raise ZeroInverse("zero has no multiplicative inverse")
            raise InvalidParams(f"inverse needs an element of GF(2^{self.m}), got {a}")
        u, v, g1, g2 = a, self.modulus, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v = v, u
                g1, g2 = g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def is_cube(self, a: int) -> bool:
        """Whether a is a third power.

        Cubing is a bijection when gcd(3, 2^m - 1) = 1 (m odd), so every
        nonzero element is a cube there; for even m the cubes are exactly
        the kernel of a -> a^((2^m-1)/3).
        """
        if a == 0:
            raise ZeroInput("is_cube is defined on nonzero elements")
        if self.m % 2:
            return True
        return self.pow(a, (self.order - 1) // 3) == 1

    # -- structure ----------------------------------------------------------

    @cached_property
    def generator(self) -> int:
        """Smallest generator of the multiplicative group."""
        n1 = self.order - 1
        if n1 == 1:
            return 1
        primes = [p for p, _ in factorize(n1)]
        g = 2
        while True:
            if all(self.pow(g, n1 // p) != 1 for p in primes):
                return g
            g += 1

    @cached_property
    def _logexp(self) -> tuple[np.ndarray, np.ndarray]:
        # antilog[i] = g^i for 0 <= i < 2^m - 1; log[0] = -1 sentinel.
        n1 = self.order - 1
        exp = self._powers(self.generator, n1)
        log = np.full(self.order, -1, dtype=np.int32)
        log[exp] = np.arange(n1, dtype=np.int32)
        return exp, log

    @cached_property
    def _products(self) -> np.ndarray:
        """products[(a << m) | b] = a*b as uint8, for m <= 8: row a is xor_span's
        doubling over the bits of a, the images being the rows X^i * b (all b)."""
        rows = [self.elements()]
        for _ in range(self.m - 1):
            rows.append(self.xtime_vec(rows[-1]))
        table = xor_span(rows, np.zeros((self.order, self.order), np.uint8)).reshape(-1)
        table.flags.writeable = False
        return table

    def _times(self, a, c: int) -> np.ndarray:
        """c*a for a fixed element c, as a linear map of a."""
        imgs = [c]
        for _ in range(self.m - 1):
            imgs.append(self.mul(imgs[-1], 2))
        return _apply_linear(_linear_tables(imgs), a)

    def _powers(self, c: int, n: int) -> np.ndarray:
        """c^0, c^1, ..., c^(n-1) as uint32, for n >= 1.

        Built by doubling: block i + 2^j is block i times c^(2^j).
        """
        out = np.empty(n, dtype=np.uint32)
        out[0] = 1
        size = 1
        while size < n:
            dst = out[size:2 * size]
            dst[...] = self._times(out[:dst.size], c)
            c, size = self.mul(c, c), 2 * size
        return out

    def _frobenius(self, a, k: int) -> np.ndarray:
        """a^(2^k) for 0 <= k < m, a linear map whose tables are built once per k:
        the squaring tables from m scalar squares of the basis, the others by
        applying the squaring tables k times to the basis."""
        if k not in self._frobenius_tables:
            if k == 1:
                imgs = [self.mul(1 << i, 1 << i) for i in range(self.m)]
            else:
                imgs = np.left_shift(np.uint32(1), np.arange(self.m, dtype=np.uint32))
                for _ in range(k):
                    imgs = self._frobenius(imgs, 1)
            self._frobenius_tables[k] = _linear_tables(imgs)
        return _apply_linear(self._frobenius_tables[k], a)

    # -- bulk (numpy) operations ---------------------------------------------
    #
    # Arguments are arrays of valid elements, 0-d arrays or Python ints;
    # results are uint32.  Frobenius powers are linear maps; mul_vec goes
    # through the product tiers named at _TABLE_DEGREE_LIMIT, and pow_vec
    # through mul_vec.  Every table lookup is an ndarray.take, which
    # gathers faster than fancy indexing does (numpy 2.4).  Logs are
    # int32: a sum of two stays below 2^25.

    def elements(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.uint32)

    def _mul_vec_raw(self, a, b) -> np.ndarray:
        """Bulk shift-and-XOR product; independent of the log tables."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.uint32), np.asarray(b, dtype=np.uint32))
        cur = a.copy()
        r = np.zeros_like(cur)
        for i in range(self.m):
            r ^= cur * ((b >> np.uint32(i)) & np.uint32(1))
            cur = self.xtime_vec(cur)
        return r

    def xtime_vec(self, a: np.ndarray) -> np.ndarray:
        """X*a for a uint32 element array: one shift-and-reduce step."""
        # reduce by the top bit read before the shift drops it, so m = 32 fits
        top, low = np.uint32(self.m - 1), np.uint32(self.modulus & 0xFFFFFFFF)
        return (a << np.uint32(1)) ^ (low * (a >> top))

    def mul_vec(self, a, b) -> np.ndarray:
        if self.m <= _PRODUCT_TABLE_DEGREE_LIMIT:
            a, b = np.asarray(a, dtype=np.uint32), np.asarray(b, dtype=np.uint32)
            return self._products.take((a << np.uint32(self.m)) | b).astype(np.uint32)
        if self.m > _TABLE_DEGREE_LIMIT:
            return self._mul_vec_raw(a, b)
        exp, log = self._logexp
        la, lb = log.take(a), log.take(b)
        return np.where((la < 0) | (lb < 0), np.uint32(0), exp.take((la + lb) % (self.order - 1)))

    def square_vec(self, a) -> np.ndarray:
        return self._frobenius(a, 1 % self.m)

    def pow2k_vec(self, a, k: int) -> np.ndarray:
        return self._frobenius(a, k % self.m)

    def pow_vec(self, a, e: int) -> np.ndarray:
        """a^e for e >= 0, with 0^0 = 1, by square-and-multiply over mul_vec."""
        if e < 0:
            raise InvalidParams("pow exponent must be non-negative")
        if e == 0:
            return np.ones(np.shape(a), dtype=np.uint32)
        base, r = np.array(a, dtype=np.uint32), None
        while True:
            if e & 1:
                r = base if r is None else self.mul_vec(r, base)
            e >>= 1
            if not e:
                return r
            base = self.mul_vec(base, base)


@lru_cache(maxsize=None)
def default_ctx(m: int) -> FieldCtx:
    """Shared context for degree m under the canonical modulus."""
    return FieldCtx(m)


def resolve_ctx(m: int, ctx: FieldCtx | None = None) -> FieldCtx:
    """ctx, or the default context of degree m when None; refuses another degree."""
    if ctx is None:
        return default_ctx(m)
    if ctx.m != m:
        raise InvalidParams(f"context degree {ctx.m} does not match m={m}")
    return ctx


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division (fine for n <= 10^6)."""
    if n < 1:
        raise InvalidParams("factorize needs n >= 1")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def coprime_residues(m: int) -> list[int]:
    """All k in (0, m) with gcd(k, m) = 1; [1] for m = 1 by convention."""
    if m == 1:
        return [1]
    return [k for k in range(1, m) if gcd(k, m) == 1]
