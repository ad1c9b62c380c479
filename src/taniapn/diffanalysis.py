"""Exhaustive differential analysis.

For a function f on an n-bit index space (XOR as addition), the spectrum
collects, over every nonzero input difference a and every output value b,
the number of solutions x of

    f(x + a) + f(x) = b.

Solutions pair up as x <-> x+a, so every count is even; summed over the
histogram the counts account for all (a, x) pairs, i.e. (2^n - 1) * 2^n.
f is APN exactly when no count exceeds 2.

Works on anything exposing dimension, is_quadratic, eval_packed_vec
(the kernel-rank path) and packed_table() (the generic scan, the only
reader of a full truth table): the bivariate families (n = 2m), truth
tables and the univariate Gold fixture alike.

Kernel-rank method.  When every coordinate of f has algebraic degree at
most 2 (all shipped families are quadratic), the map

    L_a(x) = f(x + a) + f(x) + f(a) + f(0)

is GF(2)-linear, and f(x + a) + f(x) = L_a(x) + f(a) + f(0).  With
d_a = dim ker L_a (always >= 1, since a is in the kernel), the derivative
takes 2^(n - d_a) values b with 2^d_a solutions each, and every other b
has none.  So f is APN iff d_a = 1 for all a != 0, and the whole histogram
follows from the d_a (Nyberg, EUROCRYPT 1993).  The d_a come from one
bit-packed Gaussian elimination (linmaps.kernel_dims) batched over a
chunk of a values, on the n x n matrices with rows L_a(e_j); that is
O(2^n n^2) work instead of O(2^(2n)).

The rows need no truth table.  L_a(x) is symmetric and bilinear in
(a, x), so one n x n form B[j, r] = L_(e_r)(e_j), read from f at the
1 + n + n(n-1)/2 points of weight <= 2 (linmaps.low_weight_points),
gives L_a(e_j) as the XOR of B[j, r] over the set bits r of a.  The a
values go in aligned chunks of _RANK_CHUNK = gf2m.BLOCK / 16, so the
n <= 16 rows of a chunk hold at most BLOCK entries; they are one
table over its low bits, built once by gf2m.xor_span, XOR one column
from the chunk's high bits.  The first chunk holds a = 0 (L_0 = 0,
d = n), which its counts leave out.  The elimination works in place on
the chunk's rows and one scratch array.

Which path runs is decided by f.is_quadratic (families): the family
members declare it, and a truth table reads it from its algebraic normal
form.  Tables of higher degree (a saved truth table can hold anything)
go through the generic scan, which buckets f(x + a) + f(x) over all x
for every a.  That scan is also the oracle the kernel-rank path is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import TooLarge
from .gf2m import BLOCK, xor_span
from .linmaps import kernel_dims, low_weight_points, pair_indices

_SCAN_BITS_LIMIT = 16  # the generic scan is 2^(2n) work; capped at n = 16
# a values per batched elimination, a power of 2: the n x chunk row matrix
# holds at most BLOCK entries
_RANK_CHUNK = BLOCK // _SCAN_BITS_LIMIT


@dataclass(frozen=True)
class DifferentialSpectrum:
    """Histogram of solution counts over all (a != 0, b) pairs."""

    n: int
    uniformity: int
    histogram: dict[int, int]  # solution count -> number of (a, b) attaining it

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "uniformity": self.uniformity,
            "histogram": {str(c): f for c, f in sorted(self.histogram.items())},
        }


def _bilinear_form(f, n: int) -> np.ndarray:
    """B[j, r] = L_(e_r)(e_j) = f(e_j + e_r) + f(e_j) + f(e_r) + f(0), from f
    at the points of weight <= 2; f quadratic, so B is symmetric with a
    zero diagonal.  Entries fit the smallest unsigned type holding 2^n - 1."""
    vals = f.eval_packed_vec(low_weight_points(n))
    lin = vals[1:n + 1] ^ vals[0]  # f(e_j) + f(0)
    i, j = pair_indices(n)
    form = np.zeros((n, n), dtype=np.min_scalar_type((1 << n) - 1))
    form[i, j] = form[j, i] = vals[n + 1:] ^ lin[i] ^ lin[j] ^ vals[0]
    return form


def _generic_histograms(tab: np.ndarray, n: int) -> Iterator[dict[int, int]]:
    """Per nonzero a, {count: number of b} by bucketing f(x+a)+f(x) over all x."""
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    for a in range(1, size):
        counts = np.bincount(tab[idx ^ np.uint32(a)] ^ tab, minlength=size)
        freqs = np.bincount(counts)
        yield {int(c): int(freqs[c]) for c in np.flatnonzero(freqs)}


def _histograms(f) -> Iterator[dict[int, int]]:
    """Partial histograms over groups of nonzero a; their sum is the spectrum."""
    n = f.dimension
    if n > _SCAN_BITS_LIMIT:
        raise TooLarge(f"differential scan capped at n={_SCAN_BITS_LIMIT} (got n={n})")
    if not f.is_quadratic:
        yield from _generic_histograms(f.packed_table(), n)
        return
    size = 1 << n
    form = _bilinear_form(f, n)
    t = min(n, _RANK_CHUNK.bit_length() - 1)
    # low[j, a] = L_a(e_j) for a < 2^t: each row j contiguous for the elimination
    low = np.zeros((n, 1 << t), dtype=form.dtype)
    xor_span(form.T[:t], low.T)
    rows, scratch = np.empty_like(low), np.empty_like(low)
    for lo in range(0, size, 1 << t):
        # L_(lo + a) = L_lo + L_a: the high bits of lo give one column
        high = np.bitwise_xor.reduce(form[:, [r for r in range(t, n) if lo >> r & 1]], axis=1)
        np.bitwise_xor(low, high[:, None], out=rows)
        dims = np.bincount(kernel_dims(rows, scratch), minlength=n + 1)
        if lo == 0:
            dims[n] -= 1  # a = 0, where L_0 = 0
        part = {0: 0}
        for d in np.flatnonzero(dims):
            d, num_a = int(d), int(dims[d])
            part[1 << d] = num_a << (n - d)
            part[0] += num_a * (size - (1 << (n - d)))
        yield part


def differential_spectrum(f) -> DifferentialSpectrum:
    """Full histogram; asserts evenness and mass conservation before returning."""
    hist: dict[int, int] = {}
    for part in _histograms(f):
        for c, fr in part.items():
            hist[c] = hist.get(c, 0) + fr
    uniformity = max(hist)
    size = 1 << f.dimension

    assert all(c % 2 == 0 for c in hist), "odd solution count in characteristic 2"
    mass = sum(c * fr for c, fr in hist.items())
    assert mass == (size - 1) * size, "histogram mass mismatch"
    assert uniformity >= 2

    return DifferentialSpectrum(n=f.dimension, uniformity=uniformity, histogram=hist)


def is_apn(f) -> bool:
    """Uniformity == 2, stopping at the first group of a with a larger count."""
    return all(max(part) <= 2 for part in _histograms(f))
