"""Exhaustive differential analysis.

For a function f on an n-bit index space (XOR as addition), the spectrum
collects, over every nonzero input difference a and every output value b,
the number of solutions x of

    f(x + a) + f(x) = b.

Solutions pair up as x <-> x+a, so every count is even; summed over the
histogram the counts account for all (a, x) pairs, i.e. (2^n - 1) * 2^n.
f is APN exactly when no count exceeds 2.

Works on anything exposing packed_table(), dimension and is_quadratic:
the bivariate families (n = 2m), truth tables and the univariate Gold
fixture alike.

Kernel-rank method.  When every coordinate of f has algebraic degree at
most 2 (all shipped families are quadratic), the map

    L_a(x) = f(x + a) + f(x) + f(a) + f(0)

is GF(2)-linear, and f(x + a) + f(x) = L_a(x) + f(a) + f(0).  With
d_a = dim ker L_a (always >= 1, since a is in the kernel), the derivative
takes 2^(n - d_a) values b with 2^d_a solutions each, and every other b
has none.  So f is APN iff d_a = 1 for all a != 0, and the whole histogram
follows from the d_a (Nyberg, EUROCRYPT 1993).  The d_a come from one
bit-packed Gaussian elimination batched over a chunk of a values, on the
n x n matrices with rows L_a(e_j); that is O(2^n n^2) work instead of
O(2^(2n)).

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

_SCAN_BITS_LIMIT = 16  # the generic scan is 2^(2n) work; capped at n = 16
_RANK_CHUNK = 1 << 12  # a values per batched elimination; bounds peak memory


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


def _checked_table(f) -> tuple[np.ndarray, int]:
    n = f.dimension
    if n > _SCAN_BITS_LIMIT:
        raise TooLarge(f"differential scan capped at n={_SCAN_BITS_LIMIT} (got n={n})")
    return f.packed_table(), n


def _kernel_dims(tab: np.ndarray, n: int, lo: int, hi: int) -> np.ndarray:
    """d_a = dim ker L_a for a in [lo, hi); tab must be quadratic."""
    a = np.arange(lo, hi, dtype=np.uint32)
    e = np.uint32(1) << np.arange(n, dtype=np.uint32)[:, None]
    rows = tab[a ^ e] ^ tab[a] ^ tab[e] ^ tab[0]  # rows[j, a] = L_a(e_j)
    rows = rows.astype(np.min_scalar_type((1 << n) - 1))
    rank = np.zeros(hi - lo, dtype=np.intp)
    # Eliminate from the top bit down.  Before step `bit` every row is below
    # 2^(bit+1), so the largest row is a pivot iff it reaches 2^bit, and
    # min(r, r ^ pivot) clears the bit in exactly the rows that hold it
    # (the pivot row itself drops to 0).
    for bit in reversed(range(n)):
        pivot = rows.max(axis=0)
        pivot[pivot < (1 << bit)] = 0
        np.minimum(rows, rows ^ pivot, out=rows)
        rank += pivot != 0
    return n - rank


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
    tab, n = _checked_table(f)
    size = 1 << n
    if not f.is_quadratic:
        yield from _generic_histograms(tab, n)
        return
    for lo in range(1, size, _RANK_CHUNK):
        dims = np.bincount(_kernel_dims(tab, n, lo, min(lo + _RANK_CHUNK, size)),
                           minlength=n + 1)
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
