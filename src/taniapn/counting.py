"""Closed-form counting pipeline M(m) -> N(m) -> b(m) -> n(m) -> lower bound.

All quantities are exact integers (Python ints; values reach 2^100 scale):

    M(m) = |Phi(m)| = (2^m + (-1)^(m+1)) / 3

    N(m) = #{beta in Phi(m) : beta lies in no proper subfield}
         = (2^m + 1)/3                       if m = 3^n0
         = (sum over squarefree products d of the prime divisors != 3:
              (-1)^omega(d) 2^(m/d)  - eps) / 3   otherwise,
           eps = 2 iff exactly one prime != 3 divides m and m = 2 mod 4

    b(m) = sum over divisors m' of m with 3 not dividing m/m' of N(m')/m'
           (the Frobenius-orbit count of Phi(m))

    n(m) = phi(m) b(m) / 2        (m odd)     number of inequivalent
         = phi(m) (b(m) + 1) / 2  (m even)    family members
    n(m) >= phi(m)/2 * ceil((2^m + 1) / (3m))

m = 2 is special-cased: there is a single function up to equivalence, so
both n(2) and the bound are reported as 1.

The oracle_* functions take the enumerated Phi(m) they check (a
poly_roots.BetaSet, which carries its field) and recompute N and b from
the literal definitions (remove subfield elements, walk orbits); they
exist solely to validate the formulas and share no code path with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidParams, NonIntegralOrbitCount, TooLarge
from .gf2m import factorize
from .poly_roots import BetaSet, frobenius_orbits

ORACLE_DEGREE_LIMIT = 24


# ---------------------------------------------------------------------------
# Integer helpers
# ---------------------------------------------------------------------------

def euler_phi(n: int) -> int:
    r = n
    for p, _ in factorize(n):
        r = r // p * (p - 1)
    return r


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def capital_m(m: int) -> int:
    """M(m) = (2^m + (-1)^(m+1)) / 3, the size of Phi(m)."""
    if m < 1:
        raise InvalidParams("capital_m needs m >= 1")
    v = (1 << m) + (-1) ** (m + 1)
    assert v % 3 == 0
    return v // 3


def epsilon(m: int) -> int:
    """Inclusion-exclusion correction: 2 iff t = 1 and m = 2 (mod 4)."""
    primes = [p for p, _ in factorize(m) if p != 3]
    return 2 if (len(primes) == 1 and m % 4 == 2) else 0


def capital_n(m: int) -> int:
    """N(m): admissible beta lying in no proper subfield of GF(2^m)."""
    if m < 1:
        raise InvalidParams("capital_n needs m >= 1")
    primes = [p for p, _ in factorize(m) if p != 3]
    t = len(primes)
    if t == 0:
        v = (1 << m) + 1
        assert v % 3 == 0
        return v // 3
    total = 0
    for r in range(t + 1):
        for sub in combinations(primes, r):
            d = 1
            for p in sub:
                d *= p
            total += (-1) ** r * (1 << (m // d))
    total -= epsilon(m)
    assert total % 3 == 0
    return total // 3


def b_orbits(m: int) -> int:
    """b(m) = sum of N(m')/m' over divisors m' of m with 3 not dividing m/m'."""
    if m < 1:
        raise InvalidParams("b_orbits needs m >= 1")
    total = 0
    for mp in divisors(m):
        if (m // mp) % 3 != 0:
            q, r = divmod(capital_n(mp), mp)
            if r:
                raise NonIntegralOrbitCount(f"N({mp})={capital_n(mp)} not divisible by {mp}")
            total += q
    return total


def n_taniguchi(m: int) -> int:
    """Number of inequivalent family members on GF(2^(2m)).

    m = 2 returns 1 (single class; the counting theorem starts at m = 3).
    """
    if m < 2:
        raise InvalidParams("n_taniguchi needs m >= 2")
    if m == 2:
        return 1
    b = b_orbits(m)
    if m % 2:
        return euler_phi(m) * b // 2
    return euler_phi(m) * (b + 1) // 2


def lower_bound(m: int) -> int:
    """phi(m)/2 * ceil((2^m+1)/(3m)); reported as 1 at m = 2 (table value)."""
    if m < 2:
        raise InvalidParams("lower_bound needs m >= 2")
    if m == 2:
        return 1
    return euler_phi(m) // 2 * _ceil_div((1 << m) + 1, 3 * m)


# ---------------------------------------------------------------------------
# Brute-force oracles (definition-level recomputation, no shared code path)
# ---------------------------------------------------------------------------

def oracle_capital_n(phi: BetaSet) -> int:
    """N(m) from Phi(m): drop beta with beta^(2^m') = beta for a proper divisor m'."""
    if phi.m > ORACLE_DEGREE_LIMIT:
        raise TooLarge(f"oracles capped at m={ORACLE_DEGREE_LIMIT}")
    arr = phi.elements
    in_proper_subfield = np.zeros(arr.shape, dtype=bool)
    for mp in divisors(phi.m)[:-1]:  # proper divisors; the last is m
        in_proper_subfield |= phi.ctx.pow2k_vec(arr, mp) == arr
    return int((~in_proper_subfield).sum())


def oracle_b(phi: BetaSet) -> int:
    """b(m) by direct orbit decomposition of Phi(m)."""
    if phi.m > ORACLE_DEGREE_LIMIT:
        raise TooLarge(f"oracles capped at m={ORACLE_DEGREE_LIMIT}")
    return len(frobenius_orbits(phi))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_HEADER = ("m", "M", "N", "b", "n", "bound")


@dataclass(frozen=True)
class CountReport:
    """Full pipeline output for one m; all entries exact."""

    m: int
    capital_m: int
    capital_n: int
    b: int
    n_taniguchi: int
    lower_bound: int
    epsilon: int
    factorization: list[tuple[int, int]] = field(default_factory=list)
    note: str | None = None

    def to_json(self) -> dict:
        data = {
            "m": self.m,
            "M": self.capital_m,
            "N": self.capital_n,
            "b": self.b,
            "n": self.n_taniguchi,
            "bound": self.lower_bound,
            "epsilon": self.epsilon,
            "factorization": [[p, e] for p, e in self.factorization],
        }
        if self.note:
            data["note"] = self.note
        return data

    def csv_row(self) -> tuple:
        return (self.m, self.capital_m, self.capital_n, self.b,
                self.n_taniguchi, self.lower_bound)


def count_report(m: int) -> CountReport:
    """Run the whole closed-form pipeline for one m."""
    if m < 2:
        raise InvalidParams("count_report needs m >= 2")
    note = "m=2: single equivalence class; n and bound are the documented special case" \
        if m == 2 else None
    report = CountReport(
        m=m,
        capital_m=capital_m(m),
        capital_n=capital_n(m),
        b=b_orbits(m),
        n_taniguchi=n_taniguchi(m),
        lower_bound=lower_bound(m),
        epsilon=epsilon(m),
        factorization=factorize(m),
        note=note,
    )
    assert report.n_taniguchi >= report.lower_bound
    return report
