"""Seeded operation lists, one per workload.

A workload's list has a fixed make-up (how many operations of each kind,
at which sizes); the seed only picks the parameters inside each kind and
the order.  That keeps the cost of a round nearly the same from seed to
seed while the inputs still change.  Every parameter is chosen with the
benchmark's own arithmetic (refcheck), never with taniapn.

An operation is a dict:
    argv   CLI arguments for taniapn.cli.main, or
    lib    [m, k, alpha, beta] for taniapn.count_monomial_el_automorphisms
    cold   clear the default field-context cache first, as a fresh CLI
           process would start
    check  the refcheck.CHECKS key, plus that check's own fields
"""

from __future__ import annotations

import random
from math import gcd

import refcheck as rc

WORKLOADS = ("scan", "witness", "enumerate")

# Field degrees whose contexts every operation of the workload reuses;
# set-up builds them, as a long-lived caller would have them built.
WARM = {"scan": [4, 5, 6, 7, 9, 11, 13], "witness": [5, 6, 7, 8, 9, 10], "enumerate": []}


def _coprime(rng: random.Random, m: int, below: float | None = None) -> int:
    top = m if below is None else below
    return rng.choice([k for k in range(1, m) if gcd(k, m) == 1 and k < top])


def _nonzero(rng: random.Random, m: int) -> int:
    return rng.randrange(1, 1 << m)


def _hex(v: int) -> str:
    return f"{v:X}"


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _taniguchi_member(rng, m: int, apn: bool, alpha_zero: bool = False):
    while True:
        k = _coprime(rng, m)
        alpha = 0 if alpha_zero else rng.randrange(0 if not apn else 1, 1 << m)
        beta = _nonzero(rng, m)
        if (rc.trinomial_roots(m, k, alpha, beta) == 0) == apn:
            return ["taniguchi", "--m", str(m), "--k", str(k),
                    "--alpha", _hex(alpha), "--beta", _hex(beta)]


def _is_cube(m: int, a: int) -> bool:
    return m % 2 == 1 or rc.field(m).pow(a, ((1 << m) - 1) // 3) == 1


def _pott_zhou_member(rng, m: int, apn: bool):
    while True:
        k = _coprime(rng, m)
        s = rng.randrange(0, m + 1)
        alpha = _nonzero(rng, m)
        if (s % 2 == 0 and not _is_cube(m, alpha)) == apn:
            return ["pott-zhou", "--m", str(m), "--k", str(k), "--s", str(s),
                    "--alpha", _hex(alpha)]


def _scan_op(cmd: str, family: list[str], n: int, apn: bool) -> dict:
    argv = ["--format", "json", cmd] + family + (["--exhaustive"] if cmd == "check-apn" else [])
    return {"argv": argv, "check": "scan", "cmd": cmd, "n": n, "apn": apn}


def scan_ops(rng: random.Random) -> list[dict]:
    ops = []
    # Taniguchi members on GF(2^(2m)), 2m = 10, 12, 14: (check APN, check
    # non-APN, spectrum APN, spectrum non-APN) counts per m.  The four
    # 2m=10 spectra sit in the middle of a round's sorted operation times,
    # so the median operation is one of them on every seed.
    for m, counts in ((5, (2, 1, 2, 2)), (6, (2, 1, 1, 1)), (7, (1, 2, 1, 0))):
        for cmd, apn, count in (("check-apn", True, counts[0]), ("check-apn", False, counts[1]),
                                ("spectrum", True, counts[2]), ("spectrum", False, counts[3])):
            for j in range(count):
                # one APN member per even m has alpha = 0 (beta a non-cube)
                zero = apn and m % 2 == 0 and cmd == "check-apn" and j == 0
                ops.append(_scan_op(cmd, _taniguchi_member(rng, m, apn, zero), 2 * m, apn))
    for m in (4, 6):
        ops.append(_scan_op("check-apn", _pott_zhou_member(rng, m, True), 2 * m, True))
        ops.append(_scan_op("check-apn", _pott_zhou_member(rng, m, False), 2 * m, False))
        ops.append(_scan_op("spectrum", _pott_zhou_member(rng, m, True), 2 * m, True))
    for n in (9, 11, 13):
        for cmd in ("check-apn", "spectrum"):
            gold = ["gold", "--n", str(n), "--i", str(_coprime(rng, n))]
            ops.append(_scan_op(cmd, gold, n, True))  # Gold: gcd(i, n) = 1 is APN
    return ops


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def _class_member(rng, m: int, k_star: int, gamma: int) -> list[int]:
    """A member of the class of f_{k*,1,gamma}: k* or m-k*, a Frobenius
    twist of gamma, then a random alpha (beta = gamma' * alpha^(2^(m-k)+1))."""
    F = rc.field(m)
    k = rng.choice([k_star, m - k_star])
    alpha = _nonzero(rng, m)
    beta = F.mul(F.frob(gamma, rng.randrange(m)), F.pow(alpha, (1 << (m - k)) + 1))
    return [k, alpha, beta]


def _random_class(rng, m: int) -> tuple[int, int]:
    k_star = _coprime(rng, m, below=m / 2)
    return k_star, int(rng.choice(rc.phi(m, k_star)))


def _witness_op(m: int, src: list[int], dst: list[int]) -> dict:
    same = rc.canonical_triple(m, *src) == rc.canonical_triple(m, *dst)
    spec = lambda p: f"{m},{p[0]},{_hex(p[1])},{_hex(p[2])}"  # noqa: E731
    return {"argv": ["--format", "json", "witness", "--from", spec(src), "--to", spec(dst)],
            "check": "witness", "m": m, "src": src, "dst": dst, "equivalent": same}


def witness_ops(rng: random.Random) -> list[dict]:
    ops = []
    # Same-class pairs per m.  The four m=8 pairs sit in the middle of a
    # round's sorted operation times, so the median operation is one of
    # them on every seed.
    for m, count in ((5, 2), (6, 2), (7, 2), (8, 4), (9, 2), (10, 2)):
        for _ in range(count):
            k_star, gamma = _random_class(rng, m)
            src = _class_member(rng, m, k_star, gamma)
            ops.append(_witness_op(m, src, _class_member(rng, m, k_star, gamma)))
            if not ops[-1]["equivalent"]:
                raise AssertionError(f"derived pair left its class: {ops[-1]['argv']}")
    for m in (6, 7, 8, 9):
        while True:
            op = _witness_op(m, _class_member(rng, m, *_random_class(rng, m)),
                             _class_member(rng, m, *_random_class(rng, m)))
            if not op["equivalent"]:
                ops.append(op)
                break
    for m in (5, 5, 6, 6, 7, 7):
        k = _coprime(rng, m)
        beta = int(rng.choice(rc.phi(m, k)))
        ops.append({"lib": [m, k, 1, beta], "check": "aut", "m": m, "beta": beta})
    return ops


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def enumerate_ops(rng: random.Random) -> list[dict]:
    ops = []
    for fmt, ms in (("json", range(16, 23)), ("csv", (12, 14))):
        for m in ms:
            k = _coprime(rng, m)
            ops.append({"argv": ["--format", fmt, "enumerate-beta", "--m", str(m), "--k", str(k)],
                        "check": "enumerate", "m": m, "k": k, "format": fmt})
    for m in (16, 20):
        ops.append({"argv": ["--format", "json", "classes", "--m", str(m)],
                    "check": "classes", "m": m})
    for m_max in (18, 20):
        ops.append({"argv": ["--format", "json", "audit", "--m-max", str(m_max)],
                    "check": "audit", "m_max": m_max})
    for op in ops:
        op["cold"] = True
    return ops


def build(workload: str, seed: int) -> list[dict]:
    """The workload's operation list for this seed, in its seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    ops = {"scan": scan_ops, "witness": witness_ops, "enumerate": enumerate_ops}[workload](rng)
    rng.shuffle(ops)
    return ops
