"""Reference arithmetic and output checks for the benchmark.

Nothing here imports taniapn: the field, the trinomial root counts,
Phi(m), Frobenius orbits, GF(2) rank and the witness identity are all
recomputed from their definitions, so a check can only pass when the
program and this independent computation agree.

Each check_* function takes what the benchmark knows about an operation
(op) plus the program's exit code and printed output, and returns a list
of problems (empty when the output is correct); output of the wrong shape
may raise KeyError, IndexError, TypeError or ValueError instead.
"""

from __future__ import annotations

import json
from functools import cache
from math import gcd

import numpy as np

# ---------------------------------------------------------------------------
# GF(2^m) by shift-and-XOR
# ---------------------------------------------------------------------------


def _poly_rem(a: int, g: int) -> int:
    gb = g.bit_length()
    while a.bit_length() >= gb:
        a ^= g << (a.bit_length() - gb)
    return a


def is_irreducible(f: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(f)/2."""
    deg = f.bit_length() - 1
    if deg < 1:
        return False
    for g in range(2, 1 << (deg // 2 + 1)):
        if _poly_rem(f, g) == 0:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    """Smallest irreducible polynomial of degree m with constant term 1,
    read as a bit vector."""
    f = (1 << m) | 1
    while not is_irreducible(f):
        f += 2
    return f


class Field:
    """GF(2^m) modulo smallest_irreducible(m)."""

    def __init__(self, m: int):
        self.m = m
        self.mod = smallest_irreducible(m)
        self.order = 1 << m
        self._frob_bytes: dict[int, list[np.ndarray]] = {}

    def mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.mod
        return r

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def frob(self, a: int, i: int) -> int:
        """a^(2^i)."""
        for _ in range(i % self.m):
            a = self.mul(a, a)
        return a

    def inv(self, a: int) -> int:
        return self.pow(a, self.order - 2)

    def orbit(self, a: int) -> list[int]:
        out = [a]
        cur = self.mul(a, a)
        while cur != a:
            out.append(cur)
            cur = self.mul(cur, cur)
        return out

    # -- vectorised forms (int64 arrays) ------------------------------------

    def vmul(self, a, b) -> np.ndarray:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(b, dtype=np.int64))
        a = a.copy()
        r = np.zeros_like(a)
        for i in range(self.m):
            r ^= np.where((b >> i) & 1, a, 0)
            a <<= 1
            a ^= np.where(a >> self.m, self.mod, 0)
        return r

    def vfrob(self, a, i: int) -> np.ndarray:
        """a^(2^i) as a GF(2)-linear map, looked up one byte at a time."""
        i %= self.m
        if i not in self._frob_bytes:
            imgs = [self.frob(1 << j, i) for j in range(self.m)]
            tables = []
            for lo in range(0, self.m, 8):
                tab = np.zeros(1, dtype=np.int64)
                for img in imgs[lo:lo + 8]:
                    tab = np.concatenate([tab, tab ^ img])
                tables.append(tab)
            self._frob_bytes[i] = tables
        a = np.asarray(a, dtype=np.int64)
        r = np.zeros_like(a)
        for n, tab in enumerate(self._frob_bytes[i]):
            r ^= tab[(a >> (8 * n)) & (tab.size - 1)]
        return r

    def orbit_min_len(self, a) -> tuple[np.ndarray, np.ndarray]:
        """Per element: smallest member and length of its Frobenius orbit."""
        a = np.asarray(a, dtype=np.int64)
        low = a.copy()
        length = np.zeros_like(a)
        cur = a
        for j in range(1, self.m + 1):
            cur = self.vfrob(cur, 1)
            np.minimum(low, cur, out=low)
            length[(length == 0) & (cur == a)] = j
        return low, length


@cache
def field(m: int) -> Field:
    return Field(m)


# ---------------------------------------------------------------------------
# Trinomials, Phi(m), orbits, counts
# ---------------------------------------------------------------------------


def trinomial_roots(m: int, k: int, alpha: int, beta: int) -> int:
    """Number of x in GF(2^m) with x^(2^k+1) + alpha*x + beta = 0."""
    F = field(m)
    x = np.arange(F.order, dtype=np.int64)
    vals = F.vmul(F.vfrob(x, k), x) ^ F.vmul(x, alpha) ^ beta
    return int(np.count_nonzero(vals == 0))


@cache
def phi(m: int, k: int) -> np.ndarray:
    """Sorted Phi(m): the complement of the image of x -> x^(2^k+1) + x."""
    F = field(m)
    x = np.arange(F.order, dtype=np.int64)
    hit = np.zeros(F.order, dtype=bool)
    hit[F.vmul(F.vfrob(x, k), x) ^ x] = True
    return np.flatnonzero(~hit)


def phi_size(m: int) -> int:
    return ((1 << m) + (-1) ** (m + 1)) // 3


def euler_phi(n: int) -> int:
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


# n(m), the number of inequivalent members, from the paper's table (m = 3..20).
PAPER_N = {3: 1, 4: 3, 5: 6, 6: 5, 7: 21, 8: 26, 9: 57, 10: 74, 11: 315, 12: 234,
           13: 1266, 14: 1185, 15: 2916, 16: 5492, 17: 20568, 18: 14595,
           19: 82791, 20: 69988}


def class_count(m: int) -> int:
    """n(m) = phi(m) b(m) / 2 (m odd), phi(m) (b(m) + 1) / 2 (m even), with
    b(m) the number of Frobenius orbits of Phi(m), counted here."""
    elements = phi(m, 1)
    low, _ = field(m).orbit_min_len(elements)
    b = int(np.count_nonzero(low == elements))
    return euler_phi(m) * (b + (m + 1) % 2) // 2


def normalized_beta(m: int, k: int, alpha: int, beta: int) -> int:
    """beta / alpha^(2^(m-k)+1): the beta of the alpha = 1 member in the class."""
    F = field(m)
    return F.mul(beta, F.inv(F.pow(alpha, (1 << (m - k)) + 1)))


def canonical_triple(m: int, k: int, alpha: int, beta: int) -> tuple[int, int, int]:
    """(min(k, m-k), 1, orbit minimum of the normalized beta), alpha != 0."""
    return (min(k, m - k), 1, min(field(m).orbit(normalized_beta(m, k, alpha, beta))))


def gf2_rank(vectors) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _load(out: str):
    try:
        data = json.loads(out)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    return (data, []) if isinstance(data, dict) else (None, ["output is not a JSON object"])


def _spectrum_problems(hist: dict[int, int], n: int, apn: bool) -> list[str]:
    bad = []
    if any(c % 2 for c in hist):
        bad.append("odd solution count")
    if any(c and c & (c - 1) for c in hist):
        bad.append("a solution count is not 0 or a power of two")
    if sum(c * f for c, f in hist.items()) != ((1 << n) - 1) << n:
        bad.append("histogram mass is not (2^n-1)*2^n")
    half = ((1 << n) - 1) << (n - 1)
    if apn and hist != {0: half, 2: half}:
        bad.append(f"APN histogram is {hist}, not {{0: {half}, 2: {half}}}")
    if not apn and max(hist) <= 2:
        bad.append("non-APN member has uniformity 2")
    return bad


def check_scan(op: dict, code, out: str) -> list[str]:
    """op: {"cmd": "check-apn"|"spectrum", "n": 2m or n, "apn": expected}."""
    data, bad = _load(out)
    if bad:
        return bad
    apn = op["apn"]
    if op["cmd"] == "check-apn":
        if code != (0 if apn else 3):
            bad.append(f"exit code {code}, expected {0 if apn else 3}")
        for key in ("criterion_apn", "scan_apn"):
            if data.get(key) is not apn:
                bad.append(f"{key} = {data.get(key)!r}, expected {apn}")
        return bad
    if code != 0:
        bad.append(f"exit code {code}, expected 0")
    if data.get("n") != op["n"]:
        bad.append(f"n = {data.get('n')!r}, expected {op['n']}")
    hist = {int(c): int(f) for c, f in data.get("histogram", {}).items()}
    if not hist:
        return bad + ["empty histogram"]
    if data.get("uniformity") != max(c for c, f in hist.items() if f):
        bad.append("uniformity is not the largest count")
    return bad + _spectrum_problems(hist, op["n"], apn)


def taniguchi_eval(m: int, k: int, alpha: int, beta: int, x: int, y: int) -> int:
    """Packed f_{k,alpha,beta}(x, y) = (x^(2^2k(2^k+1)) + a x^(2^2k) y^(2^k) + b y^(2^k+1), xy)."""
    F = field(m)
    x2k = F.frob(x, 2 * k)
    yk = F.frob(y, k)
    f1 = F.mul(F.frob(x, 3 * k), x2k) ^ F.mul(alpha, F.mul(x2k, yk)) ^ F.mul(beta, F.mul(yk, y))
    return (f1 << m) | F.mul(x, y)


def _lin(F: Field, coeffs: list[int], x: int) -> int:
    r = 0
    for i, c in enumerate(coeffs):
        if c:
            r ^= F.mul(c, F.frob(x, i))
    return r


def _pair_images(F: Field, blocks) -> list[int]:
    """Images of the 2m packed basis vectors under (a(x)+b(y), c(x)+d(y))."""
    a, b, c, d = blocks
    m = F.m
    imgs = []
    for j in range(2 * m):
        x, y = (1 << j) >> m, (1 << j) & ((1 << m) - 1)
        imgs.append(((_lin(F, a, x) ^ _lin(F, b, y)) << m) | (_lin(F, c, x) ^ _lin(F, d, y)))
    return imgs


def _apply(imgs: list[int], v: int) -> int:
    r = 0
    for j, img in enumerate(imgs):
        if v >> j & 1:
            r ^= img
    return r


def check_witness(op: dict, code, out: str) -> list[str]:
    """op: {"m", "src": [k, a, b], "dst": [k, a, b], "equivalent": bool}.

    An equivalent pair needs exit 0 and a witness (L, N, M) with L and N
    bijective and h = f_src o L + N o f_dst + M zero on every point of
    Hamming weight <= 2; h has degree <= 2, so that makes h zero everywhere.
    """
    data, bad = _load(out)
    if bad:
        return bad
    if not op["equivalent"]:
        if code != 3:
            bad.append(f"exit code {code}, expected 3")
        if data != {"equivalent": False, "witness": None}:
            bad.append(f"inequivalent pair printed {data}")
        return bad
    if code != 0:
        bad.append(f"exit code {code}, expected 0")
    w = data.get("witness")
    if data.get("verified") is not True or not isinstance(w, dict):
        return bad + ["no verified witness"]
    m = op["m"]
    F = field(m)
    h = lambda v: [int(c, 16) for c in v]  # noqa: E731
    l_imgs = _pair_images(F, (h(w["l_a"]["x"]), h(w["l_a"]["y"]),
                              h(w["l_b"]["x"]), h(w["l_b"]["y"])))
    n_imgs = _pair_images(F, (h(w["n1"]), h(w["n3"]), h(w["n2"]), h(w["n4"])))
    m_imgs = _pair_images(F, (h(w["m_a"]["x"]), h(w["m_a"]["y"]),
                              h(w["m_b"]["x"]), h(w["m_b"]["y"])))
    if gf2_rank(l_imgs) != 2 * m:
        bad.append("L is not bijective")
    if gf2_rank(n_imgs) != 2 * m:
        bad.append("N is not bijective")
    mask = (1 << m) - 1
    points = [0] + [1 << i for i in range(2 * m)]
    points += [(1 << i) | (1 << j) for i in range(2 * m) for j in range(i)]
    for v in points:
        lv = _apply(l_imgs, v)
        left = taniguchi_eval(m, *op["src"], lv >> m, lv & mask)
        g = taniguchi_eval(m, *op["dst"], v >> m, v & mask)
        if left != _apply(n_imgs, g) ^ _apply(m_imgs, v):
            return bad + [f"f(L(v)) != N(g(v)) + M(v) at v=0x{v:X}"]
    return bad


def check_aut(op: dict, code, out: str) -> list[str]:
    """op: {"m", "beta"}; alpha = 1, so the count is m(2^m-1)/d, d = |orbit(beta)|."""
    m = op["m"]
    want = m * ((1 << m) - 1) // len(field(m).orbit(op["beta"]))
    bad = [] if code == 0 else [f"exit code {code}, expected 0"]
    return bad + ([] if out.strip() == str(want) else [f"count {out.strip()!r}, expected {want}"])


def check_orbits(m: int, phi_ref: np.ndarray, orbits: list[tuple[int, int]]) -> list[str]:
    """Each representative is its orbit's minimum and lies in Phi, each length
    is the orbit's length and divides m, the lengths sum to |Phi|."""
    bad = []
    if not orbits:
        return ["no orbits"]
    reps = np.array([r for r, _ in orbits], dtype=np.int64)
    lengths = np.array([n for _, n in orbits], dtype=np.int64)
    low, true_len = field(m).orbit_min_len(reps)
    if np.unique(reps).size != reps.size:
        bad.append("repeated representative")
    if not np.isin(reps, phi_ref).all():
        bad.append("representative outside Phi")
    if (low != reps).any():
        bad.append("representative is not its orbit's minimum")
    if (true_len != lengths).any():
        bad.append("wrong orbit length")
    if (m % lengths).any():
        bad.append("orbit length does not divide m")
    if int(lengths.sum()) != phi_ref.size:
        bad.append("orbit lengths do not sum to |Phi|")
    return bad


def _hex_array(values) -> np.ndarray:
    return np.array([int(v, 16) for v in values], dtype=np.int64)


def check_enumerate(op: dict, code, out: str) -> list[str]:
    """op: {"m", "k", "format": "json"|"csv"}."""
    m, k = op["m"], op["k"]
    ref = phi(m, k)
    bad = [] if code == 0 else [f"exit code {code}, expected 0"]
    if ref.size != phi_size(m):
        bad.append(f"reference |Phi| = {ref.size} != (2^m + (-1)^(m+1))/3")
    if op["format"] == "csv":
        lines = out.splitlines()
        if not lines or lines[0] != "beta,orbit_representative,orbit_length":
            return bad + ["missing CSV header"]
        cols = list(zip(*(line.split(",") for line in lines[1:])))
        betas, reps = _hex_array(cols[0]), _hex_array(cols[1])
        lengths = np.array([int(v) for v in cols[2]], dtype=np.int64)
        if betas.size != ref.size or (betas != ref).any():
            return bad + ["listed Phi differs from the complement of the image"]
        low, length = field(m).orbit_min_len(betas)
        if (reps != low).any():
            bad.append("representative is not its orbit's minimum")
        if (lengths != length).any():
            bad.append("wrong orbit length")
        return bad
    data, more = _load(out)
    if more:
        return bad + more
    got = _hex_array(data["phi"]["elements"])
    if (data["phi"]["m"], data["phi"]["k"]) != (m, k):
        bad.append("wrong (m, k) in output")
    if got.size != ref.size or (got != ref).any():
        return bad + ["listed Phi differs from the complement of the image"]
    orbits = [(int(o["representative"], 16), o["length"]) for o in data["orbits"]["orbits"]]
    if data["orbits"]["total"] != ref.size:
        bad.append("orbit total is not |Phi|")
    return bad + check_orbits(m, ref, orbits)


def check_classes(op: dict, code, out: str) -> list[str]:
    """op: {"m"}: one alpha = 0 class per k* for even m, then one class per
    Frobenius orbit of Phi; the total is n(m), counted here and in the paper."""
    m = op["m"]
    data, bad = _load(out)
    if bad:
        return bad
    if code != 0:
        bad.append(f"exit code {code}, expected 0")
    rows = data["classes"]
    want = class_count(m)
    if want != PAPER_N.get(m, want):
        bad.append(f"reference n({m}) = {want} disagrees with the paper's {PAPER_N[m]}")
    if data["count"] != want or len(rows) != want:
        bad.append(f"{data['count']} classes, n({m}) = {want}")
    for k in [k for k in range(1, (m + 1) // 2) if gcd(k, m) == 1]:
        mine = [r for r in rows if r["k_star"] == k]
        zero = [r for r in mine if r["alpha_star"] == 0]
        if m % 2 == 0 and [r["members"] for r in zero] != [2 * ((1 << m) - 1) // 3]:
            bad.append(f"k*={k}: wrong alpha = 0 class")
        orbits = [(int(r["beta_star"], 16), r["members"]) for r in mine if r["alpha_star"] == 1]
        bad += [f"k*={k}: {p}" for p in check_orbits(m, phi(m, k), orbits)]
    return bad


def check_audit(op: dict, code, out: str) -> list[str]:
    """op: {"m_max"}: exit 0, no failures, one PASS line per m with the right M(m)."""
    data, bad = _load(out)
    if bad:
        return bad
    if code != 0:
        bad.append(f"exit code {code}, expected 0")
    if data.get("failures") != []:
        bad.append(f"failures {data.get('failures')}")
    lines = data.get("lines", [])
    if len(lines) != op["m_max"]:
        bad.append(f"{len(lines)} lines for m_max={op['m_max']}")
    for m, line in enumerate(lines, 1):
        if not line.endswith("PASS") or f" M={phi_size(m)} " not in line:
            bad.append(f"bad line {line!r}")
    return bad


CHECKS = {
    "scan": check_scan,
    "witness": check_witness,
    "aut": check_aut,
    "enumerate": check_enumerate,
    "classes": check_classes,
    "audit": check_audit,
}
