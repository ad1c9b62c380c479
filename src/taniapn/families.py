"""Bivariate APN function families on GF(2^m) x GF(2^m).

Functions on GF(2^(2m)) are kept in bivariate form throughout: a pair of
coordinate maps GF(2^m)^2 -> GF(2^m), never a univariate map over one
GF(2^(2m)) tower.  A point (x, y) packs into the single index
v = (bits(x) << m) | bits(y) by linmaps.pack, which states that layout
and its width once, and truth tables are arrays indexed by v holding
packed values the same way.  The families:

    taniguchi  f(x,y) = (x^(2^(2k)(2^k+1)) + a*x^(2^(2k))*y^(2^k) + b*y^(2^k+1), x*y)
               APN  iff  X^(2^k+1) + a*X + b has no root in GF(2^m)
    pott-zhou  g(x,y) = (x^(2^k+1) + a*y^(2^s(2^k+1)), x*y),  m even
               APN  iff  s even and a a non-cube

plus the univariate Gold power map x -> x^(2^i+1), gcd(i, n) = 1, kept as
a known-APN fixture for the differential checker.

A family member is one frozen object, TaniguchiParams(m, k, alpha, beta,
ctx) or PottZhouParams(m, k, s, alpha, ctx): its parameters, the field
ctx they are bit patterns in (None means default_ctx(m)), its evaluation
and its APN criterion.  A Taniguchi member decides its criterion once and
keeps the verdict: for alpha = 0 by the cube rule, otherwise by the rank
test poly_roots.is_rootless on its normalized beta, which it also keeps
for the equivalence walk.

Every function object answers is_quadratic (each coordinate of degree
<= 2), which the differential scan and the witness check read: family
members and the Gold map declare True, and a truth table (a --table
file, a materialize result) decides it once from its table.

Truth-table file format (import/export):
    header  = magic "APNT" | u8 version (=1) | u16 m (LE) | u8 kind
    payload = 2^(2m) little-endian (u32 first-coordinate, u32 second-coordinate)
              pairs in packed-index order (linmaps.pack)
    kind    = 0 truth-table, 1 taniguchi, 2 pott-zhou
A JSON manifest (same path + ".json") records m, kind, modulus and the
generating parameters.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from math import gcd
from pathlib import Path

import numpy as np

from .errors import InvalidParams, TooLarge
from .gf2m import BLOCK, FieldCtx, default_ctx, resolve_ctx
from .linmaps import pack, unpack
from .poly_roots import is_rootless, transform_beta

_MATERIALIZE_LIMIT = 28  # bits of packed index (= 2m)
_FILE_MAGIC = b"APNT"
_FILE_VERSION = 1
_KIND_CODES = {"truth-table": 0, "taniguchi": 1, "pott-zhou": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


# ---------------------------------------------------------------------------
# Evaluatable functions
# ---------------------------------------------------------------------------

class BivariateFunction:
    """A map GF(2^m)^2 -> GF(2^m)^2, a family member or a truth table."""

    kind: str = "abstract"
    ctx: FieldCtx

    @property
    def dimension(self) -> int:
        """Ambient dimension n = 2m of the packed index space."""
        return 2 * self.ctx.m

    def evaluate(self, x: int, y: int) -> tuple[int, int]:
        raise NotImplementedError

    def eval_packed_vec(self, v: np.ndarray) -> np.ndarray:
        """Packed values at an array of packed points."""
        raise NotImplementedError

    @cached_property
    def _table(self) -> np.ndarray:
        n = self.dimension
        if n > _MATERIALIZE_LIMIT:
            raise TooLarge(f"truth table of 2^{n} entries exceeds the 2^{_MATERIALIZE_LIMIT} guard")
        out = np.empty(1 << n, dtype=np.uint32)
        for lo in range(0, out.size, BLOCK):
            v = np.arange(lo, min(lo + BLOCK, out.size), dtype=np.uint32)
            out[lo:lo + v.size] = self.eval_packed_vec(v)
        return out

    def packed_table(self) -> np.ndarray:
        """Full truth table as packed uint32 values, cached."""
        return self._table

    @cached_property
    def is_quadratic(self) -> bool:
        """Every coordinate has degree <= 2: no coefficient of the algebraic
        normal form at an index of weight >= 3 is nonzero.  The family
        members declare True; this is their oracle."""
        n = self.dimension
        anf = np.array(self.packed_table(), dtype=np.uint32)
        for i in range(n):  # Moebius transform: anf[u] = XOR of tab[v], v subset of u
            halves = anf.reshape(-1, 2, 1 << i)
            halves[:, 1] ^= halves[:, 0]
        low_weight = [0] + [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1)]
        anf[low_weight] = 0
        return not anf.any()


# ---------------------------------------------------------------------------
# Family members: parameters plus the field they live in
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaniguchiParams(BivariateFunction):
    """f_{k,alpha,beta} over ctx: 0 < k < m, gcd(k, m) = 1, beta != 0.

    ctx=None means default_ctx(m).  alpha and beta are bit patterns in
    ctx, so the member keeps its field: two members are equal only over
    the same modulus.
    """

    m: int
    k: int
    alpha: int
    beta: int
    ctx: FieldCtx | None = None

    kind = "taniguchi"
    is_quadratic = True

    def __post_init__(self):
        if self.m < 2:
            raise InvalidParams("taniguchi family needs m >= 2")
        if not 0 < self.k < self.m:
            raise InvalidParams(f"k={self.k} out of range (0, {self.m})")
        if gcd(self.k, self.m) != 1:
            raise InvalidParams(f"k={self.k} not coprime to m={self.m}")
        if not 0 <= self.alpha < (1 << self.m):
            raise InvalidParams("alpha out of field range")
        if not 0 < self.beta < (1 << self.m):
            raise InvalidParams("beta must be a nonzero field element")
        object.__setattr__(self, "ctx", resolve_ctx(self.m, self.ctx))

    def evaluate(self, x: int, y: int) -> tuple[int, int]:
        ctx = self.ctx
        x2k2 = ctx.pow2k(x, 2 * self.k)
        yk = ctx.pow2k(y, self.k)
        f1 = ctx.mul(ctx.pow2k(x, 3 * self.k), x2k2)          # x^(2^(2k)(2^k+1))
        f1 ^= ctx.mul(self.alpha, ctx.mul(x2k2, yk))
        f1 ^= ctx.mul(self.beta, ctx.mul(yk, y))
        return f1, ctx.mul(x, y)

    def eval_packed_vec(self, v: np.ndarray) -> np.ndarray:
        ctx = self.ctx
        x, y = unpack(v, ctx.m)
        x2k2 = ctx.pow2k_vec(x, 2 * self.k)
        yk = ctx.pow2k_vec(y, self.k)
        f1 = ctx.mul_vec(ctx.pow2k_vec(x, 3 * self.k), x2k2)
        f1 ^= ctx.mul_vec(ctx.mul_vec(x2k2, yk), self.alpha)
        f1 ^= ctx.mul_vec(ctx.mul_vec(yk, y), self.beta)
        return pack(f1, ctx.mul_vec(x, y), ctx.m)

    @cached_property
    def normalized_beta(self) -> int:
        """beta' = poly_roots.transform_beta of the member (alpha != 0): the
        trinomial X^(2^k+1) + X + beta' is rootless iff this member's is."""
        return transform_beta(self.k, self.alpha, self.beta, self.ctx)

    @cached_property
    def _rootless(self) -> bool:
        if self.alpha == 0:
            return self.m % 2 == 0 and not self.ctx.is_cube(self.beta)
        return is_rootless(self.k, self.normalized_beta, self.ctx)

    def is_apn_criterion(self) -> bool:
        """APN criterion: the trinomial X^(2^k+1)+alpha*X+beta is rootless.

        For alpha = 0 that holds iff m is even and beta a non-cube, since
        x -> x^(2^k+1) is 3-to-1 on the nonzero elements for even m and
        bijective for odd m.  Otherwise it is the rank test on
        normalized_beta.  The verdict is decided once per member; later
        calls read it.
        """
        return self._rootless


@dataclass(frozen=True)
class PottZhouParams(BivariateFunction):
    """g_{k,s,alpha} over ctx: m even, 0 < k < m coprime, 0 <= s <= m, alpha != 0.

    ctx=None means default_ctx(m).  The structural constraints above make
    the function well defined; the APN criterion (s even and alpha a
    non-cube) is checked separately so the non-APN members stay
    constructible for negative tests.
    """

    m: int
    k: int
    s: int
    alpha: int
    ctx: FieldCtx | None = None

    kind = "pott-zhou"
    is_quadratic = True

    def __post_init__(self):
        if self.m < 2 or self.m % 2:
            raise InvalidParams("pott-zhou family needs even m >= 2")
        if not 0 < self.k < self.m:
            raise InvalidParams(f"k={self.k} out of range (0, {self.m})")
        if gcd(self.k, self.m) != 1:
            raise InvalidParams(f"k={self.k} not coprime to m={self.m}")
        if not 0 <= self.s <= self.m:
            raise InvalidParams(f"s={self.s} out of range [0, {self.m}]")
        if not 0 < self.alpha < (1 << self.m):
            raise InvalidParams("alpha must be a nonzero field element")
        object.__setattr__(self, "ctx", resolve_ctx(self.m, self.ctx))

    def evaluate(self, x: int, y: int) -> tuple[int, int]:
        ctx = self.ctx
        f1 = ctx.mul(ctx.pow2k(x, self.k), x)                            # x^(2^k+1)
        yterm = ctx.pow2k(ctx.mul(ctx.pow2k(y, self.k), y), self.s)      # y^(2^s(2^k+1))
        f1 ^= ctx.mul(self.alpha, yterm)
        return f1, ctx.mul(x, y)

    def eval_packed_vec(self, v: np.ndarray) -> np.ndarray:
        ctx = self.ctx
        x, y = unpack(v, ctx.m)
        f1 = ctx.mul_vec(ctx.pow2k_vec(x, self.k), x)
        yterm = ctx.pow2k_vec(ctx.mul_vec(ctx.pow2k_vec(y, self.k), y), self.s)
        f1 ^= ctx.mul_vec(yterm, self.alpha)
        return pack(f1, ctx.mul_vec(x, y), ctx.m)

    def is_apn_criterion(self) -> bool:
        """APN criterion: s even and alpha a non-cube."""
        return self.s % 2 == 0 and not self.ctx.is_cube(self.alpha)


class TruthTableFunction(BivariateFunction):
    kind = "truth-table"

    def __init__(self, table: np.ndarray, ctx: FieldCtx, source_kind: str | None = None):
        n = 2 * ctx.m
        if table.shape != (1 << n,):
            raise InvalidParams(f"truth table must have 2^{n} entries")
        if table.size and int(table.max()) >= 1 << n:
            raise InvalidParams(f"truth table entry exceeds the 2^{n} point space")
        self.ctx = ctx
        self.table = np.ascontiguousarray(table, dtype=np.uint32)
        self.source_kind = source_kind

    def evaluate(self, x: int, y: int) -> tuple[int, int]:
        return unpack(int(self.table[pack(x, y, self.ctx.m)]), self.ctx.m)

    def eval_packed_vec(self, v: np.ndarray) -> np.ndarray:
        return self.table[v]

    def packed_table(self) -> np.ndarray:
        return self.table


class GoldFunction:
    """Univariate Gold power map x -> x^(2^i+1) on GF(2^n); known APN fixture."""

    kind = "gold"
    is_quadratic = True

    def __init__(self, ctx: FieldCtx, i: int):
        if gcd(i, ctx.m) != 1:
            raise InvalidParams(f"gold exponent i={i} not coprime to n={ctx.m}")
        self.ctx = ctx
        self.i = i

    @property
    def dimension(self) -> int:
        return self.ctx.m

    def evaluate(self, x: int) -> int:
        return self.ctx.mul(self.ctx.pow2k(x, self.i), x)

    def eval_packed_vec(self, v: np.ndarray) -> np.ndarray:
        """Values at an array of elements (bit patterns in ctx)."""
        return self.ctx.mul_vec(self.ctx.pow2k_vec(v, self.i), v)

    def is_apn_criterion(self) -> bool:
        """Always True: the constructor refuses gcd(i, n) != 1, and every
        other Gold map is APN."""
        return True

    @cached_property
    def _table(self) -> np.ndarray:
        return self.eval_packed_vec(self.ctx.elements())

    def packed_table(self) -> np.ndarray:
        return self._table


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def gold(n: int, i: int, ctx_n: FieldCtx | None = None) -> GoldFunction:
    return GoldFunction(resolve_ctx(n, ctx_n), i)


def materialize(f: BivariateFunction) -> TruthTableFunction:
    """Freeze f into an explicit truth table (guarded at 2m <= 28)."""
    if isinstance(f, TruthTableFunction):
        return f
    return TruthTableFunction(f.packed_table(), f.ctx, source_kind=f.kind)


# ---------------------------------------------------------------------------
# Truth-table file format
# ---------------------------------------------------------------------------

def save_function(f: BivariateFunction, path: str | Path) -> Path:
    """Write the binary table plus a JSON manifest (path + ".json")."""
    if not isinstance(f, BivariateFunction):
        raise InvalidParams("truth-table files hold bivariate functions only")
    path = Path(path)
    m = f.ctx.m
    table = f.packed_table()
    kind_code = _KIND_CODES[f.kind]
    with open(path, "wb") as fh:
        fh.write(_FILE_MAGIC)
        fh.write(struct.pack("<BHB", _FILE_VERSION, m, kind_code))
        pairs = np.empty((table.size, 2), dtype="<u4")
        pairs[:, 0], pairs[:, 1] = unpack(table, m)
        pairs.tofile(fh)
    manifest = {
        "format": _FILE_MAGIC.decode(),
        "version": _FILE_VERSION,
        "m": m,
        "kind": f.kind,
        "modulus": f"0x{f.ctx.modulus:X}",
    }
    if is_dataclass(f):
        params = {fld.name: getattr(f, fld.name) for fld in fields(f) if fld.name != "ctx"}
        manifest["params"] = {name: (value if name in ("m", "k", "s") else f"0x{value:X}")
                              for name, value in params.items()}
    manifest_path = path.with_name(path.name + ".json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load_function(path: str | Path) -> TruthTableFunction:
    """Read a table written by save_function; modulus comes from the manifest.
    The header, the size guard and the file's size are checked before the
    payload is read."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(8)
        if header[:4] != _FILE_MAGIC:
            raise InvalidParams(f"{path}: bad magic, not a truth-table file")
        if len(header) < 8:
            raise InvalidParams(f"{path}: truncated header")
        version, m, kind_code = struct.unpack("<BHB", header[4:])
        if version != _FILE_VERSION:
            raise InvalidParams(f"{path}: unsupported version {version}")
        if kind_code not in _KIND_NAMES:
            raise InvalidParams(f"{path}: unknown kind code {kind_code}")
        if 2 * m > _MATERIALIZE_LIMIT:
            raise TooLarge(f"{path}: truth table of 2^{2 * m} entries exceeds the "
                           f"2^{_MATERIALIZE_LIMIT} guard")
        size = os.fstat(fh.fileno()).st_size - 8
        if size != 8 << (2 * m):
            raise InvalidParams(f"{path}: expected 2^{2 * m} entries of 8 bytes, "
                                f"got {size} bytes")
        payload = fh.read()
    manifest_path = path.with_name(path.name + ".json")
    if manifest_path.exists():
        try:
            modulus = int(json.loads(manifest_path.read_text())["modulus"], 16)
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidParams(
                f"{manifest_path}: not a JSON object with a hex \"modulus\"") from exc
        ctx = FieldCtx(m, modulus)
    else:
        ctx = default_ctx(m)
    pairs = np.frombuffer(payload, dtype="<u4").reshape(-1, 2)
    if int(pairs.max(initial=0)) >= 1 << m:
        raise InvalidParams(f"{path}: coordinate value out of GF(2^{m})")
    return TruthTableFunction(pack(pairs[:, 0], pairs[:, 1], m), ctx,
                              source_kind=_KIND_NAMES[kind_code])
