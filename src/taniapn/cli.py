"""Command-line front end.

Commands: table, audit, check-apn, enumerate-beta, spectrum, classes,
witness, aut.  Global flags (before the command): --format, --modulus.

Exit codes: 0 success / APN / verified; 1 audit or consistency failure;
2 usage error (including bad parameters and oversize requests);
3 negative verdict (not APN, not equivalent); 141 (128 + SIGPIPE) when
the reader closed stdout before the output was written, with no message.

witness prints a verified witness when it can construct one.  Two alpha = 0
members whose betas lie in different Frobenius orbits (or whose k differ)
can be CCZ-equivalent without a constructive witness here; for those the
verdict comes from the canonical triples: {"equivalent": true,
"witness": null} (pretty: "equivalent; no constructive witness
available") with exit 0.

Field elements are read and printed as hex bit-patterns relative to the
modulus in use; with a --modulus override, cross-run comparisons require
matching moduli (a warning is printed).  An override of a degree the
command builds no field of is unused: after the command, one stderr
warning names it, and stdout and the exit code stay as they are.  All
output is deterministic for fixed flags.

enumerate-beta and classes print their per-element rows (the elements of
Phi, the orbits, the alpha = 1 class rows) in every format with numpy:
_write_rows renders gf2m.BLOCK rows at a time into a byte matrix and
writes each batch to sys.stdout, so neither its temporaries nor the text
grow with |Phi|.  Every command's JSON goes through _emit_json:
json.dumps(indent=2, sort_keys=True) encodes the object, and the
rendered lists (_JsonList) are spliced in at their indent level.  The
bytes are those of the objects' to_json() through that json.dumps and
of the earlier f-string rows; the tests keep both as the renderer's
oracle.  The other formats print through _emit_csv and print.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import re
import sys
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import counting, diffanalysis, equivalence, poly_roots
from .counting import CSV_HEADER, ORACLE_DEGREE_LIMIT, count_report
from .errors import InvalidParams, TaniapnError, TooLarge
from .families import PottZhouParams, TaniguchiParams, gold, load_function, save_function
from .gf2m import BLOCK, MAX_DEGREE, FieldCtx, coprime_residues, default_ctx

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer the signal ended
# the largest m whose M(m) fits Python's default 4,300-digit int-to-str limit
_TABLE_M_LIMIT = 14285


@dataclass
class RunConfig:
    fmt: str = "pretty"
    modulus_overrides: dict[int, FieldCtx] = field(default_factory=dict)
    _served: set = field(default_factory=set)  # the override degrees ctx has handed out

    def ctx(self, m: int) -> FieldCtx:
        if m not in self.modulus_overrides:
            return default_ctx(m)
        ctx = self.modulus_overrides[m]
        if m not in self._served:
            print(
                f"warning: non-default modulus 0x{ctx.modulus:X} "
                f"for m={m}; element values are comparable only across runs "
                f"with the same modulus",
                file=sys.stderr,
            )
            self._served.add(m)
        return ctx

    def warn_unused(self) -> None:
        """One stderr warning per override degree that ctx never served."""
        for m, ctx in self.modulus_overrides.items():
            if m not in self._served:
                print(f"warning: --modulus {m}=0x{ctx.modulus:X} was not used; "
                      f"the command built no field of degree {m}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

def _parse_m_spec(spec: str, m_max: int) -> list[int]:
    """The m values of a list like 2..16 or 3,5,7..9.  Each token's bounds
    are checked against m_max before its range is expanded."""
    out: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        lo, hi = token.split("..") if ".." in token else (token, token)
        lo, hi = int(lo), int(hi)
        if max(lo, hi) > m_max:
            raise TooLarge(f"table capped at m={m_max}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError("empty m list")
    return out


def _parse_element(s: str) -> int:
    try:
        return int(s, 16)
    except ValueError:  # argparse prints this message; for a ValueError it names the function
        raise argparse.ArgumentTypeError(f"expected a hex field element, got {s!r}") from None


def _parse_modulus_override(pairs: list[str]) -> dict[int, FieldCtx]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidParams(f"--modulus expects m=HEX, got {pair!r}")
        m_str, hex_str = pair.split("=", 1)
        m = int(m_str)
        out[m] = FieldCtx(m, int(hex_str, 16))  # validates degree + irreducibility
    return out


def _parse_params_spec(spec: str, cfg: RunConfig) -> TaniguchiParams:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected m,k,alpha,beta, got {spec!r}")
    m, k = int(parts[0]), int(parts[1])
    return TaniguchiParams(m=m, k=k, alpha=_parse_element(parts[2]),
                           beta=_parse_element(parts[3]), ctx=cfg.ctx(m))


def _emit_csv(header, rows) -> None:
    print(",".join(str(h) for h in header))
    for row in rows:
        print(",".join(str(v) for v in row))


def _emit_aligned(rows: list[tuple]) -> None:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# Per-element output, rendered by numpy
# ---------------------------------------------------------------------------

_DIGITS = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)
# entry v holds the two hex digits of the byte v, as the two bytes of a uint16
_HEX_PAIRS = np.frombuffer(b"".join(b"%02X" % v for v in range(256)), dtype=np.uint16)
_SLOT = re.compile(r'"\\u0000(\d+)"')  # a placeholder string as json.dumps encodes it


@dataclass(frozen=True)
class _Col:
    """One uint32 value per row, printed in upper-case hex without a prefix
    (base 16) or in decimal (base 10)."""

    values: np.ndarray
    base: int = 16

    def width(self, value) -> int:
        return len(format(int(value), "X" if self.base == 16 else "d"))

    def cuts(self) -> list[int]:
        """The rows where an ascending column gains a digit; none for a
        column whose values do not ascend."""
        v = self.values
        if v.size < 2 or not (v[1:] >= v[:-1]).all():
            return []
        places = np.array([self.base ** d for d in range(1, self.width(v[-1]))], dtype=v.dtype)
        return np.searchsorted(v, places).tolist()

    def render(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(text, keep) for rows lo..hi: a uint8 matrix of the values right-
        aligned at the widest one's width, and the mask of the bytes that
        print (a digit prints when the value reaches its place; the last
        one always does), or None when every value fills that width."""
        v = self.values[lo:hi]
        width = self.width(v.max())
        place = np.uint32(self.base) ** np.arange(width - 1, -1, -1, dtype=np.uint32)
        if self.base == 16:  # the 8 digits of each value, from its 4 bytes high first
            text = _HEX_PAIRS.take(v.astype(">u4").view(np.uint8)).view(np.uint8)
            text = text.reshape(-1, 8)[:, 8 - width:]
        else:
            text = _DIGITS.take(v[:, None] // place % 10)
        if self.width(v.min()) == width:
            return text, None
        keep = v[:, None] >= place
        keep[:, -1] = True
        return text, keep


def _row_count(template: list) -> int:
    cols = [p for p in template if isinstance(p, _Col)]
    return cols[0].values.size if cols else 1


def _write_bytes(data: bytes) -> None:
    """Write ASCII bytes to sys.stdout, looked up here so that redirections
    of stdout see them.  A stream with a binary buffer gets the bytes there,
    after its text layer is flushed, and a short count is retried, so a
    reader that closes mid-write raises BrokenPipeError; a write that makes
    no progress (None from a non-blocking raw stream, or 0) raises
    BlockingIOError.  A stream without one (io.StringIO) gets them as text."""
    stream = sys.stdout
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(data.decode("ascii"))
        return
    stream.flush()
    view = memoryview(data)
    while view:
        written = buffer.write(view)
        if not written:
            raise BlockingIOError(errno.EAGAIN, "stdout accepted none of the bytes written")
        view = view[written:]


def _write_rows(template: list, sep: bytes = b"") -> None:
    """Write one row per value of the template's _Col columns (a template
    without columns is one row), rows joined by sep.

    A row is the template's pieces in order: bytes as they are, a _Col as
    its value in that row.  Batches of at most BLOCK rows, which bounds
    the temporaries and each write, are also cut where an ascending
    column gains a digit.  Each batch fills one uint8 matrix, its literal
    bytes broadcast from one row; when every column fills its width in the
    batch, that matrix is the text as it is, and otherwise one boolean
    compaction drops the leading zeros.
    """
    n = _row_count(template)
    cols = [p for p in template if isinstance(p, _Col)]
    cuts = sorted({*range(0, n, BLOCK), *(c for col in cols for c in col.cuts()), n})
    for lo, hi in zip(cuts, cuts[1:]):
        parts = [p.render(lo, hi) if isinstance(p, _Col) else p for p in template + [sep]]
        widths = [p[0].shape[1] if isinstance(p, tuple) else len(p) for p in parts]
        text = np.empty((hi - lo, sum(widths)), dtype=np.uint8)
        text[:] = np.frombuffer(b"".join(b"\0" * w if isinstance(p, tuple) else p
                                         for p, w in zip(parts, widths)), dtype=np.uint8)
        keep = None
        at = 0
        for p, w in zip(parts, widths):
            if isinstance(p, tuple):
                text[:, at:at + w] = p[0]
                if p[1] is not None:
                    if keep is None:
                        keep = np.ones(text.shape, dtype=bool)
                    keep[:, at:at + w] = p[1]
            at += w
        out = (text if keep is None else text[keep]).tobytes()
        if hi == n and sep:
            out = out[:-len(sep)]
        _write_bytes(out)


def _json_pieces(obj) -> list:
    """json.dumps(obj, indent=2, sort_keys=True) split around the values
    json cannot encode (the _Col and _JsonList ones): text and those values
    alternate."""
    slots = []

    def slot(value) -> str:
        slots.append(value)
        return f"\0{len(slots) - 1}"

    text = json.dumps(obj, indent=2, sort_keys=True, default=slot)
    pieces = _SLOT.split(text)
    pieces[1::2] = [slots[int(i)] for i in pieces[1::2]]
    return pieces


@dataclass(frozen=True)
class _JsonList:
    """A JSON list given as groups of items.  A group is one item template:
    a JSON value whose _Col values make one item per row (_write_rows); a
    hex column is a "0x..." string, a decimal one a number."""

    groups: list

    def write(self, pad: str) -> None:
        inner = pad + "  "
        templates = []
        for group in self.groups:
            pieces = _json_pieces(group)
            pieces[0] = inner + pieces[0]
            template = []
            for i, piece in enumerate(pieces):
                if i % 2 == 0:
                    template.append(piece.replace("\n", "\n" + inner).encode())
                else:
                    template += [b'"0x', piece, b'"'] if piece.base == 16 else [piece]
            if _row_count(template):
                templates.append(template)
        if not templates:
            sys.stdout.write("[]")
            return
        sys.stdout.write("[\n")
        for i, template in enumerate(templates):
            sys.stdout.write(",\n" if i else "")
            _write_rows(template, b",\n")
        sys.stdout.write(f"\n{pad}]")


def _emit_json(obj) -> None:
    """Print obj as print(json.dumps(obj, indent=2, sort_keys=True)) does, where
    obj may hold _JsonList values: each is spliced in at its indent level,
    its items rendered by numpy."""
    pieces = _json_pieces(obj)
    for i, piece in enumerate(pieces):
        if i % 2 == 0:
            sys.stdout.write(piece)
        else:
            line = pieces[i - 1].rsplit("\n", 1)[-1]
            piece.write(" " * (len(line) - len(line.lstrip(" "))))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(args, cfg: RunConfig) -> int:
    m_list = _parse_m_spec(args.m, _TABLE_M_LIMIT)
    if any(m < 2 for m in m_list):
        raise InvalidParams("table needs m >= 2")
    reports = [count_report(m) for m in m_list]
    if cfg.fmt == "json":
        if args.full:
            _emit_json([r.to_json() for r in reports])
        else:
            _emit_json([{"m": r.m, "n": r.n_taniguchi, "bound": r.lower_bound}
                        for r in reports])
    elif cfg.fmt == "csv":
        if args.full:
            _emit_csv(CSV_HEADER, [r.csv_row() for r in reports])
        else:
            _emit_csv(("m", "n", "bound"),
                      [(r.m, r.n_taniguchi, r.lower_bound) for r in reports])
    else:
        if args.full:
            rows = [("m", "M", "N", "b", "eps", "#", "bound")]
            rows += [(r.m, r.capital_m, r.capital_n, r.b, r.epsilon,
                      r.n_taniguchi, r.lower_bound) for r in reports]
        else:
            rows = [("m", "#", "bound")]
            rows += [(r.m, r.n_taniguchi, r.lower_bound) for r in reports]
        _emit_aligned(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _audit_ks(m: int, policy: str) -> list[int]:
    ks = coprime_residues(m)
    if policy == "all":
        return ks
    return [1] + [k for k in ks if 1 < k < m / 2][-1:]  # largest k < m/2 coprime to m


def cmd_audit(args, cfg: RunConfig) -> int:
    """Per m, the formulas M, N and b against the subfield counts of every
    audited k: N and b by Moebius inversion and Burnside, with s_m = |Phi|
    enumerated up to ORACLE_DEGREE_LIMIT and the formula M(m) above it."""
    failures = []
    lines = []
    for m in range(1, args.m_max + 1):
        ctx = cfg.ctx(m)
        want = {"M": counting.capital_m(m), "N": counting.capital_n(m),
                "b": counting.b_orbits(m)}
        enumerated = m <= ORACLE_DEGREE_LIMIT
        ks = _audit_ks(m, args.k_policy)
        bad = []
        for k, s in counting.subfield_counts(ks, ctx).items():
            s[m] = len(poly_roots.phi_set(k, ctx)) if enumerated else want["M"]
            got = {"M": s[m], "N": counting.subfield_n(m, s), "b": counting.burnside_b(m, s)}
            bad += [f"k={k} {q}: formula={want[q]} oracle={got[q]}"
                    for q in want if got[q] != want[q]]
        k_str = ",".join(str(k) for k in ks)
        if bad:
            lines.append(f"m={m} k=[{k_str}] FAIL " + "; ".join(bad))
            failures.append(m)
        else:
            note = "" if enumerated else " (formula, not enumerated)"
            lines.append(f"m={m} k=[{k_str}] M={want['M']}{note} N={want['N']} "
                         f"b={want['b']} PASS")
    if cfg.fmt == "json":
        _emit_json({"lines": lines, "failures": failures})
    else:
        for line in lines:
            print(line)
    return EXIT_AUDIT_FAIL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# check-apn / spectrum
# ---------------------------------------------------------------------------

# the flags each family takes, in the order its messages name them
_FAMILY_FLAGS = {
    "taniguchi": ("m", "k", "alpha", "beta"),
    "pott-zhou": ("m", "k", "s", "alpha"),
    "gold": ("n", "i"),
}


def _refuse_flags(args, who: str, takes=()) -> None:
    """Refuse the family flags given that `who` does not take."""
    given = [f"--{a}" for a in dict.fromkeys(sum(_FAMILY_FLAGS.values(), ()))
             if a not in takes and getattr(args, a) is not None]
    if given:
        raise InvalidParams(f"{who} does not take {' '.join(given)}")


def _build_function(args, cfg: RunConfig):
    """(function, params-dict) for a family spec."""
    fam = args.family
    takes = _FAMILY_FLAGS[fam]
    _refuse_flags(args, fam, takes)
    if any(getattr(args, a) is None for a in takes):
        raise InvalidParams(f"{fam} needs " + " ".join(f"--{a}" for a in takes))
    if fam == "taniguchi":
        f = TaniguchiParams(m=args.m, k=args.k, alpha=args.alpha, beta=args.beta,
                            ctx=cfg.ctx(args.m))
        return f, {"m": f.m, "k": f.k, "alpha": f"0x{f.alpha:X}", "beta": f"0x{f.beta:X}"}
    if fam == "pott-zhou":
        f = PottZhouParams(m=args.m, k=args.k, s=args.s, alpha=args.alpha, ctx=cfg.ctx(args.m))
        return f, {"m": f.m, "k": f.k, "s": f.s, "alpha": f"0x{f.alpha:X}"}
    return gold(args.n, args.i, cfg.ctx(args.n)), {"n": args.n, "i": args.i}


def cmd_check_apn(args, cfg: RunConfig) -> int:
    f, desc = _build_function(args, cfg)
    criterion = f.is_apn_criterion()
    scan = None
    spectrum = None
    if args.exhaustive:
        scan = diffanalysis.is_apn(f)
    if args.spectrum:
        spectrum = diffanalysis.differential_spectrum(f)
    if args.save_table is not None:
        save_function(f, args.save_table)

    verdict = criterion if scan is None else scan
    mismatch = scan is not None and scan != criterion

    if cfg.fmt == "json":
        out = {"family": args.family, "params": desc, "criterion_apn": criterion}
        if scan is not None:
            out["scan_apn"] = scan
        if spectrum is not None:
            out["spectrum"] = spectrum.to_json()
        _emit_json(out)
    else:
        print(f"family     {args.family}")
        print("params     " + " ".join(f"{k}={v}" for k, v in desc.items()))
        print(f"criterion  {'APN' if criterion else 'NOT APN'}")
        if scan is not None:
            print(f"scan       {'APN' if scan else 'NOT APN'}")
        if spectrum is not None:
            print(f"uniformity {spectrum.uniformity}")
            for c, fr in sorted(spectrum.histogram.items()):
                print(f"  count {c}: {fr} pairs")
    if mismatch:
        print("error: criterion and exhaustive scan disagree", file=sys.stderr)
        return EXIT_AUDIT_FAIL
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_spectrum(args, cfg: RunConfig) -> int:
    if args.table is not None:
        if args.family is not None:
            raise InvalidParams("spectrum takes a family or --table PATH, not both")
        _refuse_flags(args, "--table")
        f = load_function(args.table)
    elif args.family is None:
        raise InvalidParams("spectrum needs a family or --table PATH")
    else:
        f, _ = _build_function(args, cfg)
    spec = diffanalysis.differential_spectrum(f)
    if cfg.fmt == "json":
        _emit_json(spec.to_json())
    elif cfg.fmt == "csv":
        _emit_csv(("count", "pairs"), sorted(spec.histogram.items()))
    else:
        print(f"n          {spec.n}")
        print(f"uniformity {spec.uniformity}")
        for c, fr in sorted(spec.histogram.items()):
            print(f"  count {c}: {fr} pairs")
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate-beta
# ---------------------------------------------------------------------------

def cmd_enumerate_beta(args, cfg: RunConfig) -> int:
    phi = poly_roots.phi_set(args.k, cfg.ctx(args.m))
    dec = poly_roots.frobenius_orbits(phi)
    reps, lengths = _Col(dec.representatives), _Col(dec.lengths, base=10)
    if cfg.fmt == "json":
        _emit_json({
            "phi": {"m": phi.m, "k": phi.k, "elements": _JsonList([_Col(phi.elements)])},
            "orbits": {"total": dec.total,
                       "orbits": _JsonList([{"representative": reps, "length": lengths}])},
        })
    elif cfg.fmt == "csv":
        print("beta,orbit_representative,orbit_length")
        _write_rows([b"0x", _Col(phi.elements), b",0x", _Col(dec.representatives[dec.orbit_of]),
                     b",", _Col(dec.lengths[dec.orbit_of], base=10), b"\n"])
    else:
        print(f"m={args.m} k={args.k} |Phi|={len(phi)} orbits={len(dec)}")
        sys.stdout.write("phi: ")
        _write_rows([b"0x", _Col(phi.elements)], b" ")
        sys.stdout.write("\n")
        _write_rows([b"orbit 0x", reps, b" length ", lengths, b"\n"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# classes
# ---------------------------------------------------------------------------

def cmd_classes(args, cfg: RunConfig) -> int:
    m = args.m
    if m < 3:
        raise InvalidParams("classes needs m >= 3 (m=2 has the single class)")
    ctx = cfg.ctx(m)
    if args.k is not None:
        if gcd(args.k, m) != 1:
            raise InvalidParams(f"k={args.k} not coprime to m={m}")
        k_stars = [min(args.k % m, m - args.k % m)]
    else:
        k_stars = [k for k in coprime_residues(m) if k < m / 2]
    # even m: per k_star one alpha = 0 class, its members the non-cube betas
    noncubes = 2 * (ctx.order - 1) // 3 if m % 2 == 0 else None
    decs = {k: poly_roots.frobenius_orbits(poly_roots.phi_set(k, ctx)) for k in k_stars}
    count = sum(len(dec) + (noncubes is not None) for dec in decs.values())
    if cfg.fmt == "json":
        groups = []
        for k, dec in decs.items():
            if noncubes is not None:
                groups.append({"k_star": k, "alpha_star": 0, "beta_star": None,
                               "members": noncubes})
            groups.append({"k_star": k, "alpha_star": 1, "beta_star": _Col(dec.representatives),
                           "members": _Col(dec.lengths, base=10)})
        _emit_json({"m": m, "classes": _JsonList(groups), "count": count})
        return EXIT_OK
    if cfg.fmt == "csv":
        print("k_star,alpha_star,beta_star,members")
    else:
        print(f"m={m}: {count} classes" +
              ("" if args.k is not None else f" (n(m)={counting.n_taniguchi(m)})"))
    for k, dec in decs.items():
        reps, lengths = _Col(dec.representatives), _Col(dec.lengths, base=10)
        if cfg.fmt == "csv":
            alpha0 = f"{k},0,,{noncubes}"
            alpha1 = [f"{k},1,0x".encode(), reps, b",", lengths, b"\n"]
        else:
            alpha0 = f"  (k={k}, alpha=0, beta=*)  members {noncubes}"
            alpha1 = [f"  (k={k}, alpha=1, beta=0x".encode(), reps, b")  members ", lengths,
                      b"\n"]
        if noncubes is not None:
            print(alpha0)
        _write_rows(alpha1)
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness / aut
# ---------------------------------------------------------------------------

def cmd_witness(args, cfg: RunConfig) -> int:
    p1 = _parse_params_spec(getattr(args, "from"), cfg)
    p2 = _parse_params_spec(args.to, cfg)
    w = equivalence.equivalence_witness(p1, p2)
    if w is None:
        # None also covers equivalent alpha = 0 members with no constructive
        # path, so the verdict comes from the canonical triples.
        equivalent = equivalence.are_ccz_equivalent(p1, p2)
        if cfg.fmt == "json":
            _emit_json({"witness": None, "equivalent": equivalent})
        elif equivalent:
            print("equivalent; no constructive witness available")
        else:
            print("no witness: members are CCZ-inequivalent")
        return EXIT_OK if equivalent else EXIT_NEGATIVE
    ok = equivalence.verify_witness(w, p1, p2)
    if cfg.fmt == "json":
        _emit_json({"witness": w.to_json(p1.ctx), "verified": ok})
    else:
        _emit_json(w.to_json(p1.ctx))
        print(f"verified: {ok}")
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def cmd_aut(args, cfg: RunConfig) -> int:
    p = TaniguchiParams(m=args.m, k=args.k, alpha=args.alpha, beta=args.beta,
                        ctx=cfg.ctx(args.m))
    orders = equivalence.aut_orders(p)
    note = "reported constant (single class)" if args.m in (2, 3) else None
    if cfg.fmt == "json":
        out = {"aut_el": orders.aut_el, "aut_ea": orders.aut_ea, "aut": orders.aut}
        if note:
            out["note"] = note
        _emit_json(out)
    else:
        print(f"aut_el {orders.aut_el}")
        print(f"aut_ea {orders.aut_ea}")
        print(f"aut    {orders.aut}" + (f"  ({note})" if note else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(
        prog="taniapn",
        description="Taniguchi APN functions on GF(2^(2m)): verification, "
                    "equivalence classes, exact counts",
    )
    ap.add_argument("--format", choices=("pretty", "json", "csv"),
                    default="pretty", help="output format")
    ap.add_argument("--modulus", action="append", default=[], metavar="m=HEX",
                    help="override the field modulus for degree m (repeatable)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="counting table: m, #classes, lower bound")
    p.add_argument("--m", required=True, help="m list, e.g. 2..16 or 3,5,7..9")
    p.add_argument("--full", action="store_true", help="add M, N, b, eps columns")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("audit", help="formula-vs-oracle agreement per m")
    p.add_argument("--m-max", type=int, required=True,
                   choices=range(1, MAX_DEGREE + 1), metavar="M",
                   help=f"audit m = 1..M (M <= {MAX_DEGREE})")
    p.add_argument("--k-policy", choices=("default", "all"), default="default",
                   help="default: k=1 plus the largest k < m/2 coprime to m")
    p.set_defaults(func=cmd_audit)

    def add_family_args(p, with_table=False):
        p.add_argument("family", nargs="?" if with_table else None,
                       choices=("taniguchi", "pott-zhou", "gold"))
        p.add_argument("--m", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--alpha", type=_parse_element)
        p.add_argument("--beta", type=_parse_element)
        p.add_argument("--s", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--i", type=int)

    p = sub.add_parser("check-apn", help="criterion and optional exhaustive verdict")
    add_family_args(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="run the exhaustive differential scan (n <= 16)")
    p.add_argument("--spectrum", action="store_true",
                   help="also print the differential spectrum")
    p.add_argument("--save-table", default=None, metavar="PATH",
                   help="export the truth table (binary + JSON manifest)")
    p.set_defaults(func=cmd_check_apn)

    p = sub.add_parser("spectrum", help="differential spectrum of a function")
    add_family_args(p, with_table=True)
    p.add_argument("--table", default=None, metavar="PATH",
                   help="analyze a saved truth-table file instead of a family")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("enumerate-beta", help="dump Phi(m) and its orbits")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_enumerate_beta)

    p = sub.add_parser("classes", help="canonical class representatives")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("witness", help="produce and verify an equivalence witness")
    p.add_argument("--from", required=True, metavar="m,k,alpha,beta",
                   help="source params (alpha, beta in hex)")
    p.add_argument("--to", required=True, metavar="m,k,alpha,beta")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("aut", help="automorphism group orders")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=_parse_element, required=True)
    p.add_argument("--beta", type=_parse_element, required=True)
    p.set_defaults(func=cmd_aut)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(fmt=args.format,
                        modulus_overrides=_parse_modulus_override(args.modulus))
        code = args.func(args, cfg)
        cfg.warn_unused()
        sys.stdout.flush()  # a closed pipe shows at the last flush as well
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to the null device
        # at exit, so no second error is printed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    # OSError: --table, --save-table paths; ArgumentTypeError: a bad element in --from, --to
    except (TaniapnError, ValueError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
